"""Row blocks equal the per-path pipeline, bit for bit, on the same streams.

Each row kernel has a one-row case: ``brownian_rows`` / ``sample_brownian``,
``ExcursionRows`` / ``decompose_excursions`` and ``last_zero_curve``,
``build_model_rows`` / ``build_model``, and the sigma_h kernel /
``sigma_h_check``; ``sign_path_rows``, the qp and carried-by kernels, the
``PROCESS_ZOO`` members and ``covariation_rows`` take a block of any size,
one row included.  A block must
reproduce the one-row case row by row whatever the block size, so the
suites built on blocks give the same numbers at any block size, including
one row per block; the pins at the end were recorded from the per-path
implementation the blocks replaced.
"""

import contextlib
import hashlib
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skewlab import grid_paths, signed_measure
from skewlab.cli import config_from_pairs, emit_report, run_experiment
from skewlab.excursion import ExcursionRows, decompose_excursions, dilate, last_zero_curve
from skewlab.grid_paths import SamplePath, SeedSpec, brownian_rows, make_grid, sample_brownian
from skewlab.localtime import covariation_rows, ito_rows, tanaka_rows
from skewlab.signed_measure import (
    EQUIVALENCE_SUITES,
    PROCESS_ZOO,
    DecompositionRows,
    ModelRows,
    build_model,
    build_model_rows,
    equivalence_suite,
    martingale_drift_test,
    optional_representation_check,
    sigma_h_check,
)
from skewlab.signflip import AlphaSchedule, sign_path_rows

from conftest import MASTER, excursion_runs

X0 = st.sampled_from([0.0, 1.0, -0.5, 3.0])
STEPS = st.integers(1, 64)


@contextlib.contextmanager
def block_elements(n):
    """Run with row blocks of about ``n`` elements per array."""
    saved = grid_paths.BLOCK_ELEMENTS
    grid_paths.BLOCK_ELEMENTS = n
    try:
        yield
    finally:
        grid_paths.BLOCK_ELEMENTS = saved


@contextlib.contextmanager
def drift_matrices():
    """Collect the checkpoint matrices every drift statistic reads."""
    seen = []
    report = signed_measure._drift_report

    def spy(values, *args):
        seen.append(np.array(values))
        return report(values, *args)

    signed_measure._drift_report = spy
    try:
        yield seen
    finally:
        signed_measure._drift_report = report


def same_bits(a, b):
    return np.asarray(a).dtype == np.asarray(b).dtype and np.array_equal(a, b) and (
        np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()
    )


@st.composite
def integer_rows(draw):
    """Rows of integer steps from an integer start: they hit 0 exactly, stay
    on it, and also cross it."""
    n_rows, n_steps = draw(st.integers(1, 7)), draw(STEPS)
    rows = []
    for _ in range(n_rows):
        start = draw(st.integers(-2, 2))
        steps = draw(st.lists(st.integers(-2, 2), min_size=n_steps, max_size=n_steps))
        rows.append(np.concatenate([[start], start + np.cumsum(steps)]))
    return np.array(rows, dtype=float)


@settings(max_examples=60, deadline=None)
@given(n_rows=st.integers(1, 48), n_steps=STEPS, x0=X0)
def test_brownian_rows_equal_sample_brownian(n_rows, n_steps, x0):
    grid = make_grid(1.0, n_steps)
    seeds = [SeedSpec(MASTER, "rows", p) for p in range(n_rows)]
    block = brownian_rows(grid, seeds, x0)
    for row, seed in zip(block, seeds):
        # the start is added after the cumulative sum, so the sum of a row
        # from 0 plus x0 is that row bit for bit
        assert same_bits(row, sample_brownian(grid, seed).values + x0)


@settings(max_examples=150, deadline=None)
@given(values=integer_rows())
def test_excursion_rows_equal_one_row(values):
    rows = ExcursionRows(values)
    first = np.cumsum(rows.counts) - rows.counts
    for r, row in enumerate(values):
        exc = decompose_excursions(SamplePath(make_grid(1.0, len(row) - 1), row))
        gamma, gbar = last_zero_curve(exc)
        assert np.array_equal(rows.events[r], exc.rows.events[0])
        assert np.array_equal(rows.covered[r], exc.rows.covered[0])
        assert np.array_equal(rows.starts[r], exc.rows.starts[0])
        assert same_bits(rows.gamma[r], gamma)
        assert rows.gbar[r] == gbar
        k = slice(first[r], first[r] + rows.counts[r])
        assert same_bits(rows.births[k], exc.rows.births)
        assert excursion_runs(rows, r) == excursion_runs(exc.rows)


@settings(max_examples=150, deadline=None)
@given(values=integer_rows())
def test_excursion_rows_partition_rows_with_exact_zeros(values):
    # each index is on the zero mask or covered by exactly one of its row's
    # excursions, a maximal run of one sign born at its first covered index
    # or at the exact zero just before it
    rows = ExcursionRows(values)
    for r, row in enumerate(values):
        assert np.array_equal(rows.covered[r], row != 0)
        cover = np.zeros(len(row), dtype=int)
        runs = excursion_runs(rows, r)
        for birth, lo, hi, sign in runs:
            assert np.all(np.sign(row[lo : hi + 1]) == sign)
            assert birth == (lo - 1 if lo > 0 and row[lo - 1] == 0 else lo)
            cover[lo : hi + 1] += 1
        for (_, _, hi, sign), (_, lo, _, next_sign) in zip(runs, runs[1:]):
            assert lo > hi + 1 or next_sign != sign
        assert np.array_equal(cover, (row != 0).astype(int))


@settings(max_examples=100, deadline=None)
@given(
    values=integer_rows(),
    cuts=st.lists(st.floats(0.05, 0.95), max_size=2, unique=True),
)
def test_sign_path_rows_equal_one_row_blocks(values, cuts):
    grid = make_grid(1.0, values.shape[1] - 1)
    bounds = [0.0] + sorted(cuts)
    schedule = AlphaSchedule.piecewise(bounds, np.linspace(0.2, 0.8, len(bounds)))
    seeds = [SeedSpec(MASTER, "flip", p) for p in range(len(values))]
    block = sign_path_rows(values, grid, schedule, seeds)
    for row, source, seed in zip(block, values, seeds):
        assert same_bits(row, sign_path_rows(source[None, :], grid, schedule, [seed])[0])


@settings(max_examples=20, deadline=None)
@given(n_rows=st.integers(8, 48), n_steps=STEPS)
def test_sign_path_rows_of_large_blocks_equal_one_row_blocks(n_rows, n_steps):
    # blocks larger than integer_rows draws
    steps = np.random.default_rng(n_rows * 1000 + n_steps).integers(-2, 3, (n_rows, n_steps + 1))
    values = np.cumsum(steps, axis=1).astype(float)
    grid = make_grid(1.0, n_steps)
    schedule = AlphaSchedule.piecewise([0.0, 0.4], [0.3, 0.8])
    seeds = [SeedSpec(MASTER, "flipblock", p) for p in range(n_rows)]
    block = sign_path_rows(values, grid, schedule, seeds)
    for row, source, seed in zip(block, values, seeds):
        assert same_bits(row, sign_path_rows(source[None, :], grid, schedule, [seed])[0])


def run_at_block_size(elements, fn):
    with drift_matrices() as seen, block_elements(elements):
        return fn(), seen


@settings(max_examples=12, deadline=None)
@given(
    base=st.sampled_from(sorted(PROCESS_ZOO)),
    model_family=st.sampled_from(["trivial", "shifted_brownian"]),
    n_steps=STEPS,
    extra=st.integers(0, 40),
    elements=st.integers(1, 400),
)
def test_drift_matrix_equals_per_path_family(base, model_family, n_steps, extra, elements):
    # one row per block is the per-path family
    def run():
        return martingale_drift_test(
            model_family, base, make_grid(1.0, n_steps), SeedSpec(MASTER, f"dm/{base}"),
            1000 + extra,
        )

    one_row, (seen_one,) = run_at_block_size(1, run)
    blocked, (seen_blocked,) = run_at_block_size(elements, run)
    assert blocked == one_row
    assert same_bits(seen_blocked, seen_one)


@settings(max_examples=16, deadline=None)
@given(
    name=st.sampled_from(sorted(EQUIVALENCE_SUITES)),
    base=st.sampled_from(["shifted_bm", "bm", "reflected_bm", "bm_plus_drift"]),
    model_family=st.sampled_from(["trivial", "shifted_brownian"]),
    n_steps=st.integers(2, 64),
    extra=st.integers(0, 40),
    elements=st.integers(2, 400),
)
def test_equivalence_suite_block_size_free(name, base, model_family, n_steps, extra, elements):
    def run():
        with mock.patch.multiple(signed_measure, _EQUIVALENCE_GRID=make_grid(1.0, n_steps),
                                 _SIGMA_PATHS=5):
            return equivalence_suite(
                name, model_family, base, 0.7, SeedSpec(MASTER, f"eqb/{name}"), 1000 + extra,
            )

    one_row, seen_one = run_at_block_size(1, run)
    blocked, seen_blocked = run_at_block_size(elements, run)
    assert blocked == one_row
    assert len(seen_blocked) == len(seen_one)
    for a, b in zip(seen_blocked, seen_one):
        assert same_bits(a, b)


@settings(max_examples=10, deadline=None)
@given(
    model_family=st.sampled_from(["trivial", "shifted_brownian"]),
    base=st.sampled_from(["bm", "bm_minus_frozen"]),
    n_steps=STEPS,
    callable_stop=st.booleans(),
    extra=st.integers(0, 40),
    elements=st.integers(2, 400),
)
def test_representation_block_size_free(model_family, base, n_steps, callable_stop, extra, elements):
    grid = make_grid(1.0, n_steps)

    def first_exit(m, models):
        hit = np.abs(m) >= 0.5
        return np.where(hit.any(axis=1), hit.argmax(axis=1), grid.n_steps)

    events = {
        "omega": lambda m, models: True,
        "late_zero": lambda m, models: models.zeros.gbar > grid.n_steps // 2,
    }

    def run():
        return optional_representation_check(
            base, first_exit if callable_stop else 0.5, events,
            1000 + extra, model_family, grid, SeedSpec(MASTER, "repb"),
        )

    one_row, _ = run_at_block_size(1, run)
    blocked, _ = run_at_block_size(elements, run)
    assert blocked == one_row


def carried_reference(fv, mask, dilation=2):
    """The carried-by statistic of one path as a compaction of its 1-D
    increments."""
    dv = np.abs(np.diff(fv))
    total = float(dv.sum())
    if total == 0.0:
        return 1.0
    near = dilate(mask, dilation)
    return float(dv[near[:-1] | near[1:]].sum() / total)


def row_of(dec, r):
    """Row r of a decomposition block as a one-row block."""

    def cut(values):
        return None if values is None else values[r:r + 1]

    return DecompositionRows(dec.grid, cut(dec.total), cut(dec.martingale_part),
                             cut(dec.fv_part), dec.label, cut(dec.zero_source))


def model_row(models, r):
    """Row r of a model block as a one-row block."""
    return ModelRows(models.family, models.grid, models.d[r:r + 1])


def assert_kernels_equal_one_row(models, dec):
    """Row r of each check's row kernel on the block equals the one-row
    check, or the kernel on a one-row block, of row r's model and
    decomposition.  The carried-by fraction is also taken of the total,
    whose Gaussian increments make a masked row sum round differently from
    a compaction."""
    qp = signed_measure._qp_rows(models.d, dec.total, dec.fv_part)
    cov = covariation_rows(dec.total, models.d)
    mask = models.zeros.events | ExcursionRows(dec.zero_path).events
    carried = [signed_measure._carried_rows(v, mask) for v in (dec.fv_part, dec.total)]
    sigma = signed_measure._sigma_rows(models, dec.zero_path, dec.martingale_part, dec.fv_part)
    for r in range(len(models.d)):
        model, one = model_row(models, r), row_of(dec, r)
        assert same_bits(qp[r], signed_measure._qp_rows(model.d, one.total, one.fv_part)[0])
        assert same_bits(cov[r], covariation_rows(one.total, model.d)[0])
        for values, stat in zip((one.fv_part, one.total), carried):
            one_row = signed_measure._carried_rows(values, mask[r][None, :])[0]
            assert one_row == stat[r] == carried_reference(values[0], mask[r])
        stat, qp_terminal, starts_ok, passed = (v[r] for v in sigma)
        rep = sigma_h_check(one, model)
        assert (rep.statistic, rep.passed) == (stat, passed)
        assert rep.detail == (f"carried={stat:.4f} qp_terminal={qp_terminal:.4f} "
                              f"starts_ok={bool(starts_ok)} label={one.label}")


@settings(max_examples=40, deadline=None)
@given(
    base=st.sampled_from(sorted(PROCESS_ZOO)),
    model_family=st.sampled_from(["trivial", "shifted_brownian"]),
    n_rows=st.integers(1, 12),
    n_steps=STEPS,
)
def test_check_kernels_equal_one_row_on_zoo_blocks(base, model_family, n_rows, n_steps):
    grid = make_grid(1.0, n_steps)
    seeds = [SeedSpec(MASTER, f"kern/{base}", p) for p in range(n_rows)]
    models = build_model_rows(model_family, grid, [s.child("model") for s in seeds])
    assert_kernels_equal_one_row(models, PROCESS_ZOO[base](models, grid, seeds))


@settings(max_examples=100, deadline=None)
@given(values=integer_rows())
def test_check_kernels_equal_one_row_on_integer_rows(values):
    # D and W take integer steps and sit on 0 exactly; A is the Tanaka local
    # time of D, carried by the zeros of D
    grid = make_grid(1.0, values.shape[1] - 1)
    models = ModelRows("custom", grid, values)
    w = values[::-1]
    v = tanaka_rows(values)
    assert_kernels_equal_one_row(models, DecompositionRows(grid, w + v, w, v))


@settings(max_examples=40, deadline=None)
@given(n_rows=st.integers(1, 12), n_steps=STEPS, reflect=st.integers(0, 2**12 - 1))
def test_check_kernels_equal_one_row_on_nonnegative_rows(n_rows, n_steps, reflect):
    # rows picked by ``reflect`` are |W| with no zero source (the snap
    # branch), the others W itself
    grid = make_grid(1.0, n_steps)
    w = brownian_rows(grid, [SeedSpec(MASTER, "refl", p) for p in range(n_rows)])
    reflected = ((reflect >> np.arange(n_rows)) & 1).astype(bool)[:, None]
    total = np.where(reflected, np.abs(w), w)
    m = np.where(reflected, ito_rows(np.sign(w), w), w)
    models = build_model_rows("trivial", grid, [SeedSpec(MASTER, "refl/model")] * n_rows)
    assert_kernels_equal_one_row(models, DecompositionRows(grid, total, m, total - m))


def test_later_blocks_leave_handed_out_paths_unchanged():
    grid = make_grid(1.0, 32)
    ctx = signed_measure._SuiteContext(
        "shifted_brownian", "reflected_bm", 0.7, SeedSpec(MASTER, "frz"), 1000, grid,
    )
    handed = []

    def side(models, dec, seeds):
        handed.extend((model_row(models, j), dec, j, seeds[j]) for j in range(len(seeds)))
        return np.zeros((len(seeds), 0))

    with block_elements(5 * grid.n_points):
        _, (read,) = ctx.read([(12, side)])
    assert len(read) == len(handed) == 12
    for p, (model, dec, j, seed) in enumerate(handed):
        assert seed == SeedSpec(MASTER, "frz").with_path(p)
        fresh_model = build_model("shifted_brownian", grid, seed.child("model"))
        fresh = PROCESS_ZOO["reflected_bm"](fresh_model, grid, [seed])
        assert same_bits(model.d, fresh_model.d)
        for field in ("total", "martingale_part", "fv_part", "zero_source"):
            assert same_bits(getattr(dec, field)[j], getattr(fresh, field)[0])
            with pytest.raises(ValueError):
                getattr(dec, field)[j, 0] = 1.0
        with pytest.raises(ValueError):
            model.d[0, 0] = 1.0


def split_checks(fn):
    """The rows of each split checked, so of each ``DecompositionRows``
    built, while ``fn`` runs at one row per block."""
    calls = []
    check = signed_measure._check_split

    def spy(*arrays):
        calls.append(len(arrays[0]))
        return check(*arrays)

    signed_measure._check_split = spy
    try:
        with block_elements(1):
            fn()
    finally:
        signed_measure._check_split = check
    return calls


def test_sigma_h_suite_checks_each_split_once(tmp_path):
    cfg = config_from_pairs({"suite": "sigma_h", "steps": "64", "seeds": "9",
                             "out": str(tmp_path)})
    assert split_checks(lambda: run_experiment(cfg)) == [1] * (3 * 9)


GRID16 = make_grid(1.0, 16)


def abs_mart_on_grid16(seed):
    with mock.patch.object(signed_measure, "_EQUIVALENCE_GRID", GRID16):
        return equivalence_suite("abs_mart", "trivial", "shifted_bm", 0.7, seed, 1000)


@pytest.mark.parametrize("run", [
    lambda seed: martingale_drift_test("shifted_brownian", "bm", GRID16, seed, 1000),
    lambda seed: optional_representation_check(
        "bm_minus_frozen", 0.5, {"omega": lambda m, models: True}, 1000, "shifted_brownian",
        GRID16, seed,
    ),
    lambda seed: signed_measure.sigma_h_panel("trivial", "reflected_bm", GRID16, seed, 1000),
    abs_mart_on_grid16,
], ids=["drift", "representation", "sigma_h_panel", "abs_mart"])
def test_block_readers_build_each_path_once(run):
    # every side of a suite reads the one block built for its paths
    assert split_checks(lambda: run(SeedSpec(MASTER, "once"))) == [1] * 1000


#: report rows (suite, repr(statistic), repr(threshold), n_paths, n_steps,
#: seed token, pass, detail) recorded with the per-path suites, before the
#: suites were built on row blocks; the rows from qp_brownian on were
#: recorded with the per-path qp, carried-by and sigma_h checks, before
#: those became row kernels
PINS = [
    ('equivalence.abs_mart', '0.2482177140161689', '1.0', 1000, 1024, '7:pin/abs_mart/shifted_bm:0', True, 'left=pass right=pass'),
    ('equivalence.abs_mart', '5.838226796395428', '1.0', 1000, 1024, '7:pin/abs_mart/shifted_bm_drift:0', True, 'left=fail right=fail'),
    ('equivalence.zalpha_mart', '0.44188413429149126', '1.0', 1000, 1024, '7:pin/zalpha_mart/shifted_bm:0', True, 'left=pass right=pass'),
    ('equivalence.zalpha_mart', '5.470681745425127', '1.0', 1000, 1024, '7:pin/zalpha_mart/shifted_bm_drift:0', True, 'left=fail right=fail'),
    ('equivalence.abs_sigma', '3.774758283725532e-15', '1.0', 1000, 1024, '7:pin/abs_sigma/bm:0', True, 'left=pass right=pass stats=(1.000,1.000)'),
    ('equivalence.abs_sigma', '0.94873046875', '1.0', 1000, 1024, '7:pin/abs_sigma/bm_plus_drift:0', True, 'left=fail right=fail stats=(0.051,0.392)'),
    ('equivalence.zalpha_sigma', '2.6645352591003757e-15', '1.0', 1000, 1024, '7:pin/zalpha_sigma/bm:0', True, 'left=pass right=pass stats=(1.000,1.000)'),
    ('equivalence.zalpha_sigma', '0.9599609375', '1.0', 1000, 1024, '7:pin/zalpha_sigma/bm_plus_drift:0', True, 'left=fail right=fail stats=(0.040,0.198)'),
    ('equivalence.cmart', '0.699908723132567', '1.0', 1000, 1024, '7:pin/cmart/reflected_bm:0', True, 'left=pass right=pass sigma_stat=1.000'),
    ('equivalence.cmart', '1.7875249771351607', '1.0', 1000, 1024, '7:pin/cmart/bm_plus_drift:0', True, 'left=fail right=fail sigma_stat=0.055'),
    ('martingale.bm', '1.1833701377795653', '4.0', 1000, 256, '7:martingale:0', True, 'pair=(0.5,1) weight=sign_half'),
    ('martingale.bm_plus_local_time', '2.080412838937297', '4.0', 1000, 256, '7:martingale:0', True, 'pair=(0,0.5) weight=const'),
    ('martingale.negative_control', '16.876866186754345', '5.0', 1000, 256, '7:martingale:0', True, 'acceptance region above threshold: control must be rejected'),
    ('representation.T0.5', '0.34388689750575574', '4.0', 1000, 256, '7:representation:0', True, 'model=trivial worst_event=omega'),
    ('representation.T1', '0.0', '4.0', 1000, 256, '7:representation:0', True, 'model=trivial worst_event=w_quarter_pos'),
    ('representation.T0.5', '1.9795650403347151', '4.0', 1000, 256, '7:representation:0', True, 'model=shifted_brownian worst_event=w_quarter_pos'),
    ('representation.T1', '0.0', '4.0', 1000, 256, '7:representation:0', True, 'model=shifted_brownian worst_event=w_quarter_pos'),
    ('equivalence.qp_brownian', '0.5907071773594852', '1.0', 32, 1024, '7:pin/shifted_brownian/qp_brownian/bm:0', True, 'median_qv_err=0.0295 median_qp=0.0162'),
    ('equivalence.qp_brownian', '0.7666571137937339', '1.0', 32, 1024, '7:pin/shifted_brownian/qp_brownian/bm_plus_local_time:0', True, 'median_qv_err=0.0383 median_qp=0.0263'),
    ('equivalence.abs_brownian', '0.5470579116101064', '1.0', 1000, 1024, '7:pin/trivial/abs_brownian/reflected_bm:0', True, 'drift=0.74 ks=0.02816 ks_crit=0.05147'),
    ('equivalence.abs_brownian', '0.43762739936115486', '1.0', 1000, 1024, '7:pin/trivial/abs_brownian/bm:0', True, 'drift=1.10 ks=0.02252 ks_crit=0.05147'),
    ('equivalence.zalpha_sigma', '1.2212453270876722e-14', '1.0', 1000, 1024, '7:pin/trivial/zalpha_sigma/reflected_bm:0', True, 'left=pass right=pass stats=(1.000,1.000)'),
    ('equivalence.abs_sigma', '5.329070518200751e-15', '1.0', 1000, 1024, '7:pin/shifted_brownian/abs_sigma/bm_plus_local_time:0', True, 'left=pass right=pass stats=(1.000,1.000)'),
    ('equivalence.zalpha_sigma', '7.771561172376096e-15', '1.0', 1000, 1024, '7:pin/shifted_brownian/zalpha_sigma/bm_plus_local_time:0', True, 'left=pass right=pass stats=(1.000,1.000)'),
    ('sigma_h.reflected_bm', '0.9999999999999966', '0.95', 16, 1024, '7:sigma_h:0', True, 'pass fraction 1.00 over 16 paths'),
    ('sigma_h.bm_plus_local_time', '1.0', '0.95', 16, 1024, '7:sigma_h:0', True, 'pass fraction 0.94 over 16 paths'),
    ('sigma_h.negative_control', '0.1025390625', '0.95', 16, 1024, '7:sigma_h:0', True, 'pass fraction 0.00 over 16 paths; acceptance region below threshold'),
]

EQUIVALENCE_PIN_CASES = (
    ("abs_mart", "shifted_bm"), ("abs_mart", "shifted_bm_drift"),
    ("zalpha_mart", "shifted_bm"), ("zalpha_mart", "shifted_bm_drift"),
    ("abs_sigma", "bm"), ("abs_sigma", "bm_plus_drift"),
    ("zalpha_sigma", "bm"), ("zalpha_sigma", "bm_plus_drift"),
    ("cmart", "reflected_bm"), ("cmart", "bm_plus_drift"),
)

#: (suite, model family, base) of the pins that run the panel and flip
#: paths: nontrivial H, and reflected bases that take the snap branch
PANEL_PIN_CASES = (
    ("qp_brownian", "shifted_brownian", "bm"),
    ("qp_brownian", "shifted_brownian", "bm_plus_local_time"),
    ("abs_brownian", "trivial", "reflected_bm"),
    ("abs_brownian", "trivial", "bm"),
    ("zalpha_sigma", "trivial", "reflected_bm"),
    ("abs_sigma", "shifted_brownian", "bm_plus_local_time"),
    ("zalpha_sigma", "shifted_brownian", "bm_plus_local_time"),
)


def pin_row(r):
    return (r.suite, repr(r.statistic), repr(r.threshold), r.n_paths, r.n_steps,
            r.seed.token() if r.seed else "", bool(r.passed), r.detail)


def test_report_rows_match_per_path_pins(tmp_path):
    root = SeedSpec(7)
    rows = [
        pin_row(equivalence_suite(name, "trivial", base, 0.5 if name == "cmart" else 0.7,
                                  root.child(f"pin/{name}/{base}"), 1000))
        for name, base in EQUIVALENCE_PIN_CASES
    ]
    for suite, model in (("martingale", "shifted_brownian"), ("representation", "trivial"),
                         ("representation", "shifted_brownian")):
        cfg = config_from_pairs({"suite": suite, "model": model, "paths": "1000",
                                 "steps": "256", "seed": "7", "out": str(tmp_path)})
        rows += [pin_row(r) for r in run_experiment(cfg).reports]
    rows += [
        pin_row(equivalence_suite(name, model, base, 0.7,
                                  root.child(f"pin/{model}/{name}/{base}"), 1000))
        for name, model, base in PANEL_PIN_CASES
    ]
    cfg = config_from_pairs({"suite": "sigma_h", "steps": "1024", "seeds": "16", "seed": "7",
                             "out": str(tmp_path)})
    rows += [pin_row(r) for r in run_experiment(cfg).reports]
    assert rows == PINS


#: report rows of the long-row suites at steps 256,1024,4096 with 4 seeds and
#: master seed 7, recorded before their levels were computed in place
LONG_ROW_PINS = [
    ('identities.tanaka', '0.2771789412297955', '0.3125', 4, 4096, '7:identities:0', True, 'median sup-norm at finest level'),
    ('identities.tanaka.monotone', '0.0', '1.0', 4, 4096, '7:identities:0', False, 'medians 256:0.2264 1024:0.5580 4096:0.2772'),
    ('identities.balayage', '0.00211036379124456', '0.3125', 4, 4096, '7:identities:0', True, 'median sup-norm at finest level'),
    ('identities.balayage.monotone', '1.0', '1.0', 4, 4096, '7:identities:0', True, 'medians 256:0.0038 1024:0.0028 4096:0.0021'),
    ('identities.transform', '0.0001095889564287078', '0.3125', 4, 4096, '7:identities:0', True, 'median sup-norm at finest level'),
    ('identities.transform.monotone', '1.0', '1.0', 4, 4096, '7:identities:0', True, 'medians 256:0.0013 1024:0.0005 4096:0.0001'),
    ('skew_residual', '0.09141351962573611', '0.3125', 4, 4096, '7:skew_residual:0', True, 'median sup-norm at finest level, absolute variant'),
    ('skew_residual.monotone', '0.0', '1.0', 4, 4096, '7:skew_residual:0', False, 'medians 256:0.0872 1024:0.0875 4096:0.0914'),
]

#: SHA-256 of the seed-0 Tanaka residual curves of the same identities run
TANAKA_CURVE_SHA256 = {
    "curve_tanaka_residual_n256.csv": "2d6d17d3b28d051ef35dbcd71eb6e62dbad0fb5605363cfd0df50ab537ecd684",
    "curve_tanaka_residual_n1024.csv": "7cceb335bb84a3b75b9509c751cf5dda7835f6ceac6867d41ae1edc6637831ce",
    "curve_tanaka_residual_n4096.csv": "9fe4e503d8b8eb0a8de93f1f31d66f3d76f7985e6df86a5ce9458946b1ca131e",
}


def test_long_row_suites_pinned(tmp_path):
    pairs = {"steps": "256,1024,4096", "seeds": "4", "seed": "7", "format": "csv",
             "out": str(tmp_path)}
    cfg = config_from_pairs(dict(pairs, suite="identities"))
    bundle = run_experiment(cfg)
    rows = [pin_row(r) for r in bundle.reports]
    curves = {}
    for path in emit_report(bundle, cfg.fmt, cfg.out_dir):
        name = os.path.basename(path)
        if name.startswith("curve_tanaka_residual"):
            with open(path, "rb") as f:
                curves[name] = hashlib.sha256(f.read()).hexdigest()
    cfg = config_from_pairs(dict(pairs, suite="skew_residual", **{
        "schedule.boundaries": "0,0.5", "schedule.values": "0.3,0.8"}))
    rows += [pin_row(r) for r in run_experiment(cfg).reports]
    assert rows == LONG_ROW_PINS
    assert curves == TANAKA_CURVE_SHA256


#: report rows of a default-config skew_law run at 1000 paths and 256 steps
SKEW_LAW_PINS = [
    ('skew_law.ks', '0.016615714142923954', '0.051469977858689536', 1000, 256, '20240817:skew_law:0', True, 'one_sample midpoint level=0.01 sign_prob_err=0.01000'),
    ('skew_law.sign_probability', '0.010000000000000009', '0.057965506984757754', 1000, 256, '20240817:skew_law:0', True, 'empirical 0.7100 vs alpha 0.7'),
    ('skew_law.walk_cross_check', '0.02300000000000002', '0.07778954074280166', 1000, 256, '20240817:skew_law:0', True, 'two_sample vs hs_walk[alpha=0.7] level=0.01 lattice_spacing=0.12500 smoothed'),
]

#: SHA-256 of the same run's emitted files, reports.json without its
#: timestamp line
SKEW_LAW_SHA256 = {
    "reports.json": "7be07325b7110793c9f63366231ff2cc3a9c7aa99cb482017792d056b128fb6a",
    "curve_skew_density_alpha0.7.csv": "e03a1e0e7b03ba03de816a16c5d11bd53206325ad8318e8d4af16365f62328d4",
    "curve_skew_empirical_density.csv": "bdd6f89fa05af27eb762c6d99d19a00468e17a229ad3c721d9a612fb0821d880",
}


def test_skew_law_pinned(tmp_path):
    cfg = config_from_pairs({"suite": "skew_law", "paths": "1000", "steps": "256",
                             "format": "json", "out": str(tmp_path)})
    bundle = run_experiment(cfg)
    digests = {}
    for path in emit_report(bundle, cfg.fmt, cfg.out_dir):
        with open(path, "rb") as f:
            lines = [line for line in f if b'"timestamp":' not in line]
        digests[os.path.basename(path)] = hashlib.sha256(b"".join(lines)).hexdigest()
    assert [pin_row(r) for r in bundle.reports] == SKEW_LAW_PINS
    assert digests == SKEW_LAW_SHA256
