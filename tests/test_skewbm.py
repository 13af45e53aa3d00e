"""Skew construction, SDE residual, density and walk oracles, law tests."""

import contextlib
import functools
import inspect
import math
import os
import sys
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import kstwobign, norm

import skewlab
from skewlab.excursion import decompose_excursions
from skewlab.grid_paths import SamplePath, SeedSpec, brownian_rows, make_grid, sample_brownian
from skewlab.localtime import (
    OCCUPATION_EXPONENT, ResidualReport, _occupation, covariation_rows, ito_rows
)
from skewlab.signed_measure import InsufficientSamplesError, equivalence_suite
from skewlab.signflip import AlphaSchedule, build_sign_path, sign_path_rows
from skewlab import grid_paths, signed_measure, skewbm
from skewlab.cli import config_from_pairs, run_experiment
from skewlab.skewbm import (
    LawSample,
    _base_rows,
    _bulk_chunk,
    _driving_noise,
    _octet_steps,
    _skew_correction,
    SkewLaw,
    harrison_shepp_terminals,
    ks_statistic,
    law_test,
    sde_residual,
    skew_terminal_sample,
    skew_terminal_samples,
    skew_transition_cdf,
    skew_transition_density,
    two_sample_ks,
)

from conftest import MASTER


def walk_exact_distribution(alpha, n):
    """Independent enumeration oracle: exact terminal pmf of the skew walk."""
    p = np.zeros(2 * n + 1)
    p[n] = 1.0
    for _ in range(n):
        q = np.zeros_like(p)
        q[n + 1] += alpha * p[n]
        q[n - 1] += (1 - alpha) * p[n]
        off = p.copy()
        off[n] = 0.0
        q[2:] += 0.5 * off[1:-1]
        q[:-2] += 0.5 * off[1:-1]
        p = q
    return p


def walk_terminals_reference(u, alpha, start=0):
    """Column-loop reference for the batched walk: integer terminal states of
    skew walks driven by uniform rows (one row per walk) from state ``start``."""
    n_walks, n_steps = u.shape
    state = np.full(n_walks, start, dtype=np.int64)
    for j in range(n_steps):
        thresh = np.where(state == 0, alpha, 0.5)
        state += np.where(u[:, j] < thresh, 1, -1)
    return state


def reference_scan(rows):
    """Per-row excursion count and straddling-excursion birth index of base-path
    rows (column j is path index j + 1), by a sign-change scan.  The birth is
    the excursion's g index on the zero-prefixed path: the exact zero just
    before its first covered index, else that index; 0 with no excursion."""
    sgn = np.sign(rows).astype(np.int8)
    nz = sgn != 0
    starts = nz.copy()
    starts[:, 1:] &= ~nz[:, :-1] | (sgn[:, 1:] != sgn[:, :-1])
    n_exc = starts.sum(axis=1)
    first = rows.shape[1] - np.argmax(starts[:, ::-1], axis=1)
    full = np.concatenate([np.zeros((len(rows), 1)), rows], axis=1)
    at_zero = full[np.arange(len(rows)), first - 1] == 0
    return n_exc, np.where(n_exc == 0, 0, np.where(at_zero, first - 1, first))


class IntegerSteps:
    """Stand-in for a base-path generator whose "normals" are integer steps
    in {-1, 0, 1}: such rows return to exactly 0 often, which Gaussian rows
    almost never do.  ``calls`` counts the draws, one per row block.

    Each draw drops the buffered half word of its bounded integers, so a
    block of an odd number of steps would desynchronize it from one draw of
    all the rows; real generators have no such buffer."""

    def __init__(self):
        self.rng = np.random.default_rng(MASTER)
        self.calls = 0

    def standard_normal(self, size, dtype):
        self.calls += 1
        return self.rng.integers(-1, 2, size).astype(dtype)


def pipeline_terminals(rows, uniforms, sched, dt):
    """Terminal values of the full decompose -> sign -> apply pipeline (absolute
    variant) on each zero-prefixed base row, its excursion signs drawn
    row-major from its row of uniforms."""
    grid = make_grid(dt * rows.shape[1], rows.shape[1])
    out = []
    for row, u in zip(rows, uniforms):
        path = SamplePath(grid, np.concatenate([[0.0], row.astype(float)]))
        exc = decompose_excursions(path)
        k = exc.n_excursions
        signs = np.where(
            u[: k * sched.n_cells].reshape(k, sched.n_cells) < np.asarray(sched.values)[None, :],
            1,
            -1,
        ).astype(np.int8)
        z = build_sign_path(exc, signs, sched)
        out.append(z.values[-1] * abs(path.values[-1]))
    return np.array(out)


def one_shot_chunk(seed, c, m, n_steps, schedules):
    """Bulk chunk c's streams drawn in one shot: the (m, n_steps) float32
    base-path rows, their excursion counts and birth indices, and per schedule
    the (m, max_excursions * n_cells) sign uniforms."""
    incr = seed.child(f"bulk/base/{c}").rng().standard_normal(
        (m, n_steps), dtype=np.float32
    )
    incr *= np.float32(math.sqrt(1.0 / n_steps))
    rows = np.cumsum(incr, axis=1)
    n_exc, birth = reference_scan(rows)
    uniforms = [
        seed.child(f"bulk/signs/{k}/{c}").rng().random((m, max(n_exc.max(), 1) * s.n_cells))
        for k, s in enumerate(schedules)
    ]
    return rows, n_exc, birth, uniforms


def serial_bulk_reference(schedules, n_paths, n_steps, seed, chunk):
    """Bulk terminal values computed chunk by chunk from one-shot fills, one
    array per schedule (unit horizon)."""
    outs = [np.empty(n_paths) for _ in schedules]
    for c, lo in enumerate(range(0, n_paths, chunk)):
        hi = min(lo + chunk, n_paths)
        rows, n_exc, birth, uniforms = one_shot_chunk(seed, c, hi - lo, n_steps, schedules)
        birth_time = birth * (1.0 / n_steps)
        last_ord = np.maximum(n_exc - 1, 0)
        terminal = np.abs(rows[:, -1].astype(float))
        for out, sched, u in zip(outs, schedules, uniforms):
            cell = sched.cell_indices(birth_time)
            pick = u[np.arange(hi - lo), last_ord * sched.n_cells + cell]
            zeta = np.where(pick < np.asarray(sched.values)[cell], 1.0, -1.0)
            zeta[n_exc == 0] = 0.0
            out[lo:hi] = zeta * terminal
    return outs


def traced_peak(fn):
    """Peak bytes that tracemalloc sees allocated while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@contextlib.contextmanager
def usable_cpus(n):
    """Make the samplers see n usable CPUs, so their pools start up to n workers."""
    with mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(n)), create=True):
        yield


def record_caller_threads(monkeypatch):
    """Wrap ``SeedSpec.rng`` and every public skewlab function, at every
    module binding and in every module-level dict that holds it (such as
    ``PROCESS_ZOO`` and ``SUITE_RUNNERS``), as the benchmark's span tracer
    does, so that each call appends ``(name, thread id)``."""
    calls = []

    def recording(fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls.append((name, threading.get_ident()))
            return fn(*args, **kwargs)

        return wrapper

    modules = [m for m in vars(skewlab).values() if inspect.ismodule(m)]
    wrapped = {
        fn: recording(fn, f"{mod.__name__}.{name}")
        for mod in modules
        for name, fn in vars(mod).items()
        if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not name.startswith("_")
    }
    for ns in [skewlab] + modules:
        for name, obj in list(vars(ns).items()):
            if name.startswith("__"):
                continue
            if inspect.isfunction(obj) and obj in wrapped:
                monkeypatch.setattr(ns, name, wrapped[obj])
            elif isinstance(obj, dict):
                for key, value in list(obj.items()):
                    if inspect.isfunction(value) and value in wrapped:
                        monkeypatch.setitem(obj, key, wrapped[value])
    monkeypatch.setattr(SeedSpec, "rng", recording(SeedSpec.rng, "SeedSpec.rng"))
    return calls


def driver_and_signs(grid, seed, sched):
    """A Brownian driver from ``seed``'s ``base`` substream and its sign path,
    drawn from the ``signs`` substream."""
    driver = sample_brownian(grid, seed.child("base"))
    return driver, sign_path_rows(driver.values[None, :], grid, sched, [seed.child("signs")])[0]


class TestBuildSkew:
    """The absolute sign-flip construction Z*|W| of a Brownian driver W."""

    def test_alpha_one_absolute_is_reflection(self, seed):
        driver, z = driver_and_signs(make_grid(1.0, 2**10), seed, AlphaSchedule.constant(1.0))
        assert np.array_equal(z * np.abs(driver.values), np.abs(driver.values))

    def test_single_cell_piecewise_matches_constant(self, seed):
        grid = make_grid(1.0, 2**10)
        _, a = driver_and_signs(grid, seed, AlphaSchedule.constant(0.3))
        _, b = driver_and_signs(grid, seed, AlphaSchedule.piecewise([0.0], [0.3]))
        assert np.array_equal(a, b)

    def test_absolute_law_invariance(self, seed):
        grid = make_grid(1.0, 2**10)
        for i, alpha in enumerate([0.2, 0.7]):
            driver, z = driver_and_signs(grid, seed.with_path(i), AlphaSchedule.constant(alpha))
            out = z * np.abs(driver.values)
            assert np.array_equal(np.abs(out), np.abs(driver.values))


#: (schedule, n_steps, path) -> repr of the residual's sup norm and terminal
#: on ``seed.child("base").with_path(path)`` with signs from
#: ``seed.child("signs").with_path(path)``, recorded when the suite built the
#: flip outside ``sde_residual`` and passed it in with the driver
SDE_RESIDUAL_PINS = {
    ("constant", 1024, 0): ("0.10742666165953622", "0.02574707762318569"),
    ("constant", 1024, 1): ("0.10230357960331893", "0.057705418692690136"),
    ("constant", 1024, 2): ("0.21146892140920595", "0.006193245201388531"),
    ("constant", 1024, 3): ("0.14063377753901476", "0.1406337775390146"),
    ("constant", 4096, 0): ("0.054097653229123716", "0.00791295232983416"),
    ("constant", 4096, 1): ("0.05755343989994416", "0.030662891584115892"),
    ("constant", 4096, 2): ("0.10698846335438966", "0.02204787519750312"),
    ("constant", 4096, 3): ("0.31308774428998565", "0.04669669832741147"),
    ("piecewise", 1024, 0): ("0.04113524209253112", "0.036447742092531335"),
    ("piecewise", 1024, 1): ("0.3183542413936653", "0.26060789387517086"),
    ("piecewise", 1024, 2): ("0.2730868849945382", "0.10202350078183095"),
    ("piecewise", 1024, 3): ("0.14063377753901476", "0.1406337775390146"),
    ("piecewise", 4096, 0): ("0.049486635326690204", "0.042685459050939255"),
    ("piecewise", 4096, 1): ("0.16557877079511735", "0.07721533466368641"),
    ("piecewise", 4096, 2): ("0.213084114689614", "0.04323922564953392"),
    ("piecewise", 4096, 3): ("0.2838250083906132", "0.22448312235065415"),
}


def flip_residual(seed, n_steps, sched):
    """``sde_residual`` on ``driver_and_signs``' driver and signs."""
    driver = sample_brownian(make_grid(1.0, n_steps), seed.child("base"))
    return sde_residual(driver, sched, seed.child("signs"))


class TestSdeResidual:
    def test_residuals_pinned(self, seed):
        scheds = {"constant": AlphaSchedule.constant(0.7),
                  "piecewise": AlphaSchedule.piecewise([0.0, 0.5], [0.3, 0.8])}
        got = {}
        for kind, n, i in SDE_RESIDUAL_PINS:
            driver = sample_brownian(make_grid(1.0, n), seed.child("base").with_path(i))
            r = sde_residual(driver, scheds[kind], seed.child("signs").with_path(i))
            got[kind, n, i] = (repr(r.sup_norm), repr(r.terminal))
        assert got == SDE_RESIDUAL_PINS

    def test_alpha_one_absolute_reduces_to_tanaka_residual(self, seed):
        # Z == 1 on excursions, so the identity collapses to the reflection's
        # Tanaka rearrangement checked against the occupation estimate
        from skewlab.localtime import identity_residual

        r = flip_residual(seed, 2**10, AlphaSchedule.constant(1.0))
        driver = sample_brownian(make_grid(1.0, 2**10), seed.child("base"))
        r_tanaka = identity_residual("tanaka", path=driver)
        assert r.sup_norm == pytest.approx(r_tanaka.sup_norm)
        assert r.terminal == pytest.approx(r_tanaka.terminal)

    def test_alpha_half_reduces_to_driving_noise(self, seed):
        sched = AlphaSchedule.constant(0.5)
        driver, z = driver_and_signs(make_grid(1.0, 2**12), seed, sched)
        x = z * np.abs(driver.values)
        w = _driving_noise(driver.values, z)
        r = flip_residual(seed, 2**12, sched)
        assert r.sup_norm == pytest.approx(np.max(np.abs(x - x[0] - w)))

    def test_absolute_mesh_convergence(self):
        meds = {}
        for n in (2**12, 2**16):
            sups = [flip_residual(SeedSpec(MASTER, "sdeconv", i), n,
                                  AlphaSchedule.constant(0.7)).sup_norm for i in range(8)]
            meds[n] = np.median(sups)
        assert meds[2**12] > meds[2**16]
        assert meds[2**16] < 0.1

    def test_recovered_noise_is_brownian_in_qv(self, seed):
        driver, z = driver_and_signs(make_grid(1.0, 2**14), seed, AlphaSchedule.constant(0.7))
        w = _driving_noise(driver.values, z)
        assert abs(covariation_rows(w, w)[-1] - 1.0) < 0.05

    @pytest.mark.parametrize("boundaries, values", [
        ((0.0,), (0.7,)),
        ((0.0, 0.5), (0.3, 0.8)),  # a boundary on a grid time
        ((0.0, 0.3, 0.71, 2.0), (0.2, 0.9, 0.4, 0.6)),  # off the grid, and past it
    ])
    def test_correction_equals_per_point_weights(self, seed, boundaries, values):
        # the correction scales each run of one cell by its weight; the
        # reference reads alpha at every grid time
        sched = AlphaSchedule.piecewise(boundaries, values)
        grid = make_grid(1.0, 2**10)
        driver, z = driver_and_signs(grid, seed, AlphaSchedule.constant(0.7))
        x = z * np.abs(driver.values)
        weights = 2.0 * np.asarray(sched.values)[sched.cell_indices(grid.times[:-1])] - 1.0
        dt = grid.dt
        expected = np.cumsum(weights * np.diff(_occupation(x, dt, dt**OCCUPATION_EXPONENT)))
        assert np.array_equal(_skew_correction(x, grid, sched), expected)

    def test_signed_variant_residual_does_not_vanish(self):
        # the README's finding, on a mutation of the construction that flips
        # the signed driver, Z W, and integrates Z dW: that re-randomizes
        # excursion signs that are already symmetric, so the skew reflection
        # term finds no support: the signed flip of a Brownian driver follows
        # the alpha = 1/2 law and its alpha != 1/2 residual stalls near
        # (2 alpha - 1) L instead of vanishing
        sched = AlphaSchedule.constant(0.7)
        sups = []
        for i in range(8):
            driver, z = driver_and_signs(
                make_grid(1.0, 2**14), SeedSpec(MASTER, "sdesigned", i), sched
            )
            x = z * driver.values
            residual = x - x[0]
            residual -= ito_rows(z, driver.values)
            residual[1:] -= _skew_correction(x, driver.grid, sched)
            sups.append(ResidualReport.from_residual(residual).sup_norm)
        assert np.median(sups) > 0.15


class TestTransitionDensity:
    def test_symmetric_case_is_gaussian(self):
        y = np.linspace(-3, 3, 41)
        assert np.allclose(skew_transition_density(0.5, 1.0, y), norm.pdf(y))

    def test_normalization_by_quadrature(self):
        for alpha, t in [(0.3, 1.0), (0.7, 0.5), (0.9, 2.0)]:
            total, _ = quad(lambda y: skew_transition_density(alpha, t, y), -np.inf, np.inf)
            assert abs(total - 1.0) < 1e-8

    def test_positive_mass_equals_alpha(self):
        for alpha in (0.3, 0.5, 0.7):
            mass, _ = quad(lambda y: skew_transition_density(alpha, 1.0, y), 0, np.inf)
            assert abs(mass - alpha) < 1e-8

    def test_cdf_matches_density(self):
        alpha, t = 0.7, 0.8
        for y in (-1.5, -0.2, 0.4, 2.0):
            mass, _ = quad(lambda u: skew_transition_density(alpha, t, u), -np.inf, y)
            assert abs(mass - float(skew_transition_cdf(alpha, t, y))) < 1e-8

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            skew_transition_density(0.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            skew_transition_density(1.5, 1.0, 1.0)

    @pytest.mark.parametrize("t", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_time_must_be_positive_and_finite(self, t):
        for call in (skew_transition_density, skew_transition_cdf, lambda a, t, y: SkewLaw(a, t)):
            with pytest.raises(ValueError, match="time must be positive and finite"):
                call(0.5, t, 1.0)

    def test_law_handle_rejects_bad_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            SkewLaw(1.5, 1.0)


class TestHarrisonSheppWalk:
    def test_alpha_one_never_negative(self, seed):
        w = harrison_shepp_terminals(1.0, 512, 200, seed)
        assert np.all(w.values >= 0)

    def test_scaling(self, seed):
        # terminal * sqrt(n) is the integer walk state, which has n's parity
        for n in (255, 256):
            state = harrison_shepp_terminals(0.5, n, 200, seed).values * math.sqrt(n)
            assert np.allclose(state, np.rint(state), rtol=0, atol=1e-9)
            assert np.all((np.rint(state).astype(np.int64) - n) % 2 == 0)

    @settings(max_examples=60, deadline=None)
    @given(
        alpha=st.one_of(st.sampled_from([0.0, 0.3, 0.5, 0.7, 1.0]), st.floats(0.0, 1.0)),
        n_steps=st.integers(1, 70),
        n_walks=st.integers(1, 150),
        unit=st.sampled_from([7, 40, 8192]),
    )
    @example(alpha=0.7, n_steps=1, n_walks=33, unit=8192)
    @example(alpha=0.0, n_steps=9, n_walks=101, unit=40)
    @example(alpha=0.5, n_steps=64, n_walks=150, unit=7)
    # e = 1 takes an even step up from 0 for alpha >= 1/2, elsewhere below it
    @example(alpha=float(np.nextafter(0.5, 0)), n_steps=5, n_walks=150, unit=40)
    @example(alpha=float(np.nextafter(0.5, 1)), n_steps=6, n_walks=150, unit=7)
    # quads cut short by the horizon
    @example(alpha=0.3, n_steps=2, n_walks=60, unit=8192)
    @example(alpha=0.7, n_steps=3, n_walks=60, unit=40)
    @example(alpha=1.0, n_steps=7, n_walks=60, unit=7)
    # more than 2**15 up-steps: a 16-bit step counter would wrap
    @example(alpha=0.7, n_steps=70_001, n_walks=3, unit=8192)
    def test_step_major_walk_equals_column_loop(self, alpha, n_steps, n_walks, unit):
        seed = SeedSpec(MASTER, "hsprop")
        u = np.array([seed.with_path(k).rng().random(n_steps) for k in range(n_walks)])
        expected = walk_terminals_reference(u, alpha) / math.sqrt(n_steps)
        with mock.patch.object(skewbm, "_WALK_UNIT", unit):
            batch = harrison_shepp_terminals(alpha, n_steps, n_walks, seed)
        assert np.array_equal(batch.values, expected)

    def test_symmetric_walk_clt_with_lattice_correction(self):
        w = harrison_shepp_terminals(0.5, 2**12, 100_000, SeedSpec(MASTER, "hs5"))
        ks = ks_statistic(w.values, lambda y: norm.cdf(y))
        assert ks < kstwobign.isf(0.01) / math.sqrt(w.n)

    def test_sign_probability_vs_exact_enumeration(self):
        # oracle: exact DP over the walk's lattice distribution
        alpha, n = 0.7, 2**12
        pmf = walk_exact_distribution(alpha, n)
        support = np.arange(-n, n + 1)
        p_pos = pmf[support > 0].sum()
        p_zero = pmf[support == 0].sum()
        w = harrison_shepp_terminals(alpha, n, 100_000, SeedSpec(MASTER, "hsbig"))
        frac = np.mean(w.values > 0)
        se = math.sqrt(p_pos * (1 - p_pos) / w.n)
        assert abs(frac - p_pos) < 3 * se
        # the continuum sign probability alpha is recovered once the lattice
        # atom at zero (spacing 2/sqrt(n)) is split evenly; p_zero ~ 0.0125
        frac_mid = frac + 0.5 * np.mean(w.values == 0)
        assert abs(frac_mid - alpha) < 0.01
        assert abs((p_pos + 0.5 * p_zero) - alpha) < 0.005  # exact-oracle link

    @pytest.mark.parametrize(
        "alpha,n_steps,n_walks,match",
        [
            (0.7, 0, 8192, "n_steps"),
            (0.7, -3, 8192, "n_steps"),
            (1.5, 16, 8192, "alpha"),
            (-0.1, 16, 8192, "alpha"),
            (float("nan"), 16, 8192, "alpha"),
        ],
    )
    def test_terminals_reject_invalid_arguments(self, seed, alpha, n_steps, n_walks, match):
        with pytest.raises(ValueError, match=match):
            harrison_shepp_terminals(alpha, n_steps, n_walks, seed)

    @pytest.mark.parametrize("n_walks", [0, -3])
    def test_terminals_reject_walk_counts_below_one(self, seed, n_walks):
        with pytest.raises(ValueError, match="n_walks"):
            harrison_shepp_terminals(0.7, 16, n_walks, seed)

    @pytest.mark.parametrize(
        "alpha", [0.0, float(np.nextafter(0.5, 0)), 0.5, float(np.nextafter(0.5, 1)), 0.7, 1.0]
    )
    def test_octet_table_equals_step_rule(self, alpha):
        # every octet code, from every start state 2e, clipped or not: one
        # uniform per step code c = [u < alpha] + [u < 1/2] (above both,
        # between, below both), codes that no uniform gives left out; u = 1
        # is the padding past the horizon
        steps = _octet_steps(alpha >= 0.5)
        codes = np.arange(3**8)
        digits = codes[:, None] // 3 ** np.arange(7, -1, -1) % 3
        u = np.array([max(alpha, 0.5), min(alpha, 0.5), 0.0])[digits]
        given_by_u = ((u < alpha).astype(int) + (u < 0.5) == digits).all(axis=1)
        assert given_by_u.sum() >= 2**8
        for e in range(-6, 7):
            state = walk_terminals_reference(u[given_by_u], alpha, start=2 * e)
            looked_up = steps[9 * codes[given_by_u] + 4 + np.clip(e, -4, 4)]
            assert np.array_equal(looked_up, (state - 2 * e) // 2), e

    @pytest.mark.parametrize(
        "budget",
        [
            lambda n_steps: 1,  # one walk per unit, one row per uniform block
            lambda n_steps: 7 * 64 * n_steps + 1,  # blocks of 7 rows in units of 40
            lambda n_steps: 2**40,  # one unit of every walk, one uniform block
        ],
        ids=["one_walk", "uneven", "one_unit"],
    )
    @pytest.mark.parametrize(
        "alpha,n_steps,n_walks",
        [
            (float(np.nextafter(0.5, 0)), 37, 150),
            (float(np.nextafter(0.5, 1)), 37, 150),
            # more than 2**15 up-steps, n_steps % 8 == 1
            (0.7, 70_001, 3),
        ],
    )
    def test_block_size_does_not_change_walk(self, monkeypatch, budget, alpha, n_steps, n_walks):
        seed = SeedSpec(MASTER, "hsblocks")
        u = np.array([seed.with_path(k).rng().random(n_steps) for k in range(n_walks)])
        expected = walk_terminals_reference(u, alpha) / math.sqrt(n_steps)
        monkeypatch.setattr(skewbm, "_BLOCK_BYTES", budget(n_steps))
        monkeypatch.setattr(skewbm, "_WALK_UNIT", 40)
        walk = harrison_shepp_terminals(alpha, n_steps, n_walks, seed)
        assert np.array_equal(walk.values, expected)

    def test_working_set_does_not_grow_with_steps(self):
        # the calling thread holds one 2 MiB step table and one block of
        # uniforms with their codes (256 KiB, or one 2 MiB row at 2**18); the
        # slack covers the unit's streams and the output
        seed = SeedSpec(MASTER, "hsmemory")
        for n_steps, n_walks in [(2**12, 16384), (2**14, 4096), (2**16, 1024), (2**18, 4)]:
            peak = traced_peak(lambda: harrison_shepp_terminals(0.7, n_steps, n_walks, seed))
            assert peak < 6 * 2**20, n_steps


class TestTerminalSamplers:
    def test_bulk_equals_full_pipeline_on_shared_streams(self, monkeypatch):
        # the bulk sampler only materializes the straddling excursion's sign;
        # rebuild the full decompose/sign/apply pipeline from the same chunk
        # streams and demand bit-identical terminals
        sched = AlphaSchedule.piecewise([0.0, 0.5], [0.3, 0.8])
        seed = SeedSpec(MASTER, "bulkhonesty")
        n_paths, n_steps, chunk = 300, 512, 128
        monkeypatch.setattr(skewbm, "_BULK_CHUNK", chunk)
        bulk = skew_terminal_sample(sched, n_paths, n_steps, seed)
        for c, lo in enumerate(range(0, n_paths, chunk)):
            hi = min(lo + chunk, n_paths)
            rows, _, _, (u,) = one_shot_chunk(seed, c, hi - lo, n_steps, [sched])
            full = pipeline_terminals(rows, u, sched, 1.0 / n_steps)
            assert np.array_equal(full, bulk.values[lo:hi])

    @settings(max_examples=40, deadline=None)
    @given(
        n_paths=st.integers(1, 200),
        n_steps=st.integers(1, 64),
        chunk=st.integers(1, 90),
        cuts=st.lists(
            st.lists(
                st.one_of(st.floats(0.05, 0.95), st.sampled_from([0.125, 0.25, 0.5, 0.75])),
                max_size=3, unique=True,
            ),
            min_size=1, max_size=2,
        ),
        data=st.data(),
    )
    def test_bulk_equals_references_on_random_shapes(self, n_paths, n_steps, chunk, cuts, data):
        scheds = [
            AlphaSchedule.piecewise(
                [0.0] + sorted(c),
                data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(c) + 1,
                                   max_size=len(c) + 1)),
            )
            for c in cuts
        ]
        seed = SeedSpec(MASTER, "bulkprop")
        with mock.patch.object(skewbm, "_BULK_CHUNK", chunk):
            bulk = skew_terminal_samples(scheds, n_paths, n_steps, seed)
        ref = serial_bulk_reference(scheds, n_paths, n_steps, seed, chunk)
        for sample, expected in zip(bulk, ref):
            assert np.array_equal(sample.values, expected)
        for c, lo in enumerate(range(0, n_paths, chunk)):
            hi = min(lo + chunk, n_paths)
            rows, _, _, uniforms = one_shot_chunk(seed, c, hi - lo, n_steps, scheds)
            for sample, sched, u in zip(bulk, scheds, uniforms):
                full = pipeline_terminals(rows, u, sched, 1.0 / n_steps)
                assert np.array_equal(full, sample.values[lo:hi])

    def test_bulk_equals_full_pipeline_with_exact_zeros(self):
        # integer-step rows start with zeros and start excursions right after
        # exact zeros, where the birth cell decides the sign; 4000 rows of
        # 1024 steps span eight row blocks of 512
        sched = AlphaSchedule.piecewise([0.0, 4.0], [0.1, 0.9])
        m, n_steps = 4000, 1024
        base = IntegerSteps()
        (bulk,) = _bulk_chunk(
            base, [np.random.default_rng(MASTER + 1)], [sched], m, n_steps, 1.0
        )
        assert base.calls == 8
        rows = np.cumsum(IntegerSteps().standard_normal((m, n_steps), np.float32), axis=1)
        n_exc, _ = reference_scan(rows)
        u = np.random.default_rng(MASTER + 1).random((m, max(n_exc.max(), 1) * sched.n_cells))
        assert np.array_equal(bulk, pipeline_terminals(rows, u, sched, 1.0))

    def test_start_scan_with_exact_zeros(self):
        # 1300 rows of 1024 steps span three row blocks of 512
        rows = np.cumsum(IntegerSteps().standard_normal((1300, 1024), np.float32), axis=1)
        base = IntegerSteps()
        n_exc, birth, terminal = _base_rows(base, 1300, 1024, 1.0)
        assert base.calls == 3
        ref_n_exc, ref_birth = reference_scan(rows)
        assert np.array_equal(n_exc, ref_n_exc)
        assert np.array_equal(birth, ref_birth)
        assert np.array_equal(terminal, rows[:, -1])

    def test_row_blocks_equal_one_shot_chunks(self):
        # the default chunk spans four row blocks of 2048 rows of 256 steps
        # and two to four blocks of sign uniforms; the last chunk is short
        scheds = [AlphaSchedule.constant(0.7), AlphaSchedule.piecewise([0.0, 0.5], [0.3, 0.8])]
        seed = SeedSpec(MASTER, "rowblocks")
        n_paths, n_steps = 8192 + 100, 256
        bulk = skew_terminal_samples(scheds, n_paths, n_steps, seed)
        ref = serial_bulk_reference(scheds, n_paths, n_steps, seed, chunk=8192)
        for sample, expected in zip(bulk, ref):
            assert np.array_equal(sample.values, expected)

    def test_concurrent_chunks_equal_serial_reference(self, monkeypatch):
        # more chunks than workers and more workers than cores, with the
        # interpreter switching threads as often as it can
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        scheds = [AlphaSchedule.constant(0.4), AlphaSchedule.piecewise([0.0, 0.3], [0.2, 0.9])]
        seed = SeedSpec(MASTER, "bulkstress")
        n_paths, n_steps, chunk = 24 * 64 + 10, 48, 64
        monkeypatch.setattr(skewbm, "_BULK_CHUNK", chunk)
        result = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            worker = threading.Thread(
                target=lambda: result.append(skew_terminal_samples(scheds, n_paths, n_steps, seed))
            )
            worker.start()
            worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive() and len(result) == 1
        ref = serial_bulk_reference(scheds, n_paths, n_steps, seed, chunk)
        for sample, expected in zip(result[0], ref):
            assert np.array_equal(sample.values, expected)

    @pytest.mark.parametrize(
        "n_steps,chunk,match",
        [(16, 0, "chunk"), (16, -1, "chunk"), (0, 8192, "n_steps"), (-2, 8192, "n_steps")],
    )
    def test_bulk_rejects_invalid_sizes(self, monkeypatch, seed, n_steps, chunk, match):
        monkeypatch.setattr(skewbm, "_BULK_CHUNK", chunk)
        with pytest.raises(ValueError, match=match):
            skew_terminal_samples([AlphaSchedule.constant(0.7)], 5, n_steps, seed)

    @pytest.mark.parametrize("n_paths", [0, -2])
    def test_bulk_rejects_path_counts_below_one(self, seed, n_paths):
        with pytest.raises(ValueError, match="n_paths"):
            skew_terminal_sample(AlphaSchedule.constant(0.7), n_paths, 16, seed)

    def test_working_set_does_not_grow_with_steps(self, monkeypatch):
        # two workers, each holding one 2 MiB float32 row block and its int8
        # signs, then the signs and one boolean mask, or one 2 MiB block of
        # sign uniforms
        sched = AlphaSchedule.constant(0.7)
        seed = SeedSpec(MASTER, "bulkmemory")
        monkeypatch.setattr(skewbm, "_BULK_CHUNK", 1024)
        with usable_cpus(2):
            for n_steps in (2**12, 2**14):
                peak = traced_peak(lambda: skew_terminal_sample(sched, 2048, n_steps, seed))
                assert peak < 8 * 2**20, n_steps

    @pytest.mark.parametrize("cpus", [1, 2, 8])
    def test_chunks_prepared_one_per_worker_and_collected_in_order(self, monkeypatch, cpus):
        # a spy job over 20 chunks; earlier chunks run longer, so later ones
        # finish first whenever there are several workers.  A task set by
        # _alongside runs once, after one chunk per worker is submitted and
        # while the first is still running: chunk 0 waits for it
        log = []
        run_chunks = skewbm._run_chunks
        task_ran = threading.Event()

        def spy(n_items, chunk, job):
            def prepare(c, lo, hi):
                log.append(("prepare", c))
                fn = job(c, lo, hi)
                if c == 0:
                    return lambda: (task_ran.wait(timeout=10) or log.append(("late", 0)), fn())[1]
                return lambda: (time.sleep(0.002 * (20 - c) / 20), fn())[1]

            for rows, result in run_chunks(n_items, chunk, prepare):
                log.append(("collect", rows.start // chunk))
                yield rows, result

        monkeypatch.setattr(skewbm, "_run_chunks", spy)
        scheds = [AlphaSchedule.constant(0.4), AlphaSchedule.piecewise([0.0, 0.3], [0.2, 0.9])]
        seed = SeedSpec(MASTER, "lookahead")
        n_paths, n_steps, chunk = 20 * 16 - 5, 24, 16
        monkeypatch.setattr(skewbm, "_BULK_CHUNK", chunk)
        with usable_cpus(cpus):
            bulk, _ = grid_paths._alongside(
                lambda: skew_terminal_samples(scheds, n_paths, n_steps, seed),
                lambda: (log.append(("meanwhile", None)), task_ran.set()),
            )
        assert ("late", 0) not in log
        assert log.count(("meanwhile", None)) == 1
        first_collect = [event for event, _ in log].index("collect")
        assert log.index(("meanwhile", None)) == first_collect - 1 == min(cpus, 20)
        log.remove(("meanwhile", None))
        open_chunks = np.cumsum([1 if event == "prepare" else -1 for event, _ in log])
        assert open_chunks.max() == min(cpus, 20) and open_chunks[-1] == 0
        assert [c for event, c in log if event == "prepare"] == list(range(20))
        assert [c for event, c in log if event == "collect"] == list(range(20))
        ref = serial_bulk_reference(scheds, n_paths, n_steps, seed, chunk)
        for sample, expected in zip(bulk, ref):
            assert np.array_equal(sample.values, expected)

    def test_streams_and_public_calls_stay_in_calling_thread(self, monkeypatch, tmp_path):
        # the span tracer keeps a single stack, so the samplers' workers may
        # run only private helpers and numpy; skew_law steps the walk in the
        # calling thread inside the bulk sampler's call, after its streams
        seed = SeedSpec(MASTER, "threadrule")
        scheds = [AlphaSchedule.constant(0.7), AlphaSchedule.piecewise([0.0, 0.5], [0.3, 0.8])]
        monkeypatch.setattr(skewbm, "_WALK_UNIT", 16)
        walk_ref = harrison_shepp_terminals(0.7, 32, 200, seed.child("walk"))
        with mock.patch.object(skewbm, "_BULK_CHUNK", 64):
            bulk_ref = skew_terminal_samples(scheds, 300, 32, seed)
        cfg = config_from_pairs({"suite": "skew_law", "paths": "1000", "steps": "32",
                                 "out": str(tmp_path)})
        law_ref = run_experiment(cfg).reports
        calls = record_caller_threads(monkeypatch)
        with usable_cpus(4):
            walk = harrison_shepp_terminals(0.7, 32, 200, seed.child("walk"))
            with mock.patch.object(skewbm, "_BULK_CHUNK", 64):
                bulk = skew_terminal_samples(scheds, 300, 32, seed)
            start = len(calls)
            law = run_experiment(cfg).reports
        names = {name for name, _ in calls}
        assert {"skewlab.grid_paths.stream_states", "SeedSpec.rng"} <= names
        assert {ident for _, ident in calls} == {threading.get_ident()}
        assert np.array_equal(walk.values, walk_ref.values)
        for sample, ref in zip(bulk, bulk_ref):
            assert np.array_equal(sample.values, ref.values)
        law_calls = [name for name, _ in calls[start:]]
        bulk_at = law_calls.index("skewlab.skewbm.skew_terminal_samples")
        walk_at = law_calls.index("skewlab.skewbm.harrison_shepp_terminals")
        assert "SeedSpec.rng" in law_calls[bulk_at:walk_at]
        assert "skewlab.grid_paths.stream_states" in law_calls[walk_at:]
        assert repr(law) == repr(law_ref)

    def test_overlapped_samplers_equal_references(self, monkeypatch):
        # skew_law's overlap with more bulk workers than cores, the walk in a
        # non-main calling thread, and the interpreter switching threads as
        # often as it can
        sched = AlphaSchedule.constant(0.7)
        seed = SeedSpec(MASTER, "overlapstress")
        n_paths, n_steps, chunk = 24 * 64 + 10, 48, 64
        n_walks, walk_steps = 150, 37
        monkeypatch.setattr(skewbm, "_WALK_UNIT", 16)
        monkeypatch.setattr(skewbm, "_BULK_CHUNK", chunk)
        result = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with usable_cpus(8):
                worker = threading.Thread(target=lambda: result.append(grid_paths._alongside(
                    lambda: skew_terminal_sample(sched, n_paths, n_steps, seed.child("law")),
                    lambda: harrison_shepp_terminals(0.7, walk_steps, n_walks, seed.child("walk")),
                )))
                worker.start()
                worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive() and len(result) == 1
        bulk, walk = result[0]
        (bulk_ref,) = serial_bulk_reference([sched], n_paths, n_steps, seed.child("law"), chunk)
        assert np.array_equal(bulk.values, bulk_ref)
        u = np.array([seed.child("walk").with_path(k).rng().random(walk_steps)
                      for k in range(n_walks)])
        walk_ref = walk_terminals_reference(u, 0.7) / math.sqrt(walk_steps)
        assert np.array_equal(walk.values, walk_ref)

    def test_bulk_deterministic(self):
        sched = AlphaSchedule.constant(0.6)
        seed = SeedSpec(MASTER, "bulkdet")
        a = skew_terminal_sample(sched, 500, 256, seed)
        b = skew_terminal_sample(sched, 500, 256, seed)
        assert np.array_equal(a.values, b.values)

    def test_multi_schedule_first_matches_single(self):
        scheds = [AlphaSchedule.constant(0.4), AlphaSchedule.constant(0.8)]
        seed = SeedSpec(MASTER, "bulkmulti")
        multi = skew_terminal_samples(scheds, 400, 128, seed)
        single = skew_terminal_sample(scheds[0], 400, 128, seed)
        assert np.array_equal(multi[0].values, single.values)

    def test_perpath_law(self):
        # one full construction run per path, path k on seed.with_path(k)
        grid = make_grid(1.0, 256)
        seeds = [SeedSpec(MASTER, "pp").with_path(k) for k in range(2000)]
        drivers = brownian_rows(grid, [s.child("base") for s in seeds])
        z = sign_path_rows(drivers, grid, AlphaSchedule.constant(0.7),
                           [s.child("signs") for s in seeds])
        rep = law_test(LawSample(z[:, -1] * np.abs(drivers[:, -1])), SkewLaw(0.7, 1.0))
        assert rep.passed

    def test_signed_flip_of_brownian_driver_stays_symmetric(self):
        # the documented law-level finding: a signed flip cannot skew a
        # Brownian driver because its excursion signs are already symmetric;
        # path k on seed.with_path(k), built 2000 paths at a time
        grid = make_grid(1.0, 512)
        sched = AlphaSchedule.constant(0.7)
        seeds = [SeedSpec(MASTER, "sym").with_path(k) for k in range(20_000)]
        terminals = []
        for lo in range(0, len(seeds), 2000):
            block = seeds[lo:lo + 2000]
            drivers = brownian_rows(grid, [s.child("base") for s in block])
            z = sign_path_rows(drivers, grid, sched, [s.child("signs") for s in block])
            terminals.append(z[:, -1] * drivers[:, -1])
        values = np.concatenate(terminals)
        frac = np.mean(values > 0)
        assert abs(frac - 0.5) < 3 * math.sqrt(0.25 / len(values))


#: criterion 10's equivalence cases: suite -> bases
CRITERION_10_CASES = {
    "abs_mart": ("shifted_bm", "shifted_bm_drift"),
    "zalpha_mart": ("shifted_bm", "shifted_bm_drift"),
    "abs_sigma": ("bm", "bm_plus_drift"),
    "zalpha_sigma": ("bm", "bm_plus_drift"),
    "cmart": ("reflected_bm", "bm_plus_drift"),
}


def block_reader_reports(tmp_path):
    """Reports of the martingale, representation (shifted model) and sigma_h
    suites and of criterion 10's equivalence cases, each read in several row
    blocks of 63 paths at 2**10 steps."""
    reports = []
    for suite, extra in [("martingale", {}), ("representation", {"model": "shifted_brownian"}),
                         ("sigma_h", {"seeds": "130"})]:
        cfg = config_from_pairs(dict(extra, suite=suite, paths="1000", steps="1024",
                                     out=str(tmp_path)))
        reports.append(run_experiment(cfg).reports)
    for name, bases in CRITERION_10_CASES.items():
        for base in bases:
            reports.append(equivalence_suite(
                name, "trivial", base, 0.5 if name == "cmart" else 0.7,
                SeedSpec(MASTER, f"readerthreads/{name}/{base}"), 1000,
            ))
    return reports


class TestBlockReaderThreads:
    """The signed-measure block reader draws each block's Gaussian rows on
    worker threads while the calling thread reads the block before."""

    def test_draws_ahead_keep_public_calls_in_calling_thread(self, monkeypatch, tmp_path):
        # the span tracer keeps a single stack, so the workers may run only
        # private helpers and numpy; they fill rows, and nothing else
        with usable_cpus(1):
            serial = block_reader_reports(tmp_path)
        fills = []
        fill = signed_measure._fill_normals
        monkeypatch.setattr(signed_measure, "_fill_normals",
                            lambda *a: fills.append(threading.get_ident()) or fill(*a))
        calls = record_caller_threads(monkeypatch)
        with usable_cpus(4):
            ahead = block_reader_reports(tmp_path)
        names = {name for name, _ in calls}
        assert {
            "skewlab.grid_paths.stream_states",
            "skewlab.signed_measure.build_model_rows",
            "skewlab.cli.run_sigma_h",
        } | {f"skewlab.signed_measure.make_{base}" for base in signed_measure.PROCESS_ZOO} <= names
        assert {ident for _, ident in calls} == {threading.get_ident()}
        assert fills and threading.get_ident() not in fills
        assert repr(ahead) == repr(serial)

    def test_draws_ahead_under_thread_switching_equal_serial(self, monkeypatch):
        # blocks of 8 paths, the reader in a non-main thread, and the
        # interpreter switching threads as often as it can
        grid = make_grid(1.0, 64)
        seed = SeedSpec(MASTER, "readerstress")
        monkeypatch.setattr(grid_paths, "BLOCK_ELEMENTS", 8 * grid.n_points)

        def drift_test():
            return signed_measure.martingale_drift_test(
                "shifted_brownian", "bm_plus_local_time", grid, seed, 1000
            )

        with usable_cpus(1):
            serial = drift_test()
        result = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with usable_cpus(8):
                reader = threading.Thread(target=lambda: result.append(drift_test()))
                reader.start()
                reader.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not reader.is_alive() and result == [serial]


class TestLawTest:
    def test_identical_sample_distance_zero(self):
        vals = np.random.default_rng(MASTER).standard_normal(2000)
        a = LawSample(vals, "a")
        rep = law_test(a, LawSample(vals.copy(), "b"))
        assert rep.statistic == 0.0
        assert rep.passed

    def test_two_gaussian_samples_pass_mostly(self):
        passes = 0
        for i in range(10):
            rng = np.random.default_rng(MASTER + i)
            a = LawSample(rng.standard_normal(100_000))
            b = LawSample(rng.standard_normal(100_000))
            passes += law_test(a, b).passed
        assert passes >= 8

    def test_insufficient_samples(self):
        a = LawSample(np.zeros(10))
        with pytest.raises(InsufficientSamplesError):
            law_test(a, SkewLaw(0.5, 1.0))

    def test_one_sample_against_handle(self):
        s = skew_terminal_sample(
            AlphaSchedule.constant(0.3), 20_000, 512, SeedSpec(MASTER, "handle")
        )
        rep = law_test(s, SkewLaw(0.3, 1.0))
        assert rep.passed
        assert "sign_prob_err" in rep.detail

    def test_ks_statistic_midpoint_on_lattice(self):
        # an evenly split two-atom sample against the cdf that bisects each
        # jump: midpoint convention scores 0 where plain KS would score 1/4
        sample = np.array([-1.0] * 50 + [1.0] * 50)
        stat = ks_statistic(sample, lambda y: np.clip((np.asarray(y) + 2) / 4, 0, 1))
        assert stat == pytest.approx(0.0, abs=1e-12)

    def test_two_sample_ks_matches_scipy(self):
        from scipy.stats import ks_2samp

        rng = np.random.default_rng(7)
        a, b = rng.standard_normal(500), rng.standard_normal(700) + 0.1
        assert two_sample_ks(a, b) == pytest.approx(ks_2samp(a, b).statistic)

    def test_lattice_smoothing_removes_half_atom_artifact(self):
        from skewlab.skewbm import lattice_smooth

        # a lattice sample against a continuous sample from the matching
        # normal law: the plain statistic is stuck near half the central
        # atom's mass, the continuity-corrected one is not
        rng = np.random.default_rng(11)
        cont = rng.standard_normal(200_000)
        lattice = np.round(rng.standard_normal(200_000) * 4) / 4  # spacing 0.25
        plain = two_sample_ks(cont, lattice)
        smoothed = two_sample_ks(cont, lattice_smooth(lattice, 0.25))
        assert plain > 0.04  # half the ~0.1 central atom
        assert smoothed < 0.01

    def test_lattice_smooth_preserves_counts_and_cells(self):
        from skewlab.skewbm import lattice_smooth

        sample = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 1.0])
        out = lattice_smooth(sample, 1.0)
        assert len(out) == len(sample)
        assert np.all(np.abs(out[:4] - 0.0) < 0.5)
        assert np.all(np.abs(out[4:] - 1.0) < 0.5)
        # evenly spread, mean preserved per atom
        assert np.mean(out[:4]) == pytest.approx(0.0)
        assert np.mean(out[4:]) == pytest.approx(1.0)
