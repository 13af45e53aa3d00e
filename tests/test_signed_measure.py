"""Models, qp residuals, drift tests, Sigma(H) checks, equivalence suites."""

import inspect
import os
import threading
from unittest import mock

import numpy as np
import pytest

from skewlab import signed_measure
from skewlab.excursion import decompose_excursions
from skewlab.grid_paths import SamplePath, SeedSpec, brownian_rows, make_grid, sample_brownian
from skewlab.localtime import covariation_rows, tanaka_rows
from skewlab.signed_measure import (
    DecompositionRows,
    InsufficientSamplesError,
    PROCESS_ZOO,
    build_model,
    build_model_rows,
    equivalence_suite,
    martingale_drift_test,
    optional_representation_check,
    sigma_h_check,
)

from conftest import MASTER, martingale_row, qp_terminals, shifted_qp_terminals, zoo_block


# frozen fine-mesh Monte Carlo oracle for P(min over [0,1] of 1 + B <= 0):
# regenerate with fine_mesh_touch_probability() below; value from N = 2^15,
# 2 * 10^4 paths (se ~ 0.0033); the continuum value 2*Phi(-1) is 0.3173
TOUCH_PROBABILITY_ORACLE = 0.3132


def carried_by(fv, mask):
    """Carried-by statistic of one path: the row kernel on a one-row block."""
    return signed_measure._carried_rows(fv[None, :], mask[None, :])[0]


def fine_mesh_touch_probability(n=2**15, paths=20_000):
    hits = 0
    for i in range(paths):
        s = SeedSpec(MASTER, "oracle-hit", i)
        b = s.rng().standard_normal(n) * np.sqrt(1.0 / n)
        hits += (1.0 + np.cumsum(b)).min() <= 0.0
    return hits / paths


class TestBuildModel:
    def test_trivial_fields(self, grid12, seed):
        m = build_model("trivial", grid12, seed)
        assert m.d.shape == (1, grid12.n_points)
        assert not m.zeros.events.any()
        assert m.zeros.gbar[0] == 0
        assert np.all(m.d == 1.0)
        assert np.all(m.zeros.gamma == 0)

    def test_trivial_holds_no_row_buffer(self, grid12, seed):
        # D = 1 is a read-only broadcast of one value, whatever the block size
        m = build_model_rows("trivial", grid12, [seed.with_path(i) for i in range(3)])
        assert m.d.shape == (3, grid12.n_points)
        assert m.d.strides == (0, 0)
        assert not m.d.flags.writeable
        assert np.all(m.d == 1.0)

    def test_shifted_brownian_consistency(self, grid12, seed):
        m = build_model("shifted_brownian", grid12, seed)
        assert m.d[0, 0] == 1.0
        exc = decompose_excursions(SamplePath(grid12, m.d[0]))
        assert np.array_equal(m.zeros.events[0], exc.rows.events[0])

    def test_touch_fraction_matches_fine_mesh_oracle(self):
        g = make_grid(1.0, 2**12)
        hits = 0
        n = 10_000
        for i in range(n):
            m = build_model(
                "shifted_brownian", g, SeedSpec(MASTER, "hfrac", i).child("model")
            )
            hits += bool(m.zeros.events.any())
        frac = hits / n
        band = 3.0 * np.sqrt(TOUCH_PROBABILITY_ORACLE * (1 - TOUCH_PROBABILITY_ORACLE) / n)
        assert abs(frac - TOUCH_PROBABILITY_ORACLE) < band + 0.004  # oracle MC se

    def test_unknown_family(self, grid12, seed):
        with pytest.raises(ValueError):
            build_model("geometric", grid12, seed)


class TestDecomposition:
    def test_split_check_boundary(self):
        g = make_grid(1.0, 4)
        mart = np.array([[0.0, 1.0, -2.0, 3.0, 4.0]])
        fv = np.array([[0.0, 0.5, 0.5, 1.0, 2.0]])
        recon = mart + fv
        DecompositionRows(g, recon * (1 + 1e-12), mart, fv)
        with pytest.raises(ValueError):
            DecompositionRows(g, recon * (1 + 1e-6), mart, fv)

    @pytest.mark.parametrize("tile", [1, 7, 2**14])
    @pytest.mark.parametrize("shape", [(3, 40), (50, 3), (2, 2**15 + 3)])
    def test_split_check_tiles_find_last_element(self, monkeypatch, tile, shape):
        # fv broadcast from one row; the last element alone decides, at the
        # allclose boundary, and a NaN there fails too
        monkeypatch.setattr(signed_measure, "_SPLIT_TILE", tile)
        mart = np.random.default_rng(MASTER).standard_normal(shape)
        fv = np.broadcast_to(np.linspace(0.0, 1.0, shape[1]), shape)
        total = mart + fv
        recon = total[-1, -1]
        for value in (recon * (1 + 1e-12), recon + 0.9e-9, recon * (1 + 1e-6), recon + 2e-9,
                      np.nan):
            total[-1, -1] = value
            close = bool(np.allclose(value, recon, rtol=1e-9, atol=1e-9))
            if close:
                signed_measure._check_split(total, mart, fv)
            else:
                with pytest.raises(ValueError, match=r"^total must equal martingale_part \+ fv_part$"):
                    signed_measure._check_split(total, mart, fv)

    @pytest.mark.parametrize("tile", [1, 7, 2**14])
    def test_split_check_broadcast_total(self, monkeypatch, tile):
        # total broadcast from one row, as a martingale block's fv is from 0
        monkeypatch.setattr(signed_measure, "_SPLIT_TILE", tile)
        shape = (9, 33)
        total = np.broadcast_to(np.linspace(-1.0, 2.0, shape[1]), shape)
        mart = np.array(total)
        fv = np.broadcast_to(0.0, shape)
        signed_measure._check_split(total, mart, fv)
        mart[-1, -1] += 1e-6
        with pytest.raises(ValueError, match="total must equal"):
            signed_measure._check_split(total, mart, fv)

    @pytest.mark.parametrize("name", sorted(PROCESS_ZOO))
    def test_zoo_member_checks_its_split_once(self, name, monkeypatch):
        # a zoo member checks the split of the block it builds once
        calls = []
        check = signed_measure._check_split
        monkeypatch.setattr(
            signed_measure, "_check_split", lambda *a: calls.append(1) or check(*a)
        )
        g = make_grid(1.0, 64)
        model = build_model("shifted_brownian", g, SeedSpec(MASTER, "spy/model"))
        zoo_block(name, model, g, [SeedSpec(MASTER, "spy")])
        assert len(calls) == 1


class TestQpResidual:
    def test_independent_bm_small_terminal(self):
        assert np.median(shifted_qp_terminals("bm", SeedSpec(MASTER, "qp"), 2**16, 32)) < 0.05

    def test_local_time_drift_small_terminal(self):
        assert np.median(shifted_qp_terminals("bm_plus_local_time", SeedSpec(MASTER, "qp"), 2**16, 32)) < 0.05

    def test_negative_control_mean_one(self):
        # E int_0^1 D_s ds = 1 because E D_s = 1
        vals = shifted_qp_terminals("bm_plus_drift", SeedSpec(MASTER, "qpneg"), 2**11, 10_000)
        assert abs(np.mean(vals) - 1.0) < 0.05

    @pytest.mark.parametrize("tile", [1, 7, 64, 2**14])
    @pytest.mark.parametrize("shape", [(3, 40), (50, 3), (2, 2**15 + 3)])
    def test_terminal_sum_equals_last_column(self, monkeypatch, tile, shape):
        # the tiles of the terminal-only sum split rows and columns; D is a
        # block or a broadcast of 1.0, as the trivial model's is
        monkeypatch.setattr(signed_measure, "_SPLIT_TILE", tile)
        rng = np.random.default_rng(MASTER)
        m = np.cumsum(rng.standard_normal(shape), axis=1)
        for d in (1.0 + np.cumsum(rng.standard_normal(shape), axis=1),
                  np.broadcast_to(1.0, shape)):
            expected = np.abs(covariation_rows(m, d)[:, -1])
            assert np.array_equal(signed_measure._qp_terminal(d, m), expected)

    def test_grid_mismatch(self, seed):
        # sigma_h_check, which reads the qp residual of the martingale part,
        # refuses a model on another grid
        g1, g2 = make_grid(1.0, 2**8), make_grid(1.0, 2**9)
        model = build_model("trivial", g1, seed)
        dec = martingale_row(sample_brownian(g2, seed))
        with pytest.raises(ValueError, match="paths live on different grids"):
            sigma_h_check(dec, model)

    def test_multi_row_model_rejected(self, seed):
        g = make_grid(1.0, 2**6)
        models = build_model_rows("shifted_brownian", g, [seed, seed.with_path(1)])
        dec = martingale_row(sample_brownian(g, seed))
        w = np.stack([sample_brownian(g, s).values for s in (seed, seed.with_path(1))])
        two = DecompositionRows.martingale(g, w)
        with pytest.raises(ValueError, match="one-row model"):
            sigma_h_check(dec, models)
        one = build_model("shifted_brownian", g, seed.with_path(1))
        assert np.array_equal(one.d, models.d[1:])
        with pytest.raises(ValueError, match="one-row decomposition"):
            sigma_h_check(two, one)
        sigma_h_check(dec, one)

    def test_terminal_residual_decreases_with_mesh(self):
        # v = 0 and m independent of D: the terminal residual is pure
        # covariation noise and shrinks as the grid refines
        from skewlab.grid_paths import refine_bridge

        medians = []
        for n in (2**12, 2**14, 2**16):
            terms = []
            for i in range(32):
                s = SeedSpec(MASTER, "qpmesh", i)
                coarse = make_grid(1.0, 2**12)
                density = brownian_rows(coarse, [s.child("model/density")], x0=1.0)[0]
                d = refine_bridge(
                    SamplePath(coarse, density), n // 2**12, s.child("model/density"),
                )
                w = refine_bridge(
                    sample_brownian(coarse, s.child("w")), n // 2**12, s.child("w")
                )
                terms.append(qp_terminals(d.values[None, :], w.values[None, :])[0])
            medians.append(np.median(terms))
        assert medians[0] > medians[1] > medians[2]

    def test_carried_by_orthogonality_duality(self):
        # one direction: a decomposition passing the qp residual with
        # <M, D> ~ 0 has its finite-variation part carried by H; converse:
        # a construction with v carried by H has <m, D> ~ 0
        g = make_grid(1.0, 2**16)
        checked = 0
        for i in range(12):
            s = SeedSpec(MASTER, "dual", i)
            model = build_model("shifted_brownian", g, s.child("model"))
            if not model.zeros.events.any():
                continue
            checked += 1
            dec = zoo_block("bm_plus_local_time", model, g, [s])
            assert qp_terminals(model.d, dec.total, dec.fv_part)[0] < 0.05
            assert abs(covariation_rows(dec.total, model.d)[0, -1]) < 0.05
            assert carried_by(dec.fv_part[0], model.zeros.events[0]) >= 0.95
            assert abs(covariation_rows(dec.martingale_part, model.d)[0, -1]) < 0.05
        assert checked >= 3


class TestCarriedBy:
    def test_zero_variation_passes_vacuously(self, seed):
        g = make_grid(1.0, 2**8)
        assert carried_by(np.zeros(g.n_points), np.zeros(g.n_points, dtype=bool)) == 1.0

    def test_local_time_carried_by_h(self):
        g = make_grid(1.0, 2**16)
        found = 0
        for i in range(20):
            s = SeedSpec(MASTER, "car", i)
            model = build_model("shifted_brownian", g, s.child("model"))
            if not model.zeros.events.any():
                continue
            found += 1
            lt = tanaka_rows(model.d[0])
            assert carried_by(lt, model.zeros.events[0]) >= 0.95
        assert found >= 3

    def test_lebesgue_drift_fails_on_sparse_mask(self, grid12):
        mask = np.zeros(grid12.n_points, dtype=bool)
        mask[::512] = True
        assert carried_by(grid12.times, mask) < 0.5


def drift_test(base, label, n_paths, n_steps=2**11):
    """Drift test of D * X on the shifted model, path p from
    ``SeedSpec(MASTER, label, p)``."""
    return martingale_drift_test(
        "shifted_brownian", base, make_grid(1.0, n_steps), SeedSpec(MASTER, label), n_paths,
    )


class TestMartingaleDrift:
    def test_dw_passes(self):
        rep = drift_test("bm", "drift", 10_000)
        assert rep.passed
        assert rep.statistic < 4.0

    def test_local_time_compensation_passes(self):
        rep = drift_test("bm_plus_local_time", "drift", 10_000)
        assert rep.passed

    def test_drift_control_fails_loudly(self):
        rep = drift_test("bm_plus_drift", "drift", 10_000)
        assert not rep.passed
        assert rep.statistic > 5.0

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamplesError):
            drift_test("bm", "drift", 500)

    def test_report_carries_seed(self):
        assert drift_test("bm", "drift", 1000, n_steps=16).seed == SeedSpec(MASTER, "drift")

    def test_relative_martingale_detected_as_drifting(self, seed):
        # W - W_gamma resets to zero at predictable times with a nonzero
        # conditional mean, so it is a relative martingale but not a
        # martingale; the weighted drift test, read on X itself rather than
        # on D * X, sees the resets
        g = make_grid(1.0, 2**10)
        pairs = ((0.0, 0.25), (0.25, 0.5), (0.5, 1.0))
        with mock.patch.object(signed_measure, "_PAIRS", pairs):
            columns = signed_measure._checkpoint_columns(g)
            (values,) = signed_measure._read_blocks(
                "shifted_brownian", "bm_minus_frozen", g, SeedSpec(MASTER, "wmg"),
                [(20_000, lambda models, dec, seeds: dec.total[:, columns])],
            )
            rep = signed_measure._drift_report(values, g, seed, 4.0, "martingale_drift")
        assert not rep.passed
        # recorded when the test read its paths through its own block loop
        assert rep.statistic == 15.492420389376361


class TestSigmaH:
    def test_reflected_bm_passes(self):
        g = make_grid(1.0, 2**14)
        s = SeedSpec(MASTER, "sig", 0)
        model = build_model("trivial", g, s.child("model"))
        rep = sigma_h_check(zoo_block("reflected_bm", model, g, [s]), model)
        assert rep.passed
        assert rep.statistic >= 0.95

    def test_local_time_drift_passes_under_shifted_model(self):
        g = make_grid(1.0, 2**14)
        for i in range(6):
            s = SeedSpec(MASTER, "sig", i)
            model = build_model("shifted_brownian", g, s.child("model"))
            rep = sigma_h_check(zoo_block("bm_plus_local_time", model, g, [s]), model)
            assert rep.passed

    def test_lebesgue_drift_fails(self):
        g = make_grid(1.0, 2**14)
        s = SeedSpec(MASTER, "sig", 1)
        model = build_model("shifted_brownian", g, s.child("model"))
        rep = sigma_h_check(zoo_block("bm_plus_drift", model, g, [s]), model)
        assert not rep.passed

    def test_nonzero_start_fails(self, seed):
        g = make_grid(1.0, 2**10)
        model = build_model("trivial", g, seed)
        w = SamplePath(g, brownian_rows(g, [seed.child("w")], x0=1.0)[0])
        rep = sigma_h_check(martingale_row(w, label="shifted"), model)
        assert not rep.passed
        assert "starts_ok=False" in rep.detail


class TestEquivalenceSuites:
    @pytest.mark.parametrize(
        "name,base,expected",
        [
            ("abs_mart", "shifted_bm", "pass"),
            ("abs_mart", "shifted_bm_drift", "fail"),
            ("zalpha_mart", "shifted_bm", "pass"),
            ("zalpha_mart", "shifted_bm_drift", "fail"),
            ("abs_sigma", "bm", "pass"),
            ("abs_sigma", "bm_plus_drift", "fail"),
            ("zalpha_sigma", "bm", "pass"),
            ("zalpha_sigma", "bm_plus_drift", "fail"),
            ("cmart", "reflected_bm", "pass"),
            ("cmart", "bm_plus_drift", "fail"),
        ],
    )
    def test_iff_suites_agree(self, name, base, expected):
        rep = equivalence_suite(
            name, "trivial", base, 0.7 if "sigma" in name or "mart" in name else 0.5,
            SeedSpec(MASTER, f"eq/{name}/{base}"), 4000,
        )
        assert rep.passed, rep.detail
        assert f"left={expected}" in rep.detail
        assert f"right={expected}" in rep.detail

    def test_one_sided_suites(self, monkeypatch):
        for name, base, fam, n_steps in [
            ("ito_xdx", "reflected_bm", "trivial", 2**10),
            ("qp_brownian", "bm", "shifted_brownian", 2**12),
            ("abs_brownian", "bm", "trivial", 2**10),
        ]:
            monkeypatch.setattr(signed_measure, "_EQUIVALENCE_GRID", make_grid(1.0, n_steps))
            rep = equivalence_suite(
                name, fam, base, 0.5, SeedSpec(MASTER, f"eq1/{name}"), 4000,
            )
            assert rep.passed, f"{name}: {rep.detail}"

    def test_hypothesis_violation_reported(self):
        # a base with zeros outside H must be reported, not silently passed
        rep = equivalence_suite(
            "abs_mart", "trivial", "bm", 0.7, SeedSpec(MASTER, "eqhyp"), 2000
        )
        assert rep.hypothesis_not_met
        assert not rep.passed

    @staticmethod
    def spy_block_generators(monkeypatch):
        """The block generators the reader makes, kept from the collector,
        while the reader sees 4 usable CPUs."""
        generators = []
        run_chunks = signed_measure._run_chunks

        def spy(*args):
            generators.append(run_chunks(*args))
            return generators[-1]

        monkeypatch.setattr(signed_measure, "_run_chunks", spy)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
        return generators

    def test_failed_probe_reads_every_block(self, monkeypatch):
        # the 200 probed paths end in the fourth block of 63; the probe is a
        # side like the drift sides, so the pass reads all 64 blocks before
        # the suite reports the violations, the block generator runs to its
        # end and no worker thread is left behind
        generators = self.spy_block_generators(monkeypatch)
        before = threading.active_count()
        rep = equivalence_suite(
            "zalpha_mart", "shifted_brownian", "bm", 0.7, SeedSpec(MASTER, "earlystop"), 4000
        )
        assert repr(rep) == (
            "TestReport(suite='equivalence.zalpha_mart', statistic=1.0, threshold=0.02, "
            "n_paths=4000, n_steps=1024, seed=SeedSpec(master_seed=314159, "
            "stream_label='earlystop', path_index=0), passed=False, detail='hypothesis-not-met: "
            "zeros of the base process are not contained in H (violation fraction 1.000)')"
        )
        assert len(generators) == 1
        assert inspect.getgeneratorstate(generators[0]) == inspect.GEN_CLOSED
        assert threading.active_count() == before

    def test_side_error_stops_the_draws(self, monkeypatch):
        # a side raises in the fourth block of 63, with the next blocks' rows
        # still being drawn; the error reaches the caller, the reader closes
        # the block generator itself and no worker thread is left behind
        generators = self.spy_block_generators(monkeypatch)
        read = []

        def side(models, dec, seeds):
            if len(read) == 3:
                raise ArithmeticError("side failed")
            read.append(seeds[0].path_index)
            return dec.total[:, -1:]

        before = threading.active_count()
        with pytest.raises(ArithmeticError, match="side failed"):
            signed_measure._read_blocks(
                "shifted_brownian", "bm", make_grid(1.0, 2**10), SeedSpec(MASTER, "sideerr"),
                [(4000, side)],
            )
        assert read == [0, 63, 126]
        assert len(generators) == 1
        assert inspect.getgeneratorstate(generators[0]) == inspect.GEN_CLOSED
        assert threading.active_count() == before

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            equivalence_suite("gilat", "trivial", "bm", 0.5, SeedSpec(MASTER), 2000)

    def test_unknown_base(self):
        # a base is named by its zoo name only: neither a zoo member nor a
        # per-path factory outside the zoo is one
        def custom(model, grid, w):
            return PROCESS_ZOO["bm"](model, grid, w)

        for base in ("levy", custom, PROCESS_ZOO["bm"]):
            with pytest.raises(ValueError, match="unknown base process"):
                equivalence_suite("abs_mart", "trivial", base, 0.5, SeedSpec(MASTER), 2000)


class TestOptionalRepresentation:
    EVENTS = {
        "omega": lambda m, models: True,
        "w_quarter_pos": lambda m, models: m[:, models.grid.index_at(0.25)] > 0,
    }

    def test_trivial_model_bm_passes(self):
        g = make_grid(1.0, 2**10)
        for t_stop in (0.5, 1.0):
            rep = optional_representation_check(
                "bm", t_stop, self.EVENTS, 20_000,
                "trivial", g, SeedSpec(MASTER, f"rep/{t_stop}"),
            )
            assert rep.passed, rep.detail

    def test_shifted_instance_fails_at_interior_time(self):
        # the frozen-increment process is only a relative martingale; the
        # representation identity genuinely fails for it before the horizon
        g = make_grid(1.0, 2**10)
        rep = optional_representation_check(
            "bm_minus_frozen", 0.5, self.EVENTS, 20_000,
            "shifted_brownian", g, SeedSpec(MASTER, "repneg"),
        )
        assert not rep.passed
        assert rep.statistic > 4.0

    def test_first_hitting_rule(self):
        g = make_grid(1.0, 2**10)

        def hit_or_horizon(m, models):
            above = np.abs(m) >= 0.5
            return np.where(above.any(axis=1), above.argmax(axis=1), g.n_steps)

        rep = optional_representation_check(
            "bm", hit_or_horizon, {"omega": lambda m, models: True},
            20_000, "trivial", g, SeedSpec(MASTER, "rephit"),
        )
        assert rep.passed, rep.detail

    def test_empty_events_rejected(self, grid12, seed):
        with pytest.raises(ValueError):
            optional_representation_check(
                "bm", 1.0, {}, 2000, "trivial", grid12, seed
            )

    def test_insufficient_samples(self, grid12, seed):
        with pytest.raises(InsufficientSamplesError):
            optional_representation_check(
                "bm", 1.0, self.EVENTS, 100, "trivial", grid12, seed
            )


class TestDeterminism:
    def test_drift_report_reproducible(self):
        a = drift_test("bm", "det", 2000)
        b = drift_test("bm", "det", 2000)
        assert a == b

    def test_suite_report_reproducible(self):
        s = SeedSpec(MASTER, "eqdet")
        a = equivalence_suite("abs_mart", "trivial", "shifted_bm", 0.7, s, 2000)
        b = equivalence_suite("abs_mart", "trivial", "shifted_bm", 0.7, s, 2000)
        assert a == b
