"""Models, qp residuals, drift tests, Sigma(H) checks, equivalence suites."""

import numpy as np
import pytest

from skewlab import signed_measure
from skewlab.excursion import decompose_excursions
from skewlab.grid_paths import SamplePath, SeedSpec, block_rows, make_grid, sample_brownian
from skewlab.localtime import covariation_rows, ito_sum, local_time
from skewlab.signed_measure import (
    DecompositionRows,
    InsufficientSamplesError,
    PROCESS_ZOO,
    ModelRows,
    PathRows,
    build_model,
    build_model_rows,
    carried_by_check,
    density_products,
    equivalence_suite,
    martingale_drift_test,
    optional_representation_check,
    qp_residual,
    sigma_h_check,
)

from conftest import MASTER, martingale_row


# frozen fine-mesh Monte Carlo oracle for P(min over [0,1] of 1 + B <= 0):
# regenerate with fine_mesh_touch_probability() below; value from N = 2^15,
# 2 * 10^4 paths (se ~ 0.0033); the continuum value 2*Phi(-1) is 0.3173
TOUCH_PROBABILITY_ORACLE = 0.3132


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

    def test_shifted_brownian_consistency(self, grid12, seed):
        m = build_model("shifted_brownian", grid12, seed)
        assert m.d[0, 0] == 1.0
        exc = decompose_excursions(SamplePath(grid12, m.d[0]))
        assert np.array_equal(m.zeros.events[0], exc.zero_events)

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
        PROCESS_ZOO[name](model, g, [SeedSpec(MASTER, "spy")])
        assert len(calls) == 1


class TestQpResidual:
    def test_independent_bm_small_terminal(self):
        g = make_grid(1.0, 2**16)
        terms = []
        for i in range(32):
            s = SeedSpec(MASTER, "qp", i)
            model = build_model("shifted_brownian", g, s.child("model"))
            terms.append(qp_residual(PROCESS_ZOO["bm"](model, g, [s]), model).terminal)
        assert np.median(terms) < 0.05

    def test_local_time_drift_small_terminal(self):
        g = make_grid(1.0, 2**16)
        terms = []
        for i in range(32):
            s = SeedSpec(MASTER, "qp", i)
            model = build_model("shifted_brownian", g, s.child("model"))
            dec = PROCESS_ZOO["bm_plus_local_time"](model, g, [s])
            terms.append(qp_residual(dec, model).terminal)
        assert np.median(terms) < 0.05

    def test_negative_control_mean_one(self):
        # E int_0^1 D_s ds = 1 because E D_s = 1
        g = make_grid(1.0, 2**11)
        vals = []
        for i in range(10_000):
            s = SeedSpec(MASTER, "qpneg", i)
            model = build_model("shifted_brownian", g, s.child("model"))
            dec = PROCESS_ZOO["bm_plus_drift"](model, g, [s])
            vals.append(qp_residual(dec, model).terminal)
        assert abs(np.mean(vals) - 1.0) < 0.05

    def test_grid_mismatch(self, seed):
        g1, g2 = make_grid(1.0, 2**8), make_grid(1.0, 2**9)
        model = build_model("trivial", g1, seed)
        dec = martingale_row(sample_brownian(g2, seed))
        with pytest.raises(ValueError):
            qp_residual(dec, model)

    def test_multi_row_model_rejected(self, seed):
        g = make_grid(1.0, 2**6)
        models = build_model_rows("shifted_brownian", g, [seed, seed.with_path(1)])
        dec = martingale_row(sample_brownian(g, seed))
        w = np.stack([sample_brownian(g, s).values for s in (seed, seed.with_path(1))])
        two = DecompositionRows.martingale(g, w)
        for check in (qp_residual, sigma_h_check):
            with pytest.raises(ValueError, match="one-row model"):
                check(dec, models)
            with pytest.raises(ValueError, match="one-row decomposition"):
                check(two, models.row(1))
            check(dec, models.row(1))
        assert np.array_equal(models.row(-1).d, models.d[1:])
        with pytest.raises(IndexError):
            models.row(2)

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
                d = refine_bridge(
                    sample_brownian(coarse, s.child("model/density"), x0=1.0),
                    n // 2**12, s.child("model/density"),
                )
                w = refine_bridge(
                    sample_brownian(coarse, s.child("w")), n // 2**12, s.child("w")
                )
                model = ModelRows("shifted_brownian", d.grid, d.values[None, :])
                terms.append(qp_residual(martingale_row(w), model).terminal)
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
            dec = PROCESS_ZOO["bm_plus_local_time"](model, g, [s])
            assert qp_residual(dec, model).terminal < 0.05
            assert abs(covariation_rows(dec.total, model.d)[0, -1]) < 0.05
            carried = carried_by_check(SamplePath(g, dec.fv_part[0]), model.zeros.events[0])
            assert carried.passed
            assert abs(covariation_rows(dec.martingale_part, model.d)[0, -1]) < 0.05
        assert checked >= 3


class TestCarriedBy:
    def test_zero_variation_passes_vacuously(self, seed):
        g = make_grid(1.0, 2**8)
        fv = SamplePath(g, np.zeros(g.n_points))
        rep = carried_by_check(fv, np.zeros(g.n_points, dtype=bool))
        assert rep.passed and rep.statistic == 1.0

    def test_local_time_carried_by_h(self):
        g = make_grid(1.0, 2**16)
        found = 0
        for i in range(20):
            s = SeedSpec(MASTER, "car", i)
            model = build_model("shifted_brownian", g, s.child("model"))
            if not model.zeros.events.any():
                continue
            found += 1
            lt = local_time(SamplePath(g, model.d[0]), "tanaka")
            rep = carried_by_check(lt, model.zeros.events[0])
            assert rep.passed
            assert rep.statistic >= 0.95
        assert found >= 3

    def test_lebesgue_drift_fails_on_sparse_mask(self, grid12):
        fv = SamplePath(grid12, grid12.times.copy())
        mask = np.zeros(grid12.n_points, dtype=bool)
        mask[::512] = True
        rep = carried_by_check(fv, mask)
        assert not rep.passed
        assert rep.statistic < 0.5


def product_family(base, label, n_steps=2**11, model_family="shifted_brownian"):
    """D * X with path p from ``SeedSpec(MASTER, label, p)``."""
    return density_products(model_family, base, make_grid(1.0, n_steps), SeedSpec(MASTER, label))


class TestMartingaleDrift:
    def test_dw_passes(self, seed):
        rep = martingale_drift_test(
            product_family("bm", "drift"), 10_000, [0.5, 1.0], seed=seed
        )
        assert rep.passed
        assert rep.statistic < 4.0

    def test_local_time_compensation_passes(self, seed):
        rep = martingale_drift_test(
            product_family("bm_plus_local_time", "drift"), 10_000, [0.5, 1.0], seed=seed
        )
        assert rep.passed

    def test_drift_control_fails_loudly(self, seed):
        rep = martingale_drift_test(
            product_family("bm_plus_drift", "drift"), 10_000, [0.5, 1.0], seed=seed
        )
        assert not rep.passed
        assert rep.statistic > 5.0

    def test_insufficient_samples(self, seed):
        with pytest.raises(InsufficientSamplesError):
            martingale_drift_test(product_family("bm", "drift"), 500, [1.0], seed=seed)

    def test_relative_martingale_detected_as_drifting(self, seed):
        # W - W_gamma resets to zero at predictable times with a nonzero
        # conditional mean, so it is a relative martingale but not a
        # martingale; the weighted drift test sees the resets
        g = make_grid(1.0, 2**10)

        def rows(lo, hi):
            seeds = [SeedSpec(MASTER, "wmg", p) for p in range(lo, hi)]
            models = build_model_rows("shifted_brownian", g, [s.child("model") for s in seeds])
            return PROCESS_ZOO["bm_minus_frozen"](models, g, seeds).total

        fam = PathRows(g, block_rows(g.n_points), rows)
        rep = martingale_drift_test(fam, 20_000, [0.25, 0.5, 1.0], seed=seed)
        assert not rep.passed


class TestSigmaH:
    def test_reflected_bm_passes(self):
        g = make_grid(1.0, 2**14)
        s = SeedSpec(MASTER, "sig", 0)
        model = build_model("trivial", g, s.child("model"))
        rep = sigma_h_check(PROCESS_ZOO["reflected_bm"](model, g, [s]), model)
        assert rep.passed
        assert rep.statistic >= 0.95

    def test_local_time_drift_passes_under_shifted_model(self):
        g = make_grid(1.0, 2**14)
        for i in range(6):
            s = SeedSpec(MASTER, "sig", i)
            model = build_model("shifted_brownian", g, s.child("model"))
            rep = sigma_h_check(PROCESS_ZOO["bm_plus_local_time"](model, g, [s]), model)
            assert rep.passed

    def test_lebesgue_drift_fails(self):
        g = make_grid(1.0, 2**14)
        s = SeedSpec(MASTER, "sig", 1)
        model = build_model("shifted_brownian", g, s.child("model"))
        rep = sigma_h_check(PROCESS_ZOO["bm_plus_drift"](model, g, [s]), model)
        assert not rep.passed

    def test_nonzero_start_fails(self, seed):
        g = make_grid(1.0, 2**10)
        model = build_model("trivial", g, seed)
        w = sample_brownian(g, seed.child("w"), x0=1.0)
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

    def test_one_sided_suites(self):
        for name, base, fam in [
            ("ito_xdx", "reflected_bm", "trivial"),
            ("qp_brownian", "bm", "shifted_brownian"),
            ("abs_brownian", "bm", "trivial"),
        ]:
            rep = equivalence_suite(
                name, fam, base, 0.5, SeedSpec(MASTER, f"eq1/{name}"), 4000,
                grid=make_grid(1.0, 2**12) if name == "qp_brownian" else None,
            )
            assert rep.passed, f"{name}: {rep.detail}"

    def test_hypothesis_violation_reported(self):
        # a base with zeros outside H must be reported, not silently passed
        rep = equivalence_suite(
            "abs_mart", "trivial", "bm", 0.7, SeedSpec(MASTER, "eqhyp"), 2000
        )
        assert rep.hypothesis_not_met
        assert not rep.passed

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            equivalence_suite("gilat", "trivial", "bm", 0.5, SeedSpec(MASTER), 2000)

    def test_unknown_base(self):
        # a base is a zoo name or a zoo member; a per-path factory outside
        # the zoo has no row kernel
        def custom(model, grid, seed):
            return PROCESS_ZOO["bm"](model, grid, seed)

        for base in ("levy", custom):
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
                PROCESS_ZOO["bm"], t_stop, self.EVENTS, 20_000,
                "trivial", g, SeedSpec(MASTER, f"rep/{t_stop}"),
            )
            assert rep.passed, rep.detail

    def test_shifted_instance_fails_at_interior_time(self):
        # the frozen-increment process is only a relative martingale; the
        # representation identity genuinely fails for it before the horizon
        g = make_grid(1.0, 2**10)
        rep = optional_representation_check(
            PROCESS_ZOO["bm_minus_frozen"], 0.5, self.EVENTS, 20_000,
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
            PROCESS_ZOO["bm"], hit_or_horizon, {"omega": lambda m, models: True},
            20_000, "trivial", g, SeedSpec(MASTER, "rephit"),
        )
        assert rep.passed, rep.detail

    def test_empty_events_rejected(self, grid12, seed):
        with pytest.raises(ValueError):
            optional_representation_check(
                PROCESS_ZOO["bm"], 1.0, {}, 2000, "trivial", grid12, seed
            )

    def test_insufficient_samples(self, grid12, seed):
        with pytest.raises(InsufficientSamplesError):
            optional_representation_check(
                PROCESS_ZOO["bm"], 1.0, self.EVENTS, 100, "trivial", grid12, seed
            )


class TestDeterminism:
    def test_drift_report_reproducible(self, seed):
        a = martingale_drift_test(product_family("bm", "det"), 2000, [1.0], seed=seed)
        b = martingale_drift_test(product_family("bm", "det"), 2000, [1.0], seed=seed)
        assert a == b

    def test_suite_report_reproducible(self):
        s = SeedSpec(MASTER, "eqdet")
        a = equivalence_suite("abs_mart", "trivial", "shifted_bm", 0.7, s, 2000)
        b = equivalence_suite("abs_mart", "trivial", "shifted_bm", 0.7, s, 2000)
        assert a == b
