"""Ito sums, covariation, local time estimators, and identity residuals."""

import numpy as np
import pytest

from skewlab.excursion import decompose_excursions, last_zero_curve
from skewlab.grid_paths import SamplePath, SeedSpec, make_grid, refine_bridge, sample_brownian
from skewlab.localtime import (
    _increments_in_place,
    covariation_rows,
    identity_residual,
    ito_sum,
    local_time,
)

from conftest import MASTER, brownian, independent_pair, path_from_values


@pytest.mark.parametrize("n_points", [1, 2, 5, 9, 16, 17, 33])
def test_increments_in_place_equal_diff(n_points):
    # small chunks, so the chunk edges fall inside, on and past the array
    x = np.random.default_rng(n_points).standard_normal(n_points)
    expected = np.diff(x)
    got = _increments_in_place(x.copy(), chunk=4)
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


class TestItoSum:
    def test_unit_integrand_telescopes(self):
        p = brownian(2**8, label="ito")
        ones = p.with_values(np.ones(len(p)))
        out = ito_sum(ones, p)
        assert np.allclose(out.values, p.values - p.values[0], atol=1e-12)

    def test_zero_integrand(self):
        p = brownian(2**8, label="ito")
        zero = p.with_values(np.zeros(len(p)))
        assert np.all(ito_sum(zero, p).values == 0)

    def test_integration_by_parts_exact(self):
        # x_t y_t - x_0 y_0 = I(x, y) + I(y, x) + <x, y> at every index
        x = brownian(2**10, path_index=1, label="ibp")
        y = brownian(2**10, path_index=2, label="ibp")
        lhs = x.values * y.values - x.values[0] * y.values[0]
        rhs = ito_sum(x, y).values + ito_sum(y, x).values + covariation_rows(x.values, y.values)
        assert np.allclose(lhs, rhs, atol=1e-10)

    def test_self_integration_identity(self):
        # 2 I(B, B)_T + <B, B>_T = B_T^2 - B_0^2 exactly at any mesh
        p = brownian(2**6, label="self")
        lhs = 2 * ito_sum(p, p).values[-1] + covariation_rows(p.values, p.values)[-1]
        assert np.isclose(lhs, p.values[-1] ** 2 - p.values[0] ** 2, atol=1e-12)

    def test_grid_mismatch(self):
        with pytest.raises(ValueError):
            ito_sum(brownian(2**4), brownian(2**5))


class TestQuadraticCovariation:
    def test_brownian_self_covariation(self):
        vals = []
        for i in range(32):
            p = sample_brownian(make_grid(1.0, 2**16), SeedSpec(MASTER, "qv", i))
            vals.append(covariation_rows(p.values, p.values)[-1])
        assert 0.97 <= np.median(vals) <= 1.03

    def test_constant_second_argument(self):
        p = brownian(2**8)
        c = p.with_values(np.full(len(p), 3.0))
        assert np.all(covariation_rows(p.values, c.values) == 0)

    def test_independent_pair_vanishes(self):
        vals = []
        for i in range(32):
            a, b = independent_pair(make_grid(1.0, 2**16), SeedSpec(MASTER, "qvp", i))
            vals.append(covariation_rows(a.values, b.values)[-1])
        assert np.median(np.abs(vals)) < 0.05


class TestLocalTime:
    def test_positive_path_tanaka_exactly_zero(self):
        p = path_from_values(2.0 + np.linspace(0, 1, 65) ** 2)
        lt = local_time(p, "tanaka")
        assert np.allclose(lt.values, 0.0, atol=1e-14)

    def test_positive_path_occupation_zero_for_small_bandwidth(self):
        p = path_from_values(2.0 + np.linspace(0, 1, 65) ** 2)
        lt = local_time(p, "occupation", bandwidth=1.0)
        assert np.all(lt.values == 0)

    def test_occupation_nondecreasing_starts_at_zero(self):
        p = brownian(2**12, label="occ")
        lt = local_time(p, "occupation")
        assert lt.values[0] == 0
        assert np.all(np.diff(lt.values) >= 0)
        # the default bandwidth is dt**0.4
        at_default = local_time(p, "occupation", bandwidth=p.grid.dt**0.4)
        assert np.array_equal(lt.values, at_default.values)

    def test_estimators_agree_on_brownian(self):
        # occupation and tanaka are consistent estimators of the same local
        # time; their sup-norm gap at N = 2^16 stays below 0.1
        sups = []
        for i in range(32):
            p = sample_brownian(make_grid(1.0, 2**16), SeedSpec(MASTER, "agree", i))
            occ = local_time(p, "occupation").values
            tan = local_time(p, "tanaka").values
            sups.append(np.max(np.abs(occ - tan)))
        assert np.median(sups) < 0.1

    def test_tanaka_curve_never_decreases(self):
        # with sgn(0) = 0 the discrete tanaka increments are 0 off crossings
        # and 2|overshoot| at crossings, so the curve is exactly nondecreasing
        # at every mesh (the largest decrease is identically zero)
        for n in (2**12, 2**14, 2**16):
            for i in range(8):
                s = SeedSpec(MASTER, "drop", i)
                p = refine_bridge(
                    sample_brownian(make_grid(1.0, 2**12), s), n // 2**12, s
                )
                curve = local_time(p, "tanaka").values
                assert np.all(np.diff(curve) >= -1e-15)

    def test_abs_path_same_tanaka_when_zeros_are_exact(self):
        # on a discretization whose sign changes pass through exact zeros the
        # symmetric convention gives |B| and B identical tanaka local times
        p = brownian(2**12, label="absL")
        exc = decompose_excursions(p)
        vals = p.values.copy()
        vals[exc.zero_events] = 0.0
        q = path_from_values(vals)
        absq = path_from_values(np.abs(vals))
        lt_q = local_time(q, "tanaka").values
        lt_abs = local_time(absq, "tanaka").values
        assert np.array_equal(lt_q, lt_abs)
        assert lt_q[-1] > 0.1  # the path does visit zero

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            local_time(brownian(2**4), "kernel")

    @pytest.mark.parametrize("bandwidth", [np.inf, np.nan])
    def test_occupation_rejects_non_finite_bandwidth(self, bandwidth):
        # the error names the bandwidth, not the path values
        with pytest.raises(ValueError, match="occupation bandwidth"):
            local_time(brownian(2**4), "occupation", bandwidth)


class TestIdentityResidual:
    def test_tanaka_monotone_path_exact_zero(self):
        p = path_from_values(2.0 + np.linspace(0.0, 1.0, 33))
        r = identity_residual("tanaka", path=p)
        assert r.sup_norm == 0.0
        assert r.terminal == 0.0

    def test_tanaka_brownian_mesh_convergence(self):
        meds = []
        for n in (2**12, 2**14, 2**16):
            sups = []
            for i in range(16):
                s = SeedSpec(MASTER, "tanres", i)
                p = refine_bridge(
                    sample_brownian(make_grid(1.0, 2**12), s), n // 2**12, s
                )
                sups.append(identity_residual("tanaka", path=p).sup_norm)
            meds.append(np.median(sups))
        assert meds[0] > meds[2]
        assert meds[2] < 0.15

    def test_balayage_unit_k_exact(self):
        p = brownian(2**10, label="bal")
        y = p.with_values(np.abs(p.values))
        k = y.with_values(np.ones(len(y)))
        r = identity_residual("balayage_predictable", y=y, k=k)
        assert r.sup_norm < 1e-12

    def test_balayage_frozen_cos_converges(self):
        # Y = |B| with the zero structure read off the signed parent B and
        # k_t = cos(gamma_t); residual vanishes with the mesh
        meds = []
        for n in (2**12, 2**16):
            sups = []
            for i in range(16):
                s = SeedSpec(MASTER, "balres", i)
                p = refine_bridge(
                    sample_brownian(make_grid(1.0, 2**12), s), n // 2**12, s
                )
                y = p.with_values(np.abs(p.values))
                gamma, _ = last_zero_curve(decompose_excursions(p))
                k = p.with_values(np.cos(p.grid.times[gamma]))
                sups.append(
                    identity_residual(
                        "balayage_predictable", y=y, k=k, reference=p
                    ).sup_norm
                )
            meds.append(np.median(sups))
        assert meds[0] > meds[1]
        assert meds[1] < 0.05

    def test_balayage_exact_when_reference_vanishes_at_events(self):
        # if Y is exactly zero at every gamma event the discrete balayage
        # identity telescopes with no error at all
        p = brownian(2**10, label="balz")
        from skewlab.excursion import decompose_excursions as dec

        vals = p.values.copy()
        vals[dec(p).zero_events] = 0.0
        y = p.with_values(np.abs(vals))
        snapped = p.with_values(vals)
        gamma, _ = last_zero_curve(dec(snapped))
        k = p.with_values(np.cos(p.grid.times[gamma]))
        r = identity_residual("balayage_predictable", y=y, k=k, reference=snapped)
        assert r.sup_norm < 1e-12

    def test_balayage_accepts_callable_k(self):
        p = brownian(2**8, label="balc")
        y = p.with_values(np.abs(p.values))
        r = identity_residual("balayage_predictable", y=y, k=lambda t: np.ones_like(t))
        assert r.sup_norm < 1e-12

    def test_transform_c3_reflected_brownian(self):
        # f(v)M - f(v_0)M_0 - int f(v) dm - F(v) for M=|W|, m=int sgn dW,
        # v=L(W), f=cos, F=sin; residual shrinks with mesh
        sups = {}
        for n in (2**12, 2**16):
            per_seed = []
            for i in range(12):
                s = SeedSpec(MASTER, "c3", i)
                p = refine_bridge(
                    sample_brownian(make_grid(1.0, 2**12), s), n // 2**12, s
                )
                sgn = p.with_values(np.sign(p.values))
                m = ito_sum(sgn, p)
                total = p.with_values(np.abs(p.values))
                v = p.with_values(total.values - m.values)
                r = identity_residual(
                    "transform_c3",
                    total=total,
                    martingale_part=m,
                    fv_part=v,
                    f=np.cos,
                    F=np.sin,
                )
                per_seed.append(r.sup_norm)
            sups[n] = np.median(per_seed)
        assert sups[2**12] > sups[2**16]
        assert sups[2**16] < 0.05

    def test_missing_inputs_rejected(self):
        with pytest.raises(ValueError):
            identity_residual("tanaka")
        with pytest.raises(ValueError):
            identity_residual("balayage_predictable", y=brownian(2**4))
        with pytest.raises(ValueError):
            identity_residual("transform_c3", total=brownian(2**4))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            identity_residual("girsanov", path=brownian(2**4))

    def test_report_invariant(self):
        r = identity_residual("tanaka", path=brownian(2**10, label="inv"))
        assert r.sup_norm >= r.terminal >= 0
