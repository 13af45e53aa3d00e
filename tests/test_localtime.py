"""Ito sums, covariation, local time estimators, and identity residuals."""

import numpy as np
import pytest

from skewlab.excursion import decompose_excursions
from skewlab.grid_paths import SamplePath, SeedSpec, make_grid, refine_bridge, sample_brownian
from skewlab.localtime import (
    OCCUPATION_EXPONENT,
    ResidualReport,
    _increments,
    _increments_in_place,
    _occupation,
    _product_residual,
    covariation_rows,
    identity_residual,
    identity_residuals,
    ito_sum,
    tanaka_rows,
)

from conftest import MASTER, brownian, independent_pair, path_from_values

#: repr of (sup_norm, terminal) per identity on brownian(n, path_index=i,
#: label="pin"), keyed (n, i)
PINS = {
    (1024, 0): {'tanaka': ('0.15313009039206077', '0.12090741670755711'), 'balayage': ('0.02100784743905762', '0.021007847439057592'), 'transform': ('0.0005872384433842637', '0.0005872384433842637')},
    (1024, 1): {'tanaka': ('0.06286271354253939', '0.039653034160966466'), 'balayage': ('0.00043215075024044536', '0.00043215075024038985'), 'transform': ('2.385368408772126e-05', '2.385368408772126e-05')},
    (1024, 2): {'tanaka': ('0.10278258326438122', '0.10278258326438122'), 'balayage': ('0.0030025876650242034', '0.003002587665023926'), 'transform': ('2.0735447806841112e-05', '2.0735447806619067e-05')},
    (1024, 3): {'tanaka': ('0.44161513622005305', '0.3278863751214689'), 'balayage': ('0.0016227588858067328', '0.0016227588858067328'), 'transform': ('0.0004241578206083396', '0.0004241578206083396')},
    (4096, 0): {'tanaka': ('0.08496555808447132', '0.07136320553296982'), 'balayage': ('0.0007133515699655479', '0.0007133515699626614'), 'transform': ('8.564052054077509e-05', '8.564052053966487e-05')},
    (4096, 1): {'tanaka': ('0.04616897616749957', '0.04616897616749957'), 'balayage': ('0.0057805056768606145', '0.005780505676860392'), 'transform': ('7.99722895476751e-06', '7.997228954711999e-06')},
    (4096, 2): {'tanaka': ('0.03847165528508553', '0.03847165528508553'), 'balayage': ('9.573509077842601e-05', '9.57350907768717e-05'), 'transform': ('2.6043364363681487e-06', '2.6043364304839667e-06')},
    (4096, 3): {'tanaka': ('0.24552996304235242', '0.2307736943731883'), 'balayage': ('0.0011528980093677421', '0.0011528980093672425'), 'transform': ('7.729947225632028e-05', '7.729947225620926e-05')},
}


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
        ones = SamplePath(p.grid, np.ones(len(p)))
        out = ito_sum(ones, p)
        assert np.allclose(out.values, p.values - p.values[0], atol=1e-12)

    def test_zero_integrand(self):
        p = brownian(2**8, label="ito")
        zero = SamplePath(p.grid, np.zeros(len(p)))
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
        assert np.all(covariation_rows(p.values, np.full(len(p), 3.0)) == 0)

    def test_independent_pair_vanishes(self):
        vals = []
        for i in range(32):
            a, b = independent_pair(make_grid(1.0, 2**16), SeedSpec(MASTER, "qvp", i))
            vals.append(covariation_rows(a.values, b.values)[-1])
        assert np.median(np.abs(vals)) < 0.05


class TestLocalTime:
    def test_positive_path_tanaka_exactly_zero(self):
        p = path_from_values(2.0 + np.linspace(0, 1, 65) ** 2)
        assert np.allclose(tanaka_rows(p.values), 0.0, atol=1e-14)

    def test_positive_path_occupation_zero_for_small_bandwidth(self):
        p = path_from_values(2.0 + np.linspace(0, 1, 65) ** 2)
        assert np.all(_occupation(p.values, p.grid.dt, 1.0) == 0)

    def test_occupation_nondecreasing_starts_at_zero(self):
        p = brownian(2**12, label="occ")
        lt = _occupation(p.values, p.grid.dt, p.grid.dt**OCCUPATION_EXPONENT)
        assert lt[0] == 0
        assert np.all(np.diff(lt) >= 0)
        # the default bandwidth is dt**0.4
        assert np.array_equal(lt, _occupation(p.values, p.grid.dt, p.grid.dt**0.4))

    def test_estimators_agree_on_brownian(self):
        # occupation and tanaka are consistent estimators of the same local
        # time; their sup-norm gap at N = 2^16 stays below 0.1
        sups = []
        for i in range(32):
            p = sample_brownian(make_grid(1.0, 2**16), SeedSpec(MASTER, "agree", i))
            occ = _occupation(p.values, p.grid.dt, p.grid.dt**OCCUPATION_EXPONENT)
            tan = tanaka_rows(p.values)
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
                curve = tanaka_rows(p.values)
                assert np.all(np.diff(curve) >= -1e-15)

    def test_abs_path_same_tanaka_when_zeros_are_exact(self):
        # on a discretization whose sign changes pass through exact zeros the
        # symmetric convention gives |B| and B identical tanaka local times
        p = brownian(2**12, label="absL")
        exc = decompose_excursions(p)
        vals = p.values.copy()
        vals[exc.rows.events[0]] = 0.0
        lt_q = tanaka_rows(vals)
        lt_abs = tanaka_rows(np.abs(vals))
        assert np.array_equal(lt_q, lt_abs)
        assert lt_q[-1] > 0.1  # the path does visit zero


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
        y = np.abs(p.values)
        residual = _product_residual(np.ones(len(p)), y, _increments(y))
        assert ResidualReport.from_residual(residual).sup_norm < 1e-12

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
                sups.append(identity_residual("balayage", path=p).sup_norm)
            meds.append(np.median(sups))
        assert meds[0] > meds[1]
        assert meds[1] < 0.05

    def test_balayage_exact_when_reference_vanishes_at_events(self):
        # if Y is exactly zero at every gamma event the discrete balayage
        # identity telescopes with no error at all
        p = brownian(2**10, label="balz")
        vals = p.values.copy()
        vals[decompose_excursions(p).rows.events[0]] = 0.0
        r = identity_residual("balayage", path=SamplePath(p.grid, vals))
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
                per_seed.append(identity_residual("transform", path=p).sup_norm)
            sups[n] = np.median(per_seed)
        assert sups[2**12] > sups[2**16]
        assert sups[2**16] < 0.05

    @pytest.mark.parametrize("n, i", sorted(PINS))
    def test_residuals_pinned(self, n, i):
        # recorded through the keyword-bag API that identity_residuals
        # replaced: y = |p|, k = cos(gamma) with p's zeros, and M = |p|,
        # m = int sgn(p) dp, v = M - m, f = cos, F = sin
        p = brownian(n, path_index=i, label="pin")
        got = {kind: (repr(r.sup_norm), repr(r.terminal))
               for kind, r in identity_residuals(p).items()}
        assert got == PINS[n, i]
        for kind, pinned in PINS[n, i].items():
            r = identity_residual(kind, path=p)
            assert (repr(r.sup_norm), repr(r.terminal)) == pinned

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            identity_residual("girsanov", path=brownian(2**4))

    def test_report_invariant(self):
        r = identity_residual("tanaka", path=brownian(2**10, label="inv"))
        assert r.sup_norm >= r.terminal >= 0
