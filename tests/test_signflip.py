"""Bernoulli sign assignment and sign-path assembly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewlab.excursion import decompose_excursions
from skewlab.grid_paths import SeedSpec, make_grid, sample_brownian
from skewlab.signflip import AlphaSchedule, apply_sign, assign_signs, build_sign_path

from conftest import MASTER, brownian, excursion_runs, path_from_values


class TestAlphaSchedule:
    def test_constant(self):
        s = AlphaSchedule.constant(0.7)
        assert s.kind == "constant" and s.n_cells == 1
        assert np.all(s.alpha_at(np.array([0.0, 0.3, 0.99])) == 0.7)

    def test_piecewise_lookup(self):
        s = AlphaSchedule.piecewise([0.0, 0.5], [0.3, 0.8])
        assert s.kind == "piecewise"
        assert list(s.alpha_at(np.array([0.0, 0.49, 0.5, 1.0]))) == [0.3, 0.3, 0.8, 0.8]

    @pytest.mark.parametrize(
        "bounds,vals",
        [
            ([0.1, 0.5], [0.3, 0.8]),  # must start at 0
            ([0.0, 0.0], [0.3, 0.8]),  # strictly increasing
            ([0.0, 0.5], [0.3]),  # length mismatch
            ([0.0], [1.2]),  # alpha out of range
            ([0.0, float("nan")], [0.3, 0.8]),  # boundaries must be finite
            ([0.0, float("inf")], [0.3, 0.8]),
        ],
    )
    def test_validation(self, bounds, vals):
        with pytest.raises(ValueError):
            AlphaSchedule.piecewise(bounds, vals)


class TestAssignSigns:
    def _excursions(self, n_steps=2**10, i=0):
        return decompose_excursions(brownian(n_steps, path_index=i, label="sf"))

    def test_alpha_one_all_plus(self, seed):
        exc = self._excursions()
        a = assign_signs(exc, AlphaSchedule.constant(1.0), seed)
        assert a.shape == (exc.n_excursions, 1) and a.dtype == np.int8
        assert np.all(a == 1)

    def test_alpha_zero_all_minus(self, seed):
        exc = self._excursions()
        a = assign_signs(exc, AlphaSchedule.constant(0.0), seed)
        assert np.all(a == -1)

    def test_binomial_fraction(self):
        # pooled across paths and excursions: 3 sigma band around alpha
        sched = AlphaSchedule.constant(0.7)
        signs = []
        for i in range(400):
            exc = self._excursions(2**12, i)
            s = SeedSpec(MASTER, "binom", i)
            signs.append(assign_signs(exc, sched, s)[:, 0])
        signs = np.concatenate(signs)
        n = len(signs)
        assert n >= 10_000
        frac = np.mean(signs == 1)
        assert abs(frac - 0.7) < 3.0 * np.sqrt(0.7 * 0.3 / n)

    def test_prefix_stable_in_excursion_count(self, seed):
        # revealing more excursions must not reshuffle earlier signs
        exc_small = self._excursions(2**10)
        exc_big = self._excursions(2**14)
        assert exc_big.n_excursions > exc_small.n_excursions
        sched = AlphaSchedule.constant(0.4)
        a_small = assign_signs(exc_small, sched, seed)
        a_big = assign_signs(exc_big, sched, seed)
        k = exc_small.n_excursions
        assert np.array_equal(a_small, a_big[:k])

    def test_cells_uncorrelated_within_excursion(self):
        sched = AlphaSchedule.piecewise([0.0, 0.5], [0.5, 0.5])
        exc = self._excursions()
        cols = np.array(
            [
                assign_signs(exc, sched, SeedSpec(MASTER, "corr", i))[0]
                for i in range(10_000)
            ],
            dtype=float,
        )
        corr = np.corrcoef(cols[:, 0], cols[:, 1])[0, 1]
        assert abs(corr) < 0.05


class TestBuildSignPath:
    def test_constructed_example(self):
        exc = decompose_excursions(path_from_values([0, 1, 2, 0, -1, 0]))
        signs = np.array([[1], [-1]], dtype=np.int8)
        z = build_sign_path(exc, signs, AlphaSchedule.constant(0.5))
        assert list(z.values) == [0, 1, 1, 0, -1, 0]

    def test_single_cell_piecewise_degenerates(self, seed):
        exc = decompose_excursions(brownian(2**10, label="deg"))
        const = AlphaSchedule.constant(0.3)
        piece = AlphaSchedule.piecewise([0.0], [0.3])
        z_const = build_sign_path(exc, assign_signs(exc, const, seed), const)
        z_piece = build_sign_path(exc, assign_signs(exc, piece, seed), piece)
        assert np.array_equal(z_const.values, z_piece.values)

    @settings(max_examples=300, deadline=None)
    @given(
        x0=st.integers(-2, 2),
        steps=st.lists(st.integers(-2, 2), min_size=1, max_size=40),
        cuts=st.lists(st.floats(0.01, 0.99), max_size=3, unique=True),
        data=st.data(),
    )
    def test_sign_frozen_at_birth_cell(self, x0, steps, cuts, data):
        # integer steps hit 0 exactly and also cross it, so paths carry both
        # kinds of excursion boundary; excursions straddle random cell cuts
        p = path_from_values(np.cumsum([x0] + steps))
        sched = AlphaSchedule.piecewise([0.0] + sorted(cuts), [0.5] * (len(cuts) + 1))
        exc = decompose_excursions(p)
        n_signs = exc.n_excursions * sched.n_cells
        signs = np.array(
            data.draw(st.lists(st.sampled_from([-1, 1]), min_size=n_signs, max_size=n_signs)),
            dtype=np.int8,
        ).reshape(exc.n_excursions, sched.n_cells)
        z = build_sign_path(exc, signs, sched).values
        cells = sched.cell_indices(p.grid.times)
        for n, (birth, lo, hi, _) in enumerate(excursion_runs(exc.rows)):
            assert np.all(z[lo : hi + 1] == signs[n, cells[birth]])
        assert np.all(z[exc.zero_mask] == 0)

    def test_mismatched_assignment_rejected(self, seed):
        exc = decompose_excursions(brownian(2**8, label="mm"))
        bad = np.ones((exc.n_excursions + 1, 1), dtype=np.int8)
        with pytest.raises(ValueError, match="excursions"):
            build_sign_path(exc, bad, AlphaSchedule.constant(0.5))
        two_cells = np.ones((exc.n_excursions, 2), dtype=np.int8)
        with pytest.raises(ValueError, match="cell count"):
            build_sign_path(exc, two_cells, AlphaSchedule.constant(0.5))


class TestApplySign:
    def test_absolute_alpha_one_is_abs(self, seed):
        p = brownian(2**10, label="abs1")
        exc = decompose_excursions(p)
        sched = AlphaSchedule.constant(1.0)
        z = build_sign_path(exc, assign_signs(exc, sched, seed), sched)
        out = apply_sign(z, p, mode="absolute")
        assert np.array_equal(out.values, np.abs(p.values))

    def test_own_signs_recover_path(self):
        # Z carrying the path's own excursion signs satisfies Z*|X| = X on
        # the excursions and Z*X = |X| there; both are 0 on the mask
        p = path_from_values([0, 1, 2, 0, -1, 0])
        exc = decompose_excursions(p)
        own = np.array([[sign] for *_, sign in excursion_runs(exc.rows)], dtype=np.int8)
        z = build_sign_path(exc, own, AlphaSchedule.constant(0.5))
        covered = ~exc.zero_mask
        out_abs = apply_sign(z, p, mode="absolute")
        assert np.array_equal(out_abs.values[covered], p.values[covered])
        assert np.all(out_abs.values[~covered] == 0)
        out_signed = apply_sign(z, p, mode="signed")
        assert np.array_equal(out_signed.values[covered], np.abs(p.values)[covered])

    def test_absolute_value_invariance(self):
        # |Z^alpha X| and |X| agree off the zero mask for every alpha and seed
        for i, alpha in enumerate([0.2, 0.5, 0.9]):
            p = brownian(2**10, path_index=i, label="inv")
            exc = decompose_excursions(p)
            sched = AlphaSchedule.constant(alpha)
            z = build_sign_path(
                exc, assign_signs(exc, sched, SeedSpec(MASTER, "inv", i)), sched
            )
            out = apply_sign(z, p, mode="signed")
            covered = ~exc.zero_mask
            assert np.array_equal(np.abs(out.values[covered]), np.abs(p.values[covered]))

    def test_grid_mismatch_rejected(self, seed):
        p = brownian(2**8)
        q = brownian(2**9)
        z = build_sign_path(
            decompose_excursions(p),
            assign_signs(decompose_excursions(p), AlphaSchedule.constant(0.5), seed),
            AlphaSchedule.constant(0.5),
        )
        with pytest.raises(ValueError):
            apply_sign(z, q)

    def test_unknown_mode_rejected(self, seed):
        p = brownian(2**8)
        exc = decompose_excursions(p)
        z = build_sign_path(exc, assign_signs(exc, AlphaSchedule.constant(1.0), seed),
                            AlphaSchedule.constant(1.0))
        with pytest.raises(ValueError):
            apply_sign(z, p, mode="squared")
