"""Excursion decomposition against brute-force scans and spec'd conventions."""

import numpy as np
import pytest

from skewlab.excursion import decompose_excursions, dilate, last_zero_curve
from skewlab.grid_paths import SeedSpec, make_grid, refine_bridge, sample_brownian

from conftest import MASTER, brownian, excursion_runs, path_from_values


def brute_force_runs(values):
    """Independent reference scan: maximal runs of constant nonzero sign.

    Returns a list of (first_covered, last_covered, sign) index triples.
    """
    runs = []
    cur_sign = 0
    start = None
    for i, v in enumerate(values):
        s = 0 if v == 0 else (1 if v > 0 else -1)
        if s != cur_sign:
            if cur_sign != 0:
                runs.append((start, i - 1, cur_sign))
            start = i if s != 0 else None
            cur_sign = s
    if cur_sign != 0:
        runs.append((start, len(values) - 1, cur_sign))
    return runs


def brute_force_gamma(event_flags):
    out = []
    last = 0
    for i, f in enumerate(event_flags):
        if f:
            last = i
        out.append(last)
    return np.asarray(out)


class TestDecomposeExamples:
    def test_exact_zero_boundaries(self):
        exc = decompose_excursions(path_from_values([0, 1, 2, 0, -1, 0]))
        assert excursion_runs(exc.rows) == [(0, 1, 2, 1), (3, 4, 4, -1)]
        assert list(np.flatnonzero(exc.zero_mask)) == [0, 3, 5]
        assert list(np.flatnonzero(exc.zero_events)) == [0, 3, 5]

    def test_all_positive_single_interval(self):
        exc = decompose_excursions(path_from_values([1.0, 2.0, 0.5, 3.0]))
        assert excursion_runs(exc.rows) == [(0, 0, 3, 1)]
        assert not exc.zero_mask.any()
        assert not exc.zero_events.any()

    def test_everywhere_zero(self):
        exc = decompose_excursions(path_from_values([0.0, 0.0, 0.0]))
        assert exc.n_excursions == 0 and excursion_runs(exc.rows) == []
        assert exc.zero_mask.all()

    def test_strict_sign_change_boundary(self):
        # crossing between 0 and 1: neither endpoint masked, event at entry
        exc = decompose_excursions(path_from_values([1.0, -1.0]))
        assert excursion_runs(exc.rows) == [(0, 0, 0, 1), (1, 1, 1, -1)]
        assert not exc.zero_mask.any()
        assert list(np.flatnonzero(exc.zero_events)) == [1]

    def test_snap_tolerance(self):
        vals = [0.5, 1e-12, -0.5]
        no_snap = decompose_excursions(path_from_values(vals))
        assert excursion_runs(no_snap.rows) == [(0, 0, 1, 1), (2, 2, 2, -1)]
        snapped = decompose_excursions(path_from_values(vals), snap_tol=1e-9)
        assert excursion_runs(snapped.rows) == [(0, 0, 0, 1), (1, 2, 2, -1)]
        assert list(np.flatnonzero(snapped.zero_mask)) == [1]

    def test_leading_and_trailing_zeros(self):
        exc = decompose_excursions(path_from_values([0, 0, 2, 0, 0]))
        assert excursion_runs(exc.rows) == [(1, 2, 2, 1)]

    def test_incomplete_final_excursion(self):
        exc = decompose_excursions(path_from_values([0, 1, 1]))
        assert excursion_runs(exc.rows) == [(0, 1, 2, 1)]


class TestDecomposeBrownian:
    def test_matches_brute_force_scan(self):
        p = brownian(2**12, label="exc")
        exc = decompose_excursions(p)
        runs = brute_force_runs(p.values)
        assert exc.n_excursions == len(runs)
        at_zero = [s0 > 0 and p.values[s0 - 1] == 0 for s0, _, _ in runs]
        assert excursion_runs(exc.rows) == [
            (s0 - z, s0, s1, sg) for (s0, s1, sg), z in zip(runs, at_zero)
        ]

    def test_reconstruction_partition(self):
        # every index is masked xor covered by exactly one excursion
        for i in range(4):
            p = brownian(2**10, path_index=i, label="exc")
            exc = decompose_excursions(p)
            cover = np.zeros(len(p.values), dtype=int)
            for _, lo, hi, _ in excursion_runs(exc.rows):
                cover[lo : hi + 1] += 1
            assert np.array_equal(cover, (~exc.zero_mask).astype(int))

    def test_constant_sign_on_interiors(self):
        p = brownian(2**12, path_index=5, label="exc")
        exc = decompose_excursions(p)
        for _, lo, hi, sign in excursion_runs(exc.rows):
            assert np.all(np.sign(p.values[lo : hi + 1]) == sign)

    def test_mesh_stability_of_boundaries(self):
        # max over excursions of min(|X| at the birth, |X| at the last
        # covered index) shrinks as the grid refines
        medians = []
        for n in (2**12, 2**14, 2**16):
            gaps = []
            for i in range(32):
                s = SeedSpec(MASTER, "mesh", i)
                p = sample_brownian(make_grid(1.0, 2**12), s)
                p = refine_bridge(p, n // 2**12, s)
                exc = decompose_excursions(p)
                if exc.n_excursions < 2:
                    continue
                x = np.abs(p.values)
                worst = max(min(x[g], x[d]) for g, _, d, _ in excursion_runs(exc.rows))
                gaps.append(worst)
            medians.append(np.median(gaps))
        assert medians[0] > medians[1] > medians[2]


class TestLastZeroCurve:
    def test_mask_example(self):
        exc = decompose_excursions(path_from_values([0, 1, 2, 0, -1, 0]))
        gamma, gbar = last_zero_curve(exc)
        assert list(gamma) == [0, 0, 0, 3, 3, 5]
        assert gbar == 5

    def test_empty_mask_convention(self):
        exc = decompose_excursions(path_from_values([1.0, 2.0, 3.0]))
        gamma, gbar = last_zero_curve(exc)
        assert np.all(gamma == 0)
        assert gbar == 0

    def test_crossing_event_advances_gamma(self):
        exc = decompose_excursions(path_from_values([1.0, -1.0, -2.0]))
        gamma, gbar = last_zero_curve(exc)
        assert list(gamma) == [0, 1, 1]
        assert gbar == 1

    def test_matches_brute_force_on_random_masks(self):
        rng = np.random.default_rng(MASTER)
        for _ in range(5):
            vals = rng.standard_normal(2**10)
            vals[rng.random(2**10) < 0.3] = 0.0
            exc = decompose_excursions(path_from_values(vals))
            gamma, gbar = last_zero_curve(exc)
            expected = brute_force_gamma(exc.zero_events)
            assert np.array_equal(gamma, expected)
            assert gbar == expected[-1]

    def test_gamma_idempotent_and_monotone(self):
        for i in range(8):
            exc = decompose_excursions(brownian(2**10, path_index=i, label="gam"))
            g, _ = last_zero_curve(exc)
            assert np.all(np.diff(g) >= 0)
            assert np.all(g <= np.arange(len(g)))
            assert np.array_equal(g[g], g)


class TestDilate:
    def test_dilate(self):
        exc = decompose_excursions(path_from_values([1, 1, 0, 1, 1, 1]))
        d = dilate(exc.zero_mask, 1)
        assert list(np.flatnonzero(d)) == [1, 2, 3]
        assert list(np.flatnonzero(exc.zero_mask)) == [2]

    @pytest.mark.parametrize("radius", [0, 1, 2, 5])
    def test_block_dilates_row_by_row(self, radius):
        # a (rows, n) block dilates along its last axis only: rows never mix
        flags = np.random.default_rng(MASTER).random((6, 40)) < 0.08
        flags[0] = False
        flags[1, [0, -1]] = True
        block = dilate(flags, radius)
        assert block.shape == flags.shape
        for r in range(len(flags)):
            assert np.array_equal(block[r], dilate(flags[r], radius))
            near = [flags[r, max(j - radius, 0) : j + radius + 1].any() for j in range(40)]
            assert np.array_equal(block[r], near)
