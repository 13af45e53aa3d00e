"""Grid construction, seeded sampling, pair independence, bridge refinement."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

from skewlab.grid_paths import (
    SamplePath,
    SeedSpec,
    _draw_streams,
    _label_digest,
    make_grid,
    refine_bridge,
    sample_brownian,
    stream_states,
)
from skewlab.localtime import quadratic_covariation

from conftest import MASTER, independent_pair


class TestMakeGrid:
    def test_uniform_times(self):
        g = make_grid(1.0, 4)
        assert np.array_equal(g.times, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert g.dt == 0.25

    def test_single_step(self):
        g = make_grid(2.0, 1)
        assert np.array_equal(g.times, [0.0, 2.0])

    @pytest.mark.parametrize("horizon,n", [(1.0, 0), (0.0, 4), (-1.0, 4)])
    def test_invalid_arguments(self, horizon, n):
        with pytest.raises(ValueError):
            make_grid(horizon, n)

    def test_spacing_constant_within_rounding(self):
        g = make_grid(1.0, 3)  # 1/3 is not representable
        d = np.diff(g.times)
        assert np.all(np.abs(d - g.dt) <= np.finfo(float).eps * 2)


class TestSeedSpec:
    def test_child_and_path_addressing(self):
        s = SeedSpec(7)
        assert s.child("a").stream_label == "a"
        assert s.child("a").child("b").stream_label == "a/b"
        # a tag containing "/" addresses the same stream as nested children
        assert np.array_equal(
            s.child("a/b").rng().random(4), s.child("a").child("b").rng().random(4)
        )
        assert s.with_path(3).path_index == 3

    def test_distinct_triples_distinct_streams(self):
        base = SeedSpec(7, "x", 0)
        draws = {
            name: spec.rng().uniform(size=4).tobytes()
            for name, spec in [
                ("base", base),
                ("other_master", SeedSpec(8, "x", 0)),
                ("other_label", SeedSpec(7, "y", 0)),
                ("other_path", base.with_path(1)),
            ]
        }
        assert len(set(draws.values())) == 4

    def test_label_digests_pinned(self):
        # the digest is part of every stream's address; memoizing it must not
        # change it
        assert _label_digest("") == 13020603013274838756
        assert _label_digest("skew_law/walk") == 10980857809760498300
        assert _label_digest("skew_law/walk") == 10980857809760498300

    def test_stream_stable_across_generator_instances(self):
        s = SeedSpec(7, "x", 5)
        assert np.array_equal(s.rng().uniform(size=8), s.rng().uniform(size=8))


MASTERS = st.one_of(st.just(0), st.integers(1, 2**32 - 1), st.integers(2**32, 2**80))
LABELS = st.one_of(
    st.sampled_from(["", "skew_law/walk", "bulk/signs/0/1", "αβ/γ", "路径"]), st.text()
)
INDICES = st.one_of(
    st.sampled_from([0, 2**32 - 1, 2**32]), st.integers(0, 2**32 - 1), st.integers(2**32, 2**80)
)


def pcg64_state(seed):
    state = seed.rng().bit_generator.state["state"]
    return state["state"], state["inc"]


class TestStreamStates:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(MASTERS, LABELS, INDICES), min_size=1, max_size=6))
    @example([(0, "", 0), (2**32 - 1, "αβ/γ", 2**32 - 1), (2**32, "skew_law/walk", 2**32)])
    @example([(7, "x", 2**64), (2**64 - 1, "", 1), (2**64, "", 0)])
    def test_block_equals_rng(self, triples):
        # a block mixes rows of different entropy lengths (3 to 9 words)
        seeds = [SeedSpec(*t) for t in triples]
        states = stream_states(seeds)
        assert states == [pcg64_state(s) for s in seeds]

        def draw(rng, seed):
            ref = seed.rng()
            assert np.array_equal(rng.random(3), ref.random(3))
            assert np.array_equal(rng.standard_normal(3), ref.standard_normal(3))
            return seed

        assert _draw_streams(states, draw, seeds) == seeds

    @pytest.mark.parametrize("n", [0, 1, 2, 49])
    def test_draw_streams_equal_rng(self, n):
        seeds = [SeedSpec(MASTER, "rows", 2**31 + 7 * k) for k in range(n)]
        draws = _draw_streams(stream_states(seeds), lambda rng, k: (k, rng.random(5)), range(n))
        assert [k for k, _ in draws] == list(range(n))
        for (_, got), seed in zip(draws, seeds):
            assert np.array_equal(got, seed.rng().random(5))

    def test_draw_streams_needs_one_row_per_state(self):
        states = stream_states([SeedSpec(MASTER, "rows", k) for k in range(3)])
        with pytest.raises(ValueError):
            _draw_streams(states, lambda rng, row: None, range(2))

    @pytest.mark.parametrize(
        "seed", [SeedSpec(-1), SeedSpec(-(2**40), "x", 3), SeedSpec(5, "x", -1)]
    )
    def test_negative_entropy_rejected_like_seed_sequence(self, seed):
        with pytest.raises(ValueError):
            seed.rng()
        with pytest.raises(ValueError):
            stream_states([SeedSpec(1, "ok", 0), seed])


class TestSamplePath:
    def test_values_are_read_only(self):
        values = np.linspace(0.0, 1.0, 5)
        p = SamplePath(make_grid(1.0, 4), values)
        with pytest.raises(ValueError):
            p.values[0] = 7.0
        assert p.values[0] == 0.0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            SamplePath(make_grid(1.0, 2), np.array([0.0, np.nan, 1.0]))


class TestSampleBrownian:
    def test_initial_condition(self):
        p = sample_brownian(make_grid(1.0, 16), SeedSpec(1), x0=5.0)
        assert p.values[0] == 5.0

    def test_determinism(self):
        g = make_grid(1.0, 64)
        a = sample_brownian(g, SeedSpec(MASTER, "d"), 0.5)
        b = sample_brownian(g, SeedSpec(MASTER, "d"), 0.5)
        assert np.array_equal(a.values, b.values)

    def test_terminal_variance(self):
        # terminal value is N(0,1) exactly; chi-square band for 10^4 samples
        g = make_grid(1.0, 2**12)
        s = SeedSpec(MASTER, "var")
        terminals = np.array(
            [sample_brownian(g, s.with_path(i)).values[-1] for i in range(10_000)]
        )
        assert 0.97 <= terminals.var(ddof=1) <= 1.03

    def test_standardized_increments_gaussian(self):
        # pooled increments across paths, KS against N(0,1) at the 1% level
        g = make_grid(1.0, 2**12)
        s = SeedSpec(MASTER, "ks")
        incr = np.concatenate(
            [np.diff(sample_brownian(g, s.with_path(i)).values) for i in range(25)]
        )
        z = incr / np.sqrt(g.dt)
        assert kstest(z, "norm").pvalue > 0.01


class TestIndependentPair:
    def test_determinism(self, grid12, seed):
        a1, b1 = independent_pair(grid12, seed)
        a2, b2 = independent_pair(grid12, seed)
        assert np.array_equal(a1.values, a2.values)
        assert np.array_equal(b1.values, b2.values)

    def test_components_are_derived_sublabels(self, grid12, seed):
        # each child label is a stream of its own: neither component repeats
        # the other or the parent stream's path
        a, b = independent_pair(grid12, seed)
        parent = sample_brownian(grid12, seed).values
        assert not np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, parent)
        assert not np.array_equal(b.values, parent)

    def test_zero_covariation(self):
        # covariation of independent BMs vanishes; median over 32 seeds
        g = make_grid(1.0, 2**16)
        vals = []
        for i in range(32):
            a, b = independent_pair(g, SeedSpec(MASTER, "cov", i))
            vals.append(quadratic_covariation(a, b).values[-1])
        assert np.median(np.abs(vals)) < 0.05


class TestRefineBridge:
    def test_factor_one_is_identity(self, seed):
        p = sample_brownian(make_grid(1.0, 32), seed)
        assert refine_bridge(p, 1, seed) is p or np.array_equal(
            refine_bridge(p, 1, seed).values, p.values
        )

    def test_coarse_points_kept_exactly(self, seed):
        p = sample_brownian(make_grid(1.0, 64), seed)
        r = refine_bridge(p, 2, seed)
        assert r.grid.n_steps == 128
        assert np.array_equal(r.values[0::2], p.values)

    def test_iterated_equals_one_shot(self, seed):
        p = sample_brownian(make_grid(1.0, 32), seed)
        two_step = refine_bridge(refine_bridge(p, 2, seed), 2, seed)
        one_shot = refine_bridge(p, 4, seed)
        assert np.array_equal(two_step.values, one_shot.values)

    @pytest.mark.parametrize("factor", [0, 3, 6])
    def test_non_power_of_two_rejected(self, seed, factor):
        p = sample_brownian(make_grid(1.0, 8), seed)
        with pytest.raises(ValueError):
            refine_bridge(p, factor, seed)

    def test_refined_terminal_variance(self):
        # refinement preserves the path law; same chi-square oracle as above
        g = make_grid(1.0, 256)
        s = SeedSpec(MASTER, "rvar")
        terminals = np.array(
            [
                refine_bridge(sample_brownian(g, s.with_path(i)), 4, s.with_path(i))
                .values[-1]
                for i in range(10_000)
            ]
        )
        assert 0.97 <= terminals.var(ddof=1) <= 1.03

    def test_midpoint_conditional_law(self):
        # inserted point minus knot average is N(0, h/4) for knot spacing h
        g = make_grid(1.0, 8)
        s = SeedSpec(MASTER, "bridge-law")
        resid = []
        for i in range(4000):
            p = sample_brownian(g, s.with_path(i))
            r = refine_bridge(p, 2, s.with_path(i))
            resid.extend(r.values[1::2] - 0.5 * (p.values[:-1] + p.values[1:]))
        z = np.asarray(resid) / np.sqrt(g.dt / 4.0)
        assert 0.97 <= z.var(ddof=1) <= 1.03
        assert kstest(z, "norm").pvalue > 0.01

    def test_interior_marginal_variance(self):
        # law at an inserted time tau is N(0, tau)
        g = make_grid(1.0, 4)
        s = SeedSpec(MASTER, "mid")
        tau_idx = 1  # t = 1/8 on the refined grid
        vals = np.array(
            [
                refine_bridge(sample_brownian(g, s.with_path(i)), 2, s.with_path(i))
                .values[tau_idx]
                for i in range(10_000)
            ]
        )
        assert 0.97 <= vals.var(ddof=1) / 0.125 <= 1.03
