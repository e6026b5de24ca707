"""Verification tests for hardness-weighted sampling.

Covers the closed-form sampling distribution, the Monte-Carlo law of the
draw stream, importance-weight clipping, the uniform (plain-SGD) limit,
determinism, state serialization round-trips, and properties of the sum tree
behind the draws at sizes that fill blocks partly and wholly.
"""

import json
import math

import numpy as np
import pytest

from drotrain.objectives import optimal_weights
from drotrain.sampler import HardnessWeightedSampler, SamplerConfig, UniformReplacementSampler
from oracles import lse_highprec


class TestConfigValidation:
    def test_defaults(self):
        cfg = SamplerConfig()
        assert cfg.beta == 100.0
        assert (cfg.w_min, cfg.w_max) == (0.1, 10.0)

    def test_bad_beta(self):
        for beta in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                SamplerConfig(beta=beta)

    def test_bad_clip_bounds(self):
        with pytest.raises(ValueError):
            SamplerConfig(w_min=0.0)
        with pytest.raises(ValueError):
            SamplerConfig(w_min=2.0, w_max=1.0)

    def test_non_finite_w_max(self):
        for w_max in (math.inf, math.nan):
            with pytest.raises(ValueError):
                SamplerConfig(w_max=w_max)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            HardnessWeightedSampler(0)


class TestStaleLossState:
    def test_fresh_state_is_uniform(self):
        s = HardnessWeightedSampler(5, SamplerConfig(init_loss=1.0), seed=0)
        np.testing.assert_array_equal(s.stale_losses, np.ones(5))
        np.testing.assert_array_equal(s.distribution(), np.full(5, 0.2))
        np.testing.assert_array_equal(s.draw_counts, np.zeros(5, dtype=np.int64))

    def test_singleton(self):
        s = HardnessWeightedSampler(1)
        np.testing.assert_array_equal(s.distribution(), [1.0])

    def test_point_update(self):
        s = HardnessWeightedSampler(3, SamplerConfig(init_loss=1.0))
        s.update_loss(2, 0.9)
        np.testing.assert_array_equal(s.stale_losses, [1.0, 1.0, 0.9])

    def test_overwrite_keeps_last(self):
        s = HardnessWeightedSampler(3)
        s.update_loss(1, 0.5)
        s.update_loss(1, 0.2)
        assert s.stale_losses[1] == 0.2
        s.update_losses([0, 0], [0.7, 0.4])
        assert s.stale_losses[0] == 0.4

    def test_out_of_range_index(self):
        s = HardnessWeightedSampler(3)
        with pytest.raises(ValueError):
            s.update_loss(3, 0.1)
        with pytest.raises(ValueError):
            s.update_loss(-1, 0.1)
        with pytest.raises(ValueError):
            s.update_losses([0, 5], [0.1, 0.2])

    def test_non_finite_loss_rejected(self):
        s = HardnessWeightedSampler(3)
        with pytest.raises(ValueError):
            s.update_loss(0, math.inf)

    def test_float_index_rejected(self):
        """A non-integer index is refused, not truncated onto another case."""
        s = HardnessWeightedSampler(3, SamplerConfig(init_loss=1.0))
        with pytest.raises(ValueError, match="integer"):
            s.update_loss(1.5, 0.2)
        with pytest.raises(ValueError, match="integer"):
            s.update_losses(np.array([0.0, 2.0]), [0.2, 0.3])
        np.testing.assert_array_equal(s.stale_losses, [1.0, 1.0, 1.0])

    @pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint8])
    def test_integer_index_arrays_accepted(self, dtype):
        s = HardnessWeightedSampler(3, SamplerConfig(init_loss=1.0))
        s.update_losses(np.array([2, 0], dtype=dtype), [0.2, 0.3])
        np.testing.assert_array_equal(s.stale_losses, [0.3, 1.0, 0.2])

    def test_point_updates_draw_like_batch_update(self):
        """update_loss one index at a time leaves the sampler drawing exactly
        as one update_losses call with the same entries does."""
        rng = np.random.default_rng(18)
        idx = rng.integers(0, 40, size=25)
        vals = rng.uniform(size=25)
        a = HardnessWeightedSampler(40, SamplerConfig(beta=30.0), seed=19)
        b = HardnessWeightedSampler(40, SamplerConfig(beta=30.0), seed=19)
        for i, v in zip(idx, vals):
            a.update_loss(int(i), float(v))
        b.update_losses(idx, vals)
        ia, wa = a.draw(64)
        ib, wb = b.draw(64)
        np.testing.assert_array_equal(ia, ib)
        np.testing.assert_array_equal(wa, wb)


class TestSamplingDistribution:
    def test_matches_closed_form_after_updates(self):
        """Once every entry is refreshed the distribution is exactly the
        softmax of beta-scaled stale losses."""
        rng = np.random.default_rng(7)
        s = HardnessWeightedSampler(20, SamplerConfig(beta=35.0), seed=1)
        losses = rng.uniform(size=20)
        s.update_losses(np.arange(20), losses)
        np.testing.assert_array_equal(s.distribution(), optimal_weights(losses, 35.0))

    def test_exact_two_point_value(self):
        beta = 50.0
        s = HardnessWeightedSampler(2, SamplerConfig(beta=beta))
        s.update_losses([0, 1], [0.0, math.log(3.0) / beta])
        np.testing.assert_allclose(s.distribution(), [0.25, 0.75], rtol=1e-12)

    def test_uniform_limit_small_beta(self):
        rng = np.random.default_rng(8)
        s = HardnessWeightedSampler(13, SamplerConfig(beta=1e-8), seed=2)
        s.update_losses(np.arange(13), rng.uniform(size=13))
        np.testing.assert_allclose(s.distribution(), np.full(13, 1 / 13), atol=1e-6 / 13)

    def test_monotone_in_stale_loss(self):
        rng = np.random.default_rng(9)
        s = HardnessWeightedSampler(15, SamplerConfig(beta=12.0))
        losses = rng.normal(size=15)
        s.update_losses(np.arange(15), losses)
        q = s.distribution()
        order = np.argsort(losses)
        assert np.all(np.diff(q[order]) >= 0)

    def test_shift_invariant(self):
        s1 = HardnessWeightedSampler(6, SamplerConfig(beta=40.0))
        s2 = HardnessWeightedSampler(6, SamplerConfig(beta=40.0))
        base = np.arange(6) / 8.0
        s1.update_losses(np.arange(6), base)
        s2.update_losses(np.arange(6), base + 3.25)
        np.testing.assert_array_equal(s1.distribution(), s2.distribution())


class TestDraw:
    def test_uniform_state_unit_weights(self):
        s = HardnessWeightedSampler(10, seed=3)
        _, weights = s.draw(64)
        np.testing.assert_array_equal(weights, np.ones(64))

    def test_counts_accumulate(self):
        s = HardnessWeightedSampler(4, seed=4)
        idx, _ = s.draw(100)
        counts = np.bincount(idx, minlength=4)
        np.testing.assert_array_equal(s.draw_counts, counts)

    def test_batch_size_validated(self):
        s = HardnessWeightedSampler(4)
        with pytest.raises(ValueError):
            s.draw(0)

    def test_empirical_frequencies_match_law(self):
        """2e5 draws from a frozen non-uniform state land within L-inf 0.01
        of the sampling distribution."""
        rng = np.random.default_rng(10)
        s = HardnessWeightedSampler(12, SamplerConfig(beta=3.0), seed=5)
        s.update_losses(np.arange(12), rng.uniform(0, 1, size=12))
        q = s.distribution()
        idx, _ = s.draw(200_000)
        freq = np.bincount(idx, minlength=12) / 200_000
        assert np.max(np.abs(freq - q)) < 0.01

    def test_dominant_entry_saturates(self):
        """A stale loss whose gap times beta is >= 20 wins nearly every draw
        and its importance weight hits the upper clip."""
        # n*q_i maxes out at n, so n must exceed w_max for the clip to bind.
        s = HardnessWeightedSampler(30, SamplerConfig(beta=100.0, init_loss=0.1), seed=6)
        s.update_loss(3, 0.4)  # gap 0.3, beta*gap = 30
        idx, weights = s.draw(5000)
        assert np.count_nonzero(idx == 3) / 5000 >= 0.99
        assert np.all(weights[idx == 3] == 10.0)

    def test_weights_always_clipped(self):
        rng = np.random.default_rng(11)
        s = HardnessWeightedSampler(30, SamplerConfig(beta=80.0, w_min=0.5, w_max=2.0), seed=7)
        for _ in range(10):
            s.update_losses(np.arange(30), rng.uniform(size=30))
            _, w = s.draw(256)
            assert np.all((w >= 0.5) & (w <= 2.0))

    def test_small_beta_weights_near_one(self):
        rng = np.random.default_rng(12)
        s = HardnessWeightedSampler(50, SamplerConfig(beta=1e-8), seed=8)
        s.update_losses(np.arange(50), rng.uniform(size=50))
        _, w = s.draw(1000)
        np.testing.assert_allclose(w, 1.0, atol=1e-6)

    def test_estimator_matches_closed_form(self):
        """Monte-Carlo mean of weight * g[index] over 1e6 draws equals
        sum_i clip(n q_i) q_i g_i: the (clipped, hence biased vs plain
        reweighting) estimator the sampler actually implements."""
        rng = np.random.default_rng(13)
        n = 10
        s = HardnessWeightedSampler(n, SamplerConfig(beta=4.0), seed=9)
        s.update_losses(np.arange(n), rng.uniform(size=n))
        g = rng.normal(size=n) + 2.0
        q = s.distribution()
        closed = float(np.sum(np.clip(n * q, 0.1, 10.0) * q * g))
        idx, w = s.draw(1_000_000)
        mc = float(np.mean(w * g[idx]))
        assert abs(mc - closed) / abs(closed) <= 1e-2


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = HardnessWeightedSampler(25, SamplerConfig(beta=9.0), seed=42)
        b = HardnessWeightedSampler(25, SamplerConfig(beta=9.0), seed=42)
        rng = np.random.default_rng(14)
        for _ in range(5):
            upd = rng.uniform(size=25)
            a.update_losses(np.arange(25), upd)
            b.update_losses(np.arange(25), upd)
            ia, wa = a.draw(17)
            ib, wb = b.draw(17)
            np.testing.assert_array_equal(ia, ib)
            np.testing.assert_array_equal(wa, wb)

    def test_state_roundtrip_continues_stream(self):
        """Serializing and restoring mid-stream reproduces the exact draws
        an uninterrupted sampler would have made."""
        a = HardnessWeightedSampler(12, SamplerConfig(beta=20.0), seed=15)
        a.update_losses(np.arange(12), np.linspace(0, 1, 12))
        a.draw(40)
        b = HardnessWeightedSampler.from_state_dict(a.state_dict())
        np.testing.assert_array_equal(a.stale_losses, b.stale_losses)
        np.testing.assert_array_equal(a.draw_counts, b.draw_counts)
        for _ in range(3):
            ia, wa = a.draw(9)
            ib, wb = b.draw(9)
            np.testing.assert_array_equal(ia, ib)
            np.testing.assert_array_equal(wa, wb)

    def test_state_dict_json_safe(self):
        s = HardnessWeightedSampler(5, seed=16)
        s.draw(10)
        restored = HardnessWeightedSampler.from_state_dict(json.loads(json.dumps(s.state_dict())))
        ia, _ = s.draw(8)
        ib, _ = restored.draw(8)
        np.testing.assert_array_equal(ia, ib)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("draw_counts", [0, 1, 2]),
            ("stale_losses", [0.1, math.nan, 0.3, 0.4]),
            ("stale_losses", [0.1, 0.2, math.inf, 0.4]),
            ("draw_counts", [0, -1, 2, 3]),
        ],
    )
    def test_corrupt_state_rejected(self, field, value):
        """Mismatched lengths, non-finite stale losses and negative counts
        are refused rather than built into the sampler."""
        state = HardnessWeightedSampler(4, seed=20).state_dict()
        state[field] = value
        with pytest.raises(ValueError):
            HardnessWeightedSampler.from_state_dict(state)


# Sizes below one block, at one block, one past it, and many blocks with a
# partial last one (blocks hold 16 leaves at these sizes).
TREE_SIZES = (1, 2, 15, 16, 17, 1000, 4097)


def _churned_sampler(n: int, seed: int) -> HardnessWeightedSampler:
    """A sampler after 300 random batch updates, with draws in between.

    Batches repeat indices (always for small n), so duplicate updates keep
    the last value; losses span a factor e**25 of sampling mass.
    """
    rng = np.random.default_rng([21, n])
    s = HardnessWeightedSampler(n, SamplerConfig(beta=100.0, w_min=1e-6, w_max=1e6), seed=seed)
    for _ in range(300):
        idx = rng.integers(0, n, size=8)
        s.update_losses(idx, rng.uniform(0.0, 0.25, size=8))
        s.draw(4)
    return s


class TestSumTreeProperties:
    @pytest.mark.parametrize("n", TREE_SIZES)
    def test_weights_match_high_precision_law(self, n):
        """Every drawn weight equals clip(n * q_i) with q_i from 50-digit
        log-sum-exp arithmetic, to 1e-12 relative."""
        s = _churned_sampler(n, seed=22)
        stale = s.stale_losses
        beta = s.config.beta
        lse = lse_highprec(stale, beta)
        expected = np.clip(n * np.exp(beta * (stale - lse)), s.config.w_min, s.config.w_max)
        idx, w = s.draw(4000)
        np.testing.assert_allclose(w, expected[idx], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("n", TREE_SIZES)
    def test_draw_law_matches_distribution(self, n):
        s = _churned_sampler(n, seed=23)
        q = s.distribution()
        idx, _ = s.draw(200_000)
        freq = np.bincount(idx, minlength=n) / 200_000
        assert np.max(np.abs(freq - q)) < 0.01

    @pytest.mark.parametrize("n", TREE_SIZES)
    def test_midstream_roundtrip_continues_stream(self, n):
        """A sampler rebuilt from a JSON snapshot taken mid-stream makes the
        same draws and weights as the original under the same updates."""
        a = _churned_sampler(n, seed=24)
        b = HardnessWeightedSampler.from_state_dict(json.loads(json.dumps(a.state_dict())))
        rng = np.random.default_rng([25, n])
        for _ in range(20):
            ia, wa = a.draw(16)
            ib, wb = b.draw(16)
            np.testing.assert_array_equal(ia, ib)
            np.testing.assert_array_equal(wa, wb)
            fresh = rng.uniform(0.0, 0.25, size=16)
            a.update_losses(ia, fresh)
            b.update_losses(ib, fresh)
        np.testing.assert_array_equal(a.draw_counts, b.draw_counts)


class TestUniformReference:
    def test_constant_stale_stream_equals_uniform_reference(self):
        """Before any loss update the hardness sampler is exactly uniform:
        its index stream is bit-identical to the uniform-with-replacement
        reference seeded the same way, for any beta."""
        for beta in (1e-8, 1.0, 100.0):
            h = HardnessWeightedSampler(33, SamplerConfig(beta=beta), seed=99)
            u = UniformReplacementSampler(33, seed=99)
            for _ in range(4):
                ih, _ = h.draw(50)
                iu, wu = u.draw(50)
                np.testing.assert_array_equal(ih, iu)
                np.testing.assert_array_equal(wu, np.ones(50))

    def test_uniform_reference_law(self):
        u = UniformReplacementSampler(9, seed=17)
        idx, _ = u.draw(90_000)
        freq = np.bincount(idx, minlength=9) / 90_000
        np.testing.assert_allclose(freq, 1 / 9, atol=0.01)


class TestStackedSampler:
    """A stack of M trees against M samplers built alone from the same seeds."""

    @pytest.mark.parametrize("n", [1, 31, 33, 1000])
    def test_stream_equals_single_samplers(self, n):
        """Draws through the unstacked trees, weights, stale losses and
        counts match bit for bit over a stream of draws and stacked updates,
        duplicate indices included."""
        seeds = [3, 4, 5]
        config = SamplerConfig(beta=50.0, w_min=0.05, w_max=20.0, init_loss=2.0)
        stack = HardnessWeightedSampler.stacked([n] * len(seeds), config, seeds)
        trees = stack.unstack()
        singles = [HardnessWeightedSampler(n, config, seed=seed) for seed in seeds]
        rng = np.random.default_rng([22, n])
        for _ in range(40):
            drawn = [tree.draw(8) for tree in trees]
            idx = np.stack([i for i, _ in drawn])
            for k, single in enumerate(singles):
                ik, wk = single.draw(8)
                np.testing.assert_array_equal(idx[k], ik)
                np.testing.assert_array_equal(drawn[k][1], wk)
            losses = rng.uniform(0.0, 2.0, size=(3, 8))
            stack.update_losses(idx, losses)
            for k, single in enumerate(singles):
                single.update_losses(idx[k], losses[k])
        np.testing.assert_array_equal(stack.stale_losses, np.stack([s.stale_losses for s in singles]))
        np.testing.assert_array_equal(stack.draw_counts, np.stack([s.draw_counts for s in singles]))
        for k, (part, single) in enumerate(zip(stack.unstack(), singles)):
            assert part.state_dict() == single.state_dict()
            np.testing.assert_array_equal(stack.distribution()[k], single.distribution())

    def test_counts_cover_every_tree_and_case(self):
        stack = HardnessWeightedSampler.stacked([10, 10], None, [0, 1])
        for tree in stack.unstack():
            tree.draw(4)
        assert stack.n == 20
        assert stack.draw_counts.shape == (2, 10)
        assert stack.draw_counts.sum() == 8

    def test_unstack_views_the_stack(self):
        """Trees split off a stack share its arrays rather than copying them."""
        stack = HardnessWeightedSampler.stacked([40, 40], None, [0, 1])
        _, second = stack.unstack()
        second.update_loss(3, 0.25)
        second.draw(5)
        assert stack.stale_losses[1, 3] == 0.25
        assert stack.draw_counts[1].sum() == 5

    def test_update_needs_one_row_per_tree(self):
        stack = HardnessWeightedSampler.stacked([10, 10], None, [0, 1])
        with pytest.raises(ValueError, match="row"):
            stack.update_losses([1, 2], [0.1, 0.2])
        with pytest.raises(ValueError, match="update_losses"):
            stack.update_loss(15, 0.1)
        with pytest.raises(ValueError, match="out of range"):
            stack.update_losses([[1], [10]], [[0.1], [0.2]])
        with pytest.raises(ValueError):
            stack.state_dict()

    def test_stack_draws_only_through_its_trees(self):
        stack = HardnessWeightedSampler.stacked([10, 10], None, [0, 1])
        with pytest.raises(ValueError, match="unstack"):
            stack.draw(4)
        assert stack.draw_counts.sum() == 0

    @pytest.mark.parametrize("sizes", [(47, 48, 48), (1000, 993)])
    def test_ragged_stack_equals_single_samplers(self, sizes):
        """Trees of one shape but unequal sizes: each draws, weighs, counts
        and saves exactly as a sampler built alone on its own size."""
        seeds = list(range(7, 7 + len(sizes)))
        config = SamplerConfig(beta=50.0, w_min=0.05, w_max=20.0, init_loss=2.0)
        stack = HardnessWeightedSampler.stacked(sizes, config, seeds)
        trees = stack.unstack()
        singles = [HardnessWeightedSampler(n, config, seed=seed) for n, seed in zip(sizes, seeds)]
        rng = np.random.default_rng(list(sizes))
        for _ in range(40):
            drawn = [tree.draw(8) for tree in trees]
            idx = np.stack([i for i, _ in drawn])
            losses = rng.uniform(0.0, 2.0, size=idx.shape)
            for k, single in enumerate(singles):
                ik, wk = single.draw(8)
                np.testing.assert_array_equal(idx[k], ik)
                np.testing.assert_array_equal(drawn[k][1], wk)
                single.update_losses(ik, losses[k])
            stack.update_losses(idx, losses)
        assert stack.n == sum(sizes)
        for k, (tree, single) in enumerate(zip(stack.unstack(), singles)):
            assert tree.n == single.n == sizes[k]
            assert tree.state_dict() == single.state_dict()
            np.testing.assert_array_equal(tree.draw_counts, single.draw_counts)
            np.testing.assert_array_equal(stack.draw_counts[k, : sizes[k]], single.draw_counts)
            np.testing.assert_array_equal(stack.distribution()[k, : sizes[k]], single.distribution())
            assert not stack.draw_counts[k, sizes[k] :].any()
            assert not stack.distribution()[k, sizes[k] :].any()

    def test_ragged_stack_checks_each_trees_range(self):
        stack = HardnessWeightedSampler.stacked([47, 48], None, [0, 1])
        stack.update_losses([[46], [47]], [[0.1], [0.2]])
        with pytest.raises(ValueError, match="out of range"):
            stack.update_losses([[47], [0]], [[0.1], [0.2]])
        with pytest.raises(ValueError, match="out of range"):
            stack.unstack()[0].update_loss(47, 0.1)

    def test_stack_needs_one_tree_shape_and_one_size_per_seed(self):
        with pytest.raises(ValueError, match="shape"):
            HardnessWeightedSampler.stacked([32, 33], None, [0, 1])
        with pytest.raises(ValueError, match="one size per seed"):
            HardnessWeightedSampler.stacked([32], None, [0, 1])
