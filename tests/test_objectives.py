"""Verification tests for the robust risk objectives.

Each test class covers one operation or identity: exact values where the
arithmetic is closed-form, independent oracles (high-precision summation,
exhaustive simplex grid search, plain sort-and-index) where it is not.
"""

import math

import numpy as np
import pytest

from drotrain.objectives import (
    RobustConfig,
    chernoff_percentile_bound,
    dro_inner_objective,
    empirical_percentile,
    kl_divergence,
    lse_robust_loss,
    optimal_weights,
)

from oracles import (
    grid_search_maximizer,
    lse_highprec,
    neg_entropy,
    percentile_sort_oracle,
    simplex_grid,
)


class TestValidation:
    """Invalid inputs are rejected loudly, never silently coerced."""

    def test_empty_losses_rejected(self):
        for fn in (lambda v: lse_robust_loss(v, 1.0), lambda v: optimal_weights(v, 1.0)):
            with pytest.raises(ValueError):
                fn([])

    def test_non_finite_losses_rejected(self):
        for bad in ([1.0, math.nan], [1.0, math.inf]):
            with pytest.raises(ValueError):
                lse_robust_loss(bad, 1.0)

    def test_bad_beta_rejected(self):
        for beta in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                lse_robust_loss([1.0], beta)
            with pytest.raises(ValueError):
                optimal_weights([1.0], beta)

    def test_config_bounds(self):
        with pytest.raises(ValueError):
            RobustConfig(beta=-1.0, alpha=0.5)
        with pytest.raises(ValueError):
            RobustConfig(beta=1.0, alpha=0.0)
        with pytest.raises(ValueError):
            RobustConfig(beta=1.0, alpha=1.5)
        assert RobustConfig(beta=1.0, alpha=1.0).alpha == 1.0

    def test_weight_vector_checked(self):
        with pytest.raises(ValueError):
            dro_inner_objective([1.0, 2.0], [0.7, 0.7], 1.0)
        with pytest.raises(ValueError):
            dro_inner_objective([1.0, 2.0], [-0.1, 1.1], 1.0)
        with pytest.raises(ValueError):
            dro_inner_objective([1.0, 2.0], [1.0], 1.0)


class TestEmpiricalPercentile:
    """Nearest-rank convention: k-th smallest with k = max(1, ceil(alpha*n))."""

    def test_uniform_grid(self):
        scores = list(range(1, 101))
        assert empirical_percentile(scores, 0.05) == 5.0
        assert empirical_percentile(scores, 0.10) == 10.0
        assert empirical_percentile(scores, 0.25) == 25.0
        assert empirical_percentile(scores, 0.50) == 50.0

    def test_single_element(self):
        for alpha in (0.01, 0.5, 1.0):
            assert empirical_percentile([7.0], alpha) == 7.0

    def test_rank_rounds_up(self):
        # k = ceil(0.5 * 3) = 2, second smallest of [0.1, 0.2, 0.3].
        assert empirical_percentile([0.3, 0.1, 0.2], 0.5) == 0.2

    def test_rank_floor_is_one(self):
        # Tiny alpha still selects the minimum, never an empty rank.
        assert empirical_percentile([5.0, 1.0, 3.0], 1e-9) == 1.0

    def test_permutation_invariant(self):
        rng = np.random.default_rng(11)
        scores = rng.uniform(size=37)
        base = empirical_percentile(scores, 0.1)
        for _ in range(20):
            assert empirical_percentile(rng.permutation(scores), 0.1) == base

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(12)
        scores = rng.uniform(size=53)
        alphas = np.linspace(0.01, 1.0, 40)
        values = [empirical_percentile(scores, a) for a in alphas]
        assert all(lo <= hi for lo, hi in zip(values, values[1:]))

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = int(rng.integers(1, 60))
            scores = rng.normal(size=n)
            alpha = float(rng.uniform(0.01, 1.0))
            assert empirical_percentile(scores, alpha) == percentile_sort_oracle(scores, alpha)

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            empirical_percentile([1.0], 0.0)
        with pytest.raises(ValueError):
            empirical_percentile([1.0], 1.01)


class TestLseRobustLoss:
    """The soft maximum: between max(L) and max(L) + log(n)/beta."""

    def test_equal_losses_closed_form(self):
        for n in (1, 2, 7):
            for beta in (0.5, 1.0, 100.0):
                value = lse_robust_loss([0.8] * n, beta)
                np.testing.assert_allclose(value, 0.8 + math.log(n) / beta, rtol=1e-14)

    def test_exact_two_point_value(self):
        # exp(0) + exp(ln 3) = 4.
        np.testing.assert_allclose(lse_robust_loss([0.0, math.log(3.0)], 1.0), math.log(4.0), rtol=1e-15)

    def test_single_element_is_identity(self):
        assert lse_robust_loss([3.7], 123.4) == 3.7

    def test_sandwich_bounds(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            n = int(rng.integers(1, 80))
            losses = rng.uniform(0, 10, size=n)
            beta = float(rng.uniform(0.05, 150.0))
            value = lse_robust_loss(losses, beta)
            assert losses.max() <= value <= losses.max() + math.log(n) / beta + 1e-12

    def test_high_beta_no_overflow(self):
        # beta=100 with losses near 10 would overflow a naive exp-sum.
        rng = np.random.default_rng(22)
        losses = rng.uniform(0, 10, size=50)
        value = lse_robust_loss(losses, 100.0)
        assert math.isfinite(value)
        assert losses.max() <= value <= losses.max() + math.log(50) / 100.0

    def test_matches_high_precision_oracle(self):
        rng = np.random.default_rng(23)
        for beta in (1.0, 10.0, 100.0):
            for _ in range(20):
                losses = rng.uniform(0, 10, size=50)
                np.testing.assert_allclose(
                    lse_robust_loss(losses, beta), lse_highprec(losses, beta), atol=1e-9, rtol=0
                )

    def test_additive_shift(self):
        rng = np.random.default_rng(24)
        losses = rng.uniform(size=30)
        for c in (-5.0, 0.25, 11.0):
            np.testing.assert_allclose(
                lse_robust_loss(losses + c, 7.0), lse_robust_loss(losses, 7.0) + c, atol=1e-12
            )

    def test_monotone_in_beta(self):
        """Raising beta tightens the relaxation from above toward max(L).

        The unnormalized form is non-increasing in beta (its slack band
        max + log(n)/beta shrinks), while the normalized soft-mean
        lse - log(n)/beta is non-decreasing by the power-mean inequality.
        """
        rng = np.random.default_rng(25)
        losses = rng.uniform(size=40)
        betas = [0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 100.0]
        values = [lse_robust_loss(losses, b) for b in betas]
        assert all(b - a <= 1e-12 for a, b in zip(values, values[1:]))
        means = [v - math.log(losses.size) / b for v, b in zip(values, betas)]
        assert all(b - a >= -1e-12 for a, b in zip(means, means[1:]))

    def test_large_beta_approaches_max(self):
        # With entries separated by >= 0.01, beta=1e4 collapses to the max.
        losses = np.array([0.10, 0.25, 0.50, 0.81, 0.99])
        assert abs(lse_robust_loss(losses, 1e4) - losses.max()) < 1e-3


class TestChernoffPercentileBound:
    """The tractable percentile upper bound and its coverage guarantee."""

    def test_single_sample_alpha_one_is_tight(self):
        assert chernoff_percentile_bound([2.5], RobustConfig(beta=3.0, alpha=1.0)) == 2.5

    def test_equal_losses_closed_form(self):
        for n, beta, alpha in ((4, 2.0, 0.25), (10, 100.0, 0.05)):
            value = chernoff_percentile_bound([0.3] * n, RobustConfig(beta=beta, alpha=alpha))
            np.testing.assert_allclose(value, 0.3 + math.log(1.0 / alpha) / beta, rtol=1e-12)

    def test_coverage_never_violated(self):
        """At most an alpha-fraction of losses can sit at or above the bound."""
        rng = np.random.default_rng(31)
        for _ in range(100):
            losses = rng.uniform(0, 1, size=50)
            for beta in (1.0, 10.0, 100.0):
                for alpha in (0.05, 0.1, 0.25):
                    bound = chernoff_percentile_bound(losses, RobustConfig(beta=beta, alpha=alpha))
                    assert np.count_nonzero(losses >= bound) / losses.size <= alpha

    def test_decreasing_in_alpha(self):
        rng = np.random.default_rng(32)
        losses = rng.uniform(size=60)
        b1 = chernoff_percentile_bound(losses, RobustConfig(beta=10.0, alpha=0.05))
        b2 = chernoff_percentile_bound(losses, RobustConfig(beta=10.0, alpha=0.25))
        assert b1 >= b2


class TestOptimalWeights:
    """The closed-form adversary: softmax of beta-scaled losses."""

    def test_equal_losses_uniform(self):
        np.testing.assert_array_equal(optimal_weights([0.4, 0.4, 0.4], 50.0), np.full(3, 1 / 3))

    def test_exact_two_point_value(self):
        np.testing.assert_allclose(
            optimal_weights([0.0, math.log(3.0)], 1.0), [0.25, 0.75], rtol=1e-14
        )

    def test_simplex_membership(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            q = optimal_weights(rng.normal(size=int(rng.integers(1, 40))), float(rng.uniform(0.1, 120)))
            assert np.all(q >= 0)
            np.testing.assert_allclose(q.sum(), 1.0, atol=1e-12)

    def test_order_preserving(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            losses = rng.normal(size=10)
            q = optimal_weights(losses, 5.0)
            order = np.argsort(losses)
            assert np.all(np.diff(q[order]) >= 0)

    def test_shift_invariance_bit_exact(self):
        """Shifting all losses by a representable constant changes nothing.

        Max-subtraction computes exp on the differences L_i - max(L), which
        are bit-identical before and after the shift whenever the inputs are
        dyadic rationals on a shared grid (here k/256).
        """
        rng = np.random.default_rng(43)
        for _ in range(50):
            losses = rng.integers(0, 512, size=12) / 256.0
            c = float(rng.integers(-256, 256)) / 256.0
            beta = float(rng.uniform(0.1, 100.0))
            np.testing.assert_array_equal(
                optimal_weights(losses + c, beta), optimal_weights(losses, beta)
            )

    def test_matches_grid_search_maximizer(self):
        """The closed form agrees with exhaustive search over the 3-simplex."""
        Q = simplex_grid(1e-3)
        neg_ent = neg_entropy(Q)
        q_star = optimal_weights([0.2, 0.9, 0.5], 10.0)
        q_grid = grid_search_maximizer([0.2, 0.9, 0.5], 10.0, Q, neg_ent)
        assert np.max(np.abs(q_star - q_grid)) <= 2e-3

    def test_beats_random_simplex_points(self):
        """No random point achieves a higher inner objective than q*."""
        rng = np.random.default_rng(44)
        losses = rng.uniform(0, 2, size=6)
        beta = 4.0
        best = dro_inner_objective(losses, optimal_weights(losses, beta), beta)
        candidates = rng.dirichlet(np.ones(6), size=10_000)
        for q in candidates:
            assert dro_inner_objective(losses, q, beta) <= best + 1e-12


class TestKlDivergence:
    def test_identical_is_zero(self):
        u = np.full(5, 0.2)
        assert kl_divergence(u, u) == 0.0

    def test_one_hot_against_uniform(self):
        np.testing.assert_allclose(
            kl_divergence([0.0, 0.0, 1.0, 0.0], np.full(4, 0.25)), math.log(4.0), rtol=1e-15
        )

    def test_exact_two_point_value(self):
        expected = 0.25 * math.log(0.5) + 0.75 * math.log(1.5)
        np.testing.assert_allclose(kl_divergence([0.25, 0.75], [0.5, 0.5]), expected, rtol=1e-15)

    def test_non_negative(self):
        rng = np.random.default_rng(51)
        for _ in range(200):
            n = int(rng.integers(2, 12))
            q = rng.dirichlet(np.ones(n))
            p = rng.dirichlet(np.ones(n))
            assert kl_divergence(q, p) >= -1e-15

    def test_support_violation_rejected(self):
        with pytest.raises(ValueError):
            kl_divergence([0.5, 0.5], [1.0, 0.0])

    def test_zero_entries_in_q_allowed(self):
        value = kl_divergence([0.5, 0.5, 0.0], np.full(3, 1 / 3))
        assert math.isfinite(value)
        np.testing.assert_allclose(value, math.log(3.0) - math.log(2.0), rtol=1e-14)


class TestDroInnerObjective:
    def test_uniform_weights_give_mean(self):
        rng = np.random.default_rng(61)
        losses = rng.normal(size=9)
        value = dro_inner_objective(losses, np.full(9, 1 / 9), 3.0)
        np.testing.assert_allclose(value, np.mean(losses), rtol=1e-12)

    def test_one_hot_on_argmax(self):
        losses = np.array([0.1, 1.4, 0.9])
        q = np.array([0.0, 1.0, 0.0])
        np.testing.assert_allclose(
            dro_inner_objective(losses, q, 2.0), 1.4 - math.log(3.0) / 2.0, rtol=1e-14
        )

    def test_closed_form_equivalence_identity(self):
        """At the optimal weights the two objective forms coincide:
        inner(L, q*, beta) + log(n)/beta = lse(L, beta)."""
        rng = np.random.default_rng(62)
        for _ in range(300):
            n = int(rng.integers(1, 200))
            losses = rng.uniform(0, 5, size=n)
            beta = float(rng.uniform(0.1, 120.0))
            lhs = dro_inner_objective(losses, optimal_weights(losses, beta), beta) + math.log(n) / beta
            np.testing.assert_allclose(lhs, lse_robust_loss(losses, beta), atol=1e-9)
