"""Verification tests for the MLP classifier and its exact gradients.

The gradient tests compare reverse-mode results against central finite
differences coordinate by coordinate; the loss tests pin exact values where
softmax arithmetic is closed-form and use a high-precision oracle elsewhere.
"""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from drotrain.mlp import (
    MAX_LOSS,
    PROB_FLOOR,
    MLPParams,
    Sample,
    forward,
    forward_batch,
    init_params,
    per_sample_gradient,
    per_sample_loss,
    predict_proba,
    sgd_step,
    true_class_prob,
    weighted_loss_gradient,
)


def _zero_params(dims):
    return MLPParams(
        [np.zeros((o, i)) for i, o in zip(dims[:-1], dims[1:])],
        [np.zeros(o) for o in dims[1:]],
    )


def _oracle_forward(params, x):
    """Independent re-computation with plain Python loops."""
    h = [float(v) for v in x]
    n_layers = len(params.weights)
    for layer, (W, b) in enumerate(zip(params.weights, params.biases)):
        out = []
        for r in range(W.shape[0]):
            acc = float(b[r])
            for c in range(W.shape[1]):
                acc += float(W[r, c]) * h[c]
            if layer < n_layers - 1:
                acc = max(acc, 0.0)
            out.append(acc)
        h = out
    return np.array(h)


def _oracle_loss_highprec(logits, target):
    """Cross-entropy from logits in 50-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 50
        zs = [Decimal(float(z)) for z in logits]
        m = max(zs)
        total = sum((z - m).exp() for z in zs)
        logp = zs[target] - m - total.ln()
        return min(float(-logp), MAX_LOSS)


def _flat_gradcheck(params, sample, h=1e-5):
    """Central finite differences on every coordinate of every array."""
    grad = per_sample_gradient(params, sample)
    for arrays, garrays in ((params.weights, grad.weights), (params.biases, grad.biases)):
        for arr, garr in zip(arrays, garrays):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                keep = arr[ix]
                arr[ix] = keep + h
                up = per_sample_loss(params, sample)
                arr[ix] = keep - h
                down = per_sample_loss(params, sample)
                arr[ix] = keep
                fd = (up - down) / (2 * h)
                g = garr[ix]
                tol = 1e-4 * max(1e-2, abs(g), abs(fd))
                assert abs(g - fd) <= tol, f"coordinate {ix}: analytic {g} vs fd {fd}"


class TestForward:
    def test_zero_params_zero_logits(self):
        params = _zero_params((4, 8, 3))
        np.testing.assert_array_equal(forward(params, np.ones(4)), np.zeros(3))

    def test_identity_linear_layer(self):
        params = MLPParams([np.eye(5)], [np.zeros(5)])
        x = np.array([0.3, -1.2, 4.0, 0.0, 2.5])
        np.testing.assert_array_equal(forward(params, x), x)

    def test_matches_arithmetic_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            params = init_params((6, 9, 4), int(rng.integers(1 << 30)))
            x = rng.normal(size=6)
            np.testing.assert_allclose(forward(params, x), _oracle_forward(params, x), atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        params = init_params((4, 3), 0)
        with pytest.raises(ValueError):
            forward(params, np.ones(5))

    def test_batch_agrees_with_single(self):
        rng = np.random.default_rng(32)
        params = init_params((5, 7, 3), 77)
        X = rng.normal(size=(11, 5))
        batched = forward_batch(params, X)
        for i in range(11):
            np.testing.assert_allclose(batched[i], forward(params, X[i]), atol=1e-13)


class TestFlatParams:
    def test_built_from_lists_of_layers(self):
        params = MLPParams([[[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]], [[7.0, 8.0, 9.0]])
        assert params.dims == (2, 3)
        np.testing.assert_array_equal(params.theta, np.arange(1.0, 10.0))
        np.testing.assert_array_equal(params.weights[0], [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        np.testing.assert_array_equal(params.biases[0], [7.0, 8.0, 9.0])

    def test_layer_edits_reach_theta(self):
        params = init_params((3, 4, 2), 5)
        params.weights[1][1, 2] = 42.0
        params.biases[0] += 1.0
        assert params.theta[12 + 4 + 4 + 2] == 42.0
        np.testing.assert_array_equal(params.theta[12:16], np.ones(4))
        stacked = MLPParams.from_theta(np.stack([params.theta, params.theta]), params.dims)
        stacked.weights[0][1] = 0.0
        np.testing.assert_array_equal(stacked.theta[1, :12], np.zeros(12))
        np.testing.assert_array_equal(stacked.theta[0], params.theta)

    def test_size_must_fit_dims(self):
        with pytest.raises(ValueError):
            MLPParams.from_theta(np.zeros(10), (3, 2))


class TestInitParams:
    def test_deterministic(self):
        a = init_params((6, 32, 32, 3), 5)
        b = init_params((6, 32, 32, 3), 5)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_zero_biases_and_bounded_weights(self):
        params = init_params((10, 20, 4), 6)
        for (fan_out, fan_in), w, b in zip(
            [(20, 10), (4, 20)], params.weights, params.biases
        ):
            s = math.sqrt(6.0 / (fan_in + fan_out))
            assert np.all(np.abs(w) <= s)
            np.testing.assert_array_equal(b, np.zeros(fan_out))

    def test_bad_dims_rejected(self):
        with pytest.raises(ValueError):
            init_params((5,), 0)
        with pytest.raises(ValueError):
            init_params((5, 0, 3), 0)


class TestPerSampleLoss:
    def test_zero_params_gives_log_c(self):
        """Uniform softmax over C classes: loss is exactly log C."""
        for C in (2, 3, 10):
            params = _zero_params((4, C))
            sample = Sample(np.ones(4), 0)
            assert per_sample_loss(params, sample) == math.log(C)

    def test_clamped_at_max_loss(self):
        # Target logit 60 below the winner: p_target ~ e^-60 << 1e-12.
        params = MLPParams([np.array([[0.0], [60.0]])], [np.zeros(2)])
        sample = Sample(np.array([1.0]), 0)
        assert per_sample_loss(params, sample) == MAX_LOSS

    def test_loss_bounds(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            params = init_params((5, 8, 4), int(rng.integers(1 << 30)))
            sample = Sample(rng.normal(size=5) * 3, int(rng.integers(4)))
            loss = per_sample_loss(params, sample)
            assert 0.0 <= loss <= MAX_LOSS

    def test_matches_high_precision_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            params = init_params((6, 10, 5), int(rng.integers(1 << 30)))
            x = rng.normal(size=6) * 2
            target = int(rng.integers(5))
            logits = _oracle_forward(params, x)
            expected = _oracle_loss_highprec(logits, target)
            assert abs(per_sample_loss(params, Sample(x, target)) - expected) <= 1e-10

    def test_invalid_target_rejected(self):
        params = _zero_params((3, 2))
        with pytest.raises(ValueError):
            per_sample_loss(params, Sample(np.ones(3), 2))


class TestPredictProba:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(51)
        params = init_params((5, 9, 4), 21)
        probs = predict_proba(params, rng.normal(size=(20, 5)))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(probs >= 0)

    def test_true_class_prob_consistent(self):
        rng = np.random.default_rng(52)
        params = init_params((5, 9, 4), 22)
        X = rng.normal(size=(15, 5))
        y = rng.integers(4, size=15)
        probs = predict_proba(params, X)
        np.testing.assert_array_equal(true_class_prob(params, X, y), probs[np.arange(15), y])


class TestGradients:
    def test_zero_params_output_bias_gradient(self):
        """With zero parameters the softmax is uniform, so the logit error
        is exactly softmax - one_hot = [0.5, 0.5] - one_hot."""
        params = _zero_params((4, 2))
        grad = per_sample_gradient(params, Sample(np.array([1.0, -1.0, 2.0, 0.5]), 0))
        np.testing.assert_allclose(grad.biases[-1], [0.5 - 1.0, 0.5], atol=1e-15)

    def test_dead_input_weights_zero_gradient(self):
        """Weights multiplying a zeroed-out feature receive zero gradient."""
        rng = np.random.default_rng(61)
        params = init_params((4, 6, 3), 31)
        x = rng.normal(size=4)
        x[2] = 0.0
        grad = per_sample_gradient(params, Sample(x, 1))
        np.testing.assert_array_equal(grad.weights[0][:, 2], np.zeros(6))

    def test_clamped_sample_zero_gradient(self):
        params = MLPParams([np.array([[0.0], [60.0]])], [np.zeros(2)])
        grad = per_sample_gradient(params, Sample(np.array([1.0]), 0))
        np.testing.assert_array_equal(grad.weights[0], np.zeros((2, 1)))
        np.testing.assert_array_equal(grad.biases[0], np.zeros(2))

    def test_finite_difference_check(self):
        """Analytic gradients match central differences on every coordinate."""
        rng = np.random.default_rng(62)
        for _ in range(8):
            params = init_params((5, 12, 3), int(rng.integers(1 << 30)))
            sample = Sample(rng.normal(size=5), int(rng.integers(3)))
            _flat_gradcheck(params, sample)

    def test_weighted_batch_gradient_is_weighted_mean(self):
        """The fused batch gradient equals (1/B) sum_j w_j * grad_j built
        from individual per-sample gradients."""
        rng = np.random.default_rng(63)
        params = init_params((4, 7, 3), 41)
        B = 6
        X = rng.normal(size=(B, 4))
        y = rng.integers(3, size=B)
        w = rng.uniform(0.1, 10.0, size=B)
        losses, fused = weighted_loss_gradient(params, X, y, w)
        expected = [per_sample_loss(params, Sample(X[j], int(y[j]))) for j in range(B)]
        np.testing.assert_allclose(losses, expected, atol=1e-13)
        for k, (accW, accB) in enumerate(zip(fused.weights, fused.biases)):
            expW = np.zeros_like(accW)
            expB = np.zeros_like(accB)
            for j in range(B):
                gj = per_sample_gradient(params, Sample(X[j], int(y[j])))
                expW += w[j] * gj.weights[k] / B
                expB += w[j] * gj.biases[k] / B
            np.testing.assert_allclose(accW, expW, atol=1e-12)
            np.testing.assert_allclose(accB, expB, atol=1e-12)

    def test_batch_size_mismatch_rejected(self):
        params = init_params((4, 3), 0)
        with pytest.raises(ValueError):
            weighted_loss_gradient(params, np.ones((3, 4)), [0, 1], np.ones(3))


class TestSgdStep:
    def test_zero_gradient_fixed_point(self):
        params = init_params((3, 5, 2), 71)
        grad = _zero_params((3, 5, 2))
        stepped = sgd_step(params, grad, 0.5)
        for a, b in zip(params.weights, stepped.weights):
            np.testing.assert_array_equal(a, b)

    def test_unit_rate_self_gradient_zeroes(self):
        params = init_params((3, 4, 2), 72)
        stepped = sgd_step(params, params, 1.0)
        for w in stepped.weights:
            np.testing.assert_array_equal(w, np.zeros_like(w))
        for b in stepped.biases:
            np.testing.assert_array_equal(b, np.zeros_like(b))

    def test_structure_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sgd_step(init_params((3, 4, 2), 0), init_params((3, 5, 2), 0), 0.1)
        with pytest.raises(ValueError):
            sgd_step(init_params((3, 4, 2), 0), init_params((3, 4, 2), 0), 0.0)

    def test_quadratic_descent_monotone(self):
        """Repeated steps on L(w) = (w-3)^2/2 descend monotonically for
        learning rates below the curvature threshold."""
        w = np.array([[10.0]])
        params = MLPParams([w], [np.zeros(1)])
        losses = []
        for _ in range(50):
            value = 0.5 * (params.weights[0][0, 0] - 3.0) ** 2
            losses.append(value)
            grad = MLPParams([np.array([[params.weights[0][0, 0] - 3.0]])], [np.zeros(1)])
            params = sgd_step(params, grad, 0.5)
        assert all(b <= a for a, b in zip(losses, losses[1:]))
        assert losses[-1] < 1e-6


class TestLossConstants:
    def test_clamp_bound_consistent(self):
        assert MAX_LOSS == -math.log(PROB_FLOOR)
        assert math.isclose(MAX_LOSS, 27.631021115928547)
