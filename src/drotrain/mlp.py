"""Small ReLU MLP classifier with exact reverse-mode gradients, in numpy.

Everything here is a pure function of explicit parameters; updates are
plain value-producing steps owned by the caller.  Parameters and gradients
live in one flat buffer (:class:`MLPParams`), so an SGD step is one
subtraction over it and a checkpoint is its bytes.

:func:`weighted_loss_gradient` and :func:`sgd_step` also take a stack of M
models: weights ``(M, out, in)``, biases ``(M, out)``, and batches ``(M, B,
in)``, one per model.  A stacked ``matmul`` runs the same gemm on each slice
as the 2-D call does, and every other operation is elementwise or reduces
within one model, so each model's result is bit-identical to calling it
alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PROB_FLOOR",
    "MAX_LOSS",
    "Sample",
    "MLPParams",
    "param_count",
    "init_params",
    "forward",
    "forward_batch",
    "predict_proba",
    "per_sample_loss",
    "per_sample_gradient",
    "weighted_loss_gradient",
    "true_class_prob",
    "sgd_step",
]

# Softmax probabilities are clamped below at PROB_FLOOR before the log, so a
# per-sample loss never exceeds MAX_LOSS = -log(PROB_FLOOR) ~ 27.63.
PROB_FLOOR = 1e-12
MAX_LOSS = -math.log(PROB_FLOOR)


@dataclass(frozen=True)
class Sample:
    """One classification sample: feature vector, class label, group tag."""

    features: np.ndarray
    target: int
    group: str = ""


class MLPParams:
    """Per-layer weight matrices (out x in) and bias vectors in one buffer.

    ``theta`` holds every parameter as contiguous f64 in the order ``W0, b0,
    W1, b1, ...``, each array row-major; ``weights`` and ``biases`` are lists
    of views into it, so an in-place edit of ``weights[i]`` changes
    ``theta``.  Hidden layers use ReLU; the last layer emits logits.  The
    same container doubles as the gradient structure, and holds a stack of
    M models when ``theta`` carries a leading model axis, shape ``(M, P)``.
    Built from per-layer arrays, it copies them into a new buffer.
    """

    def __init__(self, weights, biases):
        weights = [np.asarray(w, dtype=float) for w in weights]
        lead = weights[0].shape[:-2]
        dims = (weights[0].shape[-1],) + tuple(w.shape[-2] for w in weights)
        parts = [a for pair in zip(weights, biases) for a in pair]
        self._view(np.concatenate([np.reshape(a, lead + (-1,)) for a in parts], axis=-1, dtype=float), dims)

    @classmethod
    def from_theta(cls, theta: np.ndarray, dims) -> "MLPParams":
        """Params of layer sizes ``dims`` viewing (not copying) ``theta``;
        ``ValueError`` if the last axis of ``theta`` does not hold them."""
        params = cls.__new__(cls)
        params._view(theta, dims)
        return params

    def _view(self, theta: np.ndarray, dims) -> None:
        self.dims, weights, biases = _view_keys(tuple(dims), theta.shape)
        self.theta = theta
        self.weights = [theta[at].reshape(shape) for at, shape in weights]
        self.biases = [theta[at] for at in biases]

    def copy(self) -> "MLPParams":
        return MLPParams.from_theta(self.theta.copy(), self.dims)


@functools.cache
def _layout(dims: tuple) -> tuple:
    """``(dims, weights, biases, size)`` of layer sizes ``dims``: the sizes
    as ints, where each layer's arrays sit on theta's last axis (the
    ``(slice, shape)`` of each weight matrix and the slice of each bias
    vector), and the parameter count."""
    dims, weights, biases, end = tuple(map(int, dims)), [], [], 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        weights.append((slice(end, end + fan_out * fan_in), (fan_out, fan_in)))
        end += fan_out * fan_in
        biases.append(slice(end, end + fan_out))
        end += fan_out
    return dims, tuple(weights), tuple(biases), end


@functools.cache
def _view_keys(dims: tuple, shape: tuple) -> tuple:
    """``(dims, weights, biases)`` that view a buffer of ``shape`` as
    :func:`_layout` places layer sizes ``dims``: each weight matrix's index
    into the buffer and its shape, with the buffer's leading axes, and each
    bias vector's index.  Cached, so a step's views cost no layout work; a
    process sees one entry per model size and stack shape."""
    dims, weights, biases, size = _layout(dims)
    if shape[-1] != size:
        raise ValueError(f"{shape[-1]} parameters do not fit layer sizes {dims}")
    weights = tuple(((..., part), shape[:-1] + part_shape) for part, part_shape in weights)
    return dims, weights, tuple((..., part) for part in biases)


def param_count(dims) -> int:
    """Parameters of a model of layer sizes ``dims``; ``ValueError`` when
    their f64 values need more bytes than numpy can index."""
    size = _layout(tuple(dims))[3]
    if 8 * size > np.iinfo(np.intp).max:
        raise ValueError(f"{size} f64 parameters need more bytes than numpy can index")
    return size


def init_params(dims, seed: int) -> MLPParams:
    """Uniform fan-based init: W ~ U[-s, s] with s = sqrt(6/(fan_in+fan_out)), b = 0."""
    dims = tuple(int(d) for d in dims)
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise ValueError(f"dims must list >= 2 positive layer sizes, got {dims}")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        s = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-s, s, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MLPParams(weights, biases)


def forward(params: MLPParams, features) -> np.ndarray:
    """Logits for a single feature vector."""
    return forward_batch(params, np.asarray(features, dtype=float)[np.newaxis])[0]


def forward_batch(params: MLPParams, X) -> np.ndarray:
    """Logits for a batch, shape (B, C)."""
    A = np.asarray(X, dtype=float)
    if A.ndim != 2 or A.shape[1] != params.weights[0].shape[1]:
        raise ValueError(f"batch shape {A.shape} does not match model input")
    return _layers(params, A)[1][-1]


def _layers(params: MLPParams, X: np.ndarray) -> tuple:
    """``(inputs, pre-activations)`` of every layer; the last pre-activation
    holds the logits.  Hidden layers apply ReLU to the previous
    pre-activation, and a stack's layers act on each model's slice."""
    inputs, zs = [X], []
    for i, (W, b) in enumerate(zip(params.weights, params.biases)):
        if i:
            inputs.append(np.maximum(zs[-1], 0.0))
        zs.append(inputs[-1] @ np.swapaxes(W, -1, -2) + b[..., None, :])
    return inputs, zs


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def predict_proba(params: MLPParams, X) -> np.ndarray:
    """Softmax class probabilities for a batch, rows summing to 1."""
    return np.exp(_log_softmax(forward_batch(params, X)))


def per_sample_loss(params: MLPParams, sample: Sample) -> float:
    """Softmax cross-entropy of the sample, clamped into [0, MAX_LOSS]."""
    logits = forward(params, sample.features)
    if not 0 <= sample.target < logits.size:
        raise ValueError(f"target {sample.target} out of range for {logits.size} classes")
    return min(-_log_softmax(logits)[sample.target], MAX_LOSS)


def true_class_prob(params: MLPParams, X, y) -> np.ndarray:
    """Probability assigned to each sample's true class, shape (B,)."""
    probs = predict_proba(params, X)
    y = np.asarray(y, dtype=np.int64)
    return probs[np.arange(y.size), y]


def per_sample_gradient(params: MLPParams, sample: Sample) -> MLPParams:
    """Exact gradient of :func:`per_sample_loss` w.r.t. every parameter."""
    x = np.asarray(sample.features, dtype=float)
    _, grad = weighted_loss_gradient(params, x[np.newaxis, :], [sample.target], np.ones(1))
    return grad


def weighted_loss_gradient(params: MLPParams, X, y, sample_weights) -> tuple:
    """One fused pass: raw per-sample losses and the weighted-mean gradient.

    The gradient is ``(1/B) * sum_j w_j * dL_j/dtheta``; the returned losses
    are unweighted.  Samples whose true-class probability sits at the clamp
    floor contribute zero gradient (their loss is saturated).  For a stack
    of M models, ``X`` is ``(M, B, in)``, ``y`` and the weights ``(M, B)``,
    and losses and gradient are stacked the same way.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=np.int64)
    w = np.asarray(sample_weights, dtype=float)
    stack = params.weights[0].shape[:-2]  # () for one model, (M,) for a stack
    if X.ndim != len(stack) + 2 or X.shape[: len(stack)] != stack:
        raise ValueError(f"batch shape {X.shape} does not match a stack of shape {stack}")
    if X.shape[:-1] != y.shape or w.shape != y.shape:
        raise ValueError("X, y, and sample_weights must agree on the batch size")

    acts, zs = _layers(params, X)
    logp = _log_softmax(zs[-1])
    true = (*np.indices(y.shape, sparse=True), y)  # each sample's true-class entry
    raw = -logp[true]
    losses = np.minimum(raw, MAX_LOSS)

    delta = np.exp(logp)
    delta[true] -= 1.0
    delta[raw > MAX_LOSS] = 0.0
    delta *= (w / y.shape[-1])[..., np.newaxis]

    grad = MLPParams.from_theta(np.empty_like(params.theta), params.dims)
    for i in range(len(params.weights) - 1, -1, -1):
        np.matmul(np.swapaxes(delta, -1, -2), acts[i], out=grad.weights[i])
        np.add.reduce(delta, axis=-2, out=grad.biases[i])
        if i > 0:
            delta = (delta @ params.weights[i]) * (zs[i - 1] > 0)
    return losses, grad


def sgd_step(params: MLPParams, gradient: MLPParams, learning_rate: float) -> MLPParams:
    """Return ``params - learning_rate * gradient`` elementwise."""
    if learning_rate <= 0:
        raise ValueError(f"learning_rate must be > 0, got {learning_rate}")
    if params.dims != gradient.dims or params.theta.shape != gradient.theta.shape:
        raise ValueError("gradient structure does not match params")
    return MLPParams.from_theta(params.theta - learning_rate * gradient.theta, params.dims)
