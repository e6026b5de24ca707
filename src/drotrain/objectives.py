"""Risk objectives for percentile-robust training.

The central quantity is the log-sum-exp relaxation of the worst-percentile
loss: ``(1/beta) * log(sum_i exp(beta * L_i))``.  It upper-bounds the maximum
per-sample loss, tightens toward it as ``beta`` grows, and is equivalent to a
KL-regularized adversarial reweighting of the empirical distribution whose
optimal weights are ``softmax(beta * L)``.

All functions are pure and safe for concurrent use.  Every exp/log
aggregation subtracts the running maximum first so that large ``beta``
(e.g. 100) does not overflow double precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metrics import nearest_rank

__all__ = [
    "RobustConfig",
    "as_loss_vector",
    "as_weight_vector",
    "nearest_rank",
    "empirical_percentile",
    "lse_robust_loss",
    "chernoff_percentile_bound",
    "optimal_weights",
    "kl_divergence",
    "dro_inner_objective",
]

# Absolute slack allowed on the sum of a probability vector.
WEIGHT_SUM_TOL = 1e-12


@dataclass(frozen=True)
class RobustConfig:
    """Hardness temperature ``beta`` and percentile level ``alpha``."""

    beta: float
    alpha: float

    def __post_init__(self) -> None:
        _check_beta(self.beta)
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")


def as_loss_vector(values) -> np.ndarray:
    """Validate and return per-sample losses as a 1-d float array.

    Requires at least one entry and rejects NaN/infinity.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"loss vector must be 1-d, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError("loss vector must not be empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError("loss vector entries must be finite")
    return arr


def as_weight_vector(values, n: int | None = None) -> np.ndarray:
    """Validate a probability vector: non-negative entries summing to 1.

    ``n`` optionally pins the expected length.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"weight vector must be 1-d and non-empty, got shape {arr.shape}")
    if n is not None and arr.size != n:
        raise ValueError(f"weight vector has length {arr.size}, expected {n}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("weight vector entries must be finite")
    if np.any(arr < 0):
        raise ValueError("weight vector entries must be non-negative")
    total = float(arr.sum())
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise ValueError(f"weight vector sums to {total!r}, not 1")
    return arr


def empirical_percentile(scores, alpha: float) -> float:
    """Nearest-rank percentile: the :func:`nearest_rank`-th smallest score.

    For ``alpha = 0.05`` this is the value below which 5% of the scores fall.
    """
    arr = np.asarray(scores, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("scores must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(arr)):
        raise ValueError("scores must be finite")
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    return float(np.sort(arr)[nearest_rank(arr.size, alpha) - 1])


def lse_robust_loss(losses, beta: float) -> float:
    """Log-sum-exp relaxation ``(1/beta) * log(sum_i exp(beta * L_i))``.

    Always lies in ``[max(L), max(L) + log(n)/beta]``.
    """
    arr = as_loss_vector(losses)
    _check_beta(beta)
    m = float(arr.max())
    return m + math.log(float(np.exp(beta * (arr - m)).sum())) / beta


def chernoff_percentile_bound(losses, config: RobustConfig) -> float:
    """Upper bound on the loss value exceeded by at most an alpha-fraction of samples.

    Equals ``lse_robust_loss(losses, beta) - log(alpha * n) / beta``; the
    fraction of losses >= the bound is guaranteed <= alpha.
    """
    arr = as_loss_vector(losses)
    if not isinstance(config, RobustConfig):
        raise ValueError("config must be a RobustConfig")
    return lse_robust_loss(arr, config.beta) - math.log(config.alpha * arr.size) / config.beta


def optimal_weights(losses, beta: float) -> np.ndarray:
    """Adversarially optimal sample weights: ``softmax(beta * L)``.

    This is the exact maximizer of :func:`dro_inner_objective` over the
    probability simplex.  Max-subtraction keeps the computation stable and
    makes the result invariant to adding a constant to all losses.
    """
    arr = as_loss_vector(losses)
    _check_beta(beta)
    w = np.exp(beta * (arr - arr.max()))
    return w / w.sum()


def kl_divergence(q, p) -> float:
    """``sum_i q_i * log(q_i / p_i)`` with the convention ``0 * log(0/p) = 0``.

    Raises if some ``q_i > 0`` where ``p_i = 0`` (support violation).
    """
    q_arr = as_weight_vector(q)
    p_arr = as_weight_vector(p, n=q_arr.size)
    if np.any((p_arr == 0) & (q_arr > 0)):
        raise ValueError("q must be absolutely continuous w.r.t. p (q_i > 0 where p_i = 0)")
    mask = q_arr > 0
    return float(np.sum(q_arr[mask] * np.log(q_arr[mask] / p_arr[mask])))


def dro_inner_objective(losses, q, beta: float) -> float:
    """Reweighted loss minus the KL penalty toward uniform weights.

    ``sum_i q_i * L_i - (1/beta) * KL(q || uniform)``.  Maximized over the
    simplex by :func:`optimal_weights`, where its value equals
    ``lse_robust_loss(losses, beta) - log(n)/beta``.
    """
    arr = as_loss_vector(losses)
    _check_beta(beta)
    q_arr = as_weight_vector(q, n=arr.size)
    uniform = np.full(arr.size, 1.0 / arr.size)
    return float(q_arr @ arr) - kl_divergence(q_arr, uniform) / beta


def _check_beta(beta: float) -> None:
    if not (math.isfinite(beta) and beta > 0):
        raise ValueError(f"beta must be finite and > 0, got {beta}")
