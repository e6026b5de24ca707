"""Hardness-weighted sampling of training indices.

The sampler keeps a stale copy of every sample's last observed loss and draws
mini-batch indices i.i.d. (with replacement) from ``softmax(beta * stale)``,
which is exactly the adversarial weighting of
:func:`drotrain.objectives.optimal_weights`.  Each drawn index comes with an
importance weight ``clip(n * q_i, w_min, w_max)``; with ``beta -> 0`` the
distribution is uniform and every weight is 1, recovering plain SGD.

Draws come from a two-level sum tree kept in log space, the proportional
sampler of Prioritized Experience Replay (Schaul et al., arXiv:1511.05952).
The leaves ``beta * stale`` are cut into blocks of :func:`_block_size` leaves.
Each block caches its maximum leaf, the sum of its leaves' ``exp`` relative
to that maximum, and its normalised within-block CDF, offset by the block
number so that all blocks share one flat sorted array.  On top sits the
cumulative block mass, relative to the global maximum.  A draw takes two
uniforms per index: one ``searchsorted`` over the block masses picks the
blocks and one over the flat CDF picks the leaves.  An update recomputes the
touched blocks and the block masses.  With blocks of ``b`` leaves, a step of
``B`` draws and ``B`` updates costs ``O(B b + n / b)``, which is
``O(sqrt(B n))`` at the best ``b``, instead of the ``O(n)`` of rebuilding the
softmax.  Every cache is recomputed from the stale losses, never adjusted by
deltas, so it is a pure function of them and a restored sampler continues the
exact draw stream.

A sampler is a single-writer object: one training loop owns it and serializes
``update_losses``/``draw`` calls.  ``distribution()`` is a read-only snapshot.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .objectives import optimal_weights

__all__ = ["SamplerConfig", "HardnessWeightedSampler", "UniformReplacementSampler", "tree_shape"]


@dataclass(frozen=True)
class SamplerConfig:
    """Temperature, importance-weight clipping bounds, and stale-loss init.

    ``init_loss`` should exceed any achievable per-sample loss so that every
    sample stays competitive until it has been visited once (for losses
    bounded in [0, 1] the default 1.0 does this).
    """

    beta: float = 100.0
    w_min: float = 0.1
    w_max: float = 10.0
    init_loss: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise ValueError(f"beta must be finite and > 0, got {self.beta}")
        if not (0.0 < self.w_min <= self.w_max and math.isfinite(self.w_max)):
            raise ValueError(
                f"clipping bounds must be finite and satisfy 0 < w_min <= w_max, "
                f"got [{self.w_min}, {self.w_max}]"
            )
        if not math.isfinite(self.init_loss):
            raise ValueError("init_loss must be finite")


def _block_size(n: int) -> int:
    """Leaves per block of the sum tree for ``n`` samples.

    A step of ``B`` draws costs about ``B * b`` leaf operations plus
    ``n / b`` block-mass operations, so the best ``b`` is near
    ``sqrt(n / B)``; the rule takes ``B = 32``, the usual batch size.  Below
    about 10k samples fixed per-call costs dominate and 16 is as fast as any.
    """
    return max(16, math.isqrt(n // 32))


def tree_shape(n: int) -> tuple:
    """``(leaves per block, blocks)`` of the sum tree for ``n`` samples."""
    block = _block_size(n)
    return block, -(-n // block)


def _floored_exp(x: np.ndarray) -> None:
    """In-place ``exp(max(x, -700))`` of log masses relative to a maximum.

    numpy takes a slow path, up to tens of times slower, for ``exp`` of
    arguments whose result is subnormal or zero, and with beta = 100 most
    leaves sit that far below their maximum.  e**-700 is about 1e-304, so
    the floor moves no leaf's sampling probability by more than that, and it
    leaves every block and global mass sum (each at least 1) unchanged.
    """
    np.maximum(x, -700.0, out=x)
    np.exp(x, out=x)


class HardnessWeightedSampler:
    """Stale per-sample losses plus a deterministic draw stream.

    Draws use inverse-CDF sampling through the sum tree: one ``u ~ U[0,1)``
    picks a block by its cumulative mass, and a second picks a leaf by the
    block's own CDF.  Identical (seed, config, update sequence)
    therefore reproduce identical draw sequences.

    :meth:`stacked` builds M trees, one per (size, seed) pair, with one RNG
    stream per tree, held along a leading axis.  The trees of a stack share
    their :func:`tree_shape`, so their sizes may differ by less than a
    block, and a shorter tree ends in padding leaves exactly as it would
    alone.  ``update_losses`` then takes ``(M, B)`` arrays and runs the block
    and block-mass work once for the whole stack; :meth:`unstack` splits a
    stack into one sampler per tree, viewing its arrays, and each tree draws
    through its own sampler.  A sampler is the stack of one tree, so each
    tree of a stack draws exactly as a sampler built alone from its size and
    seed and fed the same updates.  ``n`` counts every (tree, case) pair;
    ``stale_losses``, ``draw_counts`` and ``distribution()`` of a stack have
    one row per tree, and a shorter tree's row ends in padding: stale loss
    -inf, count 0, probability 0.
    """

    def __init__(self, n: int, config: SamplerConfig | None = None, seed: int = 0):
        self._setup([n], config, [seed], single=True)

    @classmethod
    def stacked(cls, sizes, config: SamplerConfig | None, seeds) -> "HardnessWeightedSampler":
        """One tree per seed, of ``sizes[k]`` leaves for seed k, updated together."""
        sampler = cls.__new__(cls)
        sampler._setup(list(sizes), config, list(seeds), single=False)
        return sampler

    def _setup(self, sizes: list, config: SamplerConfig | None, seeds: list, single: bool) -> None:
        if not seeds:
            raise ValueError("a sampler stack needs at least one seed")
        if len(sizes) != len(seeds):
            raise ValueError(f"a sampler stack needs one size per seed, got {len(sizes)} for {len(seeds)}")
        sizes = tuple(int(n) for n in sizes)
        if min(sizes) < 1:
            raise ValueError(f"dataset size must be >= 1, got {min(sizes)}")
        shapes = {tree_shape(n) for n in sizes}
        if len(shapes) > 1:
            raise ValueError(f"the trees of a stack must share one shape, got {sorted(shapes)}")
        self.config = config if config is not None else SamplerConfig()
        self._single = single
        self._rngs = [np.random.default_rng(seed) for seed in seeds]
        self._block, n_blocks = shapes.pop()
        m = len(seeds)
        # Padding leaves past a tree's n hold -inf.  They follow their block's
        # maximum, so the running sums they join are at least 1 and their
        # floored mass of e**-700 rounds away: they add nothing to any sum.
        self._stale = np.full((m, n_blocks * self._block), -np.inf)
        for k, n in enumerate(sizes):
            self._stale[k, :n] = float(self.config.init_loss)
        self._counts = np.zeros((m, max(sizes)), dtype=np.int64)
        self._sizes = sizes
        self._cdf = np.empty_like(self._stale)  # block k's leaf CDF, plus k
        self._block_max = np.empty((m, n_blocks))
        self._block_sum = np.empty((m, n_blocks))  # sum of exp(leaf - block max)
        self._cum_mass = np.empty((m, n_blocks))  # relative to the tree's global max
        self._top = np.empty(m)  # each tree's global max leaf
        self._views()
        self._refresh_all()

    def _views(self) -> None:
        """Flat views with one row per (tree, block), and each tree's number, first row and end."""
        m, n_blocks = self._block_max.shape
        self._stale_rows = self._stale.reshape(m * n_blocks, self._block)
        self._cdf_rows = self._cdf.reshape(m * n_blocks, self._block)
        self._block_max_flat = self._block_max.reshape(-1)
        self._block_sum_flat = self._block_sum.reshape(-1)
        self._tree = np.arange(m)[:, None]
        self._first_row = self._tree * n_blocks
        self._ends = np.array(self._sizes)[:, None]  # the first index past each tree

    def unstack(self) -> list:
        """One sampler per tree, each viewing (not copying) this stack's arrays."""
        out = []
        for k, (rng, n) in enumerate(zip(self._rngs, self._sizes)):
            sampler = copy.copy(self)
            sampler._single, sampler._rngs, sampler._sizes = True, [rng], (n,)
            for name in ("_stale", "_cdf", "_block_max", "_block_sum", "_cum_mass", "_top"):
                setattr(sampler, name, getattr(self, name)[k : k + 1])
            sampler._counts = self._counts[k : k + 1, :n]
            sampler._views()
            out.append(sampler)
        return out

    def _squeeze(self, a: np.ndarray) -> np.ndarray:
        """``a`` without its tree axis for a single sampler."""
        return a[0] if self._single else a

    @property
    def n(self) -> int:
        """Cases, summed over the trees of a stack."""
        return sum(self._sizes)

    @property
    def stale_losses(self) -> np.ndarray:
        return self._squeeze(self._stale[:, : self._counts.shape[1]].copy())

    @property
    def draw_counts(self) -> np.ndarray:
        return self._squeeze(self._counts.copy())

    def _refresh_all(self) -> None:
        n_blocks = self._block_max.shape[1]
        self._refresh(np.broadcast_to(np.arange(n_blocks), self._block_max.shape))

    def _refresh(self, blocks: np.ndarray) -> None:
        """Recompute the caches of ``blocks`` (one row per tree) and the block masses."""
        rows = (blocks + self._first_row).ravel()
        leaves = self.config.beta * self._stale_rows[rows]
        top = np.maximum.reduce(leaves, axis=1)
        cdf = leaves - top[:, None]
        _floored_exp(cdf)
        np.add.accumulate(cdf, axis=1, out=cdf)
        total = cdf[:, -1].copy()
        cdf /= total[:, None]
        cdf += blocks.reshape(-1, 1)
        self._cdf_rows[rows] = cdf
        self._block_max_flat[rows] = top
        self._block_sum_flat[rows] = total
        np.maximum.reduce(self._block_max, axis=1, out=self._top)
        mass = self._block_max - self._top[:, None]
        _floored_exp(mass)
        mass *= self._block_sum
        np.add.accumulate(mass, axis=1, out=self._cum_mass)

    def update_loss(self, index: int, loss: float) -> None:
        """Record the freshly observed loss of one sample (overwrite)."""
        if not self._single:
            raise ValueError("a stack takes update_losses with one row of indices per tree")
        if not 0 <= index < self.n:
            raise ValueError(f"index {index} out of range for {self.n} samples")
        if not math.isfinite(loss):
            raise ValueError(f"loss must be finite, got {loss}")
        self.update_losses([index], [loss])

    def update_losses(self, indices, losses) -> None:
        """Vectorized overwrite; duplicate indices keep the last value.

        A stack takes ``(M, B)`` indices and losses, row k for tree k.
        """
        idx = np.asarray(indices)
        vals = np.asarray(losses, dtype=float)
        if idx.size and idx.dtype.kind not in "iu":
            raise ValueError(f"indices must be integers, got dtype {idx.dtype}")
        if idx.shape != vals.shape:
            raise ValueError("indices and losses must have the same shape")
        if self._single:
            idx, vals = idx.reshape(1, -1), vals.reshape(1, -1)
        elif idx.ndim != 2 or idx.shape[0] != len(self._rngs):
            raise ValueError(f"a stack of {len(self._rngs)} trees takes one row of indices per tree")
        idx = idx.astype(np.int64, copy=False)
        if idx.size and (idx.min() < 0 or (idx >= self._ends).any()):
            raise ValueError("index out of range")
        if not np.isfinite(vals).all():
            raise ValueError("losses must be finite")
        self._stale[self._tree, idx] = vals
        # A block touched twice is recomputed twice, to the same values.
        self._refresh(idx // self._block)

    def distribution(self) -> np.ndarray:
        """Current sampling probabilities: ``softmax(beta * stale_losses)``."""
        q = np.zeros(self._counts.shape)
        for k, n in enumerate(self._sizes):
            q[k, :n] = optimal_weights(self._stale[k, :n], self.config.beta)
        return self._squeeze(q)

    def draw(self, batch_size: int) -> tuple[np.ndarray, np.ndarray]:
        """Draw ``batch_size`` indices i.i.d. with replacement.

        Returns ``(indices, importance_weights)`` where each weight is
        ``clip(n * q_index, w_min, w_max)``.  Advances the RNG and the
        per-sample draw counts.  A stack draws through the samplers of
        :meth:`unstack`, one per tree.
        """
        if not self._single:
            raise ValueError("a stack draws from each tree: unstack() it into one sampler per tree")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        stale, cdf, cum_mass, counts = self._stale[0], self._cdf[0], self._cum_mass[0], self._counts[0]
        n = self._sizes[0]
        u = self._rngs[0].random(2 * batch_size)
        t, within = u[:batch_size], u[batch_size:]
        total = cum_mass[-1]
        t *= total  # u < 1 keeps t < total, so every t finds a block
        blocks = cum_mass.searchsorted(t, side="right")
        within += blocks
        # Rounding can carry b + within up to the next block's offset, with
        # probability about b * 2**-53 in block b; that block's first leaf
        # with mass is then drawn (the last leaf, past the last block).
        indices = cdf.searchsorted(within, side="right")
        np.minimum(indices, n - 1, out=indices)
        # n * exp(leaf - top) / total is exactly 1 when all leaves are equal.
        weights = self.config.beta * stale[indices]
        weights -= self._top[0]
        np.exp(weights, out=weights)
        weights *= n / total
        np.maximum(weights, self.config.w_min, out=weights)
        np.minimum(weights, self.config.w_max, out=weights)
        np.add.at(counts, indices, 1)
        return indices, weights

    def state_dict(self) -> dict:
        """JSON-serializable snapshot, inverse of :meth:`from_state_dict`."""
        if not self._single:
            raise ValueError("a stack has no state_dict; unstack() it into one sampler per tree")
        return {
            "config": {
                "beta": self.config.beta,
                "w_min": self.config.w_min,
                "w_max": self.config.w_max,
                "init_loss": self.config.init_loss,
            },
            "stale_losses": self.stale_losses.tolist(),
            "draw_counts": self.draw_counts.tolist(),
            "rng_state": self._rngs[0].bit_generator.state,
        }

    @classmethod
    def from_state_dict(cls, state: dict) -> "HardnessWeightedSampler":
        cfg = SamplerConfig(**state["config"])
        stale = np.asarray(state["stale_losses"], dtype=float)
        counts = np.asarray(state["draw_counts"], dtype=np.int64)
        if stale.ndim != 1 or stale.shape != counts.shape:
            raise ValueError(
                f"stale_losses and draw_counts must be 1-d of one length, "
                f"got shapes {stale.shape} and {counts.shape}"
            )
        if not np.all(np.isfinite(stale)):
            raise ValueError("stale_losses must be finite")
        if np.any(counts < 0):
            raise ValueError("draw_counts must be non-negative")
        sampler = cls(stale.size, cfg, seed=0)
        sampler._stale[0, : stale.size] = stale
        sampler._counts[0] = counts
        sampler._refresh_all()
        sampler._rngs[0].bit_generator.state = state["rng_state"]
        return sampler


class UniformReplacementSampler(HardnessWeightedSampler):
    """Uniform-with-replacement reference sharing the draw contract above.

    The constant-leaf case of hardness weighting: :meth:`update_losses`
    ignores the losses it is fed, so the stale losses stay at ``init_loss``,
    the distribution stays exactly 1/n, and every draw has importance weight
    exactly ``n * (1/n) = 1`` (for clipping bounds around 1, as the
    default's).  A :class:`HardnessWeightedSampler` seeded the same way
    produces a bit-identical index stream until its first loss update, which
    is the degenerate plain-SGD limit of hardness weighting.
    """

    def update_losses(self, indices, losses) -> None:
        """Ignore the losses: the distribution stays uniform."""
