"""Independent oracles shared by the unit and acceptance tests.

Everything here deliberately avoids the library's own code paths: the
log-sum-exp oracle runs in 50-digit decimal arithmetic, the simplex oracle
finds maximizers by exhaustive grid search, the percentile oracle is a
plain sort-and-index over Python lists, the dataset subset gathers its
rows one by one, the CSV writers format one row at a time with an
explicit ``repr`` per float, the checkpoint writer encodes the whole meta
with one ``json.dumps``, the first repeated pair is found by one walk
over a dict of pairs, and the percentile report gathers each stratum's
rows by a walk over a dict of row lists.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from decimal import Decimal, localcontext

import numpy as np

from drotrain.datasets import Dataset
from drotrain.metrics import GroupBlock, PercentileReport, StratumStats
from drotrain.training import config_digest


def lse_highprec(losses, beta: float) -> float:
    """(1/beta) * log(sum exp(beta * L_i)) in 50-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 50
        m = Decimal(max(float(v) for v in losses))
        beta_d = Decimal(float(beta))
        total = sum(((Decimal(float(v)) - m) * beta_d).exp() for v in losses)
        return float(m + total.ln() / beta_d)


def simplex_grid(step: float) -> np.ndarray:
    """All points of the 3-simplex lattice with the given step, rows sum to 1."""
    n = round(1.0 / step)
    i, j = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    mask = i + j <= n
    a = i[mask]
    b = j[mask]
    return np.stack([a, b, n - a - b], axis=1) / n


def neg_entropy(Q: np.ndarray) -> np.ndarray:
    """Per-row sum of q*log(q) with the 0*log(0)=0 convention."""
    out = np.zeros(Q.shape[0])
    positive = Q > 0
    contrib = np.zeros_like(Q)
    contrib[positive] = Q[positive] * np.log(Q[positive])
    return contrib.sum(axis=1, out=out)


def grid_search_maximizer(losses, beta: float, Q: np.ndarray, neg_ent: np.ndarray) -> np.ndarray:
    """Row of Q maximizing q . L - (sum q log q + log n)/beta."""
    L = np.asarray(losses, dtype=float)
    values = Q @ L - (neg_ent + math.log(Q.shape[1])) / beta
    return Q[int(np.argmax(values))]


def percentile_sort_oracle(values, alpha: float) -> float:
    """Nearest-rank percentile via plain Python sort: k-th smallest."""
    ordered = sorted(float(v) for v in values)
    k = max(1, math.ceil(alpha * len(ordered)))
    return ordered[k - 1]


def replacement_sgd_oracle(X, y, weights, biases, draw, steps: int, learning_rate: float, max_loss: float):
    """Plain per-layer SGD on the mean clamped cross-entropy of drawn batches.

    ``draw()`` returns the batch's dataset rows.  Each layer's arrays are
    kept and stepped on their own, with the arithmetic of a textbook ReLU
    MLP: forward, log-softmax, backward, ``w - lr * g``.  A loss past
    ``max_loss`` is clamped there and its gradient is zero.  Returns the
    final ``(weights, biases)``.
    """
    weights = [np.array(w, dtype=float) for w in weights]
    biases = [np.array(b, dtype=float) for b in biases]
    for _ in range(steps):
        idx = draw()
        acts, zs = [X[idx]], []
        for i, (w, b) in enumerate(zip(weights, biases)):
            zs.append(acts[-1] @ w.T + b)
            acts.append(np.maximum(zs[-1], 0.0) if i < len(weights) - 1 else zs[-1])
        z = zs[-1] - zs[-1].max(axis=1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        rows = np.arange(len(idx))
        delta = np.exp(logp)
        delta[rows, y[idx]] -= 1.0
        delta[-logp[rows, y[idx]] > max_loss] = 0.0
        delta *= 1.0 / len(idx)
        for i in range(len(weights) - 1, -1, -1):
            g_w, g_b = delta.T @ acts[i], delta.sum(axis=0)
            if i > 0:
                delta = (delta @ weights[i]) * (zs[i - 1] > 0)
            weights[i] = weights[i] - learning_rate * g_w
            biases[i] = biases[i] - learning_rate * g_b
    return weights, biases


def subset(dataset: Dataset, indices) -> Dataset:
    """The dataset of rows ``indices``, in that order, built row by row."""
    idx = np.asarray(indices, dtype=np.int64)
    return Dataset(
        dataset.features[idx],
        dataset.labels[idx],
        [dataset.groups[i] for i in idx],
        [dataset.case_ids[i] for i in idx],
    )


def write_csv_rows(dataset, path) -> None:
    """The dataset CSV written one row at a time, each float by ``repr``."""
    d = dataset.features.shape[1]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["case_id", "group", "label"] + [f"f{j}" for j in range(d)])
        for i in range(len(dataset)):
            writer.writerow(
                [dataset.case_ids[i], dataset.groups[i], int(dataset.labels[i])]
                + [repr(float(v)) for v in dataset.features[i]]
            )


def write_scores_rows(rows, path) -> None:
    """The score CSV written one ``ScoreRow`` at a time, each score by ``repr``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["case_id", "group", "region", "score"])
        for row in rows:
            writer.writerow([row.case_id, row.group, row.region, repr(float(row.score))])


def checkpoint_bytes(state, config) -> bytes:
    """A checkpoint's bytes with its meta encoded by one ``json.dumps``:
    magic, config digest, meta length, meta, little-endian f64 params."""
    meta = {
        "dims": list(state.params.dims),
        "epoch": state.epoch,
        "mode": config.mode,
        "rng_state": state.rng.bit_generator.state if state.rng is not None else None,
        "sampler": state.sampler.state_dict() if state.sampler is not None else None,
    }
    meta_bytes = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
    return (
        b"DROCKPT1"
        + config_digest(config, state.params.dims)
        + struct.pack("<Q", len(meta_bytes))
        + meta_bytes
        + np.asarray(state.params.theta, dtype="<f8").tobytes()
    )


def first_repeat_walk(case_ids, regions):
    """``(i, j)``: row ``i`` is the first whose (case_id, region) pair
    appeared before, first at row ``j``; ``None`` if none repeats."""
    first = {}
    for i, pair in enumerate(zip(case_ids, regions)):
        if pair in first:
            return i, first[pair]
        first[pair] = i
    return None


# The report's percentile columns, spelled out apart from the library's.
PERCENTILES = {"p50": 0.50, "p25": 0.25, "p10": 0.10, "p5": 0.05}


def percentile_report_walk(table) -> PercentileReport:
    """The percentile report built row by row: each (group, region)
    stratum's row numbers collected in a dict, in row order, a group's
    cases counted as a set of its case ids, and each percentile taken by
    :func:`percentile_sort_oracle`."""
    strata: dict = {}
    for i, key in enumerate(zip(table.groups, table.regions)):
        strata.setdefault(key, []).append(i)
    regions_of: dict = {}
    for g, r in strata:
        regions_of.setdefault(g, []).append(r)

    def stats(rows):
        scores = np.asarray(table.scores)[rows]
        return StratumStats(
            count=len(rows),
            mean=100.0 * float(scores.mean()),
            std=100.0 * float(scores.std(ddof=0)),
            **{name: 100.0 * percentile_sort_oracle(scores, a) for name, a in PERCENTILES.items()},
        )

    return PercentileReport(
        [
            GroupBlock(
                g,
                len({table.case_ids[i] for r in regions for i in strata[(g, r)]}),
                [(r, stats(strata[(g, r)])) for r in regions],
            )
            for g, regions in regions_of.items()
        ]
    )
