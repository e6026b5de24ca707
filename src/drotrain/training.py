"""Training regimes and orchestration: mean-loss SGD, robust training via
hardness-weighted sampling, fold ensembling, and resumable checkpoints.

Two regimes share one step shape.  The mean-loss regime shuffles the
training set each epoch and walks it in mini-batches without replacement.
The robust regime draws each mini-batch with replacement from the sampler's
softmax-of-stale-losses distribution, scales every sample's gradient by its
clipped importance weight, and feeds the freshly observed raw losses back
into the sampler.  Everything is deterministic given the config seed, and a
checkpoint restores mid-run state exactly: running a+b epochs equals
running a, saving, loading, and running b.

Cross-validation trains the folds of one seed in lockstep, as a stack: the
parameters carry a leading fold axis, each step makes one gradient call and
one SGD call for the whole stack, and the robust regime's sampler holds one
sum tree per fold along the same axis, updated once per step for the whole
stack.  Each fold keeps its own RNG stream, draws its batch from its own
tree, and gathers it from the full feature matrix through its own training
rows, and every stacked operation acts on each fold exactly as the
unstacked one does, so a fold's trajectory, checkpoint and scores are
bit-identical to training it alone.  Folds of one training size share their
step count and sampler layout and form one stack, so a seed has one or two
stacks; ``jobs > 1`` trains stacks concurrently, with the same bytes.
"""

from __future__ import annotations

import hashlib
import json
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from ._files import atomic_write
from .datasets import Dataset, kfold_indices
from .mlp import (
    MAX_LOSS,
    MLPParams,
    init_params,
    predict_proba,
    sgd_step,
    true_class_prob,
    weighted_loss_gradient,
)
from .sampler import HardnessWeightedSampler, SamplerConfig, UniformReplacementSampler
from .scores import ScoreRow, ScoreTable

__all__ = [
    "SCORE_REGION",
    "CHECKPOINT_MAGIC",
    "TrainConfig",
    "TrainState",
    "CrossValResult",
    "init_state",
    "init_stack",
    "run_epochs",
    "train_erm",
    "train_dro",
    "train_replacement_erm",
    "ensemble_predict",
    "cross_validate",
    "config_digest",
    "save_checkpoint",
    "load_checkpoint",
]

SCORE_REGION = "overall"

CHECKPOINT_MAGIC = b"DROCKPT1"

MODES = ("erm", "dro")


@dataclass(frozen=True)
class TrainConfig:
    """Shared knobs for both regimes; ``sampler`` only matters in dro mode.

    When mode is dro and ``sampler`` is omitted, stale losses start at the
    loss ceiling so every sample stays competitive until first visited.
    """

    epochs: int = 30
    batch_size: int = 32
    learning_rate: float = 0.05
    mode: str = "erm"
    sampler: SamplerConfig = None
    folds: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.folds < 1:
            raise ValueError(f"folds must be >= 1, got {self.folds}")
        if self.sampler is None and self.mode == "dro":
            object.__setattr__(self, "sampler", SamplerConfig(init_loss=MAX_LOSS))

    def to_dict(self) -> dict:
        d = {
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "learning_rate": self.learning_rate,
            "mode": self.mode,
            "folds": self.folds,
            "seed": self.seed,
        }
        if self.sampler is not None:
            d["sampler"] = {
                "beta": self.sampler.beta,
                "w_min": self.sampler.w_min,
                "w_max": self.sampler.w_max,
                "init_loss": self.sampler.init_loss,
            }
        return d

    @classmethod
    def from_dict(cls, obj: dict) -> "TrainConfig":
        if not isinstance(obj, dict):
            raise ValueError(f"train config must be an object, got {type(obj).__name__}")
        known = {"epochs", "batch_size", "learning_rate", "mode", "folds", "seed", "sampler"}
        unknown = set(obj) - known
        if unknown:
            raise ValueError(f"unknown train config fields: {sorted(unknown)}")
        kwargs = dict(obj)
        if "sampler" in kwargs and kwargs["sampler"] is not None:
            s = kwargs["sampler"]
            s_known = {"beta", "w_min", "w_max", "init_loss"}
            s_unknown = set(s) - s_known
            if s_unknown:
                raise ValueError(f"unknown sampler config fields: {sorted(s_unknown)}")
            kwargs["sampler"] = SamplerConfig(**s)
        return cls(**kwargs)


@dataclass
class TrainState:
    """Mid-run snapshot: parameters plus whichever RNG the regime uses.

    The state of a stack of M models (see :func:`init_stack`) holds stacked
    parameters and either a list of M generators or a stacked sampler.
    """

    params: MLPParams
    epoch: int
    mode: str
    rng: np.random.Generator = None
    sampler: HardnessWeightedSampler = None

    def unstack(self) -> list:
        """One state per model of a stack, viewing (not copying) its arrays."""
        m = self.params.weights[0].shape[0]
        rngs = self.rng if self.rng is not None else [None] * m
        samplers = self.sampler.unstack() if self.sampler is not None else [None] * m
        return [
            TrainState(
                MLPParams([w[k] for w in self.params.weights], [b[k] for b in self.params.biases]),
                self.epoch,
                self.mode,
                rngs[k],
                samplers[k],
            )
            for k in range(m)
        ]


def _check_dims(dataset: Dataset, dims) -> tuple:
    dims = tuple(int(v) for v in dims)
    if dims[0] != dataset.features.shape[1]:
        raise ValueError(f"model input size {dims[0]} != feature dimension {dataset.features.shape[1]}")
    if len(dataset) and dims[-1] <= int(dataset.labels.max()):
        raise ValueError(f"model has {dims[-1]} outputs but labels reach {int(dataset.labels.max())}")
    return dims


def init_stack(n: int, dims, config: TrainConfig, seeds) -> TrainState:
    """Fresh state for a stack of models on ``n`` cases each, one per seed.

    Model k starts exactly as :func:`init_state` starts a run whose config
    has seed ``seeds[k]``.
    """
    streams = [np.random.SeedSequence(seed).spawn(2) for seed in seeds]
    models = [init_params(dims, init_ss) for init_ss, _ in streams]
    params = MLPParams(
        [np.stack(ws) for ws in zip(*(p.weights for p in models))],
        [np.stack(bs) for bs in zip(*(p.biases for p in models))],
    )
    loops = [loop_ss for _, loop_ss in streams]
    if config.mode == "dro":
        return TrainState(params, 0, "dro", sampler=HardnessWeightedSampler.stacked(n, config.sampler, loops))
    return TrainState(params, 0, "erm", rng=[np.random.default_rng(ss) for ss in loops])


def init_state(n: int, dims, config: TrainConfig) -> TrainState:
    """Fresh state for a run: params and the regime RNG, both seed-derived."""
    return init_stack(n, dims, config, [config.seed]).unstack()[0]


def run_epochs(
    state: TrainState, dataset: Dataset, config: TrainConfig, n_epochs: int, rows=None
) -> TrainState:
    """Advance the run by ``n_epochs``; mutates and returns ``state``.

    An epoch is floor(n / batch_size) SGD steps in both regimes, so the two
    see the same number of updates per epoch.  A stack of M models (see
    :func:`init_stack`) takes ``rows``, an (M, n) array of dataset rows:
    model k trains on ``dataset.subset(rows[k])``, bit for bit, without that
    subset being built.
    """
    if rows is None:  # one model on the whole dataset, in order
        rows, rngs, lead = np.arange(len(dataset)), [state.rng], ()
    else:
        rows, rngs = np.asarray(rows), state.rng
        lead = (np.arange(len(rows))[:, None],)
    # rows[lead + (i,)] maps each model's case positions i to dataset rows.
    n = rows.shape[-1]
    if config.batch_size > n:
        raise ValueError(f"batch_size {config.batch_size} exceeds dataset size {n}")
    X, y = dataset.features, dataset.labels
    steps = n // config.batch_size
    b = config.batch_size
    ones = np.ones(rows.shape[:-1] + (b,))
    for _ in range(n_epochs):
        if state.mode == "erm":
            perm = np.stack([rng.permutation(n) for rng in rngs]).reshape(rows.shape)
            order = rows[lead + (perm,)]
            for k in range(steps):
                idx = order[..., k * b : (k + 1) * b]
                _, grad = weighted_loss_gradient(state.params, X[idx], y[idx], ones)
                state.params = sgd_step(state.params, grad, config.learning_rate)
        else:
            # Each model draws from its own tree; the update serves the stack.
            trees = state.sampler.unstack()
            idx, w = np.empty(ones.shape, dtype=np.intp), np.empty(ones.shape)
            idx_rows, w_rows = idx.reshape(-1, b), w.reshape(-1, b)
            for _ in range(steps):
                for k, tree in enumerate(trees):
                    idx_rows[k], w_rows[k] = tree.draw(b)
                at = rows[lead + (idx,)]
                losses, grad = weighted_loss_gradient(state.params, X[at], y[at], w)
                state.params = sgd_step(state.params, grad, config.learning_rate)
                # Sampler sees raw losses: it models the loss landscape, not
                # the reweighted estimator.
                state.sampler.update_losses(idx, losses)
        state.epoch += 1
    return state


def train_erm(dataset: Dataset, dims, config: TrainConfig) -> MLPParams:
    """Mean-loss SGD over shuffled without-replacement epochs."""
    if config.mode != "erm":
        raise ValueError(f"train_erm requires mode 'erm', got {config.mode!r}")
    dims = _check_dims(dataset, dims)
    state = init_state(len(dataset), dims, config)
    return run_epochs(state, dataset, config, config.epochs).params


def train_dro(dataset: Dataset, dims, config: TrainConfig) -> MLPParams:
    """Robust training: hardness-weighted batches with importance weights."""
    if config.mode != "dro":
        raise ValueError(f"train_dro requires mode 'dro', got {config.mode!r}")
    dims = _check_dims(dataset, dims)
    state = init_state(len(dataset), dims, config)
    return run_epochs(state, dataset, config, config.epochs).params


def train_replacement_erm(dataset: Dataset, dims, config: TrainConfig) -> MLPParams:
    """Mean-loss SGD with uniform with-replacement batches.

    Exists for apples-to-apples comparison against the robust regime, whose
    sampling is necessarily with-replacement: with beta -> 0 and unit
    clipping the robust regime equals this one in law.
    """
    dims = _check_dims(dataset, dims)
    n = len(dataset)
    if config.batch_size > n:
        raise ValueError(f"batch_size {config.batch_size} exceeds dataset size {n}")
    init_ss, loop_ss = np.random.SeedSequence(config.seed).spawn(2)
    params = init_params(dims, init_ss)
    sampler = UniformReplacementSampler(n, seed=loop_ss)
    X, y = dataset.features, dataset.labels
    steps = n // config.batch_size
    for _ in range(config.epochs):
        for _ in range(steps):
            idx, w = sampler.draw(config.batch_size)
            _, grad = weighted_loss_gradient(params, X[idx], y[idx], w)
            params = sgd_step(params, grad, config.learning_rate)
    return params


def ensemble_predict(models, features) -> np.ndarray:
    """Arithmetic mean of per-model softmax probabilities; rows sum to 1."""
    if not models:
        raise ValueError("ensemble_predict needs at least one model")
    dims = models[0].dims
    if any(m.dims != dims for m in models):
        raise ValueError("ensemble models must share layer dimensions")
    X = np.atleast_2d(np.asarray(features, dtype=float))
    stacked = np.stack([predict_proba(m, X) for m in models])
    return stacked.mean(axis=0)


@dataclass
class CrossValResult:
    """Per-fold models/states plus the cross-validated score table."""

    dims: tuple
    states: list
    fold_configs: list
    splits: list
    table: ScoreTable


def _fold_seed(seed: int, fold: int) -> int:
    return int(np.random.SeedSequence([seed, fold]).generate_state(1, dtype=np.uint64)[0])


def cross_validate(dataset: Dataset, hidden_dims, config: TrainConfig, jobs: int = 1) -> CrossValResult:
    """Train one model per fold; score each case by its fold's model.

    Fold membership depends only on (n, folds, seed), so two arms sharing a
    seed score exactly the same held-out cases.  Scores are the probability
    the model assigns to the true class, in [0, 1].  Folds of one training
    size train in lockstep as one stack; ``jobs > 1`` trains up to ``jobs``
    of these stacks concurrently, with identical results.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    n = len(dataset)
    dims = (dataset.features.shape[1],) + tuple(int(h) for h in hidden_dims) + (dataset.n_classes,)
    splits = kfold_indices(n, config.folds, config.seed)
    fold_configs = [replace(config, seed=_fold_seed(config.seed, f)) for f in range(len(splits))]
    # Folds of one training size share step count and sampler layout.
    by_size: dict = {}
    for f, (train_idx, _) in enumerate(splits):
        by_size.setdefault(train_idx.size, []).append(f)
    stacks = list(by_size.values())

    def run_stack(folds: list) -> list:
        rows = np.stack([splits[f][0] for f in folds])
        state = init_stack(rows.shape[1], dims, config, [fold_configs[f].seed for f in folds])
        return run_epochs(state, dataset, config, config.epochs, rows=rows).unstack()

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            trained = list(pool.map(run_stack, stacks))
    else:
        trained = [run_stack(folds) for folds in stacks]
    states = [None] * len(splits)
    for folds, fold_states in zip(stacks, trained):
        for f, state in zip(folds, fold_states):
            states[f] = state

    scores = np.empty(n)
    for f, (_, val_idx) in enumerate(splits):
        scores[val_idx] = true_class_prob(
            states[f].params, dataset.features[val_idx], dataset.labels[val_idx]
        )
    table = ScoreTable(
        [
            ScoreRow(dataset.case_ids[i], dataset.groups[i], SCORE_REGION, float(scores[i]))
            for i in range(n)
        ]
    )
    return CrossValResult(dims, states, fold_configs, splits, table)


def config_digest(config: TrainConfig, dims) -> bytes:
    """32-byte digest pinning (config, model dims); stored in checkpoints."""
    doc = {"config": config.to_dict(), "dims": [int(v) for v in dims]}
    return hashlib.sha256(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()).digest()


def _params_blob(params: MLPParams) -> bytes:
    parts = []
    for w, b in zip(params.weights, params.biases):
        parts.append(np.ascontiguousarray(w, dtype="<f8").tobytes())
        parts.append(np.ascontiguousarray(b, dtype="<f8").tobytes())
    return b"".join(parts)


def _params_from_blob(blob: bytes, dims) -> MLPParams:
    weights, biases = [], []
    offset = 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        w_bytes = 8 * fan_out * fan_in
        weights.append(
            np.frombuffer(blob, dtype="<f8", count=fan_out * fan_in, offset=offset)
            .reshape(fan_out, fan_in)
            .copy()
        )
        offset += w_bytes
        biases.append(np.frombuffer(blob, dtype="<f8", count=fan_out, offset=offset).copy())
        offset += 8 * fan_out
    if offset != len(blob):
        raise ValueError(f"checkpoint parameter blob has {len(blob)} bytes, expected {offset}")
    return MLPParams(weights, biases)


def save_checkpoint(path, state: TrainState, config: TrainConfig) -> None:
    """Binary layout: magic, config digest, meta length, JSON meta, f64 params.

    The file is replaced whole, never left half-written.
    """
    dims = state.params.dims
    meta = {
        "dims": list(dims),
        "epoch": state.epoch,
        "mode": state.mode,
        "rng_state": state.rng.bit_generator.state if state.rng is not None else None,
        "sampler": state.sampler.state_dict() if state.sampler is not None else None,
    }
    meta_bytes = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
    with atomic_write(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(config_digest(config, dims))
        fh.write(struct.pack("<Q", len(meta_bytes)))
        fh.write(meta_bytes)
        fh.write(_params_blob(state.params))


def load_checkpoint(path, config: TrainConfig) -> TrainState:
    """Restore a state; refuses files written under a different config."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:8] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint file (bad magic)")
    digest = raw[8:40]
    (meta_len,) = struct.unpack("<Q", raw[40:48])
    meta = json.loads(raw[48 : 48 + meta_len].decode())
    if digest != config_digest(config, meta["dims"]):
        raise ValueError(f"{path}: checkpoint was written under a different configuration")
    params = _params_from_blob(raw[48 + meta_len :], meta["dims"])
    state = TrainState(params, int(meta["epoch"]), meta["mode"])
    if meta["rng_state"] is not None:
        state.rng = np.random.default_rng()
        state.rng.bit_generator.state = meta["rng_state"]
    if meta["sampler"] is not None:
        state.sampler = HardnessWeightedSampler.from_state_dict(meta["sampler"])
    return state
