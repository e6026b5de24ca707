"""Training regimes and orchestration: mean-loss SGD, robust training via
hardness-weighted sampling, fold ensembling, and checkpoints.

Every regime trains through one loop, :func:`run_epochs`.  Each step draws
a batch of case positions with importance weights, gathers their rows,
takes one SGD step on the weighted-mean gradient, and feeds the raw losses
back to whatever drew the batch.  The state picks the regime.  A state that
holds generators trains on mean loss: each epoch shuffles the training set
and walks it in mini-batches without replacement, with unit weights and no
feedback.  A state that holds a sampler draws each batch with replacement
from it and feeds it the losses: a :class:`HardnessWeightedSampler` gives
the robust regime, whose draws follow the softmax of the stale losses with
clipped importance weights, and a :class:`UniformReplacementSampler`, which
ignores the losses, gives mean-loss training with replacement.  Everything
is deterministic given the config seed, and a checkpoint restores mid-run
state exactly: running a+b epochs equals running a, saving, loading, and
running b.

Cross-validation trains the folds of one seed in lockstep, as a stack: the
parameters carry a leading fold axis, each step makes one gradient call and
one SGD call for the whole stack, and the robust regime's sampler holds one
sum tree per fold along the same axis, updated once per step for the whole
stack.  Each fold keeps its own RNG stream, draws its batch from its own
tree, and gathers it from the full feature matrix through its own training
rows, and every stacked operation acts on each fold exactly as the
unstacked one does, so a fold's trajectory, checkpoint and scores are
bit-identical to training it alone.  Folds whose training sizes give one
step count and one sampler tree shape form one stack, even when the sizes
differ by a case; the folds of one seed, whose sizes differ by at most one,
almost always form a single stack.
"""

from __future__ import annotations

import hashlib
import json
import struct
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
from .sampler import HardnessWeightedSampler, SamplerConfig, UniformReplacementSampler, tree_shape
from .scores import ScoreTable

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
    "plan_folds",
    "cross_validate",
    "config_digest",
    "save_checkpoint",
    "load_checkpoint",
]

SCORE_REGION = "overall"

CHECKPOINT_MAGIC = b"DROCKPT1"

# Rows scored per call.  Smaller blocks can change score bits: with 256-row
# blocks OpenBLAS takes another path for small matrices.
SCORE_BLOCK = 4096

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
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
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
        theta, dims = self.params.theta, self.params.dims
        rngs = self.rng if self.rng is not None else [None] * len(theta)
        samplers = self.sampler.unstack() if self.sampler is not None else [None] * len(theta)
        return [
            TrainState(MLPParams.from_theta(theta[k], dims), self.epoch, self.mode, rngs[k], samplers[k])
            for k in range(len(theta))
        ]


def _check_dims(dataset: Dataset, dims) -> tuple:
    dims = tuple(int(v) for v in dims)
    if dims[0] != dataset.features.shape[1]:
        raise ValueError(f"model input size {dims[0]} != feature dimension {dataset.features.shape[1]}")
    if len(dataset) and dims[-1] <= int(dataset.labels.max()):
        raise ValueError(f"model has {dims[-1]} outputs but labels reach {int(dataset.labels.max())}")
    return dims


def init_stack(sizes, dims, config: TrainConfig, seeds) -> TrainState:
    """Fresh state for a stack of models, model k on ``sizes[k]`` cases.

    Model k starts exactly as :func:`init_state` starts a run on
    ``sizes[k]`` cases whose config has seed ``seeds[k]``.  In the robust
    regime the sizes must share one sampler tree shape.
    """
    streams = [np.random.SeedSequence(seed).spawn(2) for seed in seeds]
    theta = np.stack([init_params(dims, init_ss).theta for init_ss, _ in streams])
    params = MLPParams.from_theta(theta, dims)
    loops = [loop_ss for _, loop_ss in streams]
    if config.mode == "dro":
        return TrainState(params, 0, "dro", sampler=HardnessWeightedSampler.stacked(sizes, config.sampler, loops))
    return TrainState(params, 0, "erm", rng=[np.random.default_rng(ss) for ss in loops])


def init_state(n: int, dims, config: TrainConfig) -> TrainState:
    """Fresh state for a run: params and the regime RNG, both seed-derived."""
    return init_stack([n], dims, config, [config.seed]).unstack()[0]


def run_epochs(
    state: TrainState, dataset: Dataset, config: TrainConfig, n_epochs: int, rows=None
) -> TrainState:
    """Advance the run by ``n_epochs``; mutates and returns ``state``.

    An epoch is floor(n / batch_size) SGD steps in every regime, so all see
    the same number of updates per epoch.  A state without a sampler
    shuffles with its generators; a state with one draws from it and feeds
    it the raw losses.  A stack of M models (see :func:`init_stack`) takes
    ``rows``, M arrays of dataset rows whose lengths give one step count:
    model k trains on ``dataset.subset(rows[k])``, bit for bit, without that
    subset being built.
    """
    if rows is None:  # one model on the whole dataset, in order
        rows, rngs, lead = [np.arange(len(dataset))], [state.rng], ()
    else:
        rngs, lead = state.rng, (np.arange(len(rows))[:, None],)
    sizes = [len(r) for r in rows]
    b = config.batch_size
    if b > min(sizes):
        raise ValueError(f"batch_size {b} exceeds dataset size {min(sizes)}")
    steps = sizes[0] // b
    if any(n // b != steps for n in sizes):
        raise ValueError(f"the models of a stack need one step count, got sizes {sizes} for batch_size {b}")
    # table[lead + (i,)] maps each model's case positions i to dataset rows;
    # a shorter model's row ends in padding that no position reaches.
    table = np.zeros((len(rows), max(sizes)), dtype=np.intp)
    for k, r in enumerate(rows):
        table[k, : len(r)] = r
    table = table if lead else table[0]
    X, y = dataset.features, dataset.labels
    shape = table.shape[:-1] + (b,)

    if state.sampler is None:
        ones = np.ones(shape)

        def batches():
            # Each model shuffles its own cases; the first steps * b are walked.
            perm = np.stack([rng.permutation(n)[: steps * b] for rng, n in zip(rngs, sizes)])
            at = table[lead + (perm.reshape(table.shape[:-1] + (-1,)),)]
            return ((at[..., k * b : (k + 1) * b], None, ones) for k in range(steps))

    else:
        # Each model draws from its own tree; the update serves the stack.
        trees = state.sampler.unstack()
        tree_sizes = [tree.n for tree in trees]
        if tree_sizes != sizes:
            raise ValueError(f"sampler trees of sizes {tree_sizes} do not fit rows of sizes {sizes}")
        idx, w = np.empty(shape, dtype=np.intp), np.empty(shape)
        idx_rows, w_rows = idx.reshape(-1, b), w.reshape(-1, b)

        def batches():
            for _ in range(steps):
                for k, tree in enumerate(trees):
                    idx_rows[k], w_rows[k] = tree.draw(b)
                yield table[lead + (idx,)], idx, w

    for _ in range(n_epochs):
        for at, idx, w in batches():
            losses, grad = weighted_loss_gradient(state.params, X[at], y[at], w)
            state.params = sgd_step(state.params, grad, config.learning_rate)
            if state.sampler is not None:
                # Sampler sees raw losses: it models the loss landscape, not
                # the reweighted estimator.
                state.sampler.update_losses(idx, losses)
        state.epoch += 1
    return state


def _train(dataset: Dataset, dims, config: TrainConfig, mode: str) -> MLPParams:
    if config.mode != mode:
        raise ValueError(f"train_{mode} requires mode {mode!r}, got {config.mode!r}")
    state = init_state(len(dataset), _check_dims(dataset, dims), config)
    return run_epochs(state, dataset, config, config.epochs).params


def train_erm(dataset: Dataset, dims, config: TrainConfig) -> MLPParams:
    """Mean-loss SGD over shuffled without-replacement epochs."""
    return _train(dataset, dims, config, "erm")


def train_dro(dataset: Dataset, dims, config: TrainConfig) -> MLPParams:
    """Robust training: hardness-weighted batches with importance weights."""
    return _train(dataset, dims, config, "dro")


def train_replacement_erm(dataset: Dataset, dims, config: TrainConfig) -> MLPParams:
    """Mean-loss SGD with uniform with-replacement batches.

    Exists for apples-to-apples comparison against the robust regime, whose
    sampling is necessarily with-replacement: with beta -> 0 and unit
    clipping the robust regime equals this one in law.
    """
    init_ss, loop_ss = np.random.SeedSequence(config.seed).spawn(2)
    params = init_params(_check_dims(dataset, dims), init_ss)
    state = TrainState(params, 0, "erm", sampler=UniformReplacementSampler(len(dataset), seed=loop_ss))
    return run_epochs(state, dataset, config, config.epochs).params


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


def plan_folds(dataset: Dataset, hidden_dims, config: TrainConfig) -> tuple:
    """``(dims, splits)`` of a cross-validation run, checked before it trains.

    Raises ``ValueError`` when the folds cannot be split or a batch does not
    fit the smallest fold's training split.
    """
    dims = (dataset.features.shape[1],) + tuple(int(h) for h in hidden_dims) + (dataset.n_classes,)
    splits = kfold_indices(len(dataset), config.folds, config.seed)
    smallest = min(train_idx.size for train_idx, _ in splits)
    if config.batch_size > smallest:
        raise ValueError(
            f"batch_size {config.batch_size} exceeds the smallest fold's training split of {smallest} cases"
        )
    return dims, splits


def _score_rows(params: MLPParams, dataset: Dataset, rows) -> np.ndarray:
    """True-class probabilities of ``dataset``'s ``rows``, scored in blocks.

    Blocks of :data:`SCORE_BLOCK` rows bound the activations held at once;
    each score is bit-identical to scoring all rows in one call.
    """
    out = np.empty(rows.size)
    for start in range(0, rows.size, SCORE_BLOCK):
        block = rows[start : start + SCORE_BLOCK]
        X, y = dataset.features[block], dataset.labels[block]
        out[start : start + block.size] = true_class_prob(params, X, y)
    return out


def cross_validate(dataset: Dataset, hidden_dims, config: TrainConfig) -> CrossValResult:
    """Train one model per fold; score each held-out case by its fold's model.

    Fold membership depends only on (n, folds, seed), so two arms sharing a
    seed score exactly the same held-out cases, in dataset order: every
    case for two or more folds, the held-out fifth for one.  Scores are the
    probability the model assigns to the true class, in [0, 1].  Folds whose
    training sizes share the step count and the sampler tree shape train in
    lockstep as one stack.
    """
    dims, splits = plan_folds(dataset, hidden_dims, config)
    fold_configs = [replace(config, seed=_fold_seed(config.seed, f)) for f in range(len(splits))]
    stacks: dict = {}
    for f, (train_idx, _) in enumerate(splits):
        n = train_idx.size
        stacks.setdefault((n // config.batch_size, tree_shape(n)), []).append(f)
    states = [None] * len(splits)
    for folds in stacks.values():
        rows = [splits[f][0] for f in folds]
        state = init_stack([r.size for r in rows], dims, config, [fold_configs[f].seed for f in folds])
        trained = run_epochs(state, dataset, config, config.epochs, rows=rows)
        for f, fold_state in zip(folds, trained.unstack()):
            states[f] = fold_state

    scores = np.empty(len(dataset))
    for f, (_, val_idx) in enumerate(splits):
        scores[val_idx] = _score_rows(states[f].params, dataset, val_idx)
    held_out = np.sort(np.concatenate([val_idx for _, val_idx in splits]))
    rows = held_out.tolist()
    table = ScoreTable.from_columns(
        [dataset.case_ids[i] for i in rows],
        [dataset.groups[i] for i in rows],
        [SCORE_REGION] * len(rows),
        scores[held_out],
    )
    return CrossValResult(dims, states, fold_configs, splits, table)


def config_digest(config: TrainConfig, dims) -> bytes:
    """32-byte digest pinning (config, model dims); stored in checkpoints."""
    doc = {"config": config.to_dict(), "dims": [int(v) for v in dims]}
    return hashlib.sha256(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()).digest()


def _params_blob(params: MLPParams) -> bytes:
    """``theta`` as little-endian f64: ``W0, b0, W1, b1, ...`` of each model in turn."""
    return params.theta.astype("<f8", copy=False).tobytes()


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
    """Restore a state; refuses files written under a different config.

    A truncated or corrupt file raises ``ValueError`` naming ``path``.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:8] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint file (bad magic)")
    meta_len = int.from_bytes(raw[40:48], "little")
    if len(raw) < 48 + meta_len:
        raise ValueError(f"{path}: truncated checkpoint, {len(raw)} bytes of {48 + meta_len} or more")
    meta = json.loads(raw[48 : 48 + meta_len])
    dims = tuple(meta["dims"])
    blob = raw[48 + meta_len :]
    if raw[8:40] != config_digest(config, dims):
        raise ValueError(f"{path}: checkpoint was written under a different configuration")
    size = 8 * sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(dims[:-1], dims[1:]))
    if len(blob) != size:
        raise ValueError(f"{path}: checkpoint parameter blob has {len(blob)} bytes, expected {size}")
    params = MLPParams.from_theta(np.frombuffer(blob, dtype="<f8").astype(float), dims)
    state = TrainState(params, int(meta["epoch"]), meta["mode"])
    if meta["rng_state"] is not None:
        state.rng = np.random.default_rng()
        state.rng.bit_generator.state = meta["rng_state"]
    if meta["sampler"] is not None:
        state.sampler = HardnessWeightedSampler.from_state_dict(meta["sampler"])
    return state
