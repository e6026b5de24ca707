"""Training regimes and orchestration: mean-loss SGD, robust training via
hardness-weighted sampling, fold ensembling, and checkpoints.

Every regime trains through one loop, :func:`run_epochs`.  Each step draws
a batch of case positions with importance weights, gathers their rows,
takes one SGD step on the weighted-mean gradient, and feeds the raw losses
back to the sampler that drew the batch.  The config alone decides what a
run does, and the state records only where it is.  A state that holds
generators trains on mean loss: each epoch shuffles the training set and
walks it in mini-batches without replacement, with unit weights and no
feedback.  A state that holds a :class:`HardnessWeightedSampler` draws each
batch with replacement from it.  In the robust regime (config mode
``"dro"``) the sampler is fed the losses, so its draws follow the softmax
of the stale losses with clipped importance weights; in mode ``"erm"`` it
is never fed, so it draws uniformly with unit weights: mean-loss training
with replacement.  Everything is deterministic
given the config seed, and a checkpoint restores mid-run state exactly:
running a+b epochs equals running a, saving, loading, and running b.

Cross-validation trains folds in lockstep, as a stack: the parameters
carry a leading model axis, each step makes one gradient call and one SGD
call for the whole stack, and the robust regime's sampler holds one sum
tree per fold along the same axis, updated once per step for the whole
stack.  Each fold keeps its own RNG stream, draws its batch from its own
tree or walks its own shuffle, and gathers it from the full feature matrix
through its own training rows, and every stacked operation acts on each
fold exactly as the unstacked one does, so a fold's trajectory, checkpoint
and scores are bit-identical to training it alone.  Folds whose training
sizes give one step count and one sampler tree shape form one stack, even
when the sizes differ by a case.  A mean-loss run stacks the folds of all
its seeds, since a model holds only its parameters, a generator and 16
bytes per training case (its rows and its epoch's order).  A robust run
stacks one seed's folds at a time: each tree holds 24 bytes per case, and
the 50 trees of ten 5-fold seeds of a 2000-case run, stacked, lifted its
peak resident memory from 38.4 to about 42.5 MiB.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import asdict, dataclass, replace

import numpy as np

from ._files import atomic_write
from .datasets import Dataset, kfold_indices
from .mlp import (
    MAX_LOSS,
    MLPParams,
    init_params,
    param_count,
    sgd_step,
    true_class_prob,
    weighted_loss_gradient,
)
from .sampler import HardnessWeightedSampler, SamplerConfig, tree_shape
from .scores import ScoreTable

__all__ = [
    "SCORE_REGION",
    "CHECKPOINT_MAGIC",
    "TrainConfig",
    "TrainState",
    "TrainingDiverged",
    "CrossValResult",
    "check_dims",
    "init_state",
    "init_stack",
    "run_epochs",
    "train_erm",
    "train_dro",
    "train_replacement_erm",
    "plan_folds",
    "cross_validate",
    "cross_validate_seeds",
    "config_digest",
    "save_checkpoint",
    "load_checkpoint",
]

SCORE_REGION = "overall"

CHECKPOINT_MAGIC = b"DROCKPT1"

# Rows scored per call.  Smaller blocks can change score bits: with 256-row
# blocks OpenBLAS takes another path for small matrices.
SCORE_BLOCK = 4096

# Sampler leaves encoded per write of a checkpoint's meta: enough that the
# writes cost little, few enough that their text stays small at any n.
CHECKPOINT_SLICE = 4096

MODES = ("erm", "dro")


@dataclass(frozen=True)
class TrainConfig:
    """Shared knobs for both regimes; only mode dro takes a ``sampler``.

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
        if self.sampler is not None and self.mode != "dro":
            raise ValueError(f"only mode 'dro' takes a sampler, got mode {self.mode!r}")
        if self.sampler is None and self.mode == "dro":
            object.__setattr__(self, "sampler", SamplerConfig(init_loss=MAX_LOSS))

    def to_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}


@dataclass
class TrainState:
    """Mid-run snapshot: parameters plus whichever RNG the regime uses.

    The state of a stack of M models (see :func:`init_stack`) holds stacked
    parameters and either a list of M generators or a stacked sampler.  A
    sampler learns from the losses only when the config's mode is ``"dro"``.
    """

    params: MLPParams
    epoch: int
    rng: np.random.Generator = None
    sampler: HardnessWeightedSampler = None

    def unstack(self) -> list:
        """One state per model of a stack, viewing (not copying) its arrays."""
        theta, dims = self.params.theta, self.params.dims
        rngs = self.rng if self.rng is not None else [None] * len(theta)
        samplers = self.sampler.unstack() if self.sampler is not None else [None] * len(theta)
        return [
            TrainState(MLPParams.from_theta(theta[k], dims), self.epoch, rngs[k], samplers[k])
            for k in range(len(theta))
        ]


class TrainingDiverged(ArithmeticError):
    """A run's arithmetic left the finite numbers: its step size is too large.

    ``models`` are the positions in the stack (fold numbers of the config
    seed ``seed``, once :func:`cross_validate_seeds` re-raises it) that may
    have caused it: those whose parameters are not finite at the end of
    ``epoch``, or every model of the stack when a step's arithmetic
    overflowed.  Epochs count from 1.
    """

    def __init__(self, epoch: int, models, reason: str, seed: int = None):
        self.epoch, self.models, self.reason, self.seed = epoch, list(models), reason, seed
        super().__init__(f"epoch {epoch}, models {self.models}: {reason}")


def check_dims(dataset: Dataset, dims) -> tuple:
    """``dims`` as ints, once a model of those layer sizes fits ``dataset``:
    its input takes the features and its outputs cover the labels."""
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
        return TrainState(params, 0, sampler=HardnessWeightedSampler.stacked(sizes, config.sampler, loops))
    return TrainState(params, 0, rng=[np.random.default_rng(ss) for ss in loops])


def init_state(n: int, dims, config: TrainConfig) -> TrainState:
    """Fresh state for a run: params and the regime RNG, both seed-derived."""
    return init_stack([n], dims, config, [config.seed]).unstack()[0]


def run_epochs(
    state: TrainState, dataset: Dataset, config: TrainConfig, n_epochs: int, rows=None
) -> TrainState:
    """Advance the run by ``n_epochs``; mutates and returns ``state``.

    An epoch is floor(n / batch_size) SGD steps in every regime, so all see
    the same number of updates per epoch.  A state without a sampler
    shuffles with its generators; a state with one draws from it, and feeds
    it the raw losses when the config's mode is ``"dro"``.  A step whose
    arithmetic overflows, or an epoch that leaves a model's parameters not
    finite, raises :class:`TrainingDiverged`.  A stack of M models (see
    :func:`init_stack`) takes ``rows``, M arrays of dataset rows whose
    lengths give one step count: model k trains on the dataset's rows
    ``rows[k]``, bit for bit as on a dataset of just those rows, without
    that dataset being built.
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
    X, y = dataset.features, dataset.labels
    shape = (len(rows), b) if lead else (b,)

    if state.sampler is None:
        ones = np.ones(shape)
        # order[k] holds the dataset rows model k walks in an epoch.
        order = np.empty((len(rows), steps * b), dtype=np.intp)
        walked = order if lead else order[0]

        def batches():
            # Each model shuffles its own cases; the first steps * b are walked.
            for k, (rng, r) in enumerate(zip(rngs, rows)):
                order[k] = r[rng.permutation(len(r))[: steps * b]]
            return ((walked[..., j * b : (j + 1) * b], None, ones) for j in range(steps))

    else:
        # Each model draws from its own tree; the update serves the stack.
        trees = state.sampler.unstack()
        tree_sizes = [tree.n for tree in trees]
        if tree_sizes != sizes:
            raise ValueError(f"sampler trees of sizes {tree_sizes} do not fit rows of sizes {sizes}")
        # table[lead + (i,)] maps each model's case positions i to dataset rows;
        # a shorter model's row ends in padding that no position reaches.
        table = np.zeros((len(rows), max(sizes)), dtype=np.intp)
        for k, r in enumerate(rows):
            table[k, : len(r)] = r
        table = table if lead else table[0]
        idx, w = np.empty(shape, dtype=np.intp), np.empty(shape)
        idx_rows, w_rows = idx.reshape(-1, b), w.reshape(-1, b)

        def batches():
            for _ in range(steps):
                for k, tree in enumerate(trees):
                    idx_rows[k], w_rows[k] = tree.draw(b)
                yield table[lead + (idx,)], idx, w

    for _ in range(n_epochs):
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                for at, idx, w in batches():
                    losses, grad = weighted_loss_gradient(state.params, X[at], y[at], w)
                    state.params = sgd_step(state.params, grad, config.learning_rate)
                    if config.mode == "dro":
                        # Sampler sees raw losses: it models the loss
                        # landscape, not the reweighted estimator.
                        state.sampler.update_losses(idx, losses)
        except FloatingPointError as exc:
            raise TrainingDiverged(state.epoch + 1, range(len(rows)), str(exc)) from None
        state.epoch += 1
        finite = np.isfinite(state.params.theta.reshape(len(rows), -1)).all(axis=1)
        if not finite.all():
            raise TrainingDiverged(state.epoch, np.flatnonzero(~finite).tolist(), "parameters are not finite")
    return state


def _train(dataset: Dataset, dims, config: TrainConfig, mode: str, replacement: bool = False) -> MLPParams:
    if config.mode != mode:
        raise ValueError(f"{mode} training requires mode {mode!r}, got {config.mode!r}")
    state = init_state(len(dataset), check_dims(dataset, dims), config)
    if replacement:  # draw with replacement from the loop generator
        state.rng, state.sampler = None, HardnessWeightedSampler(len(dataset), seed=state.rng)
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
    sampling is necessarily with-replacement: the same sampler, never fed a
    loss in mode ``"erm"``, draws uniformly with unit weights.
    """
    return _train(dataset, dims, config, "erm", replacement=True)


@dataclass
class CrossValResult:
    """Per-fold models/states plus the cross-validated score table."""

    dims: tuple
    states: list
    fold_configs: list
    splits: list
    table: ScoreTable

    def ensemble_table(self, dataset: Dataset) -> ScoreTable:
        """Every case of ``dataset`` scored by the mean over the fold models
        of the probability each assigns to the true class."""
        rows = np.arange(len(dataset))
        scores = sum(_score_rows(state.params, dataset, rows) for state in self.states) / len(self.states)
        return _score_table(dataset, rows, scores)


def _fold_seed(seed: int, fold: int) -> int:
    return int(np.random.SeedSequence([seed, fold]).generate_state(1, dtype=np.uint64)[0])


def plan_folds(dataset: Dataset, hidden_dims, config: TrainConfig) -> tuple:
    """``(dims, splits)`` of a cross-validation run, checked before it trains.

    Raises ``ValueError`` when the folds cannot be split, a batch does not
    fit the smallest fold's training split, or numpy cannot index the
    model's parameters.
    """
    dims = (dataset.features.shape[1],) + tuple(int(h) for h in hidden_dims) + (dataset.n_classes,)
    param_count(dims)
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


def _score_table(dataset: Dataset, rows, scores) -> ScoreTable:
    """The table of ``dataset``'s ``rows``, in that order, with ``scores``."""
    # Gathered through object arrays, so no Python int is made per row.
    case_ids = np.array(dataset.case_ids, dtype=object)[rows].tolist()
    groups = np.array(dataset.groups, dtype=object)[rows].tolist()
    return ScoreTable.from_columns(case_ids, groups, [SCORE_REGION] * rows.size, scores)


def cross_validate(dataset: Dataset, hidden_dims, config: TrainConfig) -> CrossValResult:
    """Train one model per fold; score each held-out case by its fold's model.

    Fold membership depends only on (n, folds, seed), so two arms sharing a
    seed score exactly the same held-out cases, in dataset order: every
    case for two or more folds, the held-out fifth for one.  Scores are the
    probability the model assigns to the true class, in [0, 1].  This is
    :func:`cross_validate_seeds` of the one config.
    """
    return next(cross_validate_seeds(dataset, hidden_dims, [config]))


def cross_validate_seeds(dataset: Dataset, hidden_dims, configs):
    """One :class:`CrossValResult` per config, yielded in config order, each
    bit-identical to :func:`cross_validate` of that config alone.

    The configs must differ only in ``seed``.  Folds whose training sizes
    share the step count and the sampler tree shape train in lockstep as
    one stack.  In mode ``"erm"`` a model's state is its parameters and a
    generator, so the folds of every seed stack together; all of them
    train before the first seed is scored and yielded.  In mode ``"dro"``
    each tree of a stack holds 24 bytes per case, so only one seed's folds
    stack together: each seed is planned, trained and yielded before the
    next one starts.  A diverging stack raises :class:`TrainingDiverged`
    naming the first seed, in config order, with a diverging fold in that
    stack, and that seed's diverging folds there.
    """
    configs = list(configs)
    if not configs:
        raise ValueError("cross-validation needs at least one config")
    for config in configs:
        if replace(config, seed=configs[0].seed) != configs[0]:
            raise ValueError(f"the configs of one run may differ only in seed, got {configs[0]} and {config}")
    stacked = [configs] if configs[0].mode == "erm" else [[config] for config in configs]
    return _results(dataset, hidden_dims, stacked)


def _results(dataset: Dataset, hidden_dims, stacked):
    """The scored results of each list of configs in ``stacked``, trained together."""
    for configs in stacked:
        results = _train_together(dataset, hidden_dims, configs)
        while results:
            yield _scored(dataset, results.pop(0))


def _train_together(dataset: Dataset, hidden_dims, configs) -> list:
    """The unscored result of each of ``configs``, their folds trained in stacks."""
    results, stacks = [], {}
    for i, config in enumerate(configs):
        dims, splits = plan_folds(dataset, hidden_dims, config)
        fold_configs = [replace(config, seed=_fold_seed(config.seed, f)) for f in range(len(splits))]
        results.append(CrossValResult(dims, [None] * len(splits), fold_configs, splits, None))
        for f, (train_idx, _) in enumerate(splits):
            n = train_idx.size
            stacks.setdefault((n // config.batch_size, tree_shape(n)), []).append((i, f))
    config = configs[0]
    for members in stacks.values():
        rows = [results[i].splits[f][0] for i, f in members]
        seeds = [results[i].fold_configs[f].seed for i, f in members]
        state = init_stack([r.size for r in rows], dims, config, seeds)
        try:
            trained = run_epochs(state, dataset, config, config.epochs, rows=rows)
        except TrainingDiverged as exc:
            named = [members[k] for k in exc.models]
            first = min(i for i, _ in named)
            folds = [f for i, f in named if i == first]
            raise TrainingDiverged(exc.epoch, folds, exc.reason, configs[first].seed) from None
        for (i, f), fold_state in zip(members, trained.unstack()):
            results[i].states[f] = fold_state
    return results


def _scored(dataset: Dataset, result: CrossValResult) -> CrossValResult:
    """``result`` with its table: each held-out case scored by its fold's model."""
    scores = np.empty(len(dataset))
    for f, (_, val_idx) in enumerate(result.splits):
        scores[val_idx] = _score_rows(result.states[f].params, dataset, val_idx)
    held_out = np.sort(np.concatenate([val_idx for _, val_idx in result.splits]))
    result.table = _score_table(dataset, held_out, scores[held_out])
    return result


def config_digest(config: TrainConfig, dims) -> bytes:
    """32-byte digest pinning (config, model dims); stored in checkpoints."""
    doc = {"config": config.to_dict(), "dims": [int(v) for v in dims]}
    return hashlib.sha256(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()).digest()


def _params_blob(params: MLPParams) -> bytes:
    """``theta`` as little-endian f64: ``W0, b0, W1, b1, ...`` of each model in turn."""
    return params.theta.astype("<f8", copy=False).tobytes()


def _write_json(fh, value) -> None:
    """Write ``value`` to the binary file ``fh`` as ``json.dumps(value,
    sort_keys=True, separators=(",", ":"))`` would, each numpy array as the
    list of its values, :data:`CHECKPOINT_SLICE` values at a time.

    ``json`` writes an int by ``int.__repr__`` and a finite float by
    ``float.__repr__``, so the arrays, which hold ints or finite floats,
    give the same bytes without ever being one list or one string.
    """
    if isinstance(value, np.ndarray):
        fh.write(b"[")
        for start in range(0, value.size, CHECKPOINT_SLICE):
            text = ",".join(map(repr, value[start : start + CHECKPOINT_SLICE].tolist()))
            fh.write(("," * (start > 0) + text).encode("ascii"))
        fh.write(b"]")
    elif isinstance(value, dict):
        fh.write(b"{")
        for i, key in enumerate(sorted(value)):
            fh.write(("," * (i > 0) + json.dumps(key) + ":").encode("ascii"))
            _write_json(fh, value[key])
        fh.write(b"}")
    else:
        fh.write(json.dumps(value, sort_keys=True, separators=(",", ":")).encode("ascii"))


def save_checkpoint(path, state: TrainState, config: TrainConfig) -> None:
    """Binary layout: magic, config digest, meta length, JSON meta, f64 params.

    The meta is ``json.dumps(meta, sort_keys=True, separators=(",", ":"))``
    of the run's dims, epoch, mode and RNG: a generator's state, or the
    sampler's :meth:`~HardnessWeightedSampler.state_dict`.  It is written
    by :func:`_write_json`, so a sampler's per-leaf arrays never become
    Python lists or one JSON string, and its length, which precedes it, is
    filled in once it is written.  The file is replaced whole, never left
    half-written.
    """
    dims = state.params.dims
    meta = {
        "dims": list(dims),
        "epoch": state.epoch,
        "mode": config.mode,
        "rng_state": state.rng.bit_generator.state if state.rng is not None else None,
        "sampler": state.sampler._state_arrays() if state.sampler is not None else None,
    }
    with atomic_write(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(config_digest(config, dims))
        fh.write(struct.pack("<Q", 0))  # the meta length, once known
        _write_json(fh, meta)
        end = fh.tell()
        fh.seek(40)
        fh.write(struct.pack("<Q", end - 48))
        fh.seek(end)
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
    try:
        meta = json.loads(raw[48 : 48 + meta_len])
        dims = tuple(meta["dims"])
        digest = config_digest(config, dims)
    except (KeyError, TypeError, ValueError, RecursionError) as exc:  # JSON and UTF-8 errors are ValueErrors
        raise ValueError(f"{path}: corrupt checkpoint meta: {exc!r}") from None
    if raw[8:40] != digest:
        raise ValueError(f"{path}: checkpoint was written under a different configuration")
    try:
        return _restore(meta, raw[48 + meta_len :], dims, config)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: corrupt checkpoint: {exc!r}") from None


def _restore(meta: dict, blob: bytes, dims: tuple, config: TrainConfig) -> TrainState:
    """The state that a checkpoint's meta and parameter blob hold."""
    if meta["mode"] != config.mode:
        raise ValueError(f"stored mode {meta['mode']!r} is not the config's mode {config.mode!r}")
    rng_state, sampler = meta["rng_state"], meta["sampler"]
    if (rng_state is None) == (sampler is None) or (sampler is None and config.mode == "dro"):
        raise ValueError("a checkpoint holds one RNG: a generator in mode 'erm', else a sampler")
    if type(meta["epoch"]) is not int or meta["epoch"] < 0:
        raise ValueError(f"epoch must be an integer >= 0, got {meta['epoch']!r}")
    params = MLPParams.from_theta(np.frombuffer(blob, dtype="<f8").astype(float), dims)
    state = TrainState(params, meta["epoch"])
    if rng_state is not None:
        state.rng = np.random.default_rng()
        state.rng.bit_generator.state = rng_state
    else:
        state.sampler = HardnessWeightedSampler.from_state_dict(sampler)
    return state
