"""Batch front door: generate datasets, train arms, render score reports.

Subcommands consume one JSON experiment config (strict field checking: an
unrecognized key, or a value of the wrong type, is an error, not a warning)
and write everything under an output directory so a whole experiment is
reproducible from the config alone.  Exit codes: 0 success, 2 usage or
validation error, 1 internal error.  The environment variable DRO_SEED,
when set, replaces the config's seeds so smoke runs can redirect an
experiment without editing files.

The training stack (``datasets``, ``training``, ``sampler``, ``mlp``) is
imported inside the commands that use it, so ``report`` starts without
loading it and ``generate`` loads ``datasets`` alone.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import typing
from pathlib import Path

from . import scores
from ._files import atomic_write
from .metrics import (
    compare_reports,
    percentile_report,
    render_comparison_json,
    render_comparison_text,
    render_json,
    render_text,
)

__all__ = ["main"]

DATASET_FILENAME = "dataset.csv"

DEFAULT_HIDDEN = (32, 32)

TOP_LEVEL_KEYS = ("data", "hidden", "train", "seeds", "out", "test_dataset")

# The JSON values a numeric dataclass field takes, and their name; a bool is
# never one, though Python counts it as an int.
NUMERIC_FIELDS = {int: (int, "an integer"), float: ((int, float), "a number")}


class UsageError(Exception):
    """Config or input validation failure; maps to exit code 2."""


def _load_config(path) -> dict:
    """The config's JSON object, once its top-level keys and paths pass."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise UsageError(f"{path} must hold a JSON object, got {type(doc).__name__}")
    _check_keys(doc, TOP_LEVEL_KEYS, "config")
    for key in ("out", "test_dataset"):
        if key in doc and not (isinstance(doc[key], str) and doc[key]):
            raise UsageError(f"'{key}' must be a non-empty string, got {doc[key]!r}")
    return doc


def _number(value, kind, what: str):
    """``value`` if it is a JSON value of the numeric field type ``kind``
    (a bool is none), else a usage error."""
    accepted, noun = NUMERIC_FIELDS[kind]
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise UsageError(f"{what} must be {noun}, got {value!r}")
    return value


def _seed(value, what: str) -> int:
    """``value`` if it is a non-negative integer, else a usage error."""
    if _number(value, int, what) < 0:
        raise UsageError(f"{what} must be >= 0, got {value}")
    return value


def _check_keys(obj: dict, known, context: str) -> None:
    unknown = set(obj) - set(known)
    if unknown:
        raise UsageError(f"{context}: unknown fields {sorted(unknown)}")


def _build(cls, block, context: str, **fixed):
    """``cls(**block, **fixed)`` for the dataclass ``cls``, once ``block`` is
    an object whose keys are fields of ``cls``, each ``int`` field an
    integer and each ``float`` field a number (a bool is neither); any
    failure, the constructor's included, is a usage error naming
    ``context``."""
    if not isinstance(block, dict):
        raise UsageError(f"{context} must be an object, got {type(block).__name__}")
    _check_keys(block, [f.name for f in dataclasses.fields(cls)], context)
    for name, kind in typing.get_type_hints(cls).items():
        if name in block and kind in NUMERIC_FIELDS:
            _number(block[name], kind, f"{context}.{name}")
    try:
        return cls(**block, **fixed)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{context}: {exc}") from exc


def _data_config(doc: dict) -> tuple:
    """(SyntheticConfig, generation seed) from the config's data block."""
    from . import datasets

    block = doc.get("data")
    if not isinstance(block, dict):
        raise UsageError("config needs a 'data' object")
    block = dict(block)
    seed = _seed(block.pop("seed", 0), "data.seed")
    return _build(datasets.SyntheticConfig, block, "data"), seed


def _env_seed():
    env = os.environ.get("DRO_SEED")
    if env is None:
        return None
    try:
        seed = int(env)
    except ValueError:
        raise UsageError(f"DRO_SEED must be an integer, got {env!r}") from None
    return _seed(seed, "DRO_SEED")


def _seeds(doc: dict) -> list:
    env = _env_seed()
    if env is not None:
        return [env]
    raw = doc.get("seeds")
    if not isinstance(raw, list) or not raw:
        raise UsageError("config needs a non-empty 'seeds' list")
    seeds = [_seed(s, "seeds") for s in raw]
    repeated = sorted({s for s in seeds if seeds.count(s) > 1})
    if repeated:
        raise UsageError(f"'seeds' must be distinct, got {repeated} more than once")
    return seeds


def _arm_config(doc: dict, arm: str, seed: int):
    """The arm's TrainConfig for one seed, from the config's train block."""
    from .sampler import SamplerConfig
    from .training import TrainConfig

    train_block = doc.get("train")
    if not isinstance(train_block, dict) or not isinstance(train_block.get(arm), dict):
        raise UsageError(f"config needs a train.{arm} object")
    block = dict(train_block[arm])
    for reserved, source in (("mode", "the --arm flag"), ("seed", "the seeds list")):
        if reserved in block:
            raise UsageError(f"train.{arm}: '{reserved}' is set by {source}, remove it")
    sampler = block.pop("sampler", None)
    if sampler is not None:
        sampler = _build(SamplerConfig, sampler, f"train.{arm}.sampler")
    return _build(TrainConfig, block, f"train.{arm}", mode=arm, seed=seed, sampler=sampler)


def _hidden_dims(doc: dict) -> tuple:
    raw = doc.get("hidden", list(DEFAULT_HIDDEN))
    if not isinstance(raw, list) or not raw or any(_number(h, int, "hidden sizes") < 1 for h in raw):
        raise UsageError("'hidden' must be a non-empty list of positive layer sizes")
    return tuple(raw)


def _make_dir(path) -> Path:
    """``path`` as a directory that exists; a usage error if it cannot be one."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot use {path} as the output directory: {exc}") from exc
    return path


def _check_targets(dirs=(), files=()) -> None:
    """Reject, before any work and creating nothing, an existing file where
    one of ``dirs`` must be made or an existing directory where one of
    ``files`` must be written."""
    for path in dirs:
        if os.path.lexists(path) and not path.is_dir():
            raise UsageError(f"cannot use {path} as a run directory: it is a file")
    for path in files:
        if path.is_dir():
            raise UsageError(f"cannot write {path}: it is a directory")


def _out_dir(args, doc: dict) -> Path:
    out = args.out or doc.get("out")
    if not out:
        raise UsageError("no output directory: pass --out or set 'out' in the config")
    return _make_dir(out)


def cmd_generate(args) -> int:
    from . import datasets

    doc = _load_config(args.config)
    config, seed = _data_config(doc)
    env = _env_seed()
    if env is not None:
        seed = env
    out = _out_dir(args, doc)
    path = out / DATASET_FILENAME
    _check_targets(files=[path, datasets.twin_path(path)])
    dataset = datasets.generate(config, seed)
    datasets.write_twin(dataset, path, datasets.write_csv(dataset, path))
    prevalence = " ".join(f"{g}={frac:.3f}" for g, frac in dataset.prevalence().items())
    print(f"wrote {path}: n={len(dataset)} {prevalence}")
    return 0


def cmd_train(args) -> int:
    from . import datasets, training

    doc = _load_config(args.config)
    hidden = _hidden_dims(doc)
    configs = [_arm_config(doc, args.arm, seed) for seed in _seeds(doc)]
    out = _out_dir(args, doc)
    dataset_path = out / DATASET_FILENAME
    if not dataset_path.exists():
        raise UsageError(f"dataset {dataset_path} not found; run generate first")
    try:
        dataset = datasets.read_csv(dataset_path)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    # The seeds share every setting that can fail a plan, so one is checked.
    try:
        dims = training.plan_folds(dataset, hidden, configs[0])[0]  # keeps no splits alive
    except ValueError as exc:
        raise UsageError(f"train.{args.arm}: {exc}") from exc

    test_dataset = None
    if "test_dataset" in doc:
        try:
            test_dataset = datasets.read_csv(doc["test_dataset"])
            training.check_dims(test_dataset, dims)
        except (OSError, ValueError) as exc:
            raise UsageError(f"test_dataset: {exc}") from exc

    run_dirs = [out / args.arm / f"seed_{config.seed}" for config in configs]
    names = ["scores.csv"] + ["scores_test.csv"] * (test_dataset is not None)
    _check_targets(
        dirs=[out / args.arm, *run_dirs],
        files=[
            run_dir / name
            for config, run_dir in zip(configs, run_dirs)
            for name in [f"fold_{f}.ckpt" for f in range(config.folds)] + names
        ],
    )

    # Each seed's files are written as its result arrives.
    results = training.cross_validate_seeds(dataset, hidden, configs)
    for config, run_dir in zip(configs, run_dirs):
        try:
            result = next(results)
        except training.TrainingDiverged as exc:
            folds = ("fold " if len(exc.models) == 1 else "folds ") + ", ".join(map(str, exc.models))
            raise UsageError(
                f"train.{args.arm}: seed {exc.seed}, {folds}, epoch {exc.epoch}: training diverged "
                f"({exc.reason}); lower learning_rate"
            ) from exc
        run_dir.mkdir(parents=True, exist_ok=True)
        for f, state in enumerate(result.states):
            training.save_checkpoint(run_dir / f"fold_{f}.ckpt", state, result.fold_configs[f])
        scores_path = run_dir / "scores.csv"
        scores.write_scores(result.table, scores_path)
        if test_dataset is not None:
            scores.write_scores(result.ensemble_table(test_dataset), run_dir / "scores_test.csv")
        print(f"arm={args.arm} seed={config.seed} folds={config.folds} -> {scores_path}")
    return 0


def cmd_report(args) -> int:
    try:
        report = percentile_report(scores.load_scores(args.scores))
        comparison = None
        if args.baseline:
            comparison = compare_reports(percentile_report(scores.load_scores(args.baseline)), report)
    except (OSError, ValueError) as exc:
        raise UsageError(str(exc)) from exc

    # Every output once, by file name; --out writes them all and stdout
    # prints those of the chosen format.
    files = {"report.txt": render_text(report), "report.json": render_json(report)}
    if comparison is not None:
        files["comparison.txt"] = render_comparison_text(comparison)
        files["comparison.json"] = render_comparison_json(comparison)
    if args.out:
        out = _make_dir(args.out)
        _check_targets(files=[out / name for name in files])
        for name, content in files.items():
            with atomic_write(out / name, "w", encoding="utf-8") as fh:
                fh.write(content)

    if args.format == "json":
        docs = {Path(name).stem: json.loads(text) for name, text in files.items() if name.endswith(".json")}
        sys.stdout.write(files["report.json"] if comparison is None else json.dumps(docs, indent=2) + "\n")
    else:
        texts = [text for name, text in files.items() if name.endswith(".txt")]
        sys.stdout.write("\ndeltas vs baseline (percent points)\n".join(texts))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drotrain",
        description="Percentile-robust training experiments: generate, train, report.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write the synthetic dataset CSV")
    gen.add_argument("--config", required=True, help="experiment config JSON")
    gen.add_argument("--out", help="output directory (overrides config 'out')")
    gen.set_defaults(func=cmd_generate)

    train = sub.add_parser("train", help="cross-validated training for one arm")
    train.add_argument("--config", required=True, help="experiment config JSON")
    train.add_argument("--arm", required=True, choices=["erm", "dro"], help="training regime")
    train.add_argument("--out", help="output directory (overrides config 'out')")
    train.set_defaults(func=cmd_train)

    rep = sub.add_parser("report", help="render the percentile report for a score file")
    rep.add_argument("scores", help="score CSV (case_id,group,region,score)")
    rep.add_argument("--baseline", help="baseline score CSV to diff against")
    rep.add_argument("--format", choices=["text", "json"], default="text")
    rep.add_argument("--out", help="directory to write report files into")
    rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive catch-all
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
