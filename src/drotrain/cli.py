"""Batch front door: generate datasets, train arms, render score reports.

Subcommands consume one JSON experiment config (strict field checking: an
unrecognized key is an error, not a warning) and write everything under an
output directory so a whole experiment is reproducible from the config
alone.  Exit codes: 0 success, 2 usage or validation error, 1 internal
error.  The environment variable DRO_SEED, when set, replaces the config's
seeds so smoke runs can redirect an experiment without editing files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import datasets, scores, training
from ._files import atomic_write
from .metrics import (
    compare_reports,
    percentile_report,
    render_comparison_json,
    render_comparison_text,
    render_json,
    render_text,
)
from .training import TrainConfig, cross_validate, ensemble_predict

__all__ = ["main"]

DATASET_FILENAME = "dataset.csv"

DEFAULT_HIDDEN = (32, 32)


class UsageError(Exception):
    """Config or input validation failure; maps to exit code 2."""


def _load_json(path) -> dict:
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
    return doc


def _integer(value, what: str) -> int:
    """``value`` if it is an integer (not a bool), else a usage error."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise UsageError(f"{what} must be an integer, got {value!r}")
    return value


def _check_keys(obj: dict, known, context: str) -> None:
    unknown = set(obj) - set(known)
    if unknown:
        raise UsageError(f"{context}: unknown fields {sorted(unknown)}")


def _data_config(doc: dict) -> tuple:
    """(SyntheticConfig, generation seed) from the config's data block."""
    block = doc.get("data")
    if not isinstance(block, dict):
        raise UsageError("config needs a 'data' object")
    field_names = [f.name for f in dataclasses.fields(datasets.SyntheticConfig)]
    _check_keys(block, field_names + ["seed"], "data config")
    for key in ("n_samples", "n_features", "n_classes", "seed"):
        if key in block:
            _integer(block[key], f"data.{key}")
    seed = block.get("seed", 0)
    if seed < 0:
        raise UsageError(f"data.seed must be >= 0, got {seed}")
    kwargs = {k: v for k, v in block.items() if k != "seed"}
    try:
        return datasets.SyntheticConfig(**kwargs), seed
    except (TypeError, ValueError) as exc:
        raise UsageError(f"data config: {exc}") from exc


def _env_seed():
    env = os.environ.get("DRO_SEED")
    if env is None:
        return None
    try:
        return int(env)
    except ValueError:
        raise UsageError(f"DRO_SEED must be an integer, got {env!r}") from None


def _seeds(doc: dict) -> list:
    env = _env_seed()
    if env is not None:
        return [env]
    raw = doc.get("seeds")
    if not isinstance(raw, list) or not raw:
        raise UsageError("config needs a non-empty 'seeds' list")
    return [_integer(s, "seeds") for s in raw]


def _arm_config(doc: dict, arm: str, seed: int) -> TrainConfig:
    train_block = doc.get("train")
    if not isinstance(train_block, dict) or not isinstance(train_block.get(arm), dict):
        raise UsageError(f"config needs a train.{arm} object")
    block = dict(train_block[arm])
    for key in ("epochs", "batch_size", "folds"):
        if key in block:
            _integer(block[key], f"train.{arm}.{key}")
    for reserved, source in (("mode", "the --arm flag"), ("seed", "the seeds list")):
        if reserved in block:
            raise UsageError(f"train.{arm}: '{reserved}' is set by {source}, remove it")
    block["mode"] = arm
    block["seed"] = seed
    try:
        return TrainConfig.from_dict(block)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"train.{arm}: {exc}") from exc


def _hidden_dims(doc: dict) -> tuple:
    raw = doc.get("hidden", list(DEFAULT_HIDDEN))
    if not isinstance(raw, list) or not raw or any(_integer(h, "hidden sizes") < 1 for h in raw):
        raise UsageError("'hidden' must be a non-empty list of positive layer sizes")
    return tuple(raw)


def _out_dir(args, doc: dict) -> Path:
    out = args.out or doc.get("out")
    if not out:
        raise UsageError("no output directory: pass --out or set 'out' in the config")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


TOP_LEVEL_KEYS = ("data", "hidden", "train", "seeds", "out", "test_dataset")


def cmd_generate(args) -> int:
    doc = _load_json(args.config)
    _check_keys(doc, TOP_LEVEL_KEYS, "config")
    config, seed = _data_config(doc)
    env = _env_seed()
    if env is not None:
        seed = env
    out = _out_dir(args, doc)
    dataset = datasets.generate(config, seed)
    path = out / DATASET_FILENAME
    datasets.write_csv(dataset, path)
    prevalence = " ".join(f"{g}={frac:.3f}" for g, frac in dataset.prevalence().items())
    print(f"wrote {path}: n={len(dataset)} {prevalence}")
    return 0


def cmd_train(args) -> int:
    doc = _load_json(args.config)
    _check_keys(doc, TOP_LEVEL_KEYS, "config")
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
    for config in configs:
        try:
            training.plan_folds(dataset, hidden, config)
        except ValueError as exc:
            raise UsageError(f"train.{args.arm}: {exc}") from exc

    test_dataset = None
    if doc.get("test_dataset"):
        try:
            test_dataset = datasets.read_csv(doc["test_dataset"])
        except (OSError, ValueError) as exc:
            raise UsageError(f"test_dataset: {exc}") from exc
        found = (test_dataset.features.shape[1], test_dataset.n_classes)
        model = (dataset.features.shape[1], dataset.n_classes)
        if found[0] != model[0] or found[1] > model[1]:
            raise UsageError(f"test_dataset has (features, classes) {found}, the model {model}")

    for config in configs:
        result = cross_validate(dataset, hidden, config)
        run_dir = out / args.arm / f"seed_{config.seed}"
        run_dir.mkdir(parents=True, exist_ok=True)
        for f, state in enumerate(result.states):
            training.save_checkpoint(run_dir / f"fold_{f}.ckpt", state, result.fold_configs[f])
        scores_path = run_dir / "scores.csv"
        scores.write_scores(result.table, scores_path)
        if test_dataset is not None:
            models = [s.params for s in result.states]
            probs = ensemble_predict(models, test_dataset.features)
            n = len(test_dataset)
            table = scores.ScoreTable.from_columns(
                test_dataset.case_ids,
                test_dataset.groups,
                [training.SCORE_REGION] * n,
                probs[np.arange(n), test_dataset.labels],
            )
            scores.write_scores(table, run_dir / "scores_test.csv")
        print(f"arm={args.arm} seed={config.seed} folds={config.folds} -> {scores_path}")
    return 0


def cmd_report(args) -> int:
    try:
        table = scores.load_scores(args.scores)
        report = percentile_report(table)
        comparison = None
        if args.baseline:
            baseline = percentile_report(scores.load_scores(args.baseline))
            comparison = compare_reports(baseline, report)
    except (OSError, ValueError) as exc:
        raise UsageError(str(exc)) from exc

    text = render_text(report)
    as_json = render_json(report)
    if comparison is not None:
        comparison_text = render_comparison_text(comparison)
        comparison_json = render_comparison_json(comparison)

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        files = {"report.txt": text, "report.json": as_json}
        if comparison is not None:
            files |= {"comparison.txt": comparison_text, "comparison.json": comparison_json}
        for name, content in files.items():
            with atomic_write(out / name, "w", encoding="utf-8") as fh:
                fh.write(content)

    if args.format == "json":
        if comparison is None:
            sys.stdout.write(as_json)
        else:
            doc = {"report": json.loads(as_json), "comparison": json.loads(comparison_json)}
            sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    else:
        sys.stdout.write(text)
        if comparison is not None:
            sys.stdout.write("\ndeltas vs baseline (percent points)\n")
            sys.stdout.write(comparison_text)
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
