"""Correctness checks on the pipeline's artifacts, counted in a ledger.

Everything here reads files the CLI wrote and re-derives what it can
independently of the package: score coverage and range, checkpoint
presence, the report's p10 cells by nearest rank, and byte digests.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import sys
from pathlib import Path

SCORE_HEADER = ["case_id", "group", "region", "score"]
CHECKPOINT_MAGIC = b"DROCKPT1"
MINORITY = "minority"
REPORT_TOL = 1e-9


class Ledger:
    """Attempted and failed operations; every failure is named on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"check failed: {what}", file=sys.stderr)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def read_cases(path, n_expected: int) -> dict:
    """``case_id -> group`` from a dataset CSV; raises ValueError if malformed."""
    cases = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[:3] != ["case_id", "group", "label"]:
            raise ValueError(f"{path}: bad header {header}")
        for row in reader:
            if len(row) != len(header) or row[0] in cases:
                raise ValueError(f"{path}: bad or duplicate row for {row[:1]}")
            cases[row[0]] = row[1]
    if len(cases) != n_expected:
        raise ValueError(f"{path}: {len(cases)} cases, expected {n_expected}")
    return cases


def read_scores(path, cases: dict) -> tuple:
    """``(case ids, group -> [score])`` after checking the file covers every case once.

    Raises ValueError on a missing, duplicate or unknown case, a group that
    disagrees with the dataset, or a score outside [0, 1].
    """
    by_group: dict = {}
    seen = set()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != SCORE_HEADER:
            raise ValueError(f"{path}: bad header")
        for row in reader:
            if len(row) != 4:
                raise ValueError(f"{path}: row {row} has {len(row)} fields")
            case_id, group, _, text = row
            if case_id in seen or cases.get(case_id) != group:
                raise ValueError(f"{path}: duplicate, unknown or regrouped case {case_id}")
            score = float(text)
            if not 0.0 <= score <= 1.0:
                raise ValueError(f"{path}: score {text} of {case_id} outside [0, 1]")
            seen.add(case_id)
            by_group.setdefault(group, []).append(score)
    if len(seen) != len(cases):
        raise ValueError(f"{path}: {len(seen)} of {len(cases)} cases scored")
    return seen, by_group


def nearest_rank(scores, alpha: float) -> float:
    """The k-th smallest score in percent, k = max(1, ceil(alpha * n))."""
    ordered = sorted(scores)
    return 100.0 * ordered[max(1, math.ceil(alpha * len(ordered))) - 1]


def check_arms(out: Path, seeds, folds: int, cases: dict, ledger: Ledger, label: str) -> dict:
    """Validate both arms' score files and checkpoints under ``out``.

    Returns ``seed -> {arm: group -> scores}`` for the seeds whose files
    are valid in both arms and score the same case ids.  One ledger entry
    per arm and one per seed for the two arms scoring the same case ids.
    """
    tables: dict = {seed: {} for seed in seeds}
    ids: dict = {seed: {} for seed in seeds}
    for arm in ("erm", "dro"):
        error = None
        for seed in seeds:
            run_dir = out / arm / f"seed_{seed}"
            try:
                case_ids, by_group = read_scores(run_dir / "scores.csv", cases)
                for f in range(folds):
                    with open(run_dir / f"fold_{f}.ckpt", "rb") as fh:
                        if fh.read(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
                            raise ValueError(f"{run_dir}/fold_{f}.ckpt: not a checkpoint")
            except (OSError, ValueError) as exc:
                error = error or str(exc)
            else:
                ids[seed][arm], tables[seed][arm] = case_ids, by_group
        ledger.record(error is None, f"{label} {arm} artifacts: {error}")
    valid = {}
    for seed, arms in tables.items():
        same = len(arms) == 2 and ids[seed]["erm"] == ids[seed]["dro"]
        if ledger.record(same, f"{label} seed {seed}: arms score different case ids"):
            valid[seed] = arms
    return valid


def check_report(text: str, arms: dict, label: str, ledger: Ledger) -> bool | None:
    """Check a ``report --baseline --format json`` document against the scores.

    The report's minority p10 must equal the DRO scores' nearest-rank p10,
    and its delta must equal DRO minus ERM.  Returns whether DRO won on
    minority p10, or None when the report is wrong.
    """
    try:
        doc = json.loads(text)
        report = {g["name"]: g["regions"][0] for g in doc["report"]["groups"]}
        delta = {g["name"]: g["regions"][0] for g in doc["comparison"]["groups"]}
        dro = nearest_rank(arms["dro"][MINORITY], 0.10)
        erm = nearest_rank(arms["erm"][MINORITY], 0.10)
        ok = (
            report.keys() == arms["dro"].keys()
            and abs(report[MINORITY]["p10"] - dro) <= REPORT_TOL
            and abs(delta[MINORITY]["p10"] - (dro - erm)) <= REPORT_TOL
        )
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        ok, dro, erm = False, None, str(exc)
    if not ledger.record(ok, f"{label}: report disagrees with the scores (dro p10 {dro}, erm p10 {erm})"):
        return None
    return dro >= erm


def artifact_digests(out: Path) -> dict:
    """SHA-256 of the dataset and of every score file and checkpoint under ``out``."""
    files = [out / "dataset.csv"] + sorted(out.glob("*/seed_*/*"))
    return {str(p.relative_to(out)): sha256(p) for p in files if p.is_file()}


def check_reports(workload, reports: dict, arms: dict, ledger: Ledger, label: str) -> None:
    """Check each seed's report against its scores and apply the workload's quality rule.

    ``reports`` maps run seed to the report's stdout; ``arms`` is what
    :func:`check_arms` returned for the same run directory.
    """
    wins = 0
    for seed, text in reports.items():
        if seed in arms:
            wins += bool(check_report(text, arms[seed], f"{label} seed {seed}", ledger))
    if workload.min_p10_wins is not None:
        ledger.record(
            wins >= workload.min_p10_wins,
            f"{label}: DRO minority p10 >= ERM on {wins} of {workload.n_seeds} seeds, "
            f"need {workload.min_p10_wins}",
        )
