"""Per-case score tables: the `case_id,group,region,score` CSV contract.

A score is a quality value in [0, 1] (higher is better), one row per case
and region.  Parsing is strict: malformed rows, out-of-range scores, and
duplicate (case, region) pairs are rejected with the offending line number.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

from ._files import atomic_write

__all__ = ["ScoreRow", "ScoreTable", "load_scores", "write_scores"]

HEADER = ["case_id", "group", "region", "score"]


@dataclass(frozen=True)
class ScoreRow:
    case_id: str
    group: str
    region: str
    score: float


@dataclass
class ScoreTable:
    """Ordered score rows with unique (case_id, region) pairs."""

    rows: list

    def __post_init__(self):
        seen = set()
        for i, row in enumerate(self.rows):
            if not (0.0 <= row.score <= 1.0):
                raise ValueError(f"row {i}: score {row.score} outside [0, 1]")
            key = (row.case_id, row.region)
            if key in seen:
                raise ValueError(f"row {i}: duplicate (case_id, region) pair {key}")
            seen.add(key)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)


def load_scores(path) -> ScoreTable:
    """Parse a score CSV, preserving row order; errors name the line."""
    rows = []
    seen = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != HEADER:
            raise ValueError(f"{path}:1: expected header {','.join(HEADER)}, got {header}")
        for lineno, raw in enumerate(reader, start=2):
            if len(raw) != 4:
                raise ValueError(f"{path}:{lineno}: expected 4 fields, got {len(raw)}")
            case_id, group, region, score_text = raw
            if not case_id or not group:
                raise ValueError(f"{path}:{lineno}: empty case_id or group")
            try:
                score = float(score_text)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: unparseable score {score_text!r}") from None
            if not 0.0 <= score <= 1.0:
                raise ValueError(f"{path}:{lineno}: score {score_text} outside [0, 1]")
            key = (case_id, region)
            if key in seen:
                raise ValueError(
                    f"{path}:{lineno}: duplicate (case_id, region) pair {key}, "
                    f"first seen on line {seen[key]}"
                )
            seen[key] = lineno
            rows.append(ScoreRow(case_id, group, region, score))
    if not rows:
        raise ValueError(f"{path}: score file has no data rows")
    return ScoreTable(rows)


def write_scores(table: ScoreTable, path) -> None:
    """Write the canonical form: header, repr floats, newline-terminated.

    ``write_scores(load_scores(p), p2)`` reproduces canonical files
    byte-for-byte.  The file is replaced whole, never left half-written.
    """
    with atomic_write(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(HEADER)
        for row in table:
            writer.writerow([row.case_id, row.group, row.region, repr(float(row.score))])
