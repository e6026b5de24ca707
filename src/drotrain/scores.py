"""Per-case score tables: the `case_id,group,region,score` CSV contract.

A score is a quality value in [0, 1] (higher is better), one row per case
and region.  Parsing is strict: malformed rows, out-of-range scores, and
duplicate (case, region) pairs are rejected with the offending line number.
Tables hold columns, not one object per row: the scores are an f64
``array``, so reading a table and reporting on it need no numpy.  Files are
read and written a block of rows at a time.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

from ._files import blocks, first_repeat, read_rows, unreadable, write_rows

__all__ = ["ScoreRow", "ScoreTable", "load_scores", "write_scores"]

HEADER = ["case_id", "group", "region", "score"]

ALIGNED = "case_ids, groups, regions and scores must be aligned 1-d columns"


@dataclass(frozen=True)
class ScoreRow:
    case_id: str
    group: str
    region: str
    score: float


def _first_repeat(case_ids, regions):
    """``(i, j)``: row ``i`` is the first whose (case_id, region) pair
    already appeared, first at row ``j``; ``None`` if every pair is unique.
    With a single region the case ids alone are the keys, and no pair
    tuples are built."""
    return first_repeat(case_ids if len(set(regions)) <= 1 else list(zip(case_ids, regions)))


def _is_real(value) -> bool:
    """Whether ``value`` is a real number: a Python int, float or bool, or a
    numpy scalar of a bool, integer or float kind."""
    kind = getattr(getattr(value, "dtype", None), "kind", None)
    return isinstance(value, (int, float)) or kind in ("b", "i", "u", "f")


def _f64_column(scores) -> tuple:
    """``(column, first)``: ``scores`` as an f64 ``array`` and the index of
    its first score outside [0, 1] (``None`` if there is none).

    A numpy column, recognised by its ``dtype``, is copied through its
    buffer and range-checked with its own operators; any other sequence is
    converted value by value.  Scores must be real numbers: a string such
    as ``'0.5'`` is rejected, not converted.
    """
    dtype = getattr(scores, "dtype", None)
    column = array("d")
    if dtype is not None:
        if dtype.kind not in "biuf":
            raise TypeError(f"scores must be real numbers, got an array of {dtype}")
        if scores.ndim != 1:
            raise ValueError(ALIGNED)
        values = scores.astype("=f8", order="C", copy=False)
        column.frombytes(memoryview(values).cast("B"))
        outside = (~((values >= 0.0) & (values <= 1.0))).nonzero()[0]
        return column, int(outside[0]) if len(outside) else None
    for value in scores:
        if not _is_real(value):
            raise TypeError(f"scores must be real numbers, got {type(value).__name__} {value!r}")
    column.extend(scores)
    return column, next((i for i, v in enumerate(column) if not 0.0 <= v <= 1.0), None)


def _checked_scores(case_ids, groups, regions, scores) -> array:
    """``scores`` as an f64 ``array``, once the columns pass the table's
    checks.

    The first faulty row in row order is reported, as a row-by-row pass
    that checks each row's score before its pair would report it.
    """
    column, outside = _f64_column(scores)
    if not len(case_ids) == len(groups) == len(regions) == len(column):
        raise ValueError(ALIGNED)
    repeat = _first_repeat(case_ids, regions)
    if outside is not None and (repeat is None or outside <= repeat[0]):
        raise ValueError(f"row {outside}: score {column[outside]} outside [0, 1]")
    if repeat is not None:
        i = repeat[0]
        raise ValueError(f"row {i}: duplicate (case_id, region) pair {(case_ids[i], regions[i])}")
    return column


class ScoreTable:
    """Score columns, in row order, with unique (case_id, region) pairs.

    ``ScoreTable(rows)`` builds a table from :class:`ScoreRow` objects and
    :meth:`from_columns` from aligned columns; both check every score and
    pair.  ``rows`` and iteration give the rows back as ``ScoreRow``.
    """

    def __init__(self, rows):
        rows = list(rows)
        self.case_ids = [r.case_id for r in rows]
        self.groups = [r.group for r in rows]
        self.regions = [r.region for r in rows]
        self.scores = _checked_scores(self.case_ids, self.groups, self.regions, [r.score for r in rows])

    @classmethod
    def from_columns(cls, case_ids: list, groups: list, regions: list, scores) -> "ScoreTable":
        return cls._of_checked(case_ids, groups, regions, _checked_scores(case_ids, groups, regions, scores))

    @classmethod
    def _of_checked(cls, case_ids: list, groups: list, regions: list, scores: array) -> "ScoreTable":
        """A table of columns that have passed the checks already."""
        table = cls.__new__(cls)
        table.case_ids, table.groups, table.regions, table.scores = case_ids, groups, regions, scores
        return table

    @property
    def rows(self) -> list:
        return list(self)

    def __len__(self) -> int:
        return len(self.scores)

    def __iter__(self):
        return map(ScoreRow, self.case_ids, self.groups, self.regions, self.scores.tolist())


def _first_fault(path, first: int, block) -> tuple:
    """``(line, error)`` of the first faulty row of a block that failed its
    checks."""
    for lineno, raw in enumerate(block, start=first):
        if error := unreadable(path, raw):
            return lineno, error
        if len(raw) != 4:
            return lineno, f"{path}:{lineno}: expected 4 fields, got {len(raw)}"
        case_id, group, region, score_text = raw
        if not case_id or not group:
            return lineno, f"{path}:{lineno}: empty case_id or group"
        if "\r" in case_id + group + region:
            return lineno, f"{path}:{lineno}: carriage return in case_id, group or region"
        try:
            score = float(score_text)
        except ValueError:
            return lineno, f"{path}:{lineno}: unparseable score {score_text!r}"
        if not 0.0 <= score <= 1.0:
            return lineno, f"{path}:{lineno}: score {score_text} outside [0, 1]"
    raise AssertionError("a block that failed its checks has a faulty row")


def _check_pairs(path, case_ids, regions) -> None:
    """Reject the first repeated (case_id, region) pair, naming both lines
    (row ``i`` of the file is line ``i + 2``)."""
    repeat = _first_repeat(case_ids, regions)
    if repeat is not None:
        i, j = repeat
        raise ValueError(
            f"{path}:{i + 2}: duplicate (case_id, region) pair {(case_ids[i], regions[i])}, "
            f"first seen on line {j + 2}"
        )


def _parse_block(block) -> tuple:
    """``(case_ids, groups, regions, scores)`` columns of a block of rows;
    ``ValueError`` if any row is faulty, or holds a byte that is not UTF-8
    (which cannot be encoded)."""
    if set(map(len, block)) != {4}:
        raise ValueError("malformed row")
    case_ids, groups, regions, texts = zip(*block)
    if not (all(case_ids) and all(groups)):
        raise ValueError("empty case_id or group")
    if b"\r" in "".join(case_ids + groups + regions).encode():
        raise ValueError("carriage return in case_id, group or region")
    scores = array("d", map(float, texts))
    if not (0.0 <= min(scores) and max(scores) <= 1.0) or any(map(math.isnan, scores)):
        raise ValueError("score outside [0, 1]")
    return case_ids, groups, regions, scores


def load_scores(path) -> ScoreTable:
    """Parse a score CSV, preserving row order; errors name the line.

    A case id, group or region holding ``\\r`` is rejected: ``csv`` on
    Python 3.10 to 3.12 writes such a field unquoted, and that file does
    not read back.  Of several faulty rows, the first in the file is
    reported, a line with a byte that is not UTF-8 counting as faulty.
    Each check runs once: scores block by block as they are parsed, pairs
    once over the whole file (or, when a block fails, over the rows before
    its fault).
    """
    return read_rows(path, lambda rows: _read_table(path, rows))


def _read_table(path, reader) -> ScoreTable:
    """The table of ``reader``'s rows, the lines of ``path``, once they
    pass the checks of :func:`load_scores`."""
    header = next(reader, None)
    if header != HEADER:
        expected = f"{path}:1: expected header {','.join(HEADER)}, got {header}"
        raise ValueError(unreadable(path, header or ()) or expected)
    names: dict = {}
    case_ids, groups, regions, scores = [], [], [], array("d")
    for first, block in blocks(reader, start=2):
        try:
            ids, block_groups, block_regions, block_scores = _parse_block(block)
        except ValueError:
            lineno, error = _first_fault(path, first, block)
            before = block[: lineno - first]
            _check_pairs(path, case_ids + [r[0] for r in before], regions + [r[2] for r in before])
            raise ValueError(error) from None
        case_ids.extend(ids)
        groups.extend(map(names.setdefault, block_groups, block_groups))
        regions.extend(map(names.setdefault, block_regions, block_regions))
        scores.extend(block_scores)
    if not case_ids:
        raise ValueError(f"{path}: score file has no data rows")
    _check_pairs(path, case_ids, regions)
    return ScoreTable._of_checked(case_ids, groups, regions, scores)


def write_scores(table: ScoreTable, path) -> None:
    """Write the canonical form: header, repr floats, newline-terminated.

    ``write_scores(load_scores(p), p2)`` reproduces canonical files
    byte-for-byte.  The file is replaced whole, never left half-written.
    """
    write_rows(path, HEADER, [table.case_ids, table.groups, table.regions, table.scores])
