"""File helpers: whole-file replacement, block-wise CSV reading and writing,
and the search for a repeated key that both CSV readers make.

CSV rows are written as text built here, not field by field through
``csv.writer``: each number is its ``repr``, which is what ``csv`` writes
for a Python int or float, each string is written as it is, and a block's
rows are joined and written at once.  A block with a field that ``csv``
would quote (or refuse) goes through ``csv.writer`` instead, so the bytes
are ``csv``'s on every Python version without restating its quoting rules,
which differ between versions (3.13 quotes a field holding ``\\r``, 3.10
to 3.12 leave it bare; 3.10 refuses a NUL).
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import operator
import os
import re
from pathlib import Path

import numpy as np

# Rows parsed (or written) per block.  Small enough that a block's strings
# stay a minor share of memory at any file size, large enough that the
# per-block numpy calls cost little next to the parsing.
BLOCK_ROWS = 256

# Characters that make ``csv`` quote a field (or refuse it) on some version.
_CSV_SPECIAL = re.compile('[\0,"\r\n]')


@contextlib.contextmanager
def atomic_write(path, mode: str, **kwargs):
    """Open a temp file beside ``path``; it replaces ``path`` only on success.

    A write that fails part-way leaves ``path`` as it was and removes the
    temp file, so a process that dies mid-write leaves no truncated file at
    ``path``.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def blocks(rows, start: int):
    """``(first line, rows)`` for consecutive blocks of ``BLOCK_ROWS`` rows.

    ``start`` is the line number of the first row, so a caller can name the
    line of a fault it finds inside a block.
    """
    rows = iter(rows)
    while block := list(itertools.islice(rows, BLOCK_ROWS)):
        yield start, block
        start += len(block)


def _repeats(keys) -> bool:
    """Whether any of ``keys`` repeats, decided on a sorted copy of them.

    A sorted copy costs a list where a set would cost a hash table several
    times its size, and it takes linear time when the keys arrive sorted,
    as generated ids do.  Keys that cannot be ordered, such as a mix of
    ``str`` and ``int`` ids, are put in a set instead.
    """
    try:
        ordered = sorted(keys)
    except TypeError:
        return len(set(keys)) != len(keys)
    return any(map(operator.eq, ordered, itertools.islice(ordered, 1, None)))


def first_repeat(keys):
    """``(i, j)``: ``keys[i]`` is the first key, in order, that appeared
    before, first as ``keys[j]``; ``None`` if no key repeats.  The keys are
    walked in order, to find the first repeat, only once :func:`_repeats`
    has found that there is one, so a file without repeats costs no more
    than its sorted copy."""
    if not _repeats(keys):
        return None
    first: dict = {}
    for i, key in enumerate(keys):
        if key in first:
            return i, first[key]
        first[key] = i
    raise AssertionError("a repeated key was not found")


def _joined(block):
    """The text of a block of aligned columns, one ``\\n``-ended line per
    row; ``None`` if ``csv.writer`` must write it.

    A numpy column of bools, ints or floats at most 8 bytes wide, which
    ``tolist`` makes Python values, is written by ``repr`` (a longdouble
    stays a numpy scalar, whose repr is not what ``csv`` writes).  Any other
    column must hold only strings, none with a character in
    ``_CSV_SPECIAL`` and, in a one-column table, none empty (``csv`` writes
    a lone empty field as ``""``).
    """
    fields = []
    for column in block:
        if isinstance(column, np.ndarray):
            if column.dtype.kind in "biuf" and column.dtype.itemsize <= 8:
                fields.append(list(map(repr, column.tolist())))
                continue
            column = column.tolist()
        try:
            if _CSV_SPECIAL.search("".join(column)) or (len(block) == 1 and "" in column):
                return None
        except TypeError:  # a field that is not a str
            return None
        fields.append(column)
    return "\n".join(map(",".join, zip(*fields))) + "\n"


def write_rows(path, header, columns) -> None:
    """Write ``header``, then the rows of the aligned ``columns``, a block of
    ``BLOCK_ROWS`` rows at a time, with the bytes ``csv.writer`` would write.

    Each block is built as text by :func:`_joined` and written at once; a
    block it declines (a field to quote, or one that is not a string or a
    plain number) goes through ``csv.writer``.  Numbers are written by repr
    either way, so floats read back bit-exact.  The file is replaced whole,
    never left half-written.
    """
    with atomic_write(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for s in range(0, len(columns[0]), BLOCK_ROWS):
            block = [c[s : s + BLOCK_ROWS] for c in columns]
            text = _joined(block)
            if text is None:
                writer.writerows(zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in block)))
            else:
                fh.write(text)
