"""File helpers: whole-file replacement, and block-wise CSV reading and writing."""

from __future__ import annotations

import contextlib
import csv
import itertools
import os
from pathlib import Path

import numpy as np

# Rows parsed (or written) per block.  Small enough that a block's strings
# stay a minor share of memory at any file size, large enough that the
# per-block numpy calls cost little next to the parsing.
BLOCK_ROWS = 256


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


def write_rows(path, header, columns) -> None:
    """Write ``header``, then the rows of the aligned ``columns``, a block of
    ``BLOCK_ROWS`` rows at a time.

    A numpy column is written through ``tolist``, so ``csv`` writes its
    floats by repr and they read back bit-exact.  The file is replaced
    whole, never left half-written.
    """
    with atomic_write(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for s in range(0, len(columns[0]), BLOCK_ROWS):
            block = (c[s : s + BLOCK_ROWS] for c in columns)
            writer.writerows(zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in block)))
