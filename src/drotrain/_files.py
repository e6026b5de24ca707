"""File helpers: whole-file replacement, and block-wise reading of CSV rows."""

from __future__ import annotations

import contextlib
import itertools
import os
from pathlib import Path

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
