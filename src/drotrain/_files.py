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

Numpy is not imported here, as ``report`` loads this module: a numpy
column is recognised by its ``dtype``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import operator
import os
import re
from array import array
from pathlib import Path

# Rows parsed (or written) per block.  Small enough that a block's strings
# stay a minor share of memory at any file size, large enough that the
# per-block calls cost little next to the parsing.
BLOCK_ROWS = 256

# Characters that make ``csv`` quote a field (or refuse it) on some version.
_CSV_SPECIAL = re.compile('[\0,"\r\n]')

# What the ``surrogateescape`` error handler decodes a byte that is not
# UTF-8 to; a UTF-8 decoder makes none of these of valid bytes.
_ESCAPED = re.compile("[\udc80-\udcff]")


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


def _first_bad_line(path):
    """The line of the first byte of the file at ``path`` that is not
    UTF-8; ``None`` if there is none.  Lines are decoded one at a time,
    which is decoding the whole file: no UTF-8 sequence holds a ``\\n``
    byte."""
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError:
                return lineno
    return None


def read_rows(path, read):
    """``read(rows, True)``, where ``rows`` is a ``csv.reader`` of the UTF-8
    text file at ``path``.

    A byte that is not UTF-8 stops that call.  ``read`` is then called on
    the rows before the one holding the byte, with ``False``, so that a
    fault it finds there is reported first; once it returns, a
    ``ValueError`` names the file and the line of that byte.  Told that its
    rows are not the whole file, ``read`` must not report what only a whole
    file can show, such as a missing header or no data rows.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return read(csv.reader(fh), True)
    except UnicodeDecodeError:
        pass
    lineno = _first_bad_line(path)
    if lineno is None:  # the file changed while it was read
        raise ValueError(f"{path}: not UTF-8 text")
    # Rows before the first bad byte decode alike under any error handler.
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        read(itertools.takewhile(lambda row: not _ESCAPED.search("".join(row)), csv.reader(fh)), False)
    raise ValueError(f"{path}:{lineno}: not UTF-8 text")


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


def _numbers(column) -> bool:
    """Whether ``column`` is a column of numbers whose ``tolist`` gives the
    Python ints and floats ``csv`` writes by ``repr``: an f64 ``array``, or
    a numpy column of bools, ints or floats at most 8 bytes wide (a
    longdouble stays a numpy scalar, whose repr is not what ``csv``
    writes)."""
    if isinstance(column, array):
        return column.typecode == "d"
    dtype = getattr(column, "dtype", None)
    return dtype is not None and dtype.kind in "biuf" and dtype.itemsize <= 8


def _joined(block):
    """The text of a block of aligned columns, one ``\\n``-ended line per
    row; ``None`` if ``csv.writer`` must write it.

    A column of :func:`_numbers` is written by ``repr``.  Any other column
    must hold only strings, none with a character in ``_CSV_SPECIAL`` and,
    in a one-column table, none empty (``csv`` writes a lone empty field as
    ``""``).
    """
    fields = []
    for column in block:
        if _numbers(column):
            fields.append(list(map(repr, column.tolist())))
            continue
        column = _values(column)
        try:
            if _CSV_SPECIAL.search("".join(column)) or (len(block) == 1 and "" in column):
                return None
        except TypeError:  # a field that is not a str
            return None
        fields.append(column)
    return "\n".join(map(",".join, zip(*fields))) + "\n"


def _values(column):
    """A column's values as Python objects: a numpy column's ``tolist``."""
    return column.tolist() if hasattr(column, "dtype") else column


def write_rows(path, header, columns, digest=None) -> None:
    """Write ``header``, then the rows of the aligned ``columns``, a block of
    ``BLOCK_ROWS`` rows at a time, with the bytes ``csv.writer`` would write.

    Each block is built as text by :func:`_joined` and written at once; a
    block it declines (a field to quote, or one that is not a string or a
    plain number) is written by ``csv.writer`` into a buffer first.
    Numbers are written by repr either way, so floats read back bit-exact.
    ``digest``, a hash object, is fed every byte written.  The file is
    replaced whole, never left half-written.
    """
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer, lineterminator="\n")

    def by_csv(rows) -> str:
        buffer.seek(0)
        buffer.truncate()
        writer.writerows(rows)
        return buffer.getvalue()

    with atomic_write(path, "wb") as fh:

        def write(text: str) -> None:
            data = text.encode()
            fh.write(data)
            if digest is not None:
                digest.update(data)

        write(by_csv([header]))
        for s in range(0, len(columns[0]), BLOCK_ROWS):
            block = [c[s : s + BLOCK_ROWS] for c in columns]
            write(_joined(block) or by_csv(zip(*map(_values, block))))
