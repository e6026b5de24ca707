"""The CSV writer against the running interpreter's ``csv.writer``, for
columns the score and dataset writers never pass."""

import csv
import hashlib
from array import array

import numpy as np
import pytest

from drotrain._files import BLOCK_ROWS, write_rows


def _csv_bytes(path, header, columns) -> bytes:
    """What ``csv.writer`` writes for the rows, each numpy value by ``tolist``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns)))
    return path.read_bytes()


@pytest.mark.parametrize(
    "columns",
    [
        [["a", "", "b"]],
        [np.array([1.5, -0.0, 5e-324])],
        [np.array([0.1, 1e16], dtype=np.longdouble), ["x", "y"]],
        [np.array([0.1, 3.0], dtype=np.float32), np.array([True, False]), np.array([7, 255], dtype=np.uint8)],
        [np.array(["u", "v"]), np.array([None, 2], dtype=object), [b"raw", "s"]],
        [list(map(str, range(2 * BLOCK_ROWS + 1))), ["g"] * BLOCK_ROWS + [None] + ["g"] * BLOCK_ROWS],
    ],
    ids=["one-column-empty", "one-column-floats", "longdouble", "narrow-numbers", "objects", "none-in-second-block"],
)
def test_bytes_are_csv_writers(tmp_path, columns):
    header = [f"h{j}" for j in range(len(columns))]
    write_rows(tmp_path / "ours.csv", header, columns)
    assert (tmp_path / "ours.csv").read_bytes() == _csv_bytes(tmp_path / "csv.csv", header, columns)


def test_nul_as_the_running_csv_writes_it(tmp_path):
    """Python 3.10's csv refuses a NUL field and later versions write it
    bare; the writer does what csv does, and a refused file is not left."""
    columns = [["a\0b"], np.array([0.5])]
    try:
        expected = _csv_bytes(tmp_path / "csv.csv", ["h0", "h1"], columns)
    except csv.Error:
        with pytest.raises(csv.Error):
            write_rows(tmp_path / "ours.csv", ["h0", "h1"], columns)
        assert not (tmp_path / "ours.csv").exists()
    else:
        write_rows(tmp_path / "ours.csv", ["h0", "h1"], columns)
        assert (tmp_path / "ours.csv").read_bytes() == expected


@pytest.mark.parametrize(
    "columns",
    [
        [["a", "b", "c"], array("d", [0.5, -0.0, 5e-324])],
        [["a", "b,c", "d"] * BLOCK_ROWS, np.arange(3 * BLOCK_ROWS)],
    ],
    ids=["joined", "csv-writer-blocks"],
)
def test_digest_is_fed_the_bytes_written(tmp_path, columns):
    """A hash object passed in is fed exactly the file's bytes, and an f64
    ``array`` column is written as csv writes its floats."""
    digest = hashlib.sha256()
    write_rows(tmp_path / "ours.csv", ["h0", "h1"], columns, digest)
    assert digest.digest() == hashlib.sha256((tmp_path / "ours.csv").read_bytes()).digest()
    assert (tmp_path / "ours.csv").read_bytes() == _csv_bytes(tmp_path / "csv.csv", ["h0", "h1"], columns)
