"""Synthetic hidden-stratification datasets, CSV round-trip, and fold splits.

The generator produces a classification task with a latent subgroup: a
majority population with well-separated Gaussian class clusters and a
minority population whose clusters are shifted to a different region of
feature space and packed closer together, which makes the minority strictly
harder to classify.  The subgroup tag is carried alongside each sample so
evaluation can stratify on it, but models never see it as a feature.

A dataset is stored as ``dataset.csv``.  ``generate`` also writes its binary
twin, ``dataset.bin``, keyed by the SHA-256 of the CSV's bytes, so that
each ``train`` loads the arrays instead of parsing the text again; the CSV
stays the dataset, and a CSV without a matching twin is parsed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from pathlib import Path

import numpy as np

from ._files import atomic_write, blocks, first_repeat, read_rows, unreadable, write_rows

__all__ = [
    "SyntheticConfig",
    "Dataset",
    "MAJORITY",
    "MINORITY",
    "generate",
    "write_csv",
    "write_twin",
    "twin_path",
    "read_csv",
    "kfold_indices",
]

MAJORITY = "majority"
MINORITY = "minority"

HOLDOUT_FRACTION = 0.2

TWIN_MAGIC = b"DRODATA1"

# The twin's header: magic, the CSV's SHA-256, the payload's SHA-256 and
# the payload's first field, the meta length.
TWIN_HEAD = 80


@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs for the stratified generator.

    Class c's majority cluster is centred at ``majority_radius * e_c``; the
    minority cluster for the same class sits at ``minority_radius * e_c``
    plus a fixed translation of length ``shift`` along the diagonal
    direction.  ``minority_radius < majority_radius`` makes minority classes
    overlap more.  Unit-variance isotropic noise is added to every sample,
    and each group has its own label-flip rate.
    """

    n_samples: int = 800
    n_features: int = 8
    n_classes: int = 4
    minority_fraction: float = 0.15
    majority_radius: float = 2.5
    minority_radius: float = 1.1
    shift: float = 4.0
    noise_majority: float = 0.0
    noise_minority: float = 0.0

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples}")
        if self.n_classes < 2:
            raise ValueError(f"n_classes must be >= 2, got {self.n_classes}")
        if self.n_features < self.n_classes:
            raise ValueError(
                f"n_features ({self.n_features}) must be >= n_classes ({self.n_classes}) "
                "so class centres occupy distinct axes"
            )
        # The largest array, of features or of class centres, must fit in the
        # bytes numpy can index.
        if max(self.n_samples, self.n_classes) * self.n_features * 8 > np.iinfo(np.intp).max:
            raise ValueError("max(n_samples, n_classes) * n_features f64 values exceed what numpy can index")
        if not 0.0 < self.minority_fraction < 1.0:
            raise ValueError(f"minority_fraction must be in (0, 1), got {self.minority_fraction}")
        if not 0.0 < self.minority_radius <= self.majority_radius < math.inf:
            raise ValueError("need 0 < minority_radius <= majority_radius < inf")
        if not 0.0 <= self.shift < math.inf:
            raise ValueError(f"shift must be finite and >= 0, got {self.shift}")
        for name in ("noise_majority", "noise_minority"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")


@dataclass
class Dataset:
    """Feature matrix plus aligned labels, subgroup tags, and case ids."""

    features: np.ndarray
    labels: np.ndarray
    groups: list
    case_ids: list

    def __post_init__(self):
        n = self.features.shape[0]
        if self.features.ndim != 2:
            raise ValueError(f"features must be 2-d, got shape {self.features.shape}")
        if self.labels.shape != (n,) or len(self.groups) != n or len(self.case_ids) != n:
            raise ValueError("features, labels, groups, and case_ids must align")

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def n_classes(self) -> int:
        return int(self.labels.max()) + 1 if len(self) else 0

    def prevalence(self) -> dict:
        """Group fractions, keys in first-encountered order, summing to 1."""
        return {g: c / len(self) for g, c in Counter(self.groups).items()}


def _class_centres(config: SyntheticConfig) -> tuple:
    """(majority, minority) centre matrices, each (n_classes, n_features)."""
    d, C = config.n_features, config.n_classes
    basis = np.eye(C, d)
    majority = config.majority_radius * basis
    offset = config.shift * np.ones(d) / math.sqrt(d)
    minority = config.minority_radius * basis + offset
    return majority, minority


def generate(config: SyntheticConfig, seed: int) -> Dataset:
    """Draw a dataset; identical (config, seed) pairs give identical bytes.

    Draw order is fixed (groups, labels, features, noise) so adding
    downstream consumers can never perturb the data.
    """
    rng = np.random.default_rng(seed)
    n, d, C = config.n_samples, config.n_features, config.n_classes

    is_minority = rng.random(n) < config.minority_fraction
    labels = rng.integers(0, C, size=n)
    maj_centres, min_centres = _class_centres(config)
    centres = np.where(is_minority[:, None], min_centres[labels], maj_centres[labels])
    features = centres + rng.standard_normal((n, d))

    # Label noise: flip to a uniformly random *other* class, per-group rate.
    rates = np.where(is_minority, config.noise_minority, config.noise_majority)
    flip = rng.random(n) < rates
    shifted = (labels + rng.integers(1, C, size=n)) % C
    labels = np.where(flip, shifted, labels)

    case_id = f"case_%0{max(4, len(str(n - 1)))}d"
    return Dataset(
        features,
        labels.astype(np.int64),
        [MINORITY if m else MAJORITY for m in is_minority],
        [case_id % i for i in range(n)],
    )


def write_csv(dataset: Dataset, path) -> bytes:
    """Write ``case_id,group,label,f0..f{d-1}`` rows; floats are written by
    repr, so the round-trip through :func:`read_csv` is bit-exact.  The file
    is replaced whole, never left half-written.  Returns the SHA-256 of the
    bytes written, for :func:`write_twin`."""
    d = dataset.features.shape[1]
    header = ["case_id", "group", "label"] + [f"f{j}" for j in range(d)]
    digest = hashlib.sha256()
    write_rows(path, header, [dataset.case_ids, dataset.groups, dataset.labels, *dataset.features.T], digest)
    return digest.digest()


def _parse_block(block, width: int, labels: np.ndarray, features: np.ndarray) -> None:
    """Parse a block of rows into ``labels`` and ``features``, the block's
    rows of the dataset's arrays; ``ValueError`` if any row has the wrong
    field count, a case id or group holding ``\\r`` or a byte that is not
    UTF-8 (which cannot be encoded), or an unparseable value,
    ``OverflowError`` if a label does not fit in 64 bits."""
    if set(map(len, block)) != {width}:
        raise ValueError("field count")
    if b"\r" in "".join(chain.from_iterable(map(itemgetter(0, 1), block))).encode():
        raise ValueError("carriage return")
    labels[:] = np.fromiter(map(int, map(itemgetter(2), block)), np.int64, len(block))
    values = chain.from_iterable(map(itemgetter(slice(3, None)), block))
    features[:] = np.fromiter(map(float, values), float, features.size).reshape(features.shape)


def _first_fault(path, first: int, block, width: int) -> str:
    """The error for the first faulty row of a block that failed to parse."""
    for lineno, row in enumerate(block, start=first):
        if error := unreadable(path, row):
            return error
        if len(row) != width:
            return f"{path}:{lineno}: expected {width} fields, got {len(row)}"
        if "\r" in row[0] + row[1]:
            return f"{path}:{lineno}: carriage return in case_id or group"
        try:
            label = int(row[2])
        except ValueError:
            return f"{path}:{lineno}: unparseable label {row[2]!r}"
        if not -(2**63) <= label < 2**63:
            return f"{path}:{lineno}: label {row[2]} does not fit in 64 bits"
        for j, text in enumerate(row[3:]):
            try:
                float(text)
            except ValueError:
                return f"{path}:{lineno}: unparseable feature f{j} {text!r}"
    raise AssertionError("a block that failed to parse has a faulty row")


def _check_columns(path, dataset: Dataset) -> None:
    """The checks both read paths share, on the dataset read from ``path``:
    at least one row, no empty group, no empty or repeated case id, no
    ``\\r`` in a case id or group, no negative label and no non-finite
    feature.  The error names the first faulty line, and both lines of the
    first repeat in row order (found by :func:`_files.first_repeat`).
    """
    case_ids, groups = dataset.case_ids, dataset.groups
    if not case_ids:
        raise ValueError(f"{path}: dataset has no rows")
    if "" in groups:
        raise ValueError(f"{path}:{groups.index('') + 2}: empty group")
    if "" in case_ids:
        raise ValueError(f"{path}:{case_ids.index('') + 2}: empty case_id")
    repeat = first_repeat(case_ids)
    if repeat is not None:
        i, j = repeat
        raise ValueError(f"{path}:{i + 2}: case_id {case_ids[i]!r} repeats line {j + 2}")
    if "\r" in "".join(chain(case_ids, set(groups))):
        row = next(i for i, fields in enumerate(zip(case_ids, groups)) if "\r" in "".join(fields))
        raise ValueError(f"{path}:{row + 2}: carriage return in case_id or group")
    if dataset.labels.min() < 0:
        row = int(np.argmax(dataset.labels < 0))
        raise ValueError(f"{path}:{row + 2}: negative label {dataset.labels[row]}")
    finite = np.isfinite(dataset.features).all(axis=1)
    if not finite.all():
        raise ValueError(f"{path}:{int(np.argmin(finite)) + 2}: non-finite feature value")


def _chunks(path):
    """The bytes of the file at ``path``, 1 MiB at a time."""
    with open(path, "rb") as fh:
        yield from iter(lambda: fh.read(1 << 20), b"")


def _max_rows(path) -> int:
    """A bound on the rows of a CSV file: ``csv`` ends a row only at a
    ``\\n`` or ``\\r``, so a file has at most one row more than such bytes."""
    return 1 + sum(chunk.count(b"\n") + chunk.count(b"\r") for chunk in _chunks(path))


def _parse_csv(path) -> Dataset:
    """The rows of ``path``, once its header and every value parse.

    Rows are parsed a block at a time straight into the dataset's numpy
    arrays, allocated once for the most rows the file can hold (memory
    never written is never resident) and cut to the rows read, and each
    distinct group name is kept as one string, so no Python object per
    value or per group field outlives its block.  A byte that is not UTF-8
    is a parse fault of its row, so a parse fault on an earlier line is
    reported first; the column checks of :func:`_check_columns` run only
    once every row has parsed.
    """
    bound = _max_rows(path)
    return read_rows(path, lambda rows: _parse_rows(path, rows, bound))


def _parse_rows(path, reader, bound: int) -> Dataset:
    """The dataset of ``reader``'s rows, the lines of ``path``, which number
    at most ``bound``."""
    header = next(reader, None)
    if header is None:
        raise ValueError(f"{path}: empty dataset file")
    if header[:3] != ["case_id", "group", "label"]:
        expected = f"{path}: expected header case_id,group,label,f0..., got {header[:3]}"
        raise ValueError(unreadable(path, header) or expected)
    d = len(header) - 3
    if d < 1 or header[3:] != [f"f{j}" for j in range(d)]:
        raise ValueError(unreadable(path, header) or f"{path}: malformed feature columns in header")
    labels, features = np.empty(bound, dtype=np.int64), np.empty((bound, d))
    names: dict = {}
    case_ids, groups = [], []
    for first, block in blocks(reader, start=2):
        rows = slice(first - 2, first - 2 + len(block))
        try:
            _parse_block(block, len(header), labels[rows], features[rows])
        except (ValueError, OverflowError):
            raise ValueError(_first_fault(path, first, block, len(header))) from None
        case_ids.extend(map(itemgetter(0), block))
        block_groups = list(map(itemgetter(1), block))
        groups.extend(map(names.setdefault, block_groups, block_groups))
    return Dataset(features[: len(case_ids)], labels[: len(case_ids)], groups, case_ids)


def twin_path(path) -> Path:
    """Where the binary twin of the dataset CSV at ``path`` is kept: beside
    it, with the suffix ``.bin``."""
    return Path(path).with_suffix(".bin")


def _file_sha256(path) -> bytes:
    """The SHA-256 of the bytes of the file at ``path``."""
    digest = hashlib.sha256()
    for chunk in _chunks(path):
        digest.update(chunk)
    return digest.digest()


def write_twin(dataset: Dataset, csv_path, csv_sha256: bytes) -> None:
    """Write the binary twin of ``csv_path``, the file :func:`write_csv`
    wrote from ``dataset``, to :func:`twin_path`; a dataset with a case id
    holding ``\\n`` gets none.  Case ids and groups are strings.
    ``csv_sha256`` is the digest :func:`write_csv` returned.

    Layout: ``TWIN_MAGIC``, the SHA-256 of the CSV's bytes, the SHA-256 of
    the payload, then the payload: a ``<Q`` meta length, the JSON meta
    (rows, features, group names in first-seen order, byte length of the
    ids), labels as ``<i8``, features as row-major ``<f8``, each row's
    group as a ``<u4`` index into the names, and the case ids as UTF-8
    joined by ``\\n``.  The bytes are a function of the dataset alone.  The
    file is replaced whole, never left half-written.
    """
    n, d = dataset.features.shape
    ids = "\n".join(dataset.case_ids)
    if ids.count("\n") != n - 1:
        return
    ids = ids.encode()
    index = {name: code for code, name in enumerate(dict.fromkeys(dataset.groups))}
    meta = {"features": d, "groups": list(index), "ids_bytes": len(ids), "rows": n}
    meta = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
    payload = [
        struct.pack("<Q", len(meta)),
        meta,
        np.ascontiguousarray(dataset.labels, dtype="<i8"),
        np.ascontiguousarray(dataset.features, dtype="<f8"),
        np.fromiter(map(index.__getitem__, dataset.groups), "<u4", n),
        ids,
    ]
    digest = hashlib.sha256()
    for part in payload:
        digest.update(part)
    with atomic_write(twin_path(csv_path), "wb") as fh:
        fh.write(TWIN_MAGIC + csv_sha256 + digest.digest())
        for part in payload:
            fh.write(part)


def _read_twin(path):
    """The dataset held by the binary twin of the CSV at ``path``; None if
    the twin is missing, short or corrupt, or stands for other bytes than
    ``path`` holds: it is used only if its magic matches, its first digest
    is the SHA-256 of ``path``'s bytes and its second that of the payload
    read.  Each array is read straight into its final buffer, and each
    group name is kept as one string.
    """
    try:
        with open(twin_path(path), "rb") as fh:
            head = fh.read(TWIN_HEAD)
            if head[:8] != TWIN_MAGIC or head[8:40] != _file_sha256(path):
                return None
            size, meta_len = os.fstat(fh.fileno()).st_size, int.from_bytes(head[72:], "little")
            meta_text = fh.read(min(meta_len, size))
            meta = json.loads(meta_text)
            n, d, ids_len = sizes = meta["rows"], meta["features"], meta["ids_bytes"]
            if not all(type(v) is int and v >= 0 for v in sizes):
                return None
            if TWIN_HEAD + meta_len + n * (12 + 8 * d) + ids_len != size:  # also bounds what is allocated
                return None
            columns = np.empty(n, "<i8"), np.empty((n, d), "<f8"), np.empty(n, "<u4"), bytearray(ids_len)
            digest = hashlib.sha256(head[72:] + meta_text)
            for column in columns:
                fh.readinto(column)
                digest.update(column)
        if digest.digest() != head[40:72]:
            return None
        labels, features, codes, ids = columns
        case_ids = ids.decode().split("\n")
        names = meta["groups"]
        groups = [names[code] for code in codes.tolist()]
    except (OSError, ValueError, KeyError, TypeError, IndexError):  # JSON and UTF-8 errors are ValueErrors
        return None
    return Dataset(features, labels, groups, case_ids) if len(case_ids) == n else None


def read_csv(path) -> Dataset:
    """The dataset in the CSV at ``path``, written by :func:`write_csv`.

    When ``path``'s binary twin (:func:`write_twin`) matches its bytes,
    the arrays are loaded from the twin; otherwise the CSV is parsed, its
    header validated and every unparseable value rejected.  Either way,
    empty groups, case ids or groups holding ``\\r``, empty or repeated
    case ids, negative labels and non-finite features are rejected; errors
    name the file and line.
    """
    dataset = _read_twin(path)
    if dataset is None:
        dataset = _parse_csv(path)
    _check_columns(path, dataset)
    return dataset


def kfold_indices(n: int, folds: int, seed: int) -> list:
    """Shuffled fold splits as ``[(train_idx, val_idx), ...]``.

    For ``folds >= 2`` the validation sets are the strided slices
    ``perm[i::folds]``: disjoint, jointly covering every index, with sizes
    differing by at most one.  ``folds == 1`` degrades to a single split
    holding out the last fifth of the permutation (at least one sample).
    """
    if n < 2:
        raise ValueError(f"need n >= 2 to split, got {n}")
    if folds < 1 or folds > n:
        raise ValueError(f"folds must be in [1, {n}], got {folds}")
    perm = np.random.default_rng(seed).permutation(n)
    if folds == 1:
        n_val = max(1, int(n * HOLDOUT_FRACTION))
        return [(perm[: n - n_val].copy(), perm[n - n_val :].copy())]
    splits = []
    for i in range(folds):
        val = perm[i::folds]
        train = np.concatenate([perm[j::folds] for j in range(folds) if j != i])
        splits.append((train, val.copy()))
    return splits
