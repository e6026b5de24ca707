"""Synthetic hidden-stratification datasets, CSV round-trip, and fold splits.

The generator produces a classification task with a latent subgroup: a
majority population with well-separated Gaussian class clusters and a
minority population whose clusters are shifted to a different region of
feature space and packed closer together, which makes the minority strictly
harder to classify.  The subgroup tag is carried alongside each sample so
evaluation can stratify on it, but models never see it as a feature.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SyntheticConfig",
    "Dataset",
    "MAJORITY",
    "MINORITY",
    "generate",
    "write_csv",
    "read_csv",
    "kfold_indices",
]

MAJORITY = "majority"
MINORITY = "minority"

HOLDOUT_FRACTION = 0.2


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
        if not 0.0 < self.minority_fraction < 1.0:
            raise ValueError(f"minority_fraction must be in (0, 1), got {self.minority_fraction}")
        if not 0.0 < self.minority_radius <= self.majority_radius:
            raise ValueError("need 0 < minority_radius <= majority_radius")
        if self.shift < 0.0:
            raise ValueError(f"shift must be >= 0, got {self.shift}")
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
        counts: dict = {}
        for g in self.groups:
            counts[g] = counts.get(g, 0) + 1
        n = len(self)
        return {g: c / n for g, c in counts.items()}

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(
            self.features[idx],
            self.labels[idx],
            [self.groups[i] for i in idx],
            [self.case_ids[i] for i in idx],
        )


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

    width = max(4, len(str(n - 1)))
    return Dataset(
        features,
        labels.astype(np.int64),
        [MINORITY if m else MAJORITY for m in is_minority],
        [f"case_{i:0{width}d}" for i in range(n)],
    )


def write_csv(dataset: Dataset, path) -> None:
    """Write ``case_id,group,label,f0..f{d-1}`` rows; floats via repr so the
    round-trip through :func:`read_csv` is bit-exact."""
    d = dataset.features.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["case_id", "group", "label"] + [f"f{j}" for j in range(d)])
        for i in range(len(dataset)):
            writer.writerow(
                [dataset.case_ids[i], dataset.groups[i], int(dataset.labels[i])]
                + [repr(float(v)) for v in dataset.features[i]]
            )


def read_csv(path) -> Dataset:
    """Parse a dataset written by :func:`write_csv`, validating the header
    and rejecting non-finite features; errors name the line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty dataset file")
        if header[:3] != ["case_id", "group", "label"]:
            raise ValueError(f"{path}: expected header case_id,group,label,f0..., got {header[:3]}")
        d = len(header) - 3
        if d < 1 or header[3:] != [f"f{j}" for j in range(d)]:
            raise ValueError(f"{path}: malformed feature columns in header")
        case_ids, groups, labels, rows = [], [], [], []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ValueError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            case_ids.append(row[0])
            groups.append(row[1])
            labels.append(int(row[2]))
            rows.append([float(v) for v in row[3:]])
    if not rows:
        raise ValueError(f"{path}: dataset has no rows")
    labels_arr = np.asarray(labels, dtype=np.int64)
    if labels_arr.min() < 0:
        raise ValueError(f"{path}: labels must be non-negative")
    features = np.asarray(rows, dtype=float)
    finite = np.isfinite(features).all(axis=1)
    if not finite.all():
        raise ValueError(f"{path}:{int(np.argmin(finite)) + 2}: non-finite feature value")
    return Dataset(features, labels_arr, groups, case_ids)


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
