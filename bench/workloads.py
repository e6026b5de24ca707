"""The benchmark's workloads: fully pinned experiment configs per seed.

Every field the CLI reads is written out, so a default changing inside the
package cannot silently change what is measured.  In particular the DRO
sampler block always carries ``init_loss = MAX_LOSS``: an omitted block
defaults to it, but a partial block would fall back to ``SamplerConfig``'s
1.0.  The workload seed picks the data seed and the run seeds; the program
only ever sees the resulting config file.
"""

from __future__ import annotations

from dataclasses import dataclass

# -log(1e-12), the package's loss ceiling, spelled out so the config is pinned.
MAX_LOSS = 27.631021115928547

SAMPLER = {"beta": 100.0, "w_min": 0.1, "w_max": 10.0, "init_loss": MAX_LOSS}


@dataclass(frozen=True)
class Workload:
    """One workload; why each was chosen is recorded in BENCHMARK.json."""

    name: str
    n_samples: int
    n_features: int
    n_classes: int
    hidden: tuple
    batch_size: int
    folds: int
    epochs: int
    n_seeds: int
    # Criterion 7 of the acceptance gate: DRO minority p10 >= ERM minority
    # p10 on at least this many of the run seeds (None: no quality check).
    min_p10_wins: int | None = None
    # Whole pipeline repetitions per run (None: as many as fit).  Pinned
    # where one repetition takes about half the measuring time, so that
    # every run has the same mix of samples, whatever the machine's speed.
    repetitions: int | None = None

    def seeds(self, seed: int) -> list:
        return [seed * 100 + i for i in range(self.n_seeds)]

    def config(self, seed: int) -> dict:
        """The experiment config for workload seed ``seed``; no field left to defaults."""
        arm = {
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "learning_rate": 0.005,
            "folds": self.folds,
        }
        return {
            "data": {
                "n_samples": self.n_samples,
                "n_features": self.n_features,
                "n_classes": self.n_classes,
                "minority_fraction": 0.05,
                "majority_radius": 6.0,
                "minority_radius": 5.5,
                "shift": 6.0,
                "noise_majority": 0.0,
                "noise_minority": 0.0,
                "seed": seed,
            },
            "hidden": list(self.hidden),
            "train": {"erm": dict(arm), "dro": dict(arm, sampler=dict(SAMPLER))},
            "seeds": self.seeds(seed),
        }

    def train_samples(self) -> int:
        """Per-sample gradients one ``train`` command computes over all seeds.

        Fold f trains on n minus its validation slice; validation slices
        differ in size by at most one, and each epoch takes
        floor(n_train / B) full batches.
        """
        n, k, b = self.n_samples, self.folds, self.batch_size
        per_seed = 0
        for f in range(k):
            n_val = n // k + (1 if f < n % k else 0)
            per_seed += (n - n_val) // b * b
        return self.n_seeds * self.epochs * per_seed


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="stratification",
            n_samples=2000,
            n_features=10,
            n_classes=3,
            hidden=(16,),
            batch_size=32,
            folds=5,
            epochs=4,
            n_seeds=10,
            min_p10_wins=7,
        ),
        Workload(
            name="large-n",
            n_samples=100_000,
            n_features=8,
            n_classes=3,
            hidden=(32, 32),
            batch_size=32,
            folds=3,
            epochs=2,
            n_seeds=1,
            repetitions=1,
        ),
    )
}
