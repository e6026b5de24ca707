"""Release gate: nine end-to-end checks, one printed verdict line each.

Each test exercises a whole-system property at its stated tolerance and
runtime budget: objective closed forms against grid search, the robust-loss
identity, Chernoff coverage, backprop against finite differences, the
sampler's draw law, the uniform-limit degeneracy to ERM, the hidden
stratification experiment, report fidelity, and byte-level reproducibility
of the command line pipeline.
"""

import os
import subprocess
import sys
import time

import numpy as np

from drotrain.datasets import MAJORITY, MINORITY, SyntheticConfig, generate
from drotrain.metrics import percentile_report, render_text, render_value
from drotrain.mlp import MAX_LOSS, Sample, init_params, per_sample_gradient, per_sample_loss, true_class_prob
from drotrain.objectives import (
    RobustConfig,
    chernoff_percentile_bound,
    dro_inner_objective,
    lse_robust_loss,
    optimal_weights,
)
from drotrain.sampler import HardnessWeightedSampler, SamplerConfig
from drotrain.scores import ScoreRow, ScoreTable
from drotrain.training import TrainConfig, cross_validate, train_dro, train_replacement_erm
from oracles import grid_search_maximizer, neg_entropy, percentile_sort_oracle, simplex_grid


def _verdict(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


class TestAcceptance:
    def test_criterion_1_weights_match_grid_search(self):
        """Closed-form adversarial weights equal the brute-force maximizer."""
        start = time.perf_counter()
        grid = simplex_grid(1e-3)
        neg_ent = neg_entropy(grid)
        rng = np.random.default_rng(101)
        worst = 0.0
        for i in range(100):
            losses = rng.random(3)
            beta = (1.0, 10.0, 100.0)[i % 3]
            best = grid_search_maximizer(losses, beta, grid, neg_ent)
            gap = np.abs(optimal_weights(losses, beta) - best).max()
            worst = max(worst, float(gap))
        elapsed = time.perf_counter() - start
        ok = worst <= 2e-3 and elapsed < 5.0
        _verdict(1, ok, f"max L-inf gap {worst:.2e} (tol 2e-3), {elapsed:.1f}s (< 5s)")

    def test_criterion_2_inner_objective_identity(self):
        """Optimal inner objective plus log(n)/beta equals the LSE loss."""
        start = time.perf_counter()
        rng = np.random.default_rng(202)
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(2, 201))
            losses = rng.standard_normal(n)
            beta = float(10.0 ** rng.uniform(-1, 2))
            lhs = dro_inner_objective(losses, optimal_weights(losses, beta), beta)
            gap = abs(lhs + np.log(n) / beta - lse_robust_loss(losses, beta))
            worst = max(worst, float(gap))
        elapsed = time.perf_counter() - start
        ok = worst <= 1e-9 and elapsed < 2.0
        _verdict(2, ok, f"max identity gap {worst:.2e} (tol 1e-9), {elapsed:.1f}s (< 2s)")

    def test_criterion_3_chernoff_bound_coverage(self):
        """At most an alpha-fraction of losses ever reaches the bound."""
        start = time.perf_counter()
        rng = np.random.default_rng(303)
        violations = 0
        for _ in range(1000):
            losses = rng.random(50)
            for beta in (1.0, 10.0, 100.0):
                for alpha in (0.05, 0.1, 0.25):
                    bound = chernoff_percentile_bound(losses, RobustConfig(beta=beta, alpha=alpha))
                    if np.count_nonzero(losses >= bound) / 50.0 > alpha:
                        violations += 1
        elapsed = time.perf_counter() - start
        ok = violations == 0 and elapsed < 5.0
        _verdict(3, ok, f"{violations} violations in 9000 checks, {elapsed:.1f}s (< 5s)")

    def test_criterion_4_gradients_match_finite_differences(self):
        """Backprop agrees with central differences on every coordinate."""
        start = time.perf_counter()
        rng = np.random.default_rng(404)
        dims = (6, 32, 32, 3)
        h = 1e-5
        worst = 0.0
        for pair in range(50):
            params = init_params(dims, seed=1000 + pair)
            sample = Sample(rng.standard_normal(dims[0]), int(rng.integers(dims[-1])))
            grad = per_sample_gradient(params, sample)
            work = params.copy()
            for arrays, grads in ((work.weights, grad.weights), (work.biases, grad.biases)):
                for arr, g in zip(arrays, grads):
                    it = np.nditer(arr, flags=["multi_index"])
                    for _ in it:
                        ij = it.multi_index
                        arr[ij] += h
                        up = per_sample_loss(work, sample)
                        arr[ij] -= 2 * h
                        down = per_sample_loss(work, sample)
                        arr[ij] += h
                        fd = (up - down) / (2 * h)
                        rel = abs(g[ij] - fd) / max(1e-2, abs(g[ij]), abs(fd))
                        worst = max(worst, rel)
        elapsed = time.perf_counter() - start
        ok = worst < 1e-4 and elapsed < 30.0
        _verdict(4, ok, f"max relative error {worst:.2e} (tol 1e-4), {elapsed:.1f}s (< 30s)")

    def test_criterion_5_sampler_draw_law(self):
        """Empirical draw frequencies match the closed-form distribution."""
        start = time.perf_counter()
        n, draws = 20, 200_000
        stale = np.random.default_rng(505).random(n)

        sampler = HardnessWeightedSampler(n, SamplerConfig(beta=10.0), seed=55)
        sampler.update_losses(np.arange(n), stale)
        indices, _ = sampler.draw(draws)
        freq = np.bincount(indices, minlength=n) / draws
        gap_model = float(np.abs(freq - sampler.distribution()).max())

        flat = HardnessWeightedSampler(n, SamplerConfig(beta=1e-8), seed=56)
        flat.update_losses(np.arange(n), stale)
        indices, _ = flat.draw(draws)
        freq = np.bincount(indices, minlength=n) / draws
        gap_uniform = float(np.abs(freq - 1.0 / n).max())

        elapsed = time.perf_counter() - start
        ok = gap_model < 0.01 and gap_uniform < 0.01 and elapsed < 5.0
        _verdict(
            5,
            ok,
            f"L-inf vs law {gap_model:.4f}, vs uniform {gap_uniform:.4f} "
            f"(tol 0.01), {elapsed:.1f}s (< 5s)",
        )

    def test_criterion_6_uniform_limit_recovers_erm(self):
        """Beta -> 0 with unit clipping trains like with-replacement ERM."""
        start = time.perf_counter()
        dataset = generate(SyntheticConfig(), seed=1234)
        minority = np.asarray(dataset.groups) == MINORITY
        dims = (8, 32, 32, 4)
        gaps = []
        for seed in range(10):
            dro_cfg = TrainConfig(
                epochs=10,
                batch_size=32,
                learning_rate=0.05,
                mode="dro",
                sampler=SamplerConfig(beta=1e-8, w_min=1.0, w_max=1.0),
                seed=seed,
            )
            erm_cfg = TrainConfig(epochs=10, batch_size=32, learning_rate=0.05, seed=seed)
            p_dro = true_class_prob(train_dro(dataset, dims, dro_cfg), dataset.features, dataset.labels)
            p_erm = true_class_prob(
                train_replacement_erm(dataset, dims, erm_cfg), dataset.features, dataset.labels
            )
            gaps.append(float(p_dro[minority].mean() - p_erm[minority].mean()))
        mean_gap = float(np.mean(gaps))
        elapsed = time.perf_counter() - start
        ok = abs(mean_gap) <= 0.02 and elapsed < 300.0
        _verdict(6, ok, f"mean paired minority gap {mean_gap * 100:+.3f}pp (tol 2pp), {elapsed:.0f}s (< 300s)")

    def test_criterion_7_hidden_stratification_experiment(self):
        """Robust training lifts the minority low percentiles that mean-loss
        training leaves behind, without costing the majority group."""
        start = time.perf_counter()
        data_config = SyntheticConfig(
            n_samples=2000,
            n_features=10,
            n_classes=3,
            minority_fraction=0.05,
            majority_radius=6.0,
            minority_radius=5.5,
            shift=6.0,
        )
        dataset = generate(data_config, seed=77)
        hidden = (16,)

        def stats(table, group):
            for block in percentile_report(table).groups:
                if block.name == group:
                    return block.regions[0][1]
            raise AssertionError(f"group {group!r} missing from report")

        rows = []
        for seed in range(10):
            erm_cfg = TrainConfig(epochs=4, batch_size=32, learning_rate=0.005, folds=5, seed=seed)
            dro_cfg = TrainConfig(
                epochs=4,
                batch_size=32,
                learning_rate=0.005,
                mode="dro",
                sampler=SamplerConfig(beta=100.0, w_min=0.1, w_max=10.0, init_loss=MAX_LOSS),
                folds=5,
                seed=seed,
            )
            erm = cross_validate(dataset, hidden, erm_cfg).table
            dro = cross_validate(dataset, hidden, dro_cfg).table
            rows.append(
                (
                    stats(erm, MINORITY).p10,
                    stats(dro, MINORITY).p10,
                    stats(erm, MINORITY).mean,
                    stats(erm, MAJORITY).mean,
                    stats(dro, MAJORITY).mean,
                )
            )
        arr = np.asarray(rows)
        erm_gap = float((arr[:, 3] - arr[:, 2]).mean())
        wins = int((arr[:, 1] >= arr[:, 0]).sum())
        p10_gain = float((arr[:, 1] - arr[:, 0]).mean())
        majority_drop = float((arr[:, 3] - arr[:, 4]).mean())
        elapsed = time.perf_counter() - start
        ok = erm_gap >= 5.0 and wins >= 7 and p10_gain > 0.0 and majority_drop < 2.0 and elapsed < 900.0
        _verdict(
            7,
            ok,
            f"erm majority-minority gap {erm_gap:.1f}pp (need >= 5), p10 wins {wins}/10 (need >= 7), "
            f"mean p10 gain {p10_gain:+.1f}pp (need > 0), majority drop {majority_drop:+.1f}pp "
            f"(need < 2), {elapsed:.0f}s (< 900s)",
        )

    def test_criterion_8_report_matches_sort_oracle(self):
        """Report cells equal an independent sort-and-index computation."""
        start = time.perf_counter()
        rng = np.random.default_rng(808)
        groups = ("majority", "minority")
        regions = ("anterior", "posterior")
        rows = [
            ScoreRow(
                f"case_{i:03d}",
                groups[int(rng.integers(2))],
                regions[int(rng.integers(2))],
                float(rng.random()),
            )
            for i in range(98)
        ]
        table = ScoreTable(rows)
        report = percentile_report(table)

        by_stratum = {}
        for row in rows:
            by_stratum.setdefault((row.group, row.region), []).append(row.score)
        cells_ok = True
        for block in report.groups:
            for region, stats in block.regions:
                scores = by_stratum[(block.name, region)]
                for name, alpha in (("p50", 0.50), ("p25", 0.25), ("p10", 0.10), ("p5", 0.05)):
                    cells_ok &= getattr(stats, name) == 100.0 * percentile_sort_oracle(scores, alpha)
                oracle_mean = 100.0 * sum(scores) / len(scores)
                oracle_std = 100.0 * float(np.sqrt(np.mean((np.asarray(scores) - np.mean(scores)) ** 2)))
                cells_ok &= render_value(stats.mean) == render_value(oracle_mean)
                cells_ok &= render_value(stats.std) == render_value(oracle_std)
                cells_ok &= bool(np.isclose(stats.mean, oracle_mean, rtol=0, atol=1e-9))
                cells_ok &= bool(np.isclose(stats.std, oracle_std, rtol=0, atol=1e-9))
        stable = render_text(report) == render_text(percentile_report(ScoreTable(rows)))
        elapsed = time.perf_counter() - start
        ok = cells_ok and stable and elapsed < 1.0
        _verdict(8, ok, f"cells match oracle: {cells_ok}, text byte-stable: {stable}, {elapsed:.2f}s (< 1s)")

    def test_criterion_9_pipeline_reproducibility(self, tmp_path):
        """The full generate/train/report pipeline is byte-for-byte repeatable."""
        start = time.perf_counter()
        config_path = tmp_path / "config.json"
        config_path.write_text(
            """
            {
              "data": {"n_samples": 200, "n_features": 6, "n_classes": 3,
                       "minority_fraction": 0.1, "shift": 2.0, "seed": 5},
              "hidden": [8],
              "train": {
                "erm": {"epochs": 2, "batch_size": 16, "learning_rate": 0.01, "folds": 2},
                "dro": {"epochs": 2, "batch_size": 16, "learning_rate": 0.01, "folds": 2}
              },
              "seeds": [0]
            }
            """,
            encoding="utf-8",
        )
        env = {k: v for k, v in os.environ.items() if k != "DRO_SEED"}

        def pipeline(out):
            base = [sys.executable, "-m", "drotrain"]
            commands = [
                base + ["generate", "--config", str(config_path), "--out", str(out)],
                base + ["train", "--config", str(config_path), "--arm", "erm", "--out", str(out)],
                base + ["train", "--config", str(config_path), "--arm", "dro", "--out", str(out)],
                base
                + [
                    "report",
                    str(out / "dro" / "seed_0" / "scores.csv"),
                    "--baseline",
                    str(out / "erm" / "seed_0" / "scores.csv"),
                    "--out",
                    str(out / "report"),
                ],
            ]
            for cmd in commands:
                done = subprocess.run(cmd, env=env, capture_output=True, encoding="utf-8")
                assert done.returncode == 0, f"{cmd[3:]} failed: {done.stderr}"

        def tree(root):
            return {
                p.relative_to(root).as_posix(): p.read_bytes()
                for p in sorted(root.rglob("*"))
                if p.is_file()
            }

        pipeline(tmp_path / "first")
        pipeline(tmp_path / "second")
        first, second = tree(tmp_path / "first"), tree(tmp_path / "second")
        same_names = sorted(first) == sorted(second)
        same_bytes = same_names and all(first[name] == second[name] for name in first)
        elapsed = time.perf_counter() - start
        ok = same_names and same_bytes and elapsed < 900.0
        _verdict(
            9,
            ok,
            f"{len(first)} artifacts, identical names: {same_names}, identical bytes: {same_bytes}, "
            f"{elapsed:.0f}s (< 900s)",
        )
