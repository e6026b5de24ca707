"""Tests of the benchmark itself: span arithmetic, tracing transparency, checks.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import traced_run
from tracing import Span, Tracer, installed, self_time, step_self_times
from workloads import WORKLOADS, Workload

BENCH = Path(__file__).resolve().parents[1]

TINY = Workload(
    name="tiny",
    n_samples=150,
    n_features=4,
    n_classes=3,
    hidden=(8,),
    batch_size=16,
    folds=3,
    epochs=2,
    n_seeds=2,
)


def span(name, start, end, parent=0):
    return Span(name, start, end, parent, "root")


def test_self_time_subtracts_the_union_of_children():
    root = Span("root", 0.0, 10.0, None, "root")
    # Overlapping children count once; the part of a child past the
    # parent's end does not count.
    children = [span("a", 1.0, 3.0), span("b", 2.0, 5.0), span("c", 8.0, 12.0)]
    assert self_time(root, children) == pytest.approx(10.0 - 4.0 - 2.0)
    assert self_time(root, []) == 10.0


def test_step_self_times_cut_at_the_last_call_of_each_step():
    loop = Span("training.run_epochs", 0.0, 10.5, None, "root")
    children = [
        span("sampler.draw", 1.0, 2.0),
        span("mlp.fwd_bwd", 2.0, 4.0),
        span("mlp.sgd", 4.0, 5.0),
        span("sampler.update", 5.0, 6.0),
        span("sampler.draw", 7.0, 8.0),
        span("mlp.fwd_bwd", 8.0, 9.0),
        span("mlp.sgd", 9.0, 9.5),
        span("sampler.update", 9.5, 10.0),
    ]
    assert step_self_times(loop, children, "sampler.update") == pytest.approx([1.0, 1.0])
    # Cut after the SGD update instead, the stale-loss update of step one
    # falls into step two.
    assert step_self_times(loop, children, "mlp.sgd") == pytest.approx([1.0, 1.0])


def test_tracer_records_nesting_on_a_fake_clock():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    class Owner:
        @staticmethod
        def inner(x):
            return x + 1

        @staticmethod
        def outer(x):
            return Owner.inner(x) * Owner.inner(x)

    with installed(tracer, [(Owner, "inner", "inner", lambda r: r), (Owner, "outer", "outer", None)]):
        with tracer.span("cmd"):
            assert Owner.outer(1) == 4
    assert Owner.inner(1) == 2 and not hasattr(Owner.inner, "__wrapped__")
    names = [(s.name, s.parent, s.root) for s in tracer.spans]
    assert names == [("cmd", None, "cmd"), ("outer", 0, "cmd"), ("inner", 1, "cmd"), ("inner", 1, "cmd")]
    cmd, outer, a, b = tracer.spans
    assert (cmd.start, cmd.end) == (0.0, 7.0)
    assert (outer.start, a.start, a.end, b.start, b.end, outer.end) == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    assert self_time(outer, tracer.children()[1]) == 3.0
    assert tracer.kept["inner"] == [(2, 2), (3, 2)]


@pytest.fixture(scope="module")
def tiny_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("config") / "config.json"
    path.write_text(json.dumps(TINY.config(3)))
    return path


@pytest.fixture(scope="module")
def two_traced_runs(tiny_config, tmp_path_factory):
    outs = [tmp_path_factory.mktemp(f"traced{k}") for k in range(2)]
    return outs, [traced_run.run(tiny_config, out, seconds=0) for out in outs]


def test_traced_artifacts_are_byte_identical_to_untraced(two_traced_runs):
    (out, _), (layers, _) = two_traced_runs
    assert all(code == 0 for _, code in layers["codes"])
    reference = checks.artifact_digests(out / "untraced")
    assert len(reference) == 1 + 2 * TINY.n_seeds * (TINY.folds + 1)
    assert checks.artifact_digests(out / "pass_0") == reference


def test_deterministic_counters_repeat_exactly(two_traced_runs):
    _, (first, second) = two_traced_runs
    assert first["counters"] == second["counters"]
    counts = first["counters"][0]
    assert counts["dro.sampler.draws"] == TINY.train_samples() // TINY.batch_size
    assert counts["generate.datasets.csv_bytes"] > 0
    for key in ("erm.training.checkpoint_bytes", "dro.training.checkpoint_bytes"):
        assert counts[key] > 0
    assert 0.0 < counts["dro.sampler.distinct_frac"] <= 1.0
    for key in ("erm.mlp.clamp_frac", "dro.mlp.clamp_frac", "dro.sampler.clip_frac"):
        assert 0.0 <= counts[key] <= 1.0


def test_traced_run_times_every_layer(two_traced_runs):
    _, (layers, _) = two_traced_runs
    metrics = layers["metrics"] | layers["counters"][0]
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    untimed = {"cli.import_s"} | {m["name"] for m in spec["per_layer"] if m["name"].startswith("sampler.")}
    assert {m["name"] for m in spec["per_layer"]} - untimed <= metrics.keys()
    assert metrics["dro.sampler.draw_us.p50"] > 0 and metrics["erm.mlp.fwd_bwd_us.p50"] > 0


def test_checks_catch_broken_artifacts(two_traced_runs):
    (out, _), (layers, _) = two_traced_runs
    run_dir = out / "pass_0"
    cases = checks.read_cases(run_dir / "dataset.csv", TINY.n_samples)
    seeds = TINY.seeds(3)
    ledger = checks.Ledger()
    arms_ok = checks.check_arms(run_dir, seeds, TINY.folds, cases, ledger, "ok")
    reports = {int(s): t for s, t in layers["reports"][0].items()}
    checks.check_reports(TINY, reports, arms_ok, ledger, "ok")
    assert ledger.failed == 0 and ledger.attempted == 2 + 2 * len(seeds)

    broken = out / "broken"
    shutil.copytree(run_dir, broken)
    scores = broken / "dro" / f"seed_{seeds[0]}" / "scores.csv"
    scores.write_text("".join(scores.read_text().splitlines(keepends=True)[:-1]))
    (broken / "erm" / f"seed_{seeds[1]}" / "fold_0.ckpt").write_bytes(b"")
    ledger = checks.Ledger()
    arms = checks.check_arms(broken, seeds, TINY.folds, cases, ledger, "broken")
    # One failure per broken arm, one per seed that is no longer comparable.
    assert ledger.failed == 4 and not arms
    doc = json.loads(reports[seeds[0]])
    for group in doc["report"]["groups"]:
        if group["name"] == checks.MINORITY:
            group["regions"][0]["p10"] += 1e-6
    assert checks.check_report(json.dumps(doc), arms_ok[seeds[0]], "wrong", ledger) is None
    assert checks.artifact_digests(broken) != checks.artifact_digests(run_dir)


def test_workload_sample_counts():
    assert WORKLOADS["stratification"].train_samples() == 10 * 4 * 5 * (1600 // 32 * 32)
    # 100000 cases in 3 folds: validation slices of 33334, 33333, 33333.
    assert WORKLOADS["large-n"].train_samples() == 2 * (66666 // 32 * 32 + 2 * (66667 // 32 * 32))


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    argv = [sys.executable, "bench/run.py", "--workload", "stratification", "--seed", "1", "--seconds", "1"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_end_to_end_repeats_and_checks_the_pipeline(tmp_path):
    ledger = checks.Ledger()
    runner = run.Runner(run.child_env(), tmp_path / "logs")
    metrics, raw = run.end_to_end(TINY, 3, 4.0, runner, tmp_path, ledger)
    assert ledger.failures == []
    assert len(raw["pipeline_s"]) >= 2 and len(raw["erm_s"]) >= len(raw["dro_s"])
    assert len(raw["report_s"]) >= TINY.n_seeds * len(raw["pipeline_s"])
    assert metrics["erm_samples_per_s"] > 0 and metrics["peak_rss_mb"] > 0
