"""Traced in-process run of the drotrain pipeline for one workload config.

    PYTHONPATH=src python3 bench/traced_run.py --config CONFIG --out DIR --seconds S

First runs ``generate`` and both ``train`` arms through ``drotrain.cli.main``
untraced into ``DIR/untraced``, timing the trains.  Then repeats traced
passes of the whole pipeline (generate, train erm, train dro, one report
per seed) into ``DIR/pass_<k>``, at least one and as many as end within
``S`` seconds of the start, and finally times the sampler alone at fixed
n.  Writes ``DIR/layers.json`` (exit codes, report outputs, per-layer
metrics and the deterministic counters of each pass) and
``DIR/spans.json.gz`` (every span of every pass as ``[name, start, end,
parent index, root]``); the caller checks the artifacts.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import json
import statistics
import time
from pathlib import Path

import numpy as np

from drotrain import cli, datasets, scores, training
from drotrain import sampler as sampler_module
from drotrain.mlp import MAX_LOSS
from drotrain.sampler import HardnessWeightedSampler, SamplerConfig
from tracing import Tracer, installed, p50, p99, self_time, step_self_times

US = 1e6
ARMS = ("erm", "dro")
# The last call of one training step, per arm: where step_self_times cuts.
STEP_END = {"erm": "mlp.sgd", "dro": "sampler.update"}


def _distinct(state):
    """(distinct cases drawn, n) of a DRO fold; None for ERM."""
    if state.sampler is None:
        return None
    return int(np.count_nonzero(state.sampler.draw_counts)), state.sampler.n


# (owner, attribute, span name, what to keep of each result).  Owners are
# where the caller looks the name up: training imports the mlp functions
# into its namespace, and the CLI imports the metrics functions into its.
TARGETS = (
    (training, "weighted_loss_gradient", "mlp.fwd_bwd", lambda r: r[0]),
    (training, "sgd_step", "mlp.sgd", None),
    (training, "true_class_prob", "mlp.score", None),
    (training, "run_epochs", "training.run_epochs", _distinct),
    (training, "save_checkpoint", "training.checkpoint", None),
    (sampler_module, "optimal_weights", "objectives.weights", None),
    (HardnessWeightedSampler, "draw", "sampler.draw", lambda r: r[1]),
    (HardnessWeightedSampler, "update_losses", "sampler.update", None),
    (datasets, "generate", "datasets.generate", None),
    (datasets, "write_csv", "datasets.write_csv", None),
    (datasets, "read_csv", "datasets.read_csv", None),
    (scores, "write_scores", "scores.write", None),
    (scores, "load_scores", "scores.load", None),
    (cli, "percentile_report", "metrics.report", None),
    (cli, "compare_reports", "metrics.report", None),
    (cli, "render_json", "metrics.render", None),
    (cli, "render_text", "metrics.render", None),
    (cli, "render_comparison_json", "metrics.render", None),
    (cli, "render_comparison_text", "metrics.render", None),
)


def call(argv) -> tuple:
    """Run one CLI command in-process: (exit code, captured stdout)."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue()


def commands(config: Path, out: Path, seeds) -> list:
    """(span name, argv, seed) of one pass of the pipeline."""
    steps = [("cli.generate", ["generate", "--config", config, "--out", out], None)]
    for arm in ARMS:
        steps.append((f"cli.train.{arm}", ["train", "--config", config, "--arm", arm, "--out", out], None))
    for seed in seeds:
        dro, erm = (out / arm / f"seed_{seed}" / "scores.csv" for arm in ("dro", "erm"))
        steps.append(("cli.report", ["report", dro, "--baseline", erm, "--format", "json"], seed))
    return steps


def traced_pass(config: Path, out: Path, seeds, codes: list) -> tuple:
    """One traced pass: (tracer, seed -> report text)."""
    tracer, reports = Tracer(), {}
    with installed(tracer, TARGETS):
        for name, argv, seed in commands(config, out, seeds):
            with tracer.span(name):
                code, text = call(argv)
            codes.append([f"{out.name} {name}" + ("" if seed is None else f" seed {seed}"), code])
            if seed is not None:
                reports[seed] = text
    return tracer, reports


def layer_metrics(tracers) -> dict:
    """Per-layer timings pooled over the traced passes; call counts are per pass."""
    groups: dict = {}
    for tracer in tracers:
        kids = tracer.children()
        for i, s in enumerate(tracer.spans):
            groups.setdefault((s.name, s.root), []).append((s, kids.get(i, [])))

    def spans(name, root=None):
        """(span, children) of every span ``name`` under command ``root``, or of command ``name``."""
        return groups.get((name, root or name), [])

    def durations(name, root, scale=1.0):
        return [s.duration * scale for s, _ in spans(name, root)]

    def per_command(root, name):
        """Median over ``root`` commands of the time their direct ``name`` children took."""
        return p50([sum(c.duration for c in ch if c.name == name) for _, ch in spans(root)])

    m = {}

    def timing(key, name, root):
        values = durations(name, root, US)
        m[f"{key}.p50"], m[f"{key}.p99"] = p50(values), p99(values)
        return values

    for arm in ARMS:
        root = f"cli.train.{arm}"
        wall = sum(durations(root, root))
        fwd = timing(f"{arm}.mlp.fwd_bwd_us", "mlp.fwd_bwd", root)
        sgd = timing(f"{arm}.mlp.sgd_us", "mlp.sgd", root)
        m[f"{arm}.mlp.fwd_bwd_us.calls"] = len(fwd) // len(tracers)
        m[f"{arm}.mlp.busy_frac"] = ((sum(fwd) + sum(sgd)) / US + sum(durations("mlp.score", root))) / wall
        loops = spans("training.run_epochs", root)
        steps = [t for s, ch in loops for t in step_self_times(s, ch, STEP_END[arm])]
        m[f"{arm}.training.step_self_us.p50"] = p50(steps) * US
        m[f"{arm}.training.step_self_us.p99"] = p99(steps) * US
        m[f"{arm}.training.fold_s.p50"] = p50([s.duration for s, _ in loops])
        m[f"{arm}.training.fold_s.calls"] = len(loops) // len(tracers)
        m[f"{arm}.training.checkpoint_s.p50"] = p50(durations("training.checkpoint", root))
        m[f"{arm}.datasets.read_csv_s"] = p50(durations("datasets.read_csv", root))
        m[f"{arm}.scores.write_s"] = p50(durations("scores.write", root))
        m[f"{arm}.cli.self_s"] = p50([self_time(s, ch) for s, ch in spans(root)])
        if arm == "dro":
            draw = timing("dro.sampler.draw_us", "sampler.draw", root)
            update = timing("dro.sampler.update_us", "sampler.update", root)
            timing("dro.objectives.weights_us", "objectives.weights", root)
            m["dro.sampler.busy_frac"] = (sum(draw) + sum(update)) / US / wall

    m["generate.datasets.generate_s"] = per_command("cli.generate", "datasets.generate")
    m["generate.datasets.write_csv_s"] = per_command("cli.generate", "datasets.write_csv")
    m["generate.cli.self_s"] = p50([self_time(s, ch) for s, ch in spans("cli.generate")])
    m["report.scores.load_s"] = per_command("cli.report", "scores.load")
    m["report.metrics.report_s"] = per_command("cli.report", "metrics.report")
    m["report.metrics.render_s"] = per_command("cli.report", "metrics.render")
    m["report.cli.self_s"] = p50([self_time(s, ch) for s, ch in spans("cli.report")])
    return m


def counters(tracer: Tracer, out: Path, sampler: SamplerConfig) -> dict:
    """Counts of one pass that depend only on the config: they must repeat exactly."""
    c = {}
    for arm in ARMS:
        root = f"cli.train.{arm}"
        losses = [v for i, v in tracer.kept["mlp.fwd_bwd"] if tracer.spans[i].root == root]
        clamped = sum(int(np.count_nonzero(v >= MAX_LOSS)) for v in losses)
        c[f"{arm}.mlp.clamp_frac"] = clamped / sum(v.size for v in losses)
        sizes = [p.stat().st_size for p in sorted(out.glob(f"{arm}/seed_*/fold_*.ckpt"))]
        c[f"{arm}.training.checkpoint_bytes"] = statistics.median(sizes)
    weights = [w for _, w in tracer.kept["sampler.draw"]]
    clipped = sum(int(np.count_nonzero((w <= sampler.w_min) | (w >= sampler.w_max))) for w in weights)
    c["dro.sampler.draws"] = len(weights)
    c["dro.sampler.clip_frac"] = clipped / sum(w.size for w in weights)
    folds = [v for _, v in tracer.kept["training.run_epochs"] if v is not None]
    c["dro.sampler.distinct_frac"] = sum(d for d, _ in folds) / sum(n for _, n in folds)
    c["generate.datasets.csv_bytes"] = (out / cli.DATASET_FILENAME).stat().st_size
    return c


def sampler_scaling(sampler: SamplerConfig, batch: int, seed: int, budget_s: float = 1.0) -> dict:
    """Median draw and update time at fixed n, by a direct call loop.

    Starts from the training start state (every stale loss at init_loss)
    and feeds back uniform random losses, one update per draw as in a DRO
    step.  At most 1000 calls, at least 20, else ``budget_s`` per n.
    """
    m = {}
    for exp in (3, 4, 5, 6):
        n = 10**exp
        rng = np.random.default_rng([seed, n])
        s = HardnessWeightedSampler(n, sampler, seed=seed)
        draws, updates = [], []
        deadline = time.perf_counter() + budget_s
        while len(draws) < 1000 and (len(draws) < 20 or time.perf_counter() < deadline):
            fresh = rng.uniform(0.0, MAX_LOSS, batch)
            t0 = time.perf_counter()
            idx, _ = s.draw(batch)
            t1 = time.perf_counter()
            s.update_losses(idx, fresh)
            t2 = time.perf_counter()
            draws.append((t1 - t0) * US)
            updates.append((t2 - t1) * US)
        m[f"sampler.draw_us.n1e{exp}"] = p50(draws)
        m[f"sampler.update_us.n1e{exp}"] = p50(updates)
    return m


def run(config: Path, out: Path, seconds: float) -> dict:
    """The untraced and traced runs; returns what ``layers.json`` holds, bar the sampler scaling."""
    doc = json.loads(config.read_text())
    seeds = doc["seeds"]
    sampler = SamplerConfig(**doc["train"]["dro"]["sampler"])
    codes = []

    start = time.perf_counter()
    untraced = out / "untraced"
    codes.append(["untraced generate", call(["generate", "--config", config, "--out", untraced])[0]])
    untraced_s = {}
    for arm in ARMS:
        began = time.perf_counter()
        code, _ = call(["train", "--config", config, "--arm", arm, "--out", untraced])
        untraced_s[arm] = time.perf_counter() - began
        codes.append([f"untraced train {arm}", code])

    tracers, reports, counts = [], [], []
    # At least one traced pass; none that would end past ``seconds`` from the start.
    passes_start = time.perf_counter()
    while not tracers or (
        time.perf_counter() - start + (time.perf_counter() - passes_start) / len(tracers) <= seconds
    ):
        pass_dir = out / f"pass_{len(tracers)}"
        tracer, texts = traced_pass(config, pass_dir, seeds, codes)
        tracers.append(tracer)
        reports.append(texts)
        counts.append(counters(tracer, pass_dir, sampler))

    metrics = layer_metrics(tracers)
    for arm in ARMS:
        first = next(s for s in tracers[0].spans if s.name == f"cli.train.{arm}")
        metrics[f"{arm}.trace_overhead_s"] = first.duration - untraced_s[arm]

    spans = {
        f"pass_{k}": [[s.name, s.start, s.end, s.parent, s.root] for s in tracer.spans]
        for k, tracer in enumerate(tracers)
    }
    (out / "spans.json.gz").write_bytes(gzip.compress(json.dumps(spans).encode(), compresslevel=1))
    return {"codes": codes, "reports": reports, "metrics": metrics, "counters": counts}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--config", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    layers = run(args.config, args.out, args.seconds)
    doc = json.loads(args.config.read_text())
    sampler = SamplerConfig(**doc["train"]["dro"]["sampler"])
    layers["metrics"].update(sampler_scaling(sampler, doc["train"]["dro"]["batch_size"], doc["data"]["seed"]))
    (args.out / "layers.json").write_text(json.dumps(layers, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
