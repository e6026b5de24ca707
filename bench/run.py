#!/usr/bin/env python3
"""Pipeline benchmark for drotrain: the CLI end to end, or traced per layer.

Run from the root of a checkout (the directory holding ``src/drotrain``):

    python3 bench/run.py --workload stratification --seed 1 --seconds 60 --trace 0

``--trace 0`` runs the real pipeline as child processes: repetitions of
``generate``, ``train --arm erm``, ``train --arm dro`` and one ``report`` per
run seed, at least one and as many as fit in ``--seconds`` (or as the
workload pins), then ``generate`` followed by ``report`` and ``train --arm
erm`` in turn, one command at a time while the next fits.  It reports the
end-to-end metrics named in BENCHMARK.json as medians over all samples, and
checks that every repetition wrote the same bytes.  ``--trace 1`` runs
``bench/traced_run.py`` instead, which calls ``drotrain.cli.main`` in one
process with spans around each module's public functions, and reports the
per-layer metrics.  Both modes check every artifact and count each command
and check as one attempted operation.  The last line of stdout is the JSON
result; the line before it records the environment.  Work files go under
``bench/.work/<workload>-seed<seed>-trace<t>/``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
PYTHON = sys.executable
# The whole run, set-up included, must end within 180 s.
DEADLINE_S = 170
IMPORT_RUNS = 5
TRACE_RESERVE_S = 10

ENV_PROBE = """\
import json, platform, numpy, drotrain.cli
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas['name']} {blas['version']}"
except (TypeError, KeyError) as exc:
    blas = f"unknown ({exc!r})"
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__, "blas": blas}))
"""
IMPORT_PROBE = "import time; t = time.perf_counter(); import drotrain.cli; print(time.perf_counter() - t)"


@dataclass
class Child:
    code: int
    wall_s: float
    maxrss_mib: float
    stdout: Path


class Runner:
    """Runs one child at a time and reaps it with wait4, for its own rusage."""

    def __init__(self, env: dict, logs: Path):
        self.env = env
        self.logs = logs
        self.count = 0
        self.current = None
        logs.mkdir(parents=True, exist_ok=True)

    def run(self, argv, name: str) -> Child:
        self.count += 1
        stem = self.logs / f"{self.count:03d}-{name}"
        out, err = stem.with_suffix(".out"), stem.with_suffix(".err")
        argv = [str(a) for a in argv]
        with open(out, "wb") as fo, open(err, "wb") as fe:
            start = time.perf_counter()
            self.current = subprocess.Popen(argv, stdout=fo, stderr=fe, env=self.env, cwd=ROOT)
            _, status, usage = os.wait4(self.current.pid, 0)
            wall = time.perf_counter() - start
            self.current.returncode = code = os.waitstatus_to_exitcode(status)
            self.current = None
        return Child(code, wall, usage.ru_maxrss / 1024, out)

    def kill(self) -> None:
        proc, self.current = self.current, None
        if proc is not None and proc.returncode is None:
            proc.kill()
            proc.wait()


def cli(*args) -> list:
    return [PYTHON, "-m", "drotrain", *args]


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("DRO_SEED", None)  # the CLI would replace the workload's seeds with it
    env["PYTHONPATH"] = str(ROOT / "src")
    # One BLAS thread: a second one doubles CPU time for no gain in wall
    # time on these matrix sizes, and makes timings less steady.
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(runner: Runner, seed: int, ledger: checks.Ledger) -> dict:
    """Versions, CPU and thread settings; the probe also compiles the package's bytecode."""
    child = runner.run([PYTHON, "-c", ENV_PROBE], "env")
    ledger.record(child.code == 0, f"environment probe exited {child.code}")
    env = json.loads(child.stdout.read_text()) if child.code == 0 else {}
    return env | {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(runner.env["OPENBLAS_NUM_THREADS"]),
        "platform": sys.platform,
        "commit": git_commit(),
        "workload_seed": seed,
    }


def write_config(workload, seed: int, run_dir: Path) -> Path:
    path = run_dir / "config.json"
    path.write_text(json.dumps(workload.config(seed), indent=2) + "\n")
    return path


def read_cases(workload, dataset: Path, ledger: checks.Ledger) -> dict:
    try:
        cases = checks.read_cases(dataset, workload.n_samples)
    except (OSError, ValueError) as exc:
        cases, error = {}, str(exc)
    else:
        error = None
    ledger.record(error is None, f"dataset {dataset}: {error}")
    return cases


def end_to_end(workload, seed: int, seconds: float, runner: Runner, run_dir: Path, ledger: checks.Ledger):
    """The CLI pipeline as child processes; medians over all samples of the run."""
    config = write_config(workload, seed, run_dir)
    seeds = workload.seeds(seed)
    raw = {k: [] for k in ("setup_s", "erm_s", "dro_s", "report_s", "pipeline_s", "train_rss_mib")}
    datasets, cases = [], {}

    def generate(out: Path) -> float:
        child = runner.run(cli("generate", "--config", config, "--out", out), "generate")
        raw["setup_s"].append(child.wall_s)
        digest = checks.sha256(out / "dataset.csv") if child.code == 0 else None
        datasets.append(digest)
        ok = digest is not None and digest == datasets[0]
        ledger.record(ok, f"{out.name}: generate exited {child.code} or wrote other bytes")
        if not cases:
            cases.update(read_cases(workload, out / "dataset.csv", ledger))
        return child.wall_s

    def train(out: Path, arm: str) -> float:
        child = runner.run(cli("train", "--config", config, "--arm", arm, "--out", out), f"train-{arm}")
        ledger.record(child.code == 0, f"{out.name}: train {arm} exited {child.code}")
        raw[f"{arm}_s"].append(child.wall_s)
        raw["train_rss_mib"].append(child.maxrss_mib)
        return child.wall_s

    def report(dro: Path, erm: Path, label: str):
        """(wall time, stdout or None) of one ``report`` command."""
        child = runner.run(cli("report", dro, "--baseline", erm, "--format", "json"), "report")
        ledger.record(child.code == 0, f"{label} exited {child.code}")
        raw["report_s"].append(child.wall_s)
        return child.wall_s, child.stdout.read_text() if child.code == 0 else None

    def pipeline(out: Path) -> tuple:
        """One whole repetition: (artifact digests, seed -> report output)."""
        total = generate(out) + train(out, "erm") + train(out, "dro")
        arms = checks.check_arms(out, seeds, workload.folds, cases, ledger, out.name)
        reports = {}
        for s in seeds:
            scores = (out / arm / f"seed_{s}" / "scores.csv" for arm in ("dro", "erm"))
            wall, reports[s] = report(*scores, f"{out.name}: report seed {s}")
            total += wall
        valid = {s: t for s, t in reports.items() if t is not None}
        checks.check_reports(workload, valid, arms, ledger, out.name)
        raw["pipeline_s"].append(total)
        return checks.artifact_digests(out), reports

    def rerun_report(out: Path, reports: dict) -> None:
        """The first seed's report on rep_0's score files again, checked against rep_0's output."""
        s = seeds[0]
        dro, erm = (run_dir / "rep_0" / arm / f"seed_{s}" / "scores.csv" for arm in ("dro", "erm"))
        _, text = report(dro, erm, f"{out.name}: report seed {s}")
        ledger.record(text == reports[s], f"{out.name}: report seed {s} printed other bytes than in rep_0")

    def more_reps(reps: list) -> bool:
        """Whether another whole repetition is allowed and ends within the measuring time."""
        if workload.repetitions is not None and len(reps) >= workload.repetitions:
            return False
        return (time.perf_counter() - start) * (len(reps) + 1) / len(reps) <= seconds

    start = time.perf_counter()
    reps = [pipeline(run_dir / "rep_0")]
    # Whole repetitions while another one fits...
    while more_reps(reps):
        reps.append(pipeline(run_dir / f"rep_{len(reps)}"))
        ledger.record(reps[-1][0] == reps[0][0], f"rep_{len(reps) - 1}: artifacts differ from rep_0")
    # ...then the shorter commands alone, one at a time while the next still
    # fits: generate, then reports and ERM trains in turn, and again.  Where
    # the DRO train fills much of the time (large-n), this spreads their
    # samples over the run, so that their medians average over the machine's
    # drift in speed.
    digests, reports = reps[0]
    erm_digests = {k: v for k, v in digests.items() if not k.startswith("dro/")}
    estimate = {"generate": raw["setup_s"][0], "report": raw["report_s"][0], "erm": raw["erm_s"][0]}
    tails = 0
    for step in itertools.cycle(("generate", "report", "erm", "report", "erm", "report")):
        if time.perf_counter() - start + estimate[step] > seconds:
            break
        if step == "generate":
            out = run_dir / f"tail_{tails}"
            tails += 1
            generate(out)
        elif step == "erm":
            train(out, "erm")
            ledger.record(checks.artifact_digests(out) == erm_digests, f"{out.name}: artifacts differ from rep_0")
        else:
            rerun_report(out, reports)

    samples = workload.train_samples()
    metrics = {
        "setup_s": statistics.median(raw["setup_s"]),
        "erm_samples_per_s": statistics.median(samples / t for t in raw["erm_s"]),
        "dro_samples_per_s": statistics.median(samples / t for t in raw["dro_s"]),
        "report_s": statistics.median(raw["report_s"]),
        "pipeline_s": statistics.median(raw["pipeline_s"]),
        "peak_rss_mb": max(raw["train_rss_mib"]),
    }
    return metrics, raw


def traced(workload, seed: int, seconds: float, runner: Runner, run_dir: Path, ledger: checks.Ledger):
    """Per-layer metrics from bench/traced_run.py, after checking its artifacts."""
    start = time.perf_counter()
    config = write_config(workload, seed, run_dir)
    seeds = workload.seeds(seed)
    imports = []
    for _ in range(IMPORT_RUNS):
        child = runner.run([PYTHON, "-c", IMPORT_PROBE], "import")
        if ledger.record(child.code == 0, f"import probe exited {child.code}"):
            imports.append(float(child.stdout.read_text()))

    # The traced passes get what is left of the measuring time once the
    # sampler scaling loop and the artifact checks after them are set aside.
    passes_s = seconds - (time.perf_counter() - start) - TRACE_RESERVE_S
    argv = [PYTHON, BENCH / "traced_run.py", "--config", config, "--out", run_dir, "--seconds", passes_s]
    child = runner.run(argv, "traced")
    if not ledger.record(child.code == 0, f"traced run exited {child.code}"):
        raise RuntimeError(f"traced run failed; see {child.stdout.with_suffix('.err')}")
    layers = json.loads((run_dir / "layers.json").read_text())
    for name, code in layers["codes"]:
        ledger.record(code == 0, f"traced {name} exited {code}")

    untraced = run_dir / "untraced"
    cases = read_cases(workload, untraced / "dataset.csv", ledger)
    checks.check_arms(untraced, seeds, workload.folds, cases, ledger, untraced.name)
    reference = checks.artifact_digests(untraced)
    for k, texts in enumerate(layers["reports"]):
        out = run_dir / f"pass_{k}"
        arms = checks.check_arms(out, seeds, workload.folds, cases, ledger, out.name)
        checks.check_reports(workload, {int(s): t for s, t in texts.items()}, arms, ledger, out.name)
        same = checks.artifact_digests(out) == reference
        ledger.record(same, f"{out.name}: traced artifacts differ from untraced")
    counts = layers["counters"]
    ledger.record(all(c == counts[0] for c in counts), "deterministic counters differ between traced passes")

    metrics = layers["metrics"] | counts[0] | {"cli.import_s": statistics.median(imports)}
    return metrics, {"cli.import_s": imports, "passes": len(counts), "counters": counts}


def result_line(spec: dict, key: str, metrics: dict, ledger: checks.Ledger) -> dict:
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec[key]},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="workload seed (>= 0)")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def _deadline(signum, frame):
    raise TimeoutError(f"benchmark exceeded {DEADLINE_S} s")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "drotrain" / "cli.py").is_file():
        print(f"error: {ROOT} holds no drotrain sources (src/drotrain)", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    run_dir = WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    runner = Runner(child_env(), run_dir / "logs")
    ledger = checks.Ledger()
    measure = traced if args.trace else end_to_end

    signal.signal(signal.SIGALRM, _deadline)
    signal.alarm(DEADLINE_S)
    try:
        env = environment(runner, args.seed, ledger)
        metrics, raw = measure(workload, args.seed, args.seconds, runner, run_dir, ledger)
    except (TimeoutError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        runner.kill()
    metrics["ok_frac"] = 1.0 - ledger.failed / ledger.attempted

    key = "per_layer" if args.trace else "end_to_end"
    result = result_line(spec, key, metrics, ledger)
    record = {"env": env, "workload": workload.name, "args": vars(args), "result": result, "raw": raw}
    record["failures"] = ledger.failures
    (run_dir / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    if not ledger.failures:
        for path in run_dir.iterdir():
            if path.is_dir() and path.name != "logs":
                shutil.rmtree(path)
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
