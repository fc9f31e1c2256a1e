"""Benchmark of the paleyschemes pipeline: one workload per run.

    python3 perfbench/run.py --workload {sweep,certify,classify,all}
                             --seed N --seconds S --trace {0,1}

Run it from the repository root; `--workload all` runs the three in turn
and prints every metric by name.  The package is imported from src/, so
nothing needs installing; without src/paleyschemes the run exits with
code 2 and prints no result.

The parent process makes the inputs from the seed (workloads.py), then
starts measured workers (worker.py).  Each worker is a fresh process that
does the set-up and one repetition of the timed phase, so every process
gives one set-up sample and one timed sample.  The parent checks each
worker's output against expected.json; a failed check or an exception
counts as a failed item.

--trace 0  starts workers one after another until the next one would end
           more than half a worker past S seconds, and at least two.  It
           reports medians over the workers of wall_s, items_per_s,
           setup_s and peak_rss_mb.
--trace 1  runs one untraced and one traced worker and reports the
           per-layer metrics of the traced one (spans.py).  It also
           checks that both give identical outputs and that every layer
           named for this workload was called.  The spans are kept in
           .perfbench/spans-<workload>-<seed>.jsonl.

The last line of stdout is the JSON result.  The line before it records
the host (nproc, Python, numpy, CPU model), every sample, and readings of
the speed probe host.ref_ms: a fixed pure-Python loop timed before and
after the workers (with --trace 1, also between them), so a spread can be
traced to a slow host phase.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
WORKLOADS = ("sweep", "certify", "classify")
RUN_BUDGET_S = 170.0
MIN_WORKERS = 2
END_TO_END = {"wall_s": "s", "items_per_s": "1/s", "setup_s": "s",
              "peak_rss_mb": "MB"}


def ref_ms(samples: int = 5) -> float:
    """Median time of a fixed 400k-iteration pure-Python loop, in ms."""
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        total = 0
        for i in range(400_000):
            total += i
        times.append((time.perf_counter() - start) * 1000)
    return statistics.median(times)


def host_info() -> dict:
    import numpy
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "cpu": model or platform.processor()}


class Runner:
    """Starts worker processes for one workload and checks their outputs."""

    def __init__(self, workload: str, work: Path, plan: dict, expected: dict,
                 deadline: float):
        self.workload = workload
        self.work = work
        self.plan = plan
        self.expected = expected
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, items: int, reason: str) -> None:
        self.failed += items
        self.problems.append(reason)

    def time_left(self) -> float:
        return self.deadline - time.monotonic()

    def spawn(self, spans: Path | None = None) -> dict | None:
        """One fresh worker process, checked; None when it failed."""
        for name in ("out.json", "out.json.manifest.json", "result.json"):
            (self.work / name).unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", self.workload, "--dir", str(self.work)]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        env = dict(os.environ, PYTHONHASHSEED="0")
        with open(self.work / "worker.log", "w") as log:
            t0 = time.monotonic()
            proc = subprocess.Popen(cmd + ["--t0", repr(t0)], stdout=log,
                                    stderr=subprocess.STDOUT, env=env)
            try:
                proc.wait(timeout=max(1.0, self.time_left()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        result_path = self.work / "result.json"
        result = (json.loads(result_path.read_text())
                  if result_path.exists() else {"error": "no result"})
        if proc.returncode != 0 and "error" not in result:
            result["error"] = f"worker exit code {proc.returncode}"
        items = self.plan["items"]
        self.attempted += items
        if "error" in result:
            log_tail = (self.work / "worker.log").read_text()[-2000:]
            self.fail(items, f"worker failed: {result['error']}{log_tail}")
            return None
        from workloads import check, primary_output, work_units
        for reason in check(self.workload, self.plan, self.work,
                            result["outputs"], self.expected):
            self.fail(1, reason)
        result["primary"] = primary_output(self.workload, self.work,
                                           result["outputs"])
        result["work"] = work_units(self.workload, self.plan, self.work)
        return result


def end_to_end(runner: Runner, seconds: float,
               refs: list[float]) -> tuple[dict, dict | None]:
    """Medians over workers started one after another until the next would
    end more than half a worker past `seconds`; at least MIN_WORKERS."""
    refs.append(ref_ms())
    runs: list[dict] = []
    start = time.monotonic()
    while True:
        run = runner.spawn()
        if run is None:
            break
        runs.append(run)
        per_worker = (time.monotonic() - start) / len(runs)
        if runner.time_left() < 2 * per_worker:
            break
        if (len(runs) >= MIN_WORKERS
                and time.monotonic() - start + per_worker / 2 >= seconds):
            break
    refs.append(ref_ms())
    if not runs:
        return {}, None
    samples = {name: [r[name] for r in runs]
               for name in ("wall_s", "setup_s", "peak_rss_mb")}
    values = {
        "wall_s": statistics.median(samples["wall_s"]),
        "items_per_s": statistics.median(r["work"] / r["wall_s"]
                                         for r in runs),
        "setup_s": statistics.median(samples["setup_s"]),
        "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    return metrics, samples


def per_layer(runner: Runner, spans_path: Path,
              refs: list[float]) -> tuple[dict, dict | None]:
    """One untraced and one traced worker, with a speed probe before,
    between and after them: trace.overhead_s is the tracer's cost only
    when the three probe readings agree."""
    from spans import PER_LAYER, layer_metrics, missing_calls, read_spans
    refs.append(ref_ms())
    plain = runner.spawn()
    refs.append(ref_ms())
    traced = runner.spawn(spans=spans_path)
    refs.append(ref_ms())
    if traced is None:
        return {}, None
    if traced["unwrapped"]:
        runner.fail(1, "the package no longer has " +
                    ", ".join(traced["unwrapped"]))
    spans = read_spans(spans_path)
    missing = missing_calls(spans, runner.workload)
    if missing:
        runner.fail(1, "traced run never called " + ", ".join(missing))
    metrics = layer_metrics(spans)
    metrics["trace.wall_s"] = traced["wall_s"]
    metrics["trace.setup_s"] = traced["setup_s"]
    if plain is not None:
        metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        if plain["primary"] != traced["primary"]:
            runner.fail(1, "outputs differ between the traced and untraced "
                           "runs")
    metrics["host.ref_ms"] = statistics.median(refs)
    out = {name: (metrics.get(name, 0.0), unit)
           for name, (unit, _) in PER_LAYER.items()}
    runs = [r for r in (plain, traced) if r is not None]
    return out, {name: [r[name] for r in runs]
                 for name in ("wall_s", "setup_s", "peak_rss_mb")}


def run_all(args) -> int:
    """Each workload as its own run, one after another; prints every
    metric as `workload metric value unit` and exits 1 on any failure."""
    bad = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload,
             "--seed", str(args.seed), "--seconds", repr(args.seconds),
             "--trace", str(args.trace)], capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit code {proc.returncode}\n{proc.stderr}")
            bad += 1
            continue
        result = json.loads(lines[-1])
        for name, metric in result["metrics"].items():
            print(f"{workload} {name} {metric['value']:.6g} {metric['unit']}")
        print(f"{workload} correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        bad += result["failed"] + (not result["correct"])
    return 1 if bad else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload == "all":
        return run_all(args)
    start = time.monotonic()
    if not (SRC / "paleyschemes" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'paleyschemes'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import paleyschemes  # noqa: F401  (compiles the package once, unmeasured)
    from workloads import load_expected, make_inputs

    run_dir = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        expected = load_expected()
        plan = make_inputs(args.workload, args.seed, run_dir, expected)
        runner = Runner(args.workload, run_dir, plan, expected,
                        start + RUN_BUDGET_S)
        refs: list[float] = []
        if args.trace:
            spans_path = WORK / f"spans-{args.workload}-{args.seed}.jsonl"
            metrics, runs = per_layer(runner, spans_path, refs)
        else:
            metrics, runs = end_to_end(runner, args.seconds, refs)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if runs is None:
        print("error: no worker finished", *runner.problems,
              sep="\n", file=sys.stderr)
        return 1
    detail = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "host": host_info(),
              "host.ref_ms": refs,
              "runs": runs, "problems": runner.problems}
    result = {"correct": not runner.problems, "attempted": runner.attempted,
              "failed": min(runner.failed, runner.attempted),
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(detail), json.dumps(result), sep="\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
