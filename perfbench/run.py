"""Benchmark of superverma's verify scenarios.

Usage:
    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all

One process runs the workload's scenario calls through the public
``superverma.verify`` API back to back (a closed loop, ``SUPERVERMA_JOBS=1``)
for about ``--seconds`` seconds, always at least one pass, and checks the
verdict of every case.  It prints one line per metric with its unit and, as
its last line, the JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` spends half the time on untraced passes and
half on passes with spans around each layer's public functions, and reports
the per-layer metrics.  ``--workload all`` runs every workload in a fresh
process, one after the other.

The exit code is 0 when every verdict is as expected, 1 when one is not, and
2 when the checkout holds no superverma sources.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]
SETUP_PROBES = 9
SHOWN_PROBLEMS = 20


class Tally:
    """Cases attempted and failed over every pass of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.shown = 0

    def check(self, call: workloads.Call, report: str | None) -> int:
        """Check one report, print its problems by key; return cases reported."""
        attempted, reported, problems = workloads.check(call, report)
        self.attempted += attempted
        self.failed += len(problems)
        where = ", ".join(f"{k}={v}" for k, v in call.kwargs.items() if k != "grid")
        for key in sorted(problems):
            if self.shown < SHOWN_PROBLEMS:
                print(f"perfbench: {call.scenario}({where}): {key}: {problems[key]}", file=sys.stderr)
            self.shown += 1
        return reported


def run_pass(verify, calls, tally: Tally) -> tuple[float, int]:
    """One pass over the calls: (wall seconds, cases reported)."""
    gc.collect()
    reports = []
    start = time.perf_counter()
    for call in calls:
        try:
            reports.append(getattr(verify, call.scenario)(**call.kwargs).to_json())
        except Exception:  # a raising scenario fails its cases; the run goes on
            traceback.print_exc()
            reports.append(None)
    wall = time.perf_counter() - start
    cases = sum(tally.check(call, report) for call, report in zip(calls, reports))
    return wall, cases


def measure(verify, calls, seconds: float, tally: Tally, before_pass=None):
    """Passes until the next one would end after ``seconds``: (walls, cases)."""
    walls: list[float] = []
    cases = 0
    start = time.perf_counter()
    while not walls or time.perf_counter() - start + statistics.median(walls) <= seconds:
        if before_pass is not None:
            before_pass()
        wall, reported = run_pass(verify, calls, tally)
        walls.append(wall)
        cases += reported
    return walls, cases


def probe_setup(workload: str, seed: int) -> float:
    """Set-up seconds of one fresh process.  Bytecode caching stays on, as
    for a user, whatever the caller's environment says."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
        env=env,
    )
    return float(done.stdout.strip().splitlines()[-1])


def end_to_end(verify, calls, args, tally: Tally) -> tuple[dict, str]:
    probe_setup(args.workload, args.seed)  # writes the bytecode caches
    setups: list[float] = []

    def probe():
        setups.append(probe_setup(args.workload, args.seed))

    # one probe before each pass spreads the set-up samples over the run,
    # so that a short slow spell of the host does not decide the median
    walls, _ = measure(verify, calls, args.seconds, tally, before_pass=probe)
    while len(setups) < SETUP_PROBES:
        probe()
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    note = (
        f"wall_s: median of {len(walls)} passes, min {min(walls):.4f} max {max(walls):.4f}; "
        f"setup_s: median of {len(setups)} fresh processes, "
        f"min {min(setups):.4f} max {max(setups):.4f}"
    )
    return metrics, note


def per_layer(verify, calls, args, tally: Tally) -> tuple[dict, str]:
    plain, _ = measure(verify, calls, args.seconds / 2, tally)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced, cases = measure(verify, calls, args.seconds / 2, tally, tracer.new_pass)
    finally:
        tracer.uninstall()
    passes = len(traced)
    metrics = {
        name: value if name in spans.NOT_SUMMED else value / passes
        for name, value in tracer.metrics().items()
    }
    metrics["verify.cases"] = cases / passes
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    metrics["trace.coverage"] = tracer.self_time() / sum(traced)
    note = f"per pass: {passes} traced passes, {len(plain)} untraced passes"
    return metrics, note


def run_workload(args) -> int:
    os.environ["SUPERVERMA_JOBS"] = "1"
    try:
        verify = workloads.import_program()
    except (workloads.ProgramMissing, ImportError) as err:
        print(f"perfbench: cannot import superverma: {err}", file=sys.stderr)
        return 2
    units = {
        m["name"]: (m["unit"], m["better"])
        for m in DECLARED["end_to_end"] + DECLARED["per_layer"]
    }
    calls = workloads.build(args.workload, args.seed)
    tally = Tally()
    metrics, note = (per_layer if args.trace else end_to_end)(verify, calls, args, tally)

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "SUPERVERMA_JOBS": os.environ["SUPERVERMA_JOBS"],
        "src_lines": workloads.src_line_count(),
    }
    print("meta " + json.dumps(meta))
    print(f"note {note}")
    result = {}
    for name, value in metrics.items():
        unit, better = units.get(name, ("", ""))
        if unit == "count" and float(value).is_integer():
            value = int(value)
        result[name] = {"value": value, "unit": unit}
        print(f"{name} = {value} {unit} ({better} is better)")
    failed_frac = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"failed_frac = {failed_frac} ({tally.failed} of {tally.attempted} cases)")
    correct = tally.failed == 0 and tally.attempted > 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": result,
            }
        )
    )
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in a fresh process, so set-up and memory stay per workload."""
    worst = 0
    for name in WORKLOADS:
        sys.stdout.flush()
        done = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            check=False,
        )
        worst = max(worst, done.returncode)
    return worst


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
