"""klpoly benchmark: runs one workload, checks its outputs, prints its metrics.

Usage, from the root of a klpoly checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (perfbench/README.md gives the rationale and the metric map):

    verify-default     cold subprocess `klpoly verify all --format json --no-timing`
    expand-direct      kl_direct(n) for n in {14, 16, 18}, JSON round trip, reductions
    closed-form-agree  kl_closed_form(n) == kl_direct(n) term for term, n in {10, 11, 12}

One closed-loop client: passes run one after another, each in a fresh
process so every cache starts cold, while the longest pass so far still
fits in --seconds. The seed
fixes the order of the inputs within a pass. With --trace 0 the last stdout
line carries the end-to-end metrics; with --trace 1 untraced and traced
passes alternate and it carries the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from bench_trace import OVERHEAD, SETUP_MPMATH, coverage_errors, metric_units
from bench_workloads import (
    HERE,
    ROOT,
    SRC,
    WORKLOADS,
    Checks,
    check_verify_output,
    load_verify_expected,
    workload_inputs,
)

WORKER = HERE / "worker.py"
# What the `klpoly` console script runs.
CLI_MAIN = "import sys; from klpoly.cli import main; sys.exit(main())"
SETUP_PROBE = "import klpoly.cli; print(klpoly.cli.__file__, flush=True)"
SETUP_PROBES = 9
CHILD_TIMEOUT_S = 120.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


@dataclass
class Child:
    returncode: int
    stdout: str
    first_line_s: float  # from spawn until the first line of stdout
    wall_s: float  # from spawn until reaped
    peak_rss_mb: float


def run_child(args: list[str], env: dict[str, str]) -> Child:
    """Run a process to its end, measuring its times and its own peak RSS."""
    start = time.perf_counter()
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        first = proc.stdout.readline()
        first_line = time.perf_counter() - start
        out = first + proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        proc.stdout.close()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, out.decode(), first_line, wall, usage.ru_maxrss / 1024)


def probe_setup(env: dict[str, str]) -> float:
    """Seconds from spawning an interpreter until it has imported klpoly.cli."""
    child = run_child([sys.executable, "-c", SETUP_PROBE], env)
    path = Path(child.stdout.strip())
    if child.returncode or SRC not in path.resolve().parents:
        raise BenchError(f"klpoly.cli did not import from {SRC} (got {path})")
    return child.first_line_s


def probe_mpmath_import(env: dict[str, str]) -> float | None:
    """Cumulative import time of mpmath while importing klpoly.cli, from
    `-X importtime`; None when that import does not load mpmath."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import klpoly.cli"],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode:
        raise BenchError(f"importing klpoly.cli failed: {proc.stderr[-500:]}")
    for line in proc.stderr.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() == "mpmath":
            return int(fields[1]) / 1e6
    return None


def worker_pass(workload: str, inputs: list, traced: bool, env: dict[str, str]):
    """One pass in a worker process: (its result object or None, the child)."""
    child = run_child(
        [sys.executable, str(WORKER), workload, json.dumps(inputs), "1" if traced else "0"],
        env,
    )
    lines = child.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if child.returncode == 0 and lines else None
    except ValueError:
        result = None
    return result, child


def tally(checks: Checks, result: dict | None, label: str) -> None:
    """Add a worker's check tally; a pass that produced no result is one failed check."""
    if result is None:
        checks.expect(f"{label} produced a result", False)
    else:
        checks.add(Checks(result["attempted"], result["failed"], result["failures"]))


def measure(samples: list[float], unit: str) -> dict:
    return {"value": statistics.median(samples), "unit": unit}


def spread(samples: list[float]) -> dict:
    if len(samples) < 2:
        return {"n": len(samples), "median": statistics.median(samples)}
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return {"n": len(samples), "q1": q1, "median": q2, "q3": q3}


class Window:
    """The measuring window: a pass starts only if the longest pass so far
    still fits, so a run ends within --seconds of its first pass."""

    def __init__(self, seconds: float) -> None:
        self.deadline = time.perf_counter() + seconds
        self.longest = 0.0

    def record(self, child: Child) -> None:
        self.longest = max(self.longest, child.wall_s)

    def fits(self) -> bool:
        return time.perf_counter() + self.longest < self.deadline


def end_to_end_run(workload: str, inputs: list, seconds: float, env: dict[str, str]):
    probe_setup(env)  # the first import in a checkout writes the bytecode caches
    setup = [probe_setup(env) for _ in range(SETUP_PROBES)]
    expected = load_verify_expected()
    checks = Checks()
    walls: list[float] = []
    peaks: list[float] = []
    window = Window(seconds)
    passes = 0
    while passes == 0 or window.fits():
        passes += 1
        if workload == "verify-default":
            child = run_child([sys.executable, "-c", CLI_MAIN, *inputs], env)
            window.record(child)
            checks.add(check_verify_output(child.returncode, child.stdout, expected))
            walls.append(child.wall_s)
        else:
            result, child = worker_pass(workload, inputs, False, env)
            window.record(child)
            tally(checks, result, f"pass {passes}")
            if result is None:
                continue
            walls.append(result["wall_s"])
        peaks.append(child.peak_rss_mb)
    if not walls:
        raise BenchError(f"no pass of {workload} produced a result")
    metrics = {
        "wall_s": measure(walls, "s"),
        "setup_s": measure(setup, "s"),
        "peak_rss_mb": measure(peaks, "MiB"),
        "pass_ratio": {"value": 1 - checks.failed / checks.attempted, "unit": "ratio"},
    }
    samples = {"wall_s": spread(walls), "setup_s": spread(setup), "peak_rss_mb": spread(peaks)}
    return checks, metrics, samples


def traced_run(workload: str, inputs: list, seconds: float, env: dict[str, str]):
    probe_setup(env)  # the first import in a checkout writes the bytecode caches
    mpmath = [probe_mpmath_import(env) for _ in range(SETUP_PROBES)]
    checks = Checks()
    walls: dict[bool, list[float]] = {False: [], True: []}
    layers: list[dict] = []
    absent: set[str] = set()
    window = Window(seconds)
    passes = 0
    while passes < 2 or window.fits():
        traced = passes % 2 == 1
        passes += 1
        result, child = worker_pass(workload, inputs, traced, env)
        window.record(child)
        tally(checks, result, f"pass {passes}")
        if result is None:
            continue
        walls[traced].append(result["wall_s"])
        if traced:
            layers.append(result["layers"])
            absent.update(result["absent"])
    if not (walls[False] and walls[True]):
        raise BenchError(f"{workload} needs an untraced and a traced pass with results")
    units = metric_units()
    values = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
    if None in mpmath:
        absent.add(SETUP_MPMATH)
        values[SETUP_MPMATH] = 0.0
    else:
        values[SETUP_MPMATH] = statistics.median(mpmath)
    values[OVERHEAD] = statistics.median(walls[True]) - statistics.median(walls[False])
    errors = coverage_errors(workload, values, absent)
    if errors:
        raise BenchError("trace coverage: " + "; ".join(errors))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    samples = {"untraced_wall_s": spread(walls[False]), "traced_wall_s": spread(walls[True])}
    return checks, metrics, samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "klpoly" / "__init__.py").is_file():
        print(f"error: no klpoly sources in {SRC}; run from a klpoly checkout", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    inputs = workload_inputs(args.workload, args.seed)
    run = traced_run if args.trace else end_to_end_run
    try:
        checks, metrics, samples = run(args.workload, inputs, args.seconds, env)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for failure in checks.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "inputs": inputs,
        "trace": args.trace,
        "samples": samples,
        "fail_ratio": checks.failed / checks.attempted,
    }))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
