"""One pass of a benchmark workload in a fresh interpreter.

Usage: python3 perfbench/worker.py WORKLOAD INPUTS_JSON TRACE

Each pass runs in its own process, so klpoly's caches start cold as they do
for every CLI invocation. The last line of stdout is a JSON object with the
pass's wall time (from the end of import to the checked result) and its
check tally; with TRACE=1 also its per-layer metrics, and the spans are
written to .perfbench/spans-WORKLOAD.json in the checkout.
"""

import json
import sys
import time
from pathlib import Path

import klpoly.cli  # every klpoly module, imported before the timed region

from bench_trace import Tracer
from bench_workloads import ROOT, SRC, run_pass


def write_spans(workload: str, inputs: list, tracer: Tracer) -> None:
    names = sorted({span[0] for span in tracer.spans})
    index = {name: i for i, name in enumerate(names)}
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    payload = {
        "workload": workload,
        "inputs": inputs,
        "names": names,
        "spans": [[index[n], start, end, parent] for n, start, end, parent, _ in tracer.spans],
    }
    (out / f"spans-{workload}.json").write_text(json.dumps(payload))


def main(argv: list[str]) -> int:
    workload, inputs, traced = argv[0], json.loads(argv[1]), argv[2] == "1"
    if SRC not in Path(klpoly.cli.__file__).resolve().parents:
        print(f"error: klpoly imported from {klpoly.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()
    start = time.perf_counter()
    checks = run_pass(workload, inputs)
    wall = time.perf_counter() - start
    result = {
        "wall_s": wall,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failures": checks.failures,
    }
    if tracer:
        result["layers"] = tracer.metrics()
        result["absent"] = sorted(tracer.absent)
        write_spans(workload, inputs, tracer)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
