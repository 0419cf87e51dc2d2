"""Workload inputs, passes and the checks on their outputs.

A pass calls klpoly's public functions through their module attributes, so
that the trace wrappers installed by ``bench_trace`` see the calls. Expected
values are pinned from the seed code; every verdict is computed from the
output the pass actually produced.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# What a user types: `klpoly verify all --format json --no-timing`. The seed
# permutes the order of the option groups, never their content.
VERIFY_COMMAND = ("verify", "all")
VERIFY_OPTIONS = (("--format", "json"), ("--no-timing",))

EXPAND_DIRECT_NS = (14, 16, 18)
CLOSED_FORM_NS = (10, 11, 12)

# n -> (term count, SHA-256 of serialize.poly_to_json(kl_direct(n).poly)),
# pinned from the seed code. The term counts are the ones ROADMAP records.
EXPAND_DIRECT_EXPECTED = {
    14: (294, "402911d1017fe4386591ffa6570b2094ec1a5cffcd856999fd2916ebbc85f72a"),
    16: (525, "b07935ead136f8d24d87e7e5b9eb84b2576f55948afb81d2b3d09f28c08c6cb9"),
    18: (910, "4de731dca40ceb9bc3ae414577c3a1bd8dea69bf15ca397b8c5239bf0549804d"),
}

WORKLOADS = ("verify-default", "expand-direct", "closed-form-agree")

# Names of failed checks kept for the report; the counts stay exact.
MAX_LISTED_FAILURES = 5


@dataclass
class Checks:
    """Tally of output checks: fail_ratio = failed / attempted."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def expect(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < MAX_LISTED_FAILURES:
                self.failures.append(name)

    def add(self, other: "Checks") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        room = MAX_LISTED_FAILURES - len(self.failures)
        self.failures.extend(other.failures[:room])


def workload_inputs(workload: str, seed: int) -> list:
    """The inputs of one pass, in an order drawn from the seed."""
    rng = random.Random(seed)
    if workload == "verify-default":
        options = list(VERIFY_OPTIONS)
        rng.shuffle(options)
        return [*VERIFY_COMMAND, *(arg for group in options for arg in group)]
    if workload == "expand-direct":
        ns = list(EXPAND_DIRECT_NS)
    elif workload == "closed-form-agree":
        ns = list(CLOSED_FORM_NS)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ns)
    return ns


def load_verify_expected() -> dict[str, str]:
    """Check name -> status of the seed's `verify all` report."""
    return json.loads((HERE / "verify_default_expected.json").read_text())


def expand_direct_pass(ns: list[int], expected=EXPAND_DIRECT_EXPECTED) -> Checks:
    """Build kl_direct(n), serialize it, read it back, and reduce it."""
    from klpoly import expansion, reductions, serialize

    checks = Checks()
    for n in ns:
        poly = expansion.kl_direct(n).poly
        text = serialize.poly_to_json(poly)
        obj = json.loads(text)
        terms, digest = expected[n]
        checks.expect(f"n={n} term count {terms}", len(obj) == terms)
        checks.expect(
            f"n={n} JSON SHA-256", hashlib.sha256(text.encode()).hexdigest() == digest
        )
        checks.expect(f"n={n} JSON round trip", serialize.poly_from_obj(obj) == poly)
        checks.expect(
            f"n={n} first identity vanishes", not reductions.reduce_first_order(poly)
        )
        # The second identity holds for odd n; for even n the seed reports a
        # non-zero residual, so an empty one would be a change of result.
        second = reductions.reduce_second_order(poly)
        checks.expect(f"n={n} second identity", not second if n % 2 else bool(second))
    return checks


def compare_terms(checks: Checks, label: str, expected: list[dict], actual: list[dict]) -> None:
    """One check per term of either serialized polynomial."""
    want = {tuple(t["orders"]): t["lambda_coeffs"] for t in expected}
    got = {tuple(t["orders"]): t["lambda_coeffs"] for t in actual}
    for orders in sorted(want.keys() | got.keys()):
        checks.expect(f"{label} term {list(orders)}", want.get(orders) == got.get(orders))


def closed_form_agree_pass(ns: list[int]) -> Checks:
    """kl_closed_form(n) must equal kl_direct(n) term for term."""
    from klpoly import expansion, serialize

    checks = Checks()
    for n in ns:
        closed = expansion.kl_closed_form(n).poly
        direct = expansion.kl_direct(n).poly
        compare_terms(
            checks, f"n={n}", serialize.poly_to_obj(direct), serialize.poly_to_obj(closed)
        )
    return checks


def check_verify_output(returncode: int, stdout: str, expected: dict[str, str]) -> Checks:
    """Exit 0, no failed check, and every seed check present with its seed status."""
    checks = Checks()
    checks.expect("exit code 0", returncode == 0)
    try:
        statuses = {c["check"]: c["status"] for c in json.loads(stdout)["checks"]}
    except (ValueError, KeyError, TypeError):
        statuses = {}
    checks.expect(
        "report lists checks and none failed",
        bool(statuses) and "fail" not in statuses.values(),
    )
    for name, status in expected.items():
        checks.expect(f"{name}: {status}", statuses.get(name) == status)
    return checks


def verify_in_process(argv: list[str], expected: dict[str, str]) -> Checks:
    """Run the CLI's main() in this process and check its report."""
    from klpoly import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        returncode = cli.main(argv)
    return check_verify_output(returncode, out.getvalue(), expected)


def run_pass(workload: str, inputs: list) -> Checks:
    if workload == "verify-default":
        return verify_in_process(inputs, load_verify_expected())
    if workload == "expand-direct":
        return expand_direct_pass(inputs)
    return closed_form_agree_pass(inputs)
