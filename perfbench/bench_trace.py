"""Span tracing of klpoly's public functions, installed from outside the program.

``Tracer.install`` replaces every binding of each traced function in every
loaded ``klpoly`` module: ``cli``, ``reductions`` and the package itself each
import ``kl_direct`` by name, so patching ``expansion`` alone would leave
their calls untraced. Methods are patched on their class. Spans (name, start,
end, parent) stay in memory until the pass ends.

Per traced function F the metrics are ``F_calls`` (span count), ``F_s``
(inclusive time of the outermost calls, so recursion is not counted twice)
and ``F_self_s`` (span time minus the time of its child spans).
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# (module, attribute, metric base, optional (counter, unit, measure of the result)).
# "Class.method" patches the method on the class.
SPANNED = (
    ("klpoly.cli", "suite_identities", "cli.suite.identities", None),
    ("klpoly.cli", "suite_cstar", "cli.suite.cstar", None),
    ("klpoly.cli", "suite_weights", "cli.suite.weights", None),
    ("klpoly.cli", "suite_linear", "cli.suite.linear", None),
    ("klpoly.cli", "suite_thm5", "cli.suite.thm5", None),
    ("klpoly.expansion", "kl_direct", "expansion.kl_direct", None),
    ("klpoly.expansion", "kth_term", "expansion.kth_term", None),
    ("klpoly.expansion", "linear_part", "expansion.linear_part", None),
    ("klpoly.expansion", "kl_closed_form", "expansion.kl_closed_form", None),
    ("klpoly.expansion", "coefficient_closed_form", "expansion.coefficient_closed_form", None),
    ("klpoly.expansion", "c_star", "expansion.c_star", None),
    ("klpoly.diffalg", "DiffPolynomial.apply_factor", "diffalg.apply_factor", None),
    ("klpoly.diffalg", "DiffPolynomial.differentiate", "diffalg.differentiate", None),
    ("klpoly.combinatorics", "differential_word", "combinatorics.differential_word", None),
    (
        "klpoly.combinatorics",
        "enumerate_compositions",
        "combinatorics.enumerate_compositions",
        ("combinatorics.compositions_enumerated", "count", len),
    ),
    ("klpoly.combinatorics", "sum_of_products", "combinatorics.sum_of_products", None),
    ("klpoly.reductions", "h_at_root_of_unity_numeric", "reductions.h_numeric", None),
    ("klpoly.reductions", "thm5_verdict", "reductions.thm5_verdict", None),
    ("klpoly.reductions", "lambda_zero_pattern", "reductions.lambda_zero_pattern", None),
    ("klpoly.reductions", "reduce_first_order", "reductions.reduce_first_order", None),
    ("klpoly.reductions", "reduce_second_order", "reductions.reduce_second_order", None),
    (
        "klpoly.serialize",
        "poly_to_json",
        "serialize.poly_to_json",
        ("serialize.json_bytes", "bytes", lambda text: len(text.encode())),
    ),
    ("klpoly.serialize", "poly_from_obj", "serialize.poly_from_obj", None),
)

# Constructions are only counted: a span per LambdaPolynomial would cost more
# than the construction it measures.
COUNTED = (("klpoly.diffalg", "LambdaPolynomial.__init__", "diffalg.lambda_poly_constructed"),)

HIT_RATIO = ("klpoly.combinatorics", "differential_word", "combinatorics.differential_word_hit_ratio")

# Metrics the benchmark adds around the traced passes.
SETUP_MPMATH = "setup.mpmath_import_s"
OVERHEAD = "trace.overhead_s"
SPAN_COUNT = "trace.spans"

SECONDS = "s"
COUNT = "count"


def metric_units() -> dict[str, str]:
    """Every per-layer metric, in report order, with its unit."""
    units: dict[str, str] = {}
    for _, _, base, hook in SPANNED:
        units[f"{base}_calls"] = COUNT
        units[f"{base}_s"] = SECONDS
        units[f"{base}_self_s"] = SECONDS
        if hook:
            units[hook[0]] = hook[1]
    for _, _, name in COUNTED:
        units[name] = COUNT
    units[HIT_RATIO[2]] = "ratio"
    units[SETUP_MPMATH] = SECONDS
    units[OVERHEAD] = SECONDS
    units[SPAN_COUNT] = COUNT
    return units


def _calls(*bases: str) -> list[str]:
    return [f"{base}_calls" for base in bases]


# The traced run requires these metrics to be non-zero on each workload.
EXERCISED = {
    "verify-default": [
        *_calls(
            "cli.suite.identities",
            "cli.suite.cstar",
            "cli.suite.weights",
            "cli.suite.linear",
            "cli.suite.thm5",
            "expansion.kl_direct",
            "expansion.kth_term",
            "expansion.linear_part",
            "expansion.c_star",
            "diffalg.apply_factor",
            "diffalg.differentiate",
            "reductions.h_numeric",
            "reductions.thm5_verdict",
            "reductions.lambda_zero_pattern",
        ),
        "diffalg.lambda_poly_constructed",
        SETUP_MPMATH,
    ],
    "expand-direct": [
        *_calls(
            "expansion.kl_direct",
            "expansion.kth_term",
            "diffalg.apply_factor",
            "diffalg.differentiate",
            "reductions.reduce_first_order",
            "reductions.reduce_second_order",
            "serialize.poly_to_json",
            "serialize.poly_from_obj",
        ),
        "diffalg.lambda_poly_constructed",
        "serialize.json_bytes",
        SETUP_MPMATH,
    ],
    "closed-form-agree": [
        *_calls(
            "expansion.kl_closed_form",
            "expansion.coefficient_closed_form",
            "expansion.kl_direct",
            "diffalg.apply_factor",
            "diffalg.differentiate",
            "combinatorics.differential_word",
            "combinatorics.enumerate_compositions",
            "combinatorics.sum_of_products",
        ),
        "diffalg.lambda_poly_constructed",
        "combinatorics.compositions_enumerated",
        HIT_RATIO[2],
        SETUP_MPMATH,
    ],
}

# ...and these metric prefixes to be zero: the direct route never reaches
# the combinatorics module.
UNEXERCISED = {"expand-direct": ("combinatorics.",)}


def coverage_errors(workload: str, metrics: dict[str, float], absent: set[str]) -> list[str]:
    """Disagreements between a traced run's metrics and EXERCISED/UNEXERCISED.

    Metrics of functions the program no longer has are in ``absent`` and
    are not required.
    """
    errors = [
        f"{name} is 0 on {workload}"
        for name in EXERCISED.get(workload, [])
        if name not in absent and not metrics[name]
    ]
    for prefix in UNEXERCISED.get(workload, ()):
        errors += [
            f"{name} is {value} on {workload}, expected 0"
            for name, value in metrics.items()
            if name.startswith(prefix) and value
        ]
    return errors


def _resolve(module_name: str, path: str):
    """(owner, attribute, current value), or None when the program lacks it."""
    module = sys.modules.get(module_name)
    owner_name, _, attr = path.rpartition(".")
    owner = getattr(module, owner_name, None) if owner_name else module
    if owner is None:
        return None
    # A method must be the class's own: an inherited __init__ is not the program's.
    value = owner.__dict__.get(attr) if owner_name else getattr(owner, attr, None)
    return None if value is None else (owner, attr, value)


class Tracer:
    """Spans and counts of one traced pass; undo restores every binding."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, outermost]
        self.counts: Counter = Counter()
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []
        self._hit_ratio_source = None

    def install(self) -> None:
        # Taken before patching: the wrapper hides the cache's statistics.
        target = _resolve(*HIT_RATIO[:2])
        if target is None or not hasattr(target[2], "cache_info"):
            self.absent.add(HIT_RATIO[2])
        else:
            self._hit_ratio_source = target[2]
        for module_name, path, base, hook in SPANNED:
            target = _resolve(module_name, path)
            if target is None:
                self.absent |= {f"{base}_calls", f"{base}_s", f"{base}_self_s"}
                if hook:
                    self.absent.add(hook[0])
                continue
            owner, attr, original = target
            self._replace(owner, attr, original, self._spanned(base, original, hook))
        for module_name, path, name in COUNTED:
            target = _resolve(module_name, path)
            if target is None:
                self.absent.add(name)
                continue
            owner, attr, original = target
            self._replace(owner, attr, original, self._counted(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _replace(self, owner, attr: str, original, replacement) -> None:
        if isinstance(owner, type):
            owners = [(owner, attr)]
        else:
            owners = [
                (module, name)
                for module_name, module in list(sys.modules.items())
                if module_name == "klpoly" or module_name.startswith("klpoly.")
                for name, value in list(vars(module).items())
                if value is original
            ]
        for target, name in owners:
            setattr(target, name, replacement)
            self._undo.append((target, name, original))

    def _spanned(self, name: str, fn, hook):
        spans, stack, depth, counts = self.spans, self._stack, self._depth, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, depth[name] == 0]
            stack.append(len(spans))
            spans.append(span)
            depth[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                depth[name] -= 1
            if hook:
                counts[hook[0]] += hook[2](result)
            return result

        return traced

    def _counted(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans and counts recorded so far."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: Counter = Counter()
        inclusive: Counter = Counter()
        own: Counter = Counter()
        for (name, start, end, _, outermost), children in zip(self.spans, child_time):
            calls[name] += 1
            own[name] += end - start - children
            if outermost:
                inclusive[name] += end - start
        out: dict[str, float] = {}
        for _, _, base, hook in SPANNED:
            out[f"{base}_calls"] = calls[base]
            out[f"{base}_s"] = inclusive[base]
            out[f"{base}_self_s"] = own[base]
            if hook:
                out[hook[0]] = self.counts[hook[0]]
        for _, _, name in COUNTED:
            out[name] = self.counts[name]
        ratio = 0.0
        if self._hit_ratio_source is not None:
            info = self._hit_ratio_source.cache_info()
            if info.hits + info.misses:
                ratio = info.hits / (info.hits + info.misses)
        out[HIT_RATIO[2]] = ratio
        out[SPAN_COUNT] = len(self.spans)
        return out
