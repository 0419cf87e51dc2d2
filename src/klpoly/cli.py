"""Command-line front end: expansion, tables, and verification suites.

Exit codes: 0 success, 1 verification failure, 2 usage error (an empty
verification grid included), 3 internal error: any exception raised while
computing, 141 stdout closed early.  Apart from argparse's own usage text,
2 and 3 print one stderr line; 141 prints nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from math import comb, factorial, prod

from . import __version__
from .combinatorics import (
    convolution,
    density,
    differential_word,
    enumerate_compositions,
    factorial_sum_check,
    sum_of_products,
    sum_of_products_enumerated,
    weight_closed_form,
)
from .expansion import (
    c_alpha_formula,
    c_star,
    c_star_factorial_form,
    h_poly,
    kl_closed_form,
    kl_direct,
    linear_factorization,
    linear_part,
)
from .diffalg import DiffPolynomial
from .reductions import (
    h_at_root_of_unity_numeric,
    kernel_exponents,
    lambda_zero_pattern,
    reduce_first_order,
    reduce_second_order,
    thm5_verdict,
)
from .serialize import lambda_coeff_text, poly_to_obj, poly_to_text

# Published row order of the (4, 3, 2) density table; other parameters
# list compositions lexicographically.
TABLE_432_ORDER = [
    (0, 0, 0, 3),
    (0, 0, 1, 2),
    (0, 0, 2, 1),
    (0, 0, 3, 0),
    (0, 1, 1, 1),
    (0, 1, 2, 0),
    (0, 1, 0, 2),
    (0, 2, 1, 0),
    (0, 2, 0, 1),
    (0, 3, 0, 0),
]

# Accepted n of the one-n commands, each sized to a cold run under 5 s on 2
# vCPUs (README lists the times).  `hpoly` stops where its largest
# coefficient (4113 digits at n = 1500) still converts to a decimal string
# under Python's default 4300-digit limit.
EXPAND_MAX_N = 24
LINEAR_N = range(2, EXPAND_MAX_N + 1)
CSTAR_N = range(1, 29)
HPOLY_N = range(2, 1501)

# `table j alpha k` lists the C(alpha+j-k, j-k) compositions of Z(j, alpha, k),
# each of length j.  25,000 rows take about 0.9 s and 70 MiB as JSON (92,378
# rows 2.4 s and 210 MiB); j and alpha at most 30 keep the rows short and
# every density below 45 digits.
TABLE_MAX = 30
TABLE_MAX_ROWS = 25_000

VERIFY_FAILURE = 1
USAGE_ERROR = 2
INTERNAL_ERROR = 3
CLOSED_STDOUT = 141  # 128 + SIGPIPE, a shell's code for a writer killed by a closed pipe


class UsageError(ValueError):
    """An argument outside its accepted range; the only error that exits 2."""


def _emit(payload: dict, args, text_lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print("\n".join(text_lines))


def _require_n(n: int, accepted: range) -> None:
    if n not in accepted:
        raise UsageError(f"n must be in [{accepted[0]}, {accepted[-1]}]")


def cmd_expand(args) -> int:
    _require_n(args.n, range(1, EXPAND_MAX_N + 1))
    poly = kl_direct(args.n).poly
    # render only the format asked for
    if args.format == "text":
        print(poly_to_text(poly))
        return 0
    # "provenance" is always "direct", kept so the JSON keeps its shape
    payload = {"n": args.n, "provenance": "direct", "terms": poly_to_obj(poly)}
    _emit(payload, args, [])
    return 0


def cmd_table(args) -> int:
    j, alpha, k = args.j, args.alpha, args.k
    if not (1 <= k <= j <= TABLE_MAX and 0 <= alpha <= TABLE_MAX):
        raise UsageError(f"need 1 <= k <= j <= {TABLE_MAX}, 0 <= alpha <= {TABLE_MAX}")
    count = comb(alpha + j - k, j - k)
    if count > TABLE_MAX_ROWS:
        raise UsageError(f"Z({j},{alpha},{k}) has {count} rows, more than {TABLE_MAX_ROWS}")
    rows = TABLE_432_ORDER if (j, alpha, k) == (4, 3, 2) else enumerate_compositions(j, alpha, k)
    entries = [(beta, density(beta)) for beta in rows]
    total = sum(d for _, d in entries)
    payload = {
        "j": j,
        "alpha": alpha,
        "k": k,
        "rows": [{"beta": list(b), "density": d} for b, d in entries],
        "weight": total,
    }
    width = max((len(str(b)) for b, _ in entries), default=10)
    lines = [f"{str(b):<{width}}  {d}" for b, d in entries]
    lines.append(f"{f'W({j},{alpha},{k})':<{width}}  {total}")
    _emit(payload, args, lines)
    return 0


def cmd_cstar(args) -> int:
    _require_n(args.n, CSTAR_N)
    rows = [
        {
            "j": j,
            "c_star": c_star(args.n, j),
            "factorial_form": str(c_star_factorial_form(args.n, j)),
        }
        for j in range(1, args.n + 1)
    ]
    payload = {"n": args.n, "rows": rows}
    lines = [f"j={r['j']}  c*={r['c_star']}  factorial_form={r['factorial_form']}" for r in rows]
    _emit(payload, args, lines)
    return 0


def cmd_linear(args) -> int:
    _require_n(args.n, LINEAR_N)
    c = linear_part(args.n)
    payload = {"n": args.n, "c": list(c)}
    lines = [f"C_{alpha} = {value}" for alpha, value in enumerate(c)]
    _emit(payload, args, lines)
    return 0


def cmd_hpoly(args) -> int:
    _require_n(args.n, HPOLY_N)
    coeffs = h_poly(args.n)
    payload = {"n": args.n, "coefficients": coeffs}
    lines = [f"z^{alpha}: {c}" for alpha, c in enumerate(coeffs)]
    _emit(payload, args, lines)
    return 0


def _check(name: str, ok: bool, detail: str = "") -> dict:
    return {"check": name, "status": "pass" if ok else "fail", "detail": detail}


def _observed(name: str, detail: str) -> dict:
    return {"check": name, "status": "observed", "detail": detail}


def suite_identities(n_max: int) -> list[dict]:
    checks = []
    for n in range(1, n_max + 1):
        poly = kl_direct(n).poly
        first = reduce_first_order(poly)
        checks.append(_check(f"first-identity n={n}", not first))
        second = reduce_second_order(poly)
        if n % 2 == 1:
            checks.append(_check(f"second-identity n={n}", not second))
        else:
            # terms() lists equal u-counts by ascending u'-count
            residual = ", ".join(
                f"u^{mono.count(0)}·u'^{mono.count(1)}: {lambda_coeff_text(coeff)}"
                for mono, coeff in sorted(second.terms(), key=lambda term: term[0].count(0))
            )
            checks.append(
                _observed(f"second-identity n={n} (even)", f"residual [{residual}]")
            )
        # the paper's closed form, the one place it meets the direct route
        checks.append(_check(f"closed-form-agrees n={n}", kl_closed_form(n).poly == poly))
    return checks


def suite_cstar(n_max: int) -> list[dict]:
    checks = []
    for n in range(1, n_max + 1):
        for j in range(1, n + 1):
            direct = c_star(n, j)
            fact = c_star_factorial_form(n, j)
            checks.append(
                _check(f"c-star n={n} j={j}", direct == 0 and fact == 0, f"{direct}, {fact}")
            )
    return checks


def _lambda_free_sum(p: DiffPolynomial) -> int | None:
    """The sum of p's coefficients; None when a term carries λ."""
    coeffs = [coeff for _, coeff in p.terms()]
    return None if any(c.exponent for c in coeffs) else sum(c.value for c in coeffs)


def _generates_its_product(n: int) -> bool:
    """Whether the row S(n, ·) holds the coefficients of (1 + z)···(1 + nz),
    compared at the one point z = B = (n+1)! + 1.  The true coefficients are
    non-negative and sum to (n+1)!, so each is a base-B digit of the
    product's value; a row of digits in [0, B) with that value is therefore
    the coefficient row itself."""
    base = factorial(n + 1) + 1
    row = [sum_of_products(n, alpha) for alpha in range(n + 1)]
    value = sum(s * base**alpha for alpha, s in enumerate(row))
    return all(0 <= s < base for s in row) and value == prod(1 + a * base for a in range(1, n + 1))


def suite_weights(bound: int) -> list[dict]:
    weight_ok = count_ok = True
    for j in range(1, bound + 1):
        for k in range(1, j + 1):
            for alpha in range(bound + 1):
                rows = enumerate_compositions(j, alpha, k)
                if sum(map(density, rows)) != weight_closed_form(j, alpha, k):
                    weight_ok = False
                if len(rows) != comb(alpha + j - k, j - k):
                    count_ok = False
    checks = [
        _check(f"weight-closed-form j,k<= {bound} alpha<={bound}", weight_ok),
        _check("composition-count stars-and-bars", count_ok),
    ]
    ok = all(
        density(beta) == _lambda_free_sum(differential_word(beta))
        for j in range(1, 6)
        for alpha in range(6)
        for beta in enumerate_compositions(j, alpha, 1)
    )
    checks.append(_check("density-vs-word j,alpha<=5", ok))
    ok = all(_generates_its_product(n) for n in range(1, 21))
    checks.append(_check("generating-function n<=20", ok))
    ok = all(
        sum_of_products(n, alpha) == sum_of_products_enumerated(n, alpha)
        for n in range(1, 13)
        for alpha in range(n + 1)
    )
    checks.append(_check("product-sum recurrence-vs-enumeration n<=12", ok))
    ok = all(
        lhs == rhs
        for lhs, rhs in (
            factorial_sum_check(n, m) for n in range(1, 16) for m in range(1, n + 1)
        )
    )
    checks.append(_check("factorial-sum n<=15", ok))
    ok = all(convolution(n, m) == 0 for n in range(1, 21) for m in range(1, 21)) and all(
        convolution(n, 0) == 1 for n in range(1, 21)
    )
    checks.append(_check("binomial-convolution n,m<=20", ok))
    return checks


def suite_linear(n_max: int) -> list[dict]:
    checks = []
    for n in range(2, n_max + 1):
        c = linear_part(n)
        ok = all(c[a] == c_alpha_formula(n, a) for a in range(n))
        checks.append(_check(f"linear-coefficient-formula n={n}", ok))
        h = h_poly(n)
        ok = len(h) == n and all(h[a] == c[n - 1 - a] for a in range(n))
        checks.append(_check(f"h-polynomial n={n}", ok))
        graded = DiffPolynomial({((a,), n - 1 - a): c[a] for a in range(n)})
        checks.append(
            _check(f"operator-factorization n={n}", linear_factorization(n) == graded)
        )
        ok = kernel_exponents(c) == [1] + [-a for a in range(1, n - 1)]
        checks.append(_check(f"kernel-exponents n={n}", ok))
        ok = lambda_zero_pattern(1, n - 1) == {n - 1: n - 1}
        checks.append(_check(f"lambda-zero-collapse n={n}", ok))
    return checks


def suite_thm5(n_max: int, m_max: int) -> list[dict]:
    checks = []
    threshold = 1e-50
    for n in range(3, n_max + 1):
        built = linear_part(n)
        # the theory coefficients, so that a wrong built f_n, which moves
        # the verdict, fails the cross-check too
        c = tuple(h_poly(n)[::-1])
        for m in range(3, m_max + 1):
            expected = {0} if m % 2 else {0, m // 2}
            verdict = thm5_verdict(built, m)
            checks.append(
                _check(f"surviving-rates n={n} m={m}", verdict == expected, str(sorted(verdict)))
            )
            # h has integer coefficients, so |h(ζ^(m−r))| = |h(ζ^r)|
            magnitude = [h_at_root_of_unity_numeric(c, m, r) for r in range(m // 2 + 1)]
            ok = all(
                (magnitude[min(r, m - r)] < threshold) == (r in verdict) for r in range(m)
            )
            checks.append(_check(f"numeric-crosscheck n={n} m={m}", ok))
    return checks


# Suite name -> (runner, default n_max, default m_max, accepted (n_max, m_max)
# ranges, for the bounds the suite takes); `verify all` runs them in this
# order.  A range starts at the least bound that leaves a grid point; its end
# was sized to a cold run of about 5 s on 2 vCPUs (README lists the times at
# the ends).  A runner looks its suite up when called, so a wrapper installed
# on the module attribute (as perfbench's tracer does) sees it.
SUITES = {
    "identities": (lambda n, m: suite_identities(n), 8, None, (range(1, EXPAND_MAX_N + 1),)),
    "cstar": (lambda n, m: suite_cstar(n), 8, None, (CSTAR_N,)),
    "weights": (lambda n, m: suite_weights(n), 6, None, (range(1, 11),)),
    "linear": (lambda n, m: suite_linear(n), 12, None, (LINEAR_N,)),
    "thm5": (lambda n, m: suite_thm5(n, m), 10, 10, (range(3, 21), range(3, 21))),
}


def cmd_verify(args) -> int:
    suites = list(SUITES) if args.suite == "all" else [args.suite]
    if args.m_max is not None and all(len(SUITES[name][3]) < 2 for name in suites):
        raise UsageError(f"{args.suite} takes no --m-max")
    for name in suites:
        bounds = zip(("--n-max", "--m-max"), (args.n_max, args.m_max), SUITES[name][3])
        for option, bound, accepted in bounds:
            if bound is not None and bound not in accepted:
                span = f"{accepted[0]}..{accepted[-1]}"
                raise UsageError(f"{name} takes {option} in {span}, got {bound}")
    start = time.monotonic()
    checks = []
    for name in suites:
        # a bound left as None takes the suite's default
        runner, n_default, m_default, _ = SUITES[name]
        n_max = n_default if args.n_max is None else args.n_max
        checks.extend(runner(n_max, m_default if args.m_max is None else args.m_max))
    elapsed_ms = round((time.monotonic() - start) * 1000, 1)
    payload = {
        "tool_version": __version__,
        "command": "verify",
        "parameters": {"suite": args.suite, "n_max": args.n_max, "m_max": args.m_max},
        "checks": checks,
    }
    if not args.no_timing:
        payload["wall_time_ms"] = elapsed_ms
    lines = [
        f"{c['status'].upper():>8}  {c['check']}" + (f"  [{c['detail']}]" if c["detail"] else "")
        for c in checks
    ]
    failed = sum(1 for c in checks if c["status"] == "fail")
    passed = sum(1 for c in checks if c["status"] == "pass")
    summary = f"{passed} passed, {failed} failed, {len(checks) - passed - failed} observed"
    if not args.no_timing:
        summary += f" ({elapsed_ms} ms)"
    lines.append(summary)
    _emit(payload, args, lines)
    return VERIFY_FAILURE if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="klpoly",
        description="Exact expansion and verification of the Kuchment-Lvin polynomial family.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=["json", "text"], default="text")

    p = sub.add_parser("expand", help=f"expand the n-th polynomial, 1 <= n <= {EXPAND_MAX_N}")
    p.add_argument("n", type=int)
    add_common(p)
    p.set_defaults(func=cmd_expand)

    # the subcommands that take integer positionals and --format alone
    for name, func, help_text, positionals in (
        ("table", cmd_table, "density table for compositions of (j, alpha, k)", "j alpha k"),
        ("cstar", cmd_cstar, "degree-wise coefficient sums (all zero)", "n"),
        ("linear", cmd_linear, "linear-part coefficients", "n"),
        ("hpoly", cmd_hpoly, "generating polynomial of the linear part", "n"),
    ):
        p = sub.add_parser(name, help=help_text)
        for dest in positionals.split():
            p.add_argument(dest, type=int)
        add_common(p)
        p.set_defaults(func=func)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=["all", *SUITES])
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--m-max", type=int, default=None)
    p.add_argument("--no-timing", action="store_true", help="omit wall time from the report")
    add_common(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code; argparse exits 2 itself."""
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed reader raises here, not in the exit flush
        return code
    except BrokenPipeError:
        # so that the exit flush writes what is still buffered to nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        return CLOSED_STDOUT
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:
        message = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
