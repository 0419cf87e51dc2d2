"""Stable JSON serialization and plain-text rendering of polynomials.

The JSON shape is a compatibility surface: a list of terms, each
{"orders": [...], "lambda_coeffs": [[exponent, "coefficient"], ...]},
with terms sorted by (degree, order, orders) and λ-exponents ascending.
Every polynomial is weight-homogeneous, so the writers emit one
[exponent, "coefficient"] pair per term.
Integer coefficients are emitted as decimal strings so arbitrary
precision survives any JSON reader.
"""

from __future__ import annotations

from itertools import groupby

from .diffalg import DiffPolynomial, LambdaPolynomial, Monomial


def poly_to_obj(p: DiffPolynomial) -> list[dict]:
    return [
        {"orders": list(mono), "lambda_coeffs": [[coeff.exponent, str(coeff.value)]]}
        for mono, coeff in p.terms()
    ]


def poly_to_json(p: DiffPolynomial) -> str:
    """The compact JSON text of poly_to_obj(p), written term by term
    without building the object tree.

    ``json.dumps(poly_to_obj(p), separators=(",", ":"))`` gives the same
    bytes but holds every term's dict at once: on perfbench's expand-direct
    pass (n = 14, 16, 18, Python 3.11) it raised the tracemalloc peak from
    1711 to 2253 KiB and peak RSS from 21.7 to 22.2 MiB, five times the
    0.1 MiB that workload's benchmark bound allows.
    """
    return "[%s]" % ",".join(
        '{"orders":[%s],"lambda_coeffs":[[%d,"%d"]]}'
        % (",".join(map(str, mono)), coeff.exponent, coeff.value)
        for mono, coeff in p.terms()
    )


def poly_from_obj(obj: list[dict]) -> DiffPolynomial:
    """Inverse of poly_to_obj; terms naming the same monomial and
    λ-exponent add up.  Raises ValueError where the constructor does, and
    on a coefficient that is not a decimal string."""
    return DiffPolynomial(
        ((entry["orders"], e), _decimal(c)) for entry in obj for e, c in entry["lambda_coeffs"]
    )


def _decimal(c: object) -> int:
    # only the writer's form, ASCII digits after an optional "-": int() alone
    # also takes "1_000", " +7 " and non-ASCII digits such as "٣"
    if type(c) is not str or not (c.isascii() and c.removeprefix("-").isdigit()):
        raise ValueError(f"coefficient {c!r} is not a decimal string")
    return int(c)


def _factor_text(t: int) -> str:
    if t == 0:
        return "u"
    if t <= 2:
        return "u" + "'" * t
    return f"u^({t})"


def monomial_text(orders: Monomial) -> str:
    """A non-empty monomial, each run of equal orders as one power."""
    pieces = []
    for t, run in groupby(orders):
        count = len(list(run))
        base = _factor_text(t)
        if count == 1:
            pieces.append(base)
        elif t == 0:
            pieces.append(f"u^{count}")
        else:
            pieces.append(f"({base})^{count}")
    return "·".join(pieces)


def _lambda_text(exp: int) -> str:
    return "λ" if exp == 1 else f"λ^{exp}"


def lambda_coeff_text(coeff: LambdaPolynomial) -> str:
    """A λ-coefficient as value·λ^exponent, or the value alone at λ^0."""
    if coeff.exponent:
        return f"{coeff.value}·{_lambda_text(coeff.exponent)}"
    return str(coeff.value)


def _term_text(mono: Monomial, coeff: LambdaPolynomial) -> tuple[int, str]:
    """Render one term; returns (sign, body) with sign in {+1, -1}."""
    exp, c = coeff.exponent, coeff.value
    sign = 1 if c > 0 else -1
    pieces = []
    if abs(c) != 1 or (exp == 0 and not mono):
        pieces.append(str(abs(c)))
    if exp:
        pieces.append(_lambda_text(exp))
    if mono:
        pieces.append(monomial_text(mono))
    return sign, "·".join(pieces)


def poly_to_text(p: DiffPolynomial) -> str:
    """Human-readable rendering, higher derivatives first within a degree."""
    if not p:
        return "0"
    ordered = sorted(p.terms(), key=lambda kv: (len(kv[0]), -sum(kv[0]), kv[0]))
    out = []
    for i, (mono, coeff) in enumerate(ordered):
        sign, body = _term_text(mono, coeff)
        if i == 0:
            out.append(body if sign > 0 else f"−{body}")
        else:
            out.append(f" + {body}" if sign > 0 else f" − {body}")
    return "".join(out)
