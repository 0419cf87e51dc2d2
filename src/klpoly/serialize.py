"""Stable JSON serialization and plain-text rendering of polynomials.

The JSON shape is a compatibility surface: a list of terms, each
{"orders": [...], "lambda_coeffs": [[exponent, "coefficient"], ...]},
with terms sorted by (degree, order, orders) and λ-exponents ascending.
Integer coefficients are emitted as decimal strings so arbitrary
precision survives any JSON reader.
"""

from __future__ import annotations

import json

from .diffalg import DiffPolynomial, LambdaPolynomial, Monomial


def poly_to_obj(p: DiffPolynomial) -> list[dict]:
    return [
        {
            "orders": list(mono),
            "lambda_coeffs": [[e, str(c)] for e, c in coeff.items()],
        }
        for mono, coeff in p.terms()
    ]


def poly_to_json(p: DiffPolynomial) -> str:
    return json.dumps(poly_to_obj(p), separators=(",", ":"))


def poly_from_obj(obj: list[dict]) -> DiffPolynomial:
    """Inverse of poly_to_obj; raises ValueError on a negative order or
    λ-exponent."""
    return DiffPolynomial(
        {
            (tuple(entry["orders"]), e): int(c)
            for entry in obj
            for e, c in entry["lambda_coeffs"]
        }
    )


def _factor_text(t: int) -> str:
    if t == 0:
        return "u"
    if t <= 2:
        return "u" + "'" * t
    return f"u^({t})"


def monomial_text(orders: Monomial) -> str:
    if not orders:
        return "1"
    pieces = []
    i = 0
    while i < len(orders):
        t = orders[i]
        count = 1
        while i + count < len(orders) and orders[i + count] == t:
            count += 1
        base = _factor_text(t)
        if count == 1:
            pieces.append(base)
        elif t == 0:
            pieces.append(f"u^{count}")
        else:
            pieces.append(f"({base})^{count}")
        i += count
    return "·".join(pieces)


def _lambda_text(exp: int) -> str:
    return "λ" if exp == 1 else f"λ^{exp}"


def lambda_coeff_text(coeff: LambdaPolynomial) -> str:
    """A λ-coefficient as its powers summed in ascending order, "0" when
    it is empty."""
    return " + ".join(f"{c}·{_lambda_text(e)}" if e else str(c) for e, c in coeff.items()) or "0"


def _term_text(mono: Monomial, coeff: LambdaPolynomial) -> tuple[int, str]:
    """Render one term; returns (sign, body) with sign in {+1, -1}.

    The coefficient must be a single λ-power, as every coefficient of a
    weight-homogeneous polynomial such as f_{n,λ}(u) is.
    """
    (exp, c), = coeff.items()
    sign = 1 if c > 0 else -1
    pieces = []
    if abs(c) != 1 or (exp == 0 and not mono):
        pieces.append(str(abs(c)))
    if exp:
        pieces.append(_lambda_text(exp))
    if mono:
        pieces.append(monomial_text(mono))
    if not pieces:
        pieces.append("1")
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
