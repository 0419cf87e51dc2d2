"""Exact quotient reductions and root-of-unity analysis of the linear part.

The two vanishing identities are checked algebraically: substituting
u^(t) -> λ^t u (first order) or its even/odd split (second order) turns a
differential polynomial into an ordinary polynomial whose identical
vanishing is equivalent to vanishing on every solution of the quotient
equation, because the initial values u(x0) (and u'(x0)) are free.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import mpmath

from .diffalg import DiffPolynomial, LambdaPolynomial
from .expansion import h_poly, kl_direct


def _collect(triples) -> dict:
    """Sum (key, λ-exponent, coefficient) triples into {key: λ-polynomial},
    dropping keys whose sum is zero."""
    grouped: dict = {}
    for key, e, c in triples:
        coeffs = grouped.setdefault(key, {})
        coeffs[e] = coeffs.get(e, 0) + c
    return {key: lp for key, coeffs in grouped.items() if (lp := LambdaPolynomial(coeffs))}


def reduce_first_order(p: DiffPolynomial) -> dict[int, LambdaPolynomial]:
    """Substitute u^(t) -> λ^t u throughout; returns a map from the power of
    u to its λ-polynomial coefficient (empty map = identically zero)."""
    return _collect((len(mono), e + sum(mono), c) for (mono, e), c in p.items())


def reduce_second_order(
    p: DiffPolynomial,
) -> dict[tuple[int, int], LambdaPolynomial]:
    """Substitute u^(2t) -> λ^(2t) u and u^(2t+1) -> λ^(2t) u' throughout;
    returns a map (power of u, power of u') -> λ-polynomial coefficient."""

    def reduced(mono, e, c):
        up_pow = sum(t % 2 for t in mono)
        return (len(mono) - up_pow, up_pow), e + sum(mono) - up_pow, c

    return _collect(reduced(mono, e, c) for (mono, e), c in p.items())


@dataclass(frozen=True)
class ExpSolution:
    """u(x) = sum of amplitude * e^(λ ζ^r x) over (amplitude, r) pairs,
    with ζ a primitive m-th root of unity."""

    terms: tuple[tuple[complex, int], ...]
    modulus: int
    lam: complex

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("modulus must be >= 1")
        rates = [r for _, r in self.terms]
        if len(set(rates)) != len(rates):
            raise ValueError("rate indices must be distinct")
        if any(not 0 <= r < self.modulus for r in rates):
            raise ValueError("rate indices must lie in [0, modulus)")

    def rate(self, r: int) -> complex:
        zeta = cmath.exp(2j * cmath.pi / self.modulus)
        return self.lam * zeta**r

    def derivative_at(self, t: int, x: complex) -> complex:
        return sum(
            beta * self.rate(r) ** t * cmath.exp(self.rate(r) * x)
            for beta, r in self.terms
        )


def evaluate_at_exponential(
    p: DiffPolynomial, sol: ExpSolution, x: complex, lam: complex | None = None
) -> tuple[complex, float]:
    """Numerically evaluate p at the exponential-sum solution.

    Returns (value, scale) where scale is the largest absolute summand
    encountered, for use as the reference of a relative tolerance.
    """
    lam_value = sol.lam if lam is None else lam
    derivs: dict[int, complex] = {}
    total = 0j
    scale = 0.0
    for (mono, e), c in p.items():
        factor = 1 + 0j
        for t in mono:
            if t not in derivs:
                derivs[t] = sol.derivative_at(t, x)
            factor *= derivs[t]
        term = c * lam_value**e * factor
        scale = max(scale, abs(term))
        total += term
    return total, scale


@dataclass(frozen=True)
class RootVerdict:
    """Whether the linear-part generating polynomial vanishes at ζ^r, and
    the linear factor responsible when it does."""

    n: int
    modulus: int
    r: int
    is_zero: bool
    factor: str | None  # "1-z", "1+z", or None


def linear_part_at_root_of_unity(n: int, m: int, r: int) -> RootVerdict:
    """Exact verdict on h_{n-1}(ζ^r) for ζ a primitive m-th root of unity.

    The factored form (n-1)(1-z) ∏ (1+az) vanishes at a point on the unit
    circle only through (1-z) at z = 1 or (1+z) at z = -1: a factor
    (1+az) with a >= 2 has its root at -1/a, inside the circle.
    """
    if n < 3 or m < 3:
        raise ValueError(f"need n >= 3 and m >= 3, got n={n}, m={m}")
    if not 0 <= r < m:
        raise ValueError(f"need 0 <= r < m, got r={r}")
    if r % m == 0:
        return RootVerdict(n, m, r, True, "1-z")
    if (2 * r) % m == 0:
        # ζ^r = -1; the (1+z) factor exists for n >= 3
        return RootVerdict(n, m, r, True, "1+z")
    return RootVerdict(n, m, r, False, None)


def thm5_verdict(n: int, m: int) -> set[int]:
    """Rate indices r whose exponential e^(λ ζ^r x) survives in the kernel
    of the linear part: {0} for odd m, {0, m/2} for even m."""
    return {
        r for r in range(m) if linear_part_at_root_of_unity(n, m, r).is_zero
    }


def h_at_root_of_unity_numeric(n: int, m: int, r: int, dps: int = 110) -> mpmath.mpf:
    """|h_{n-1}(ζ^r)| computed at high precision, as a cross-check on the
    exact verdicts."""
    with mpmath.workdps(dps):
        zeta_r = mpmath.exp(2j * mpmath.pi * r / m)
        coeffs = h_poly(n)
        value = mpmath.fsum(
            [c * zeta_r**alpha for alpha, c in enumerate(coeffs)], absolute=False
        )
        return abs(value)


@dataclass(frozen=True)
class LambdaZeroVerdict:
    """What survives of the linear part at λ = 0, and the induced lower
    bound on any vanishing pattern when u^(m) = 0 minimally."""

    k: int
    modulus: int
    leading_coefficient: int
    only_term_is_kth_derivative: bool
    min_vanishing_index: int

    @property
    def ok(self) -> bool:
        return self.only_term_is_kth_derivative and self.leading_coefficient == self.k


def lambda_zero_pattern(m: int, k: int) -> LambdaZeroVerdict:
    """At λ = 0 the linear part of the (k+1)-st polynomial collapses to a
    single term k * u^(k); its vanishing therefore forces u^(k) = 0.  If m
    is minimal with u^(m) = 0, a vanishing pattern can only start at
    index m + 1."""
    if m < 1 or k < 1:
        raise ValueError(f"need m >= 1 and k >= 1, got m={m}, k={k}")
    poly = kl_direct(k + 1).poly
    # keep only λ^0 coefficients of degree-1 monomials
    surviving = {
        mono[0]: c for (mono, e), c in poly.items() if len(mono) == 1 and e == 0
    }
    leading = surviving.get(k, 0)
    only_kth = set(surviving) == {k}
    return LambdaZeroVerdict(
        k=k,
        modulus=m,
        leading_coefficient=leading,
        only_term_is_kth_derivative=only_kth,
        min_vanishing_index=m + 1,
    )
