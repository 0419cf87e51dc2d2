"""Construction of the family f_{n,λ}(u) and analysis of its coefficients.

The polynomial is built two independent ways: directly, by applying the
operator factors (∂ − u + mλ) of the defining formula, and from the
closed-form coefficient expression built out of product rule coefficients
and the product sums S(n, α).  Agreement of the two routes is the main
oracle of the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .combinatorics import (
    differential_word,
    enumerate_compositions,
    sum_of_products,
    weight_A_coefficients,
)
from .diffalg import DiffPolynomial, LambdaPolynomial, Monomial, canonical_monomial


@dataclass(frozen=True)
class KLExpansion:
    """An expanded f_{n,λ}(u) together with how it was built."""

    n: int
    poly: DiffPolynomial
    provenance: str  # "direct" or "closed_form"


@dataclass(frozen=True)
class LinearPart:
    """The degree-1 slice of f_{n,λ}(u): coefficients c[α] of λ^(n-1-α) u^(α)."""

    n: int
    c: tuple[int, ...]


def monomials(j: int, alpha: int) -> list[Monomial]:
    """All degree-j, order-alpha differential monomials: partitions of
    alpha into at most j parts, zero-padded to length j, as sorted tuples."""

    out: list[Monomial] = []

    def ascending(total: int, slots: int, minimum: int, acc: tuple[int, ...]):
        if slots == 0:
            if total == 0:
                out.append(acc)
            return
        for v in range(minimum, total + 1):
            ascending(total - v, slots - 1, v, acc + (v,))

    ascending(alpha, j, 0, ())
    return out


def kth_term(n: int, k: int) -> DiffPolynomial:
    """The k-th summand of the defining formula, including its binomial
    factor: C(n,k) times the operator product applied to u^k.

    The factor with the largest shift m = n-k-1 acts first (innermost).
    """
    if not 0 <= k <= n - 1:
        raise ValueError(f"need 0 <= k <= n-1, got k={k}, n={n}")
    p = DiffPolynomial.u_power(k)
    for m in range(n - k - 1, -1, -1):
        p = p.apply_factor(m)
    return p.scale(comb(n, k))


@lru_cache(maxsize=None)
def kl_direct(n: int) -> KLExpansion:
    """Build f_{n,λ}(u) by direct operator application."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    poly = DiffPolynomial.u_power(n)
    for k in range(n):
        poly = poly + kth_term(n, k)
    return KLExpansion(n=n, poly=poly, provenance="direct")


@lru_cache(maxsize=None)
def _p_sums(j: int, alpha: int, k: int) -> dict[Monomial, int]:
    """For each monomial pi, the sum of product rule coefficients P over
    all compositions in Z(j, alpha, k).  Words are λ-free."""
    acc: dict[Monomial, int] = {}
    for beta in enumerate_compositions(j, alpha, k):
        for (mono, _), c in differential_word(beta).items():
            acc[mono] = acc.get(mono, 0) + c
    return acc


def coefficient_closed_form(n: int, j: int, alpha: int, pi: tuple[int, ...]) -> int:
    """The integer coefficient of λ^(n-j-α) π in f_{n,λ}(u), by the
    alternating closed form

        sum over k in [0, j] of (-1)^(j-k) C(n,k) S(n-k-1, n-j-α) * P-sum(k)

    where the k = 0 summand reads its compositions from Z(j, α, 1).  The
    derivative orders of pi may come in any order.
    """
    if not (1 <= j <= n and 0 <= alpha <= n - j):
        raise ValueError(f"invalid grid point n={n}, j={j}, alpha={alpha}")
    pi = canonical_monomial(pi)
    if len(pi) != j or sum(pi) != alpha:
        raise ValueError(f"monomial {pi} does not sit at (j={j}, alpha={alpha})")
    total = 0
    for k in range(j + 1):
        s = sum_of_products(n - k - 1, n - j - alpha)
        if s == 0:
            continue
        p_sum = _p_sums(j, alpha, max(k, 1)).get(pi, 0)
        total += (-1) ** (j - k) * comb(n, k) * s * p_sum
    return total


@lru_cache(maxsize=None)
def kl_closed_form(n: int) -> KLExpansion:
    """Assemble f_{n,λ}(u) from the closed-form coefficients over the full
    (j, α, π) grid."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    terms = {
        pi: LambdaPolynomial.lam(n - j - alpha, coefficient_closed_form(n, j, alpha, pi))
        for j in range(1, n + 1)
        for alpha in range(n - j + 1)
        for pi in monomials(j, alpha)
    }
    return KLExpansion(n=n, poly=DiffPolynomial(terms), provenance="closed_form")


def c_star(n: int, j: int) -> int:
    """Sum of the closed-form coefficients over all orders and monomials at
    fixed degree j.  Always zero; asserting that reproves the first
    vanishing identity."""
    if not 1 <= j <= n:
        raise ValueError(f"need 1 <= j <= n, got j={j}, n={n}")
    return sum(
        coefficient_closed_form(n, j, alpha, pi)
        for alpha in range(n - j + 1)
        for pi in monomials(j, alpha)
    )


def c_star_factorial_form(n: int, j: int) -> Fraction:
    """The same degree-j coefficient sum evaluated purely through the
    A-coefficients and factorials:

        sum over k, m of (-1)^(j-k) C(n,k) m^(m-j)/(m-k)! A[m] (n-k+m-1)!/(m-1)!

    with m ranging over [max(k, 1), j].  Validates the re-indexed route to
    the vanishing result independently of any word expansion."""
    if not 1 <= j <= n:
        raise ValueError(f"need 1 <= j <= n, got j={j}, n={n}")
    a = weight_A_coefficients(j)
    total = Fraction(0)
    for k in range(j + 1):
        inner = Fraction(0)
        for m in range(max(k, 1), j + 1):
            inner += (
                Fraction(m) ** (m - j)
                * Fraction(1, factorial(m - k))
                * a[m]
                * Fraction(factorial(n - k + m - 1), factorial(m - 1))
            )
        total += (-1) ** (j - k) * comb(n, k) * inner
    return total


def linear_part(n: int) -> LinearPart:
    """Extract the degree-1 coefficients from the directly built polynomial:
    c[α] is the integer attached to λ^(n-1-α) u^(α)."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    poly = kl_direct(n).poly
    c = []
    for alpha in range(n):
        lam_poly = poly.coefficient((alpha,))
        c.append(lam_poly.coeffs.get(n - 1 - alpha, 0))
    return LinearPart(n=n, c=tuple(c))


def c_alpha_formula(n: int, alpha: int) -> int:
    """Closed form for the linear-part coefficient:
    n*S(n-2, n-1-α) − S(n-1, n-1-α)."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if not 0 <= alpha <= n - 1:
        raise ValueError(f"need 0 <= alpha <= n-1, got alpha={alpha}")
    return n * sum_of_products(n - 2, n - 1 - alpha) - sum_of_products(
        n - 1, n - 1 - alpha
    )


def h_poly(n: int) -> list[int]:
    """Coefficients of (n-1)(1-z) ∏_{m=1}^{n-2} (1+mz); the coefficient of
    z^α equals the linear-part coefficient c[n-1-α]."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    coeffs = [n - 1, -(n - 1)]
    for m in range(1, n - 1):
        coeffs = [
            (coeffs[i] if i < len(coeffs) else 0)
            + (m * coeffs[i - 1] if i > 0 else 0)
            for i in range(len(coeffs) + 1)
        ]
    return coeffs


def linear_factorization(n: int) -> DiffPolynomial:
    """Expand the operator (n-1)(∂ − λ) ∏_{a=1}^{n-2} (∂ + aλ) applied to u.

    Equals the λ-graded linear part of f_{n,λ}(u).
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    p = DiffPolynomial.u_power(1)
    for a in range(1, n - 1):
        p = p.differentiate() + p.scale(LambdaPolynomial.lam(1, a))
    p = p.differentiate() - p.scale(LambdaPolynomial.lam(1, 1))
    return p.scale(n - 1)


def kernel_exponents(n: int) -> list[int]:
    """The multipliers c with e^(cλx) annihilated by the linear part:
    1, -1, -2, ..., -(n-2).  Each is verified exactly against the
    coefficient polynomial sum of c[α] z^α before being returned."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    c = linear_part(n).c
    roots = [1] + [-a for a in range(1, n - 1)]
    for z in roots:
        value = sum(coeff * z**alpha for alpha, coeff in enumerate(c))
        if value != 0:
            raise ArithmeticError(f"claimed kernel exponent {z} fails for n={n}")
    return roots
