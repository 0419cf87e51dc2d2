"""Construction of the family f_{n,λ}(u) and analysis of its coefficients.

The polynomial is built two independent ways: directly from the defining
formula, and from the closed-form coefficient expression built out of
product rule coefficients and the product sums S(n, α).  Agreement of the
two routes is the main oracle of the test suite.

The operator factors (∂ − u + mλ) of the defining formula differ only by
scalars, so with E = ∂ − u their product over m < L is the rising factorial
Σ_a [L, a] λ^(L−a) E^a, [L, a] the unsigned Stirling numbers of the first
kind.  The direct route therefore iterates the λ-free operator E on u^k and
weights each power; it never reaches ``combinatorics``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, perm
from typing import NamedTuple

from .combinatorics import (
    differential_word,
    enumerate_compositions,
    sum_of_products,
)
from .diffalg import DiffPolynomial, canonical_monomial


class KLExpansion(NamedTuple):
    """An expanded f_{n,λ}(u)."""

    poly: DiffPolynomial


def _rising_factorial_row(length: int) -> list[int]:
    """[length, a] for a = 0..length: the unsigned Stirling numbers of the
    first kind, coefficients of x(x+1)···(x+length−1), from
    [m+1, a] = m·[m, a] + [m, a−1]."""
    row = [1]
    for m in range(length):
        row = [m * here + below for here, below in zip(row + [0], [0] + row)]
    return row


def kth_term(n: int, k: int) -> DiffPolynomial:
    """The k-th summand of the defining formula, including its binomial
    factor: C(n,k) times the operator product applied to u^k.

    With E = ∂ − u and L = n − k the factors E + mλ (m < L) differ by
    scalars, so they commute and their product is the rising factorial
    Σ_{a=1..L} [L, a] λ^(L−a) E^a.  E^a u^k is λ-free of degree plus order
    k + a, so the powers land on disjoint monomials of one map of weight n:
    each is computed once from the last and written with the factor
    C(n,k)·[L, a].
    """
    if not 0 <= k <= n - 1:
        raise ValueError(f"need 0 <= k <= n-1, got k={k}, n={n}")
    length = n - k
    row = _rising_factorial_row(length)
    binom = comb(n, k)
    word = DiffPolynomial.u_power(k)
    out = {}
    for a in range(1, length + 1):
        word = word.apply_factor()
        factor = binom * row[a]
        out.update((mono, factor * c) for mono, c in word._terms.items())
    return DiffPolynomial._wrap(out, n)


@lru_cache(maxsize=None)
def kl_direct(n: int) -> KLExpansion:
    """Build f_{n,λ}(u) by direct operator application."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    out = {bytes(n): 1}
    for k in range(n):
        for mono, c in kth_term(n, k)._terms.items():
            out[mono] = out.get(mono, 0) + c
    return KLExpansion(poly=DiffPolynomial._wrap(out, n))


@lru_cache(maxsize=None)
def _p_sums(j: int, alpha: int, k: int) -> DiffPolynomial:
    """S_k(j, α), the sum of the differential words of all compositions in
    Z(j, α, k): its coefficient at π is the sum of the product rule
    coefficients P over that family.  Words are λ-free, so it has weight
    j + α.

    A composition ending in 0 contributes u times a word of Z(j−1, α, k);
    one ending in b > 0 contributes ∂ of the word with that entry lowered
    to b − 1, a word of Z(j, α−1, k).  So for j > k

        S_k(j, α) = u·S_k(j−1, α) + ∂S_k(j, α−1),   S_k(j, −1) = 0,

    and the row j = k, whose family is the one composition (0, …, 0, α),
    is its word.
    """
    if j == k:
        (beta,) = enumerate_compositions(k, alpha, k)
        return differential_word(beta)
    s = _p_sums(j - 1, alpha, k).multiply_by_u()
    if alpha:
        s = s + _p_sums(j, alpha - 1, k).differentiate()
    return s


@lru_cache(maxsize=64)
def _alternating_weights(n: int, j: int, alpha: int) -> tuple[tuple[int, int], ...]:
    """(k', (-1)^(j-k) C(n,k) S(n-k-1, n-j-α)) for each k in [0, j] whose
    weight is non-zero, k' = max(k, 1) naming the family Z(j, α, k') whose
    P-sums the k-th summand of the closed form reads.  Cached because the
    closed form asks for the same row once per monomial at (j, α)."""
    return tuple(
        (max(k, 1), (-1) ** (j - k) * comb(n, k) * s)
        for k in range(j + 1)
        if (s := sum_of_products(n - k - 1, n - j - alpha))
    )


def coefficient_closed_form(n: int, pi: tuple[int, ...]) -> int:
    """The integer coefficient of λ^(n-j-α) π in f_{n,λ}(u), with j the
    degree and α the order of π, by the alternating closed form

        sum over k in [0, j] of (-1)^(j-k) C(n,k) S(n-k-1, n-j-α) * P-sum(k)

    where the k = 0 summand reads its compositions from Z(j, α, 1).  The
    derivative orders of pi may come in any order.
    """
    pi = canonical_monomial(pi)
    j, alpha = len(pi), sum(pi)
    if not (1 <= j <= n and alpha <= n - j):
        raise ValueError(f"monomial {tuple(pi)} is off the grid of n={n}")
    total = 0
    for k, w in _alternating_weights(n, j, alpha):
        total += w * _p_sums(j, alpha, k)._terms.get(pi, 0)
    return total


def kl_closed_form(n: int) -> KLExpansion:
    """Assemble f_{n,λ}(u) from the closed-form coefficients.

    The coefficient at (j, α, π) is a weighted sum of the P-sums S_k(j, α)
    at π.  Every Z(j, α, k) lies inside Z(j, α, 1) and word coefficients are
    positive, so only a monomial of S_1(j, α) can have a non-zero
    coefficient: assembly runs over those, into one map of weight n."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    out = {}
    for j in range(1, n + 1):
        for alpha in range(n - j + 1):
            for pi in _p_sums(j, alpha, 1)._terms:
                out[pi] = coefficient_closed_form(n, pi)
    return KLExpansion(poly=DiffPolynomial._wrap(out, n))


def c_star(n: int, j: int) -> int:
    """Sum of the closed-form coefficients over all orders and monomials at
    fixed degree j.  Always zero; asserting that reproves the first
    vanishing identity.

    Every monomial of S_k(j, α) sits at (j, α), so the sum over π of one
    summand of the closed form is its weight times the coefficient total
    of S_k(j, α)."""
    if not 1 <= j <= n:
        raise ValueError(f"need 1 <= j <= n, got j={j}, n={n}")
    return sum(
        w * sum(_p_sums(j, alpha, k)._terms.values())
        for alpha in range(n - j + 1)
        for k, w in _alternating_weights(n, j, alpha)
    )


def c_star_factorial_form(n: int, j: int) -> Fraction:
    """The same degree-j coefficient sum as one integer sum over j!:

        sum over k, m of (-1)^(m-k) C(n,k) j!/((m-k)!(j-m)!) (n-k+m-1)!/(m-1)!

    with m ranging over [max(k, 1), j].  This is the paper's factorial form
    with m^(m-j) A[m] = (-1)^(j-m)/(j-m)! put in, by the lemma of
    `combinatorics.weight_closed_form`.  Validates the re-indexed route to
    the vanishing result independently of any word expansion."""
    if not 1 <= j <= n:
        raise ValueError(f"need 1 <= j <= n, got j={j}, n={n}")
    top = factorial(j)
    # j!/((m−k)!(j−m)!) = C(j−k, m−k)·j!/(j−k)! is an integer, and
    # (n−k+m−1)!/(m−1)! = perm(n−k+m−1, n−k)
    return Fraction(
        sum(
            (-1) ** k
            * comb(n, k)
            * sum(
                (-1) ** m
                * (top // (factorial(m - k) * factorial(j - m)))
                * perm(n - k + m - 1, n - k)
                for m in range(max(k, 1), j + 1)
            )
            for k in range(j + 1)
        ),
        top,
    )


def linear_part(n: int) -> tuple[int, ...]:
    """Extract the degree-1 coefficients from the directly built polynomial:
    c[α] is the integer attached to λ^(n-1-α) u^(α)."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    poly = kl_direct(n).poly
    return tuple(poly[(alpha,)] for alpha in range(n))


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
    """Coefficients of (n-1)(1-z) Σ_α S(n-2, α) z^α, which is
    (n-1)(1-z) ∏_{m=1}^{n-2} (1+mz); the coefficient of z^α equals the
    linear-part coefficient c[n-1-α]."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    g = [sum_of_products(n - 2, alpha) for alpha in range(n - 1)]
    return [(n - 1) * (a - b) for a, b in zip(g + [0], [0] + g)]


def linear_factorization(n: int) -> DiffPolynomial:
    """Expand the operator (n-1)(∂ − λ) ∏_{a=1}^{n-2} (∂ + aλ) applied to u.

    Equals the λ-graded linear part of f_{n,λ}(u).
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    p = DiffPolynomial.u_power(1)
    for a in range(1, n - 1):
        p = p.differentiate() + p.scale(a, lam=1)
    p = p.differentiate() + p.scale(-1, lam=1)
    return p.scale(n - 1)


def kernel_exponents(n: int) -> list[int]:
    """The candidates z among 1, -1, -2, ..., -(n-2), in that order, at which
    h(z) = Σ c[α] z^α of the built linear part vanishes: the multipliers z
    with e^(zλx) annihilated by it.  By theory every candidate survives."""
    c = linear_part(n)
    return [
        z
        for z in [1, *range(-1, 1 - n, -1)]
        if not sum(coeff * z**alpha for alpha, coeff in enumerate(c))
    ]
