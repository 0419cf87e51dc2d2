"""Compositions, differential words, densities, weights, and product sums.

All results are exact.  Compositions are plain tuples of non-negative
integers; a composition of length j summing to α with its first k−1
entries zero belongs to the family Z(j, α, k).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from math import comb, factorial, prod
from operator import sub

from .diffalg import DiffPolynomial

Composition = tuple[int, ...]


def enumerate_compositions(j: int, alpha: int, k: int = 1) -> list[Composition]:
    """All length-j tuples of non-negative integers summing to alpha whose
    first k−1 entries are zero, in lexicographic order.

    Empty for alpha < 0.
    """
    if j < 1:
        raise ValueError(f"j must be >= 1, got {j}")
    if not 1 <= k <= j:
        raise ValueError(f"k must satisfy 1 <= k <= j, got k={k}, j={j}")
    if alpha < 0:
        return []
    prefix = (0,) * (k - 1)
    # stars and bars: the partial sums of the free entries, the last one
    # (alpha) left out, are a non-decreasing sequence in [0, alpha]
    return [
        prefix + tuple(map(sub, (*cuts, alpha), (0, *cuts)))
        for cuts in combinations_with_replacement(range(alpha + 1), j - k)
    ]


@lru_cache(maxsize=None)
def differential_word(beta: Composition) -> DiffPolynomial:
    """Expand the nested derivative word of beta into differential monomials.

    The length-1 word is u differentiated beta[0] times; a longer word is
    the word of beta[:-1], read from this cache, multiplied by u and
    differentiated beta[-1] times.  The recursion runs over the length only.
    """
    if len(beta) == 1:
        w = DiffPolynomial.u_power(1)
    else:
        w = differential_word(beta[:-1]).multiply_by_u()
    for _ in range(beta[-1]):
        w = w.differentiate()
    return w


def density(beta: Composition) -> int:
    """Sum of all product rule coefficients of beta: ∏ m^beta[m-1]."""
    return prod(map(pow, range(1, len(beta) + 1), beta))


def weight_closed_form(j: int, alpha: int, k: int) -> Fraction:
    """The weight of Z(j, alpha, k), the sum of its densities, by the
    difference formula for h_alpha(k, ..., j): with d = j − k,

        sum over m in [k, j] of (-1)^(j-m) C(d, m-k) m^(d+alpha), over d!.

    This is the paper's sum over m of m^(m-k)/(m-k)! A[m] m^alpha with its
    lemma A[m] = (−m)^(j−m)/(j−m)! put in (proof in the README).  The exact
    rational value; the weights suite compares it with the enumerated
    densities, so a non-integral value fails there.
    """
    if not 1 <= k <= j:
        raise ValueError(f"k must satisfy 1 <= k <= j, got k={k}, j={j}")
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    d = j - k
    return Fraction(
        sum((-1) ** (j - m) * comb(d, m - k) * m ** (d + alpha) for m in range(k, j + 1)),
        factorial(d),
    )


def sum_of_products(n: int, alpha: int) -> int:
    """Sum over all alpha-element subsets A of {1, ..., n} of the product
    of A; 0 when alpha < 0 or alpha > max(n, 0).

    Read from the row of S(n, ·), which for n <= 0 is (1,), the row of the
    empty product; so S(n, 0) = 1 for every n, S(−1, 0) included.
    Cross-validated in the test suite against literal subset enumeration.
    """
    row = _product_sum_row(n)
    return row[alpha] if 0 <= alpha < len(row) else 0


@lru_cache(maxsize=64)
def _product_sum_row(n: int) -> tuple[int, ...]:
    """(S(n, 0), ..., S(n, n)), built iteratively from S(0, ·) = (1,) by the
    Pascal-like recurrence S(m, a) = S(m-1, a) + m*S(m-1, a-1); (1,) for
    n <= 0."""
    row = [1]
    for m in range(1, n + 1):
        row = [1] + [row[a] + m * row[a - 1] for a in range(1, m)] + [m * row[-1]]
    return tuple(row)


def sum_of_products_enumerated(n: int, alpha: int) -> int:
    """Brute-force oracle for sum_of_products via subset enumeration."""
    if alpha == 0:
        return 1
    if alpha < 0 or n < 1 or alpha > n:
        return 0
    return sum(prod(subset) for subset in combinations(range(1, n + 1), alpha))


def factorial_sum_check(n: int, m: int) -> tuple[int, int]:
    """Both sides of the identity

        sum over a in [0, n] of m^(n-a+1) * S(n, a)  ==  (n+m)! / (m-1)!

    returned as (lhs, rhs) for external comparison."""
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    lhs = sum(m ** (n - a + 1) * sum_of_products(n, a) for a in range(n + 1))
    rhs = factorial(n + m) // factorial(m - 1)
    return lhs, rhs


def generalized_binomial(top: int, q: int) -> int:
    """Falling-factorial binomial top(top-1)···(top-q+1)/q!, valid for any
    integer top (including negative) and q >= 0."""
    if q < 0:
        raise ValueError(f"q must be >= 0, got {q}")
    # for top < 0 the q factors are −(q−top−1), …, −(−top)
    return comb(top, q) if top >= 0 else (-1) ** q * comb(q - top - 1, q)


def convolution(n: int, m: int) -> int:
    """sum over k of C(n, k) * C(-n, m-k): the z^m coefficient of
    (1+z)^n (1+z)^(-n), hence 1 at m = 0 and 0 for m >= 1."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    return sum(comb(n, k) * generalized_binomial(-n, m - k) for k in range(m + 1))
