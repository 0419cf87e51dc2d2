"""Differential polynomials with integer coefficients in λ.

The central object is a finite sum of terms c·λ^e·u^(a1) u^(a2) ... u^(aj)
with arbitrary-precision integers c.  A monomial u^(a1)···u^(aj) is the
plain tuple of its derivative orders, sorted ascending: its length is the
degree, its sum the order, and () is the constant 1.  A polynomial is a
map λ-exponent -> {monomial: integer}, one bucket per power of λ, with no
zero value and no empty bucket stored, so equal polynomials have equal
maps.  ``LambdaPolynomial`` is a read-only view of the λ-coefficient of one
monomial.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Mapping

Monomial = tuple[int, ...]


class LambdaPolynomial:
    """Read-only view of the λ-coefficient of one monomial: a polynomial in
    λ over the integers, stored as a sparse exponent map with zeros pruned.
    Only ``DiffPolynomial.terms()`` hands these out; all algebra runs on the
    λ-buckets of ``DiffPolynomial``.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        coeffs = dict(coeffs)
        for exp in coeffs:
            if exp < 0:
                raise ValueError(f"negative λ exponent: {exp}")
        self._coeffs = {e: c for e, c in coeffs.items() if c}

    def items(self) -> list[tuple[int, int]]:
        """(exponent, coefficient) pairs sorted by exponent."""
        return sorted(self._coeffs.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LambdaPolynomial):
            return NotImplemented
        return self._coeffs == other._coeffs


def canonical_monomial(orders: Iterable[int]) -> Monomial:
    """The monomial with these derivative orders: the orders sorted
    ascending.  Raises ValueError on a negative order."""
    mono = tuple(sorted(orders))
    if mono and mono[0] < 0:
        raise ValueError(f"negative derivative order in {mono}")
    return mono


@lru_cache(maxsize=None)
def _derivative(mono: Monomial) -> tuple[tuple[Monomial, int], ...]:
    """∂π by the product rule, as (monomial, multiplicity) pairs.

    Equal orders form a run in the sorted monomial; differentiating any
    factor of a run of t's gives the same monomial, so the last t of the
    run is bumped to t + 1, with the run length as multiplicity, and the
    monomial stays sorted.  Cached: the k-chains of one expansion
    differentiate the same monomials again and again.
    """
    out = []
    end = len(mono)
    i = 0
    while i < end:
        t = mono[i]
        j = i + 1
        while j < end and mono[j] == t:
            j += 1
        out.append((mono[: j - 1] + (t + 1,) + mono[j:], j - i))
        i = j
    return tuple(out)


Buckets = dict[int, dict[Monomial, int]]


def _pruned(buckets: Buckets) -> Buckets:
    """The buckets without zero coefficients, the empty ones left out."""
    out = {}
    for e, bucket in buckets.items():
        if not all(bucket.values()):
            bucket = {mono: c for mono, c in bucket.items() if c}
        if bucket:
            out[e] = bucket
    return out


class DiffPolynomial:
    """Finite sum of terms c·λ^e·π, stored as {e: {π: c}} with c != 0 and
    no empty bucket.

    Equality is structural.  Instances are immutable by convention.
    """

    __slots__ = ("_buckets",)

    def __init__(self, terms: Mapping[tuple[Iterable[int], int], int] = ()):
        """Build from the flat map {(orders, λ-exponent): coefficient}; the
        orders need not be sorted, and keys naming the same term add up.
        Raises ValueError on a negative order or λ-exponent."""
        buckets: Buckets = {}
        for (orders, e), c in dict(terms).items():
            if e < 0:
                raise ValueError(f"negative λ exponent: {e}")
            bucket = buckets.setdefault(e, {})
            mono = canonical_monomial(orders)
            bucket[mono] = bucket.get(mono, 0) + c
        self._buckets = _pruned(buckets)

    @classmethod
    def _wrap(cls, buckets: Buckets) -> "DiffPolynomial":
        """Adopt a bucket map of sorted monomials, dropping its zero
        coefficients and empty buckets."""
        p = cls.__new__(cls)
        p._buckets = _pruned(buckets)
        return p

    @classmethod
    def u_power(cls, k: int) -> "DiffPolynomial":
        """The monomial u^k (k = 0 gives the constant 1)."""
        return cls._wrap({0: {(0,) * k: 1}})

    def items(self):
        """((monomial, λ-exponent), coefficient) pairs, in no particular
        order, as a generator to be read once."""
        return (
            ((mono, e), c) for e, bucket in self._buckets.items() for mono, c in bucket.items()
        )

    def __getitem__(self, key: tuple[Iterable[int], int]) -> int:
        """The integer coefficient of λ^e·π for key (π, e), 0 when the term
        is absent.  The orders of π may come in any order; a negative one
        raises ValueError."""
        orders, e = key
        return self._buckets.get(e, {}).get(canonical_monomial(orders), 0)

    def terms(self) -> list[tuple[Monomial, LambdaPolynomial]]:
        """(monomial, λ-coefficient) pairs sorted by (degree, order, orders)."""
        grouped: dict[Monomial, dict[int, int]] = {}
        for e, bucket in self._buckets.items():
            for mono, c in bucket.items():
                grouped.setdefault(mono, {})[e] = c
        return [
            (mono, LambdaPolynomial(grouped[mono]))
            for mono in sorted(grouped, key=lambda m: (len(m), sum(m), m))
        ]

    def __bool__(self) -> bool:
        return bool(self._buckets)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiffPolynomial):
            return NotImplemented
        return self._buckets == other._buckets

    def __add__(self, other: "DiffPolynomial") -> "DiffPolynomial":
        out = {e: dict(bucket) for e, bucket in self._buckets.items()}
        for e, bucket in other._buckets.items():
            acc = out.setdefault(e, {})
            for mono, c in bucket.items():
                acc[mono] = acc.get(mono, 0) + c
        return self._wrap(out)

    def scale(self, c: int, lam: int = 0) -> "DiffPolynomial":
        """Multiply by c·λ^lam."""
        if lam < 0:
            raise ValueError(f"negative λ exponent: {lam}")
        return self._wrap(
            {
                e + lam: {mono: coeff * c for mono, coeff in bucket.items()}
                for e, bucket in self._buckets.items()
            }
        )

    def differentiate(self) -> "DiffPolynomial":
        """∂ applied termwise via the product rule; λ is a constant, so each
        bucket is differentiated on its own."""
        out: Buckets = {}
        for e, bucket in self._buckets.items():
            out[e] = acc = {}
            for mono, c in bucket.items():
                for d, mult in _derivative(mono):
                    acc[d] = acc.get(d, 0) + mult * c
        return self._wrap(out)

    def multiply_by_u(self) -> "DiffPolynomial":
        return self._wrap(
            {
                e: {(0,) + mono: c for mono, c in bucket.items()}
                for e, bucket in self._buckets.items()
            }
        )

    def apply_factor(self, m: int) -> "DiffPolynomial":
        """Apply the operator factor (∂ − u + mλ): the mλ term is the whole
        bucket e scaled by m and moved to e + 1."""
        if m < 0:
            raise ValueError("factor shift m must be non-negative")
        out = self.differentiate()._buckets
        for e, bucket in self._buckets.items():
            acc = out.setdefault(e, {})
            for mono, c in bucket.items():
                key = (0,) + mono
                acc[key] = acc.get(key, 0) - c
            if m:
                acc = out.setdefault(e + 1, {})
                for mono, c in bucket.items():
                    acc[mono] = acc.get(mono, 0) + m * c
        return self._wrap(out)

    def __repr__(self) -> str:
        return f"DiffPolynomial({dict(sorted(self.items()))})"
