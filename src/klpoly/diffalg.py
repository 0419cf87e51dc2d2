"""Differential polynomials with integer coefficients in λ.

The central object is a finite sum of terms c·λ^e·u^(a1) u^(a2) ... u^(aj)
with arbitrary-precision integers c.  A monomial u^(a1)···u^(aj) is the
plain tuple of its derivative orders, sorted ascending: its length is the
degree, its sum the order, and () is the constant 1.  Every polynomial
here is weight-homogeneous: degree + order + e is one weight w for all its
terms, so λ carries no information of its own.  A polynomial is therefore
one map monomial -> integer, with no zero value stored, and its weight;
each term's λ-exponent is w minus the monomial's degree and order, and
equal polynomials have equal maps and weights.  ``LambdaPolynomial`` is a
read-only view of the λ-coefficient of one monomial.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Mapping

Monomial = tuple[int, ...]


class LambdaPolynomial:
    """Read-only view of the λ-coefficient of one monomial: a polynomial in
    λ over the integers, stored as a sparse exponent map with zeros pruned.
    Only ``DiffPolynomial.terms()`` hands these out; all algebra runs on the
    monomial map of ``DiffPolynomial``.
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


class DiffPolynomial:
    """Finite sum of terms c·λ^e·π of one weight w = deg π + ord π + e,
    stored as {π: c} with c != 0 and the weight beside it: each term's
    λ-exponent is w − len(π) − sum(π).  The zero polynomial has weight 0.

    Equality is structural.  Instances are immutable by convention.
    """

    __slots__ = ("_terms", "weight")

    def __init__(self, terms: Mapping[tuple[Iterable[int], int], int] = ()):
        """Build from the flat map {(orders, λ-exponent): coefficient}; the
        orders need not be sorted, and keys naming the same term add up.
        Raises ValueError on a negative order or λ-exponent, or when the
        non-zero terms have more than one weight."""
        # (π, e) -> (weight, π) is one to one, so each weight gets its own map
        by_weight: dict[int, dict[Monomial, int]] = {}
        for (orders, e), c in dict(terms).items():
            if e < 0:
                raise ValueError(f"negative λ exponent: {e}")
            mono = canonical_monomial(orders)
            acc = by_weight.setdefault(len(mono) + sum(mono) + e, {})
            acc[mono] = acc.get(mono, 0) + c
        weights = [w for w, acc in by_weight.items() if any(acc.values())]
        if len(weights) > 1:
            raise ValueError(f"terms of mixed weights {sorted(weights)}")
        self.weight = weights[0] if weights else 0
        self._terms = {mono: c for mono, c in by_weight.get(self.weight, {}).items() if c}

    @classmethod
    def _wrap(cls, terms: dict[Monomial, int], weight: int) -> "DiffPolynomial":
        """Adopt a map of sorted monomials, all of this weight, dropping its
        zero coefficients."""
        p = cls.__new__(cls)
        if not all(terms.values()):
            terms = {mono: c for mono, c in terms.items() if c}
        p._terms = terms
        p.weight = weight if terms else 0
        return p

    @classmethod
    def u_power(cls, k: int) -> "DiffPolynomial":
        """The monomial u^k (k = 0 gives the constant 1)."""
        return cls._wrap({(0,) * k: 1}, k)

    def items(self):
        """((monomial, λ-exponent), coefficient) pairs, in no particular
        order, as a generator to be read once."""
        w = self.weight
        return (((mono, w - len(mono) - sum(mono)), c) for mono, c in self._terms.items())

    def __getitem__(self, key: tuple[Iterable[int], int]) -> int:
        """The integer coefficient of λ^e·π for key (π, e), 0 when the term
        is absent.  The orders of π may come in any order; a negative one
        raises ValueError."""
        orders, e = key
        mono = canonical_monomial(orders)
        return self._terms.get(mono, 0) if len(mono) + sum(mono) + e == self.weight else 0

    def terms(self) -> list[tuple[Monomial, LambdaPolynomial]]:
        """(monomial, λ-coefficient) pairs sorted by (degree, order, orders)."""
        w = self.weight
        return [
            (mono, LambdaPolynomial({w - len(mono) - sum(mono): self._terms[mono]}))
            for mono in sorted(self._terms, key=lambda m: (len(m), sum(m), m))
        ]

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiffPolynomial):
            return NotImplemented
        return self.weight == other.weight and self._terms == other._terms

    def __add__(self, other: "DiffPolynomial") -> "DiffPolynomial":
        """The sum; raises ValueError when both are non-zero and their
        weights differ."""
        if not other:
            return self
        if not self:
            return other
        if self.weight != other.weight:
            raise ValueError(f"sum of weights {self.weight} and {other.weight}")
        out = dict(self._terms)
        for mono, c in other._terms.items():
            out[mono] = out.get(mono, 0) + c
        return self._wrap(out, self.weight)

    def scale(self, c: int, lam: int = 0) -> "DiffPolynomial":
        """Multiply by c·λ^lam."""
        if lam < 0:
            raise ValueError(f"negative λ exponent: {lam}")
        return self._wrap(
            {mono: coeff * c for mono, coeff in self._terms.items()}, self.weight + lam
        )

    def differentiate(self) -> "DiffPolynomial":
        """∂ applied termwise via the product rule; λ is a constant."""
        out: dict[Monomial, int] = {}
        for mono, c in self._terms.items():
            for d, mult in _derivative(mono):
                out[d] = out.get(d, 0) + mult * c
        return self._wrap(out, self.weight + 1)

    def multiply_by_u(self) -> "DiffPolynomial":
        return self._wrap({(0,) + mono: c for mono, c in self._terms.items()}, self.weight + 1)

    def apply_factor(self, m: int) -> "DiffPolynomial":
        """Apply the operator factor (∂ − u + mλ): the mλ term keeps each
        monomial, scaled by m, one λ-power up."""
        if m < 0:
            raise ValueError("factor shift m must be non-negative")
        out = self.differentiate()._terms
        for mono, c in self._terms.items():
            key = (0,) + mono
            out[key] = out.get(key, 0) - c
            if m:
                out[mono] = out.get(mono, 0) + m * c
        return self._wrap(out, self.weight + 1)

    def __repr__(self) -> str:
        return f"DiffPolynomial({dict(sorted(self.items()))})"
