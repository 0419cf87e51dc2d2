"""Differential polynomials with integer coefficients in λ.

The central object is a finite sum of terms c·λ^e·u^(a1) u^(a2) ... u^(aj)
with arbitrary-precision integers c.  A monomial u^(a1)···u^(aj) is the
``bytes`` of its derivative orders, sorted ascending, one order 0..255 per
byte: its length is the degree, its sum the order, and b"" is the constant
1.  Iterating it gives the orders as ints, and it compares as the tuple of
its orders would; unlike a tuple it caches its hash, so the dict operations
of the product rule do not rehash the key each time.  Every polynomial
here is weight-homogeneous: degree + order + e is one weight w for all its
terms, so λ carries no information of its own.  A polynomial is therefore
one map monomial -> integer, with no zero value stored, and its weight;
each term's λ-exponent is w minus the monomial's degree and order, and
equal polynomials have equal maps and weights.  ``LambdaPolynomial`` is the
λ-coefficient of one monomial: the (exponent, value) pair of its one
power.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from functools import lru_cache
from itertools import groupby

Monomial = bytes


class LambdaPolynomial:
    """The λ-coefficient value·λ^exponent of one monomial.  Every polynomial
    is weight-homogeneous, so this is a single power.  Only
    ``DiffPolynomial.terms()`` hands these out; all algebra runs on the
    monomial map of ``DiffPolynomial``.
    """

    __slots__ = ("exponent", "value")

    def __init__(self, exponent: int, value: int):
        if exponent < 0:
            raise ValueError(f"negative λ exponent: {exponent}")
        self.exponent = exponent
        self.value = value


def canonical_monomial(orders: Iterable[int]) -> Monomial:
    """The monomial with these derivative orders: the orders sorted
    ascending.  Raises ValueError on an order that is not an int (a bool is
    not) in 0..255."""
    orders = list(orders)
    # typed before sorting, which may compare a str with an int
    if set(map(type, orders)) <= {int}:
        orders.sort()
        if not orders or 0 <= orders[0] and orders[-1] <= 255:
            return bytes(orders)
    raise ValueError(f"derivative order outside 0..255 in {tuple(orders)}")


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
    end = 0
    for t, run in groupby(mono):
        count = len(list(run))
        end += count
        out.append((mono[: end - 1] + bytes((t + 1,)) + mono[end:], count))
    return tuple(out)


class DiffPolynomial:
    """Finite sum of terms c·λ^e·π of one weight w = deg π + ord π + e,
    stored as {π: c} with c != 0 and the weight beside it: each term's
    λ-exponent is w − len(π) − sum(π).  The zero polynomial has weight 0.

    Equality is structural.  Instances are immutable by convention.
    """

    __slots__ = ("_terms", "weight")

    def __init__(self, terms: Mapping | Iterable[tuple[tuple[Iterable[int], int], int]] = ()):
        """Build from the flat map {(orders, λ-exponent): coefficient} or its
        ((orders, λ-exponent), coefficient) pairs; the orders need not be
        sorted, and pairs naming the same term add up.  Raises ValueError on
        an order outside 0..255, a non-int exponent or coefficient, a
        negative exponent, or non-zero sums of more than one weight."""
        if isinstance(terms, Mapping):
            terms = terms.items()
        # (π, e) -> (weight, π) is one to one, so each weight gets its own map
        by_weight: dict[int, dict[Monomial, int]] = {}
        for (orders, e), c in terms:
            if type(e) is not int or type(c) is not int:
                raise ValueError(f"non-integer term: λ exponent {e!r}, coefficient {c!r}")
            if e < 0:
                raise ValueError(f"negative λ exponent: {e}")
            mono = canonical_monomial(orders)
            acc = by_weight.setdefault(len(mono) + sum(mono) + e, {})
            acc[mono] = acc.get(mono, 0) + c
        weights = [w for w, acc in by_weight.items() if any(acc.values())]
        if len(weights) > 1:
            raise ValueError(f"terms of mixed weights {sorted(weights)}")
        self.weight = weights[0] if weights else 0
        acc = by_weight.get(self.weight, {})
        self._terms = acc if all(acc.values()) else {mono: c for mono, c in acc.items() if c}

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
        return cls._wrap({bytes(k): 1}, k)

    def __getitem__(self, orders: Iterable[int]) -> int:
        """The integer coefficient of the monomial with these orders, 0 when
        it is absent; the weight fixes its λ-power.  The orders may come in
        any order; one outside 0..255 raises ValueError."""
        return self._terms.get(canonical_monomial(orders), 0)

    def terms(self) -> list[tuple[Monomial, LambdaPolynomial]]:
        """(monomial, λ-coefficient) pairs sorted by (degree, order, orders)."""
        w = self.weight
        return [
            (mono, LambdaPolynomial(w - len(mono) - sum(mono), self._terms[mono]))
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
        """Multiply by c·λ^lam; raises ValueError unless c and lam are ints
        and lam >= 0."""
        if type(c) is not int or type(lam) is not int:
            raise ValueError(f"non-integer scale: c = {c!r}, lam = {lam!r}")
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
        return self._wrap({b"\0" + mono: c for mono, c in self._terms.items()}, self.weight + 1)

    def apply_factor(self) -> "DiffPolynomial":
        """Apply the operator E = ∂ − u.  The paper's factor E + mλ is
        ``p.apply_factor() + p.scale(m, lam=1)``."""
        out = self.differentiate()._terms
        for mono, c in self._terms.items():
            key = b"\0" + mono
            out[key] = out.get(key, 0) - c
        return self._wrap(out, self.weight + 1)

    def __repr__(self) -> str:
        terms = {(tuple(mono), coeff.exponent): coeff.value for mono, coeff in self.terms()}
        return f"DiffPolynomial({terms})"
