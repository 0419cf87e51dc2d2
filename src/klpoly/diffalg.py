"""Differential polynomials with integer coefficients in λ.

The central object is a finite sum of terms c·λ^e·u^(a1) u^(a2) ... u^(aj)
with arbitrary-precision integers c.  A monomial u^(a1)···u^(aj) is the
plain tuple of its derivative orders, sorted ascending: its length is the
degree, its sum the order, and () is the constant 1.  A polynomial is one
flat map (monomial, λ-exponent) -> integer with no zero value stored, so
equal polynomials have equal maps.  ``LambdaPolynomial`` is a read-only
view of the λ-coefficient of one monomial.
"""

from __future__ import annotations

from typing import Iterable, Mapping

Monomial = tuple[int, ...]


class LambdaPolynomial:
    """Read-only view of the λ-coefficient of one monomial: a polynomial in
    λ over the integers, stored as a sparse exponent map with zeros pruned.
    Only ``DiffPolynomial.terms()`` hands these out; all algebra runs on the
    flat map of ``DiffPolynomial``.
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

    def __repr__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for e, c in self.items():
            if e == 0:
                parts.append(str(c))
            elif e == 1:
                parts.append(f"{c}·λ")
            else:
                parts.append(f"{c}·λ^{e}")
        return " + ".join(parts)


def canonical_monomial(orders: Iterable[int]) -> Monomial:
    """The monomial with these derivative orders: the orders sorted
    ascending.  Raises ValueError on a negative order."""
    mono = tuple(sorted(orders))
    if mono and mono[0] < 0:
        raise ValueError(f"negative derivative order in {mono}")
    return mono


def _pruned(flat: dict) -> dict:
    return {key: c for key, c in flat.items() if c}


class DiffPolynomial:
    """Finite sum of terms c·λ^e·π, stored as {(π, e): c} with c != 0.

    Equality is structural.  Instances are immutable by convention.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[Iterable[int], int], int] = ()):
        """Build from the flat map {(orders, λ-exponent): coefficient}; the
        orders need not be sorted, and keys naming the same term add up.
        Raises ValueError on a negative order or λ-exponent."""
        flat: dict[tuple[Monomial, int], int] = {}
        for (orders, e), c in dict(terms).items():
            if e < 0:
                raise ValueError(f"negative λ exponent: {e}")
            key = (canonical_monomial(orders), e)
            flat[key] = flat.get(key, 0) + c
        self._terms = _pruned(flat)

    @classmethod
    def _wrap(cls, flat: dict[tuple[Monomial, int], int]) -> "DiffPolynomial":
        """Adopt an already pruned flat map of sorted monomials."""
        p = cls.__new__(cls)
        p._terms = flat
        return p

    @classmethod
    def zero(cls) -> "DiffPolynomial":
        return cls()

    @classmethod
    def u_power(cls, k: int) -> "DiffPolynomial":
        """The monomial u^k (k = 0 gives the constant 1)."""
        return cls._wrap({((0,) * k, 0): 1})

    def items(self):
        """((monomial, λ-exponent), coefficient) pairs of the flat map, in
        no particular order."""
        return self._terms.items()

    def __getitem__(self, key: tuple[Iterable[int], int]) -> int:
        """The integer coefficient of λ^e·π for key (π, e), 0 when the term
        is absent.  The orders of π may come in any order; a negative one
        raises ValueError."""
        orders, e = key
        return self._terms.get((canonical_monomial(orders), e), 0)

    def terms(self) -> list[tuple[Monomial, LambdaPolynomial]]:
        """(monomial, λ-coefficient) pairs sorted by (degree, order, orders)."""
        grouped: dict[Monomial, dict[int, int]] = {}
        for (mono, e), c in self._terms.items():
            grouped.setdefault(mono, {})[e] = c
        return [
            (mono, LambdaPolynomial(grouped[mono]))
            for mono in sorted(grouped, key=lambda m: (len(m), sum(m), m))
        ]

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiffPolynomial):
            return NotImplemented
        return self._terms == other._terms

    def __add__(self, other: "DiffPolynomial") -> "DiffPolynomial":
        out = dict(self._terms)
        for key, c in other._terms.items():
            out[key] = out.get(key, 0) + c
        return self._wrap(_pruned(out))

    def __neg__(self) -> "DiffPolynomial":
        return self._wrap({key: -c for key, c in self._terms.items()})

    def __sub__(self, other: "DiffPolynomial") -> "DiffPolynomial":
        return self + (-other)

    def scale(self, c: int, lam: int = 0) -> "DiffPolynomial":
        """Multiply by c·λ^lam."""
        if lam < 0:
            raise ValueError(f"negative λ exponent: {lam}")
        return self._wrap(
            _pruned({(mono, e + lam): coeff * c for (mono, e), coeff in self._terms.items()})
        )

    def differentiate(self) -> "DiffPolynomial":
        """∂ applied termwise via the product rule; λ is a constant.

        Equal orders form a run in the sorted monomial; differentiating any
        factor of a run of t's gives the same monomial, so the last t of the
        run is bumped to t + 1, with the run length as multiplicity, and the
        monomial stays sorted.
        """
        out: dict[tuple[Monomial, int], int] = {}
        for (mono, e), c in self._terms.items():
            end = len(mono)
            i = 0
            while i < end:
                t = mono[i]
                j = i + 1
                while j < end and mono[j] == t:
                    j += 1
                key = (mono[: j - 1] + (t + 1,) + mono[j:], e)
                out[key] = out.get(key, 0) + (j - i) * c
                i = j
        return self._wrap(_pruned(out))

    def multiply_by_u(self) -> "DiffPolynomial":
        return self._wrap({((0,) + mono, e): c for (mono, e), c in self._terms.items()})

    def apply_factor(self, m: int) -> "DiffPolynomial":
        """Apply the operator factor (∂ − u + mλ)."""
        if m < 0:
            raise ValueError("factor shift m must be non-negative")
        out = self.differentiate()._terms
        for (mono, e), c in self._terms.items():
            key = ((0,) + mono, e)
            out[key] = out.get(key, 0) - c
            if m:
                key = (mono, e + 1)
                out[key] = out.get(key, 0) + m * c
        return self._wrap(_pruned(out))

    def __repr__(self) -> str:
        return f"DiffPolynomial({dict(sorted(self._terms.items()))})"
