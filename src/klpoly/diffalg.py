"""Differential polynomials with integer coefficients in λ.

The central object is a finite sum of terms c·λ^e·u^(a1) u^(a2) ... u^(aj)
with arbitrary-precision integers c.  A monomial u^(a1)···u^(aj) is the
plain tuple of its derivative orders, sorted ascending: its length is the
degree, its sum the order, and () is the constant 1.  A polynomial is one
flat map (monomial, λ-exponent) -> integer with no zero value stored, so
equal polynomials have equal maps.  ``LambdaPolynomial`` is the public view
of the λ-coefficient of one monomial.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Union

Monomial = tuple[int, ...]


class LambdaPolynomial:
    """Polynomial in λ over the integers, stored as a sparse exponent map.

    Instances are immutable by convention; all arithmetic returns new
    objects.  Zero coefficients are pruned on construction.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        cleaned: dict[int, int] = {}
        for exp, c in dict(coeffs).items():
            if exp < 0:
                raise ValueError(f"negative λ exponent: {exp}")
            if c:
                cleaned[exp] = cleaned.get(exp, 0) + c
        self._coeffs = {e: c for e, c in cleaned.items() if c}

    @classmethod
    def constant(cls, c: int) -> "LambdaPolynomial":
        return cls({0: c})

    @classmethod
    def lam(cls, exponent: int = 1, coeff: int = 1) -> "LambdaPolynomial":
        return cls({exponent: coeff})

    @property
    def coeffs(self) -> dict[int, int]:
        return dict(self._coeffs)

    def items(self) -> list[tuple[int, int]]:
        """(exponent, coefficient) pairs sorted by exponent."""
        return sorted(self._coeffs.items())

    def is_zero(self) -> bool:
        return not self._coeffs

    def constant_value(self) -> int:
        """The value of a λ-free polynomial; raises if λ actually appears."""
        if not self._coeffs:
            return 0
        if set(self._coeffs) != {0}:
            raise ValueError(f"not a constant: {self!r}")
        return self._coeffs[0]

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = LambdaPolynomial.constant(other)
        if not isinstance(other, LambdaPolynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    def __add__(self, other: "LambdaPolynomial") -> "LambdaPolynomial":
        merged = dict(self._coeffs)
        for e, c in other._coeffs.items():
            merged[e] = merged.get(e, 0) + c
        return LambdaPolynomial(merged)

    def __neg__(self) -> "LambdaPolynomial":
        return LambdaPolynomial({e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other: "LambdaPolynomial") -> "LambdaPolynomial":
        return self + (-other)

    def __mul__(self, other: Union["LambdaPolynomial", int]) -> "LambdaPolynomial":
        if isinstance(other, int):
            return LambdaPolynomial({e: c * other for e, c in self._coeffs.items()})
        out: dict[int, int] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return LambdaPolynomial(out)

    __rmul__ = __mul__

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

    def __init__(self, terms: Mapping[Iterable[int], LambdaPolynomial] = ()):
        """Build from {orders: λ-coefficient}; the orders need not be
        sorted, and orders naming the same monomial add up."""
        flat: dict[tuple[Monomial, int], int] = {}
        for orders, coeff in dict(terms).items():
            mono = canonical_monomial(orders)
            for e, c in coeff._coeffs.items():
                flat[mono, e] = flat.get((mono, e), 0) + c
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

    def terms(self) -> list[tuple[Monomial, LambdaPolynomial]]:
        """(monomial, λ-coefficient) pairs sorted by (degree, order, orders)."""
        grouped: dict[Monomial, dict[int, int]] = {}
        for (mono, e), c in self._terms.items():
            grouped.setdefault(mono, {})[e] = c
        return [
            (mono, LambdaPolynomial(grouped[mono]))
            for mono in sorted(grouped, key=lambda m: (len(m), sum(m), m))
        ]

    def coefficient(self, orders: Iterable[int]) -> LambdaPolynomial:
        mono = canonical_monomial(orders)
        return LambdaPolynomial({e: c for (m, e), c in self._terms.items() if m == mono})

    def is_zero(self) -> bool:
        return not self._terms

    def min_degree(self) -> int | None:
        if not self._terms:
            return None
        return min(len(mono) for mono, _ in self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiffPolynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "DiffPolynomial") -> "DiffPolynomial":
        out = dict(self._terms)
        for key, c in other._terms.items():
            out[key] = out.get(key, 0) + c
        return self._wrap(_pruned(out))

    def __neg__(self) -> "DiffPolynomial":
        return self._wrap({key: -c for key, c in self._terms.items()})

    def __sub__(self, other: "DiffPolynomial") -> "DiffPolynomial":
        return self + (-other)

    def scale(self, c: Union[LambdaPolynomial, int]) -> "DiffPolynomial":
        factors = c._coeffs.items() if isinstance(c, LambdaPolynomial) else [(0, c)]
        out: dict[tuple[Monomial, int], int] = {}
        for (mono, e), coeff in self._terms.items():
            for e2, c2 in factors:
                key = (mono, e + e2)
                out[key] = out.get(key, 0) + coeff * c2
        return self._wrap(_pruned(out))

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
        return f"DiffPolynomial({dict(self.terms())})"
