"""Shared construction helpers and the numeric solution model of the test
suite."""

import cmath
from dataclasses import dataclass

from klpoly import DiffPolynomial, density, differential_word, enumerate_compositions


def dp(spec: dict[tuple[int, ...], dict[int, int]]) -> DiffPolynomial:
    """Build a DiffPolynomial from {orders: {lambda_exponent: coeff}}."""
    return DiffPolynomial(
        {(orders, e): c for orders, lam in spec.items() for e, c in lam.items()}
    )


def monomials(j: int, alpha: int) -> list[tuple[int, ...]]:
    """All degree-j, order-alpha differential monomials: partitions of
    alpha into at most j parts, zero-padded to length j, as sorted tuples."""

    out: list[tuple[int, ...]] = []

    def ascending(total: int, slots: int, minimum: int, acc: tuple[int, ...]):
        if slots == 0:
            if total == 0:
                out.append(acc)
            return
        for v in range(minimum, total + 1):
            ascending(total - v, slots - 1, v, acc + (v,))

    ascending(alpha, j, 0, ())
    return out


def weight(j: int, alpha: int, k: int) -> int:
    """Sum of densities over Z(j, alpha, k); k = 0 is an alias for k = 1,
    and the weight is 0 for negative alpha."""
    if j < 1:
        raise ValueError(f"j must be >= 1, got {j}")
    if not 0 <= k <= j:
        raise ValueError(f"k must satisfy 0 <= k <= j, got k={k}, j={j}")
    if alpha < 0:
        return 0
    return sum(density(beta) for beta in enumerate_compositions(j, alpha, max(k, 1)))


def product_rule_coefficient(beta: tuple[int, ...], pi: tuple[int, ...]) -> int:
    """Multiplicity of the monomial pi (derivative orders, in any order) in
    the differential word of beta."""
    return differential_word(beta)[pi]


def factor(p: DiffPolynomial, m: int) -> DiffPolynomial:
    """The paper's operator factor (∂ − u + mλ) applied to p: E = ∂ − u
    plus m·λ·p."""
    return p.apply_factor() + p.scale(m, lam=1)


def product(p: DiffPolynomial, q: DiffPolynomial) -> DiffPolynomial:
    """p·q, term by term: monomials multiply by joining their orders."""
    out: dict = {}
    for (m1, e1), c1 in p.items():
        for (m2, e2), c2 in q.items():
            key = (m1 + m2, e1 + e2)
            out[key] = out.get(key, 0) + c1 * c2
    return DiffPolynomial(out)


# Reference kernel: ∂ and (∂ − u + mλ) on flat maps {(monomial, λ-exponent):
# coefficient} of sorted tuple monomials, by the plain run-length rule, with
# explicit λ-exponents, no weight and no product-rule table; the tests hold
# diffalg's kernel to it through tuple_items.


def tuple_items(p: DiffPolynomial) -> dict:
    """p's flat map {(monomial, λ-exponent): coefficient}, each monomial the
    tuple of its orders: the form the reference kernel reads and writes."""
    return {(tuple(mono), e): c for (mono, e), c in p.items()}


def reference_differentiate(flat: dict) -> dict:
    """∂ termwise; the last t of each run of equal orders t is bumped to
    t + 1, with the run length as multiplicity.  Zeros are pruned."""
    out: dict = {}
    for (mono, e), c in flat.items():
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
    return {key: c for key, c in out.items() if c}


def reference_apply_factor(flat: dict, m: int) -> dict:
    """(∂ − u + mλ) termwise.  Zeros are pruned."""
    out = reference_differentiate(flat)
    for (mono, e), c in flat.items():
        key = ((0,) + mono, e)
        out[key] = out.get(key, 0) - c
        if m:
            key = (mono, e + 1)
            out[key] = out.get(key, 0) + m * c
    return {key: c for key, c in out.items() if c}


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
