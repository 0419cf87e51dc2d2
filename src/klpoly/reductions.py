"""Exact quotient reductions and root analysis of the linear part.

The vanishing identities are checked algebraically: substituting
u^(t) -> λ^(t − t mod m) u^(t mod m) turns a differential polynomial into
one in u, u', …, u^(m−1) alone, whose identical vanishing is equivalent to
vanishing on every solution of u^(m) = λ^m u, because the initial values
u(x0), …, u^(m−1)(x0) are free.

Every root verdict judges h(z) = Σ c[α] z^α for the row c it is given,
from z^0 up.  The thm5 suite's 110-digit cross-check evaluates h(ζ^r) in
exact integer fixed point: the m-th roots of unity are Gaussian integers
scaled by 2^_BITS, so the runtime needs nothing outside the standard library.
"""

from __future__ import annotations

from decimal import Context, Decimal
from functools import lru_cache
from math import ceil, cos, gcd, log2, pi, sin

from .diffalg import DiffPolynomial
from .expansion import kl_direct

# decimal digits of the thm5 cross-check, and the fixed-point bits that
# carry them with 64 guard bits
PRECISION = 110
_BITS = ceil(PRECISION * log2(10)) + 64
_ONE = 1 << _BITS
_CONTEXT = Context(prec=PRECISION)


def reduce_order(p: DiffPolynomial, m: int) -> DiffPolynomial:
    """Substitute u^(t) -> λ^(t − t mod m) u^(t mod m) throughout; the
    result is zero exactly when p vanishes on every solution of
    u^(m) = λ^m u.  Raises ValueError for m < 1."""
    if m < 1:
        raise ValueError(f"need m >= 1, got m={m}")
    # each factor's λ-power keeps the weight, so this only relabels monomials
    residue = bytes(t % m for t in range(256))
    out: dict = {}
    for mono, c in p._terms.items():
        key = bytes(sorted(mono.translate(residue)))
        out[key] = out.get(key, 0) + c
    return DiffPolynomial._wrap(out, p.weight)


# the paper's identities (i) and (ii), by the names perfbench traces
def reduce_first_order(p: DiffPolynomial) -> DiffPolynomial:
    return reduce_order(p, 1)


def reduce_second_order(p: DiffPolynomial) -> DiffPolynomial:
    return reduce_order(p, 2)


def _divmod_monic(a, b) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by the monic b over ℤ; coefficient
    sequences run from z^0 up."""
    rem = list(a)
    quot = [0] * max(len(a) - len(b) + 1, 0)
    for i in reversed(range(len(quot))):
        quot[i] = q = rem[i + len(b) - 1]
        for j, c in enumerate(b):
            rem[i + j] -= q * c
    return quot, rem[: len(b) - 1]


@lru_cache(maxsize=None)
def cyclotomic(d: int) -> tuple[int, ...]:
    """Φ_d from z^0 up: z^d − 1 divided exactly by Φ_e for every proper
    divisor e of d."""
    p = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            p = _divmod_monic(p, cyclotomic(e))[0]
    return tuple(p)


def thm5_verdict(c: tuple[int, ...], m: int) -> set[int]:
    """Rate indices r whose exponential e^(λ ζ^r x), ζ a primitive m-th root
    of unity, survives in the kernel of the linear operator with coefficient
    row c: h(ζ^r) = 0 for h(z) = Σ c[α] z^α.  ζ^r has order
    d = m / gcd(r, m), so that holds exactly when Φ_d divides h over ℤ."""
    if len(c) < 3 or m < 3:
        raise ValueError(f"need a row of length >= 3 and m >= 3, got length {len(c)}, m={m}")
    zero_orders = {
        d for d in range(1, m + 1) if m % d == 0 and not any(_divmod_monic(c, cyclotomic(d))[1])
    }
    return {r for r in range(m) if m // gcd(r, m) in zero_orders}


def kernel_exponents(c: tuple[int, ...]) -> list[int]:
    """The candidates z among 1, −1, −2, …, −(n−2), n = len(c), in that order,
    at which h(z) = Σ c[α] z^α vanishes: the multipliers z with e^(zλx) in the
    operator's kernel.  For the linear part of f_n all survive by theory."""
    return [
        z
        for z in [1, *range(-1, 1 - len(c), -1)]
        if not sum(coeff * z**alpha for alpha, coeff in enumerate(c))
    ]


@lru_cache(maxsize=32)
def _roots_of_unity(m: int) -> tuple[tuple[int, int], ...]:
    """ζ^k for k = 0..m−1, ζ = e^(2πi/m), as Gaussian integers (re, im)
    scaled by 2^_BITS; the cache holds every modulus of a `verify thm5`
    grid (m = 3..20)."""

    def mul(z, w):
        return (z[0] * w[0] - z[1] * w[1]) >> _BITS, (z[0] * w[1] + z[1] * w[0]) >> _BITS

    zeta = (round(cos(2 * pi / m) * _ONE), round(sin(2 * pi / m) * _ONE))
    # Newton on z^m = 1: z <- ((m−1)z + 1/w)/m, w = z^(m−1), 1/w = conj(w)/|w|^2;
    # each step doubles the correct bits from the float start's 53, so four
    # pass _BITS; the fifth is margin
    for _ in range(5):
        w = (_ONE, 0)
        for _ in range(m - 1):
            w = mul(w, zeta)
        norm = w[0] * w[0] + w[1] * w[1]
        inverse = ((w[0] << 2 * _BITS) // norm, (-w[1] << 2 * _BITS) // norm)
        zeta = (
            ((m - 1) * zeta[0] + inverse[0]) // m,
            ((m - 1) * zeta[1] + inverse[1]) // m,
        )
    roots = [(_ONE, 0)]
    for _ in range(m - 1):
        roots.append(mul(roots[-1], zeta))
    return tuple(roots)


def h_at_root_of_unity_numeric(c: tuple[int, ...], m: int, r: int) -> Decimal:
    """|h(ζ^r)| for h(z) = Σ c[α] z^α, to PRECISION digits, as a
    cross-check on the exact verdicts: two exact integer dot products of the
    coefficients with the real and imaginary parts of ζ^(rα mod m)."""
    roots = _roots_of_unity(m)
    x = y = 0
    for alpha, coeff in enumerate(c):
        re, im = roots[r * alpha % m]
        x += coeff * re
        y += coeff * im
    return _CONTEXT.divide(_CONTEXT.sqrt(Decimal(x * x + y * y)), Decimal(_ONE))


def lambda_zero_pattern(m: int, k: int) -> dict[int, int]:
    """The λ^0 degree-1 part of the built f_{k+1} as {t: coefficient of
    u^(t)}: weight k + 1 allows only u^(k), so this is {k: c}, {} when c = 0;
    by theory c = k, which forces u^(k) = 0.  m, the least order with
    u^(m) = 0, is not read; perfbench's tests call lambda_zero_pattern(1, 3)."""
    if k < 1:
        raise ValueError(f"need k >= 1, got k={k}")
    c = kl_direct(k + 1).poly[(k,)]
    return {k: c} if c else {}
