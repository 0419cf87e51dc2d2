"""Construction of the polynomial family and its coefficient identities."""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from klpoly import (
    DiffPolynomial,
    LambdaPolynomial,
    c_alpha_formula,
    c_star,
    c_star_factorial_form,
    coefficient_closed_form,
    h_poly,
    kernel_exponents,
    kl_closed_form,
    kl_direct,
    kth_term,
    linear_factorization,
    linear_part,
    monomials,
)
from klpoly.serialize import poly_to_json
from helpers import dp

GOLDEN = Path(__file__).parent / "golden"


def test_kth_term_n3_k1():
    expected = dp(
        {
            (2,): {0: 3},
            (0, 1): {0: -9},
            (0, 0, 0): {0: 3},
            (1,): {1: 3},
            (0, 0): {1: -3},
        }
    )
    assert kth_term(3, 1) == expected


def test_kth_term_n3_k0():
    expected = dp(
        {
            (2,): {0: -1},
            (0, 1): {0: 3},
            (0, 0, 0): {0: -1},
            (1,): {1: -3},
            (0, 0): {1: 3},
            (0,): {2: -2},
        }
    )
    assert kth_term(3, 0) == expected


def test_kth_term_n3_k2():
    assert kth_term(3, 2) == dp({(0, 1): {0: 6}, (0, 0, 0): {0: -3}})


def test_kl_direct_small():
    assert kl_direct(1).poly.is_zero()
    assert kl_direct(2).poly == dp({(1,): {0: 1}, (0,): {1: -1}})
    assert kl_direct(3).poly == dp({(2,): {0: 2}, (0,): {2: -2}})


def test_monomials_enumeration():
    got = monomials(2, 3)
    assert got == [(0, 3), (1, 2)]
    assert len(monomials(4, 3)) == 3  # partitions of 3 into at most 4 parts


def test_coefficient_closed_form_values():
    assert coefficient_closed_form(3, 1, 2, (2,)) == 2
    assert coefficient_closed_form(3, 1, 0, (0,)) == -2
    assert coefficient_closed_form(3, 2, 1, (0, 1)) == 0


def test_closed_form_matches_direct():
    for n in range(1, 9):
        assert kl_closed_form(n).poly == kl_direct(n).poly


def test_lambda_grading():
    # every λ-exponent equals n - degree - order
    for n in range(1, 9):
        for mono, coeff in kl_direct(n).poly.terms():
            assert 1 <= len(mono) <= n
            assert 0 <= sum(mono) <= n - len(mono)
            expected = n - len(mono) - sum(mono)
            assert set(coeff.coeffs) == {expected}


def test_no_constant_terms():
    for n in range(1, 11):
        assert all(len(m) >= 1 for m, _ in kl_direct(n).poly.terms())


def test_c_star_vanishes():
    for n in range(1, 9):
        for j in range(1, n + 1):
            assert c_star(n, j) == 0
            assert c_star_factorial_form(n, j) == Fraction(0)


def test_c_star_from_direct_expansion():
    # redundancy check: summing surviving coefficients of the direct build
    # at fixed degree also gives zero
    for n in range(1, 9):
        sums = {}
        for mono, coeff in kl_direct(n).poly.terms():
            total = sum(c for _, c in coeff.items())
            sums[len(mono)] = sums.get(len(mono), 0) + total
        assert all(v == 0 for v in sums.values())


def test_linear_part_examples():
    assert linear_part(3).c == (-2, 0, 2)
    assert linear_part(2).c == (-1, 1)


def test_c_alpha_formula():
    assert c_alpha_formula(3, 2) == 2
    assert c_alpha_formula(3, 1) == 0
    for n in range(2, 13):
        assert c_alpha_formula(n, n - 1) == n - 1
        lp = linear_part(n)
        for alpha in range(n):
            assert lp.c[alpha] == c_alpha_formula(n, alpha)


def test_h_poly_examples():
    assert h_poly(3) == [2, 0, -2]
    assert h_poly(2) == [1, -1]


def test_h_poly_reverses_linear_coefficients():
    for n in range(2, 13):
        h = h_poly(n)
        lp = linear_part(n)
        assert len(h) == n
        assert h == [lp.c[n - 1 - alpha] for alpha in range(n)]


def test_h_poly_rational_roots():
    # roots are 1, -1, -1/2, ..., -1/(n-2)
    for n in range(3, 13):
        h = h_poly(n)
        for root in [Fraction(1)] + [Fraction(-1, a) for a in range(1, n - 1)]:
            assert sum(c * root**i for i, c in enumerate(h)) == 0


def test_linear_factorization_examples():
    assert linear_factorization(3) == dp({(2,): {0: 2}, (0,): {2: -2}})
    assert linear_factorization(2) == dp({(1,): {0: 1}, (0,): {1: -1}})


def test_linear_factorization_matches_linear_part():
    for n in range(2, 13):
        lp = linear_part(n)
        graded = DiffPolynomial(
            {
                (alpha,): LambdaPolynomial.lam(n - 1 - alpha, lp.c[alpha])
                for alpha in range(n)
            }
        )
        assert linear_factorization(n) == graded


def test_kernel_exponents():
    assert kernel_exponents(3) == [1, -1]
    assert kernel_exponents(2) == [1]
    assert kernel_exponents(6) == [1, -1, -2, -3, -4]
    for n in range(2, 13):
        roots = kernel_exponents(n)
        assert len(roots) == n - 1
        c = linear_part(n).c
        for z in roots:
            assert sum(coeff * z**alpha for alpha, coeff in enumerate(c)) == 0


def test_lambda_zero_collapse():
    # at λ = 0 only the coefficient of u^(n-1) survives, with value n-1
    for n in range(2, 13):
        lp = linear_part(n)
        assert lp.c[n - 1] == n - 1


def test_argument_validation():
    with pytest.raises(ValueError):
        kl_direct(0)
    with pytest.raises(ValueError):
        kth_term(3, 3)
    with pytest.raises(ValueError):
        linear_part(1)
    with pytest.raises(ValueError):
        c_star(3, 4)
    with pytest.raises(ValueError):
        coefficient_closed_form(3, 1, 1, (2,))


def test_direct_route_matches_golden_digests():
    # SHA-256 of poly_to_json(kl_direct(n).poly), frozen before the kernel
    # was shared by both routes: a kernel bug common to the direct and the
    # closed-form route would still change these bytes.
    golden = json.loads((GOLDEN / "direct_sha256.json").read_text())
    assert sorted(map(int, golden)) == list(range(1, 16))
    for n, digest in golden.items():
        text = poly_to_json(kl_direct(int(n)).poly)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, f"n={n}"
