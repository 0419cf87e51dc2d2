"""Core arithmetic on differential polynomials; a monomial is a sorted tuple."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klpoly import DiffPolynomial, LambdaPolynomial
from klpoly.serialize import poly_from_obj
from helpers import dp


def test_monomial_canonical_form():
    # the constructor and coefficient() sort the orders they are given
    p = dp({(3, 0, 1): {0: 2}})
    assert [m for m, _ in p.terms()] == [(0, 1, 3)]
    assert p == dp({(0, 1, 3): {0: 2}})
    assert p.coefficient((1, 3, 0)) == 2
    # orders naming the same monomial add up
    assert dp({(0, 2, 2): {1: 1}, (2, 0, 2): {1: 1}}) == dp({(0, 2, 2): {1: 2}})
    assert DiffPolynomial.u_power(0).terms() == [((), LambdaPolynomial.constant(1))]
    assert dp({(0, 2, 2): {0: 1}, (5,): {0: 1}}).min_degree() == 1


def test_monomial_rejects_negative_orders():
    with pytest.raises(ValueError):
        dp({(-1,): {0: 1}})
    with pytest.raises(ValueError):
        DiffPolynomial.u_power(1).coefficient((2, -1))
    with pytest.raises(ValueError):
        poly_from_obj([{"orders": [0, -1], "lambda_coeffs": [[0, "1"]]}])


def test_lambda_polynomial_prunes_zeros():
    p = LambdaPolynomial({0: 1, 2: 0})
    assert p.coeffs == {0: 1}
    assert (p - p).is_zero()


def test_lambda_polynomial_rejects_negative_exponents():
    with pytest.raises(ValueError):
        LambdaPolynomial({-1: 2})


def test_lambda_polynomial_arithmetic():
    lam = LambdaPolynomial.lam()
    assert (lam * lam).coeffs == {2: 1}
    assert (lam * 3 + LambdaPolynomial.constant(2)).coeffs == {0: 2, 1: 3}
    assert LambdaPolynomial.constant(5).constant_value() == 5
    with pytest.raises(ValueError):
        lam.constant_value()


def test_differentiate_power_rule():
    # u^3 -> 3 u^2 u'
    assert DiffPolynomial.u_power(3).differentiate() == dp({(0, 0, 1): {0: 3}})


def test_differentiate_constant():
    assert DiffPolynomial.u_power(0).differentiate().is_zero()


def test_differentiate_two_factor_product():
    # u·u'' -> u'·u'' + u·u'''
    p = dp({(0, 2): {0: 1}})
    assert p.differentiate() == dp({(1, 2): {0: 1}, (0, 3): {0: 1}})


def test_multiply_by_u():
    assert DiffPolynomial.u_power(0).multiply_by_u() == DiffPolynomial.u_power(1)
    assert dp({(1,): {0: 1}}).multiply_by_u() == dp({(0, 1): {0: 1}})
    p = dp({(2,): {0: 2}, (0,): {2: -2}})
    assert p.multiply_by_u() == dp({(0, 2): {0: 2}, (0, 0): {2: -2}})


def test_apply_factor_worked_example():
    # (d - u + λ) u = u' - u^2 + λu
    step1 = DiffPolynomial.u_power(1).apply_factor(1)
    assert step1 == dp({(1,): {0: 1}, (0, 0): {0: -1}, (0,): {1: 1}})
    # (d - u) of that = u'' - 3uu' + u^3 + λu' - λu^2
    step2 = step1.apply_factor(0)
    assert step2 == dp(
        {
            (2,): {0: 1},
            (0, 1): {0: -3},
            (0, 0, 0): {0: 1},
            (1,): {1: 1},
            (0, 0): {1: -1},
        }
    )


def test_apply_factor_on_zero():
    for m in range(4):
        assert DiffPolynomial.zero().apply_factor(m).is_zero()


def test_add_and_scale():
    u = DiffPolynomial.u_power(1)
    assert (u + (-u)).is_zero()
    assert dp({(2,): {0: 1}}).scale(2) == dp({(2,): {0: 2}})
    assert u.scale(LambdaPolynomial.lam(2, -2)) == dp({(0,): {2: -2}})


def test_canonicality_no_zero_terms():
    p = dp({(1,): {0: 3}, (0,): {1: 1}})
    diff = p - p
    assert diff.is_zero()
    assert diff.terms() == []


lambda_polys = st.dictionaries(
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=-5, max_value=5),
    max_size=2,
).map(LambdaPolynomial)

monomials = st.lists(
    st.integers(min_value=0, max_value=4), min_size=0, max_size=3
).map(tuple)

diff_polys = st.dictionaries(monomials, lambda_polys, max_size=4).map(DiffPolynomial)


@given(diff_polys)
@settings(max_examples=100)
def test_leibniz_rule(p):
    # d(u·p) = u'·p + u·dp, where u'-insertion adds a first-derivative factor
    lhs = p.multiply_by_u().differentiate()
    uprime_insert = DiffPolynomial({m + (1,): c for m, c in p.terms()})
    rhs = p.differentiate().multiply_by_u() + uprime_insert
    assert lhs == rhs


@given(
    diff_polys,
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=6),
)
@settings(max_examples=100)
def test_operator_factors_commute(p, a, b):
    assert p.apply_factor(a).apply_factor(b) == p.apply_factor(b).apply_factor(a)


@given(diff_polys, st.integers(min_value=0, max_value=6))
@settings(max_examples=100)
def test_apply_factor_never_decreases_min_degree(p, m):
    before = p.min_degree()
    after = p.apply_factor(m).min_degree()
    if before is not None and after is not None:
        assert after >= before
