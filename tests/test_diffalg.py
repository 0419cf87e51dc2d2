"""Core arithmetic on differential polynomials; a monomial is a sorted tuple."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klpoly import DiffPolynomial, LambdaPolynomial
from klpoly.serialize import lambda_coeff_text, poly_from_obj, poly_to_text
from helpers import dp


def min_degree(p):
    """The least degree among p's monomials; None for the zero polynomial."""
    return min((len(mono) for (mono, _), _ in p.items()), default=None)


def test_monomial_canonical_form():
    # the constructor and the p[π, e] lookup sort the orders they are given
    p = DiffPolynomial({((3, 0, 1), 0): 2})
    assert [m for m, _ in p.terms()] == [(0, 1, 3)]
    assert p == dp({(0, 1, 3): {0: 2}})
    assert p[(1, 3, 0), 0] == 2
    assert p[(1, 3, 0), 1] == 0
    # orders naming the same monomial add up
    assert dp({(0, 2, 2): {1: 1}, (2, 0, 2): {1: 1}}) == dp({(0, 2, 2): {1: 2}})
    assert DiffPolynomial.u_power(0).terms() == [((), LambdaPolynomial({0: 1}))]
    assert min_degree(dp({(0, 2, 2): {0: 1}, (5,): {0: 1}})) == 1


def test_monomial_rejects_negative_orders():
    with pytest.raises(ValueError):
        dp({(-1,): {0: 1}})
    with pytest.raises(ValueError):
        DiffPolynomial.u_power(1)[(2, -1), 0]
    with pytest.raises(ValueError):
        poly_from_obj([{"orders": [0, -1], "lambda_coeffs": [[0, "1"]]}])


def test_lambda_polynomial_prunes_zeros():
    p = LambdaPolynomial({0: 1, 2: 0})
    assert p.items() == [(0, 1)]
    assert LambdaPolynomial({1: 0, 2: 0}).items() == []


def test_lambda_polynomial_rejects_negative_exponents():
    with pytest.raises(ValueError):
        LambdaPolynomial({-1: 2})


def test_poly_from_obj_rejects_negative_lambda_exponent():
    with pytest.raises(ValueError):
        DiffPolynomial({((0,), -1): 1})
    with pytest.raises(ValueError):
        poly_from_obj([{"orders": [0], "lambda_coeffs": [[-1, "1"]]}])
    with pytest.raises(ValueError):
        DiffPolynomial.u_power(1).scale(1, lam=-1)


def test_lambda_coefficients_through_the_flat_map():
    # λ-arithmetic is scaling by c·λ^e on the flat map; terms() views the result
    lam = DiffPolynomial.u_power(0).scale(1, lam=1)
    assert lam.scale(1, lam=1) == DiffPolynomial({((), 2): 1})
    p = lam.scale(3) + DiffPolynomial({((), 0): 2})
    assert p.terms() == [((), LambdaPolynomial({0: 2, 1: 3}))]
    assert p.terms()[0][1].items() == [(0, 2), (1, 3)]
    assert DiffPolynomial({((), 0): 5}).terms()[0][1].items() == [(0, 5)]
    # λ itself is no constant: its one term sits at exponent 1
    assert lam.terms()[0][1].items() == [(1, 1)]
    # text renders single λ-powers only; a mixed coefficient fails loudly
    with pytest.raises(ValueError):
        poly_to_text(p)


def test_lambda_coeff_text():
    # the even-n residuals of `verify identities` render this way
    assert lambda_coeff_text(LambdaPolynomial()) == "0"
    mixed = LambdaPolynomial({3: 7, 0: -2, 1: 1})
    assert lambda_coeff_text(mixed) == "-2 + 1·λ + 7·λ^3"


def test_differentiate_power_rule():
    # u^3 -> 3 u^2 u'
    assert DiffPolynomial.u_power(3).differentiate() == dp({(0, 0, 1): {0: 3}})


def test_differentiate_constant():
    assert not DiffPolynomial.u_power(0).differentiate()


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
        assert not DiffPolynomial().apply_factor(m)


def test_add_and_scale():
    u = DiffPolynomial.u_power(1)
    assert not u + u.scale(-1)
    assert dp({(2,): {0: 1}}).scale(2) == dp({(2,): {0: 2}})
    assert u.scale(-2, lam=2) == dp({(0,): {2: -2}})
    assert not u.scale(0, lam=3)


def test_canonicality_no_zero_terms():
    p = dp({(1,): {0: 3}, (0,): {1: 1}})
    diff = p + p.scale(-1)
    assert not diff
    assert diff.terms() == []


monomials = st.lists(
    st.integers(min_value=0, max_value=4), min_size=0, max_size=3
).map(tuple)

# flat maps {(orders, λ-exponent): coefficient}, zero coefficients included
diff_polys = st.dictionaries(
    st.tuples(monomials, st.integers(min_value=0, max_value=2)),
    st.integers(min_value=-5, max_value=5),
    max_size=8,
).map(DiffPolynomial)


@given(diff_polys)
@settings(max_examples=100)
def test_leibniz_rule(p):
    # d(u·p) = u'·p + u·dp, where u'-insertion adds a first-derivative factor
    lhs = p.multiply_by_u().differentiate()
    uprime_insert = DiffPolynomial({(m + (1,), e): c for (m, e), c in p.items()})
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
    before = min_degree(p)
    after = min_degree(p.apply_factor(m))
    if before is not None and after is not None:
        assert after >= before
