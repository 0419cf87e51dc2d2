"""Core arithmetic on differential polynomials; a monomial is a sorted tuple."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klpoly import DiffPolynomial, LambdaPolynomial
from klpoly.diffalg import _derivative
from klpoly.serialize import lambda_coeff_text, poly_from_obj, poly_to_obj
from helpers import dp, reference_apply_factor, reference_differentiate
from helpers import monomials as monomials_at


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
    ((mono, coeff),) = DiffPolynomial.u_power(0).terms()
    assert (mono, coeff.exponent, coeff.value) == ((), 0, 1)
    assert min_degree(dp({(0, 2, 2): {0: 1}, (5,): {1: 1}})) == 1


def test_zero_polynomial_round_trips_through_json():
    assert poly_to_obj(DiffPolynomial()) == []
    assert poly_from_obj([]) == DiffPolynomial()


def test_monomial_rejects_negative_orders():
    with pytest.raises(ValueError):
        dp({(-1,): {0: 1}})
    with pytest.raises(ValueError):
        DiffPolynomial.u_power(1)[(2, -1), 0]
    with pytest.raises(ValueError):
        poly_from_obj([{"orders": [0, -1], "lambda_coeffs": [[0, "1"]]}])


def test_lambda_polynomial_is_one_pair():
    # a weight-homogeneous coefficient is one power: value·λ^exponent
    p = LambdaPolynomial(2, -5)
    assert (p.exponent, p.value) == (2, -5)
    assert LambdaPolynomial.__slots__ == ("exponent", "value")
    assert not hasattr(p, "__dict__")


def test_lambda_polynomial_rejects_negative_exponents():
    with pytest.raises(ValueError):
        LambdaPolynomial(-1, 2)


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

    def pairs(p):
        return [(mono, coeff.exponent, coeff.value) for mono, coeff in p.terms()]

    assert pairs(lam.scale(3)) == [((), 1, 3)]
    assert pairs(DiffPolynomial({((), 0): 5})) == [((), 0, 5)]
    # λ itself is no constant: its one term sits at exponent 1
    assert pairs(lam) == [((), 1, 1)]
    # a coefficient of two λ-powers mixes weights, so it cannot be built
    with pytest.raises(ValueError):
        lam.scale(3) + DiffPolynomial({((), 0): 2})


def test_lambda_coeff_text():
    # the even-n residuals of `verify identities` render this way
    assert lambda_coeff_text(LambdaPolynomial(0, -2)) == "-2"
    assert lambda_coeff_text(LambdaPolynomial(1, 3)) == "3·λ"
    assert lambda_coeff_text(LambdaPolynomial(3, 7)) == "7·λ^3"


def test_mixed_weights_cannot_be_built():
    # u (weight 1) beside λ·u (weight 2)
    with pytest.raises(ValueError):
        DiffPolynomial({((0,), 0): 1, ((0,), 1): 1})
    with pytest.raises(ValueError):
        DiffPolynomial.u_power(1) + DiffPolynomial.u_power(1).scale(1, lam=1)
    with pytest.raises(ValueError):
        poly_from_obj(
            [
                {"orders": [0], "lambda_coeffs": [[0, "1"]]},
                {"orders": [1], "lambda_coeffs": [[1, "1"]]},
            ]
        )
    # the check reads the terms left after pruning
    p = DiffPolynomial({((0,), 0): 1, ((0,), 1): 0, ((1, 0), 0): 2, ((0, 1), 0): -2})
    assert p == DiffPolynomial.u_power(1) and p.weight == 1


def test_zero_has_weight_zero():
    zero = DiffPolynomial()
    assert zero == DiffPolynomial.u_power(3).scale(0)
    assert zero == DiffPolynomial.u_power(2).scale(0, lam=3)
    assert zero.weight == DiffPolynomial.u_power(3).scale(0).weight == 0
    p = dp({(1,): {0: 3}, (0,): {1: 1}})
    assert zero + p == p + zero == p
    assert (p + p.scale(-1)).weight == 0
    # the same monomial map at two weights: two different polynomials
    assert DiffPolynomial.u_power(1) != DiffPolynomial.u_power(1).scale(1, lam=1)


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


def _within(orders: list[int], w: int) -> tuple[int, ...]:
    """The longest prefix of orders whose degree plus order is at most w."""
    while len(orders) + sum(orders) > w:
        orders = orders[:-1]
    return tuple(orders)


def polys_of_weight(w: int):
    """Polynomials of weight w, built from flat maps {(orders, λ-exponent):
    coefficient} with e = w − degree − order, zero coefficients included."""
    orders = st.lists(st.integers(min_value=0, max_value=4), max_size=3)
    return st.dictionaries(
        orders.map(lambda m: _within(m, w)), st.integers(min_value=-5, max_value=5), max_size=8
    ).map(lambda terms: DiffPolynomial({(m, w - len(m) - sum(m)): c for m, c in terms.items()}))


weights = st.integers(min_value=0, max_value=8)
diff_polys = weights.flatmap(polys_of_weight)


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


def test_derivative_table_matches_the_run_length_rule():
    # every monomial with degree + order ≤ 12
    for j in range(13):
        for alpha in range(13 - j):
            for mono in monomials_at(j, alpha):
                table = _derivative(mono)
                assert isinstance(table, tuple)
                assert all(type(pair) is tuple and type(pair[0]) is tuple for pair in table)
                expected = {d: c for (d, _), c in reference_differentiate({(mono, 0): 1}).items()}
                assert len(table) == len(expected) and dict(table) == expected, mono


# The kernel against the flat-map reference of tests/helpers.py.


@given(diff_polys)
@settings(max_examples=200)
def test_differentiate_matches_the_reference(p):
    assert dict(p.differentiate().items()) == reference_differentiate(dict(p.items()))


@given(diff_polys, st.integers(min_value=0, max_value=4))
@settings(max_examples=200)
def test_apply_factor_matches_the_reference(p, m):
    assert dict(p.apply_factor(m).items()) == reference_apply_factor(dict(p.items()), m)


@given(diff_polys)
@settings(max_examples=100)
def test_multiply_by_u_matches_the_reference(p):
    expected = {((0,) + mono, e): c for (mono, e), c in p.items()}
    assert dict(p.multiply_by_u().items()) == expected


@given(diff_polys, st.integers(min_value=-3, max_value=3), st.integers(min_value=0, max_value=2))
@settings(max_examples=100)
def test_scale_matches_the_reference(p, c, lam):
    expected = {(mono, e + lam): coeff * c for (mono, e), coeff in p.items() if c}
    assert dict(p.scale(c, lam).items()) == expected


@given(weights.flatmap(lambda w: st.tuples(polys_of_weight(w), polys_of_weight(w))))
@settings(max_examples=100)
def test_add_matches_the_reference(pair):
    p, q = pair
    for other in (q, p.scale(-1) + q):
        expected = dict(p.items())
        for key, c in other.items():
            expected[key] = expected.get(key, 0) + c
        expected = {key: c for key, c in expected.items() if c}
        assert dict((p + other).items()) == expected
