"""Core arithmetic on differential polynomials; a monomial is the bytes of
its sorted orders."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klpoly import DiffPolynomial, LambdaPolynomial, kl_direct
from klpoly.diffalg import _derivative, canonical_monomial
from klpoly.serialize import lambda_coeff_text, poly_from_obj, poly_to_json, poly_to_obj
from helpers import dp, factor, flat_terms, tuple_items
from helpers import reference_apply_factor, reference_differentiate
from helpers import monomials as monomials_at


def min_degree(p):
    """The least degree among p's monomials; None for the zero polynomial."""
    return min((len(mono) for (mono, _), _ in flat_terms(p)), default=None)


def from_pairs(terms):
    """The constructor fed a generator of pairs, each term's orders a list."""
    return DiffPolynomial(((list(orders), e), c) for (orders, e), c in terms)


def from_obj(terms):
    """poly_from_obj on the JSON object tree of the same pairs."""
    return poly_from_obj(
        [{"orders": list(orders), "lambda_coeffs": [[e, str(c)]]} for (orders, e), c in terms]
    )


# the two ways outside terms get in, each given ((orders, λ-exponent), c) pairs
ways_in = pytest.mark.parametrize("build", [from_pairs, from_obj], ids=["pairs", "obj"])


def test_monomial_canonical_form():
    # the constructor and the p[π] lookup sort the orders they are given
    p = DiffPolynomial({((3, 0, 1), 0): 2})
    assert [m for m, _ in p.terms()] == [bytes((0, 1, 3))]
    assert p == dp({(0, 1, 3): {0: 2}})
    assert p[(1, 3, 0)] == 2
    # orders naming the same monomial add up
    assert dp({(0, 2, 2): {1: 1}, (2, 0, 2): {1: 1}}) == dp({(0, 2, 2): {1: 2}})
    ((mono, coeff),) = DiffPolynomial.u_power(0).terms()
    assert (mono, coeff.exponent, coeff.value) == (b"", 0, 1)
    assert min_degree(dp({(0, 2, 2): {0: 1}, (5,): {1: 1}})) == 1


def test_zero_polynomial_round_trips_through_json():
    assert poly_to_obj(DiffPolynomial()) == []
    assert poly_from_obj([]) == DiffPolynomial()


def test_monomial_rejects_negative_orders():
    with pytest.raises(ValueError):
        dp({(-1,): {0: 1}})
    with pytest.raises(ValueError):
        DiffPolynomial.u_power(1)[(2, -1)]
    with pytest.raises(ValueError):
        poly_from_obj([{"orders": [0, -1], "lambda_coeffs": [[0, "1"]]}])


@ways_in
@pytest.mark.parametrize(
    "orders", [(-1,), (2, 256), (0, 300, 1), (True,), (0.5,), ("1",), ("1", 0)]
)
def test_orders_outside_a_byte_are_rejected(orders, build):
    # one byte per order: every way in names the range, and an order that
    # is not an int, a bool included, lies outside it
    with pytest.raises(ValueError, match="outside 0..255"):
        canonical_monomial(orders)
    with pytest.raises(ValueError, match="outside 0..255"):
        build([((orders, 0), 1)])
    with pytest.raises(ValueError, match="outside 0..255"):
        DiffPolynomial.u_power(1)[orders]


def test_orders_at_the_ends_of_a_byte_are_kept():
    assert canonical_monomial((255, 0, 7)) == bytes((0, 7, 255))
    p = DiffPolynomial({((255, 0), 0): 3})
    assert p[(0, 255)] == 3 and p.weight == 257
    assert list(next(iter(p.terms()))[0]) == [0, 255]
    # ∂ would take the 255 to 256: it raises, it does not wrap to 0
    with pytest.raises(ValueError):
        p.differentiate()


@ways_in
def test_poly_from_obj_adds_duplicates_and_drops_zero_sums(build):
    # one term two or three times, its orders in any order: the coefficients add up
    p = build([(((1, 0), 0), 2), (((0, 1), 0), 3)])
    assert p == dp({(0, 1): {0: 5}})
    assert build([(((0, 1), 0), 2)] * 3) == dp({(0, 1): {0: 6}})
    assert [type(m) for (m, _), _ in flat_terms(p)] == [bytes]
    # a zero sum is dropped, and a zero sum at another weight is no mixed weight
    p = build(
        [(((2,), 0), 1), (((0, 1), 0), 4), (((1, 0), 0), -4)]
        + [(((0,), 1), 7), (((0,), 1), -7)]
    )
    assert p == dp({(2,): {0: 1}}) and p.weight == 3
    assert build([(((0,), 1), 7), (((0,), 1), -7)]) == DiffPolynomial()


def test_lambda_polynomial_is_one_pair():
    # a weight-homogeneous coefficient is one power: value·λ^exponent
    p = LambdaPolynomial(2, -5)
    assert (p.exponent, p.value) == (2, -5)
    assert LambdaPolynomial.__slots__ == ("exponent", "value")
    assert not hasattr(p, "__dict__")


def test_lambda_polynomial_rejects_negative_exponents():
    with pytest.raises(ValueError):
        LambdaPolynomial(-1, 2)


@ways_in
def test_poly_from_obj_rejects_negative_lambda_exponent(build):
    with pytest.raises(ValueError, match="negative"):
        build([(((0,), -1), 1)])
    with pytest.raises(ValueError, match="negative"):
        DiffPolynomial.u_power(1).scale(1, lam=-1)


@pytest.mark.parametrize("e", [0.5, True])
def test_constructor_rejects_non_integer_lambda_exponents(e):
    # u at λ^0.5 would have weight 1.5; True would pass as weight 2
    with pytest.raises(ValueError, match="non-integer"):
        DiffPolynomial({((0,), e): 1})
    with pytest.raises(ValueError, match="non-integer"):
        poly_from_obj([{"orders": [0], "lambda_coeffs": [[e, "1"]]}])


@pytest.mark.parametrize("c", [1.5, 2.0, Fraction(1, 2), True])
def test_constructor_rejects_non_integer_coefficients(c):
    with pytest.raises(ValueError, match="non-integer"):
        DiffPolynomial({((0,), 0): c})
    with pytest.raises(ValueError, match="non-integer"):
        DiffPolynomial([(([0], 0), c)])


@pytest.mark.parametrize("c", [1.7, 2, None])
def test_poly_from_obj_rejects_non_string_coefficients(c):
    # a JSON number would be truncated by int(): 1.7 is no coefficient 1
    with pytest.raises(ValueError, match="decimal string"):
        poly_from_obj([{"orders": [0], "lambda_coeffs": [[0, c]]}])
    with pytest.raises(ValueError):
        poly_from_obj([{"orders": [0], "lambda_coeffs": [[0, "1.7"]]}])


@pytest.mark.parametrize("c", ["1_000", " +7 ", "٣", "-", "", "--1"])
def test_poly_from_obj_takes_only_the_writers_decimal_form(c):
    # int() reads the first three as 1000, 7 and 3; the writer prints none of them
    with pytest.raises(ValueError, match="decimal string"):
        poly_from_obj([{"orders": [0], "lambda_coeffs": [[0, c]]}])


@pytest.mark.parametrize(
    "term",
    [
        {"orders": [0]},
        {"orders": 5, "lambda_coeffs": [[1, "1"]]},
        {"lambda_coeffs": [[1, "1"]]},
        "u",
    ],
)
def test_poly_from_obj_rejects_a_malformed_term(term):
    # outside data raises ValueError alone, never the KeyError or TypeError
    # of the lookup that found it malformed
    with pytest.raises(ValueError, match="malformed term") as exc:
        poly_from_obj([{"orders": [0], "lambda_coeffs": [[1, "1"]]}, term])
    assert isinstance(exc.value.__cause__, (KeyError, TypeError))


@pytest.mark.parametrize(("c", "lam"), [(0.5, 0), (2.0, 0), (1, 0.5), (True, 0), (1, True)])
def test_scale_rejects_non_integers(c, lam):
    with pytest.raises(ValueError, match="non-integer"):
        DiffPolynomial.u_power(1).scale(c, lam)


def test_lambda_coefficients_through_the_flat_map():
    # λ-arithmetic is scaling by c·λ^e on the flat map; terms() views the result
    lam = DiffPolynomial.u_power(0).scale(1, lam=1)
    assert lam.scale(1, lam=1) == DiffPolynomial({((), 2): 1})

    def pairs(p):
        return [(mono, coeff.exponent, coeff.value) for mono, coeff in p.terms()]

    assert pairs(lam.scale(3)) == [(b"", 1, 3)]
    assert pairs(DiffPolynomial({((), 0): 5})) == [(b"", 0, 5)]
    # λ itself is no constant: its one term sits at exponent 1
    assert pairs(lam) == [(b"", 1, 1)]
    # a coefficient of two λ-powers mixes weights, so it cannot be built
    with pytest.raises(ValueError):
        lam.scale(3) + DiffPolynomial({((), 0): 2})
    # terms() is the one view that names λ-powers
    assert not hasattr(DiffPolynomial, "items")


def test_lambda_coeff_text():
    # the even-n residuals of `verify identities` render this way
    assert lambda_coeff_text(LambdaPolynomial(0, -2)) == "-2"
    assert lambda_coeff_text(LambdaPolynomial(1, 3)) == "3·λ"
    assert lambda_coeff_text(LambdaPolynomial(3, 7)) == "7·λ^3"


@ways_in
def test_mixed_weights_cannot_be_built(build):
    # u (weight 1) beside λ·u (weight 2), and u beside λ·u' (weight 3)
    with pytest.raises(ValueError, match="mixed weights"):
        build([(((0,), 0), 1), (((0,), 1), 1)])
    with pytest.raises(ValueError, match="mixed weights"):
        build([(((0,), 0), 1), (((1,), 1), 1)])
    with pytest.raises(ValueError, match="weights"):
        DiffPolynomial.u_power(1) + DiffPolynomial.u_power(1).scale(1, lam=1)
    # the check reads the terms left after pruning
    p = build([(((0,), 0), 1), (((0,), 1), 0), (((1, 0), 0), 2), (((0, 1), 0), -2)])
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


def test_repr_round_trips():
    # weight 4 at λ-powers 0, 1, 3 and 4
    mixed = dp({(0, 0, 1): {0: -3}, (2,): {1: 5}, (0,): {3: 7}, (): {4: 1}})
    for p in (DiffPolynomial(), mixed, kl_direct(6).poly):
        assert eval(repr(p), {"DiffPolynomial": DiffPolynomial}) == p
    assert repr(DiffPolynomial()) == "DiffPolynomial({})"


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


def test_lookup_reads_a_coefficient_at_any_lambda_power():
    # the weight fixes each term's λ-power, so the monomial alone names it
    p = dp({(2,): {0: 5}, (0, 1): {0: -3}, (0,): {2: 7}, (): {3: -1}})
    assert (p[(2,)], p[(1, 0)], p[(0,)], p[()]) == (5, -3, 7, -1)
    # an absent monomial reads 0, at this weight or any other
    assert p[(1,)] == p[(0, 0)] == p[(4, 4)] == 0
    assert DiffPolynomial()[(0,)] == 0


def test_apply_factor_worked_example():
    # (d - u + λ) u = u' - u^2 + λu
    step1 = factor(DiffPolynomial.u_power(1), 1)
    assert step1 == dp({(1,): {0: 1}, (0, 0): {0: -1}, (0,): {1: 1}})
    # (d - u) of that = u'' - 3uu' + u^3 + λu' - λu^2
    step2 = factor(step1, 0)
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
    assert not DiffPolynomial().apply_factor()
    for m in range(4):
        assert not factor(DiffPolynomial(), m)


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
    uprime_insert = DiffPolynomial({(tuple(m) + (1,), e): c for (m, e), c in flat_terms(p)})
    rhs = p.differentiate().multiply_by_u() + uprime_insert
    assert lhs == rhs


@given(
    diff_polys,
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=6),
)
@settings(max_examples=100)
def test_operator_factors_commute(p, a, b):
    assert factor(factor(p, a), b) == factor(factor(p, b), a)


@given(diff_polys, st.integers(min_value=0, max_value=6))
@settings(max_examples=100)
def test_apply_factor_never_decreases_min_degree(p, m):
    before = min_degree(p)
    after = min_degree(factor(p, m))
    if before is not None and after is not None:
        assert after >= before


def test_derivative_table_matches_the_run_length_rule():
    # every monomial with degree + order ≤ 12
    for j in range(13):
        for alpha in range(13 - j):
            for mono in monomials_at(j, alpha):
                table = _derivative(bytes(mono))
                assert isinstance(table, tuple)
                assert all(type(pair) is tuple and type(pair[0]) is bytes for pair in table)
                expected = {d: c for (d, _), c in reference_differentiate({(mono, 0): 1}).items()}
                got = {tuple(d): c for d, c in table}
                assert len(table) == len(expected) and got == expected, mono


@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=255), max_size=3),
        max_size=8,
    )
)
@settings(max_examples=100)
def test_terms_keep_the_order_of_tuple_keys(orders):
    # bytes compare as the tuples of their orders would, over the whole byte
    p = DiffPolynomial({(tuple(o), 3 * 256 - len(o) - sum(o)): 1 for o in orders})
    keys = [mono for mono, _ in p.terms()]
    assert all(type(mono) is bytes for mono in keys)
    as_tuples = sorted({tuple(sorted(o)) for o in orders}, key=lambda m: (len(m), sum(m), m))
    assert [tuple(mono) for mono in keys] == as_tuples


# The kernel against the flat-map reference of tests/helpers.py.


@given(diff_polys)
@settings(max_examples=200)
def test_differentiate_matches_the_reference(p):
    assert tuple_items(p.differentiate()) == reference_differentiate(tuple_items(p))


@given(diff_polys, st.integers(min_value=0, max_value=4))
@settings(max_examples=200)
def test_apply_factor_matches_the_reference(p, m):
    assert tuple_items(factor(p, m)) == reference_apply_factor(tuple_items(p), m)


@given(diff_polys)
@settings(max_examples=100)
def test_multiply_by_u_matches_the_reference(p):
    expected = {((0,) + mono, e): c for (mono, e), c in tuple_items(p).items()}
    assert tuple_items(p.multiply_by_u()) == expected


@given(diff_polys, st.integers(min_value=-3, max_value=3), st.integers(min_value=0, max_value=2))
@settings(max_examples=100)
def test_scale_matches_the_reference(p, c, lam):
    expected = {(mono, e + lam): coeff * c for (mono, e), coeff in flat_terms(p) if c}
    assert dict(flat_terms(p.scale(c, lam))) == expected


@given(weights.flatmap(lambda w: st.tuples(polys_of_weight(w), polys_of_weight(w))))
@settings(max_examples=100)
def test_add_matches_the_reference(pair):
    p, q = pair
    for other in (q, p.scale(-1) + q):
        expected = dict(flat_terms(p))
        for key, c in flat_terms(other):
            expected[key] = expected.get(key, 0) + c
        expected = {key: c for key, c in expected.items() if c}
        assert dict(flat_terms(p + other)) == expected


@given(diff_polys)
@settings(max_examples=100)
def test_json_round_trip(p):
    assert poly_from_obj(poly_to_obj(p)) == p
    assert poly_from_obj(json.loads(poly_to_json(p))) == p
