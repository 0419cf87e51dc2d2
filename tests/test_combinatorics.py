"""Compositions, words, densities, weights, product sums, convolution."""

from fractions import Fraction
from math import comb, factorial, prod

import pytest

from klpoly import (
    convolution,
    density,
    differential_word,
    enumerate_compositions,
    factorial_sum_check,
    generalized_binomial,
    sum_of_products,
    sum_of_products_enumerated,
    weight_closed_form,
)
from klpoly.reductions import reduce_first_order
from helpers import a_coefficients, dp, flat_terms, product_rule_coefficient, weight

TABLE_432 = {
    (0, 0, 0, 3): 64,
    (0, 0, 1, 2): 48,
    (0, 0, 2, 1): 36,
    (0, 0, 3, 0): 27,
    (0, 1, 1, 1): 24,
    (0, 1, 2, 0): 18,
    (0, 1, 0, 2): 32,
    (0, 2, 1, 0): 12,
    (0, 2, 0, 1): 16,
    (0, 3, 0, 0): 8,
}


def test_compositions_432():
    betas = enumerate_compositions(4, 3, 2)
    assert len(betas) == 10
    assert set(betas) == set(TABLE_432)
    assert betas == sorted(betas)  # lexicographic


def test_compositions_edge_cases():
    assert enumerate_compositions(2, 0, 1) == [(0, 0)]
    assert enumerate_compositions(3, -1, 2) == []
    assert enumerate_compositions(4, -5, 1) == []


def test_compositions_rejects_bad_k():
    with pytest.raises(ValueError):
        enumerate_compositions(3, 2, 0)
    with pytest.raises(ValueError):
        enumerate_compositions(3, 2, 4)


def recursive_compositions(j, alpha, k):
    """Reference enumeration: one nested generator per free slot."""
    if alpha < 0:
        return []

    def gen(slots, total):
        if slots == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in gen(slots - 1, total - first):
                yield (first,) + rest

    return [(0,) * (k - 1) + tail for tail in gen(j - k + 1, alpha)]


def test_compositions_match_the_recursive_enumeration():
    for j in range(1, 9):
        for k in range(1, j + 1):
            for alpha in range(-1, 9):
                expected = recursive_compositions(j, alpha, k)
                assert enumerate_compositions(j, alpha, k) == expected, (j, alpha, k)


def test_compositions_of_a_long_row():
    # 1500 free slots, more than Python's default recursion limit of 1000
    rows = enumerate_compositions(1500, 1, 1)
    assert len(rows) == 1500
    assert rows[0] == (0,) * 1499 + (1,)
    assert rows[-1] == (1,) + (0,) * 1499


def test_composition_count_stars_and_bars():
    for j in range(1, 7):
        for k in range(1, j + 1):
            for alpha in range(7):
                assert len(enumerate_compositions(j, alpha, k)) == comb(
                    alpha + j - k, j - k
                )


def test_differential_word_0111():
    # 8 u (u')^3 + 14 u^2 u' u'' + 2 u^3 u'''
    expected = dp(
        {
            (0, 1, 1, 1): {0: 8},
            (0, 0, 1, 2): {0: 14},
            (0, 0, 0, 3): {0: 2},
        }
    )
    assert differential_word((0, 1, 1, 1)) == expected


def test_differential_word_base_cases():
    assert differential_word((2,)) == dp({(2,): {0: 1}})
    assert differential_word((0, 0)) == dp({(0, 0): {0: 1}})


def test_differential_word_rejects_the_empty_composition():
    # () is its own prefix, so the recursion would never reach its base case
    with pytest.raises(ValueError, match="length >= 1"):
        differential_word(())


def test_differential_word_reuses_cached_prefix():
    differential_word.cache_clear()
    differential_word((0, 1, 1, 1))
    assert differential_word.cache_info().misses == 4  # one per prefix length
    hits = differential_word.cache_info().hits
    assert differential_word((0, 1, 1, 2)) == differential_word((0, 1, 1, 1)).differentiate()
    assert differential_word.cache_info().hits > hits


def test_product_rule_coefficients():
    beta = (0, 1, 1, 1)
    assert product_rule_coefficient(beta, (0, 1, 1, 1)) == 8
    assert product_rule_coefficient(beta, (0, 0, 1, 2)) == 14
    assert product_rule_coefficient(beta, (0, 0, 0, 3)) == 2
    assert product_rule_coefficient(beta, (0, 0, 3, 0)) == 2
    assert product_rule_coefficient(beta, (1, 1, 1, 0)) == 8
    assert product_rule_coefficient(beta, (3, 0, 0, 0)) == 2
    assert product_rule_coefficient((3,), (3,)) == 1
    # monomial not occurring in the word
    assert product_rule_coefficient((2, 0), (0, 2)) == 1
    assert product_rule_coefficient((2, 0), (1, 1)) == 0


def test_density_examples():
    assert density((0, 1, 1, 1)) == 24
    assert density((0, 0, 0, 3)) == 64
    assert density((0, 3, 0, 0)) == 8


def test_density_table_432():
    for beta, value in TABLE_432.items():
        assert density(beta) == value


def test_density_equals_coefficient_sum():
    for j in range(1, 6):
        for alpha in range(6):
            for beta in enumerate_compositions(j, alpha, 1):
                word = differential_word(beta)
                assert all(e == 0 for (_, e), _ in flat_terms(word))
                assert sum(c for _, c in flat_terms(word)) == density(beta)


def test_first_order_reduction_of_words():
    # substituting u^(t) -> λ^t u turns a word into density·λ^α·u^j
    for j in range(1, 6):
        for alpha in range(6):
            for beta in enumerate_compositions(j, alpha, 1):
                reduced = reduce_first_order(differential_word(beta))
                assert reduced == dp({(0,) * j: {alpha: density(beta)}})


def test_weight_examples():
    assert weight(4, 3, 2) == 285
    assert weight(4, 5, 2) == 6069
    assert weight(3, 2, 3) == 9
    assert weight(5, 4, 5) == 5**4
    assert weight(3, -1, 2) == 0
    assert weight(4, 3, 0) == weight(4, 3, 1)


def test_weight_A_coefficients():
    a4 = a_coefficients(4)
    assert a4 == [0, Fraction(-1, 6), 2, -3, 1]
    # W(j, α, k) is the complete homogeneous symmetric polynomial h_α(k, …, j),
    # whose divided-difference form gives A[m] = (−m)^(j−m)/(j−m)!, the
    # lemma weight_closed_form and c_star_factorial_form rest on
    for j in range(1, 31):
        a = a_coefficients(j)
        assert len(a) == j + 1 and a[0] == 0
        for m in range(1, j + 1):
            assert a[m] == Fraction((-m) ** (j - m), factorial(j - m)), (j, m)


def test_weight_closed_form_examples():
    # the exact Fraction, integral wherever the closed form is right
    assert weight_closed_form(4, 3, 2) == Fraction(285)
    assert weight_closed_form(4, 5, 2) == Fraction(6069)
    assert type(weight_closed_form(4, 3, 2)) is Fraction
    for j in range(1, 7):
        assert weight_closed_form(j, 0, j) == 1


def test_weight_agreement_grid():
    for j in range(1, 7):
        for k in range(1, j + 1):
            for alpha in range(7):
                assert weight(j, alpha, k) == weight_closed_form(j, alpha, k)


def test_sum_of_products_cases():
    assert sum_of_products(5, 0) == 1
    assert sum_of_products(3, 2) == 11
    assert sum_of_products(2, 3) == 0
    assert sum_of_products(3, -1) == 0
    # degenerate arguments used by the closed-form coefficient sum
    assert sum_of_products(-1, 0) == 1
    assert sum_of_products(0, 0) == 1
    assert sum_of_products(0, 1) == 0


def test_sum_of_products_recurrence_matches_enumeration():
    for n in range(1, 13):
        for alpha in range(n + 2):
            assert sum_of_products(n, alpha) == sum_of_products_enumerated(n, alpha)


def test_sum_of_products_deep_rows():
    # e_2(1..n) = n(n+1)(n-1)(3n+2)/24 and e_3(1..n) = C(n+1, 4) C(n+1, 2),
    # at depths a recursive row would not reach
    for n in (2, 3, 10, 100, 1500):
        assert sum_of_products(n, 2) == n * (n + 1) * (n - 1) * (3 * n + 2) // 24
    assert sum_of_products(1500, 3) == comb(1501, 4) * comb(1501, 2)


def test_product_sum_rows():
    # (1 + z) and (1 + z)(1 + 2z)(1 + 3z) = 1 + 6z + 11z^2 + 6z^3
    assert [sum_of_products(1, alpha) for alpha in range(2)] == [1, 1]
    assert [sum_of_products(3, alpha) for alpha in range(4)] == [1, 6, 11, 6]


def test_product_sum_rows_generate_the_product():
    # S(n, ·) holds the coefficients of (1 + z)···(1 + nz): two polynomials
    # of degree n that agree at the n + 1 points z = 0..n are equal
    for n in range(1, 21):
        row = [sum_of_products(n, alpha) for alpha in range(n + 1)]
        for z in range(n + 1):
            assert sum(s * z**alpha for alpha, s in enumerate(row)) == prod(
                1 + a * z for a in range(1, n + 1)
            ), (n, z)


def test_factorial_sum_examples():
    assert factorial_sum_check(1, 1) == (2, 2)
    assert factorial_sum_check(3, 1)[1] == 24
    assert factorial_sum_check(3, 3)[1] == 360


def test_factorial_sum_grid():
    for n in range(1, 16):
        for m in range(1, n + 1):
            lhs, rhs = factorial_sum_check(n, m)
            assert lhs == rhs


def test_generalized_binomial():
    assert generalized_binomial(-3, 2) == 6
    assert generalized_binomial(5, 0) == 1
    assert generalized_binomial(4, 2) == 6
    # negative-top reflection identity
    for n in range(1, 8):
        for q in range(8):
            assert generalized_binomial(-n, q) == (-1) ** q * comb(n + q - 1, q)
    # the literal falling product, q > top >= 0 (a zero factor) included
    for top in range(-25, 26):
        for q in range(26):
            literal = prod(top - i for i in range(q)) // factorial(q)
            assert generalized_binomial(top, q) == literal, (top, q)


def test_weight_closed_form_matches_the_fraction_product():
    # the reference multiplies m^(m−k)/(m−k)!, A[m] and m^α as Fractions,
    # with A[m] from the paper's recurrence
    for j in range(1, 9):
        a = a_coefficients(j)
        for k in range(1, j + 1):
            for alpha in range(9):
                total = sum(
                    Fraction(m ** (m - k), factorial(m - k)) * a[m] * m**alpha
                    for m in range(k, j + 1)
                )
                assert weight_closed_form(j, alpha, k) == total, (j, alpha, k)


def test_convolution():
    assert convolution(3, 2) == 0
    assert convolution(7, 5) == 0
    for n in range(1, 21):
        assert convolution(n, 0) == 1
        for m in range(1, 21):
            assert convolution(n, m) == 0
