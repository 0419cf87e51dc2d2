"""Construction of the polynomial family and its coefficient identities."""

import hashlib
import json
from fractions import Fraction
from itertools import permutations
from math import comb, factorial
from pathlib import Path

import pytest

from klpoly import (
    DiffPolynomial,
    c_alpha_formula,
    c_star,
    c_star_factorial_form,
    coefficient_closed_form,
    differential_word,
    enumerate_compositions,
    h_poly,
    kernel_exponents,
    kl_closed_form,
    kl_direct,
    kth_term,
    linear_factorization,
    linear_part,
    weight_closed_form,
)
from klpoly import expansion
from klpoly.expansion import _p_sum_totals, _p_sums
from klpoly.serialize import poly_to_json, poly_to_obj
from helpers import a_coefficients, dp, factor, flat_terms, monomials, product

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def comb_without_cancellation(monkeypatch):
    """C(n, k) replaced by 10^k + 1 inside expansion, so that no alternating
    sum over k cancels.  The weight cache is emptied once the patch is in
    and again once it is undone, so no test reads weights made under the
    other comb."""
    monkeypatch.setattr(expansion, "comb", lambda n, k: 10**k + 1)
    expansion._alternating_weights.cache_clear()
    yield
    monkeypatch.undo()
    expansion._alternating_weights.cache_clear()


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


def test_kth_term_matches_the_operator_chain():
    # the definition: C(n,k)·D_0(D_1(…D_{n−k−1}(u^k))), D_m = ∂ − u + mλ,
    # one factor at a time on the λ-graded partial product
    for n in range(1, 15):
        for k in range(n):
            p = DiffPolynomial.u_power(k)
            for m in range(n - k - 1, -1, -1):
                p = factor(p, m)
            assert kth_term(n, k) == p.scale(comb(n, k)), (n, k)


def test_first_two_summands_are_the_linear_factorization_chain():
    # E(1) = −u, so E^a(1) = −E^(a−1)(u), and the k = 0 and k = 1 summands
    # combine to (n−1)(E − λ)·∏_{a=1..n−2}(E + aλ)·u (proof in the README)
    of_one, minus_of_u = DiffPolynomial.u_power(0), DiffPolynomial.u_power(1).scale(-1)
    for a in range(1, 14):
        of_one = of_one.apply_factor()
        assert of_one == minus_of_u, a
        minus_of_u = minus_of_u.apply_factor()
    for n in range(2, 15):
        p = DiffPolynomial.u_power(1)
        for a in range(1, n - 1):
            p = factor(p, a)
        expected = factor(p, -1).scale(n - 1)
        assert kth_term(n, 0) + kth_term(n, 1) == expected, n


def test_kl_direct_small():
    assert not kl_direct(1).poly
    assert kl_direct(2).poly == dp({(1,): {0: 1}, (0,): {1: -1}})
    assert kl_direct(3).poly == dp({(2,): {0: 2}, (0,): {2: -2}})


def test_monomials_enumeration():
    got = monomials(2, 3)
    assert got == [(0, 3), (1, 2)]
    assert len(monomials(4, 3)) == 3  # partitions of 3 into at most 4 parts


def test_coefficient_closed_form_values():
    assert coefficient_closed_form(3, (2,)) == 2
    assert coefficient_closed_form(3, (0,)) == -2
    assert coefficient_closed_form(3, (0, 1)) == 0


def test_coefficient_closed_form_reads_the_orders_in_any_order():
    for pi in [(0, 1, 2), (0, 1, 3), (0, 0, 1, 2), (1, 2, 3)]:
        expected = kl_direct(9).poly[pi]
        assert expected != 0
        for p in permutations(pi):
            assert coefficient_closed_form(9, p) == expected, p


def test_closed_form_assembly_misses_no_monomial(comb_without_cancellation):
    # kl_closed_form visits only the monomials of S_1(j, α); the reference
    # visits the whole (j, α, π) grid.  With weights that cannot
    # cancel, a monomial the assembly skipped shows as a missing term
    grid = nonzero = 0
    for n in range(1, 13):
        expected = {
            (pi, n - j - alpha): coefficient_closed_form(n, pi)
            for j in range(1, n + 1)
            for alpha in range(n - j + 1)
            for pi in monomials(j, alpha)
        }
        grid += len(expected)
        nonzero += sum(1 for c in expected.values() if c)
        assert kl_closed_form(n).poly == DiffPolynomial(expected), n
    assert (grid, nonzero) == (877, 875)


def test_closed_form_matches_direct():
    for n in range(1, 9):
        assert kl_closed_form(n).poly == kl_direct(n).poly


def test_closed_form_matches_direct_to_16():
    for n in range(1, 17):
        assert kl_closed_form(n).poly == kl_direct(n).poly, f"n={n}"


def test_p_sums_recurrence_matches_enumeration():
    # the small-size oracle of the S_k recurrence: the plain sum of the
    # words over the enumerated family
    for j in range(1, 7):
        for k in range(1, j + 1):
            for alpha in range(7):
                words = [differential_word(b) for b in enumerate_compositions(j, alpha, k)]
                expected = sum(words, DiffPolynomial())
                assert _p_sums(j, alpha, k) == expected, (j, alpha, k)


def test_p_sums_supports_lie_in_the_first_family():
    # kl_closed_form assembles over the keys of S_1(j, α): they are every
    # monomial at (j, α), and the keys of each S_k(j, α) are among them
    for j in range(1, 25):
        for alpha in range(25 - j):
            first = {key for key, _ in flat_terms(_p_sums(j, alpha, 1))}
            assert first == {(bytes(pi), 0) for pi in monomials(j, alpha)}, (j, alpha)
            for k in range(2, j + 1):
                assert {key for key, _ in flat_terms(_p_sums(j, alpha, k))} <= first, (j, alpha, k)


def test_p_sum_totals_are_the_family_weights():
    # c_star rests on this: each word's coefficients sum to its density, so
    # the coefficient total of S_k(j, α) is the weight W(j, α, k), far past
    # the grid the weights suite enumerates; the integer recurrence c_star
    # reads gives the same totals without building S_k(j, α)
    for j in range(1, 25):
        for k in range(1, j + 1):
            row = _p_sum_totals(j, k, 24 - j)
            assert len(row) == 25 - j, (j, k)
            for alpha, total in enumerate(row):
                assert total == sum(_p_sums(j, alpha, k)._terms.values()), (j, alpha, k)
                assert total == weight_closed_form(j, alpha, k), (j, alpha, k)


def test_both_routes_key_every_monomial_as_bytes():
    for n in range(1, 15):
        for poly in (kl_direct(n).poly, kl_closed_form(n).poly):
            assert all(type(mono) is bytes for (mono, _), _ in flat_terms(poly)), n


def test_closed_form_route_never_applies_an_operator_factor(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the closed-form route reached the operator route")

    for cached in (kl_direct, _p_sums, differential_word):
        cached.cache_clear()
    with monkeypatch.context() as patched:
        patched.setattr(DiffPolynomial, "apply_factor", forbidden)
        patched.setattr(expansion, "kl_direct", forbidden)
        closed = kl_closed_form(8).poly
    assert closed == kl_direct(8).poly


def test_c_star_builds_no_polynomial(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("c_star built a polynomial")

    with monkeypatch.context() as patched:
        for name in ("_p_sums", "differential_word", "enumerate_compositions"):
            patched.setattr(expansion, name, forbidden)
        for name in ("differentiate", "multiply_by_u", "__add__"):
            patched.setattr(DiffPolynomial, name, forbidden)
        for n in range(1, 41):
            assert all(c_star(n, j) == 0 for j in range(1, n + 1)), n


def test_direct_route_never_reaches_the_closed_form(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the direct route reached the closed-form route")

    for cached in (kl_direct, _p_sums, differential_word):
        cached.cache_clear()
    names = (
        "sum_of_products",
        "differential_word",
        "enumerate_compositions",
        "_p_sums",
    )
    with monkeypatch.context() as patched:
        for name in names:
            patched.setattr(expansion, name, forbidden)
        text = poly_to_json(kl_direct(12).poly)
    golden = json.loads((GOLDEN / "direct_sha256.json").read_text())
    assert hashlib.sha256(text.encode()).hexdigest() == golden["12"]


def test_lambda_grading():
    # every λ-exponent equals n - degree - order
    for n in range(1, 9):
        for mono, coeff in kl_direct(n).poly.terms():
            assert 1 <= len(mono) <= n
            assert 0 <= sum(mono) <= n - len(mono)
            assert coeff.exponent == n - len(mono) - sum(mono)


def test_no_constant_terms():
    for n in range(1, 11):
        assert all(len(m) >= 1 for m, _ in kl_direct(n).poly.terms())


def test_c_star_vanishes():
    for n in range(1, 9):
        for j in range(1, n + 1):
            assert c_star(n, j) == 0
            assert c_star_factorial_form(n, j) == Fraction(0)


def test_c_star_factorial_form_matches_the_fraction_product(comb_without_cancellation):
    # for each m the alternating sum over k of C(n, k)·(n−k+m−1)!/(m−k)!
    # cancels, so weights 10^k + 1 in place of C(n, k) make every term
    # count; the reference takes one Fraction per factor, with A[m] from the
    # paper's recurrence
    for j in range(1, 9):
        a = a_coefficients(j)
        for n in range(j, 15):
            total = Fraction(0)
            for k in range(j + 1):
                inner = Fraction(0)
                for m in range(max(k, 1), j + 1):
                    inner += (
                        Fraction(m) ** (m - j)
                        * Fraction(1, factorial(m - k))
                        * a[m]
                        * Fraction(factorial(n - k + m - 1), factorial(m - 1))
                    )
                total += (-1) ** (j - k) * (10**k + 1) * inner
            assert total != 0
            assert c_star_factorial_form(n, j) == total, (n, j)


def test_c_star_matches_the_sum_over_every_monomial(comb_without_cancellation):
    # c* reads the coefficient totals of S_k(j, α); the reference sums the
    # closed form coefficient by coefficient.  c* itself is always 0, so
    # weights 10^k + 1 in place of C(n, k) make every term count
    for n in range(1, 13):
        for j in range(1, n + 1):
            total = sum(
                coefficient_closed_form(n, pi)
                for alpha in range(n - j + 1)
                for pi in monomials(j, alpha)
            )
            assert total != 0
            assert c_star(n, j) == total, (n, j)


def test_c_star_from_direct_expansion():
    # redundancy check: summing surviving coefficients of the direct build
    # at fixed degree also gives zero
    for n in range(1, 9):
        sums = {}
        for mono, coeff in kl_direct(n).poly.terms():
            sums[len(mono)] = sums.get(len(mono), 0) + coeff.value
        assert all(v == 0 for v in sums.values())


def test_linear_part_examples():
    assert linear_part(3) == (-2, 0, 2)
    assert linear_part(2) == (-1, 1)


def test_c_alpha_formula():
    assert c_alpha_formula(3, 2) == 2
    assert c_alpha_formula(3, 1) == 0
    for n in range(2, 13):
        assert c_alpha_formula(n, n - 1) == n - 1
        c = linear_part(n)
        for alpha in range(n):
            assert c[alpha] == c_alpha_formula(n, alpha)


def test_h_poly_examples():
    assert h_poly(3) == [2, 0, -2]
    assert h_poly(2) == [1, -1]


def test_h_poly_reverses_linear_coefficients():
    for n in range(2, 13):
        h = h_poly(n)
        c = linear_part(n)
        assert len(h) == n
        assert h == [c[n - 1 - alpha] for alpha in range(n)]


def test_h_poly_is_the_reversed_c_alpha_row():
    # h_poly's (n−1)(1 − z)·S(n−2, ·) against c_alpha_formula's
    # n·S(n−2, ·) − S(n−1, ·), equal by the recurrence of the S rows
    for n in range(2, 201):
        assert h_poly(n) == [c_alpha_formula(n, n - 1 - a) for a in range(n)], n


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
        c = linear_part(n)
        graded = DiffPolynomial(
            {((alpha,), n - 1 - alpha): c[alpha] for alpha in range(n)}
        )
        assert linear_factorization(n) == graded


def test_kernel_exponents():
    assert kernel_exponents(linear_part(3)) == [1, -1]
    assert kernel_exponents(linear_part(2)) == [1]
    assert kernel_exponents(linear_part(6)) == [1, -1, -2, -3, -4]
    for n in range(2, 13):
        # every candidate survives the built part's h(z) = Σ c[α] z^α
        c = linear_part(n)
        candidates = [1] + [-a for a in range(1, n - 1)]
        assert [z for z in candidates if sum(x * z**a for a, x in enumerate(c))] == []
        assert kernel_exponents(c) == candidates


def test_lambda_zero_collapse():
    # at λ = 0 only the coefficient of u^(n-1) survives, with value n-1
    for n in range(2, 13):
        c = linear_part(n)
        assert c[n - 1] == n - 1


def test_argument_validation():
    with pytest.raises(ValueError):
        kl_direct(0)
    with pytest.raises(ValueError):
        kth_term(3, 3)
    with pytest.raises(ValueError):
        linear_part(1)
    with pytest.raises(ValueError):
        c_star(3, 4)
    # off the grid of n = 3: degree 4 > n, and order 3 > n − 1 at degree 1
    for pi in [(0, 0, 0, 0), (3,)]:
        with pytest.raises(ValueError, match="off the grid"):
            coefficient_closed_form(3, pi)


def test_direct_route_matches_golden_digests():
    # SHA-256 of poly_to_json(kl_direct(n).poly); n ≤ 15 frozen before the
    # kernel was shared by both routes, so a kernel bug common to the direct
    # and the closed-form route would still change these bytes, and
    # 16 ≤ n ≤ 20 from the factor-by-factor route before kth_term expanded
    # the factor product, and 21 ≤ n ≤ 24, the top of `expand`'s range,
    # from the flat-map kernel before it was split into λ-buckets.
    golden = json.loads((GOLDEN / "direct_sha256.json").read_text())
    assert sorted(map(int, golden)) == list(range(1, 25))
    for n, digest in golden.items():
        text = poly_to_json(kl_direct(int(n)).poly)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, f"n={n}"


def test_whole_polynomial_from_its_linear_parts():
    # f_n = Σ_{j=2..n} C(n−1, j−1)·ℓ_j·f_{n−j} with f_0 = 1 and ℓ_j the
    # linear part: Σ f_n tⁿ/n! = exp(Σ ℓ_j t^j/j!), so f_n is the complete
    # Bell polynomial of the linear parts
    f = [DiffPolynomial.u_power(0)]
    for n in range(1, 17):
        total = DiffPolynomial()
        for j in range(2, n + 1):
            total = total + product(linear_factorization(j), f[n - j]).scale(comb(n - 1, j - 1))
        assert total == kl_direct(n).poly, n
        f.append(total)


def test_built_polynomials_carry_their_weight():
    # degree + order + λ-exponent of every term, by theory; f_1 is zero,
    # and zero has weight 0
    assert not kl_direct(1).poly and kl_direct(1).poly.weight == 0
    for n in range(2, 25):
        assert kl_direct(n).poly.weight == n
        assert all(kth_term(n, k).weight == n for k in range(n))
        assert linear_factorization(n).weight == n
    for n in range(2, 13):
        assert kl_closed_form(n).poly.weight == n
    for j in range(1, 7):
        for alpha in range(7):
            for k in range(1, j + 1):
                assert _p_sums(j, alpha, k).weight == j + alpha
            for beta in enumerate_compositions(j, alpha):
                assert differential_word(beta).weight == j + alpha


def _compact(p):
    return json.dumps(poly_to_obj(p), separators=(",", ":"))


def test_json_writer_matches_the_object_tree():
    for n in range(1, 25):
        assert poly_to_json(kl_direct(n).poly) == _compact(kl_direct(n).poly), n
    for n in range(1, 13):
        assert poly_to_json(kl_closed_form(n).poly) == _compact(kl_closed_form(n).poly), n
    zero = DiffPolynomial()
    assert poly_to_json(zero) == _compact(zero) == "[]"
    # weight 4, every λ-power from 0 to 4, and a 20-digit negative coefficient
    wide = dp(
        {
            (): {4: 3},
            (0,): {3: -7},
            (0, 0): {2: 1},
            (0, 1): {1: -12345678901234567890},
            (0, 0, 0, 0): {0: -1},
        }
    )
    assert poly_to_json(wide) == _compact(wide)
    assert poly_to_json(wide).startswith('[{"orders":[],"lambda_coeffs":[[4,"3"]]}')
    assert '{"orders":[0,1],"lambda_coeffs":[[1,"-12345678901234567890"]]}' in poly_to_json(wide)
