"""Quotient reductions, exponential evaluation, and root-of-unity verdicts."""

import random
from math import comb, prod

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klpoly import (
    DiffPolynomial,
    differential_word,
    kernel_exponents,
    kl_direct,
    lambda_zero_pattern,
    linear_part,
    reduce_first_order,
    reduce_order,
    reduce_second_order,
    thm5_verdict,
)
from klpoly.reductions import cyclotomic, h_at_root_of_unity_numeric
from helpers import ExpSolution, dp, evaluate_at_exponential, flat_terms


def test_first_identity_exact():
    for n in range(1, 9):
        assert reduce_first_order(kl_direct(n).poly) == DiffPolynomial()


def test_first_order_reduction_cancels_f3():
    assert reduce_first_order(dp({(2,): {0: 2}, (0,): {2: -2}})) == DiffPolynomial()


def test_first_order_reduction_of_word():
    # the length-4 word (0,1,1,1) reduces to 24 λ^3 u^4
    reduced = reduce_first_order(differential_word((0, 1, 1, 1)))
    assert reduced == dp({(0, 0, 0, 0): {3: 24}})


def test_second_identity_exact_odd():
    for n in (1, 3, 5, 7):
        assert reduce_second_order(kl_direct(n).poly) == DiffPolynomial()


def test_second_identity_even_residual():
    # u' - λu survives the substitution
    assert reduce_second_order(kl_direct(2).poly) == dp({(1,): {0: 1}, (0,): {1: -1}})
    # for even n the residual is (n−1)!!·(u′ − λu)^(n/2), expanded by the
    # binomial theorem: C(h, i)·(−λu)^i·u′^(h−i), h = n/2
    for n in range(2, 25, 2):
        h = n // 2
        double_factorial = prod(range(n - 1, 0, -2))
        expected = DiffPolynomial(
            {
                ((0,) * i + (1,) * (h - i), i): double_factorial * comb(h, i) * (-1) ** i
                for i in range(h + 1)
            }
        )
        assert reduce_order(kl_direct(n).poly, 2) == expected, n


def test_second_order_reduction_direct():
    assert reduce_second_order(dp({(2,): {0: 2}, (0,): {2: -2}})) == DiffPolynomial()


def test_reduce_order_substitution():
    # λ·u''·u''' -> λ^4 u·u'' at m = 3 (the reduced orders re-sorted),
    # λ^5 u·u' at m = 2, λ^6 u^2 at m = 1
    p = dp({(2, 3): {1: 5}})
    assert reduce_order(p, 3) == dp({(0, 2): {4: 5}})
    assert reduce_order(p, 2) == dp({(0, 1): {5: 5}})
    assert reduce_order(p, 1) == dp({(0, 0): {6: 5}})
    assert reduce_order(p, 4) == p
    for m in (0, -1):
        with pytest.raises(ValueError):
            reduce_order(p, m)


def test_reduce_order_keys_every_monomial_as_bytes():
    for n in range(2, 15):
        for m in (1, 2, 3, 5):
            reduced = reduce_order(kl_direct(n).poly, m)
            assert all(type(mono) is bytes for (mono, _), _ in flat_terms(reduced)), (n, m)


def test_question_iii_from_the_built_polynomial():
    # f_n vanishes on every solution of u^(m) = λ^m u only for m = 1, for
    # m = 2 at odd n, and for the zero polynomial f_1
    for n in range(1, 21):
        poly = kl_direct(n).poly
        for m in range(1, 9):
            vanishes = m == 1 or (m == 2 and n % 2 == 1) or n == 1
            reduced = reduce_order(poly, m)
            assert (not reduced) == vanishes, (n, m)
            # the λ-powers taken out of each factor keep the weight
            assert vanishes or reduced.weight == n, (n, m)


def test_linear_part_survives_every_higher_order_reduction():
    # the paper's linear-part argument: the degree-1 slice reduces to a
    # nonzero combination of u, …, u^(m−1) for every m >= 3
    for n in range(3, 21):
        for m in range(3, 7):
            reduced = reduce_order(kl_direct(n).poly, m)
            assert any(len(mono) == 1 for mono, _ in reduced.terms()), (n, m)


def test_evaluate_sin_solution():
    # u = sin x solves u'' = (i)^2 u; the n = 3 polynomial vanishes at λ = i
    sol = ExpSolution(
        terms=((1 / 2j, 0), (-1 / 2j, 1)), modulus=2, lam=1j
    )
    poly = kl_direct(3).poly
    for x in (0.0, 0.7, -1.3, 2.5):
        value, scale = evaluate_at_exponential(poly, sol, x)
        assert abs(value) < 1e-9 * max(scale, 1.0)


def test_evaluate_pure_exponential():
    sol = ExpSolution(terms=((1.0, 0),), modulus=1, lam=0.8)
    poly = kl_direct(2).poly
    value, scale = evaluate_at_exponential(poly, sol, 0.3)
    assert abs(value) < 1e-12 * max(scale, 1.0)


def test_evaluate_counterexample():
    # u = e^{-λx} with λ = 1 gives u' - λu = -2 at x = 0
    sol = ExpSolution(terms=((1.0, 1),), modulus=2, lam=1.0)
    value, _ = evaluate_at_exponential(kl_direct(2).poly, sol, 0.0)
    assert value == pytest.approx(-2.0)


def test_exp_solution_validation():
    with pytest.raises(ValueError):
        ExpSolution(terms=((1.0, 0), (2.0, 0)), modulus=2, lam=1.0)
    with pytest.raises(ValueError):
        ExpSolution(terms=((1.0, 3),), modulus=2, lam=1.0)


def test_numeric_consistency_random():
    rng = random.Random(20240817)
    samples = 0
    while samples < 200:
        n = rng.randint(1, 6)
        lam = rng.uniform(0.5, 2.0) * (1 if rng.random() < 0.5 else -1)
        x = rng.uniform(-1.0, 1.0)
        if rng.random() < 0.5:
            # first-order hypothesis: u = β e^{λx}, any n
            sol = ExpSolution(terms=((rng.uniform(-2, 2), 0),), modulus=1, lam=lam)
        else:
            # second-order hypothesis: u = β0 e^{λx} + β1 e^{-λx}, odd n only
            n = rng.choice([1, 3, 5])
            sol = ExpSolution(
                terms=((rng.uniform(-2, 2), 0), (rng.uniform(-2, 2), 1)),
                modulus=2,
                lam=lam,
            )
        value, scale = evaluate_at_exponential(kl_direct(n).poly, sol, x)
        assert abs(value) < 1e-9 * max(scale, 1.0)
        samples += 1


def test_cyclotomic_polynomials():
    known = {
        1: (-1, 1),
        2: (1, 1),
        3: (1, 1, 1),
        4: (1, 0, 1),
        5: (1, 1, 1, 1, 1),
        6: (1, -1, 1),
        7: (1,) * 7,
        8: (1, 0, 0, 0, 1),
        9: (1, 0, 0, 1, 0, 0, 1),
        10: (1, -1, 1, -1, 1),
        11: (1,) * 11,
        12: (1, 0, -1, 0, 1),
    }
    assert {d: cyclotomic(d) for d in known} == known
    for big_n in range(1, 31):
        product = [1]
        for d in range(1, big_n + 1):
            if big_n % d == 0:
                phi = cyclotomic(d)
                out = [0] * (len(product) + len(phi) - 1)
                for i, a in enumerate(product):
                    for j, b in enumerate(phi):
                        out[i + j] += a * b
                product = out
        assert product == [-1] + [0] * (big_n - 1) + [1], big_n


def test_thm5_verdicts():
    assert thm5_verdict(linear_part(4), 3) == {0}
    assert thm5_verdict(linear_part(4), 4) == {0, 2}
    assert thm5_verdict(linear_part(6), 5) == {0}
    for n in range(3, 21):
        c = linear_part(n)
        for m in range(3, 21):
            expected = {0} if m % 2 else {0, m // 2}
            assert thm5_verdict(c, m) == expected, (n, m)
    for c, m in ((linear_part(2), 4), (linear_part(4), 2)):
        with pytest.raises(ValueError):
            thm5_verdict(c, m)


def test_verdicts_judge_the_row_as_given():
    # Φ_3 = 1 + z + z² vanishes at the primitive cube roots of unity,
    # z² − 1 at ±1
    assert thm5_verdict((1, 1, 1), 3) == {1, 2}
    assert thm5_verdict((1, 1, 1), 6) == {2, 4}
    assert thm5_verdict((-1, 0, 1), 4) == {0, 2}
    assert kernel_exponents((-2, 0, 2)) == [1, -1]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(-10, 10), min_size=3, max_size=8).filter(lambda c: c[0] and c[-1]),
    st.integers(3, 12),
)
def test_verdict_is_closed_under_reversal_and_matches_the_numerics(c, m):
    # the roots of Φ_d are closed under z → 1/z, so a row and its reversal
    # share every verdict; at these sizes the resultant bound keeps |h(ζ^r)|
    # of every non-root above about 1e-19
    c = tuple(c)
    numeric = {r for r in range(m) if h_at_root_of_unity_numeric(c, m, r) < 1e-50}
    assert thm5_verdict(c, m) == thm5_verdict(c[::-1], m) == numeric


def test_numeric_crosscheck_at_110_digits():
    for n in range(3, 11):
        c = linear_part(n)
        for m in range(3, 11):
            surviving = thm5_verdict(c, m)
            for r in range(m):
                magnitude = h_at_root_of_unity_numeric(c, m, r)
                if r in surviving:
                    assert magnitude < 1e-50
                else:
                    assert magnitude > 1e-50


def test_numeric_crosscheck_matches_horner():
    # the oracle evaluates the same h(z) = Σ c[α] z^α at ζ^r, by Horner in
    # mpmath, whose polyval takes the top coefficient first; a Decimal
    # reaches mpmath through its digit string
    for n in range(2, 21):
        c = linear_part(n)
        for m in range(1, 21):
            for r in range(m):
                with mpmath.workdps(110):
                    horner = abs(mpmath.polyval(c[::-1], mpmath.expjpi(mpmath.mpf(2 * r) / m)))
                    value = h_at_root_of_unity_numeric(c, m, r)
                    assert abs(horner - mpmath.mpf(str(value))) < 1e-90, (n, m, r)


def test_numeric_crosscheck_rejects_a_modulus_below_one():
    # m = 0 would divide by zero and m = −3 index past the roots
    for m in (0, -3):
        with pytest.raises(ValueError, match="m >= 1"):
            h_at_root_of_unity_numeric(linear_part(4), m, 0)


def test_lambda_zero_pattern():
    # the only λ^0 degree-1 term of f_{k+1} is k·u^(k); m is not read
    for k in range(1, 11):
        for m in (1, k, 5):
            assert lambda_zero_pattern(m, k) == {k: k}, (m, k)
