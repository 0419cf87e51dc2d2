"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.  Every check is exact; the time limits are generous upper bounds
pinned alongside the expected values.
"""

import json
import random
import time
from fractions import Fraction

from klpoly import (
    c_alpha_formula,
    c_star,
    c_star_factorial_form,
    enumerate_compositions,
    convolution,
    density,
    differential_word,
    factorial_sum_check,
    h_poly,
    kl_closed_form,
    kl_direct,
    lambda_zero_pattern,
    linear_factorization,
    linear_part,
    reduce_first_order,
    reduce_second_order,
    sum_of_products,
    sum_of_products_enumerated,
    thm5_verdict,
    weight_closed_form,
)
from klpoly.cli import main
from klpoly.diffalg import DiffPolynomial
from klpoly.reductions import h_at_root_of_unity_numeric
from klpoly.serialize import poly_to_json
from math import comb, prod

from helpers import ExpSolution, evaluate_at_exponential, flat_terms, weight


class Timer:
    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start


def report(number: int, description: str, timer: Timer, limit: float):
    assert timer.elapsed < limit, f"criterion {number} exceeded {limit}s"
    print(f"PASS criterion {number}: {description} ({timer.elapsed:.2f}s)")


def test_criterion_01_density_table(capsys):
    with Timer() as t:
        code = main(["table", "4", "3", "2"])
        out = capsys.readouterr().out
    assert code == 0
    values = [int(line.split()[-1]) for line in out.strip().splitlines()]
    assert values == [64, 48, 36, 27, 24, 18, 32, 12, 16, 8, 285]
    with capsys.disabled():
        report(1, "density table (4,3,2) with weight 285", t, 1.0)


def test_criterion_02_weight_4_5_2(capsys):
    with Timer() as t:
        assert weight(4, 5, 2) == 6069
        assert weight_closed_form(4, 5, 2) == 6069
    with capsys.disabled():
        report(2, "weight (4,5,2) = 6069", t, 1.0)


def test_criterion_03_n3_both_constructors(capsys):
    with Timer() as t:
        direct = kl_direct(3)
        closed = kl_closed_form(3)
        expected = DiffPolynomial({((2,), 0): 2, ((0,), 2): -2})
        assert direct.poly == expected
        assert closed.poly == expected
        assert poly_to_json(direct.poly) == poly_to_json(closed.poly)
    with capsys.disabled():
        report(3, "n=3 equals 2u'' - 2λ²u from both constructors, byte-identical", t, 1.0)


def test_criterion_04_oracle_equivalence(capsys):
    with Timer() as t:
        for n in range(1, 9):
            assert kl_direct(n).poly == kl_closed_form(n).poly
    with capsys.disabled():
        report(4, "direct = closed form for n <= 8", t, 60.0)


def test_criterion_05_c_star_vanishing(capsys):
    with Timer() as t:
        for n in range(1, 9):
            for j in range(1, n + 1):
                assert c_star(n, j) == 0
                assert c_star_factorial_form(n, j) == Fraction(0)
    with capsys.disabled():
        report(5, "degree-wise coefficient sums vanish, both forms, n <= 8", t, 60.0)


def test_criterion_06_first_identity(capsys):
    with Timer() as t:
        for n in range(1, 9):
            assert reduce_first_order(kl_direct(n).poly) == DiffPolynomial()
    with capsys.disabled():
        report(6, "first vanishing identity exact for n <= 8", t, 60.0)


def test_criterion_07_second_identity(capsys):
    with Timer() as t:
        for n in (1, 3, 5, 7):
            assert reduce_second_order(kl_direct(n).poly) == DiffPolynomial()
        residual = reduce_second_order(kl_direct(2).poly)
        assert residual == DiffPolynomial({((1,), 0): 1, ((0,), 1): -1})
        observed = {n: bool(reduce_second_order(kl_direct(n).poly)) for n in (2, 4, 6, 8)}
        assert all(observed.values())  # even-n residuals reported, not asserted zero
    with capsys.disabled():
        report(7, "second vanishing identity exact for odd n <= 7; even residuals observed", t, 60.0)


def test_criterion_08_linear_chain(capsys):
    with Timer() as t:
        for n in range(2, 13):
            c = linear_part(n)
            h = h_poly(n)
            assert all(c[a] == c_alpha_formula(n, a) for a in range(n))
            assert h == [c[n - 1 - a] for a in range(n)]
            graded = DiffPolynomial({((a,), n - 1 - a): c[a] for a in range(n)})
            assert linear_factorization(n) == graded
    with capsys.disabled():
        report(8, "linear coefficients = formula = reversed h = factorization, n <= 12", t, 10.0)


def test_criterion_09_surviving_rates(capsys):
    with Timer() as t:
        for n in range(3, 11):
            c = linear_part(n)
            for m in range(3, 11):
                expected = {0} if m % 2 else {0, m // 2}
                verdict = thm5_verdict(c, m)
                assert verdict == expected
                for r in range(m):
                    numeric = h_at_root_of_unity_numeric(c, m, r)
                    assert (numeric < 1e-50) == (r in verdict)
    with capsys.disabled():
        report(9, "surviving exponential rates match theory and 110-digit numerics", t, 30.0)


def test_criterion_10_lambda_zero(capsys):
    with Timer() as t:
        for k in range(1, 11):
            assert lambda_zero_pattern(1, k) == {k: k}
    with capsys.disabled():
        report(10, "linear part at λ=0 is k·u^(k) for k <= 10", t, 60.0)


def test_criterion_11_property_suites(capsys):
    with Timer() as t:
        for j in range(1, 7):
            for k in range(1, j + 1):
                for alpha in range(7):
                    assert weight(j, alpha, k) == weight_closed_form(j, alpha, k)
                    assert len(enumerate_compositions(j, alpha, k)) == comb(
                        alpha + j - k, j - k
                    )
        for j in range(1, 6):
            for alpha in range(6):
                for beta in enumerate_compositions(j, alpha, 1):
                    word = differential_word(beta)
                    assert all(e == 0 for (_, e), _ in flat_terms(word))
                    assert density(beta) == sum(c for _, c in flat_terms(word))
        for n in range(1, 21):
            # the generating function (1 + z)···(1 + nz), at n + 1 points
            row = [sum_of_products(n, alpha) for alpha in range(n + 1)]
            for z in range(n + 1):
                assert sum(s * z**alpha for alpha, s in enumerate(row)) == prod(
                    1 + a * z for a in range(1, n + 1)
                )
            if n <= 12:
                for alpha in range(n + 1):
                    assert sum_of_products(n, alpha) == sum_of_products_enumerated(
                        n, alpha
                    )
        for n in range(1, 16):
            for m in range(1, n + 1):
                lhs, rhs = factorial_sum_check(n, m)
                assert lhs == rhs
        for n in range(1, 21):
            assert convolution(n, 0) == 1
            for m in range(1, 21):
                assert convolution(n, m) == 0
    with capsys.disabled():
        report(11, "combinatorial property suites all exact", t, 120.0)


def test_criterion_12_numeric_spot_checks(capsys):
    with Timer() as t:
        # the sin x case: u'' = (i)^2 u and n = 3 is odd
        sin_sol = ExpSolution(terms=((1 / 2j, 0), (-1 / 2j, 1)), modulus=2, lam=1j)
        value, scale = evaluate_at_exponential(kl_direct(3).poly, sin_sol, 0.9)
        assert abs(value) < 1e-9 * max(scale, 1.0)

        rng = random.Random(1234)
        for _ in range(200):
            lam = rng.uniform(0.5, 2.0) * rng.choice([1, -1])
            x = rng.uniform(-1.0, 1.0)
            if rng.random() < 0.5:
                n = rng.randint(1, 6)
                sol = ExpSolution(
                    terms=((rng.uniform(-2, 2), 0),), modulus=1, lam=lam
                )
            else:
                n = rng.choice([1, 3, 5])
                sol = ExpSolution(
                    terms=((rng.uniform(-2, 2), 0), (rng.uniform(-2, 2), 1)),
                    modulus=2,
                    lam=lam,
                )
            value, scale = evaluate_at_exponential(kl_direct(n).poly, sol, x)
            assert abs(value) < 1e-9 * max(scale, 1.0)
    with capsys.disabled():
        report(12, "200 random exponential spot-checks within 1e-9 relative", t, 60.0)
