"""Exact differential-algebra engine for the Kuchment-Lvin polynomial
family and its combinatorial identities."""

from .diffalg import DiffPolynomial, LambdaPolynomial
from .combinatorics import (
    convolution,
    density,
    differential_word,
    enumerate_compositions,
    factorial_sum_check,
    g_poly,
    generalized_binomial,
    product_rule_coefficient,
    sum_of_products,
    sum_of_products_enumerated,
    weight,
    weight_A_coefficients,
    weight_closed_form,
)
from .expansion import (
    KLExpansion,
    LinearPart,
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
from .reductions import (
    ExpSolution,
    evaluate_at_exponential,
    lambda_zero_pattern,
    linear_part_at_root_of_unity,
    reduce_first_order,
    reduce_second_order,
    thm5_verdict,
)

__version__ = "0.1.0"
