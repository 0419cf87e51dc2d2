"""Exact differential-algebra engine for the Kuchment-Lvin polynomial
family and its combinatorial identities."""

from .diffalg import DiffPolynomial, LambdaPolynomial
from .combinatorics import (
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
from .expansion import (
    KLExpansion,
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
)
from .reductions import (
    lambda_zero_pattern,
    reduce_first_order,
    reduce_order,
    reduce_second_order,
    thm5_verdict,
)

__version__ = "0.1.0"
