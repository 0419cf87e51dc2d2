"""Shared construction helpers for the test suite."""

from klpoly import DiffPolynomial, LambdaPolynomial


def dp(spec: dict[tuple[int, ...], dict[int, int]]) -> DiffPolynomial:
    """Build a DiffPolynomial from {orders: {lambda_exponent: coeff}}."""
    return DiffPolynomial({orders: LambdaPolynomial(lam) for orders, lam in spec.items()})
