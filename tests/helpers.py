"""Shared construction helpers for the test suite."""

from klpoly import DiffPolynomial


def dp(spec: dict[tuple[int, ...], dict[int, int]]) -> DiffPolynomial:
    """Build a DiffPolynomial from {orders: {lambda_exponent: coeff}}."""
    return DiffPolynomial(
        {(orders, e): c for orders, lam in spec.items() for e, c in lam.items()}
    )
