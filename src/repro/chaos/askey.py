"""Askey-scheme polynomial families beyond Hermite.

The paper points out that the chaos expansion is not tied to Gaussian germs:
the Askey scheme pairs each classical probability density with the polynomial
family that is orthogonal under it (and therefore gives the fastest-converging
expansion):

* uniform  -> Legendre,
* Gamma / exponential -> Laguerre,
* Beta -> Jacobi.

This module provides evaluation recurrences and norms for those families.
Triple products, where no convenient closed form exists, are computed exactly
with Gauss quadrature of sufficient order (the integrands are polynomials).
"""

from __future__ import annotations

from math import lgamma
from typing import Union

import numpy as np

from ..errors import BasisError

__all__ = [
    "legendre_value",
    "legendre_norm_squared",
    "laguerre_value",
    "laguerre_norm_squared",
    "jacobi_value",
    "jacobi_norm_squared",
]


def legendre_value(order: int, x: Union[float, np.ndarray]):
    """Legendre polynomial ``P_order`` on ``[-1, 1]`` via the Bonnet recurrence."""
    if order < 0:
        raise BasisError("polynomial order must be non-negative")
    x = np.asarray(x, dtype=float)
    previous = np.ones_like(x)
    if order == 0:
        return previous if previous.ndim else float(previous)
    current = x.copy()
    for k in range(1, order):
        previous, current = current, ((2 * k + 1) * x * current - k * previous) / (k + 1)
    return current if current.ndim else float(current)


def legendre_norm_squared(order: int) -> float:
    """``E[P_order(xi)^2]`` for ``xi`` uniform on ``[-1, 1]``: ``1 / (2*order + 1)``."""
    if order < 0:
        raise BasisError("polynomial order must be non-negative")
    return 1.0 / (2.0 * order + 1.0)


def laguerre_value(order: int, x: Union[float, np.ndarray]):
    """Laguerre polynomial ``L_order`` via the standard recurrence."""
    if order < 0:
        raise BasisError("polynomial order must be non-negative")
    x = np.asarray(x, dtype=float)
    previous = np.ones_like(x)
    if order == 0:
        return previous if previous.ndim else float(previous)
    current = 1.0 - x
    for k in range(1, order):
        previous, current = current, ((2 * k + 1 - x) * current - k * previous) / (k + 1)
    return current if current.ndim else float(current)


def laguerre_norm_squared(order: int) -> float:
    """``E[L_order(xi)^2]`` for ``xi ~ Exponential(1)``: exactly 1."""
    if order < 0:
        raise BasisError("polynomial order must be non-negative")
    return 1.0


def jacobi_value(order: int, x: Union[float, np.ndarray], alpha: float, beta: float):
    """Jacobi polynomial ``P_order^(alpha, beta)`` via the three-term recurrence."""
    if order < 0:
        raise BasisError("polynomial order must be non-negative")
    if alpha <= -1 or beta <= -1:
        raise BasisError("Jacobi parameters must exceed -1")
    x = np.asarray(x, dtype=float)
    previous = np.ones_like(x)
    if order == 0:
        return previous if previous.ndim else float(previous)
    current = 0.5 * (alpha - beta + (alpha + beta + 2.0) * x)
    for k in range(1, order):
        a1 = 2.0 * (k + 1) * (k + alpha + beta + 1) * (2 * k + alpha + beta)
        a2 = (2 * k + alpha + beta + 1) * (alpha**2 - beta**2)
        a3 = (2 * k + alpha + beta) * (2 * k + alpha + beta + 1) * (2 * k + alpha + beta + 2)
        a4 = 2.0 * (k + alpha) * (k + beta) * (2 * k + alpha + beta + 2)
        previous, current = current, ((a2 + a3 * x) * current - a4 * previous) / a1
    return current if current.ndim else float(current)


def jacobi_norm_squared(order: int, alpha: float, beta: float) -> float:
    """``E[P_order^(a,b)(xi)^2]`` under the normalised Beta density on ``[-1, 1]``.

    The classical (unnormalised) weight integral is divided by the weight's
    total mass so the result is an expectation under a probability measure.
    """
    if order < 0:
        raise BasisError("polynomial order must be non-negative")
    if alpha <= -1 or beta <= -1:
        raise BasisError("Jacobi parameters must exceed -1")
    if order == 0:
        # P_0 = 1.  The general formula below divides Gamma(a+b+1) by
        # (a+b+1), which is 0/0 at a+b = -1 (the arcsine weight).
        return 1.0

    def log_norm_integral(k: int) -> float:
        # integral of (1-x)^a (1+x)^b [P_k^(a,b)]^2 dx over [-1, 1]
        return (
            (alpha + beta + 1.0) * np.log(2.0)
            + lgamma(k + alpha + 1.0)
            + lgamma(k + beta + 1.0)
            - np.log(2.0 * k + alpha + beta + 1.0)
            - lgamma(k + alpha + beta + 1.0)
            - lgamma(k + 1.0)
        )

    def log_weight_mass() -> float:
        # integral of (1-x)^a (1+x)^b dx over [-1, 1]  (the k = 0 integral)
        return (
            (alpha + beta + 1.0) * np.log(2.0)
            + lgamma(alpha + 1.0)
            + lgamma(beta + 1.0)
            - lgamma(alpha + beta + 2.0)
        )

    return float(np.exp(log_norm_integral(order) - log_weight_mass()))
