"""Log-domain representation of nonnegative quantities.

Determinants of Gram matrices, elementary symmetric polynomials, and the
probability bounds built from them underflow double precision at modest
sizes, so they are never formed in linear scale.  A nonnegative quantity is
carried as its natural logarithm in a plain float, with ``LOG_ZERO``
(``-inf``) as the explicit exact-zero state.  numpy's ``log``/``exp``/
``logaddexp`` treat this state consistently (``exp(-inf) == 0.0`` exactly,
``logaddexp(-inf, x) == x``), so zero values propagate through arithmetic
without special cases.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "LogValue",
    "LOG_ZERO",
    "is_log_zero",
    "log_binomial",
    "log_factorial",
]

LogValue = float

LOG_ZERO: LogValue = float("-inf")


def is_log_zero(x) -> bool:
    """True when a log-domain value denotes an exact zero."""
    return bool(np.isneginf(x))


def log_factorial(n: int) -> float:
    if n < 0:
        raise ValueError("factorial of a negative integer")
    return math.lgamma(n + 1)


def log_binomial(n: int, k: int) -> float:
    """log C(n, k) via log-gamma.

    Agrees with exact integer binomials to double rounding for all n that
    matter here; raises when k lies outside [0, n].
    """
    if k < 0 or k > n:
        raise ValueError(f"binomial index k={k} outside [0, {n}]")
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
