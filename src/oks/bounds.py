"""Closed-form tail bounds, sample thresholds, and growth-rate predictions.

Probability bounds are returned raw in log domain (possibly above log 1);
clamping into [0, 1] is a display concern, because the raw values are what
monotonicity checks and vacuous-regime detection need.
"""

from __future__ import annotations

import math

from .logvalue import LogValue, is_log_zero, log_binomial
from .spectrum import synthetic_spectrum
from .symfun import Spectrum, log_nu, nu_rows

__all__ = [
    "dict_tail_bound",
    "sample_threshold",
    "growth_prediction",
]

_SCAN_LIMIT = 100_000


def dict_tail_bound(n: int, k: int, alpha: float, spec: Spectrum) -> LogValue:
    """Raw log bound on P[dictionary size >= k] after n samples:

        log C(n, k) + log nu(k) - k * log(alpha).

    Above the spectrum's length nu(k) is exactly zero if it declares no tail,
    so the bound is the zero state; with a declared tail it raises.
    """
    _check_tail_bound(n, k, alpha, spec)
    return _tail_bound_from_log_nu(n, k, alpha, log_nu(spec, k))


def sample_threshold(k: int, alpha: float, delta: float, spec: Spectrum) -> float:
    """Sample count below which P[dictionary size > k] < delta is certified:

        (alpha * k / e) * (delta / nu(k)) ** (1/k).

    Returns ``inf`` (unbounded) when nu(k) is exactly zero: no sample count
    can produce more than k dictionary members, as above the length of a
    spectrum that declares no tail.  Above the length of one that declares
    a tail it raises.
    """
    _check_threshold(k, alpha, delta, spec)
    return _threshold_from_log_nu(k, alpha, delta, log_nu(spec, k))


# each public bound is its argument checks plus a formula over log nu(k), so
# a caller that needs both bounds on one spectrum runs the recursion once

def _check_tail_bound(n: int, k: int, alpha: float, spec: Spectrum) -> None:
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if not 0 < alpha < math.inf:
        raise ValueError("alpha must be positive and finite")
    _check_length(k, spec)


def _check_threshold(k: int, alpha: float, delta: float, spec: Spectrum) -> None:
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0 < alpha < math.inf:
        raise ValueError("alpha must be positive and finite")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    _check_length(k, spec)


def _check_length(k: int, spec: Spectrum) -> None:
    # the retained values alone say nothing of nu(k) past a declared tail
    if k > spec.size and spec.declared_tail != 0:
        raise ValueError(
            f"k={k} exceeds spectrum length {spec.size} and the declared tail leaves nu(k) unknown"
        )


def _tail_bound_from_log_nu(n: int, k: int, alpha: float, lnu: LogValue) -> LogValue:
    return float(log_binomial(n, k) + lnu - k * math.log(alpha))


def _threshold_from_log_nu(k: int, alpha: float, delta: float, lnu: LogValue) -> float:
    if is_log_zero(lnu):
        return math.inf
    return float(alpha * k / math.e * math.exp((math.log(delta) - lnu) / k))


def growth_prediction(kind: str, param: float, n: int, alpha: float, delta: float) -> int:
    """Smallest k whose sample threshold exceeds n under the given decay law.

    The threshold at each k is :func:`sample_threshold` on the matching
    synthetic spectrum truncated at max(4k, 64) terms.  k is scanned upward
    from 1 over windows of W = 256, 512, ... values: one :func:`nu_rows`
    pass over the W-term spectrum with ``k_max = W // 4``, the largest k
    whose truncation fits in the window, costs at most W * W/4 work.  Row
    max(4k, 64) of a pass holds log nu(k) over exactly that truncation, bit
    for bit the per-k value: synthetic values are elementwise in the index,
    and entry k of a row depends only on columns <= k, never on ``k_max``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if kind not in ("geometric", "polynomial"):
        raise ValueError(f"unsupported decay kind {kind!r}")
    if not 0 < alpha < math.inf:
        raise ValueError("alpha must be positive and finite")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    k, width = 1, 256
    while True:
        values = synthetic_spectrum(kind, param, width).values
        for size, row in enumerate(nu_rows(values, width // 4)):
            while max(4 * k, 64) == size:
                if _threshold_from_log_nu(k, alpha, delta, float(row[k])) > n:
                    return k
                k += 1
            if k > _SCAN_LIMIT:
                raise RuntimeError("growth prediction scan did not terminate")
        width *= 2
