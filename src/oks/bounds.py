"""Closed-form tail bounds, sample thresholds, and growth-rate predictions.

Probability bounds are returned raw in log domain (possibly above log 1);
clamping into [0, 1] is a display concern, because the raw values are what
monotonicity checks and vacuous-regime detection need.
"""

from __future__ import annotations

import math

from .logvalue import LogValue, is_log_zero, log_binomial
from .spectrum import synthetic_spectrum
from .symfun import Spectrum, esp_table, log_nu

__all__ = [
    "dict_tail_bound",
    "sample_threshold",
    "growth_prediction",
    "moment_bound",
]

_SCAN_LIMIT = 100_000


def dict_tail_bound(n: int, k: int, alpha: float, spec: Spectrum) -> LogValue:
    """Raw log bound on P[dictionary size >= k] after n samples:

        log C(n, k) + log nu(k) - k * log(alpha).
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if k > spec.size:
        raise ValueError(f"k={k} exceeds spectrum length {spec.size}")
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    return float(log_binomial(n, k) + log_nu(spec, k) - k * math.log(alpha))


def sample_threshold(k: int, alpha: float, delta: float, spec: Spectrum) -> float:
    """Sample count below which P[dictionary size > k] < delta is certified:

        (alpha * k / e) * (delta / nu(k)) ** (1/k).

    Returns ``inf`` (unbounded) when nu(k) is exactly zero: no sample count
    can produce more than k dictionary members.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if k > spec.size:
        raise ValueError(f"k={k} exceeds spectrum length {spec.size}")
    return _threshold_from_log_nu(k, alpha, delta, log_nu(spec, k))


def _threshold_from_log_nu(k: int, alpha: float, delta: float, lnu: LogValue) -> float:
    if is_log_zero(lnu):
        return math.inf
    return float(alpha * k / math.e * math.exp((math.log(delta) - lnu) / k))


def growth_prediction(kind: str, param: float, n: int, alpha: float, delta: float) -> int:
    """Smallest k whose sample threshold exceeds n under the given decay law.

    The threshold at each k is :func:`sample_threshold` on the matching
    synthetic spectrum truncated at max(4k, 64) terms.  All of these are read
    from one prefix table: row max(4k, 64) of ``esp_table`` over a 4W-term
    spectrum holds log nu(k) over exactly that truncation, computed by the
    same elementwise recursion, so it equals the per-k value bit for bit for
    every k <= W.  k is scanned upward from 1, and the window W doubles (with
    one new table) only when the scan runs past it.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if kind not in ("geometric", "polynomial"):
        raise ValueError(f"unsupported decay kind {kind!r}")
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    k, window = 1, 64
    while window <= _SCAN_LIMIT:
        table = esp_table(synthetic_spectrum(kind, param, 4 * window), window)
        while k <= window:
            if _threshold_from_log_nu(k, alpha, delta, table.value(max(4 * k, 64), k)) > n:
                return k
            k += 1
        window *= 2
    raise RuntimeError("growth prediction scan did not terminate")


def moment_bound(power_spec: Spectrum, k: int) -> LogValue:
    """log nu(k) over the spectrum of the power kernel.

    With the spectrum of the entrywise m-th power kernel this upper-bounds
    log E[(det G_k)^m]; m = 1 reduces to the base spectrum's log nu(k).
    """
    if not 0 <= k <= power_spec.size:
        raise ValueError(f"k={k} outside [0, {power_spec.size}]")
    return log_nu(power_spec, k)
