"""Dense reference implementations that the tests check the library against.

:func:`eval_kernel` evaluates one pair by each kind's plain formula, with
the rbf distance taken as x - y, independently of the inner-product form
that every Gram matrix of the library is computed by.  The others recompute
their answer from dense Gram matrices and their log-determinants by
:func:`oks.kernels.logdet_psd_stack`, independently of the incremental
factor that :class:`oks.Dictionary` maintains.  :func:`kstar_oracle`
gathers its subset matrices itself, one stack per subset size, independently
of the Monte Carlo harness's subset table and chunks.  :func:`esp_brute` sums
log nu(k) over every k-subset of a spectrum, independently of the row
recursion of :func:`oks.symfun.nu_rows`.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np
from scipy.special import logsumexp

from oks.kernels import KernelSpec, gram, logdet_psd_stack
from oks.logvalue import LOG_ZERO, log_factorial
from oks.symfun import Spectrum


def eval_kernel(spec: KernelSpec, x, y) -> float:
    """Evaluate k(x, y) for two points of equal dimension."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or y.ndim != 1:
        raise ValueError("points must be 1-D coordinate arrays")
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape[0]} vs {y.shape[0]}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("points contain non-finite coordinates")
    return float(_eval_pair(spec, x, y))


def _eval_pair(spec: KernelSpec, x: np.ndarray, y: np.ndarray) -> float:
    if spec.kind == "linear":
        return float(x @ y)
    if spec.kind == "rbf":
        d = x - y
        return float(np.exp(-(d @ d) / (2.0 * spec.bandwidth**2)))
    if spec.kind == "poly":
        return float((spec.scale * (x @ y) + spec.offset) ** spec.degree)
    return _eval_pair(spec.base, x, y) ** spec.exponent


def check_alpha_compatible(kernel: KernelSpec, alpha: float, seq) -> bool:
    """True iff every prefix determinant ratio of the sequence exceeds alpha.

    Each ratio is computed from dense log-determinants of the prefix Gram
    matrices, independently of any incremental factor.  Those come from
    :func:`logdet_psd_stack` at ``DEFAULT_PIVOT_TOL``, which calls a prefix
    singular once a pivot falls below ``DEFAULT_PIVOT_TOL * max k(x, x)``;
    the answer is therefore only valid for alpha well above that product.
    Near it, a sequence that is alpha-compatible in exact arithmetic can be
    reported as incompatible.
    """
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    pts = np.asarray(seq, dtype=float)
    if pts.size == 0:
        return True
    if pts.ndim != 2:
        raise ValueError("expected an (n, d) sequence of points")
    if pts.shape[0] > 500:
        raise ValueError("dense compatibility check limited to 500 points")
    g = gram(kernel, pts)
    log_alpha = math.log(alpha)
    prev = 0.0
    for j in range(1, pts.shape[0] + 1):
        ld = logdet_psd_stack(g[:j, :j])
        if not ld - prev > log_alpha:
            return False
        prev = ld
    return True


def kstar_oracle(kernel: KernelSpec, alpha: float, points) -> int:
    """Largest k such that some k-subset A has log det G(A) > k log(alpha).

    Exhaustive subset enumeration (sizes scanned from largest down, one
    log-determinant stack per size), limited to 14 points.  Returns 0 when
    no subset of any size passes.
    """
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        return 0
    if pts.ndim != 2:
        raise ValueError("expected an (n, d) sequence of points")
    n = pts.shape[0]
    if n > 14:
        raise ValueError("subset enumeration limited to 14 points")
    g = gram(kernel, pts)
    log_alpha = math.log(alpha)
    for j in range(n, 0, -1):
        subsets = np.stack([g[np.ix_(a, a)] for a in combinations(range(n), j)])
        if np.any(logdet_psd_stack(subsets) > j * log_alpha):
            return j
    return 0


def esp_brute(spec: Spectrum, k: int) -> float:
    """log nu(k) = log(k! * e_k) by summing over every k-subset of the values.

    Limited to spectra of length <= 22.
    """
    n_len = spec.size
    if n_len > 22:
        raise ValueError("brute-force enumeration limited to spectra of length <= 22")
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > n_len:
        return LOG_ZERO
    with np.errstate(divide="ignore"):
        logs = np.log(spec.values)
    terms = [logs[list(c)].sum() for c in combinations(range(n_len), k)]
    return float(log_factorial(k) + logsumexp(terms))
