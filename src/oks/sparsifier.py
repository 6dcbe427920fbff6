"""Streaming dictionary construction by approximate linear dependence.

A point is admitted when its squared projection residual onto the span of
the current dictionary exceeds the threshold ``alpha``.  The residual equals
the ratio of consecutive Gram determinants, so after every admission
``log det G_D > |D| * log(alpha)`` holds strictly.

Instead of the explicit Gram inverse, the dictionary maintains a growing
lower-triangular factor L with ``G_D = L @ L.T``, which is numerically better
behaved.  Points are offered in blocks of ``BLOCK`` candidates X_B.  One
kernel evaluation against the members and one triangular solve
W = L^-1 K(D, X_B) give every candidate's residual ``k(x, x) - |w|^2``
against the dictionary as the block began.  The block is then walked in
order: an admission appends one factor row, and each later candidate gains
one coordinate against that row and loses its square from its residual.
That is forward substitution against the grown factor, so in exact
arithmetic every decision equals the one-point-at-a-time rule; in floating
point a residual within rounding of ``alpha`` may be decided differently
than by a point-at-a-time solve.  A block costs one O(|D|^2 B) solve
plus O(|D| B) per admission, where a point-at-a-time solve costs O(|D|^2)
for every offered point.  Brute-force oracles (:func:`kstar_oracle`,
:func:`check_alpha_compatible`) recompute everything from dense Gram
matrices and serve as independent references for tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple, Sequence

import numpy as np
from scipy.linalg import solve_triangular

from .kernels import KernelSpec, gram, gram_cross, kernel_diag, log_det_psd, logdet_psd_stack
from .logvalue import LogValue

__all__ = [
    "Admission",
    "Dictionary",
    "GrowthTrace",
    "NumericalConsistencyError",
    "run_stream",
    "check_alpha_compatible",
    "kstar_oracle",
]

# residuals in [-RESIDUAL_CLAMP * max(1, k(x,x)), 0) are rounding noise;
# anything lower is a bug (the scale factor keeps the window meaningful for
# kernels whose diagonal is far from 1)
RESIDUAL_CLAMP = 1e-12

# candidates per block of Dictionary.extend: they share one kernel_diag call,
# one gram_cross against the members and one triangular solve
BLOCK = 256


class NumericalConsistencyError(np.linalg.LinAlgError):
    """Incremental state disagrees with an exact-arithmetic guarantee beyond tolerance."""


class Admission(NamedTuple):
    admitted: bool
    residual: float


class Dictionary:
    """Ordered admitted points plus the triangular factor of their Gram matrix.

    Single-writer: :meth:`extend` and :meth:`offer` require exclusive access;
    residual queries and property reads are safe between mutations.
    """

    def __init__(self, kernel: KernelSpec, alpha: float):
        if not alpha > 0:
            raise ValueError("alpha must be positive")
        self.kernel = kernel
        self.alpha = float(alpha)
        self.log_det: LogValue = 0.0  # order-0 Gram has determinant 1
        self._n = 0
        self._dim: int | None = None
        self._pts: np.ndarray | None = None
        self._fac: np.ndarray | None = None

    def __len__(self) -> int:
        return self._n

    @property
    def members(self) -> np.ndarray:
        """Admitted points, in admission order, as an (n, d) array (copy)."""
        if self._n == 0:
            return np.zeros((0, self._dim or 0))
        return self._pts[: self._n].copy()

    @property
    def factor(self) -> np.ndarray:
        """Lower-triangular L with gram(kernel, members) == L @ L.T (copy)."""
        if self._n == 0:
            return np.zeros((0, 0))
        return np.tril(self._fac[: self._n, : self._n])

    def residual(self, x) -> float:
        """Squared distance of x's feature image to the span of the dictionary.

        Solves one triangular system against the factor: O(|D|^2).
        """
        delta, floor, _ = self._block_residuals(self._checked(_one_point(x)))
        return float(_settled(delta, floor)[0])

    def offer(self, x) -> Admission:
        """Admit x when its residual strictly exceeds alpha; ties reject.

        On admission the factor gains one row with diagonal sqrt(residual)
        and the log-determinant grows by exactly log(residual).
        """
        size = self._n
        delta = float(self.extend(_one_point(x))[0])
        return Admission(self._n > size, delta)

    def extend(self, points) -> np.ndarray:
        """Offer the rows of ``points`` in order; return each row's residual.

        Each row meets the dictionary as it stands at its turn, including the
        rows of ``points`` admitted before it, so in exact arithmetic the
        result equals that of offering the rows one at a time (a residual
        within rounding of ``alpha`` may be decided differently).  Residuals
        in the rounding window ``[-RESIDUAL_CLAMP * max(1, k(x, x)), 0)``
        report 0; a residual below it raises :class:`NumericalConsistencyError`
        before any later row is admitted.
        """
        pts = self._checked(points)
        self._dim = pts.shape[1]  # kept even when every row is rejected
        out = np.empty(pts.shape[0])
        for s in range(0, pts.shape[0], BLOCK):
            out[s : s + BLOCK] = self._extend_block(pts[s : s + BLOCK])
        return out

    def _extend_block(self, xb: np.ndarray) -> np.ndarray:
        """Sequential ALD rule over one block, with one triangular solve.

        ``coords[l]`` holds x_l's coordinates against the factor as it grows:
        the first |D| from the block solve, one more per admission in the
        block.  Admitting x_j appends the factor row (coords[j], sqrt(delta_j));
        every later x_l gains the coordinate
        c_l = (k(x_l, x_j) - coords[l] . coords[j]) / sqrt(delta_j), and its
        residual drops by c_l**2.  That is forward substitution against the
        appended row: in exact arithmetic, the one-point-at-a-time rule.
        """
        delta, floor, w = self._block_residuals(xb)
        b, n = xb.shape[0], self._n
        coords = np.empty((b, n + b))
        coords[:, :n] = w
        l = 0
        while True:
            # a delta within rounding of alpha may land on either side of it,
            # unlike with a per-point solve, depending on the block boundaries
            hits = np.flatnonzero(delta[l:] > self.alpha)
            j = l + int(hits[0]) if hits.size else b
            # rows l..j-1 are rejected for good; a fault among them raises
            # before x_j is admitted
            delta[l:j] = _settled(delta[l:j], floor[l:j])
            if j == b:
                return delta
            m = self._n
            root = math.sqrt(delta[j])
            self._append(xb[j], coords[j, :m], root, float(delta[j]))
            l = j + 1
            if l < b:
                k = gram_cross(self.kernel, xb[l:], xb[j : j + 1])[:, 0]
                c = (k - coords[l:, :m] @ coords[j, :m]) / root
                coords[l:, m] = c
                delta[l:] -= c * c

    def _block_residuals(self, xb: np.ndarray):
        """Residuals of the rows of ``xb`` against the current factor.

        Returns (delta, floor, w): w[l] = L^-1 k(D, x_l) from one triangular
        solve, delta = k(x, x) - |w|^2 unclamped, and floor the most negative
        residual still taken for rounding noise.
        """
        diag = kernel_diag(self.kernel, xb)
        floor = -RESIDUAL_CLAMP * np.maximum(1.0, diag)
        n = self._n
        if n == 0:
            return diag, floor, np.zeros((xb.shape[0], 0))
        g = gram_cross(self.kernel, xb, self._pts[:n])
        w = solve_triangular(self._fac[:n, :n], g.T, lower=True, check_finite=False)
        return diag - np.einsum("ij,ij->j", w, w), floor, w.T

    def _append(self, x: np.ndarray, row: np.ndarray, root: float, delta: float) -> None:
        n = self._n
        self._ensure_capacity(n + 1, x.shape[0])
        self._fac[n, :n] = row
        self._fac[n, n] = root
        self._pts[n] = x
        self._n = n + 1
        self.log_det += math.log(delta)

    def _checked(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2:
            raise ValueError("expected an (m, d) array of points")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points contain non-finite coordinates")
        if self._dim is not None and pts.shape[1] != self._dim:
            raise ValueError(f"dimension mismatch: points have {pts.shape[1]}, the dictionary has {self._dim}")
        return pts

    def _ensure_capacity(self, n: int, dim: int) -> None:
        if self._pts is None:
            cap = 8
            self._pts = np.zeros((cap, dim))
            self._fac = np.zeros((cap, cap))
            return
        cap = self._pts.shape[0]
        if n <= cap:
            return
        new_cap = max(2 * cap, n)
        pts = np.zeros((new_cap, self._pts.shape[1]))
        fac = np.zeros((new_cap, new_cap))
        pts[:cap] = self._pts
        fac[:cap, :cap] = self._fac
        self._pts, self._fac = pts, fac


def _one_point(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("a point must be a 1-D coordinate array")
    return x[None, :]


def _settled(delta: np.ndarray, floor: np.ndarray) -> np.ndarray:
    """Final residuals: values in the rounding window [floor, 0) report 0, and
    the first value below its floor raises :class:`NumericalConsistencyError`."""
    low = np.flatnonzero(delta < floor)
    if low.size:
        i = low[0]
        raise NumericalConsistencyError(f"projection residual {delta[i]} fell below {floor[i]}")
    return np.where(delta < 0, 0.0, delta)


@dataclass(frozen=True)
class GrowthTrace:
    """Per-checkpoint record (samples seen, dictionary size, log det) of a run."""

    samples: np.ndarray
    dict_size: np.ndarray
    log_det: np.ndarray

    def __post_init__(self) -> None:
        n = np.asarray(self.samples, dtype=int)
        size = np.asarray(self.dict_size, dtype=int)
        ld = np.asarray(self.log_det, dtype=float)
        if not (n.ndim == size.ndim == ld.ndim == 1 and n.size == size.size == ld.size):
            raise ValueError("trace columns must be 1-D and equally long")
        if np.any(size[1:] < size[:-1]):
            raise ValueError("dictionary size must be nondecreasing")
        if np.any(size > n):
            raise ValueError("dictionary size cannot exceed samples seen")
        for name, arr in (("samples", n), ("dict_size", size), ("log_det", ld)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return int(self.samples.size)


def run_stream(
    kernel: KernelSpec, alpha: float, points, marks: Sequence[int] = ()
) -> tuple[Dictionary, GrowthTrace]:
    """Offer points in order; record (n, |D|, log det) once the first n points
    are offered, for each n in ``marks`` and for n at the end of the stream.

    ``marks`` must increase strictly, from at least 1 up to at most the
    number of points; a mark at the end is recorded once.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError("expected a nonempty (n, d) stream of points")
    ends = [*marks]
    if not ends or ends[-1] != len(pts):
        ends.append(len(pts))
    if ends[0] < 1 or any(b <= a for a, b in zip(ends, ends[1:])):
        raise ValueError("marks must increase strictly from 1 or more to at most the stream length")
    d = Dictionary(kernel, alpha)
    sizes, log_dets = [], []
    seen = 0
    for mark in ends:
        d.extend(pts[seen:mark])
        seen = mark
        sizes.append(len(d))
        log_dets.append(d.log_det)
    return d, GrowthTrace(np.array(ends), np.array(sizes), np.array(log_dets))


def check_alpha_compatible(kernel: KernelSpec, alpha: float, seq) -> bool:
    """True iff every prefix determinant ratio of the sequence exceeds alpha.

    Each ratio is computed from dense log-determinants of the prefix Gram
    matrices, independently of any incremental factor.  Those come from
    :func:`log_det_psd` at ``DEFAULT_PIVOT_TOL``, which calls a prefix
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
        ld = log_det_psd(g[:j, :j])
        if not ld - prev > log_alpha:
            return False
        prev = ld
    return True


def kstar_oracle(kernel: KernelSpec, alpha: float, points) -> int:
    """Largest k such that some k-subset A has log det G(A) > k log(alpha).

    Exhaustive subset enumeration (sizes scanned from largest down), limited
    to 14 points.  Returns 0 when no subset of any size passes.
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
        if _some_subset_passes(g, j, log_alpha):
            return j
    return 0


def _some_subset_passes(g: np.ndarray, j: int, log_alpha: float) -> np.ndarray:
    """Whether some j-subset A of the points behind each n x n Gram matrix in
    ``g`` (over its leading batch axes) has log det G(A) > j * log_alpha."""
    idx = _subset_indices(g.shape[-1], j)
    ld = logdet_psd_stack(g[..., idx[:, :, None], idx[:, None, :]])
    return np.any(ld > j * log_alpha, axis=-1)


@lru_cache(maxsize=64)
def _subset_indices(n: int, j: int) -> np.ndarray:
    idx = np.array(list(combinations(range(n), j)), dtype=np.intp)
    idx.setflags(write=False)
    return idx
