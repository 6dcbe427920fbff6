"""Streaming dictionary construction by approximate linear dependence.

A point is admitted when its squared projection residual onto the span of
the current dictionary exceeds the threshold ``alpha``.  The residual equals
the ratio of consecutive Gram determinants, so after every admission
``log det G_D > |D| * log(alpha)`` holds strictly.

Instead of the explicit Gram inverse, the dictionary maintains a growing
lower-triangular factor L with ``G_D = L @ L.T``, which is numerically better
behaved.  Points are offered in blocks of ``BLOCK`` candidates X_B.  Their
coordinates W = L^-1 K(D, X_B) come from forward substitution in row panels
of ``PANEL`` rows of L: for panel p, W_p = L_pp^-1 (K(D_p, X) - L_p,<p W_<p),
one product and one small triangular solve.  After each panel a candidate's
partial residual ``k(x, x) - |w|^2`` is its residual against the members of
the panels so far.  It never increases from one panel to the next, so a
candidate whose partial residual is at most ``alpha`` is rejected whatever
the later rows hold; it is dropped, and later panels compute kernel rows and
coordinates only for the candidates still alive.  Only the h candidates
whose residual after the solve still exceeds ``alpha`` can be admitted; the
others are rejected for good.  When h > 1 the block forms their Schur
complement S = K(X_h, X_h) - W_h W_h^T once, one h x h Gram and one GEMM, and
walks the block in order as a left-looking Cholesky of S with skips: an
admission appends one factor row, and each later hot candidate gains one
coordinate against that row, from S and its coordinates against the block's
earlier admissions, and loses its square from its residual.  That is forward
substitution against the grown factor, so in exact arithmetic every decision
equals the one-point-at-a-time rule.  In floating point the panel sums and S
round differently from a point-at-a-time solve, so a residual within rounding
of ``alpha`` may be decided differently, depending on the block and panel
boundaries.  A rejected candidate that a panel dropped reports its partial
residual there, and one that was not hot after the solve reports its
residual against the factor as it stood before the block: either is an upper
bound on its full residual, and at most ``alpha``.  A block costs O(|D| r B)
for the panels, where r is the number of factor rows a candidate survives
(|D| for the hot ones), plus O(|D| h^2) for S and O(h t) per admission,
where t <= B counts the block's admissions so far; a point-at-a-time solve
costs O(|D|^2) for every offered point.

L is stored by the same panels, as one slab per panel: slab p is a
``PANEL`` x (p+1)*``PANEL`` array holding factor rows p*PANEL ..
(p+1)*PANEL - 1, that is L_p,<p and L_pp, the two blocks panel p of the
substitution reads.  The members are stored beside it, one ``PANEL`` x d
array per panel.  An admission writes one row into the last slab and starts
a new slab only when the last one is full, so growth never copies.  P slabs
hold PANEL^2 P(P+1)/2 doubles: the triangle, the upper halves of the
diagonal blocks and the unfilled rows of the last slab, under the triangle
plus one and a half slabs.
"""

from __future__ import annotations

import logging
import math
from itertools import accumulate
from typing import NamedTuple, Sequence

import numpy as np

from .kernels import KernelSpec, gram_cross, kernel_diag
from .logvalue import LogValue

__all__ = [
    "Admission",
    "Dictionary",
    "NumericalConsistencyError",
    "run_stream",
]

# residuals in [-RESIDUAL_CLAMP * max(1, k(x,x)), 0) are rounding noise;
# anything lower is a bug (the scale factor keeps the window meaningful for
# kernels whose diagonal is far from 1)
RESIDUAL_CLAMP = 1e-12

# alpha at most this many times the rounding window is at the float64 floor:
# residuals near it carry only a few correct digits, so Dictionary.extend warns
FLOOR_FACTOR = 100

# candidates per block of Dictionary.extend: they share one panelled forward
# substitution against the factor
BLOCK = 256

# factor rows per panel of that substitution; candidates whose partial
# residual has reached alpha are dropped between panels
PANEL = 128

log = logging.getLogger(__name__)


def solve_triangular(a, b, **kwargs):
    """``scipy.linalg.solve_triangular``, imported on the first call: most
    commands never stream, and scipy would double their start-up time."""
    from scipy.linalg import solve_triangular

    return solve_triangular(a, b, **kwargs)


class NumericalConsistencyError(np.linalg.LinAlgError):
    """Incremental state disagrees with an exact-arithmetic guarantee beyond tolerance."""


class Admission(NamedTuple):
    admitted: bool
    residual: float


class Dictionary:
    """Ordered admitted points plus the triangular factor of their Gram matrix.

    Both are stored by panels of ``PANEL`` rows, the factor as slabs under
    the triangle plus one and a half slabs in all (see the module
    docstring); growth never copies, and ``factor`` and ``members``
    assemble copies.

    Single-writer: :meth:`extend` and :meth:`offer` require exclusive access;
    residual queries and property reads are safe between mutations.
    """

    def __init__(self, kernel: KernelSpec, alpha: float):
        if not 0 < alpha < math.inf:
            raise ValueError("alpha must be positive and finite")
        self.kernel = kernel
        self.alpha = float(alpha)
        self.log_det: LogValue = 0.0  # order-0 Gram has determinant 1
        self._n = 0
        self._dim: int | None = None
        # per panel p: slab p = [L_p,<p  L_pp] and the panel's members
        self._slabs: list[np.ndarray] = []
        self._panels: list[np.ndarray] = []
        self._floor_warned = False

    def __len__(self) -> int:
        return self._n

    @property
    def members(self) -> np.ndarray:
        """Admitted points, in admission order, as an (n, d) array (copy)."""
        if self._n == 0:
            return np.zeros((0, self._dim or 0))
        return np.concatenate(self._panels)[: self._n]

    @property
    def factor(self) -> np.ndarray:
        """Lower-triangular L with gram(kernel, members) == L @ L.T (copy)."""
        n = self._n
        fac = np.zeros((n, n))
        for p, slab in enumerate(self._slabs):
            s = p * PANEL
            e = min(s + PANEL, n)
            fac[s:e, :e] = slab[: e - s, :e]  # a slab holds zeros above its diagonal
        return fac

    def residual(self, x) -> float:
        """Squared distance of x's feature image to the span of the dictionary.

        Runs every panel of the forward substitution, with no early stop:
        O(|D|^2).
        """
        delta, floor, _, _ = self._block_residuals(*self._checked(_one_point(x)), -math.inf)
        return float(_settled(delta, floor)[0])

    def offer(self, x) -> Admission:
        """Admit x when its residual strictly exceeds alpha; ties reject.

        On admission the factor gains one row with diagonal sqrt(residual)
        and the log-determinant grows by exactly log(residual).  A rejected
        point reports a residual as :meth:`extend` does.
        """
        size = self._n
        delta = float(self.extend(_one_point(x))[0])
        return Admission(self._n > size, delta)

    def extend(self, points) -> np.ndarray:
        """Offer the rows of ``points`` in order; return each row's residual.

        Each row meets the dictionary as it stands at its turn, including the
        rows of ``points`` admitted before it, so in exact arithmetic the
        result equals that of offering the rows one at a time (a residual
        within rounding of ``alpha`` may be decided differently, since the
        panel sums and the in-block Schur complement round differently from a
        one-point solve).  Blocks of ``BLOCK`` rows start at multiples of
        ``BLOCK`` from the first row of ``points``.  A row is admitted exactly
        when its reported residual exceeds ``alpha``: an admitted row reports
        its full residual, the one ``log_det`` adds the log of.  A rejected row
        may report its partial residual against the leading members, where
        its forward substitution stopped, or its residual against the
        dictionary as it stood before its block: either is an upper bound on
        its full residual, and at most ``alpha``.  Residuals in the rounding
        window ``[-RESIDUAL_CLAMP * max(1, k(x, x)), 0)`` report 0; a residual
        below it raises :class:`NumericalConsistencyError` before any later
        row is admitted.  Cost: O(|D| r) per row for the substitution, where
        r is the number of factor rows the row survives; per block with
        h > 1 rows still above ``alpha`` after it, one h x h Gram and one
        GEMM, plus O(h t) per admission, where t <= ``BLOCK`` counts the
        block's admissions so far.
        Raises ``ValueError`` before admitting any row when some row has a
        non-finite coordinate or a non-finite k(x, x).  Logs one warning per
        dictionary when ``alpha`` is at most ``FLOOR_FACTOR`` times the
        rounding window of the largest k(x, x) offered.
        """
        pts, diag = self._checked(points)
        floor = FLOOR_FACTOR * RESIDUAL_CLAMP * max(1.0, diag.max(initial=0.0))
        if self.alpha <= floor and not self._floor_warned:
            self._floor_warned = True
            log.warning("alpha = %g is at the float64 floor (<= %g): residuals near it carry "
                        "only a few correct digits", self.alpha, floor)
        self._dim = pts.shape[1]  # kept even when every row is rejected
        out = np.empty(pts.shape[0])
        for s in range(0, pts.shape[0], BLOCK):
            out[s : s + BLOCK] = self._extend_block(pts[s : s + BLOCK], diag[s : s + BLOCK])
        return out

    def _extend_block(self, xb: np.ndarray, diag: np.ndarray) -> np.ndarray:
        """Sequential ALD rule over one block, after one panelled solve.

        Only the candidates still above alpha after the solve (``hot``, with
        coordinates ``w`` against the factor as it stood before the block)
        can be admitted; the others are rejected for good and keep the
        residual the solve left them.  The walk is a left-looking Cholesky,
        with skips, of the hot candidates' Schur complement
        S = K(X_hot, X_hot) - w @ w.T.  ``c[p, :t]`` holds the coordinates of
        hot candidate p against the t rows admitted in the block so far.
        Admitting hot candidate i with root sqrt(delta) appends the factor
        row (w[i], c[i, :t], sqrt(delta)); every later hot candidate p gains
        the coordinate (S[i, p] - c[p, :t] . c[i, :t]) / sqrt(delta), and its
        residual drops by that coordinate squared.  That is forward
        substitution against the appended row: in exact arithmetic, the
        one-point-at-a-time rule.
        """
        delta, floor, live, w = self._block_residuals(xb, diag, self.alpha)
        keep = delta[live] > self.alpha
        hot, w = live[keep], w[keep]
        h = hot.size
        # the walk reads S above its diagonal only, so a block with fewer than
        # two hot candidates (the common block of a reject-heavy stream) forms
        # no Gram
        if h > 1:
            s = gram_cross(self.kernel, xb[hot], xb[hot]) - w @ w.T
        c = np.empty((h, h))
        l = t = 0  # next block row to settle, admissions in the block so far
        for i, j in enumerate(hot.tolist()):
            # a delta within rounding of alpha may land on either side of it,
            # unlike with a per-point solve, depending on the block and panel
            # boundaries
            if not delta[j] > self.alpha:
                continue
            # rows l..j-1, hot or not, are rejected for good, in stream
            # order; a fault among them raises before x_j is admitted
            if l < j:
                delta[l:j] = _settled(delta[l:j], floor[l:j])
            root = math.sqrt(delta[j])
            self._append(xb[j], np.concatenate((w[i], c[i, :t])), root, float(delta[j]))
            if i + 1 < h:
                cq = (s[i, i + 1 :] - c[i + 1 :, :t] @ c[i, :t]) / root
                c[i + 1 :, t] = cq
                delta[hot[i + 1 :]] -= cq * cq
            l, t = j + 1, t + 1
        delta[l:] = _settled(delta[l:], floor[l:])
        return delta

    def _block_residuals(self, xb: np.ndarray, delta: np.ndarray, stop: float):
        """Residuals of the rows of ``xb`` against the current factor, lowered
        in place from their k(x, x), which ``delta`` holds on entry.

        Forward substitution in panels of ``PANEL`` factor rows; before each
        panel after the first, candidates whose partial residual is at most
        ``stop`` are dropped.  Returns (delta, floor, live, w): delta =
        k(x, x) - |w|^2 unclamped, over all the rows a candidate got through
        (for a dropped one a partial residual, at most ``stop`` and an upper
        bound on its full residual); floor the most negative residual still
        taken for rounding noise; live the indices of the candidates that
        got through every panel, ascending; and w[i] = L^-1 k(D, x_live[i]).
        In float64 the panel sums round differently from one full sum, so a
        residual within rounding of ``stop`` may land on either side of it
        depending on the panel boundaries.  Cost O(|D| r B) for B rows that
        each get through r factor rows.
        """
        floor = -RESIDUAL_CLAMP * np.maximum(1.0, delta)
        n = self._n
        live = np.arange(xb.shape[0])
        if n == 0:
            return delta, floor, live, np.zeros((live.size, 0))
        # the first panel sees every candidate, so it needs no gather
        e = min(PANEL, n)
        g = gram_cross(self.kernel, xb, self._panels[0][:e])
        w = solve_triangular(self._slabs[0][:e, :e], g.T, lower=True, check_finite=False)
        delta -= np.einsum("ij,ij->j", w, w)
        for p in range(1, len(self._slabs)):
            keep = delta[live] > stop
            if not keep.all():
                live, w = live[keep], w[:, keep]
                if not live.size:
                    return delta, floor, live, np.zeros((0, n))
            s, r = p * PANEL, min(PANEL, n - p * PANEL)  # first row and row count of panel p
            slab = self._slabs[p]
            g = gram_cross(self.kernel, xb[live], self._panels[p][:r]).T - slab[:r, :s] @ w
            wp = solve_triangular(slab[:r, s : s + r], g, lower=True, check_finite=False)
            delta[live] -= np.einsum("ij,ij->j", wp, wp)
            w = np.concatenate((w, wp))
        return delta, floor, live, w.T

    def _append(self, x: np.ndarray, row: np.ndarray, root: float, delta: float) -> None:
        n = self._n
        p, i = divmod(n, PANEL)
        if i == 0:  # the last slab is full, or there is none yet
            self._slabs.append(np.zeros((PANEL, n + PANEL)))
            self._panels.append(np.zeros((PANEL, x.shape[0])))
        slab = self._slabs[p]
        slab[i, :n] = row
        slab[i, n] = root
        self._panels[p][i] = x
        self._n = n + 1
        self.log_det += math.log(delta)

    def _checked(self, points) -> tuple[np.ndarray, np.ndarray]:
        """The points as an (m, d) array and their k(x, x), refused unless finite."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2:
            raise ValueError("expected an (m, d) array of points")
        if self._dim is not None and pts.shape[1] != self._dim:
            raise ValueError(f"dimension mismatch: points have {pts.shape[1]}, the dictionary has {self._dim}")
        return pts, kernel_diag(self.kernel, pts)  # refuses non-finite coordinates and k(x, x)


def _one_point(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("a point must be a 1-D coordinate array")
    return x[None, :]


def _settled(delta: np.ndarray, floor: np.ndarray) -> np.ndarray:
    """Final residuals: values in the rounding window [floor, 0) report 0, and
    the first value below its floor, or NaN, raises
    :class:`NumericalConsistencyError`."""
    low = np.flatnonzero(~(delta >= floor))
    if low.size:
        i = low[0]
        raise NumericalConsistencyError(f"projection residual {delta[i]} fell below {floor[i]}")
    return np.where(delta < 0, 0.0, delta)


def run_stream(
    kernel: KernelSpec, alpha: float, points, marks: Sequence[int] = ()
) -> tuple[Dictionary, list[tuple[int, int, LogValue]]]:
    """Offer points in order; return the dictionary and one row
    ``(n, |D|, log det G_D)`` per mark, taken once the first n points are
    offered, for each n in ``marks`` and for n at the end of the stream.

    ``marks`` must increase strictly, from at least 1 up to at most the
    number of points; a mark at the end is recorded once.  The stream goes
    to one :meth:`Dictionary.extend`, whose blocks start at multiples of
    ``BLOCK`` whatever the marks, and the rows are read off its residuals.
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
    res = d.extend(pts)
    at = np.flatnonzero(res > d.alpha)  # the admitted rows, in stream order
    # log det after k admissions, by the left fold log_det takes (sum() compensates from 3.12)
    log_dets = list(accumulate(map(math.log, res[at].tolist()), initial=0.0))
    return d, [(n, k, log_dets[k]) for n, k in zip(ends, np.searchsorted(at, ends).tolist())]
