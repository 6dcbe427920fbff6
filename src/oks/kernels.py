"""Kernel specifications, Gram matrices, and PSD log-determinants.

A kernel is a declarative value (:class:`KernelSpec`).  It is evaluated on
point sets ``(n, d)`` and on stacked batches of them ``(b, n, d)``, never
on a single pair.  Each kind's formula is written once, in ``_form``, over
inner products <x, y> and squared norms |x|^2 and |y|^2:
:func:`gram_cross`, :func:`gram` and :func:`kernel_diag` differ only in
which of these they feed it.  :func:`gram` forms its values over the upper
tiles only, in strips of ``TILE`` rows, and mirrors them into the lower
ones: each value is formed once, the matrix is exactly symmetric by
construction, and its peak is the output plus one strip.

Determinant arithmetic never leaves log domain: :func:`logdet_psd_stack`
is the one log-determinant entry.  It refuses a stack holding a non-finite
entry or a matrix that is not exactly symmetric, and decides singularity by
its own diagonal-pivoted factorization, so that a pivot inside the relative
tolerance band is reported as an exact zero (singular matrix) while a
decisively negative pivot raises :class:`NotPsdError`.  A batched Cholesky
factorization stands in for it on every matrix that is provably far from
that band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .logvalue import LOG_ZERO

__all__ = [
    "KernelSpec",
    "NotPsdError",
    "linear",
    "rbf",
    "polynomial",
    "power",
    "kernel_diag",
    "gram",
    "gram_cross",
    "logdet_psd_stack",
    "DEFAULT_PIVOT_TOL",
]

DEFAULT_PIVOT_TOL = 1e-12

# rows per strip of the upper triangle that gram forms at a time
TILE = 256


class NotPsdError(np.linalg.LinAlgError):
    """A matrix required to be positive semi-definite has a decisively negative pivot."""


@dataclass(frozen=True)
class KernelSpec:
    """Declarative kernel description.

    ``kind`` is one of ``linear``, ``rbf``, ``poly``, ``pow``; use the module
    factories (:func:`linear`, :func:`rbf`, :func:`polynomial`,
    :func:`power`) rather than the raw constructor.  The RBF kernel is
    ``exp(-||x - y||^2 / (2 * bandwidth^2))``, the polynomial kernel
    ``(scale * <x, y> + offset) ** degree``, and ``pow`` the entrywise m-th
    power of its base kernel.  Specs are immutable and safe to share between
    threads; all evaluation functions are pure.
    """

    kind: str
    bandwidth: float = 0.0
    degree: int = 0
    offset: float = 0.0
    scale: float = 1.0
    exponent: int = 1
    base: Optional["KernelSpec"] = None

    def __post_init__(self) -> None:
        if self.kind == "linear":
            pass
        elif self.kind == "rbf":
            if not 0 < self.bandwidth < math.inf:
                raise ValueError("rbf bandwidth must be positive and finite")
        elif self.kind == "poly":
            if self.degree < 1:
                raise ValueError("polynomial degree must be a positive integer")
            if not 0 <= self.offset < math.inf:
                raise ValueError("polynomial offset must be nonnegative and finite")
            if not 0 < self.scale < math.inf:
                raise ValueError("polynomial scale must be positive and finite")
        elif self.kind == "pow":
            if self.base is None:
                raise ValueError("power kernel requires a base kernel")
            if self.exponent < 1:
                raise ValueError("power exponent must be >= 1")
        else:
            raise ValueError(f"unknown kernel kind {self.kind!r}")

    def to_text(self) -> str:
        """Text form: ``linear``, ``rbf:<bw>``, ``poly:<deg>:<off>:<scale>``, ``pow:<m>:<base>``."""
        if self.kind == "linear":
            return "linear"
        if self.kind == "rbf":
            return f"rbf:{float(self.bandwidth)!r}"
        if self.kind == "poly":
            return f"poly:{self.degree}:{float(self.offset)!r}:{float(self.scale)!r}"
        return f"pow:{self.exponent}:{self.base.to_text()}"

    @classmethod
    def from_text(cls, text: str) -> "KernelSpec":
        """Parse the text form produced by :meth:`to_text`."""
        t = text.strip()
        if t == "linear":
            return linear()
        head, _, rest = t.partition(":")
        try:
            if head == "rbf" and rest:
                return rbf(float(rest))
            if head == "poly":
                deg, off, sc = rest.split(":")
                return polynomial(int(deg), float(off), float(sc))
            if head == "pow":
                m, sep, base = rest.partition(":")
                if sep:
                    return power(cls.from_text(base), int(m))
        except ValueError as exc:
            raise ValueError(f"cannot parse kernel {text!r}: {exc}") from None
        raise ValueError(f"cannot parse kernel {text!r}")


def linear() -> KernelSpec:
    return KernelSpec("linear")


def rbf(bandwidth: float) -> KernelSpec:
    return KernelSpec("rbf", bandwidth=float(bandwidth))


def polynomial(degree: int, offset: float = 0.0, scale: float = 1.0) -> KernelSpec:
    return KernelSpec("poly", degree=_integer(degree, "polynomial degree"), offset=float(offset),
                      scale=float(scale))


def power(base: KernelSpec, m: int) -> KernelSpec:
    return KernelSpec("pow", exponent=_integer(m, "power exponent"), base=base)


def _integer(value, name: str) -> int:
    """``value`` as an int, refusing a fraction that int() would truncate."""
    if value % 1:
        raise ValueError(f"{name} must be an integer, not {value!r}")
    return int(value)


def _check_points(a) -> tuple[np.ndarray, np.ndarray]:
    """The points as a float array ``(..., n, d)`` and their squared norms.

    Refuses non-finite coordinates, and rows whose 2 |x|^2 overflows: an rbf
    entry adds two squared norms.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 2:
        raise ValueError(f"expected at least 2 array dimensions, got {a.ndim}")
    if a.shape[-1] < 1:
        raise ValueError("points must have dimension >= 1")
    with np.errstate(over="ignore"):  # refused below
        s = np.sum(a * a, axis=-1)
        top = 2.0 * s.max(initial=0.0)  # NaN if any coordinate is NaN
    if not top < math.inf:
        if not np.isfinite(a).all():
            raise ValueError("points contain non-finite coordinates")
        raise ValueError("points overflow: 2 |x|^2 is not finite")
    return a, s


def _form(spec: KernelSpec, ip: np.ndarray, sx: np.ndarray, sy: np.ndarray) -> np.ndarray:
    """Kernel values from inner products ip = <x, y> and squared norms
    sx = |x|^2, sy = |y|^2 that broadcast against ip; may overwrite ip,
    which must not share memory with sx or sy.

    rbf takes the squared distance as sx + sy - 2 ip, clamped at 0, with one
    temporary beside ip; where sx = sy = ip it is exactly 0, so k(x, x) = 1.
    """
    if spec.kind == "linear":
        return ip
    if spec.kind == "rbf":
        ip *= -2.0
        ip += sx + sy
        np.maximum(ip, 0.0, out=ip)
        ip /= -2.0 * spec.bandwidth**2
        return np.exp(ip, out=ip)
    if spec.kind == "poly":
        ip *= spec.scale
        ip += spec.offset
        ip **= spec.degree
        return ip
    k = _form(spec.base, ip, sx, sy)
    k **= spec.exponent
    return k


def _diag(spec: KernelSpec, s: np.ndarray) -> np.ndarray:
    """k(x, x) from the squared norms ``s`` of checked points, refused
    unless finite; a finite diagonal bounds every other entry, by
    |k(x, y)| <= sqrt(k(x, x) k(y, y))."""
    with np.errstate(over="ignore"):  # refused below
        k = _form(spec, s.copy(), s, s)
    bad = ~np.isfinite(k)
    if bad.any():
        at = np.unravel_index(np.argmax(bad), k.shape)
        row = int(at[0]) if k.ndim == 1 else tuple(map(int, at))
        raise ValueError(f"k(x, x) = {k[at]} is not finite at row {row}")
    return k


def kernel_diag(spec: KernelSpec, points) -> np.ndarray:
    """k(x, x) for each point row (exactly 1 for rbf); raises ``ValueError``
    when one is not finite."""
    _, s = _check_points(points)
    return _diag(spec, s)


def gram_cross(spec: KernelSpec, xs, ys) -> np.ndarray:
    """Rectangular kernel matrix between the rows of ``xs`` and ``ys``.

    Accepts leading batch axes: ``(..., n, d)`` and ``(..., m, d)`` produce
    ``(..., n, m)``.
    """
    xs, sx = _check_points(xs)
    ys, sy = _check_points(ys)
    if xs.shape[-1] != ys.shape[-1]:
        raise ValueError(f"dimension mismatch: {xs.shape[-1]} vs {ys.shape[-1]}")
    return _form(spec, xs @ ys.swapaxes(-1, -2), sx[..., :, None], sy[..., None, :])


def gram(spec: KernelSpec, points) -> np.ndarray:
    """Gram matrix of a point set; exactly symmetric, with an exactly
    evaluated diagonal.

    ``points`` may be empty (order-0 matrix) or carry leading batch axes.
    Raises ``ValueError`` when some k(x, x) is not finite, before the other
    entries are formed.

    After one product of the points with themselves, the kernel values are
    formed in place over the upper tiles only, one strip of ``TILE`` rows
    at a time, and each strip is mirrored into the lower tiles and within
    its diagonal tile.  Each value is formed once, the result is exactly
    symmetric by construction, whatever the rounding of the product, and
    the peak is the output plus one strip.
    """
    pts = np.asarray(points, dtype=float)
    if pts.size == 0 and pts.ndim <= 2:
        return np.zeros((0, 0))
    pts, s = _check_points(pts)
    diag = _diag(spec, s)
    k = pts @ pts.swapaxes(-1, -2)
    n = k.shape[-1]
    # below the diagonal of a tile, row by row: one of m rows takes the first m(m-1)/2
    r, c = np.tril_indices(min(n, TILE), -1)
    for i in range(0, n, TILE):
        e = min(i + TILE, n)
        # _form works in place, so this assignment copies nothing
        k[..., i:e, i:] = _form(spec, k[..., i:e, i:], s[..., i:e, None], s[..., None, i:])
        k[..., e:, i:e] = k[..., i:e, e:].swapaxes(-1, -2)
        tile, p = k[..., i:e, i:e], (e - i) * (e - i - 1) // 2
        tile[..., r[:p], c[:p]] = tile[..., c[:p], r[:p]]
    idx = np.arange(n)
    k[..., idx, idx] = diag
    return k


def logdet_psd_stack(mats) -> np.ndarray | np.float64:
    """Log-determinants of a stack of symmetric PSD matrices ``(..., n, n)``;
    a single matrix ``(n, n)`` gives one ``np.float64``.

    Raises ``ValueError``, before any factorization, when the stack holds a
    non-finite entry or a matrix that is not exactly symmetric.  An order-0
    matrix has determinant 1, hence log-determinant 0.

    The result is that of symmetric elimination with diagonal pivoting
    (largest remaining diagonal first), which leaves determinants unchanged
    and is rank revealing.  With t = ``DEFAULT_PIVOT_TOL``, a pivot within
    ``t * max(diagonal)`` of zero marks that matrix singular (zero state); a
    pivot below ``-t * max(diagonal)`` raises :class:`NotPsdError`, since
    under this pivot order it means every remaining diagonal entry is
    decisively negative.

    Most matrices skip that elimination.  One batched Cholesky factorization
    runs first, and a matrix keeps its 2 * sum(log diag L) when that value
    exceeds ``log(t) + n * log(D) + margin``, D its largest diagonal
    entry.  The elimination would give it the same value to rounding and
    the same verdict exactly.  Proof sketch, with lambda the smallest
    eigenvalue and u the unit roundoff:

    - each pivot of a symmetric elimination of a PD matrix, in any order,
      is a diagonal entry of a Schur complement, hence at least lambda;
    - lambda >= det / (n * D)**(n - 1), as no eigenvalue exceeds the trace;
    - both factorizations are backward stable: each is exact for A + E with
      ``||E||_2 <= n**3 * u * D`` (Higham, *Accuracy and Stability of
      Numerical Algorithms*, Thms 9.3 and 10.3; multipliers are at most 1
      and Schur entries at most D under diagonal pivoting, and
      ``|L| |L^T| <= D`` entrywise for Cholesky).

    With ``delta = 4 * n**3 * u`` covering both backward errors over D, the
    margin ``(n - 1) * log(n) + log1p(delta / t) + log(2)`` puts lambda of
    the Cholesky product above ``(t + delta) * D``, so every computed pivot
    of the elimination exceeds ``t * D``.  The log(2) absorbs
    ``(1 + delta)**(n - 1)`` and the rounding of the log sum.  The margin
    grows with n, so near-singular matrices of higher order take the
    elimination more often.

    Every other matrix takes the elimination: one that fails the test or
    its own Cholesky factorization.  The route of a matrix, and so its
    value, never depends on the rest of the stack.
    """
    a = np.asarray(mats, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError("expected square matrices")
    n = a.shape[-1]
    batch = a.shape[:-2]
    if n == 0:
        return np.zeros(batch)[()]
    if not np.isfinite(a).all():
        raise ValueError("matrix contains non-finite entries")
    if not (a == a.swapaxes(-1, -2)).all():  # Cholesky reads only the lower triangle
        raise ValueError("matrix is not symmetric")
    a = a[None] if a.ndim == 2 else a  # a stack keeps its layout: reshaping may copy
    ld = _cholesky_logdets(a)
    delta = 4 * n**3 * np.finfo(float).eps / 2
    margin = (n - 1) * math.log(n) + math.log1p(delta / DEFAULT_PIVOT_TOL) + math.log(2.0)
    top = np.diagonal(a, axis1=-2, axis2=-1).max(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):  # top <= 0 only where ld is NaN
        slow = ~(ld > math.log(DEFAULT_PIVOT_TOL) + n * np.log(top) + margin)  # True where NaN
    if slow.any():
        ld[slow] = _logdet_pivoted(a[slow])
    return ld.reshape(batch)[()]


def _cholesky_logdets(a: np.ndarray) -> np.ndarray:
    """2 * sum(log diag L) for each matrix of a stack, NaN where its own
    Cholesky factorization fails.

    ``np.linalg.cholesky`` raises for a whole batch if one matrix fails, so
    a failing batch is split until each failing matrix stands alone.
    """
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        flat = a.reshape(-1, *a.shape[-2:])
        if len(flat) == 1:
            return np.full(a.shape[:-2], np.nan)
        parts = np.array_split(flat, min(len(flat), 64))
        return np.concatenate([_cholesky_logdets(p) for p in parts]).reshape(a.shape[:-2])
    return 2.0 * np.log(np.diagonal(chol, axis1=-2, axis2=-1)).sum(axis=-1)


def _logdet_pivoted(a: np.ndarray) -> np.ndarray:
    """The diagonal-pivoted elimination of :func:`logdet_psd_stack` on a
    stack ``(b, n, n)`` with n >= 1, which it overwrites."""
    nb, n, _ = a.shape
    bi = np.arange(nb)
    thr = DEFAULT_PIVOT_TOL * np.maximum(np.diagonal(a, axis1=-2, axis2=-1).max(axis=-1), 0.0)
    out = np.zeros(nb)
    zero = np.zeros(nb, dtype=bool)
    with np.errstate(divide="ignore"):
        for j in range(n):
            m = j + np.argmax(np.diagonal(a[:, j:, j:], axis1=-2, axis2=-1), axis=-1)
            if np.any(m != j):
                row_j = a[bi, j, :].copy()
                a[bi, j, :] = a[bi, m, :]
                a[bi, m, :] = row_j
                col_j = a[bi, :, j].copy()
                a[bi, :, j] = a[bi, :, m]
                a[bi, :, m] = col_j
            p = a[:, j, j]
            live = ~zero
            if np.any((p < -thr) & live):
                raise NotPsdError(
                    "pivot below -DEFAULT_PIVOT_TOL * max(diagonal): "
                    "matrix is not positive semi-definite"
                )
            zero = zero | ((p <= thr) & live)
            live = ~zero
            psafe = np.where(live, p, 1.0)
            out = out + np.where(live, np.log(psafe), 0.0)
            if j + 1 < n:
                col = np.where(live[:, None], a[:, j + 1 :, j] / psafe[:, None], 0.0)
                a[:, j + 1 :, j + 1 :] -= col[:, :, None] * a[:, j : j + 1, j + 1 :]
    return np.where(zero, LOG_ZERO, out)
