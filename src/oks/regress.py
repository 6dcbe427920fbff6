"""Kernel least squares over dictionary features.

A fitted model is linear in the features psi(x) = (k(x, d_1), ...,
k(x, d_m)) given by raw kernel evaluations against the dictionary members.
The least-squares problem is solved through a QR factorization, never
through normal equations.  The ridge rows sqrt(r) * I form an upper
triangle, so they are stacked on top of [design | target] and the whole
stack is factored by one triangular-pentagonal QR (LAPACK ``dtpqrt``),
which never spends a flop on the triangle's zeros: about 2 n m^2 flops for
n points and m members.  The top of R's last column is Q^T y, so Q is
never formed: one back substitution gives the weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .harness import read_table, write_csv
from .kernels import gram_cross
from .sparsifier import Dictionary

__all__ = [
    "RegressionModel",
    "features",
    "fit",
    "read_labeled_csv",
    "write_labeled_csv",
]

NB = 64  # block size of the triangular-pentagonal QR; 32 runs as fast


def features(dictionary: Dictionary, xs) -> np.ndarray:
    """Design matrix of kernel evaluations against the dictionary members."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2:
        raise ValueError("expected an (n, d) array of points")
    return gram_cross(dictionary.kernel, xs, dictionary.members)


@dataclass(frozen=True)
class RegressionModel:
    """Immutable fitted model: dictionary, weights, and the ridge used."""

    dictionary: Dictionary
    weights: np.ndarray
    ridge: float

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size != len(self.dictionary):
            raise ValueError("weights length must equal dictionary size")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    def predict(self, x):
        """psi(x) . weights; accepts one point (d,) or a batch (n, d)."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return float(features(self.dictionary, x[None, :])[0] @ self.weights)
        return features(self.dictionary, x) @ self.weights

    def evaluate(self, xs, ys) -> float:
        """Mean squared prediction error."""
        ys = np.asarray(ys, dtype=float)
        xs = np.asarray(xs, dtype=float)
        if ys.ndim != 1 or xs.shape[0] != ys.size or ys.size < 1:
            raise ValueError("need equally many points and labels, at least one")
        resid = self.predict(xs) - ys
        return float(np.mean(resid * resid))


def fit(dictionary: Dictionary, xs, ys, ridge: float = 0.0) -> RegressionModel:
    """Least-squares weights over dictionary features.

    The rows [sqrt(ridge) * I 0], an (m+1) x (m+1) upper triangle, sit on
    top of [design | target], and one triangular-pentagonal QR factors the
    stack into R; the m weights solve R[:m, :m] w = R[:m, m].  Row order
    does not change a least-squares solution, and with ridge = 0 the
    triangle is zero, so the same call factors [design | target] alone.
    With ridge > 0 the design has full column rank.  With ridge = 0 a
    rank-deficient design raises (any ridge > 0 resolves it) by the rule of
    ``np.linalg.lstsq``: of the singular values of R[:m, :m], the design's
    own, those at most eps * max(n, m) times the largest count as zero; see
    :func:`_require_full_rank`.
    """
    from scipy import linalg

    if len(dictionary) < 1:
        raise ValueError("dictionary must be nonempty")
    if not 0 <= ridge < np.inf:
        raise ValueError("ridge must be a finite number >= 0")
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 2 or ys.ndim != 1 or xs.shape[0] != ys.size or ys.size < 1:
        raise ValueError("need equally many points and labels, at least one")
    if not np.all(np.isfinite(ys)):
        raise ValueError("labels must be finite")
    n, m = ys.size, len(dictionary)
    top = np.zeros((m + 1, m + 1), order="F")  # becomes R
    top[np.arange(m), np.arange(m)] = np.sqrt(ridge)
    bottom = np.empty((n, m + 1), order="F")  # becomes the reflectors
    bottom[:, :m] = features(dictionary, xs)
    bottom[:, m] = ys
    r, *_ = linalg.lapack.dtpqrt(0, min(NB, m + 1), top, bottom, overwrite_a=1, overwrite_b=1)
    if ridge == 0:
        _require_full_rank(r[:m, :m], max(n, m))
    weights = linalg.solve_triangular(r[:m, :m], r[:m, m], check_finite=False)
    return RegressionModel(dictionary, weights, float(ridge))


def _require_full_rank(r: np.ndarray, size: int) -> None:
    """Raise unless the upper triangle r has full rank by the lstsq rule:
    every singular value above eps * size times the largest.

    The rule needs the singular values only near its cutoff, so most
    triangles are certified by one triangular inversion and two norms, and
    only the others pay for an SVD.  With X the computed inverse of r
    (LAPACK ``dtrtri``), the test is

        ||r||_F * ||X||_F < 1 / (c * eps * size),  c = 4.

    Why it certifies, with u = eps / 2 the unit roundoff and m the order of
    r: triangular inversion leaves a residual E = X r - I (or r X - I,
    by variant) with |E| <= c_m * u * |X| |r| and c_m of order m (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed., sec. 14.2).
    So ||E||_2 <= c_m * u * ||X||_F * ||r||_F < c_m / (8 * size), which is
    below 1/2 for any c_m <= 4 * m.  Then r^-1 = (I + E)^-1 X gives
    sigma_min(r) = 1 / ||r^-1||_2 > 1 / (2 * ||X||_F), while sigma_max(r) <=
    ||r||_F, so sigma_min > (c / 2) * eps * size * sigma_max.  The spare
    factor c / 2 = 2 covers the SVD's own rounding of the singular values
    (a modest multiple of u * sigma_max) and that of the two norms.

    A zero pivot (``dtrtri`` reports it), a non-finite inverse or a failed
    test falls back to the SVD, which decides exactly as ``lstsq`` would.
    """
    from scipy import linalg

    inv, info = linalg.lapack.dtrtri(r)
    eps = np.finfo(float).eps
    if info == 0 and np.linalg.norm(r) * np.linalg.norm(inv) < 1 / (4 * eps * size):
        return
    sv = np.linalg.svd(r, compute_uv=False)
    rank = int(np.count_nonzero(sv > eps * size * sv[0]))
    if rank < len(r):
        raise np.linalg.LinAlgError(f"design has rank {rank} < {len(r)}; refit with ridge > 0")


def read_labeled_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Read labeled data: feature columns then a final ``y`` column, as
    read-only views of the table :func:`oks.harness.read_table` reads.

    The header row is required; its last entry must be ``y``.
    """
    header, data = read_table(path)
    if len(header) < 2 or header[-1] != "y":
        raise ValueError("labeled CSV header must end with a 'y' column")
    if not len(data):
        raise ValueError("labeled CSV contains no data rows")
    return data[:, :-1], data[:, -1]


def write_labeled_csv(path: str, xs, ys) -> None:
    """Write labeled data under the header x0, x1, ..., y."""
    xs = np.asarray(xs, dtype=float)
    write_csv(path, [*(f"x{i}" for i in range(xs.shape[1])), "y"], np.column_stack([xs, ys]))
