"""Kernel least squares over dictionary features.

A fitted model is linear in the features psi(x) = (k(x, d_1), ...,
k(x, d_m)) given by raw kernel evaluations against the dictionary members.
The least-squares problem is solved through one Householder QR of
[design | target], never through normal equations.  The top of R's last
column is Q^T y, so Q is never formed: one back substitution gives weights.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import IO, Sequence, Union

import numpy as np
from scipy import linalg  # bench/tracer.py counts a bare solve_triangular as the sparsifier's

from .kernels import gram_cross
from .sparsifier import Dictionary

__all__ = [
    "RegressionModel",
    "features",
    "fit",
    "read_labeled_csv",
    "write_labeled_csv",
]


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

    With ridge > 0 the design gains the rows sqrt(ridge) * I and has full
    column rank; the m weights solve R[:m, :m] w = R[:m, m].  With ridge = 0
    a rank-deficient design raises (any ridge > 0 resolves it) by the rule of
    ``np.linalg.lstsq``: of the singular values of R[:m, :m], the design's
    own, those at most eps * max(n, m) times the largest count as zero.
    """
    if len(dictionary) < 1:
        raise ValueError("dictionary must be nonempty")
    if ridge < 0:
        raise ValueError("ridge must be nonnegative")
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 2 or ys.ndim != 1 or xs.shape[0] != ys.size or ys.size < 1:
        raise ValueError("need equally many points and labels, at least one")
    n, m = ys.size, len(dictionary)
    aug = np.zeros((n + m if ridge > 0 else n, m + 1), order="F")  # factorized in place
    aug[:n, :m] = features(dictionary, xs)
    aug[:n, m] = ys
    if ridge > 0:
        aug[np.arange(n, n + m), np.arange(m)] = np.sqrt(ridge)
    (_, _), r = linalg.qr(aug, mode="raw", overwrite_a=True, check_finite=False)
    if ridge == 0:
        sv = np.linalg.svd(r[:m, :m], compute_uv=False)
        rank = int(np.count_nonzero(sv > np.finfo(float).eps * max(n, m) * sv[0]))
        if rank < m:
            raise np.linalg.LinAlgError(f"design has rank {rank} < {m}; refit with ridge > 0")
    weights = linalg.solve_triangular(r[:m, :m], r[:m, m], check_finite=False)
    return RegressionModel(dictionary, weights, float(ridge))


def read_labeled_csv(source: Union[str, IO[str]]) -> tuple[np.ndarray, np.ndarray]:
    """Read labeled data: feature columns then a final ``y`` column.

    The header row is required; its last entry must be ``y``.
    """
    if isinstance(source, str):
        with open(source, "r", newline="") as fh:
            return read_labeled_csv(fh)
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("labeled CSV is empty; a header row is required") from None
    if len(header) < 2 or header[-1].strip() != "y":
        raise ValueError("labeled CSV header must end with a 'y' column")
    rows = [[float(v) for v in row] for row in reader if row]
    if not rows:
        raise ValueError("labeled CSV contains no data rows")
    data = np.array(rows)
    if data.shape[1] != len(header):
        raise ValueError("labeled CSV rows disagree with header width")
    return data[:, :-1], data[:, -1]


def write_labeled_csv(
    target: Union[str, IO[str]],
    xs,
    ys,
    feature_names: Sequence[str] | None = None,
) -> None:
    if isinstance(target, str):
        with open(target, "w", newline="") as fh:
            write_labeled_csv(fh, xs, ys, feature_names)
        return
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if feature_names is None:
        feature_names = [f"x{i}" for i in range(xs.shape[1])]
    target.write(",".join([*feature_names, "y"]) + "\n")
    for row, y in zip(xs, ys):
        target.write(",".join(f"{float(v)!r}" for v in row) + f",{float(y)!r}\n")
