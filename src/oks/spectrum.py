"""Construct spectra: empirically from Gram matrices, or from decay laws."""

from __future__ import annotations

import numpy as np

from .kernels import NotPsdError
from .symfun import Spectrum

__all__ = [
    "empirical_spectrum",
    "synthetic_spectrum",
    "DEFAULT_CLAMP_TOL",
]

DEFAULT_CLAMP_TOL = 1e-10


def empirical_spectrum(g) -> Spectrum:
    """Eigenvalues of n^-1 G, sorted descending, as a finite spectrum.

    Eigenvalues in ``[-DEFAULT_CLAMP_TOL * lam_max, 0)`` are clamped to zero
    (RBF Grams of near-duplicate points produce tiny negative eigenvalues in
    double precision); anything lower raises :class:`NotPsdError`.
    """
    a = np.asarray(g, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError("expected a square Gram matrix of order >= 1")
    if not np.array_equal(a, a.T):
        raise ValueError("Gram matrix is not symmetric")
    n = a.shape[0]
    w = np.linalg.eigvalsh(a / n)
    lam_max = max(float(w[-1]), 0.0)
    if np.any(w < -DEFAULT_CLAMP_TOL * lam_max):
        raise NotPsdError("eigenvalue below -DEFAULT_CLAMP_TOL * lam_max: input is not PSD")
    w = np.where(w < 0, 0.0, w)
    return Spectrum(w[::-1], 0.0)


def synthetic_spectrum(kind: str, param, size: int | None = None) -> Spectrum:
    """Spectrum from a prescribed decay law.

    ``geometric``: lam_i = sigma**-i for i = 1..size, declared tail
    sigma**-size / (sigma - 1) (the exact remainder of the series).
    ``polynomial``: lam_i = i**-(1+p), declared tail size**-p / p (an upper
    bound on the true remainder).  ``explicit``: ``param`` is the value
    sequence, sorted descending, with zero tail.
    """
    if kind == "explicit":
        vals = np.sort(np.asarray(param, dtype=float))[::-1]
        if vals.size < 1:
            raise ValueError("explicit spectrum needs at least one value")
        if size is not None and size != vals.size:
            raise ValueError(f"size={size} disagrees with {vals.size} explicit values")
        return Spectrum(vals, 0.0)
    if size is None or size < 1:
        raise ValueError("size must be a positive integer")
    i = np.arange(1, size + 1, dtype=float)
    if kind == "geometric":
        sigma = float(param)
        if not sigma > 1:
            raise ValueError("geometric decay requires sigma > 1")
        return Spectrum(np.power(sigma, -i), float(sigma**-size / (sigma - 1)))
    if kind == "polynomial":
        p = float(param)
        if not p > 0:
            raise ValueError("polynomial decay requires p > 0")
        return Spectrum(np.power(i, -(1.0 + p)), float(size**-p / p))
    raise ValueError(f"unknown spectrum kind {kind!r}")

