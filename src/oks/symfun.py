"""Elementary symmetric polynomials over eigenvalue spectra, in log domain.

The scaled convention is used throughout:

    nu(n, k) = k! * sum over k-subsets of {1..n} of products of eigenvalues,

i.e. the plain elementary symmetric polynomial times k!.  These quantities
decay super-exponentially in k, so every routine here carries them as logs
(``LOG_ZERO`` for an exact zero).  Zero eigenvalues are permitted and
propagate as exact zeros through the recursion.

A truncated spectrum may declare an upper bound on the discarded tail mass;
:func:`tail_sum` adds it to the retained values beyond an index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Iterator, Union

import numpy as np

from .logvalue import LOG_ZERO, LogValue, log_factorial

__all__ = [
    "Spectrum",
    "nu_rows",
    "log_nu_row",
    "log_nu",
    "tail_sum",
    "nu_geometric",
]


@dataclass(frozen=True)
class Spectrum:
    """Descending nonnegative eigenvalue sequence with declared tail mass.

    ``declared_tail`` is an upper bound on the mass of the truncated part
    (0 for a genuinely finite spectrum).
    """

    values: np.ndarray
    declared_tail: float = 0.0

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1:
            raise ValueError("spectrum values must be a 1-D sequence")
        if not np.all(np.isfinite(v)):
            raise ValueError("spectrum values must be finite")
        if v.size and v[-1] < 0:
            raise ValueError("spectrum values must be nonnegative")
        if np.any(v[:-1] < v[1:]):
            raise ValueError("spectrum values must be sorted descending")
        tail = float(self.declared_tail)
        if not (math.isfinite(tail) and tail >= 0):
            raise ValueError("declared_tail must be finite and nonnegative")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "declared_tail", tail)

    @property
    def size(self) -> int:
        return int(self.values.size)

    def to_csv(self, target: Union[str, IO[str]]) -> None:
        """One eigenvalue per row, descending, with a ``# tail=`` header when nonzero."""
        if isinstance(target, str):
            with open(target, "w", newline="") as fh:
                self.to_csv(fh)
            return
        if self.declared_tail:
            target.write(f"# tail={self.declared_tail!r}\n")
        for v in self.values:
            target.write(f"{float(v)!r}\n")

    @classmethod
    def from_csv(cls, path: str) -> "Spectrum":
        """The spectrum :meth:`to_csv` wrote to ``path``."""
        tail = 0.0
        vals = []
        with open(path, "r", newline="") as fh:
            lines = [raw.strip() for raw in fh]
        for line in lines:
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                key, sep, value = body.partition("=")
                if key.strip() != "tail" or not sep:
                    raise ValueError(f"unrecognized spectrum header {line!r}")
                tail = float(value)
                continue
            vals.append(float(line))
        return cls(np.array(vals, dtype=float), tail)


def nu_rows(values: np.ndarray, k_max: int) -> Iterator[np.ndarray]:
    """Yield the rows log nu(n, 0..k_max) for n = 0, 1, ..., len(values).

    One rolling row is advanced in place by the two-term log-sum
    nu(n, k) = nu(n-1, k) + k * lam_n * nu(n-1, k-1), so n values cost
    O(n * min(n, k_max)) work, one row of k_max + 1 entries and one scratch
    term of k_max entries, with no array allocated per step.  Entry k of a
    yielded row is log nu(n, k): column 0 is log 1 = 0 and columns beyond n
    are the zero state.  The row is overwritten by the next step, so copy it
    to keep it.  Each entry is computed elementwise from columns <= k, so it
    does not depend on ``k_max``.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    row = np.full(k_max + 1, LOG_ZERO)
    row[0] = 0.0
    logk = np.log(np.arange(1, k_max + 1, dtype=float))
    term = np.empty(k_max)  # scratch for each step's second term
    yield row
    with np.errstate(divide="ignore"):
        loglam = np.log(np.asarray(values, dtype=float))
    for n, loglam_n in enumerate(loglam, 1):
        m = min(n, k_max)
        t = term[:m]
        np.add(logk[:m], loglam_n, out=t)
        t += row[:m]
        np.logaddexp(row[1 : m + 1], t, out=row[1 : m + 1])
        yield row


def log_nu_row(spec: Spectrum, k_max: int) -> np.ndarray:
    """log nu(0..k_max) over the retained values of ``spec`` (tail excluded).

    Entries beyond the spectrum length are the zero state.
    """
    for row in nu_rows(spec.values, k_max):
        pass
    return row


def log_nu(spec: Spectrum, k: int) -> LogValue:
    """log nu(k) over the retained values of ``spec`` (tail excluded)."""
    return float(log_nu_row(spec, k)[k]) if k <= spec.size else LOG_ZERO


def tail_sum(spec: Spectrum, k: int) -> float:
    """Mass beyond index k: sum of values[k:] plus the declared tail."""
    if not 0 <= k <= spec.size:
        raise ValueError(f"k={k} outside [0, {spec.size}]")
    return float(spec.values[k:].sum() + spec.declared_tail)


def nu_geometric(sigma: float, k: int) -> LogValue:
    """log nu(k) for the exact infinite geometric spectrum lam_i = sigma**-i, i >= 1.

    Closed form: log k! - sum_{i=1..k} log(sigma**i - 1).  Note the indexing
    convention: with the leading eigenvalue sigma**-1 (i starting at 1) the
    subset-enumeration oracle reproduces exactly this value; a convention
    starting at i = 0 would multiply nu(k) by sigma**k.  Both share the
    asymptotic -(k^2/2) log sigma + log k! + O(k).
    """
    if not sigma > 1:
        raise ValueError("sigma must exceed 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    i = np.arange(1, k + 1, dtype=float)
    # log(sigma**i - 1) = i*log(sigma) + log(1 - sigma**-i), overflow-free
    log_terms = i * math.log(sigma) + np.log1p(-np.power(sigma, -i))
    return float(log_factorial(k) - log_terms.sum())
