"""Elementary symmetric polynomials over eigenvalue spectra, in log domain.

The scaled convention is used throughout:

    nu(n, k) = k! * sum over k-subsets of {1..n} of products of eigenvalues,

i.e. the plain elementary symmetric polynomial times k!.  These quantities
decay super-exponentially in k, so every routine here carries them as logs
(``LOG_ZERO`` for an exact zero).  Zero eigenvalues are permitted and
propagate as exact zeros through the recursion.

A truncated spectrum may declare an upper bound on the discarded tail mass;
:func:`tail_sum` folds it in so decay bounds computed from a truncation stay
valid upper bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import IO, Iterable, Iterator, Union

import numpy as np

from .logvalue import LOG_ZERO, LogValue, is_log_zero, log_binomial, log_factorial

__all__ = [
    "Spectrum",
    "nu_rows",
    "log_nu_row",
    "log_nu",
    "esp_brute",
    "tail_sum",
    "decay_bound",
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


def nu_rows(chunks: Iterable[np.ndarray], k_max: int | None = None) -> Iterator[np.ndarray]:
    """Yield the rows log nu(n, .) for n = 0, 1, 2, ... over eigenvalues fed in chunks.

    One rolling row is advanced in place by the two-term log-sum
    nu(n, k) = nu(n-1, k) + k * lam_n * nu(n-1, k-1), so n values cost
    O(n * min(n, k_max)) work and one row of memory.  Entry k of a yielded
    row is log nu(n, k) for every k it holds: column 0 is log 1 = 0 and
    columns beyond n are the zero state.  With ``k_max`` the row holds
    columns 0..k_max; without it, at least 0..n (it grows as values arrive).
    The row is overwritten by the next step, so copy it to keep it.  Each
    entry is computed elementwise, so it depends neither on ``k_max`` nor on
    how the values are split into chunks.
    """
    if k_max is not None and k_max < 0:
        raise ValueError("k_max must be >= 0")
    cap = 0 if k_max is None else k_max
    row = np.full(cap + 1, LOG_ZERO)
    row[0] = 0.0
    logk = np.log(np.arange(1, cap + 1, dtype=float))
    yield row
    n = 0
    for chunk in chunks:
        with np.errstate(divide="ignore"):
            loglam = np.log(np.asarray(chunk, dtype=float))
        for loglam_n in loglam:
            n += 1
            m = n if k_max is None else min(n, k_max)
            if m > cap:
                cap = 2 * m
                row = np.concatenate([row, np.full(cap + 1 - row.size, LOG_ZERO)])
                logk = np.log(np.arange(1, cap + 1, dtype=float))
            row[1 : m + 1] = np.logaddexp(row[1 : m + 1], logk[:m] + loglam_n + row[:m])
            yield row


def log_nu_row(spec: Spectrum, k_max: int) -> np.ndarray:
    """log nu(0..k_max) over the retained values of ``spec`` (tail excluded).

    Entries beyond the spectrum length are the zero state.
    """
    for row in nu_rows([spec.values], k_max):
        pass
    return row


def log_nu(spec: Spectrum, k: int) -> LogValue:
    """log nu(k) over the retained values of ``spec`` (tail excluded)."""
    return float(log_nu_row(spec, k)[k]) if k <= spec.size else LOG_ZERO


def esp_brute(spec: Spectrum, k: int) -> LogValue:
    """Subset-enumeration oracle for log nu(k); independent of the recursion.

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
    return float(log_factorial(k) + _logsumexp(np.array(terms)))


def _logsumexp(a: np.ndarray) -> float:
    """log(sum(exp(a))) of a 1-D array, rounded as ``scipy.special.logsumexp``
    rounds it: the m terms equal to the max leave the shifted sum."""
    a_max = a.max()
    if a_max == LOG_ZERO:
        return LOG_ZERO
    top = a == a_max
    m = float(top.sum())
    s = np.exp(np.where(top, LOG_ZERO, a) - a_max).sum()
    if s != 0:
        s = s / m
    return np.log1p(s) + np.log(m) + a_max


def tail_sum(spec: Spectrum, k: int) -> float:
    """Mass beyond index k: sum of values[k:] plus the declared tail."""
    if not 0 <= k <= spec.size:
        raise ValueError(f"k={k} outside [0, {spec.size}]")
    return float(spec.values[k:].sum() + spec.declared_tail)


def decay_bound(log_nu_k: LogValue, k: int, s: int, lambda_tail_k: float) -> LogValue:
    """Upper bound on log nu(k+s) from log nu(k) and the tail mass beyond k.

        bound = log nu(k) + s * log(tail) + log C(k+s, k)

    A zero tail with s >= 1 forces nu(k+s) = 0 exactly.
    """
    if k < 0 or s < 0:
        raise ValueError("k and s must be nonnegative integers")
    if not (math.isfinite(lambda_tail_k) and lambda_tail_k >= 0):
        raise ValueError("lambda_tail_k must be finite and nonnegative")
    if s == 0:
        return float(log_nu_k)
    if lambda_tail_k == 0 or is_log_zero(log_nu_k):
        return LOG_ZERO
    return float(log_nu_k + s * math.log(lambda_tail_k) + log_binomial(k + s, k))


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
