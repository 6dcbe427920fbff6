"""Samplers, Monte Carlo estimators, validation experiments, and CSV/JSON persistence.

Reproducibility contract: trial t draws its randomness from the Philox stream
keyed [seed, 1 + t] (seed taken mod 2**64) with counter 0 and an empty output
buffer, i.e. from a fresh ``Generator(Philox(key=[seed, 1 + t]))``.  The master
stream is lane 0 and the Nystrom subset's lane is 2**62, so t lies in
[0, 2**62 - 1).  Each trial's value is computed on its own, and the values are
reduced in trial order.  Estimates are therefore bit-identical across runs and
whatever the chunk size that bounds the memory of one batch of trials.
Every Monte Carlo estimator is a function of the log-determinants of the
C(n, j) j-subset Gram matrices of each trial's n points.  A chunk holds as
many trials as keep its subset stack within ``_SPAN_DOUBLES`` doubles, and at
most ``_CHUNK`` (one trial's stack, at most 6300 doubles for n <= 10, always
fits), so that constant bounds the memory of the subset work.

A batch of trials re-keys one Philox per trial instead of building one per
trial.  That equals a fresh generator because a Philox's whole state is its
counter, key and output buffer (with its buffered half-word), all of which
are reset, and a ``Generator`` keeps no state of its own.  The state dict
assigned for each lane is the one a fresh Philox reports, with its counter,
key and buffer arrays turned into lists of plain ints once: the setter then
converts Python ints rather than numpy scalars, which takes more than half
off each re-key, and it receives the same values, so every draw is unchanged.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import IO, Callable, Iterable, Iterator, Sequence, Union

import numpy as np

# gram_cross is unused here; bench/selftest.py checks the tracer wraps this binding
from .kernels import KernelSpec, gram, gram_cross, logdet_psd_stack  # noqa: F401
from .logvalue import LogValue
from .sparsifier import Dictionary
from .symfun import Spectrum

__all__ = [
    "Sampler",
    "McEstimate",
    "NystromComparison",
    "mc_det_moment",
    "mc_kstar_tail",
    "nystrom_compare",
    "power_iteration_norm",
    "read_table",
    "dataset_rows",
    "save_dictionary",
    "load_dictionary",
    "write_csv",
    "format_cell",
    "content_hash",
    "write_manifest",
]

_CHUNK = 2048
# 4 MiB: numpy madvises huge pages only from 4 MiB up, and smaller subset
# stacks fault in 4 KiB pages anew for every chunk
_SPAN_DOUBLES = 2**19
_MASTER_LANE = 0
_TRIAL_LANE_BASE = 1
_SUBSET_LANE = 2**62  # reserved stream for the Nystrom subset draw
_TRIAL_STOP = _SUBSET_LANE - _TRIAL_LANE_BASE  # trial indices lie in [0, _TRIAL_STOP)
_U64 = 0xFFFFFFFFFFFFFFFF


def _streams(seed: int, lanes: Iterable[int]) -> Iterator[np.random.Generator]:
    """For each lane in turn, a generator in the state of a fresh
    ``Generator(Philox(key=[seed, lane]))``: one Philox, re-keyed per lane."""
    bits = np.random.Philox(key=np.array([seed & _U64, 0], np.uint64))
    state = bits.state  # fresh: counter 0, empty buffer, no buffered half-word
    state["state"] = {name: words.tolist() for name, words in state["state"].items()}
    state["buffer"] = state["buffer"].tolist()
    key = state["state"]["key"]
    gen = np.random.Generator(bits)
    for lane in lanes:
        key[1] = lane
        bits.state = state  # copies the values, so the dict is reused
        yield gen


def _trial_range(trial: int | range) -> range:
    """The trials as a step-1 range, each of which must have a lane of its own."""
    if isinstance(trial, range):
        if trial.step != 1:
            raise ValueError("a range of trials must have step 1")
    else:
        trial = range(trial, trial + 1)
    if trial.start < 0 or trial.stop > _TRIAL_STOP:
        raise ValueError(f"trial indices must lie in [0, {_TRIAL_STOP})")
    return trial


@dataclass(frozen=True)
class Sampler:
    """Declarative point source; (variant, seed) fixes the stream bit-for-bit.

    The Gaussian kinds emit points with coordinates ``scales[i] * z_i`` for
    independent standard normal z_i.  ``diag_gaussian`` takes the scales
    sqrt(lam_i), so that under the linear kernel the covariance operator's
    spectrum is exactly the given finite spectrum; ``gaussian_input`` takes
    one scale for every coordinate, for use with any kernel.  ``dataset``
    replays CSV rows of coordinates.
    """

    kind: str
    seed: int
    scales: tuple[float, ...] = ()
    path: str | None = None

    @classmethod
    def diag_gaussian(cls, spectrum: Spectrum, seed: int) -> "Sampler":
        if spectrum.size < 1:
            raise ValueError("diag_gaussian needs at least one eigenvalue")
        if spectrum.declared_tail != 0:
            raise ValueError("diag_gaussian requires a finite spectrum (zero declared tail)")
        return cls("diag_gaussian", int(seed), scales=tuple(np.sqrt(spectrum.values).tolist()))

    @classmethod
    def gaussian_input(cls, dim: int, scale: float, seed: int) -> "Sampler":
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if not 0 < scale < math.inf:
            raise ValueError("scale must be positive and finite")
        return cls("gaussian_input", int(seed), scales=(float(scale),) * int(dim))

    @classmethod
    def dataset(cls, path: str, seed: int = 0) -> "Sampler":
        return cls("dataset", int(seed), path=str(path))

    def points(self, n: int, trial: int | range | None = None) -> np.ndarray:
        """First n points of the master stream or of trial stream ``trial``;
        for a range of trials, their points stacked as (len(trial), n, dim)."""
        if n < 0:
            raise ValueError("n must be >= 0")
        if trial is None:
            blocks, lanes = range(1), range(_MASTER_LANE, _MASTER_LANE + 1)
        else:
            blocks = _trial_range(trial)
            lanes = range(_TRIAL_LANE_BASE + blocks.start, _TRIAL_LANE_BASE + blocks.stop)
        if self.kind == "dataset":
            z = self._rows(n, blocks)
        else:
            z = np.empty((len(lanes), n, len(self.scales)))
            for out, gen in zip(z, _streams(self.seed, lanes)):
                gen.standard_normal(out=out)
            z *= self.scales
        return z if isinstance(trial, range) else z[0]

    def _rows(self, n: int, blocks: range) -> np.ndarray:
        # trial t replays rows [t * n, (t + 1) * n)
        rows = dataset_rows(self.path)
        if n and blocks and blocks.stop * n > rows.shape[0]:
            start = max(blocks.start, rows.shape[0] // n) * n  # the first trial to run out
            raise ValueError(f"dataset {self.path!r} exhausted: need rows [{start}, {start + n})")
        z = rows[blocks.start * n : blocks.stop * n]
        return z.reshape(len(blocks), n, rows.shape[1]).copy()


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo mean with standard error (sample std / sqrt(trials))."""

    mean: float
    std_error: float
    trials: int

    def __post_init__(self) -> None:
        if self.trials < 2:
            raise ValueError("an estimate needs at least two trials")
        if not self.std_error >= 0:
            raise ValueError("std_error must be nonnegative")


def _mc(sampler: Sampler, kernel: KernelSpec, n: int, j: int, trials: int,
        value: Callable[[np.ndarray], np.ndarray]) -> McEstimate:
    """Mean and standard error of ``value`` over trials, each on the
    log-determinants of the C(n, j) j-subset Gram matrices of n points of its
    own trial stream.

    Trials run in chunks: ``value`` maps a chunk's log-determinants, one row
    of C(n, j) per trial, to one value per trial.  A chunk holds as many
    trials as fit their subset stack in ``_SPAN_DOUBLES`` doubles, at least
    one and at most ``_CHUNK``.  Its memory peaks at that stack, its Cholesky
    factor and the logs of the factor's diagonal (1/j of a stack): 2.24
    stacks at j = 5 by tracemalloc.  The chunks only bound the memory of one
    batch; each trial's value does not depend on which chunk holds it.
    """
    idx = np.array(list(combinations(range(n), j)), dtype=np.intp)
    chunk = max(1, min(_CHUNK, _SPAN_DOUBLES // (len(idx) * j * j)))
    out = np.empty(trials, dtype=float)
    for s in range(0, trials, chunk):
        e = min(s + chunk, trials)
        g = gram(kernel, sampler.points(n, trial=range(s, e)))
        # ld stays bound until the next chunk's: freed within the statement,
        # it let the stacks' pages go back to the system, to fault in anew
        # every chunk
        ld = logdet_psd_stack(g[:, idx[:, :, None], idx[:, None, :]])
        out[s:e] = value(ld)
    return McEstimate(float(out.mean()), float(out.std(ddof=1) / math.sqrt(trials)), trials)


def mc_det_moment(
    sampler: Sampler, kernel: KernelSpec, k: int, m: int, trials: int
) -> McEstimate:
    """Monte Carlo estimate of E[(det G_k)^m] over k fresh points per trial,
    for m in {1, 2, 3}; m = 1 is the paper's E[det G_k] = nu(k).

    Each trial's value is exp(m * log det G_k), so a singular trial
    contributes exactly 0.
    """
    if not 1 <= k <= 6:
        raise ValueError("k must lie in [1, 6]; the determinant variance explodes beyond")
    if trials < 1000:
        raise ValueError("need at least 1000 trials")
    if not 1 <= m <= 3:
        raise ValueError("moment order m must be 1, 2 or 3")
    return _mc(sampler, kernel, k, k, trials, lambda ld: np.exp(m * ld[:, 0]))


def mc_kstar_tail(
    sampler: Sampler, kernel: KernelSpec, alpha: float, n: int, k: int, trials: int
) -> McEstimate:
    """Fraction of trials whose n-point draw has kstar >= k, testing the
    k-subsets only.  kstar is the largest j for which some j-subset A of the
    draw has det G(A) > alpha**j (0 when no subset of any size does).

    Diagonal pivoting of a PSD Gram matrix gives non-increasing pivots
    p_1 >= ... >= p_j whose product is its determinant, so a j-subset with
    det > alpha**j has p_1 ... p_k > alpha**k, and the points behind its
    first k pivots form a k-subset that passes.  Hence kstar >= k iff some
    k-subset passes.
    """
    if not 1 <= n <= 10:
        raise ValueError("n must lie in [1, 10] for per-trial subset enumeration")
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if trials < 2:
        raise ValueError("need at least 2 trials")
    if not 0 < alpha < math.inf:
        raise ValueError("alpha must be positive and finite")
    log_alpha = math.log(alpha)
    return _mc(sampler, kernel, n, k, trials, lambda ld: np.any(ld > k * log_alpha, axis=-1))


@dataclass(frozen=True)
class NystromComparison:
    """Projection-approximation quality of the streaming dictionary versus a
    uniformly random subset of equal size.

    ``log_det_oks`` is the dictionary's own incremental log-determinant (the
    sum of log admitted residuals), so ``log_det_oks > oks_size * log(alpha)``
    holds by construction, even when alpha sits near the float64 floor.
    ``log_det_nystrom`` is :func:`logdet_psd_stack` of the random subset's
    Gram matrix: its Cholesky value where that certifies, else the value of
    the pivoted elimination; ``-inf`` there means the subset is singular at
    ``DEFAULT_PIVOT_TOL`` relative to its largest diagonal entry.

    Each approximation of the Gram matrix G of the points X is G_hat = F^T F:
    F = L^-1 K(D, X) from the dictionary's factor L, and F = W^-1/2 V^T K(S, X)
    over the eigenpairs (W, V) of K(S, S) above 1e-12 of the largest (the
    others count in ``nystrom_clamped``).  E = G - G_hat is PSD, so each
    ``entrywise_err`` is max_i E_ii, and each ``spectral_err`` is
    :func:`power_iteration_norm` of the operator v -> G v - F^T (F v).
    """

    oks_size: int
    log_det_oks: LogValue
    log_det_nystrom: LogValue
    entrywise_err_oks: float
    entrywise_err_nystrom: float
    spectral_err_oks: float
    spectral_err_nystrom: float
    entrywise_bound: float
    nystrom_clamped: int


def power_iteration_norm(a) -> float:
    """Spectral norm of a symmetric matrix, or of any operator with ``.shape``
    and ``@``, by power iteration.

    Stops after 200 steps or when the Rayleigh quotient changes by less than
    1e-9 relatively, whichever comes first; deterministic (fixed start
    vector).
    """
    n = a.shape[0]
    if n == 0:
        return 0.0
    v = np.full(n, 1.0 / math.sqrt(n))
    rho = 0.0
    for _ in range(200):
        w = a @ v
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            return 0.0
        rho, rho_old = float(v @ w), rho
        v = w / norm
        if abs(rho - rho_old) <= 1e-9 * abs(rho):
            break
    return abs(rho)


class _LowRankError:
    """E = G - F^T F as the operator v -> G v - F^T (F v), never formed.  E is
    PSD, so |E_ij| <= sqrt(E_ii E_jj) puts its largest entry on the diagonal."""

    def __init__(self, g: np.ndarray, f: np.ndarray):
        self.g, self.f, self.shape = g, f, g.shape

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        return self.g @ v - self.f.T @ (self.f @ v)

    def norms(self) -> tuple[float, float]:
        """Largest entry (clamped at 0 against rounding) and spectral norm."""
        diag = self.g.diagonal() - np.einsum("ij,ij->j", self.f, self.f)
        return max(float(diag.max()), 0.0), power_iteration_norm(self)


def nystrom_compare(
    sampler: Sampler, kernel: KernelSpec, alpha: float, n: int
) -> NystromComparison:
    """Build the streaming dictionary on n points, draw a random subset of the
    same size, and compare both projection approximations of the full Gram."""
    from scipy import linalg

    if not 1 <= n <= 3000:
        raise ValueError("n must lie in [1, 3000] (dense n x n work)")
    pts = sampler.points(n)
    d = Dictionary(kernel, alpha)
    at = np.flatnonzero(d.extend(pts) > d.alpha)  # the members' rows, in admission order
    (rng,) = _streams(sampler.seed, [_SUBSET_LANE])
    picked = rng.choice(n, size=len(d), replace=False)
    sub = np.sort(picked)
    g = gram(kernel, pts)
    f_oks = linalg.solve_triangular(d.factor, g[at], lower=True)
    k_ss = g[np.ix_(sub, sub)]
    w, vecs = np.linalg.eigh(k_ss)
    keep = w > 1e-12 * w.max(initial=0.0)
    f_nys = (vecs[:, keep] / np.sqrt(w[keep])).T @ g[sub]
    (e_oks, s_oks), (e_nys, s_nys) = (_LowRankError(g, f).norms() for f in (f_oks, f_nys))
    return NystromComparison(
        oks_size=len(d), log_det_oks=d.log_det, log_det_nystrom=logdet_psd_stack(k_ss),
        entrywise_err_oks=e_oks, entrywise_err_nystrom=e_nys,
        spectral_err_oks=s_oks, spectral_err_nystrom=s_nys,
        entrywise_bound=2.0 * math.sqrt(float(g.diagonal().max())) * math.sqrt(alpha),
        nystrom_clamped=int(w.size - keep.sum()),
    )


# ---------------------------------------------------------------------------
# persistence: numeric CSV tables, dictionary snapshots, and experiment CSV
# bodies plus a JSON run manifest

def read_table(path: str) -> tuple[tuple[str, ...], np.ndarray]:
    """Header cells and numeric rows (read-only) of a CSV table, re-read
    whenever the file changes.

    Blank lines and ``#`` comments are skipped.  The first non-numeric row is
    the header (``()`` when there is none) and a later one is malformed.
    Every row, the header included, is as wide as the first, and every
    numeric cell is finite.
    """
    st = os.stat(path)
    return _read_table(path, st.st_mtime_ns, st.st_size)


@lru_cache(maxsize=8)
def _read_table(path: str, mtime_ns: int, size: int) -> tuple[tuple[str, ...], np.ndarray]:
    # mtime_ns and size only key the cache, so a rewritten file is parsed anew
    header, rows, width = (), [], 0
    with open(path, "r", newline="") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            cells = line.split(",")
            width = width or len(cells)
            if len(cells) != width:
                raise ValueError(
                    f"ragged table {path!r}: a row has {len(cells)} cells, the first row {width}"
                )
            try:
                row = [float(v) for v in cells]
            except ValueError:
                if rows or header:
                    raise ValueError(f"malformed row in {path!r}: {line!r}") from None
                header = tuple(c.strip() for c in cells)
                continue
            if not all(map(math.isfinite, row)):
                raise ValueError(f"non-finite cell in {path!r}: {line!r}")
            rows.append(row)
    out = np.array(rows).reshape(len(rows), width)
    out.setflags(write=False)
    return header, out


def dataset_rows(path: str) -> np.ndarray:
    """Numeric rows of a dataset table (read-only); see :func:`read_table`."""
    rows = read_table(path)[1]
    if not len(rows):
        raise ValueError(f"dataset {path!r} contains no numeric rows")
    return rows


def _sidecar_path(csv_path: str) -> str:
    return os.path.splitext(csv_path)[0] + ".json"


def save_dictionary(d: Dictionary, csv_path: str) -> None:
    """Snapshot: member coordinates as a table under the header x0, x1, ...,
    plus a JSON sidecar with the kernel spec, alpha, size and log-determinant.

    The sidecar's path is ``csv_path`` with its suffix swapped for ``.json``
    (``run.dict.csv`` -> ``run.dict.json``).
    """
    members = d.members
    write_csv(csv_path, [f"x{i}" for i in range(members.shape[1])], members)
    _write_json(_sidecar_path(csv_path), {
        "kernel": d.kernel.to_text(),
        "alpha": d.alpha,
        "size": len(d),
        "log_det": d.log_det,
    })


def load_dictionary(csv_path: str) -> Dictionary:
    """Rebuild a dictionary from a snapshot by replaying the admissions.

    Every stored member must re-admit (the member sequence is
    alpha-compatible by construction); a failure indicates a corrupt
    snapshot.
    """
    with open(_sidecar_path(csv_path)) as fh:
        sidecar = json.load(fh)
    header, members = read_table(csv_path)
    if header[:1] != ("x0",):
        raise ValueError("dictionary snapshot is missing its header row")
    d = Dictionary(KernelSpec.from_text(sidecar["kernel"]), float(sidecar["alpha"]))
    d.extend(members)
    if len(d) != len(members):
        raise ValueError("snapshot member failed to re-admit; file is corrupt")
    if len(d) != int(sidecar["size"]):
        raise ValueError("snapshot size disagrees with sidecar")
    return d


def format_cell(value) -> str:
    """Stable text form: full-precision repr for floats, "" for None, plain str otherwise.

    Strings containing a comma, quote, or newline are quoted CSV-style.
    """
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    text = str(value)
    if any(c in text for c in ',"\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_csv(target: Union[str, IO[str]], header: Sequence[str], rows: Iterable[Sequence]) -> None:
    if isinstance(target, str):
        with open(target, "w", newline="") as fh:
            write_csv(fh, header, rows)
        return
    target.write(",".join(format_cell(h) for h in header) + "\n")
    for row in rows:
        target.write(",".join(format_cell(v) for v in row) + "\n")


def content_hash(params: dict, input_paths: Sequence[str] = ()) -> str:
    """sha256 over the canonical parameter text and raw input file bytes."""
    h = hashlib.sha256()
    h.update(json.dumps(params, sort_keys=True, default=str).encode())
    for path in input_paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def write_manifest(
    path: str,
    subcommand: str,
    params: dict,
    seed: int | None,
    input_paths: Sequence[str] = (),
    wall_time_s: float = 0.0,
) -> None:
    payload = {
        "subcommand": subcommand,
        "params": params,
        "seed": seed,
        "input_hash": content_hash(params, input_paths),
        "wall_time_s": wall_time_s,
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        # a multi-threaded BLAS may change the last digits of float cells
        "threads": {
            **{v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "cpu_count": os.cpu_count(),
        },
    }
    _write_json(path, payload)


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
