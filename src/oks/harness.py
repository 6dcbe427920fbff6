"""Samplers, Monte Carlo estimators, and end-to-end validation experiments.

Reproducibility contract: every trial draws its randomness from a
counter-based Philox stream keyed by (master seed, trial index), and trial
results are reduced in trial order.  Serial and thread-parallel execution
(capped by the ``OKS_THREADS`` environment variable, 0 = serial) therefore
produce bit-identical estimates.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import IO, Callable, Iterable, Sequence, Union

import numpy as np

from .kernels import KernelSpec, gram, gram_cross, kernel_diag, log_det_psd, logdet_psd_stack
from .logvalue import LogValue
from .sparsifier import GrowthTrace, kstar_oracle, run_checkpoints, run_stream
from .symfun import Spectrum

__all__ = [
    "Sampler",
    "dataset_rows",
    "McEstimate",
    "NystromComparison",
    "mc_expected_gram_det",
    "mc_det_moment",
    "mc_kstar_tail",
    "growth_experiment",
    "nystrom_compare",
    "power_iteration_norm",
    "thread_count",
    "write_csv",
    "format_cell",
    "content_hash",
    "write_manifest",
]

_CHUNK = 2048
_MASTER_LANE = 0
_TRIAL_LANE_BASE = 1
_SUBSET_LANE = 2**62  # reserved stream for the Nystrom subset draw


def thread_count() -> int:
    """Worker cap from OKS_THREADS (0 or unset = serial)."""
    raw = os.environ.get("OKS_THREADS", "0")
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"OKS_THREADS must be an integer, got {raw!r}") from None
    return max(value, 0)


@dataclass(frozen=True)
class Sampler:
    """Declarative point source; (variant, seed) fixes the stream bit-for-bit.

    ``diag_gaussian`` emits points with coordinates sqrt(lam_i) * z_i for
    independent standard normal z_i, so that under the linear kernel the
    covariance operator's spectrum is exactly the given finite spectrum.
    ``gaussian_input`` emits scaled standard-normal points for use with any
    kernel.  ``dataset`` replays CSV rows of coordinates.
    """

    kind: str
    seed: int
    spectrum: Spectrum | None = None
    dim: int = 0
    scale: float = 1.0
    path: str | None = None

    @classmethod
    def diag_gaussian(cls, spectrum: Spectrum, seed: int) -> "Sampler":
        if spectrum.size < 1:
            raise ValueError("diag_gaussian needs at least one eigenvalue")
        if spectrum.declared_tail != 0:
            raise ValueError("diag_gaussian requires a finite spectrum (zero declared tail)")
        return cls("diag_gaussian", int(seed), spectrum=spectrum)

    @classmethod
    def gaussian_input(cls, dim: int, scale: float, seed: int) -> "Sampler":
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if not scale > 0:
            raise ValueError("scale must be positive")
        return cls("gaussian_input", int(seed), dim=int(dim), scale=float(scale))

    @classmethod
    def dataset(cls, path: str, seed: int = 0) -> "Sampler":
        return cls("dataset", int(seed), path=str(path))

    def dimension(self) -> int:
        if self.kind == "diag_gaussian":
            return self.spectrum.size
        if self.kind == "gaussian_input":
            return self.dim
        return dataset_rows(self.path).shape[1]

    def points(self, n: int, trial: int | None = None) -> np.ndarray:
        """First n points of the master stream, or of trial stream ``trial``."""
        if n < 0:
            raise ValueError("n must be >= 0")
        if self.kind == "dataset":
            rows = dataset_rows(self.path)
            start = 0 if trial is None else trial * n
            if start + n > rows.shape[0]:
                raise ValueError(
                    f"dataset {self.path!r} exhausted: need rows [{start}, {start + n})"
                )
            return rows[start : start + n].copy()
        rng = self._rng(trial)
        if self.kind == "diag_gaussian":
            z = rng.standard_normal((n, self.spectrum.size))
            return z * np.sqrt(self.spectrum.values)
        z = rng.standard_normal((n, self.dim))
        return z * self.scale

    def _rng(self, trial: int | None) -> np.random.Generator:
        lane = _MASTER_LANE if trial is None else _TRIAL_LANE_BASE + trial
        key = [self.seed & 0xFFFFFFFFFFFFFFFF, lane & 0xFFFFFFFFFFFFFFFF]
        return np.random.Generator(np.random.Philox(key=key))


def dataset_rows(path: str) -> np.ndarray:
    """Numeric rows of a dataset CSV (read-only), re-read whenever the file changes.

    Blank lines, ``#`` comments and one leading header row are skipped.
    """
    st = os.stat(path)
    return _parse_rows(path, st.st_mtime_ns, st.st_size)


@lru_cache(maxsize=8)
def _parse_rows(path: str, mtime_ns: int, size: int) -> np.ndarray:
    # mtime_ns and size only key the cache, so a rewritten file is parsed anew
    rows = []
    with open(path, "r", newline="") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            cells = line.split(",")
            try:
                rows.append([float(v) for v in cells])
            except ValueError:
                if rows:
                    raise ValueError(f"malformed row in {path!r}: {line!r}") from None
                continue  # tolerate one header row
    if not rows:
        raise ValueError(f"dataset {path!r} contains no numeric rows")
    out = np.array(rows)
    out.setflags(write=False)
    return out


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


def _run_chunked(trials: int, chunk_fn: Callable[[int, int], np.ndarray]) -> np.ndarray:
    """Evaluate per-trial values in chunks, serially or on a thread pool.

    Results land in a preallocated array indexed by trial, so the reduction
    order never depends on scheduling.
    """
    out = np.empty(trials, dtype=float)
    spans = [(s, min(s + _CHUNK, trials)) for s in range(0, trials, _CHUNK)]
    workers = thread_count()
    if workers > 1 and len(spans) > 1:
        def work(span):
            s, e = span
            out[s:e] = chunk_fn(s, e)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(work, spans))
    else:
        for s, e in spans:
            out[s:e] = chunk_fn(s, e)
    return out


def _estimate(values: np.ndarray) -> McEstimate:
    return McEstimate(
        mean=float(values.mean()),
        std_error=float(values.std(ddof=1) / math.sqrt(values.size)),
        trials=int(values.size),
    )


def _stacked_dets(sampler: Sampler, kernel: KernelSpec, k: int, s: int, e: int) -> np.ndarray:
    pts = np.stack([sampler.points(k, trial=t) for t in range(s, e)])
    ld = logdet_psd_stack(gram(kernel, pts))
    return ld  # log scale; exp(-inf) = 0 exactly for singular trials


def mc_expected_gram_det(
    sampler: Sampler, kernel: KernelSpec, k: int, trials: int
) -> McEstimate:
    """Monte Carlo estimate of E[det G_k] over k fresh points per trial.

    The determinant is reconstructed per trial as exp(log det), with singular
    trials contributing exactly 0.
    """
    _check_mc_args(k, trials)
    vals = _run_chunked(trials, lambda s, e: np.exp(_stacked_dets(sampler, kernel, k, s, e)))
    return _estimate(vals)


def mc_det_moment(
    sampler: Sampler, kernel: KernelSpec, k: int, m: int, trials: int
) -> McEstimate:
    """Monte Carlo estimate of E[(det G_k)^m] for m in {2, 3}."""
    _check_mc_args(k, trials)
    if not 2 <= m <= 3:
        raise ValueError("moment order m must be 2 or 3")
    vals = _run_chunked(
        trials, lambda s, e: np.exp(m * _stacked_dets(sampler, kernel, k, s, e))
    )
    return _estimate(vals)


def _check_mc_args(k: int, trials: int) -> None:
    if not 1 <= k <= 6:
        raise ValueError("k must lie in [1, 6]; the determinant variance explodes beyond")
    if trials < 1000:
        raise ValueError("need at least 1000 trials")


@lru_cache(maxsize=64)
def _subset_indices(n: int, j: int) -> np.ndarray:
    from itertools import combinations

    idx = np.array(list(combinations(range(n), j)), dtype=np.intp)
    idx.setflags(write=False)
    return idx


def mc_kstar_tail(
    sampler: Sampler, kernel: KernelSpec, alpha: float, n: int, k: int, trials: int
) -> McEstimate:
    """Fraction of trials whose n-point draw has kstar >= k, i.e. some subset
    of size j >= k with log det above j * log(alpha).

    Only the k-subsets are enumerated.  Diagonal pivoting of a PSD Gram
    matrix gives non-increasing pivots p_1 >= ... >= p_j whose product is its
    determinant, so a j-subset with det > alpha**j has p_1 ... p_k > alpha**k,
    and the points behind its first k pivots form a k-subset that passes.
    Hence kstar >= k iff some k-subset passes.  The enumeration is
    vectorized across the chunk, with the determinant path and the strict
    comparison of :func:`oks.sparsifier.kstar_oracle`.
    """
    if not 1 <= n <= 10:
        raise ValueError("n must lie in [1, 10] for per-trial subset enumeration")
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if trials < 2:
        raise ValueError("need at least 2 trials")
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    log_alpha = math.log(alpha)

    def chunk(s: int, e: int) -> np.ndarray:
        pts = np.stack([sampler.points(n, trial=t) for t in range(s, e)])
        g = gram(kernel, pts)
        idx = _subset_indices(n, k)
        ld = logdet_psd_stack(g[:, idx[:, :, None], idx[:, None, :]])
        return np.any(ld > k * log_alpha, axis=-1).astype(float)

    return _estimate(_run_chunked(trials, chunk))


def growth_experiment(
    sampler: Sampler,
    kernel: KernelSpec,
    alpha: float,
    n_max: int,
    checkpoints: Iterable[int],
) -> GrowthTrace:
    """Stream n_max sampled points through a dictionary, recording at checkpoints."""
    if not 1 <= n_max <= 100_000:
        raise ValueError("n_max must lie in [1, 100000]")
    marks = sorted({int(c) for c in checkpoints} | {n_max})
    return run_checkpoints(kernel, alpha, sampler.points(n_max), marks)[1]


@dataclass(frozen=True)
class NystromComparison:
    """Projection-approximation quality of the streaming dictionary versus a
    uniformly random subset of equal size.

    ``log_det_oks`` is the dictionary's own incremental log-determinant (the
    sum of log admitted residuals), so ``log_det_oks > oks_size * log(alpha)``
    holds by construction, even when alpha sits near the float64 floor.
    ``log_det_nystrom`` is the dense pivoted value of :func:`log_det_psd` on
    the random subset's Gram matrix; ``-inf`` there means the subset is
    singular at ``DEFAULT_PIVOT_TOL`` relative to its largest diagonal entry.
    """

    oks_size: int
    log_det_oks: LogValue
    log_det_nystrom: LogValue
    entrywise_err_oks: float
    entrywise_err_nystrom: float
    spectral_err_oks: float
    spectral_err_nystrom: float
    entrywise_bound: float
    nystrom_clamped: int  # eigendirections tol-clamped when inverting the random subset's Gram


def power_iteration_norm(a: np.ndarray, max_iter: int = 200, rtol: float = 1e-9) -> float:
    """Spectral norm of a symmetric matrix by power iteration.

    Stops after ``max_iter`` steps or when the Rayleigh quotient changes by
    less than ``rtol`` relatively, whichever comes first; deterministic
    (fixed start vector).
    """
    n = a.shape[0]
    if n == 0:
        return 0.0
    v = np.full(n, 1.0 / math.sqrt(n))
    rho = 0.0
    for _ in range(max_iter):
        w = a @ v
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            return 0.0
        rho_new = float(v @ w)
        v = w / norm
        if abs(rho_new - rho) <= rtol * abs(rho_new):
            rho = rho_new
            break
        rho = rho_new
    return abs(rho)


def _projection_gram(
    kernel: KernelSpec, pts: np.ndarray, sub: np.ndarray, tol: float = 1e-12
) -> tuple[np.ndarray, int]:
    """Gram of the projections onto span(sub): K_ns K_ss^+ K_sn.

    The subset Gram inverse is tol-pivoted through its eigendecomposition;
    the number of clamped directions is reported.
    """
    n = pts.shape[0]
    if sub.shape[0] == 0:
        return np.zeros((n, n)), 0
    k_ns = gram_cross(kernel, pts, sub)
    k_ss = gram(kernel, sub)
    w, vecs = np.linalg.eigh(k_ss)
    keep = w > tol * max(float(w[-1]), 0.0)
    clamped = int(w.size - keep.sum())
    basis = k_ns @ vecs[:, keep]
    ghat = (basis / w[keep]) @ basis.T
    return 0.5 * (ghat + ghat.T), clamped


def nystrom_compare(
    sampler: Sampler, kernel: KernelSpec, alpha: float, n: int
) -> NystromComparison:
    """Build the streaming dictionary on n points, draw a random subset of the
    same size, and compare both projection approximations of the full Gram."""
    if not 1 <= n <= 3000:
        raise ValueError("n must lie in [1, 3000] (dense n x n work)")
    pts = sampler.points(n)
    d, _ = run_stream(kernel, alpha, pts)
    size = len(d)
    sub_rng = np.random.Generator(
        np.random.Philox(key=[sampler.seed & 0xFFFFFFFFFFFFFFFF, _SUBSET_LANE])
    )
    rand_idx = np.sort(sub_rng.choice(n, size=size, replace=False))
    g = gram(kernel, pts)

    ghat_oks, _ = _projection_gram(kernel, pts, d.members)
    ghat_nys, clamped = _projection_gram(kernel, pts, pts[rand_idx])
    err_oks = g - ghat_oks
    err_nys = g - ghat_nys
    bound = 2.0 * math.sqrt(float(kernel_diag(kernel, pts).max())) * math.sqrt(alpha)
    return NystromComparison(
        oks_size=size,
        log_det_oks=d.log_det,
        log_det_nystrom=log_det_psd(gram(kernel, pts[rand_idx])),
        entrywise_err_oks=float(np.abs(err_oks).max()),
        entrywise_err_nystrom=float(np.abs(err_nys).max()),
        spectral_err_oks=power_iteration_norm(err_oks),
        spectral_err_nystrom=power_iteration_norm(err_nys),
        entrywise_bound=bound,
        nystrom_clamped=clamped,
    )


# ---------------------------------------------------------------------------
# experiment persistence: CSV bodies plus a JSON run manifest

def format_cell(value) -> str:
    """Stable text form: full-precision repr for floats, plain str otherwise.

    Strings containing a comma, quote, or newline are quoted CSV-style.
    """
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
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
