"""The benchmark's workloads: legs, their inputs, and the checks on their outputs.

A workload is a list of legs. A leg is one user-level task, made of one or
more in-process calls to ``oks.cli.main`` or to the public ``oks`` API, whose
wall time is the leg's time to solution. Every leg returns a flat result
(column name -> list of values) that is compared with the stored reference
for its seed and checked against invariants that hold for any seed.

Leg sizes come in two profiles: ``full`` for measurements and ``tiny`` for the
benchmark's own tests.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oks
import oks.cli
from oks.regress import write_labeled_csv

RTOL = 1e-9  # relative tolerance on floats; integers compare exactly

# Leg sizes. Each leg keeps the property it was chosen for at the full size:
# the large stream leg ends with |D| in the thousands and most points
# rejected, regress admits at least 70% of its points, and the kstar-tail
# estimate lies strictly between 0 and 1.
SIZES = {
    "full": {
        "large_n": 4000,
        "small_n": 40000,
        "train_n": 2000,
        "test_n": 500,
        "nystrom_n": 3000,
        "predict_n1": 10000,
        "predict_n2": 1000,
        "bound_k": 512,
        "bound_trunc": 4096,
        "esp_k": 512,
        "esp_trunc": 16384,
        "kstar_trials": 600,
        "mc_trials": 40000,
    },
    "tiny": {
        "large_n": 300,
        "small_n": 1000,
        "train_n": 200,
        "test_n": 50,
        "nystrom_n": 200,
        "predict_n1": 200,
        "predict_n2": 50,
        "bound_k": 16,
        "bound_trunc": 128,
        "esp_k": 16,
        "esp_trunc": 256,
        "kstar_trials": 50,
        "mc_trials": 1000,
    },
}


class LegFailure(Exception):
    """An ``oks`` subcommand exited non-zero."""


@dataclass
class Context:
    """Inputs of one workload process: seed, sizes and a working directory."""

    seed: int
    profile: str
    workdir: Path
    threads: int
    inputs: dict = field(default_factory=dict)

    @property
    def size(self) -> dict:
        return SIZES[self.profile]


@dataclass
class Leg:
    name: str  # names the leg's times and outputs in the run metadata and the reference
    run: Callable[[Context], dict]
    check: Callable[[Context, dict], list]
    describe: Callable[[Context, dict], dict]  # problem size and resulting |D|, k or estimate


def _cell(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _cli(ctx: Context, tag: str, args: list) -> dict:
    """Run one ``oks`` subcommand with ``--out``; return its CSV as columns."""
    out = ctx.workdir / f"{tag}.csv"
    rc = oks.cli.main([str(a) for a in args] + ["--out", str(out)])
    if rc != 0:
        raise LegFailure(f"oks {args[0]} exited with code {rc}")
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    rows = [[_cell(c) for c in line.split(",")] for line in lines[1:]]
    cols = {h: [row[i] for row in rows] for i, h in enumerate(header)}
    cols["bytes_out"] = [out.stat().st_size + Path(f"{out}.manifest.json").stat().st_size]
    return cols


def _merge(*parts: tuple) -> dict:
    """Prefix each part's columns with its tag and sum their ``bytes_out``."""
    merged = {"bytes_out": [0]}
    for tag, cols in parts:
        for key, values in cols.items():
            if key == "bytes_out":
                merged["bytes_out"][0] += values[0]
            else:
                merged[f"{tag}.{key}"] = values
    return merged


def compare(got: dict, want: dict) -> list:
    """Differences between a result and its reference: integers and strings
    exactly, floats to ``RTOL`` relative."""
    problems = []
    for key, ref in want.items():
        if key == "bytes_out":
            continue  # manifests carry a wall time, so their length varies
        values = got.get(key)
        if values is None or len(values) != len(ref):
            problems.append(f"{key}: expected {len(ref)} values, got {values!r}")
            continue
        for i, (a, b) in enumerate(zip(values, ref)):
            if isinstance(b, float) or isinstance(a, float):
                same = a == b or math.isclose(a, b, rel_tol=RTOL, abs_tol=0.0)
            else:
                same = a == b
            if not same:
                problems.append(f"{key}[{i}]: got {a!r}, reference {b!r}")
    return problems


# ---------------------------------------------------------------------------
# stream: reject-heavy ALD streaming through `oks growth`

def _growth(sampler: str, alpha: float, key: str) -> Callable[[Context], dict]:
    def run(ctx: Context) -> dict:
        return _cli(ctx, key, ["growth", "--kernel", "rbf:1.0", "--sampler", sampler,
                               "--alpha", alpha, "--n", ctx.size[key], "--seed", ctx.seed])
    return run


def _check_growth(ctx: Context, res: dict) -> list:
    n, size = res["n"], res["dict_size"]
    problems = []
    if any(b < a for a, b in zip(size, size[1:])):
        problems.append(f"dict_size decreases: {size}")
    if any(s > m for s, m in zip(size, n)):
        problems.append(f"dict_size exceeds samples seen: {size} vs {n}")
    return problems


def _describe_growth(key: str):
    def describe(ctx: Context, res: dict) -> dict:
        n, d = ctx.size[key], res["dict_size"][-1]
        return {"n": n, "dict_size": d, "rejected_frac": 1 - d / n}
    return describe


STREAM = [
    Leg("growth_large_dict", _growth("gauss:5", 0.1, "large_n"), _check_growth,
        _describe_growth("large_n")),
    Leg("growth_small_dict", _growth("gauss:1", 0.01, "small_n"), _check_growth,
        _describe_growth("small_n")),
]


# ---------------------------------------------------------------------------
# fit: the sparsifier's write path followed by dense algebra

def make_fit_inputs(ctx: Context) -> None:
    """Seeded d=10 labelled points: a train file and a test file."""
    rng = np.random.default_rng(ctx.seed)
    n, m = ctx.size["train_n"], ctx.size["test_n"]
    x = 1.05 * rng.standard_normal((n + m, 10))
    y = np.sin(x[:, 0]) + 0.5 * x[:, 1] * x[:, 2] + 0.1 * rng.standard_normal(n + m)
    ctx.inputs["train"] = ctx.workdir / "train.csv"
    ctx.inputs["test"] = ctx.workdir / "test.csv"
    write_labeled_csv(str(ctx.inputs["train"]), x[:n], y[:n])
    write_labeled_csv(str(ctx.inputs["test"]), x[n:], y[n:])


def _regress(ctx: Context) -> dict:
    return _cli(ctx, "regress", ["regress", "--kernel", "rbf:1.5", "--alpha", 0.3,
                                 "--ridge", 1e-3, "--data", ctx.inputs["train"],
                                 "--test", ctx.inputs["test"]])


def _check_regress(ctx: Context, res: dict) -> list:
    n, d = res["n"][0], res["dict_size"][0]
    problems = []
    if n != ctx.size["train_n"] or not 1 <= d <= n:
        problems.append(f"dict_size {d} outside [1, n={n}]")
    for key in ("train_mse", "test_mse"):
        if not (math.isfinite(res[key][0]) and res[key][0] >= 0):
            problems.append(f"{key} is {res[key][0]!r}")
    return problems


def _nystrom(ctx: Context) -> dict:
    # _cli raises when the command exits non-zero, which covers "nystrom exits 0"
    return _cli(ctx, "nystrom", ["nystrom", "--kernel", "rbf:1.0", "--alpha", 0.01,
                                 "--sampler", "gauss:1", "--n", ctx.size["nystrom_n"],
                                 "--seed", ctx.seed])


def _check_nystrom(ctx: Context, res: dict) -> list:
    size = res["oks_size"][0]
    return [] if 1 <= size <= ctx.size["nystrom_n"] else [f"oks_size {size} out of range"]


FIT = [
    Leg("regress", _regress, _check_regress,
        lambda ctx, r: {"n": r["n"][0], "dim": 10, "dict_size": r["dict_size"][0],
                        "admitted_frac": r["dict_size"][0] / r["n"][0]}),
    Leg("nystrom", _nystrom, _check_nystrom,
        lambda ctx, r: {"n": ctx.size["nystrom_n"], "dict_size": r["oks_size"][0]}),
]


# ---------------------------------------------------------------------------
# theory: the paper's predictions and their Monte Carlo checks

ALPHA, DELTA = 0.5, 0.1


def _predict(ctx: Context) -> dict:
    n1, n2 = ctx.size["predict_n1"], ctx.size["predict_n2"]
    # looked up on the package at call time, so the tracer sees the call
    k1 = oks.growth_prediction("polynomial", 1.0, n1, ALPHA, DELTA)
    k2 = oks.growth_prediction("polynomial", 0.5, n2, ALPHA, DELTA)
    bound = _cli(ctx, "bound", ["bound", "--n", n1, "--k", ctx.size["bound_k"],
                                "--alpha", ALPHA, "--spectrum", "polynomial:1",
                                "--delta", DELTA, "--trunc", ctx.size["bound_trunc"]])
    esp = _cli(ctx, "esp", ["esp", "--spectrum", "polynomial:0.5", "--k", ctx.size["esp_k"],
                            "--trunc", ctx.size["esp_trunc"]])
    return {"k_p1": [k1], "k_p05": [k2], **_merge(("bound", bound), ("esp", esp))}


def _threshold(p: float, k: int) -> float:
    spec = oks.synthetic_spectrum("polynomial", p, max(4 * k, 64))
    return oks.sample_threshold(k, ALPHA, DELTA, spec)


def _check_predict(ctx: Context, res: dict) -> list:
    """k is the smallest size whose threshold exceeds n: threshold(k) > n >=
    threshold(k - 1), each on its own max(4k, 64) truncation."""
    problems = []
    for key, p, n in (("k_p1", 1.0, ctx.size["predict_n1"]),
                      ("k_p05", 0.5, ctx.size["predict_n2"])):
        k = res[key][0]
        if not (k >= 1 and _threshold(p, k) > n and (k == 1 or n >= _threshold(p, k - 1))):
            problems.append(f"{key}={k} is not the threshold crossing for n={n}")
    prob = res["bound.probability"][0]
    if not 0 <= prob <= 1:
        problems.append(f"bound probability {prob} outside [0, 1]")
    if res["esp.log_nu"][0] != 0.0:
        problems.append("log nu(0) must be exactly 0")
    return problems


def _mc(ctx: Context) -> dict:
    common = ["--kernel", "rbf:1.0", "--sampler", "gauss:2", "--seed", ctx.seed]
    kstar = _cli(ctx, "kstar", ["kstar-tail", *common, "--alpha", 0.9, "--n", 10, "--k", 5,
                                "--trials", ctx.size["kstar_trials"]])
    before = os.environ.get("OKS_THREADS")
    os.environ["OKS_THREADS"] = str(ctx.threads)
    try:
        gram = _cli(ctx, "mcgram", ["mc-gram", *common, "--k", 6,
                                    "--trials", ctx.size["mc_trials"]])
        moment = _cli(ctx, "mcmoment", ["mc-moment", *common, "--k", 4, "--m", 2,
                                        "--trials", ctx.size["mc_trials"]])
    finally:
        if before is None:
            del os.environ["OKS_THREADS"]
        else:
            os.environ["OKS_THREADS"] = before
    hits = round(kstar["estimate"][0] * kstar["trials"][0])
    return {"kstar.hits": [hits], **_merge(("kstar", kstar), ("mc_gram", gram), ("mc_moment", moment))}


def _check_mc(ctx: Context, res: dict) -> list:
    problems = []
    if abs(res["kstar.estimate"][0] * res["kstar.trials"][0] - res["kstar.hits"][0]) > 1e-9:
        problems.append("kstar estimate is not a whole number of hits")
    if not 0 < res["kstar.estimate"][0] < 1:
        problems.append(f"kstar estimate {res['kstar.estimate'][0]} not strictly in (0, 1)")
    # RBF Grams have a unit diagonal, so 0 < det <= 1 and the same holds for its moments
    for key in ("mc_gram.mean", "mc_moment.mean"):
        if not 0 < res[key][0] <= 1:
            problems.append(f"{key} = {res[key][0]} outside (0, 1]")
    return problems


THEORY = [
    Leg("predict", _predict, _check_predict,
        lambda ctx, r: {"n_p1": ctx.size["predict_n1"], "k_p1": r["k_p1"][0],
                        "n_p05": ctx.size["predict_n2"], "k_p05": r["k_p05"][0],
                        "bound_k": ctx.size["bound_k"], "esp_k": ctx.size["esp_k"],
                        "esp_trunc": ctx.size["esp_trunc"]}),
    Leg("mc", _mc, _check_mc,
        lambda ctx, r: {"kstar_trials": ctx.size["kstar_trials"],
                        "kstar_estimate": r["kstar.estimate"][0],
                        "mc_trials": ctx.size["mc_trials"],
                        "mc_gram_mean": r["mc_gram.mean"][0],
                        "mc_moment_mean": r["mc_moment.mean"][0]}),
]


@dataclass
class Workload:
    legs: list
    make_inputs: Callable[[Context], None]
    # layers whose traced calls must be nonzero here; zero means a missed binding
    required_layers: tuple


WORKLOADS = {
    "stream": Workload(STREAM, lambda ctx: None, ("sparsifier", "kernels", "harness", "cli")),
    "fit": Workload(FIT, make_fit_inputs, ("sparsifier", "kernels", "harness", "regress", "cli")),
    "theory": Workload(THEORY, lambda ctx: None,
                       ("kernels", "symfun", "bounds", "spectrum", "harness", "cli")),
}
