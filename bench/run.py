"""Benchmark of the ``oks`` package: time to solution per leg, checked outputs.

Run from the root of a source checkout:

    python3 bench/run.py --workload stream --seed 1 --seconds 30 --trace 0

One process runs one workload (``stream``, ``fit`` or ``theory``, see
``workloads.py``). It imports ``oks`` from ``src/`` and calls it in process.
It repeats rounds of the workload's legs until ``--seconds`` have passed, with
at least three rounds, and checks every leg's output against the stored
reference for the seed (``reference.json``) and against invariants that hold
for any seed. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports the
end-to-end metrics named in ``BENCHMARK.json``; ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics. The line before
it holds the run metadata.

``--write-reference`` recomputes ``reference.json`` for the reference seeds
and both size profiles.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread: on a small shared machine, multi-threaded BLAS calls make
# timings swing with the neighbours' load. The only parallelism measured is
# the package's own thread pool (OKS_THREADS). Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
REFERENCE_SEEDS = (1, 2)  # the default seed and a held-out one
MIN_ROUNDS = 3
SETUP_REPEATS = 3


def _import_oks():
    """Import the checkout's own ``oks``, never an installed copy."""
    if not (SRC / "oks" / "__init__.py").is_file():
        sys.exit(f"error: no oks sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import oks

    if Path(oks.__file__).resolve().parent != SRC / "oks":
        sys.exit(f"error: imported oks from {oks.__file__}, not from {SRC}")


_import_oks()

import tracer as tracing  # noqa: E402  (needs oks on sys.path)
from workloads import WORKLOADS, Context, compare  # noqa: E402


def _median(values):
    return statistics.median(values) if values else 0.0


def setup_once(ctx: Context, workload) -> float:
    """Import oks, numpy and scipy in a fresh interpreter, then make the inputs."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r}); import oks.cli"],
        cwd=ROOT, check=True,
    )
    workload.make_inputs(ctx)
    return time.perf_counter() - start


class Runner:
    """Runs legs, checks their outputs and counts attempts and failures."""

    def __init__(self, ctx: Context, workload, reference: dict):
        self.ctx = ctx
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.first: dict = {}  # leg name -> first result, for the determinism check
        self.times: dict = {leg.name: [] for leg in workload.legs}

    def leg(self, leg, ctx: Context | None = None, tracer=None) -> float:
        ctx = ctx or self.ctx
        self.attempted += 1
        start = time.perf_counter()
        elapsed = None
        try:
            if tracer is None:
                result = leg.run(ctx)
            else:
                with tracer:
                    result = leg.run(ctx)
            elapsed = time.perf_counter() - start
            problems = self._problems(leg, ctx, result)
        except Exception as exc:  # a leg that raises counts as failed; keep measuring
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            print(f"leg {leg.name} failed: " + "; ".join(problems[:5]), file=sys.stderr)
        return time.perf_counter() - start if elapsed is None else elapsed

    def _problems(self, leg, ctx: Context, result: dict) -> list:
        problems = leg.check(ctx, result)
        if leg.name in self.reference:
            problems += [f"vs reference: {p}" for p in compare(result, self.reference[leg.name])]
        if leg.name in self.first:
            problems += [f"vs first round: {p}" for p in compare(result, self.first[leg.name])]
        else:
            self.first[leg.name] = result
        return problems

    def round(self, tracer=None) -> float:
        total = 0.0
        for leg in self.workload.legs:
            elapsed = self.leg(leg, tracer=tracer)
            self.times[leg.name].append(elapsed)
            total += elapsed
        return total


def end_to_end(runner: Runner, seconds: float, setup_s: list) -> dict:
    start = time.perf_counter()
    runner.round()
    # the high-water mark of one pass, as a user running each command once
    # sees it; later in-process repeats only add allocator retention
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rounds = 1
    while rounds < MIN_ROUNDS or _fits_another(start, rounds, seconds):
        runner.round()
        rounds += 1
    values = {f"leg{i}_s": _median(runner.times[leg.name])
              for i, leg in enumerate(runner.workload.legs, 1)}
    values["setup_s"] = _median(setup_s)
    values["peak_rss_mb"] = peak_rss_mb
    return values


def _fits_another(start: float, rounds: int, seconds: float) -> bool:
    """Whether a round of average length still ends within ``seconds``."""
    elapsed = time.perf_counter() - start
    return elapsed * (rounds + 1) / rounds <= seconds


def per_layer(runner: Runner, seconds: float, spans_path: Path) -> dict:
    tracer = tracing.Tracer()
    untraced, traced, serial_mc, threaded_mc = [], [], [], []
    mc_leg = next((leg for leg in runner.workload.legs if leg.name == "mc"), None)
    runner.round()  # warm-up, so that neither side of the comparison pays first-call costs
    start = time.perf_counter()
    while not traced or _fits_another(start, len(traced), seconds):
        untraced.append(runner.round())
        if mc_leg is not None:
            threaded_mc.append(runner.times["mc"][-1])
            serial_mc.append(runner.leg(mc_leg, dataclasses.replace(runner.ctx, threads=0)))
        traced.append(runner.round(tracer))
    if tracer.unbound:
        print("warning: no oks namespace binds " + ", ".join(tracer.unbound), file=sys.stderr)
    rounds = len(traced)
    values = {f"{t.layer}.{t.name}.{key}": 0.0 for t in tracing.TARGETS for key in ("calls", "self_s")}
    values.update(dict.fromkeys(("sparsifier.offer.p50_us", "sparsifier.offer.p99_us"), 0.0))
    layer_calls = {}
    for stem, (calls, self_s, durations) in tracer.self_times().items():
        values[f"{stem}.calls"] = calls / rounds
        values[f"{stem}.self_s"] = self_s / rounds
        layer = stem.split(".")[0]
        layer_calls[layer] = layer_calls.get(layer, 0) + calls
        if stem == "sparsifier.offer":
            us = sorted(d * 1e6 for d in durations)
            values[f"{stem}.p50_us"] = statistics.median(us)
            # a percentile is reported only with at least ten samples beyond it
            values[f"{stem}.p99_us"] = us[int(0.99 * len(us))] if len(us) >= 1000 else 0.0
    for key, total in tracer.counters.items():
        values[key] = total / rounds
    counters = tracer.counters
    offered = counters["sparsifier.offer.offered"]
    values["sparsifier.admit_ratio"] = counters["sparsifier.offer.admitted"] / offered if offered else 0.0
    values["sparsifier.dict_size"] = counters["sparsifier.offer.dict_size_max"]
    values["sparsifier.zero_residuals"] = counters["sparsifier.offer.zero_residuals"] / rounds
    values["harness.pool_speedup"] = (
        _median(serial_mc) / _median(threaded_mc) if serial_mc else 0.0
    )
    values["cli.bytes_out"] = sum(r["bytes_out"][0] for r in runner.first.values())
    overhead = _median(traced) - _median(untraced)
    values["bench.trace_overhead_s"] = overhead
    values["bench.trace_overhead_frac"] = overhead / _median(untraced)
    missing = [layer for layer in runner.workload.required_layers if not layer_calls.get(layer)]
    if missing:
        raise SystemExit(f"error: traced layers {missing} made no calls on this workload; "
                         "a binding was missed")
    tracer.write_spans(spans_path)
    return values


def _blas_threads():
    """OpenBLAS thread count, read from the library numpy has loaded."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
        for path in libs:
            lib = ctypes.CDLL(path)
            for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                         "openblas_get_num_threads"):
                if hasattr(lib, name):
                    return int(getattr(lib, name)())
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
    except OSError:  # no git on this machine
        return None
    return out.stdout.strip() or None


def metadata(runner: Runner, args, setup_s: list) -> dict:
    import numpy
    import scipy

    legs = {}
    for leg in runner.workload.legs:
        times = runner.times[leg.name]
        result = runner.first.get(leg.name)
        legs[leg.name] = {
            "median_s": _median(times),
            "samples": len(times),
            "times_s": times,
            "problem": leg.describe(runner.ctx, result) if result else None,
        }
    return {
        "workload": args.workload,
        "seed": args.seed,
        "profile": runner.ctx.profile,
        "trace": args.trace,
        "nproc": runner.ctx.threads,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "oks_threads_env": os.environ.get("OKS_THREADS"),
        "oks_threads_mc": runner.ctx.threads,
        "git_commit": _git_commit(),
        "setup_samples_s": setup_s,
        "legs": legs,
        "reference_checked": sorted(runner.reference),
    }


def _reference_for(path: Path, profile: str, seed: int, workload: str) -> dict:
    if not path.is_file():
        return {}
    refs = json.loads(path.read_text())
    return refs.get(profile, {}).get(str(seed), {}).get(workload, {})


def write_reference(workdir: Path, threads: int) -> None:
    refs = {}
    for profile in ("full", "tiny"):
        for seed in REFERENCE_SEEDS:
            for name, workload in WORKLOADS.items():
                ctx = Context(seed, profile, workdir, threads)
                workload.make_inputs(ctx)
                runner = Runner(ctx, workload, {})
                runner.round()
                if runner.failed:
                    sys.exit(f"error: {name} failed its checks for seed {seed}; "
                             "not writing a reference")
                refs.setdefault(profile, {}).setdefault(str(seed), {})[name] = runner.first
                print(f"{profile} seed {seed} {name}: "
                      f"{json.dumps({leg.name: leg.describe(ctx, runner.first[leg.name]) for leg in workload.legs})}")
    REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEEDS[0])
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny leg sizes, for the benchmark's own tests")
    parser.add_argument("--reference", type=Path, default=REFERENCE,
                        help="reference file to check against (default: bench/reference.json)")
    parser.add_argument("--write-reference", action="store_true",
                        help="recompute bench/reference.json and exit")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    threads = len(os.sched_getaffinity(0))
    workdir = ROOT / ".bench_work" / f"{args.workload or 'reference'}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.write_reference:
            write_reference(workdir, threads)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        profile = "tiny" if args.tiny else "full"
        ctx = Context(args.seed, profile, workdir, threads)
        workload = WORKLOADS[args.workload]
        reference = _reference_for(args.reference, profile, args.seed, args.workload)
        setup_s = [setup_once(ctx, workload) for _ in range(SETUP_REPEATS)]
        runner = Runner(ctx, workload, reference)
        if args.trace:
            names = spec["per_layer"]
            spans = ROOT / ".bench_work" / f"spans-{args.workload}-seed{args.seed}.csv"
            values = per_layer(runner, args.seconds, spans)
        else:
            names = spec["end_to_end"]
            values = end_to_end(runner, args.seconds, setup_s)
        values["bench.fail_frac"] = runner.failed / runner.attempted
        missing = [m["name"] for m in names if m["name"] not in values]
        if missing:
            raise SystemExit(f"error: BENCHMARK.json names metrics this run cannot compute: {missing}")
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
        print(json.dumps({"meta": metadata(runner, args, setup_s)}))
        print(json.dumps({
            "correct": runner.failed == 0,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
