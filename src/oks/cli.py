"""Command-line front end: calculators and experiments with reproducible I/O.

Every stochastic subcommand requires an explicit ``--seed``.  Identical
invocations with the same BLAS build and BLAS thread count (for OpenBLAS,
``OPENBLAS_NUM_THREADS``) produce byte-identical CSV bodies; the JSON
manifest written next to ``--out``, which records the thread variables and
the CPU count under ``threads``, may differ only in wall time, which spans
the whole command, from argument parsing until the body is written.  On
another thread count a multi-threaded BLAS sums in another order, so floats
may move in their last digits: integer and text cells are identical, and
each float cell agrees within 1e-12 times the largest magnitude in its
column.  (An integer such as a dictionary size could move only if a
residual fell within rounding of alpha.)  The row that ``growth`` or
``oks-run`` writes at n does not depend on the other ``--checkpoints`` or on
``--trace-every``: they only pick which rows of one stream are written.
Exit codes: 0 success, 1 usage error (bad flags, malformed config, missing
files), 2 validation failure (an asserted inequality was violated by the
run).

Every numeric CSV read (``--data``, ``--test``, ``data:``) or snapshotted
(``oks-run --out``) is one table format: rows of comma-separated finite
numbers as wide as the first, skipping blank lines and ``#`` comments,
below an optional non-numeric header row (``regress`` requires one ending
in ``y``).

A flat ``key=value`` config file mirrors the flags 1:1 and, when given via
``--config``, overrides them; ``--dump-config`` prints the effective
configuration of a run and exits, and re-ingesting that output reproduces
the run.
"""

from __future__ import annotations

import argparse
import io
import sys
import time
from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np

from .bounds import (
    _check_tail_bound,
    _check_threshold,
    _tail_bound_from_log_nu,
    _threshold_from_log_nu,
)
from .harness import (
    Sampler,
    dataset_rows,
    mc_det_moment,
    mc_kstar_tail,
    nystrom_compare,
    save_dictionary,
    write_csv,
    write_manifest,
)
from .kernels import KernelSpec, gram
from .regress import fit, read_labeled_csv
from .sparsifier import run_stream
from .spectrum import empirical_spectrum, synthetic_spectrum
from .symfun import Spectrum, log_nu, log_nu_row

__all__ = ["main", "CliError", "ValidationFailure"]


class CliError(Exception):
    """Usage-level failure: exit code 1."""


class ValidationFailure(Exception):
    """An asserted inequality was violated: exit code 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit(2); usage errors are 1 here
        raise CliError(message)


@dataclass(frozen=True)
class Opt:
    dest: str
    typ: Callable = str
    required: bool = False
    default: object = None
    help: str = ""

    @property
    def flag(self) -> str:
        return "--" + self.dest.replace("_", "-")


# --out is a setting of the run (dumped and read back); --config and
# --dump-config only say how the settings are given
_OUT = Opt("out", help="output CSV path (default: stdout); a JSON manifest is written alongside")
_SAMPLER = Opt("sampler", required=True, help="diag:v1,v2 | gauss:dim:scale | data:path")
_CONTROL = Opt("config", help="key=value file overriding the flags of this run")


def _load_config(path: str) -> dict:
    overrides = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                key, sep, value = line.partition("=")
                if not sep:
                    raise CliError(f"{path}:{lineno}: expected key=value, got {line!r}")
                overrides[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise CliError(f"cannot read config {path!r}: {exc}") from None
    return overrides


def _effective(ns: argparse.Namespace, opts: Sequence[Opt]) -> dict:
    config = _load_config(ns.config) if ns.config else {}
    known = {o.dest for o in opts}
    for key in config:
        if key not in known:
            raise CliError(f"unknown config key {key!r}")
    eff = {}
    for o in opts:
        if o.dest in config:
            raw = config[o.dest]
            try:
                eff[o.dest] = o.typ(raw)
            except ValueError as exc:
                raise CliError(f"config key {o.dest!r}: {exc}") from None
        else:
            given = getattr(ns, o.dest)
            eff[o.dest] = o.default if given is None else given
        if o.required and eff[o.dest] is None:
            raise CliError(f"missing required option {o.flag}")
    return eff


def _dump(eff: dict, opts: Sequence[Opt]) -> None:
    for o in opts:
        value = eff.get(o.dest)
        if value is None:
            continue
        if isinstance(value, float):
            text = repr(value)
        else:
            text = str(value)
        print(f"{o.dest.replace('_', '-')}={text}")


def _parse_kernel(text: str) -> KernelSpec:
    try:
        return KernelSpec.from_text(text)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _parse_sampler(text: str, seed: int | None) -> Sampler:
    head, _, rest = text.strip().partition(":")
    try:
        if head == "diag" and rest:
            spectrum = synthetic_spectrum("explicit", [float(v) for v in rest.split(",")])
            return Sampler.diag_gaussian(spectrum, _need_seed(seed))
        if head == "gauss" and rest:
            dim_text, _, scale_text = rest.partition(":")
            return Sampler.gaussian_input(
                int(dim_text), float(scale_text) if scale_text else 1.0, _need_seed(seed)
            )
        if head == "data" and rest:
            return Sampler.dataset(rest, seed or 0)
    except ValueError as exc:
        raise CliError(f"cannot parse sampler {text!r}: {exc}") from None
    raise CliError(f"cannot parse sampler {text!r} (expected diag:..., gauss:..., data:...)")


def _need_seed(seed: int | None) -> int:
    if seed is None:
        raise CliError("--seed is required for stochastic samplers")
    return seed


# heads of a --spectrum given inline; any other --spectrum is a CSV path
_INLINE_SPECTRA = ("geometric", "polynomial", "explicit")


def _load_spectrum(eff: dict, k: int) -> Spectrum:
    """The run's ``--spectrum``; a synthetic one keeps max(4k, trunc) values."""
    if eff["trunc"] < 1:
        raise CliError("--trunc must be >= 1")
    source = eff["spectrum"]
    head, _, rest = source.strip().partition(":")
    try:
        if head == "explicit":
            return synthetic_spectrum(head, [float(v) for v in rest.split(",")])
        if head in _INLINE_SPECTRA:  # a decay law
            return synthetic_spectrum(head, float(rest), max(4 * k, eff["trunc"]))
        return Spectrum.from_csv(source)
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot load spectrum {source!r}: {exc}") from None


def _csv(header, rows) -> str:
    body = io.StringIO()
    write_csv(body, header, rows)
    return body.getvalue()


# the columns of a run_stream row, as growth and oks-run write them
_TRACE_HEADER = ("n", "dict_size", "log_det")


def _input_files(eff: dict) -> list[str]:
    """The files the settings of a run name, whose bytes its manifest hashes:
    ``data``, ``test``, a ``data:`` sampler, then a spectrum file."""
    files = [eff[key] for key in ("data", "test") if eff.get(key)]
    head, _, rest = (eff.get("sampler") or "").strip().partition(":")
    if head == "data" and rest:
        files.append(rest)
    spectrum = eff.get("spectrum")
    if spectrum and spectrum.strip().partition(":")[0] not in _INLINE_SPECTRA:
        files.append(spectrum)
    return files


def _emit(eff: dict, command: str, wall_time_s: float, body: str) -> None:
    """Write the body to ``--out`` with a JSON manifest beside it, or to stdout."""
    if not eff.get("out"):
        sys.stdout.write(body)
        return
    with open(eff["out"], "w", newline="") as fh:
        fh.write(body)
    write_manifest(
        eff["out"] + ".manifest.json",
        command,
        {k: v for k, v in eff.items() if k != "out"},
        eff.get("seed"),
        input_paths=_input_files(eff),
        wall_time_s=wall_time_s,
    )


# ---------------------------------------------------------------------------
# subcommand handlers: each computes its body and hands it to ``emit(body)``

Emit = Callable[[str], None]


def _cmd_esp(eff: dict, emit: Emit) -> None:
    k = eff["k"]
    if k < 0:
        raise CliError("--k must be >= 0")
    spec = _load_spectrum(eff, k)
    emit(_csv(["k", "log_nu"], enumerate(log_nu_row(spec, k).tolist())))


def _cmd_bound(eff: dict, emit: Emit) -> None:
    n, k, alpha = eff["n"], eff["k"], eff["alpha"]
    delta = eff.get("delta")
    spec = _load_spectrum(eff, k)
    # dict_tail_bound and sample_threshold, with one nu(k) recursion for both
    try:
        _check_tail_bound(n, k, alpha, spec)
        if delta is not None:
            _check_threshold(k, alpha, delta, spec)
        lnu = log_nu(spec, k)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    log_bound = _tail_bound_from_log_nu(n, k, alpha, lnu)
    threshold = None if delta is None else _threshold_from_log_nu(k, alpha, delta, lnu)
    raw = float(np.exp(log_bound))
    clamped = min(raw, 1.0)
    header = ["n", "k", "alpha", "log_bound", "probability_raw", "probability"]
    row = [n, k, alpha, log_bound, raw, clamped]
    if delta is not None:
        header += ["delta", "threshold_n"]
        row += [delta, threshold]
    emit(_csv(header, [row]))


def _mc_command(summary: str, estimator: Callable, echoed: list[Opt], stat: str = "mean"):
    """Table entry for a Monte Carlo estimator called as
    ``estimator(sampler, kernel, *echoed options, trials)``; its body is one CSV row."""
    names = [o.dest for o in echoed]

    def handler(eff: dict, emit: Emit) -> None:
        kernel = _parse_kernel(eff["kernel"])
        sampler = _parse_sampler(eff["sampler"], eff["seed"])
        opts = [eff[name] for name in names]
        est = estimator(sampler, kernel, *opts, eff["trials"])
        header = ["kernel", "sampler", *names, "trials", "seed", stat, "std_error"]
        row = [eff["kernel"], eff["sampler"], *opts, est.trials, eff["seed"], est.mean,
               est.std_error]
        emit(_csv(header, [row]))

    return summary, handler, [
        Opt("kernel", required=True),
        _SAMPLER,
        *echoed,
        Opt("trials", int, required=True),
        Opt("seed", int),
    ]


def _parse_checkpoints(text: str | None, n: int) -> list[int]:
    if not text:
        return sorted({max(1, n >> s) for s in range(5)})
    try:
        marks = sorted({int(v) for v in text.split(",")})
    except ValueError as exc:
        raise CliError(f"--checkpoints: {exc}") from None
    if not 1 <= marks[0] <= marks[-1] <= n:
        raise CliError(f"--checkpoints must lie in [1, --n] = [1, {n}]")
    return marks


def _cmd_growth(eff: dict, emit: Emit) -> None:
    kernel = _parse_kernel(eff["kernel"])
    sampler = _parse_sampler(eff["sampler"], eff["seed"])
    n = eff["n"]
    if not 1 <= n <= 100_000:
        raise CliError("--n must lie in [1, 100000]")
    marks = _parse_checkpoints(eff.get("checkpoints"), n)
    _, rows = run_stream(kernel, eff["alpha"], sampler.points(n), marks)
    emit(_csv(_TRACE_HEADER, rows))


def _cmd_nystrom(eff: dict, emit: Emit) -> None:
    kernel = _parse_kernel(eff["kernel"])
    sampler = _parse_sampler(eff["sampler"], eff["seed"])
    rec = nystrom_compare(sampler, kernel, eff["alpha"], eff["n"])
    names = [f.name for f in fields(rec)]
    emit(_csv(
        ["kernel", "sampler", "alpha", "n", "seed", *names],
        [(eff["kernel"], eff["sampler"], eff["alpha"], eff["n"], eff["seed"],
          *[getattr(rec, f) for f in names])],
    ))
    if not rec.entrywise_err_oks < rec.entrywise_bound:
        raise ValidationFailure(
            f"entrywise error {rec.entrywise_err_oks} is not below the bound {rec.entrywise_bound}"
        )


def _read_labeled(path: str):
    try:
        return read_labeled_csv(path)
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot read {path!r}: {exc}") from None


def _cmd_regress(eff: dict, emit: Emit) -> None:
    kernel = _parse_kernel(eff["kernel"])
    if not 0 <= eff["ridge"] < np.inf:
        raise CliError("--ridge must be a finite number >= 0")
    xs, ys = _read_labeled(eff["data"])
    test = eff.get("test")
    if test:
        tx, ty = _read_labeled(test)
        if tx.shape[1] != xs.shape[1]:
            raise CliError(f"--test {test!r} has {tx.shape[1]} feature columns, "
                           f"--data {eff['data']!r} has {xs.shape[1]}")
    d, _ = run_stream(kernel, eff["alpha"], xs)
    if len(d) == 0:
        raise ValidationFailure("dictionary stayed empty; every residual was below alpha")
    model = fit(d, xs, ys, eff["ridge"])
    header = ["n", "dict_size", "ridge", "train_mse"]
    row = [xs.shape[0], len(d), eff["ridge"], model.evaluate(xs, ys)]
    if test:
        header.append("test_mse")
        row.append(model.evaluate(tx, ty))
    emit(_csv(header, [row]))


def _cmd_spectrum_est(eff: dict, emit: Emit) -> None:
    kernel = _parse_kernel(eff["kernel"])
    if eff["n"] < 1:
        raise CliError("--n must be >= 1")
    pts = _parse_sampler(eff["sampler"], eff["seed"]).points(eff["n"])
    body = io.StringIO()
    empirical_spectrum(gram(kernel, pts)).to_csv(body)
    emit(body.getvalue())


def _cmd_oks_run(eff: dict, emit: Emit) -> None:
    kernel = _parse_kernel(eff["kernel"])
    try:
        pts = dataset_rows(eff["data"])
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot read {eff['data']!r}: {exc}") from None
    every = eff["trace_every"]
    if every < 0:
        raise CliError("--trace-every must be >= 0")
    marks = range(every, len(pts), every) if every else ()
    d, rows = run_stream(kernel, eff["alpha"], pts, marks)
    if eff.get("out"):
        save_dictionary(d, eff["out"] + ".dict.csv")
    emit(_csv(_TRACE_HEADER, rows))


# ---------------------------------------------------------------------------
# wiring: name -> (summary, handler, options)

_TRUNC_HELP = "a synthetic spectrum keeps max(4k, trunc) values"

_COMMANDS: dict[str, tuple[str, Callable[[dict, Emit], None], list[Opt]]] = {
    "esp": ("tabulate log nu(k) for a spectrum", _cmd_esp, [
        Opt("spectrum", required=True, help="csv path | geometric:s | polynomial:p | explicit:v1,v2,..."),
        Opt("k", int, required=True),
        Opt("trunc", int, default=64, help=_TRUNC_HELP),
    ]),
    "bound": ("dictionary-size tail bound and certified-sample-count threshold", _cmd_bound, [
        Opt("n", int, required=True),
        Opt("k", int, required=True),
        Opt("alpha", float, required=True),
        Opt("spectrum", required=True),
        Opt("delta", float, help="also print the certified-sample-count threshold"),
        Opt("trunc", int, default=64, help=_TRUNC_HELP),
    ]),
    "mc-gram": _mc_command("Monte Carlo estimate of E[det G_k], as mc-moment --m 1",
                           lambda s, kern, k, trials: mc_det_moment(s, kern, k, 1, trials),
                           [Opt("k", int, required=True)]),
    "mc-moment": _mc_command("Monte Carlo estimate of E[(det G_k)^m], m in {1, 2, 3}; m = 1 "
                             "is the paper's E[det G_k] = nu(k)", mc_det_moment,
                             [Opt("k", int, required=True), Opt("m", int, required=True)]),
    "kstar-tail": _mc_command(
        "Monte Carlo tail probability of the largest passing subset size",
        mc_kstar_tail,
        [Opt("alpha", float, required=True), Opt("n", int, required=True),
         Opt("k", int, required=True)],
        stat="estimate",
    ),
    "growth": ("dictionary growth trace over a sampled stream", _cmd_growth, [
        Opt("kernel", required=True),
        Opt("alpha", float, required=True),
        Opt("n", int, required=True),
        Opt("seed", int),
        Opt("sampler", default="gauss:1:1.0"),
        Opt("checkpoints", help="comma-separated sample counts (default: a doubling ladder)"),
    ]),
    "nystrom": ("projection error of the streaming dictionary vs a random subset", _cmd_nystrom, [
        Opt("kernel", required=True),
        Opt("alpha", float, required=True),
        Opt("n", int, required=True),
        Opt("seed", int),
        Opt("sampler", default="gauss:1:1.0"),
    ]),
    "regress": ("dictionary-feature least squares on a labeled dataset", _cmd_regress, [
        Opt("kernel", required=True),
        Opt("alpha", float, required=True),
        Opt("data", required=True, help="labeled CSV table: a header, feature columns, then y"),
        Opt("test", help="labeled CSV table, as --data, used for the test MSE column"),
        Opt("ridge", float, default=0.0),
    ]),
    "spectrum-est": ("empirical spectrum of a sampled or stored Gram matrix", _cmd_spectrum_est, [
        Opt("kernel", required=True),
        Opt("n", int, required=True),
        _SAMPLER,
        Opt("seed", int),
    ]),
    "oks-run": ("stream a dataset through a dictionary and snapshot the result", _cmd_oks_run, [
        Opt("kernel", required=True),
        Opt("alpha", float, required=True),
        Opt("data", required=True, help="CSV table of point coordinates, one row per sample"),
        Opt("trace_every", int, default=0, help="also write a row every this many samples"),
    ]),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="oks", description=__doc__)
    subs = parser.add_subparsers(dest="command", metavar="subcommand")
    for name, (summary, _, opts) in _COMMANDS.items():
        sub = subs.add_parser(name, help=summary)
        for o in [*opts, _CONTROL, _OUT]:
            sub.add_argument(o.flag, dest=o.dest, type=o.typ, default=None, help=o.help)
            if o is _CONTROL:
                sub.add_argument("--dump-config", action="store_true",
                                 help="print the effective configuration and exit")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    started = time.monotonic()
    try:
        ns = build_parser().parse_args(argv)
        if not ns.command:
            raise CliError("a subcommand is required (see --help)")
        _, handler, opts = _COMMANDS[ns.command]
        settings = [*opts, _OUT]
        eff = _effective(ns, settings)
        if ns.dump_config:
            _dump(eff, settings)
            return 0

        def emit(body: str) -> None:
            _emit(eff, ns.command, time.monotonic() - started, body)

        handler(eff, emit)
        return 0
    except CliError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ValidationFailure as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's says how much it could not allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
