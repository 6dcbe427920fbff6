"""Command-line front end: calculators and experiments with reproducible I/O.

Every stochastic subcommand requires an explicit ``--seed``.  Identical
invocations produce byte-identical CSV bodies; the JSON manifest written next
to ``--out`` may differ only in wall time, which spans the whole command, from
argument parsing until the body is written.  Exit codes: 0 success, 1 usage
error (bad flags, malformed config, missing files), 2 validation failure (an
asserted inequality was violated by the run).

Every numeric CSV read (``--data``, ``--test``, ``data:``) or snapshotted
(``oks-run --out``) is one table format: rows of comma-separated numbers as
wide as the first, skipping blank lines and ``#`` comments, below an optional
non-numeric header row (``regress`` requires one ending in ``y``).

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

from .bounds import dict_tail_bound, sample_threshold
from .harness import (
    Sampler,
    dataset_rows,
    mc_det_moment,
    mc_kstar_tail,
    growth_experiment,
    nystrom_compare,
    save_dictionary,
    write_csv,
    write_manifest,
)
from .kernels import KernelSpec, gram
from .regress import fit, read_labeled_csv
from .sparsifier import run_stream
from .spectrum import empirical_spectrum, synthetic_spectrum
from .symfun import Spectrum, esp_brute, log_nu_row

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
    is_flag: bool = False
    help: str = ""

    @property
    def flag(self) -> str:
        return "--" + self.dest.replace("_", "-")


# --out is a setting of the run (dumped and read back); the other two only
# say how the settings are given
_OUT = Opt("out", help="output CSV path (default: stdout); a JSON manifest is written alongside")
_SAMPLER = Opt("sampler", required=True, help="diag:v1,v2 | gauss:dim:scale | data:path")
_CONTROL = [
    Opt("config", help="key=value file overriding the flags of this run"),
    Opt("dump_config", is_flag=True, help="print the effective configuration and exit"),
]


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "1", "yes"):
        return True
    if t in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


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
                eff[o.dest] = _parse_bool(raw) if o.is_flag else o.typ(raw)
            except ValueError as exc:
                raise CliError(f"config key {o.dest!r}: {exc}") from None
        else:
            given = getattr(ns, o.dest)
            eff[o.dest] = o.default if given is None and not o.is_flag else given
        if o.required and eff[o.dest] is None:
            raise CliError(f"missing required option {o.flag}")
    return eff


def _dump(eff: dict, opts: Sequence[Opt]) -> None:
    for o in opts:
        value = eff.get(o.dest)
        if value is None:
            continue
        if o.is_flag:
            text = "true" if value else "false"
        elif isinstance(value, float):
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
            values = np.sort(np.array([float(v) for v in rest.split(",")]))[::-1]
            return Sampler.diag_gaussian(Spectrum(values), _need_seed(seed))
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


def _load_spectrum(source: str, size: int) -> Spectrum:
    head, _, rest = source.strip().partition(":")
    try:
        if head in ("geometric", "polynomial"):
            return synthetic_spectrum(head, float(rest), size)
        if head == "explicit":
            return synthetic_spectrum("explicit", [float(v) for v in rest.split(",")])
        return Spectrum.from_csv(source)
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot load spectrum {source!r}: {exc}") from None


def _csv(header, rows) -> str:
    body = io.StringIO()
    write_csv(body, header, rows)
    return body.getvalue()


def _trace_csv(trace) -> str:
    return _csv(["n", "dict_size", "log_det"], zip(trace.samples, trace.dict_size, trace.log_det))


def _input_files(eff: dict) -> list[str]:
    """The files the settings of a run name, whose bytes its manifest hashes:
    ``data``, ``test``, a ``data:`` sampler, then a spectrum file."""
    files = [eff[key] for key in ("data", "test") if eff.get(key)]
    head, _, rest = (eff.get("sampler") or "").strip().partition(":")
    if head == "data" and rest:
        files.append(rest)
    spectrum = eff.get("spectrum")
    inline = ("geometric", "polynomial", "explicit")
    if spectrum and spectrum.strip().partition(":")[0] not in inline:
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
    spec = _load_spectrum(eff["spectrum"], max(4 * k, eff["trunc"]))
    log_nus = log_nu_row(spec, k).tolist()
    if eff["brute"]:
        if spec.size > 22:
            raise CliError("--brute needs a spectrum of length <= 22")
        rows = [(j, log_nus[j], esp_brute(spec, j)) for j in range(k + 1)]
        header = ["k", "log_nu", "log_nu_brute"]
    else:
        rows = [(j, log_nus[j]) for j in range(k + 1)]
        header = ["k", "log_nu"]
    emit(_csv(header, rows))


def _cmd_bound(eff: dict, emit: Emit) -> None:
    n, k, alpha = eff["n"], eff["k"], eff["alpha"]
    delta = eff.get("delta")
    spec = _load_spectrum(eff["spectrum"], max(4 * k, eff["trunc"]))
    try:
        log_bound = dict_tail_bound(n, k, alpha, spec)
        threshold = None if delta is None else sample_threshold(k, alpha, delta, spec)
    except ValueError as exc:
        raise CliError(str(exc)) from None
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
    if text:
        return [int(v) for v in text.split(",")]
    return sorted({max(1, n >> s) for s in range(5)})


def _cmd_growth(eff: dict, emit: Emit) -> None:
    kernel = _parse_kernel(eff["kernel"])
    sampler = _parse_sampler(eff["sampler"], eff["seed"])
    trace = growth_experiment(
        sampler, kernel, eff["alpha"], eff["n"], _parse_checkpoints(eff.get("checkpoints"), eff["n"])
    )
    emit(_trace_csv(trace))


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
    if eff["ridge"] < 0:
        raise CliError("--ridge must be >= 0")
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
    d, trace = run_stream(kernel, eff["alpha"], pts, marks)
    if eff.get("out"):
        save_dictionary(d, eff["out"] + ".dict.csv")
    emit(_trace_csv(trace))


# ---------------------------------------------------------------------------
# wiring: name -> (summary, handler, options)

_TRUNC_HELP = "a synthetic spectrum keeps max(4k, trunc) values"

_COMMANDS: dict[str, tuple[str, Callable[[dict, Emit], None], list[Opt]]] = {
    "esp": ("tabulate log nu(k) for a spectrum (optionally cross-checked by enumeration)",
            _cmd_esp, [
        Opt("spectrum", required=True, help="csv path | geometric:s | polynomial:p | explicit:v1,v2,..."),
        Opt("k", int, required=True),
        Opt("brute", is_flag=True, help="add the subset-enumeration column (length <= 22)"),
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
        Opt("trace_every", int, default=0),
    ]),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="oks", description=__doc__)
    subs = parser.add_subparsers(dest="command", metavar="subcommand")
    for name, (summary, _, opts) in _COMMANDS.items():
        sub = subs.add_parser(name, help=summary)
        for o in [*opts, *_CONTROL, _OUT]:
            if o.is_flag:
                sub.add_argument(o.flag, dest=o.dest, action="store_true", help=o.help)
            else:
                sub.add_argument(o.flag, dest=o.dest, type=o.typ, default=None, help=o.help)
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


if __name__ == "__main__":
    sys.exit(main())
