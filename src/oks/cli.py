"""Command-line front end: calculators and experiments with reproducible I/O.

Every stochastic subcommand requires an explicit ``--seed``.  Identical
invocations produce byte-identical CSV bodies; the JSON manifest written next
to ``--out`` may differ only in wall time.  Exit codes: 0 success, 1 usage
error (bad flags, malformed config, missing files), 2 validation failure (an
asserted inequality was violated by the run).

A flat ``key=value`` config file mirrors the flags 1:1 and, when given via
``--config``, overrides them; ``--dump-config`` prints the effective
configuration of a run and exits, and re-ingesting that output reproduces
the run.
"""

from __future__ import annotations

import argparse
import io
import math
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
    mc_expected_gram_det,
    mc_kstar_tail,
    growth_experiment,
    nystrom_compare,
    write_csv,
    write_manifest,
)
from .kernels import KernelSpec, gram
from .logvalue import LOG_ZERO, is_log_zero
from .regress import fit, read_labeled_csv
from .sparsifier import run_stream, save_dictionary
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


_COMMON = [
    Opt("config", help="key=value file overriding the flags of this run"),
    Opt("dump_config", is_flag=True, help="print the effective configuration and exit"),
    Opt("out", help="output CSV path (default: stdout); a JSON manifest is written alongside"),
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
    config = _load_config(ns.config) if getattr(ns, "config", None) else {}
    known = {o.dest for o in opts}
    for key in config:
        if key not in known:
            raise CliError(f"unknown config key {key!r}")
    eff = {}
    for o in opts:
        if o.dest in ("config", "dump_config"):
            continue
        if o.dest in config:
            raw = config[o.dest]
            try:
                eff[o.dest] = _parse_bool(raw) if o.is_flag else o.typ(raw)
            except ValueError as exc:
                raise CliError(f"config key {o.dest!r}: {exc}") from None
        else:
            given = getattr(ns, o.dest)
            eff[o.dest] = o.default if given is None and not o.is_flag else given
    for o in opts:
        if o.required and eff.get(o.dest) is None:
            raise CliError(f"missing required option {o.flag}")
    return eff


def _dump(eff: dict, opts: Sequence[Opt]) -> None:
    for o in opts:
        if o.dest in ("config", "dump_config"):
            continue
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
        if isinstance(exc, CliError):
            raise
        raise CliError(f"cannot parse sampler {text!r}: {exc}") from None
    raise CliError(f"cannot parse sampler {text!r} (expected diag:..., gauss:..., data:...)")


def _need_seed(seed: int | None) -> int:
    if seed is None:
        raise CliError("--seed is required for stochastic samplers")
    return seed


def _load_spectrum(source: str, size: int) -> Spectrum:
    head, _, rest = source.strip().partition(":")
    try:
        if head == "geometric":
            return synthetic_spectrum("geometric", float(rest), size)
        if head == "polynomial":
            return synthetic_spectrum("polynomial", float(rest), size)
        if head == "explicit":
            return synthetic_spectrum("explicit", [float(v) for v in rest.split(",")])
        return Spectrum.from_csv(source)
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot load spectrum {source!r}: {exc}") from None


def _csv(header, rows) -> str:
    body = io.StringIO()
    write_csv(body, header, rows)
    return body.getvalue()


def _emit(eff: dict, subcommand: str, body: str, inputs=(), started=None) -> None:
    """Write the body to ``--out`` with a JSON manifest beside it, or to stdout."""
    if eff.get("out"):
        with open(eff["out"], "w", newline="") as fh:
            fh.write(body)
        wall = 0.0 if started is None else time.monotonic() - started
        params = {k: v for k, v in eff.items() if k != "out"}
        write_manifest(
            eff["out"] + ".manifest.json",
            subcommand,
            params,
            eff.get("seed"),
            input_paths=inputs,
            wall_time_s=wall,
        )
    else:
        sys.stdout.write(body)


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_esp(eff: dict) -> int:
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
    _emit(eff, "esp", _csv(header, rows))
    return 0


def _cmd_bound(eff: dict) -> int:
    n, k, alpha = eff["n"], eff["k"], eff["alpha"]
    spec = _load_spectrum(eff["spectrum"], max(4 * k, eff["trunc"]))
    if k > spec.size:
        log_bound = LOG_ZERO
    else:
        try:
            log_bound = dict_tail_bound(n, k, alpha, spec)
        except ValueError as exc:
            raise CliError(str(exc)) from None
    raw = float(np.exp(log_bound))
    clamped = min(raw, 1.0)
    header = ["n", "k", "alpha", "log_bound", "probability_raw", "probability"]
    row = [n, k, alpha, log_bound, raw, clamped]
    if eff.get("delta") is not None:
        threshold = (
            sample_threshold(k, alpha, eff["delta"], spec) if k <= spec.size else math.inf
        )
        header += ["delta", "threshold_n"]
        row += [eff["delta"], threshold]
    _emit(eff, "bound", _csv(header, [row]))
    return 0


def _mc_row(eff: dict, subcommand: str, estimator: Callable, echoed: Sequence[str],
            stat: str = "mean") -> int:
    """One CSV row for a Monte Carlo estimator called as
    ``estimator(sampler, kernel, *echoed options, trials)``."""
    started = time.monotonic()
    kernel = _parse_kernel(eff["kernel"])
    sampler = _parse_sampler(eff["sampler"], eff["seed"])
    opts = [eff[name] for name in echoed]
    est = estimator(sampler, kernel, *opts, eff["trials"])
    header = ["kernel", "sampler", *echoed, "trials", "seed", stat, "std_error"]
    row = [eff["kernel"], eff["sampler"], *opts, est.trials, eff["seed"], est.mean, est.std_error]
    _emit(eff, subcommand, _csv(header, [row]), started=started)
    return 0


def _cmd_mc_gram(eff: dict) -> int:
    return _mc_row(eff, "mc-gram", mc_expected_gram_det, ["k"])


def _cmd_mc_moment(eff: dict) -> int:
    return _mc_row(eff, "mc-moment", mc_det_moment, ["k", "m"])


def _cmd_kstar_tail(eff: dict) -> int:
    return _mc_row(eff, "kstar-tail", mc_kstar_tail, ["alpha", "n", "k"], stat="estimate")


def _parse_checkpoints(text: str | None, n: int) -> list[int]:
    if text:
        return [int(v) for v in text.split(",")]
    marks = sorted({max(1, n >> s) for s in range(4, -1, -1)})
    return marks


def _cmd_growth(eff: dict) -> int:
    started = time.monotonic()
    kernel = _parse_kernel(eff["kernel"])
    sampler = _parse_sampler(eff["sampler"], eff["seed"])
    trace = growth_experiment(
        sampler, kernel, eff["alpha"], eff["n"], _parse_checkpoints(eff.get("checkpoints"), eff["n"])
    )
    _emit(
        eff,
        "growth",
        _csv(["n", "dict_size", "log_det"], zip(trace.samples, trace.dict_size, trace.log_det)),
        started=started,
    )
    return 0


def _cmd_nystrom(eff: dict) -> int:
    started = time.monotonic()
    kernel = _parse_kernel(eff["kernel"])
    sampler = _parse_sampler(eff["sampler"], eff["seed"])
    rec = nystrom_compare(sampler, kernel, eff["alpha"], eff["n"])
    names = [f.name for f in fields(rec)]
    _emit(
        eff,
        "nystrom",
        _csv(
            ["kernel", "sampler", "alpha", "n", "seed", *names],
            [(eff["kernel"], eff["sampler"], eff["alpha"], eff["n"], eff["seed"],
              *[getattr(rec, f) for f in names])],
        ),
        started=started,
    )
    if not rec.entrywise_err_oks < rec.entrywise_bound:
        raise ValidationFailure(
            f"entrywise error {rec.entrywise_err_oks} is not below the bound {rec.entrywise_bound}"
        )
    return 0


def _cmd_regress(eff: dict) -> int:
    started = time.monotonic()
    kernel = _parse_kernel(eff["kernel"])
    try:
        xs, ys = read_labeled_csv(eff["data"])
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot read {eff['data']!r}: {exc}") from None
    d, _ = run_stream(kernel, eff["alpha"], xs)
    if len(d) == 0:
        raise ValidationFailure("dictionary stayed empty; every residual was below alpha")
    model = fit(d, xs, ys, eff["ridge"])
    header = ["n", "dict_size", "ridge", "train_mse"]
    row = [xs.shape[0], len(d), eff["ridge"], model.evaluate(xs, ys)]
    inputs = [eff["data"]]
    if eff.get("test"):
        try:
            tx, ty = read_labeled_csv(eff["test"])
        except (OSError, ValueError) as exc:
            raise CliError(f"cannot read {eff['test']!r}: {exc}") from None
        header.append("test_mse")
        row.append(model.evaluate(tx, ty))
        inputs.append(eff["test"])
    _emit(eff, "regress", _csv(header, [row]), inputs=inputs, started=started)
    return 0


def _cmd_spectrum_est(eff: dict) -> int:
    started = time.monotonic()
    kernel = _parse_kernel(eff["kernel"])
    if bool(eff.get("sampler")) == bool(eff.get("data")):
        raise CliError("give exactly one of --sampler and --data")
    if eff.get("sampler"):
        sampler = _parse_sampler(eff["sampler"], eff["seed"])
        inputs = ()
    else:
        sampler = Sampler.dataset(eff["data"], eff["seed"] or 0)
        inputs = (eff["data"],)
    pts = sampler.points(eff["n"])
    spec = empirical_spectrum(gram(kernel, pts), eff["clamp_tol"])
    body = io.StringIO()
    spec.to_csv(body)
    _emit(eff, "spectrum-est", body.getvalue(), inputs=inputs, started=started)
    return 0


def _cmd_oks_run(eff: dict) -> int:
    started = time.monotonic()
    kernel = _parse_kernel(eff["kernel"])
    try:
        pts = dataset_rows(eff["data"])
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot read {eff['data']!r}: {exc}") from None
    d, trace = run_stream(kernel, eff["alpha"], pts, eff["trace_every"])
    if eff.get("out"):
        save_dictionary(d, eff["out"] + ".dict.csv", eff["out"] + ".dict.json")
    _emit(
        eff,
        "oks-run",
        _csv(["n", "dict_size", "log_det"], zip(trace.samples, trace.dict_size, trace.log_det)),
        inputs=(eff["data"],),
        started=started,
    )
    return 0


# ---------------------------------------------------------------------------
# wiring

_COMMANDS: dict[str, tuple[Callable[[dict], int], list[Opt]]] = {
    "esp": (_cmd_esp, [
        Opt("spectrum", required=True, help="csv path | geometric:s | polynomial:p | explicit:v1,v2,..."),
        Opt("k", int, required=True),
        Opt("brute", is_flag=True, help="add the subset-enumeration column (length <= 22)"),
        Opt("trunc", int, default=64, help="truncation length for synthetic spectra"),
    ]),
    "bound": (_cmd_bound, [
        Opt("n", int, required=True),
        Opt("k", int, required=True),
        Opt("alpha", float, required=True),
        Opt("spectrum", required=True),
        Opt("delta", float, help="also print the certified-sample-count threshold"),
        Opt("trunc", int, default=64),
    ]),
    "mc-gram": (_cmd_mc_gram, [
        Opt("kernel", required=True),
        Opt("sampler", required=True, help="diag:v1,v2 | gauss:dim:scale | data:path"),
        Opt("k", int, required=True),
        Opt("trials", int, required=True),
        Opt("seed", int),
    ]),
    "mc-moment": (_cmd_mc_moment, [
        Opt("kernel", required=True),
        Opt("sampler", required=True),
        Opt("k", int, required=True),
        Opt("m", int, required=True),
        Opt("trials", int, required=True),
        Opt("seed", int),
    ]),
    "kstar-tail": (_cmd_kstar_tail, [
        Opt("kernel", required=True),
        Opt("sampler", required=True),
        Opt("alpha", float, required=True),
        Opt("n", int, required=True),
        Opt("k", int, required=True),
        Opt("trials", int, required=True),
        Opt("seed", int),
    ]),
    "growth": (_cmd_growth, [
        Opt("kernel", required=True),
        Opt("alpha", float, required=True),
        Opt("n", int, required=True),
        Opt("seed", int),
        Opt("sampler", default="gauss:1:1.0"),
        Opt("checkpoints", help="comma-separated sample counts (default: a doubling ladder)"),
    ]),
    "nystrom": (_cmd_nystrom, [
        Opt("kernel", required=True),
        Opt("alpha", float, required=True),
        Opt("n", int, required=True),
        Opt("seed", int),
        Opt("sampler", default="gauss:1:1.0"),
    ]),
    "regress": (_cmd_regress, [
        Opt("kernel", required=True),
        Opt("alpha", float, required=True),
        Opt("data", required=True, help="labeled CSV: feature columns then a final y column"),
        Opt("test", help="labeled CSV used for the test MSE column"),
        Opt("ridge", float, default=0.0),
    ]),
    "spectrum-est": (_cmd_spectrum_est, [
        Opt("kernel", required=True),
        Opt("n", int, required=True),
        Opt("sampler"),
        Opt("data"),
        Opt("seed", int),
        Opt("clamp_tol", float, default=1e-10),
    ]),
    "oks-run": (_cmd_oks_run, [
        Opt("kernel", required=True),
        Opt("alpha", float, required=True),
        Opt("data", required=True, help="CSV of point coordinates, one row per sample"),
        Opt("trace_every", int, default=0),
    ]),
}


_SUMMARIES = {
    "esp": "tabulate log nu(k) for a spectrum (optionally cross-checked by enumeration)",
    "bound": "dictionary-size tail bound and certified-sample-count threshold",
    "mc-gram": "Monte Carlo estimate of the expected Gram determinant",
    "mc-moment": "Monte Carlo estimate of a Gram determinant moment",
    "kstar-tail": "Monte Carlo tail probability of the largest passing subset size",
    "growth": "dictionary growth trace over a sampled stream",
    "nystrom": "projection error of the streaming dictionary vs a random subset",
    "regress": "dictionary-feature least squares on a labeled dataset",
    "spectrum-est": "empirical spectrum of a sampled or stored Gram matrix",
    "oks-run": "stream a dataset through a dictionary and snapshot the result",
}


def build_parser() -> _Parser:
    parser = _Parser(prog="oks", description=__doc__)
    subs = parser.add_subparsers(dest="command", metavar="subcommand")
    for name, (_, opts) in _COMMANDS.items():
        sub = subs.add_parser(name, help=_SUMMARIES[name])
        for o in [*opts, *_COMMON]:
            if o.is_flag:
                sub.add_argument(o.flag, dest=o.dest, action="store_true", help=o.help)
            else:
                sub.add_argument(o.flag, dest=o.dest, type=o.typ, default=None, help=o.help)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        if not getattr(ns, "command", None):
            raise CliError("a subcommand is required (see --help)")
        handler, opts = _COMMANDS[ns.command]
        all_opts = [*opts, *_COMMON]
        eff = _effective(ns, all_opts)
        if ns.dump_config:
            _dump(eff, all_opts)
            return 0
        return handler(eff)
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
