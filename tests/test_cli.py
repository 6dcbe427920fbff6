import dataclasses
import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oks
from oks import cli, harness
from oks.cli import main
from oks.harness import load_dictionary
from oks.regress import write_labeled_csv


@pytest.fixture
def inputs(tmp_path):
    rng = np.random.default_rng(3)
    xs = rng.standard_normal((40, 2))
    points = tmp_path / "points.csv"
    points.write_text("x0,x1\n" + "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in xs))
    labeled = tmp_path / "labeled.csv"
    write_labeled_csv(str(labeled), xs, np.sin(xs[:, 0]) + 0.3 * xs[:, 1])
    spectrum = tmp_path / "spectrum.csv"
    spectrum.write_text("0.4\n0.3\n")
    return {"points": str(points), "labeled": str(labeled), "spectrum": str(spectrum)}


def _invocations(inputs):
    return {
        "esp": ["esp", "--spectrum", "polynomial:0.5", "--k", "5", "--brute", "--trunc", "16"],
        "bound": ["bound", "--n", "1000", "--k", "20", "--alpha", "0.5",
                  "--spectrum", "polynomial:1", "--delta", "0.1"],
        "mc-gram": ["mc-gram", "--kernel", "rbf:1.0", "--sampler", "gauss:2", "--k", "2",
                    "--trials", "5000", "--seed", "3"],
        "mc-moment": ["mc-moment", "--kernel", "rbf:1.0", "--sampler", "gauss:2", "--k", "2",
                      "--m", "2", "--trials", "1000", "--seed", "3"],
        "kstar-tail": ["kstar-tail", "--kernel", "rbf:1.0", "--sampler", "gauss:2",
                       "--alpha", "0.9", "--n", "5", "--k", "3", "--trials", "5000", "--seed", "3"],
        "growth": ["growth", "--kernel", "rbf:1.0", "--alpha", "0.05", "--n", "300",
                   "--sampler", "gauss:2", "--seed", "4"],
        "nystrom": ["nystrom", "--kernel", "rbf:1.0", "--alpha", "0.01", "--n", "100",
                    "--seed", "5"],
        "regress": ["regress", "--kernel", "rbf:1.0", "--alpha", "0.05",
                    "--data", inputs["labeled"], "--test", inputs["labeled"], "--ridge", "1e-3"],
        "spectrum-est": ["spectrum-est", "--kernel", "rbf:1.0", "--n", "30",
                         "--sampler", f"data:{inputs['points']}"],
        "oks-run": ["oks-run", "--kernel", "rbf:1.0", "--alpha", "0.05", "--data",
                    inputs["points"], "--trace-every", "10"],
    }


def _run(capsys, args):
    rc = main(args)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _manifest(out):
    with open(f"{out}.manifest.json") as fh:
        return json.load(fh)


# --- exit code 0 and byte-identical bodies ------------------------------------

@pytest.mark.parametrize(
    "command",
    ["esp", "bound", "mc-gram", "mc-moment", "kstar-tail", "growth", "nystrom", "regress",
     "spectrum-est", "oks-run"],
)
def test_body_is_identical_across_runs_and_matches_stdout(command, inputs, tmp_path, capsys):
    args = _invocations(inputs)[command]
    bodies = []
    for i in range(2):
        out = tmp_path / f"run{i}.csv"
        rc, stdout, _ = _run(capsys, [*args, "--out", str(out)])
        assert rc == 0
        assert stdout == ""
        bodies.append(out.read_bytes())
        manifest = _manifest(out)
        assert manifest["subcommand"] == command
        assert manifest["wall_time_s"] > 0
    assert bodies[0] == bodies[1]
    rc, stdout, _ = _run(capsys, args)
    assert rc == 0
    assert stdout.encode() == bodies[0]


@pytest.mark.parametrize("command", ["mc-gram", "kstar-tail"])
def test_body_does_not_depend_on_chunk_size(command, inputs, monkeypatch, capsys):
    # 5000 trials make three default chunks, or 715 chunks of at most 7
    args = _invocations(inputs)[command]
    bodies = []
    for chunk in (harness._CHUNK, 7):
        monkeypatch.setattr(harness, "_CHUNK", chunk)
        rc, stdout, _ = _run(capsys, args)
        assert rc == 0
        bodies.append(stdout)
    assert bodies[0] == bodies[1]


_MC_GOLDEN = {
    "kstar-tail": (
        ["--alpha", "0.9", "--n", "10", "--k", "5", "--trials", "600"],
        "kernel,sampler,alpha,n,k,trials,seed,estimate,std_error\n"
        "rbf:1.0,gauss:2,0.9,10,5,600,1,0.5183333333333333,0.020415708414476413\n",
    ),
    "mc-gram": (
        ["--k", "6", "--trials", "1000"],
        "kernel,sampler,k,trials,seed,mean,std_error\n"
        "rbf:1.0,gauss:2,6,1000,1,0.04988977592923656,0.0030740579080733993\n",
    ),
    "mc-moment": (
        ["--k", "4", "--m", "2", "--trials", "1000"],
        "kernel,sampler,k,m,trials,seed,mean,std_error\n"
        "rbf:1.0,gauss:2,4,2,1000,1,0.1387323485441288,0.006763681617493693\n",
    ),
}

# The same runs with every matrix on the pivoted elimination, which rounds
# mc-gram's per-trial log dets differently in the last bits.
_MC_GOLDEN_PIVOTED = {
    **_MC_GOLDEN,
    "mc-gram": (
        _MC_GOLDEN["mc-gram"][0],
        "kernel,sampler,k,trials,seed,mean,std_error\n"
        "rbf:1.0,gauss:2,6,1000,1,0.04988977592923656,0.0030740579080733997\n",
    ),
}


def _mc_body(command, golden, capsys):
    options, body = golden[command]
    rc, stdout, _ = _run(capsys, [command, "--kernel", "rbf:1.0", "--sampler", "gauss:2",
                                  "--seed", "1", *options])
    assert rc == 0
    return stdout, body


@pytest.mark.parametrize("command", sorted(_MC_GOLDEN))
def test_mc_body_matches_its_recorded_value(command, capsys):
    # the benchmark's three Monte Carlo configurations at fewer trials; the
    # bodies pin every trial's draw to its fresh Philox(key=[seed, 1 + trial])
    stdout, body = _mc_body(command, _MC_GOLDEN, capsys)
    assert stdout == body


@pytest.mark.parametrize("command", sorted(_MC_GOLDEN_PIVOTED))
def test_mc_body_on_the_pivoted_path_matches_its_recorded_value(command, monkeypatch, capsys):
    # with Cholesky switched off, every log det takes the pivoted elimination
    def no_cholesky(a):
        raise np.linalg.LinAlgError("Cholesky switched off")

    monkeypatch.setattr(np.linalg, "cholesky", no_cholesky)
    stdout, body = _mc_body(command, _MC_GOLDEN_PIVOTED, capsys)
    assert stdout == body


def test_mc_moment_of_order_1_is_mc_gram(inputs, capsys):
    # the same estimator: the mean and std_error cells agree to the last digit
    gram_args = _invocations(inputs)["mc-gram"]
    rc, gram_out, _ = _run(capsys, gram_args)
    assert rc == 0
    rc, moment_out, _ = _run(capsys, ["mc-moment", *gram_args[1:], "--m", "1"])
    assert rc == 0
    (gram_header, gram_row), (moment_header, moment_row) = (
        [line.split(",") for line in out.splitlines()] for out in (gram_out, moment_out)
    )
    for column in ("mean", "std_error"):
        assert gram_row[gram_header.index(column)] == moment_row[moment_header.index(column)]


@pytest.mark.parametrize("m", ["0", "4"])
def test_mc_moment_order_outside_1_to_3_exits_1(m, inputs, capsys):
    args = _invocations(inputs)["mc-moment"]
    args[args.index("--m") + 1] = m
    rc, stdout, err = _run(capsys, args)
    assert rc == 1
    assert stdout == ""
    assert "moment order m must be 1, 2 or 3" in err


def test_data_sampler_without_seed_writes_an_empty_seed_cell(inputs, capsys):
    rc, stdout, _ = _run(capsys, ["kstar-tail", "--kernel", "rbf:1.0",
                                  "--sampler", f"data:{inputs['points']}", "--alpha", "0.9",
                                  "--n", "5", "--k", "3", "--trials", "2"])
    assert rc == 0
    header, row = stdout.splitlines()
    assert header.split(",")[-3] == "seed"
    assert row.split(",")[-3] == ""


def test_mc_gram_ignores_a_stale_thread_variable(inputs, monkeypatch, capsys):
    # the Monte Carlo path is serial; OKS_THREADS is no longer read
    args = _invocations(inputs)["mc-gram"]
    rc, before, _ = _run(capsys, args)
    assert rc == 0
    monkeypatch.setenv("OKS_THREADS", "many")
    rc, after, _ = _run(capsys, args)
    assert rc == 0
    assert after == before


def test_oks_run_out_writes_dictionary_snapshot(inputs, tmp_path, capsys):
    out = tmp_path / "run.csv"
    rc, _, _ = _run(capsys, [*_invocations(inputs)["oks-run"], "--out", str(out)])
    assert rc == 0
    last = out.read_text().splitlines()[-1].split(",")
    members = (tmp_path / "run.csv.dict.csv").read_text().splitlines()
    assert len(members) - 1 == int(last[1])  # a header row, then one row per member
    assert json.loads((tmp_path / "run.csv.dict.json").read_text())["alpha"] == 0.05


def test_oks_run_snapshot_text_is_pinned(tmp_path, capsys):
    # linear kernel: [1, 0] and [0, 2] are admitted with residuals 1 and 4,
    # and [1, 1] lies in their span, so its residual is 0
    data = tmp_path / "points.csv"
    data.write_text("x0,x1\n1,0\n0,2\n1,1\n")
    out = tmp_path / "run.csv"
    rc, _, _ = _run(capsys, ["oks-run", "--kernel", "linear", "--alpha", "0.5",
                             "--data", str(data), "--out", str(out)])
    assert rc == 0
    assert (tmp_path / "run.csv.dict.csv").read_text() == "x0,x1\n1.0,0.0\n0.0,2.0\n"
    assert (tmp_path / "run.csv.dict.json").read_text() == (
        '{\n  "alpha": 0.5,\n  "kernel": "linear",\n  "log_det": 1.3862943611198906,\n'
        '  "size": 2\n}\n'
    )


def test_oks_run_snapshot_of_empty_dictionary_loads_back(inputs, tmp_path, capsys):
    # an rbf kernel has k(x, x) = 1, so alpha = 2 rejects every point
    out = tmp_path / "run.csv"
    rc, _, _ = _run(capsys, ["oks-run", "--kernel", "rbf:1.0", "--alpha", "2.0",
                             "--data", inputs["points"], "--out", str(out)])
    assert rc == 0
    back = load_dictionary(str(tmp_path / "run.csv.dict.csv"))
    assert len(back) == 0
    assert back.members.shape == (0, 2)


def test_esp_beyond_spectrum_length_is_zero_state(capsys):
    # nu_1 = 3 and nu_2 = 2! * (2 * 1) = 4 over two values; nu_3 = 0 exactly
    rc, stdout, _ = _run(capsys, ["esp", "--spectrum", "explicit:2,1", "--k", "3"])
    assert rc == 0
    lines = stdout.splitlines()
    assert lines[0] == "k,log_nu"
    values = [float(line.split(",")[1]) for line in lines[1:4]]
    assert values == pytest.approx([0.0, math.log(3.0), math.log(4.0)], rel=1e-14)
    assert lines[4:] == ["3,-inf"]


# --- exit code 1: usage errors --------------------------------------------------

def test_bad_flag_exits_1(capsys):
    rc, stdout, err = _run(capsys, ["esp", "--spectrum", "geometric:2", "--k", "3", "--bogus", "1"])
    assert rc == 1
    assert stdout == ""
    assert "usage error" in err


def test_kstar_tail_nonpositive_alpha_exits_1(capsys):
    for alpha in ("0", "-1"):
        rc, stdout, err = _run(capsys, ["kstar-tail", "--kernel", "rbf:1.0", "--sampler", "gauss:2",
                                        "--alpha", alpha, "--n", "5", "--k", "3", "--trials", "10",
                                        "--seed", "3"])
        assert rc == 1
        assert stdout == ""
        assert "error: alpha must be positive" in err


@pytest.mark.parametrize("flags", [["--data", "{points}"],
                                   ["--sampler", "data:{points}", "--clamp-tol", "1e-10"]],
                         ids=["data", "clamp-tol"])
def test_spectrum_est_retired_flags_exit_1(flags, inputs, capsys):
    # a data: sampler is the one way to read points; the clamp is a constant
    args = ["spectrum-est", "--kernel", "rbf:1.0", "--n", "5", *[f.format(**inputs) for f in flags]]
    rc, stdout, err = _run(capsys, args)
    assert rc == 1
    assert stdout == ""
    assert "usage error" in err


def test_oks_run_negative_trace_every_exits_1(inputs, capsys):
    rc, stdout, err = _run(capsys, ["oks-run", "--kernel", "rbf:1.0", "--alpha", "0.05",
                                    "--data", inputs["points"], "--trace-every", "-1"])
    assert rc == 1
    assert stdout == ""
    assert "usage error: --trace-every must be >= 0" in err


def test_bound_beyond_a_declared_tail_exits_1(tmp_path, capsys):
    spectrum = tmp_path / "tailed.csv"
    spectrum.write_text("# tail=0.5\n0.4\n0.3\n")
    rc, stdout, err = _run(capsys, ["bound", "--n", "10", "--k", "3", "--alpha", "0.5",
                                    "--spectrum", str(spectrum), "--delta", "0.1"])
    assert rc == 1
    assert stdout == ""
    assert "usage error: k=3 exceeds spectrum length 2" in err


def test_bound_beyond_a_finite_spectrum_is_probability_0(capsys):
    rc, stdout, _ = _run(capsys, ["bound", "--n", "10", "--k", "3", "--alpha", "0.5",
                                  "--spectrum", "explicit:0.4,0.3", "--delta", "0.1"])
    assert rc == 0
    header, row = stdout.splitlines()
    assert header == "n,k,alpha,log_bound,probability_raw,probability,delta,threshold_n"
    assert row == "10,3,0.5,-inf,0.0,0.0,0.1,inf"


@pytest.mark.parametrize("n, alpha, delta", [("2", "0.5", "0.1"), ("10", "0", "0.1"),
                                             ("10", "0.5", "2")],
                         ids=["k-above-n", "alpha", "delta"])
def test_bound_beyond_a_finite_spectrum_still_checks_its_arguments(n, alpha, delta, capsys):
    rc, stdout, err = _run(capsys, ["bound", "--n", n, "--k", "3", "--alpha", alpha,
                                    "--spectrum", "explicit:0.4,0.3", "--delta", delta])
    assert rc == 1
    assert stdout == ""
    assert "error" in err


def test_bound_bad_delta_is_a_usage_error(capsys):
    rc, stdout, err = _run(capsys, ["bound", "--n", "10", "--k", "3", "--alpha", "0.5",
                                    "--spectrum", "explicit:0.4,0.3,0.2", "--delta", "2"])
    assert rc == 1
    assert stdout == ""
    assert err.startswith("usage error: delta must lie in (0, 1)")


def test_missing_subcommand_and_required_option_exit_1(capsys):
    assert _run(capsys, [])[0] == 1
    assert _run(capsys, ["esp", "--k", "3"])[0] == 1


def test_unknown_config_key_exits_1(tmp_path, capsys):
    # --config and --dump-config say how a run is configured; they are not settings
    config = tmp_path / "run.conf"
    for line, key in [("nonsense=1", "nonsense"), ("dump-config=true", "dump_config"),
                      ("config=/nonexistent", "config")]:
        config.write_text(f"spectrum=geometric:2\nk=3\n{line}\n")
        rc, stdout, err = _run(capsys, ["esp", "--config", str(config)])
        assert rc == 1
        assert stdout == ""
        assert f"unknown config key {key!r}" in err


@pytest.mark.parametrize(
    "args",
    [
        ["oks-run", "--kernel", "rbf:1.0", "--alpha", "0.1", "--data", "{missing}"],
        ["spectrum-est", "--kernel", "rbf:1.0", "--n", "5", "--sampler", "data:{missing}"],
        ["regress", "--kernel", "rbf:1.0", "--alpha", "0.1", "--data", "{missing}"],
        ["esp", "--config", "{missing}"],
    ],
    ids=["oks-run", "spectrum-est", "regress", "config"],
)
def test_missing_file_exits_1(args, tmp_path, capsys):
    missing = str(tmp_path / "absent.csv")
    rc, stdout, err = _run(capsys, [a.replace("{missing}", missing) for a in args])
    assert rc == 1
    assert stdout == ""
    assert err


@pytest.mark.parametrize(
    "command, text",
    [("oks-run", "x0,x1\n1,2\n3\n"), ("regress", "x0,y\n1,2\n3,4,5\n")],
    ids=["oks-run-narrow", "regress-wide"],
)
def test_ragged_rows_exit_1_naming_the_file_and_both_widths(command, text, tmp_path, capsys):
    data = tmp_path / "ragged.csv"
    data.write_text(text)
    rc, stdout, err = _run(capsys, [command, "--kernel", "linear", "--alpha", "0.5",
                                    "--data", str(data)])
    assert rc == 1
    assert stdout == ""
    assert str(data) in err
    widths = (1, 2) if command == "oks-run" else (3, 2)
    assert f"a row has {widths[0]} cells, the first row {widths[1]}" in err


def test_regress_rank_deficient_without_ridge_exits_1(tmp_path, capsys):
    # both points are admitted, but the design diag(1e16, 1) has a singular
    # value ratio below eps * 2, so it is rank 1 by the lstsq rule
    data = tmp_path / "scaled.csv"
    write_labeled_csv(str(data), np.array([[1e8, 0.0], [0.0, 1.0]]), np.array([1.0, 1.0]))
    rc, stdout, err = _run(capsys, ["regress", "--kernel", "linear", "--alpha", "0.5",
                                    "--data", str(data), "--ridge", "0"])
    assert rc == 1
    assert stdout == ""
    assert "rank" in err


def _refuse_stream(monkeypatch):
    def no_stream(*args, **kwargs):
        raise AssertionError("the stream started")

    monkeypatch.setattr(cli, "run_stream", no_stream)


def test_regress_negative_ridge_is_refused_before_the_stream(inputs, monkeypatch, capsys):
    _refuse_stream(monkeypatch)
    rc, stdout, err = _run(capsys, ["regress", "--kernel", "rbf:1.0", "--alpha", "0.05",
                                    "--data", inputs["labeled"], "--ridge", "-1"])
    assert rc == 1
    assert stdout == ""
    assert err == "usage error: --ridge must be >= 0\n"


def test_regress_test_width_mismatch_names_both_files(inputs, tmp_path, monkeypatch, capsys):
    wide = tmp_path / "wide.csv"
    write_labeled_csv(str(wide), np.ones((4, 3)), np.ones(4))
    _refuse_stream(monkeypatch)
    out = tmp_path / "fit.csv"
    rc, stdout, err = _run(capsys, ["regress", "--kernel", "rbf:1.0", "--alpha", "0.05",
                                    "--data", inputs["labeled"], "--test", str(wide),
                                    "--out", str(out)])
    assert rc == 1
    assert stdout == ""
    assert not out.exists()
    assert err.startswith("usage error: ")
    assert f"--test {str(wide)!r} has 3 feature columns" in err
    assert f"--data {inputs['labeled']!r} has 2" in err


# --- exit code 2: validation failure -----------------------------------------------

def test_regress_with_empty_dictionary_exits_2(inputs, tmp_path, capsys):
    # an rbf kernel has k(x, x) = 1, so alpha = 2 rejects every point
    out = tmp_path / "fit.csv"
    rc, _, err = _run(capsys, ["regress", "--kernel", "rbf:1.0", "--alpha", "2.0",
                               "--data", inputs["labeled"], "--out", str(out)])
    assert rc == 2
    assert "validation failure" in err
    assert not out.exists()


def test_nystrom_writes_its_body_before_exiting_2(monkeypatch, tmp_path, capsys):
    real = cli.nystrom_compare

    def over_bound(*args):
        rec = real(*args)
        return dataclasses.replace(rec, entrywise_err_oks=rec.entrywise_bound)

    monkeypatch.setattr(cli, "nystrom_compare", over_bound)
    out = tmp_path / "nystrom.csv"
    rc, stdout, err = _run(capsys, ["nystrom", "--kernel", "rbf:1.0", "--alpha", "0.01",
                                    "--n", "50", "--seed", "5", "--out", str(out)])
    assert rc == 2
    assert stdout == ""
    assert "validation failure: entrywise error" in err
    header, row = out.read_text().splitlines()
    columns = dict(zip(header.split(","), row.split(",")))
    assert columns["entrywise_err_oks"] == columns["entrywise_bound"]
    assert _manifest(out)["subcommand"] == "nystrom"


# --- --dump-config -> --config -------------------------------------------------------

@pytest.mark.parametrize("command", ["growth", "esp"])
def test_dump_config_round_trip(command, inputs, tmp_path, capsys):
    args = _invocations(inputs)[command]
    rc, dumped, _ = _run(capsys, [*args, "--dump-config"])
    assert rc == 0
    config = tmp_path / "run.conf"
    config.write_text(dumped)
    rc, redumped, _ = _run(capsys, [args[0], "--config", str(config), "--dump-config"])
    assert rc == 0
    assert redumped == dumped
    direct, replayed = tmp_path / "direct.csv", tmp_path / "replayed.csv"
    assert _run(capsys, [*args, "--out", str(direct)])[0] == 0
    assert _run(capsys, [args[0], "--config", str(config), "--out", str(replayed)])[0] == 0
    assert direct.read_bytes() == replayed.read_bytes()
    assert _manifest(direct)["params"] == _manifest(replayed)["params"]


# --- manifest input_hash -----------------------------------------------------------

@pytest.mark.parametrize("command", ["spectrum-est", "oks-run", "growth", "bound"])
def test_input_hash_follows_data_bytes(command, inputs, tmp_path, capsys):
    # each run with the file it reads and a row that keeps that file valid
    args, read, row = {
        "spectrum-est": (_invocations(inputs)[command], "points", "0.25,-0.5\n"),
        "oks-run": (_invocations(inputs)[command], "points", "0.25,-0.5\n"),
        "growth": (["growth", "--kernel", "rbf:1.0", "--alpha", "0.05", "--n", "30",
                    "--sampler", f"data:{inputs['points']}"], "points", "0.25,-0.5\n"),
        "bound": (["bound", "--n", "10", "--k", "2", "--alpha", "0.5",
                   "--spectrum", inputs["spectrum"]], "spectrum", "0.2\n"),
    }[command]

    def input_hash(tag):
        out = tmp_path / f"{tag}.csv"
        assert _run(capsys, [*args, "--out", str(out)])[0] == 0
        return _manifest(out)["input_hash"]

    first = input_hash("first")
    assert input_hash("again") == first
    with open(inputs[read], "a") as fh:
        fh.write(row)
    assert input_hash("changed") != first


# --- package surface ---------------------------------------------------------------

def test_every_exported_name_resolves():
    # a deleted function must not linger in an __all__
    modules = [oks] + [importlib.import_module(f"oks.{m.name}")
                       for m in pkgutil.iter_modules(oks.__path__) if m.name != "__main__"]
    assert len(modules) == 10
    for module in modules:
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.__all__ names {name!r}"


# --- start-up cost ---------------------------------------------------------------

def test_cli_import_does_not_load_scipy_sparse():
    # every command pays for `import oks.cli`; scipy.sparse or scipy.special
    # alone would add tens of milliseconds to it
    src = str(Path(oks.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, oks.cli; print('scipy.sparse' in sys.modules, 'scipy.special' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True, timeout=120)
    assert done.stdout.strip() == "False False"


def test_module_help_lists_every_subcommand_with_its_summary():
    src = str(Path(oks.__file__).resolve().parents[1])
    env = {**os.environ, "COLUMNS": "200",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-m", "oks", "--help"], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0
    assert len(cli._COMMANDS) == 10
    for name, (summary, _, _) in cli._COMMANDS.items():
        assert f"\n    {name}" in done.stdout
        assert summary in done.stdout
