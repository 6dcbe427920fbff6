import dataclasses
import hashlib
import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
import textwrap
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
        "esp": ["esp", "--spectrum", "polynomial:0.5", "--k", "5", "--trunc", "16"],
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


# growth under the kernels that the invocations above leave out
_KERNEL_GROWTH = {
    f"growth-{kernel.partition(':')[0]}": ["growth", "--kernel", kernel, "--alpha", "0.05",
                                            "--n", "300", "--sampler", sampler, "--seed", "4"]
    for kernel, sampler in (("linear", "diag:1.0,0.5,0.25"), ("poly:2:1.0:0.5", "gauss:2"),
                            ("pow:2:rbf:1.0", "gauss:2"))
}

# growth at explicit checkpoints, unsorted and repeated: it writes the marks 10, 40 and 50
_CHECKPOINT_GROWTH = {
    "growth-checkpoints": ["growth", "--kernel", "rbf:1.0", "--alpha", "0.1", "--n", "50",
                           "--seed", "1", "--checkpoints", "40,10,10"],
}

# bodies whose Gram spans more than one tile of kernels.gram, run in a fresh
# process with one BLAS thread: the eigensolver behind spectrum-est rounds its
# n = 300 spectrum differently on more threads
_TILED = {
    "nystrom-600": ["nystrom", "--kernel", "rbf:1.0", "--alpha", "0.01", "--n", "600",
                    "--seed", "5"],
    "spectrum-est-300": ["spectrum-est", "--kernel", "rbf:1.0", "--n", "300",
                         "--sampler", "gauss:2", "--seed", "5"],
}


def _run_on_blas_threads(args, threads=1):
    src = str(Path(oks.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "OMP_NUM_THREADS": str(threads),
           "MKL_NUM_THREADS": str(threads),
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-m", "oks", *args], capture_output=True, text=True,
                          env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


# sha256 of each body, recorded before the per-kind kernel formulas were
# merged into one (growth-checkpoints: before run_stream returned its rows
# as plain tuples); a body that changes here changed its numbers.  growth,
# growth-poly, growth-pow and oks-run were recorded again when the in-block
# walk moved to the Schur complement of the block's candidates, which sums
# in another order: every n and dict_size cell stayed the same, and log_det
# moved by at most 7.8e-15 relative.  The _TILED bodies were recorded before
# kernels.gram formed its values over the upper tiles only.  regress was
# recorded again when fit stacked the ridge triangle on top of the design and
# factored it by one triangular-pentagonal QR: n and dict_size stayed 40 and
# 23, and both mse cells went from 0.0001541233553645326 to ...323.  The
# bodies with marks (growth, growth-checkpoints, growth-pow, oks-run) were
# recorded again when run_stream stopped cutting the ALD blocks at its marks:
# every n and dict_size cell stayed the same, and log_det moved by at most
# 1.6e-15 relative (growth be63dbfd… → 525b43c2…, growth-checkpoints
# 392e91ce… → 64fb567f…, growth-pow dd8c1a40… → d1e84fb7…, oks-run
# 646968fd… → 1ced17cd…).  esp was recorded again without its
# subset-enumeration column when that option was removed (0c66ddd6… →
# 7410c9bf…): the new body is the old one without its third column, and the
# same arguments without that option wrote these bytes before.
_BODY_SHA256 = {
    "esp": "7410c9bfa3d7c82d4f8e36dcb7a199a87cd686631ba3a99366f34ac6b0fc2825",
    "bound": "c005d2a26220c8888e348aa0f843ebd6c34bbd3fe5db1e546b7469e02d73d115",
    "mc-gram": "510661712870272b79822374d852f05a4163edbbc3fb79bcc9f44abaaf384023",
    "mc-moment": "004baa333aa031cb62a41943cb9e2fcf23cec9377fd236ae0901ff5503050509",
    "kstar-tail": "498de09e0d6b02d9410366f67d00e1dd8c344a67c7cede8b9f21dded3802d433",
    "growth": "525b43c28c42c9db370a5450cb4d20fdbe9c43a464a5f77119d2bc2f9c208d3b",
    "nystrom": "4c45a0c35f7a4fce3d9a0f12e0c01d1e0364c080d7b325d446302bb0a22feac0",
    "regress": "783ade986301a074942df829f6c29bb2445d1541fd61d29724d0ee7927898bdf",
    "spectrum-est": "4b92a9725fb041cac95221ef48763d17e7e7ebec5df1f5e285a1ee90eb8b220f",
    "oks-run": "1ced17cd27c2c4cf6402a0aff109ebaee13c36080571d567315ea85f3f7e7512",
    "growth-linear": "d3716066b2c2552b700820393e5c305c2680dbdeb741d6f2b96041af59c7610c",
    "growth-poly": "309deab738d480e14fb16c6ec123009ee45724f182adfa2a993d40cf04f2280b",
    "growth-pow": "d1e84fb7ef35ffb235e96c4d3ee9e810c694cbd26bf9386863a8400b1caf833d",
    "growth-checkpoints": "64fb567fb271ac433d8e22ed600c5ece51fd952cd3aa615c0671ed449b2557fc",
    "nystrom-600": "825fd351afdcb5ae9f4c844bf952d7601ebeb25907183e18f492c06d3e8a0b3c",
    "spectrum-est-300": "ab520493c7653e5dcd67e8c0697673eba994fcc85260f76e8d11143050de4c9a",
}


@pytest.mark.parametrize("name", sorted(_BODY_SHA256))
def test_body_matches_its_recorded_digest(name, inputs, capsys):
    if name in _TILED:
        stdout = _run_on_blas_threads(_TILED[name])
    else:
        rc, stdout, _ = _run(capsys,
                             {**_invocations(inputs), **_KERNEL_GROWTH, **_CHECKPOINT_GROWTH}[name])
        assert rc == 0
    assert hashlib.sha256(stdout.encode()).hexdigest() == _BODY_SHA256[name]


def _cell(text):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _float_columns(body_a, body_b):
    # the two bodies' cells side by side: text and integer cells must be equal,
    # float cells are returned as two arrays per column
    rows_a, rows_b = body_a.splitlines(), body_b.splitlines()
    assert len(rows_a) == len(rows_b)
    columns = {}
    for row_a, row_b in zip(rows_a, rows_b):
        cells_a, cells_b = row_a.split(","), row_b.split(",")
        assert len(cells_a) == len(cells_b)
        for j, (a, b) in enumerate(zip(cells_a, cells_b)):
            if isinstance(_cell(a), float):
                columns.setdefault(j, []).append((float(a), float(b)))
            else:
                assert a == b
    return {j: np.array(pairs).T for j, pairs in columns.items()}


@pytest.mark.parametrize("command", ["regress", "spectrum-est"])
def test_body_across_blas_thread_counts_keeps_the_stated_contract(command, tmp_path):
    # the cli docstring's contract: integer cells equal, float cells within
    # 1e-12 of their column's largest magnitude.  The regress rows are large
    # enough for OpenBLAS to split its products over two threads; the spread
    # measured at most 5e-15 relative there, and 3e-16 of the largest
    # eigenvalue on spectrum-est
    if command == "regress":
        rng = np.random.default_rng(1)
        x = 1.05 * rng.standard_normal((1200, 10))
        y = np.sin(x[:, 0]) + 0.5 * x[:, 1] * x[:, 2] + 0.1 * rng.standard_normal(1200)
        write_labeled_csv(str(tmp_path / "train.csv"), x[:1000], y[:1000])
        write_labeled_csv(str(tmp_path / "test.csv"), x[1000:], y[1000:])
        args = ["regress", "--kernel", "rbf:1.5", "--alpha", "0.3", "--ridge", "1e-3",
                "--data", str(tmp_path / "train.csv"), "--test", str(tmp_path / "test.csv")]
    else:
        args = _TILED["spectrum-est-300"]
    one, two = (_run_on_blas_threads(args, threads) for threads in (1, 2))
    for a, b in _float_columns(one, two).values():
        assert np.all(np.abs(a - b) <= 1e-12 * np.max(np.abs(a)))


@pytest.mark.parametrize("command", ["mc-gram", "kstar-tail"])
def test_body_does_not_depend_on_chunk_size(command, inputs, monkeypatch, capsys):
    # 5000 trials make three default chunks, or 715 chunks of at most 7;
    # kstar-tail's also run one trial per chunk when no subset stack fits
    # _SPAN_DOUBLES
    args = _invocations(inputs)[command]
    splits = [{}, {"_CHUNK": 7}] + ([{"_SPAN_DOUBLES": 1}] if command == "kstar-tail" else [])
    bodies = []
    for split in splits:
        with monkeypatch.context() as m:
            for name, value in split.items():
                m.setattr(harness, name, value)
            rc, stdout, _ = _run(capsys, args)
        assert rc == 0
        bodies.append(stdout)
    assert bodies == [bodies[0]] * len(splits)


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
    for alpha in ("0", "-1", "inf"):
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


@pytest.mark.parametrize("flags, message", [
    (["--n", "50", "--checkpoints", ",10"],
     "--checkpoints: invalid literal for int() with base 10: ''"),
    (["--n", "50", "--checkpoints", "60"], "--checkpoints must lie in [1, --n] = [1, 50]"),
    (["--n", "50", "--checkpoints", "0,10"], "--checkpoints must lie in [1, --n] = [1, 50]"),
    (["--n", "0"], "--n must lie in [1, 100000]"),
    (["--n", "200000", "--checkpoints", "10"], "--n must lie in [1, 100000]"),
], ids=["checkpoints-empty-entry", "checkpoints-beyond-n", "checkpoints-zero", "n-zero",
        "n-above-cap"])
def test_growth_flag_errors_are_usage_errors(flags, message, capsys):
    rc, stdout, err = _run(capsys, ["growth", "--kernel", "rbf:1.0", "--alpha", "0.1",
                                    "--seed", "1", *flags])
    assert rc == 1
    assert stdout == ""
    assert err == f"usage error: {message}\n"


@pytest.mark.parametrize("n", ["0", "-1"])
def test_spectrum_est_n_below_1_is_a_usage_error(n, tmp_path, capsys):
    out = tmp_path / "spectrum.csv"
    rc, stdout, err = _run(capsys, ["spectrum-est", "--kernel", "rbf:1.0", "--n", n,
                                    "--sampler", "gauss:1", "--seed", "1", "--out", str(out)])
    assert rc == 1
    assert stdout == ""
    assert err == "usage error: --n must be >= 1\n"
    assert not out.exists()


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
                                             ("10", "inf", "0.1"), ("10", "0.5", "2")],
                         ids=["k-above-n", "alpha", "alpha-inf", "delta"])
def test_bound_beyond_a_finite_spectrum_still_checks_its_arguments(n, alpha, delta, capsys):
    rc, stdout, err = _run(capsys, ["bound", "--n", n, "--k", "3", "--alpha", alpha,
                                    "--spectrum", "explicit:0.4,0.3", "--delta", delta])
    assert rc == 1
    assert stdout == ""
    assert "error" in err


@pytest.mark.parametrize("kernel, sampler, message", [
    ("rbf:1.0", "gauss:2:1e160", "points overflow: 2 |x|^2 is not finite"),
    ("poly:3:1.0:1.0", "gauss:1:1e110", "k(x, x) = inf is not finite"),
    ("rbf:inf", "gauss:1", "rbf bandwidth must be positive and finite"),
    ("poly:2:inf:1.0", "gauss:1", "polynomial offset must be nonnegative and finite"),
    ("poly:2:1.0:inf", "gauss:1", "polynomial scale must be positive and finite"),
    ("rbf:1.0", "gauss:1:inf", "scale must be positive and finite"),
], ids=["overflow-rbf", "overflow-poly", "rbf-bandwidth", "poly-offset", "poly-scale",
        "gauss-scale"])
def test_growth_refuses_what_would_make_a_kernel_value_non_finite(kernel, sampler, message,
                                                                  capsys):
    rc, stdout, err = _run(capsys, ["growth", "--kernel", kernel, "--sampler", sampler,
                                    "--alpha", "0.1", "--n", "20", "--seed", "1"])
    assert rc == 1
    assert stdout == ""
    assert message in err


@pytest.mark.parametrize("args", [
    ["mc-gram", "--k", "2", "--trials", "1000"],
    ["mc-moment", "--k", "2", "--m", "2", "--trials", "1000"],
    ["kstar-tail", "--alpha", "0.5", "--n", "5", "--k", "2", "--trials", "1000"],
    ["spectrum-est", "--n", "5"],
], ids=lambda args: args[0])
def test_gram_commands_refuse_a_non_finite_k_xx(args, capsys):
    # |x|^2 is finite at |x| ~ 1e110, but (|x|^2 + 1)^3 is not: a Monte Carlo
    # mean must not come out of inf Gram entries, nor an eigensolver fail on them
    rc, stdout, err = _run(capsys, [*args, "--kernel", "poly:3:1.0:1.0",
                                    "--sampler", "gauss:1:1e110", "--seed", "1"])
    assert rc == 1
    assert stdout == ""
    assert err.startswith("error: k(x, x) = inf is not finite at row ")


def test_running_out_of_memory_prints_an_error_line(monkeypatch, capsys):
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 74.5 GiB for an array with shape (100000, 100000)")

    monkeypatch.setattr(cli, "gram", no_memory)
    rc, stdout, err = _run(capsys, ["spectrum-est", "--kernel", "rbf:1.0", "--n", "10",
                                    "--sampler", "gauss:1", "--seed", "1"])
    assert rc == 1
    assert stdout == ""
    assert err == ("error: out of memory: "
                   "Unable to allocate 74.5 GiB for an array with shape (100000, 100000)\n")


def test_growth_infinite_alpha_exits_1_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "g.csv"
    rc, stdout, err = _run(capsys, ["growth", "--kernel", "rbf:1.0", "--alpha", "inf", "--n", "20",
                                    "--seed", "1", "--out", str(out)])
    assert rc == 1
    assert stdout == ""
    assert "error: alpha must be positive" in err
    assert not out.exists()
    assert not (tmp_path / "g.csv.manifest.json").exists()


@pytest.mark.parametrize(
    "args",
    [["esp", "--spectrum", "geometric:2", "--k", "3", "--trunc", "-5"],
     ["esp", "--spectrum", "geometric:2", "--k", "0", "--trunc", "0"],
     ["bound", "--n", "10", "--k", "3", "--alpha", "0.5", "--spectrum", "geometric:2",
      "--trunc", "0"]],
    ids=["esp-negative", "esp-zero-k-zero", "bound-zero"],
)
def test_trunc_below_1_is_a_usage_error(args, tmp_path, capsys):
    out = tmp_path / "t.csv"
    rc, stdout, err = _run(capsys, [*args, "--out", str(out)])
    assert rc == 1
    assert stdout == ""
    assert err == "usage error: --trunc must be >= 1\n"
    assert not out.exists()


def test_bound_with_delta_runs_the_nu_recursion_once(inputs, monkeypatch, capsys):
    from oks import bounds, symfun

    calls = []

    def counting_log_nu(spec, k):
        calls.append(k)
        return symfun.log_nu(spec, k)

    # every oks namespace that binds log_nu, so no call goes uncounted
    for module in (bounds, cli):
        monkeypatch.setattr(module, "log_nu", counting_log_nu)
    rc, stdout, _ = _run(capsys, _invocations(inputs)["bound"])
    assert rc == 0
    assert calls == [20]
    assert hashlib.sha256(stdout.encode()).hexdigest() == _BODY_SHA256["bound"]


def test_bound_bad_delta_is_a_usage_error(capsys):
    rc, stdout, err = _run(capsys, ["bound", "--n", "10", "--k", "3", "--alpha", "0.5",
                                    "--spectrum", "explicit:0.4,0.3,0.2", "--delta", "2"])
    assert rc == 1
    assert stdout == ""
    assert err.startswith("usage error: delta must lie in (0, 1)")


def test_missing_subcommand_and_required_option_exit_1(capsys):
    assert _run(capsys, [])[0] == 1
    assert _run(capsys, ["esp", "--k", "3"])[0] == 1


_GROWTH_10 = ["growth", "--kernel", "rbf:1.0", "--alpha", "0.1", "--n", "10"]


@pytest.mark.parametrize("args, message", [
    ([*_GROWTH_10, "--sampler", "gauss:2"], "--seed is required for stochastic samplers"),
    ([*_GROWTH_10, "--sampler", "bogus:2", "--seed", "1"],
     "cannot parse sampler 'bogus:2' (expected diag:..., gauss:..., data:...)"),
    (["esp", "--spectrum", "geometric:2", "--k", "-1"], "--k must be >= 0"),
    (["bound", "--n", "10", "--k", "3", "--alpha", "0.5", "--spectrum", "/nonexistent.csv"],
     "cannot load spectrum '/nonexistent.csv': "),
], ids=["no-seed", "bogus-sampler", "esp-negative-k", "missing-spectrum"])
def test_usage_error_exits_1_with_its_message(args, message, capsys):
    rc, stdout, err = _run(capsys, args)
    assert rc == 1
    assert stdout == ""
    assert err.startswith(f"usage error: {message}")


@pytest.mark.parametrize("line, message", [
    ("k 3", "{config}:2: expected key=value, got 'k 3'"),
    ("k=three", "config key 'k': invalid literal for int() with base 10: 'three'"),
], ids=["no-equals", "bad-int"])
def test_malformed_config_line_exits_1(line, message, tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text(f"spectrum=geometric:2\n{line}\n")
    rc, stdout, err = _run(capsys, ["esp", "--k", "3", "--config", str(config)])
    assert rc == 1
    assert stdout == ""
    assert err == f"usage error: {message.format(config=config)}\n"


def test_unknown_config_key_exits_1(tmp_path, capsys):
    # --config and --dump-config say how a run is configured; they are not settings
    config = tmp_path / "run.conf"
    for line, key in [("nonsense=1", "nonsense"), ("dump-config=true", "dump_config"),
                      ("config=/nonexistent", "config"), ("brute=true", "brute")]:
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
    assert err == "usage error: --ridge must be a finite number >= 0\n"


@pytest.mark.parametrize("ridge", ["nan", "inf"])
def test_regress_non_finite_ridge_is_refused_before_the_stream(inputs, monkeypatch, capsys, ridge):
    _refuse_stream(monkeypatch)
    rc, stdout, err = _run(capsys, ["regress", "--kernel", "rbf:1.0", "--alpha", "0.05",
                                    "--data", inputs["labeled"], "--ridge", ridge])
    assert rc == 1
    assert stdout == ""
    assert err == "usage error: --ridge must be a finite number >= 0\n"


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


def test_regress_non_finite_test_label_exits_1_naming_the_file(inputs, tmp_path, monkeypatch,
                                                              capsys):
    test = tmp_path / "test.csv"
    test.write_text("x0,x1,y\n0.1,0.2,1.0\n0.3,0.4,nan\n")
    _refuse_stream(monkeypatch)
    rc, stdout, err = _run(capsys, ["regress", "--kernel", "rbf:1.0", "--alpha", "0.05",
                                    "--data", inputs["labeled"], "--test", str(test)])
    assert rc == 1
    assert stdout == ""
    assert err.startswith("usage error: ")
    assert f"non-finite cell in {str(test)!r}: '0.3,0.4,nan'" in err


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

def _python(code, *args):
    src = str(Path(oks.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=env, check=True, timeout=120)


def test_cli_import_does_not_load_scipy():
    # every command pays for `import oks.cli`; scipy.linalg alone would more
    # than double it
    code = "import sys, oks, oks.cli; print([m for m in sys.modules if m.startswith('scipy')])"
    assert _python(code).stdout.strip() == "[]"


def test_only_the_commands_that_solve_load_scipy():
    # the numpy-only commands never load scipy; growth's triangular solves
    # load it on first use, so the import moved rather than vanished
    code = textwrap.dedent("""
        import contextlib, io, json, sys
        from oks.cli import main
        def run(args):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(args) == 0, args
        for args in json.loads(sys.argv[1]):
            run(args)
        print([m for m in sys.modules if m.startswith("scipy")])
        run(json.loads(sys.argv[2]))
        print("scipy.linalg" in sys.modules)
    """)
    numpy_only = [
        ["esp", "--spectrum", "polynomial:0.5", "--k", "5", "--trunc", "16"],
        ["bound", "--n", "1000", "--k", "20", "--alpha", "0.5", "--spectrum", "polynomial:1",
         "--delta", "0.1"],
        ["mc-gram", "--kernel", "rbf:1.0", "--sampler", "gauss:2", "--k", "2", "--trials", "1000",
         "--seed", "3"],
        ["mc-moment", "--kernel", "rbf:1.0", "--sampler", "gauss:2", "--k", "2", "--m", "2",
         "--trials", "1000", "--seed", "3"],
        ["kstar-tail", "--kernel", "rbf:1.0", "--sampler", "gauss:2", "--alpha", "0.9", "--n", "5",
         "--k", "3", "--trials", "1000", "--seed", "3"],
        ["spectrum-est", "--kernel", "rbf:1.0", "--n", "30", "--sampler", "gauss:2", "--seed", "3"],
    ]
    growth = ["growth", "--kernel", "rbf:1.0", "--alpha", "0.05", "--n", "300",
              "--sampler", "gauss:2", "--seed", "4"]
    done = _python(code, json.dumps(numpy_only), json.dumps(growth))
    assert done.stdout.split("\n")[:2] == ["[]", "True"]


def test_a_stream_at_the_alpha_floor_warns_on_stderr_and_keeps_its_body(capsys):
    args = ["growth", "--kernel", "rbf:1.0", "--alpha", "1e-12", "--n", "40",
            "--sampler", "gauss:1:1.0", "--seed", "21"]
    code = "import sys; from oks.cli import main; sys.exit(main(sys.argv[1:]))"
    done = _python(code, *args)
    assert "alpha = 1e-12 is at the float64 floor" in done.stderr
    assert done.stderr.count("\n") == 1
    rc, body, _ = _run(capsys, args)
    assert rc == 0 and done.stdout == body


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
