import json

import numpy as np
import pytest

from oks.cli import main
from oks.regress import write_labeled_csv


@pytest.fixture
def inputs(tmp_path):
    rng = np.random.default_rng(3)
    xs = rng.standard_normal((40, 2))
    points = tmp_path / "points.csv"
    points.write_text("x0,x1\n" + "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in xs))
    labeled = tmp_path / "labeled.csv"
    write_labeled_csv(str(labeled), xs, np.sin(xs[:, 0]) + 0.3 * xs[:, 1])
    return {"points": str(points), "labeled": str(labeled)}


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
        "spectrum-est": ["spectrum-est", "--kernel", "rbf:1.0", "--n", "30", "--data",
                         inputs["points"]],
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
        assert _manifest(out)["subcommand"] == command
    assert bodies[0] == bodies[1]
    rc, stdout, _ = _run(capsys, args)
    assert rc == 0
    assert stdout.encode() == bodies[0]


@pytest.mark.parametrize("command", ["mc-gram", "kstar-tail"])
def test_body_is_identical_across_thread_counts(command, inputs, monkeypatch, capsys):
    # 5000 trials span three chunks, so two workers really split them
    args = _invocations(inputs)[command]
    bodies = []
    for threads in ("0", "2"):
        monkeypatch.setenv("OKS_THREADS", threads)
        rc, stdout, _ = _run(capsys, args)
        assert rc == 0
        bodies.append(stdout)
    assert bodies[0] == bodies[1]


def test_oks_run_out_writes_dictionary_snapshot(inputs, tmp_path, capsys):
    out = tmp_path / "run.csv"
    rc, _, _ = _run(capsys, [*_invocations(inputs)["oks-run"], "--out", str(out)])
    assert rc == 0
    last = out.read_text().splitlines()[-1].split(",")
    members = (tmp_path / "run.csv.dict.csv").read_text().splitlines()
    assert len(members) - 1 == int(last[1])  # a header row, then one row per member
    assert json.loads((tmp_path / "run.csv.dict.json").read_text())["alpha"] == 0.05


# --- exit code 1: usage errors --------------------------------------------------

def test_bad_flag_exits_1(capsys):
    rc, stdout, err = _run(capsys, ["esp", "--spectrum", "geometric:2", "--k", "3", "--bogus", "1"])
    assert rc == 1
    assert stdout == ""
    assert "usage error" in err


def test_missing_subcommand_and_required_option_exit_1(capsys):
    assert _run(capsys, [])[0] == 1
    assert _run(capsys, ["esp", "--k", "3"])[0] == 1


def test_unknown_config_key_exits_1(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("spectrum=geometric:2\nk=3\nnonsense=1\n")
    rc, _, err = _run(capsys, ["esp", "--config", str(config)])
    assert rc == 1
    assert "nonsense" in err


@pytest.mark.parametrize(
    "args",
    [
        ["oks-run", "--kernel", "rbf:1.0", "--alpha", "0.1", "--data", "{missing}"],
        ["spectrum-est", "--kernel", "rbf:1.0", "--n", "5", "--data", "{missing}"],
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


# --- exit code 2: validation failure -----------------------------------------------

def test_regress_with_empty_dictionary_exits_2(inputs, tmp_path, capsys):
    # an rbf kernel has k(x, x) = 1, so alpha = 2 rejects every point
    out = tmp_path / "fit.csv"
    rc, _, err = _run(capsys, ["regress", "--kernel", "rbf:1.0", "--alpha", "2.0",
                               "--data", inputs["labeled"], "--out", str(out)])
    assert rc == 2
    assert "validation failure" in err
    assert not out.exists()


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

@pytest.mark.parametrize("command", ["spectrum-est", "oks-run"])
def test_input_hash_follows_data_bytes(command, inputs, tmp_path, capsys):
    args = _invocations(inputs)[command]

    def input_hash(tag):
        out = tmp_path / f"{tag}.csv"
        assert _run(capsys, [*args, "--out", str(out)])[0] == 0
        return _manifest(out)["input_hash"]

    first = input_hash("first")
    assert input_hash("again") == first
    with open(inputs["points"], "a") as fh:
        fh.write("0.25,-0.5\n")
    assert input_hash("changed") != first
