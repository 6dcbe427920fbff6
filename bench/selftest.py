"""Tests of the benchmark itself, at the tiny leg sizes.

Run from the root of the checkout:

    python3 -m pytest -q bench/selftest.py

The file name keeps these tests out of the package's own test run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", "--tiny", "--seed", "1",
                           "--seconds", "0", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def results():
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = _run("--workload", workload, "--trace", str(trace))
            assert proc.returncode == 0, proc.stderr
            out[workload, trace] = json.loads(proc.stdout.splitlines()[-1])
    return out


def _value(results, workload, name):
    return results[workload, 1]["metrics"][name]["value"]


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_emitted(results, trace, kind):
    names = {m["name"] for m in SPEC[kind]}
    for workload in WORKLOADS:
        res = results[workload, trace]
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        assert set(res["metrics"]) == names
        for metric in res["metrics"].values():
            assert isinstance(metric["value"], (int, float))
            if trace == 0:
                assert metric["value"] > 0  # end-to-end metrics are never 0


def test_layers_run_where_they_must(results):
    for name in ("symfun.esp_table.calls", "kernels.logdet_psd_stack.calls"):
        assert _value(results, "stream", name) == 0
        assert _value(results, "theory", name) > 0
    assert _value(results, "stream", "sparsifier.offer.calls") > 0
    assert _value(results, "fit", "sparsifier.offer.calls") > 0
    assert _value(results, "theory", "sparsifier.offer.calls") == 0
    assert (_value(results, "fit", "sparsifier.admit_ratio")
            > _value(results, "stream", "sparsifier.admit_ratio"))


def test_corrupted_reference_fails(tmp_path):
    refs = json.loads((BENCH / "reference.json").read_text())
    leg = refs["tiny"]["1"]["stream"]["growth_large_dict"]
    leg["dict_size"][-1] += 1
    corrupt = tmp_path / "reference.json"
    corrupt.write_text(json.dumps(refs))
    proc = _run("--workload", "stream", "--trace", "0", "--reference", str(corrupt))
    res = json.loads(proc.stdout.splitlines()[-1])
    assert not res["correct"]
    assert res["failed"] / res["attempted"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "stream", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_full_size_references_keep_each_legs_property():
    full = json.loads((BENCH / "reference.json").read_text())["full"]
    for by_workload in full.values():
        large = by_workload["stream"]["growth_large_dict"]
        assert large["dict_size"][-1] >= 1000
        assert large["dict_size"][-1] < 0.5 * large["n"][-1]
        regress = by_workload["fit"]["regress"]
        assert regress["dict_size"][0] >= 0.7 * regress["n"][0]
        assert 0 < by_workload["theory"]["mc"]["kstar.estimate"][0] < 1


def test_tracer_wraps_every_binding_and_restores_it():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import oks
    import oks.cli
    import tracer

    original = oks.kernels.gram_cross
    t = tracer.Tracer()
    with t:
        bound = [oks.gram_cross, oks.kernels.gram_cross, oks.sparsifier.gram_cross,
                 oks.harness.gram_cross, oks.regress.gram_cross]
        assert all(f is bound[0] and f is not original for f in bound)
        d = oks.Dictionary(oks.rbf(1.0), 0.1)
        for x in ([0.0], [1.0], [0.0]):
            d.offer(x)
    assert oks.sparsifier.gram_cross is original
    assert t.counters["sparsifier.offer.offered"] == 3
    assert t.counters["sparsifier.offer.admitted"] == 2
    times = t.self_times()
    calls, self_s, durations = times["sparsifier.offer"]
    assert calls == 3 and 0 < self_s < sum(durations)
    assert times["kernels.gram_cross"][0] == 2
