import io
import json
import math

import numpy as np
import pytest

from oks.harness import (
    McEstimate,
    Sampler,
    content_hash,
    format_cell,
    growth_experiment,
    mc_det_moment,
    mc_expected_gram_det,
    mc_kstar_tail,
    nystrom_compare,
    power_iteration_norm,
    write_csv,
    write_manifest,
)
from oks.kernels import gram, linear, polynomial, power, rbf
from oks.sparsifier import check_alpha_compatible, kstar_oracle, run_stream
from oks.symfun import Spectrum


def diag_sampler(values, seed):
    return Sampler.diag_gaussian(Spectrum(np.array(values, dtype=float)), seed)


# --- Sampler ------------------------------------------------------------------

def test_sampler_streams_are_reproducible():
    s = diag_sampler([1.0, 0.5], 99)
    assert np.array_equal(s.points(10), s.points(10))
    # a stream prefix is stable regardless of how much is drawn
    assert np.array_equal(s.points(10)[:4], s.points(4))


def test_sampler_trials_differ_from_master():
    s = diag_sampler([1.0, 0.5], 99)
    assert not np.array_equal(s.points(4), s.points(4, trial=0))
    assert not np.array_equal(s.points(4, trial=0), s.points(4, trial=1))
    assert np.array_equal(s.points(4, trial=3), s.points(4, trial=3))


def test_gaussian_input_scale():
    s = Sampler.gaussian_input(3, 2.0, 1)
    narrow = Sampler.gaussian_input(3, 1.0, 1)
    assert np.array_equal(s.points(5), 2.0 * narrow.points(5))


def test_diag_gaussian_requires_finite_spectrum():
    with pytest.raises(ValueError):
        Sampler.diag_gaussian(Spectrum(np.array([1.0]), 0.5), 1)


def test_dataset_replay_and_exhaustion(tmp_path):
    path = str(tmp_path / "rows.csv")
    with open(path, "w") as fh:
        fh.write("x0,x1\n")
        for i in range(6):
            fh.write(f"{float(i)!r},{float(-i)!r}\n")
    s = Sampler.dataset(path)
    assert np.array_equal(s.points(3), [[0.0, 0.0], [1.0, -1.0], [2.0, -2.0]])
    assert np.array_equal(s.points(2, trial=1), [[2.0, -2.0], [3.0, -3.0]])
    with pytest.raises(ValueError):
        s.points(4, trial=1)


def test_dataset_rewritten_in_process_is_read_anew(tmp_path):
    path = str(tmp_path / "rows.csv")
    with open(path, "w") as fh:
        fh.write("1.0,2.0\n3.0,4.0\n")
    assert np.array_equal(Sampler.dataset(path).points(2), [[1.0, 2.0], [3.0, 4.0]])
    # a different length changes st_size even when st_mtime_ns does not tick
    with open(path, "w") as fh:
        fh.write("5.0,6.0\n7.0,8.0\n9.0,10.0\n")
    s = Sampler.dataset(path)
    assert s.points(3).tolist() == [[5.0, 6.0], [7.0, 8.0], [9.0, 10.0]]


# --- Monte Carlo estimators ------------------------------------------------------

def test_mc_estimate_validation():
    with pytest.raises(ValueError):
        McEstimate(0.0, 0.0, 1)
    with pytest.raises(ValueError):
        McEstimate(0.0, -1.0, 10)


def test_mc_gram_det_trace_case():
    est = mc_expected_gram_det(diag_sampler([1.0, 0.5], 7), linear(), 1, 20000)
    assert abs(est.mean - 1.5) <= 3 * est.std_error


def test_mc_gram_det_pair_case():
    est = mc_expected_gram_det(diag_sampler([1.0, 0.5], 7), linear(), 2, 20000)
    assert abs(est.mean - 1.0) <= 3 * est.std_error


def test_mc_gram_det_rank_deficient_is_exact_zero():
    est = mc_expected_gram_det(diag_sampler([1.0, 0.5], 7), linear(), 3, 2000)
    assert est.mean == 0.0
    assert est.std_error == 0.0


def test_mc_gram_det_argument_checks():
    s = diag_sampler([1.0], 0)
    with pytest.raises(ValueError):
        mc_expected_gram_det(s, linear(), 7, 2000)
    with pytest.raises(ValueError):
        mc_expected_gram_det(s, linear(), 1, 999)


def test_mc_moment_gaussian_fourth_moment():
    # E[(||phi||^2)^2] = E[z^4] = 3 for the one-eigenvalue diagonal model
    est = mc_det_moment(diag_sampler([1.0], 11), linear(), 1, 2, 50000)
    assert abs(est.mean - 3.0) <= 3 * est.std_error


def test_mc_moment_singular_case():
    est = mc_det_moment(diag_sampler([1.0, 0.5], 11), linear(), 3, 2, 2000)
    assert est.mean == 0.0


def test_mc_moment_order_checks():
    with pytest.raises(ValueError):
        mc_det_moment(diag_sampler([1.0], 0), linear(), 1, 4, 2000)


def test_mc_kstar_tail_certain_and_impossible():
    s = Sampler.gaussian_input(2, 1.0, 5)
    # rbf diagonal is 1: every single point passes any alpha < 1
    sure = mc_kstar_tail(s, rbf(1.0), 0.5, 3, 1, 500)
    assert sure.mean == 1.0
    # and no single point (nor any subset) beats alpha = 10 under rbf
    none = mc_kstar_tail(s, rbf(1.0), 10.0, 3, 1, 500)
    assert none.mean == 0.0
    # the comparison is strict: det = 1 = alpha does not pass
    tie = mc_kstar_tail(s, rbf(1.0), 1.0, 3, 1, 500)
    assert tie.mean == 0.0


def test_mc_kstar_tail_alpha_must_be_positive():
    s = Sampler.gaussian_input(2, 1.0, 5)
    for alpha in (0.0, -1.0):
        with pytest.raises(ValueError, match="alpha must be positive"):
            mc_kstar_tail(s, rbf(1.0), alpha, 3, 1, 500)


@pytest.mark.parametrize(
    "kernel, sampler, alpha",
    [
        (linear(), diag_sampler([1.0, 0.5], 7), 4.0),
        (rbf(1.0), Sampler.gaussian_input(2, 1.0, 7), 0.5),
        (polynomial(2, 1.0), Sampler.gaussian_input(2, 0.7, 7), 1.0),
    ],
    ids=["linear", "rbf", "polynomial"],
)
def test_mc_kstar_tail_matches_per_trial_oracle(kernel, sampler, alpha):
    # the all-sizes oracle against the k-subsets-only estimator
    n, trials = 6, 400
    kstars = np.array([kstar_oracle(kernel, alpha, sampler.points(n, trial=t)) for t in range(trials)])
    for k in (1, 2, n // 2, n):
        est = mc_kstar_tail(sampler, kernel, alpha, n, k, trials)
        assert est.mean == np.mean(kstars >= k)


def test_mc_kstar_tail_dominated_by_bound():
    # n=6, k=2, alpha=4, spectrum (1, 0.5): bound = 15 * 1 / 16
    est = mc_kstar_tail(diag_sampler([1.0, 0.5], 7), linear(), 4.0, 6, 2, 3000)
    assert est.mean <= 0.9375 + 3 * est.std_error


def test_mc_results_identical_serial_vs_threads(monkeypatch):
    s = diag_sampler([1.0, 0.5], 13)
    monkeypatch.setenv("OKS_THREADS", "0")
    serial = mc_expected_gram_det(s, linear(), 2, 6000)
    monkeypatch.setenv("OKS_THREADS", "4")
    threaded = mc_expected_gram_det(s, linear(), 2, 6000)
    assert serial == threaded


def test_bad_thread_env(monkeypatch):
    monkeypatch.setenv("OKS_THREADS", "many")
    with pytest.raises(ValueError):
        mc_expected_gram_det(diag_sampler([1.0], 0), linear(), 1, 2000)


# --- growth experiment -----------------------------------------------------------

def test_growth_constant_stream_is_flat(tmp_path):
    path = str(tmp_path / "const.csv")
    with open(path, "w") as fh:
        fh.writelines("1.0,2.0\n" for _ in range(50))
    trace = growth_experiment(Sampler.dataset(path), rbf(1.0), 0.01, 50, [10, 25])
    assert list(trace.samples) == [10, 25, 50]
    assert list(trace.dict_size) == [1, 1, 1]


def test_growth_rank_cap_linear_kernel():
    trace = growth_experiment(Sampler.gaussian_input(3, 1.0, 3), linear(), 1e-6, 400, [100])
    assert trace.dict_size[-1] <= 3


def test_growth_checkpoint_validation():
    s = Sampler.gaussian_input(1, 1.0, 3)
    with pytest.raises(ValueError):
        growth_experiment(s, rbf(1.0), 0.1, 10, [20])
    with pytest.raises(ValueError):
        growth_experiment(s, rbf(1.0), 0.1, 200_000, [10])


# --- nystrom comparison ------------------------------------------------------------

def test_nystrom_exact_when_dictionary_holds_everything():
    # 40 three-dimensional draws stay far enough apart under rbf(1.0) that
    # every projection residual clears alpha = 1e-4 (the smallest is about
    # 23 * alpha), so the ALD rule admits every point.  alpha is far above
    # the pivot floor, so the dense oracle can confirm that premise.  With
    # every point in the dictionary, the projection onto its span is exact
    # and reproduces the full Gram matrix up to rounding.
    kernel, alpha, n = rbf(1.0), 1e-4, 40
    s = Sampler.gaussian_input(3, 1.0, 21)
    assert check_alpha_compatible(kernel, alpha, s.points(n))
    rec = nystrom_compare(s, kernel, alpha, n)
    assert rec.oks_size == n
    assert rec.entrywise_err_oks < 1e-9
    assert rec.spectral_err_oks < 1e-8


def test_nystrom_log_det_is_the_dictionarys_own_near_the_pivot_floor():
    # At alpha = 1e-12 the 1-D draws cluster: 15 of 40 points are admitted,
    # three with residuals of a few alpha.  A dense pivoted factorisation
    # at DEFAULT_PIVOT_TOL = 1e-12 calls the members' Gram singular, yet it
    # is not, and the dictionary's incremental log-determinant keeps the
    # guarantee log det > |D| * log(alpha).
    kernel, alpha, n = rbf(1.0), 1e-12, 40
    s = Sampler.gaussian_input(1, 1.0, 21)
    rec = nystrom_compare(s, kernel, alpha, n)
    d, _ = run_stream(kernel, alpha, s.points(n))
    assert math.isfinite(rec.log_det_oks)
    assert rec.log_det_oks == d.log_det
    assert rec.log_det_oks > rec.oks_size * math.log(alpha)
    sign, dense = np.linalg.slogdet(gram(kernel, d.members))
    assert sign == 1.0
    assert rec.log_det_oks == pytest.approx(dense, rel=1e-3)


def test_nystrom_entrywise_bound_holds():
    for seed, kernel, alpha in (
        (1, rbf(1.0), 0.01),
        (2, rbf(0.5), 0.05),
        (3, linear(), 0.1),
        (4, polynomial(2, 1.0, 0.5), 0.05),
        (5, power(rbf(1.0), 2), 0.02),
    ):
        s = Sampler.gaussian_input(2, 1.0, seed)
        rec = nystrom_compare(s, kernel, alpha, 200)
        assert rec.entrywise_err_oks < rec.entrywise_bound
        assert rec.log_det_oks > rec.oks_size * math.log(alpha)


def test_nystrom_is_deterministic():
    s = Sampler.gaussian_input(1, 1.0, 8)
    assert nystrom_compare(s, rbf(1.0), 0.05, 120) == nystrom_compare(s, rbf(1.0), 0.05, 120)


def test_power_iteration_matches_dense_norm():
    rng = np.random.default_rng(17)
    for _ in range(10):
        pts = rng.standard_normal((20, 2))
        e = gram(rbf(1.0), pts)
        assert power_iteration_norm(e) == pytest.approx(
            np.linalg.norm(e, 2), rel=1e-6
        )
    assert power_iteration_norm(np.zeros((4, 4))) == 0.0


# --- persistence helpers -------------------------------------------------------------

def test_format_cell_quoting():
    assert format_cell("diag:1,0.5") == '"diag:1,0.5"'
    assert format_cell(1.5) == "1.5"
    assert format_cell(float("-inf")) == "-inf"
    assert format_cell(7) == "7"
    assert format_cell(True) == "true"


def test_write_csv_round_trippable():
    buf = io.StringIO()
    write_csv(buf, ["a", "b"], [(1.25, "x,y"), (float("-inf"), "plain")])
    lines = buf.getvalue().splitlines()
    assert lines[0] == "a,b"
    assert lines[1] == '1.25,"x,y"'
    assert lines[2] == "-inf,plain"


def test_manifest_contents(tmp_path):
    path = str(tmp_path / "run.manifest.json")
    write_manifest(path, "mc-gram", {"k": 2, "trials": 1000}, seed=7, wall_time_s=0.5)
    payload = json.loads(open(path).read())
    assert payload["subcommand"] == "mc-gram"
    assert payload["seed"] == 7
    assert payload["params"]["k"] == 2
    assert payload["input_hash"] == content_hash({"k": 2, "trials": 1000})
