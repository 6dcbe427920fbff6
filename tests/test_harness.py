import io
import json
import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest

from oks import harness, kernels
from oks.harness import (
    _SUBSET_LANE,
    McEstimate,
    Sampler,
    content_hash,
    format_cell,
    mc_det_moment,
    mc_kstar_tail,
    nystrom_compare,
    power_iteration_norm,
    write_csv,
    write_manifest,
)
from oks.kernels import KernelSpec, gram, gram_cross, linear, polynomial, power, rbf
from oks.regress import read_labeled_csv
from oks.sparsifier import run_stream
from oks.symfun import Spectrum, log_nu_row
from oracles import check_alpha_compatible, kstar_oracle


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


def _fresh_draws(seed, trials, n, dim):
    # the reference: a new generator per trial, keyed [seed, 1 + trial]
    out = np.empty((len(trials), n, dim))
    for i, t in enumerate(trials):
        rng = np.random.Generator(np.random.Philox(key=[seed, 1 + t]))
        out[i] = rng.standard_normal((n, dim))
    return out


@pytest.mark.parametrize(
    "trials", [range(3, 11), range(0, 1), range(5, 5)], ids=["eight", "one", "empty"]
)
@pytest.mark.parametrize("n", [7, 0])
def test_batched_draw_equals_fresh_generators(trials, n):
    # 7 x 3 = 21 normals a trial is not a multiple of Philox's 4-word block,
    # so a buffer carried over from the previous trial would show
    g = Sampler.gaussian_input(3, 0.5, 41)
    want = _fresh_draws(41, trials, n, 3)
    got = g.points(n, trial=trials)
    assert got.shape == (len(trials), n, 3)
    assert np.array_equal(got, want * 0.5)
    d = diag_sampler([2.0, 1.0, 0.25], 41)
    assert np.array_equal(d.points(n, trial=trials), want * np.sqrt([2.0, 1.0, 0.25]))
    for i, t in enumerate(trials):
        assert np.array_equal(g.points(n, trial=t), got[i])
    master = np.random.Generator(np.random.Philox(key=[41, 0])).standard_normal((n, 3))
    assert np.array_equal(g.points(n), master * 0.5)


def test_batched_dataset_replay(tmp_path):
    path = str(tmp_path / "rows.csv")
    np.savetxt(path, np.arange(30.0).reshape(10, 3), delimiter=",")
    s = Sampler.dataset(path)
    rows = np.arange(30.0).reshape(10, 3)
    assert np.array_equal(s.points(3, trial=range(1, 3)), rows[3:9].reshape(2, 3, 3))
    assert np.array_equal(s.points(3, trial=range(1, 3))[1], s.points(3, trial=2))
    assert s.points(0, trial=range(0, 4)).shape == (4, 0, 3)
    assert s.points(3, trial=range(7, 7)).shape == (0, 3, 3)
    # the message names the rows of the first trial that runs out
    with pytest.raises(ValueError, match=r"need rows \[9, 12\)"):
        s.points(3, trial=range(1, 5))
    with pytest.raises(ValueError, match=r"need rows \[12, 15\)"):
        s.points(3, trial=range(4, 6))


def test_a_chunk_of_trials_builds_one_philox(monkeypatch):
    built = []
    philox = np.random.Philox

    def counting(*args, **kwargs):
        built.append(1)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting)
    assert harness._CHUNK == 2048 and harness._SPAN_DOUBLES == 2**19
    mc_det_moment(Sampler.gaussian_input(2, 1.0, 3), rbf(1.0), 3, 1, 2048)
    assert len(built) == 1
    # the bench's kstar-tail: a chunk of 2**19 // (C(10, 5) * 5 * 5) = 83
    # trials keeps its subset stack within _SPAN_DOUBLES, so 600 trials make 8
    built.clear()
    mc_kstar_tail(Sampler.gaussian_input(2, 1.0, 1), rbf(1.0), 0.9, 10, 5, 600)
    assert len(built) == math.ceil(600 / 83) == 8


@pytest.mark.parametrize("kind", ["gauss", "diag", "dataset"])
def test_sampler_refuses_trials_without_a_lane_of_their_own(kind, tmp_path):
    path = str(tmp_path / "rows.csv")
    np.savetxt(path, np.ones((8, 2)), delimiter=",")
    s = {
        "gauss": Sampler.gaussian_input(2, 1.0, 5),
        "diag": diag_sampler([1.0, 0.5], 5),
        "dataset": Sampler.dataset(path),
    }[kind]
    # trial -1 would be the master stream's lane 0, and the last trial below
    # the Nystrom subset's lane
    for bad in (-1, -2, _SUBSET_LANE - 1, range(-1, 2), range(_SUBSET_LANE - 3, _SUBSET_LANE)):
        with pytest.raises(ValueError, match="trial"):
            s.points(2, trial=bad)
    with pytest.raises(ValueError, match="step"):
        s.points(2, trial=range(0, 4, 2))


def test_last_trial_draws_from_the_lane_below_the_subset():
    s = Sampler.gaussian_input(2, 1.0, 5)
    last = np.random.Generator(np.random.Philox(key=[5, _SUBSET_LANE - 1]))
    assert np.array_equal(s.points(3, trial=_SUBSET_LANE - 2), last.standard_normal((3, 2)))


def test_negative_seeds_key_distinct_streams():
    # a negative seed is keyed by its 64-bit two's complement, not cast through a float
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        draws = [Sampler.gaussian_input(2, 1.0, seed).points(3) for seed in (-5, -6, 0)]
    want = np.random.Generator(np.random.Philox(key=np.array([2**64 - 5, 0], np.uint64)))
    assert np.array_equal(draws[0], want.standard_normal((3, 2)))
    assert not np.array_equal(draws[0], draws[1])
    assert not np.array_equal(draws[0], draws[2])


@pytest.mark.parametrize("seed", [0, -5])
def test_rekeyed_state_equals_a_fresh_philox(seed):
    # each named lane is re-keyed after a 7 x 3 draw that left the 4-word
    # output buffer partly used, so a field the re-key missed would show
    lanes = [2, 1, _SUBSET_LANE - 1, _SUBSET_LANE]
    for lane, gen in zip(lanes, harness._streams(seed, lanes)):
        got = gen.bit_generator.state
        want = np.random.Philox(key=np.array([seed % 2**64, lane], np.uint64)).state
        assert got["bit_generator"] == want["bit_generator"]
        for name in ("counter", "key"):
            assert np.array_equal(got["state"][name], want["state"][name]), name
        assert np.array_equal(got["buffer"], want["buffer"])
        for name in ("buffer_pos", "has_uint32", "uinteger"):
            assert got[name] == want[name], name
        gen.standard_normal((7, 3))
        assert 0 < gen.bit_generator.state["buffer_pos"] < 4


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


def test_dataset_skips_exactly_one_header_row(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text("# comment\n\na,b\n1,2\n")
    assert harness.dataset_rows(str(path)).tolist() == [[1.0, 2.0]]
    path.write_text("a,b\nc,d\nnot,numbers\n1,2\n")
    with pytest.raises(ValueError, match="malformed row"):
        harness.dataset_rows(str(path))


def _labeled_table(path):
    xs, ys = read_labeled_csv(path)
    return np.column_stack([xs, ys]).tolist()


@pytest.mark.parametrize(
    "read",
    [lambda p: harness.dataset_rows(p).tolist(), _labeled_table,
     lambda p: harness.load_dictionary(p).members.tolist()],
    ids=["dataset_rows", "read_labeled_csv", "load_dictionary"],
)
def test_every_table_reader_shares_one_grammar(read, tmp_path):
    # linear kernel, alpha 0.5: [1, 2] and [3, 4] re-admit with residuals 5 and 0.8
    (tmp_path / "table.json").write_text(
        '{"kernel": "linear", "alpha": 0.5, "size": 2, "log_det": 0.0}'
    )
    path = tmp_path / "table.csv"
    path.write_text("# c\n\nx0,y\n1,2\n\n# c\n3,4\n")
    assert read(str(path)) == [[1.0, 2.0], [3.0, 4.0]]
    path.write_text("x0,y\n1,2\nx0,y\n3,4\n")
    with pytest.raises(ValueError, match="malformed row"):
        read(str(path))
    path.write_text("x0,y\n1,2\n1,nan\n")
    with pytest.raises(ValueError, match=r"non-finite cell in .*table\.csv.*'1,nan'"):
        read(str(path))


# --- Monte Carlo estimators ------------------------------------------------------

def test_mc_estimate_validation():
    with pytest.raises(ValueError):
        McEstimate(0.0, 0.0, 1)
    with pytest.raises(ValueError):
        McEstimate(0.0, -1.0, 10)


def test_mc_gram_det_trace_case():
    est = mc_det_moment(diag_sampler([1.0, 0.5], 7), linear(), 1, 1, 20000)
    assert abs(est.mean - 1.5) <= 3 * est.std_error


def test_mc_gram_det_pair_case():
    est = mc_det_moment(diag_sampler([1.0, 0.5], 7), linear(), 2, 1, 20000)
    assert abs(est.mean - 1.0) <= 3 * est.std_error


def rbf_gauss_spectrum(ell, size):
    # rbf:ell on N(0, 1) input (Rasmussen & Williams, GPML, section 4.3.1):
    # lam_i = sqrt(2a/A) * B^i, i >= 0; the values sum to k(x, x) = 1
    a, b = 0.25, 1.0 / (2.0 * ell**2)
    big_a = a + b + math.sqrt(a * a + 2.0 * a * b)
    return math.sqrt(2.0 * a / big_a) * (b / big_a) ** np.arange(size)


@pytest.mark.parametrize("ell", [1.0, 0.5])
def test_mc_gram_det_is_nu_on_the_closed_form_rbf_spectrum(ell):
    # the paper's identity E[det G_k] = nu(k) on an infinite-rank kernel: 400
    # terms leave a tail below the rounding of their sum (one ulp at ell = 1)
    lam = rbf_gauss_spectrum(ell, 400)
    assert abs(lam.sum() - 1.0) <= np.finfo(float).eps
    nu = np.exp(log_nu_row(Spectrum(lam), 5))
    for k in range(2, 6):
        est = mc_det_moment(Sampler.gaussian_input(1, 1.0, 1), rbf(ell), k, 1, 20_000)
        assert abs(est.mean - nu[k]) < 4 * est.std_error, (k, est.mean, nu[k])


def test_mc_gram_det_rank_deficient_is_exact_zero():
    est = mc_det_moment(diag_sampler([1.0, 0.5], 7), linear(), 3, 1, 2000)
    assert est.mean == 0.0
    assert est.std_error == 0.0


def test_mc_gram_det_argument_checks():
    s = diag_sampler([1.0], 0)
    with pytest.raises(ValueError):
        mc_det_moment(s, linear(), 7, 1, 2000)
    with pytest.raises(ValueError):
        mc_det_moment(s, linear(), 1, 1, 999)


def test_mc_moment_gaussian_fourth_moment():
    # E[(||phi||^2)^2] = E[z^4] = 3 for the one-eigenvalue diagonal model
    est = mc_det_moment(diag_sampler([1.0], 11), linear(), 1, 2, 50000)
    assert abs(est.mean - 3.0) <= 3 * est.std_error


def test_mc_moment_singular_case():
    est = mc_det_moment(diag_sampler([1.0, 0.5], 11), linear(), 3, 2, 2000)
    assert est.mean == 0.0


def test_mc_moment_order_checks():
    for m in (0, 4):
        with pytest.raises(ValueError, match="moment order"):
            mc_det_moment(diag_sampler([1.0], 0), linear(), 1, m, 2000)


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
    for alpha in (0.0, -1.0, math.inf):
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


def test_mc_estimates_do_not_depend_on_chunk_size(monkeypatch):
    # 1000 trials make one default chunk, or 143 chunks of at most 7, or
    # 1000 chunks of one trial where no subset stack fits _SPAN_DOUBLES.  At
    # n = 10, k = 5 kstar-tail's default chunks of 83 trials already make 13
    s = diag_sampler([1.0, 0.5], 13)
    g = Sampler.gaussian_input(2, 1.0, 13)

    def estimates():
        return (
            mc_det_moment(s, linear(), 2, 1, 1000),
            mc_det_moment(g, rbf(1.0), 3, 2, 1000),
            mc_kstar_tail(g, rbf(1.0), 0.9, 5, 3, 1000),
            mc_kstar_tail(g, rbf(1.0), 0.9, 10, 5, 1000),
        )

    default = estimates()
    for name, value in (("_CHUNK", 7), ("_SPAN_DOUBLES", 1)):
        with monkeypatch.context() as m:
            m.setattr(harness, name, value)
            assert estimates() == default


def _count_fallback(monkeypatch):
    # matrices handed to the pivoted elimination, per call
    sizes = []
    inner = kernels._logdet_pivoted

    def counted(a):
        sizes.append(a.shape[0])
        return inner(a)

    monkeypatch.setattr(kernels, "_logdet_pivoted", counted)
    return sizes


def test_kstar_tail_bench_config_stays_on_the_cholesky_path(monkeypatch):
    # the benchmark's kstar-tail: 600 trials of 252 subset matrices (5x5).  Three
    # of them, with log det -24.0, -21.4 and -20.9, lie below the certification
    # threshold (about -20.4) and take the elimination; the other 151 197 do not.
    # They reach it from whichever chunks of trials hold them
    sizes = _count_fallback(monkeypatch)
    est = mc_kstar_tail(Sampler.gaussian_input(2, 1.0, 1), rbf(1.0), 0.9, 10, 5, 600)
    assert est.mean == 0.5183333333333333
    assert sum(sizes) == 3
    assert all(sizes)


def test_kstar_tail_bench_config_memory_is_bounded_by_its_span():
    # one chunk's subset stack holds at most _SPAN_DOUBLES doubles (4 MiB; 83
    # trials of 252 5x5 matrices).  While it is alive, logdet_psd_stack adds
    # its Cholesky factor (one more stack) and the logs of the factor's
    # diagonal (a fifth of a stack), 2.25 stacks in all.  The chunk's 83
    # draws and Grams, with gram's strip, and two chunks' log-determinants
    # take under 2 MiB.  A stack over all 600 trials would take 30 MB
    s = Sampler.gaussian_input(2, 1.0, 1)
    mc_kstar_tail(s, rbf(1.0), 0.9, 10, 5, 600)  # keeps first-use allocations out
    tracemalloc.start()
    try:
        mc_kstar_tail(s, rbf(1.0), 0.9, 10, 5, 600)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.25 * harness._SPAN_DOUBLES * 8 + 2 * 2**20


def test_mc_estimates_keep_their_bits_when_some_trials_fail_cholesky(tmp_path, monkeypatch):
    # every 10th trial repeats a point: its Gram is singular and fails Cholesky,
    # which must not move the value of any other trial in its chunk
    rows = np.random.default_rng(23).standard_normal((3000, 2))
    rows[2::30] = rows[1::30]
    path = tmp_path / "rows.csv"
    path.write_text("x0,x1\n" + "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in rows))
    s = Sampler.dataset(str(path))
    sizes = _count_fallback(monkeypatch)
    default = mc_det_moment(s, rbf(1.0), 3, 1, 1000)
    assert sizes == [100]
    monkeypatch.setattr(harness, "_CHUNK", 7)
    assert mc_det_moment(s, rbf(1.0), 3, 1, 1000) == default


@pytest.mark.parametrize("text", ["poly:3:1.0:1.0", "pow:2:rbf:1.0"])
def test_mc_estimators_never_trip_the_logdet_refusal(text, tmp_path, monkeypatch):
    # logdet_psd_stack refuses a non-finite or asymmetric stack; every stack the
    # estimators hand it is a Gram or a subset of one, exactly symmetric and
    # finite, also where repeated rows make it singular
    kernel = KernelSpec.from_text(text)
    rows = np.random.default_rng(29).standard_normal((3000, 2))
    rows[2::30] = rows[1::30]
    path = tmp_path / "rows.csv"
    path.write_text("x0,x1\n" + "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in rows))
    sizes = _count_fallback(monkeypatch)
    for s in (Sampler.gaussian_input(2, 1.0, 3), Sampler.dataset(str(path))):
        sizes.clear()
        for est in (mc_det_moment(s, kernel, 3, 1, 1000), mc_kstar_tail(s, kernel, 0.5, 6, 3, 200)):
            assert math.isfinite(est.mean)
    # the dataset's singular trials (every 10th Gram of 3 points, every 5th of 6) took the elimination
    assert sum(sizes) >= 100


# --- growth over sampled streams -------------------------------------------------
# (oks growth streams sampler.points(n) through run_stream itself; its flag
# checks are CLI tests)

def test_growth_constant_stream_is_flat(tmp_path):
    path = str(tmp_path / "const.csv")
    with open(path, "w") as fh:
        fh.writelines("1.0,2.0\n" for _ in range(50))
    _, rows = run_stream(rbf(1.0), 0.01, Sampler.dataset(path).points(50), [10, 25])
    assert [(n, size) for n, size, _ in rows] == [(10, 1), (25, 1), (50, 1)]


def test_growth_rank_cap_linear_kernel():
    _, rows = run_stream(linear(), 1e-6, Sampler.gaussian_input(3, 1.0, 3).points(400), [100])
    assert rows[-1][1] <= 3


def test_growth_checkpoint_validation():
    pts = Sampler.gaussian_input(1, 1.0, 3).points(10)
    with pytest.raises(ValueError):
        run_stream(rbf(1.0), 0.1, pts, [20])


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


def _dense_projection_gram(kernel, pts, sub):
    """K_ns K_ss^+ K_sn, with directions below 1e-12 of the largest dropped."""
    w, vecs = np.linalg.eigh(gram(kernel, sub))
    keep = w > 1e-12 * w[-1]
    basis = gram_cross(kernel, pts, sub) @ vecs[:, keep]
    return (basis / w[keep]) @ basis.T


@pytest.mark.parametrize(
    "seed,kernel,alpha",
    [
        (1, rbf(1.0), 0.01),
        (2, rbf(0.5), 0.05),
        (3, linear(), 0.1),
        (4, polynomial(2, 1.0, 0.5), 0.05),
        (5, power(rbf(1.0), 2), 0.02),
    ],
    ids=["rbf1", "rbf05", "linear", "poly", "pow"],
)
def test_nystrom_errors_match_dense_error_matrices(seed, kernel, alpha):
    # the five configurations of test_nystrom_entrywise_bound_holds, against
    # E = G - G_hat formed densely.  Under linear and poly the dictionary
    # spans the whole feature space, so E is 0 in exact arithmetic and both
    # sides are rounding noise (the dense poly side reads 2.3e-10 next to
    # max |G| = 33); the absolute term is a rounding floor at G's scale.
    n = 200
    s = Sampler.gaussian_input(2, 1.0, seed)
    rec = nystrom_compare(s, kernel, alpha, n)
    pts = s.points(n)
    d, _ = run_stream(kernel, alpha, pts)
    sub_rng = np.random.Generator(np.random.Philox(key=[seed, _SUBSET_LANE]))
    sub = pts[np.sort(sub_rng.choice(n, size=len(d), replace=False))]
    g = gram(kernel, pts)
    for ghat, entrywise, spectral in (
        (_dense_projection_gram(kernel, pts, d.members), rec.entrywise_err_oks, rec.spectral_err_oks),
        (_dense_projection_gram(kernel, pts, sub), rec.entrywise_err_nystrom, rec.spectral_err_nystrom),
    ):
        e = g - ghat
        floor = 1e-10 * np.abs(g).max()
        assert entrywise == pytest.approx(np.abs(e).max(), rel=1e-8, abs=floor)
        assert spectral == pytest.approx(np.linalg.norm(e, 2), rel=1e-8, abs=floor)


def test_nystrom_with_empty_dictionary():
    # rbf has k(x, x) = 1, so alpha = 2 rejects every point: both
    # approximations are 0 and each error is G's own
    s = Sampler.gaussian_input(1, 1.0, 1)
    rec = nystrom_compare(s, rbf(1.0), 2.0, 50)
    assert rec.oks_size == 0
    assert rec.log_det_oks == 0.0
    assert rec.log_det_nystrom == 0.0
    assert rec.entrywise_err_oks == rec.entrywise_err_nystrom == 1.0
    assert rec.spectral_err_oks == rec.spectral_err_nystrom
    assert rec.spectral_err_oks == pytest.approx(31.611635446679745, rel=1e-12)
    assert rec.spectral_err_oks == pytest.approx(np.linalg.norm(gram(rbf(1.0), s.points(50)), 2), rel=1e-8)
    assert rec.nystrom_clamped == 0


def test_nystrom_holds_no_second_dense_matrix():
    # G at n = 1000 takes 7.6 MiB; one more n x n matrix per error term
    # (G_hat or E) would pass the limit
    s = Sampler.gaussian_input(1, 1.0, 1)
    tracemalloc.start()
    try:
        nystrom_compare(s, rbf(1.0), 0.01, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


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
    assert format_cell(None) == ""
    assert format_cell(True) == "true"


def test_write_csv_round_trippable():
    buf = io.StringIO()
    write_csv(buf, ["a", "b"], [(1.25, "x,y"), (float("-inf"), "plain")])
    lines = buf.getvalue().splitlines()
    assert lines[0] == "a,b"
    assert lines[1] == '1.25,"x,y"'
    assert lines[2] == "-inf,plain"


def test_manifest_contents(tmp_path, monkeypatch):
    path = str(tmp_path / "run.manifest.json")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "1")
    write_manifest(path, "mc-gram", {"k": 2, "trials": 1000}, seed=7, wall_time_s=0.5)
    payload = json.loads(open(path).read())
    assert payload["subcommand"] == "mc-gram"
    assert payload["seed"] == 7
    assert payload["params"]["k"] == 2
    assert payload["input_hash"] == content_hash({"k": 2, "trials": 1000})
    # an unset variable reads null
    assert payload["threads"] == {
        "OPENBLAS_NUM_THREADS": "3",
        "OMP_NUM_THREADS": None,
        "MKL_NUM_THREADS": "1",
        "cpu_count": os.cpu_count(),
    }
