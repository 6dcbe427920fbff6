import math
import tracemalloc

import numpy as np
import pytest

from oks.bounds import dict_tail_bound, growth_prediction, sample_threshold
from oks.harness import Sampler
from oks.kernels import linear
from oks.logvalue import is_log_zero, log_binomial
from oks.sparsifier import run_stream
from oks.spectrum import synthetic_spectrum
from oks.symfun import Spectrum, log_nu, log_nu_row, tail_sum


def spectrum(*values):
    return Spectrum(np.array(values, dtype=float))


# --- dict_tail_bound ---------------------------------------------------------

def test_tail_bound_example():
    # C(4,2) * nu_2 / alpha^2 = 6 * 1 / 4 = 1.5, with nu_2 = 2! * (1 * 0.5)
    b = dict_tail_bound(4, 2, 2.0, spectrum(1.0, 0.5))
    assert b == pytest.approx(math.log(1.5), rel=1e-13)


def test_tail_bound_k_equals_n_alpha_one():
    s = spectrum(2.0, 1.0, 0.5)
    assert dict_tail_bound(3, 3, 1.0, s) == pytest.approx(log_nu(s, 3), rel=1e-13)


def test_tail_bound_zero_when_rank_deficient():
    assert is_log_zero(dict_tail_bound(5, 3, 0.5, spectrum(1.0, 0.5, 0.0)))


def test_tail_bound_validation():
    with pytest.raises(ValueError):
        dict_tail_bound(2, 3, 1.0, spectrum(1.0, 0.5, 0.25))
    for alpha in (0.0, math.inf):
        with pytest.raises(ValueError, match="alpha must be positive"):
            dict_tail_bound(4, 2, alpha, spectrum(1.0, 0.5))
    # beyond the retained values nu(k) is exactly zero without a declared
    # tail, and unknown with one
    assert is_log_zero(dict_tail_bound(4, 3, 1.0, spectrum(1.0, 0.5)))
    with pytest.raises(ValueError):
        dict_tail_bound(4, 3, 1.0, Spectrum(np.array([1.0, 0.5]), 0.25))


def test_tail_bound_monotonicity():
    s = synthetic_spectrum("geometric", 2.0, 32)
    for k in (1, 2, 4):
        values_alpha = [dict_tail_bound(16, k, a, s) for a in (0.25, 0.5, 1.0, 2.0)]
        assert all(x >= y for x, y in zip(values_alpha, values_alpha[1:]))
        values_n = [dict_tail_bound(n, k, 0.5, s) for n in (8, 16, 32, 64)]
        assert all(x <= y for x, y in zip(values_n, values_n[1:]))


def test_tail_bound_vanishes_at_linear_dictionary_fraction():
    # geometric(2), alpha=0.5, eps=0.2: the bound at k = eps * n is strictly
    # decreasing across n = 50, 100, 200, 400
    s = synthetic_spectrum("geometric", 2.0, 320)
    bounds = [dict_tail_bound(n, n // 5, 0.5, s) for n in (50, 100, 200, 400)]
    assert all(x > y for x, y in zip(bounds, bounds[1:]))


def test_tail_bound_inputs_respect_decay_relation():
    # nu(k + 1) <= nu(k) * tail(k) * C(k + 1, k)
    s = synthetic_spectrum("geometric", 2.0, 64)
    row = log_nu_row(s, 12)
    for k in range(1, 11):
        bound = row[k] + math.log(tail_sum(s, k)) + log_binomial(k + 1, k)
        assert row[k + 1] <= bound + 1e-12


def test_log_binomial_matches_exact_integers():
    for n in range(31):
        for k in range(n + 1):
            exact = math.log(math.comb(n, k))
            assert log_binomial(n, k) == pytest.approx(exact, rel=1e-12, abs=1e-12)


# --- sample_threshold ----------------------------------------------------------

def test_threshold_example():
    # (1 * 2 / e) * sqrt(0.1 / 1) = 0.23267...
    t = sample_threshold(2, 1.0, 0.1, spectrum(1.0, 0.5))
    assert t == pytest.approx(2.0 / math.e * math.sqrt(0.1), rel=1e-12)
    assert round(t, 4) == 0.2327


def test_threshold_delta_equals_nu_alpha_e():
    # with delta = nu_k and alpha = e the exponent term is 1 (needs nu_k < 1)
    s = spectrum(0.5, 0.25, 0.125)
    for k in (1, 2, 3):
        delta = math.exp(log_nu(s, k))
        assert 0 < delta < 1
        assert sample_threshold(k, math.e, delta, s) == pytest.approx(k, rel=1e-12)


def test_threshold_unbounded_when_nu_zero():
    assert sample_threshold(3, 1.0, 0.1, spectrum(1.0, 0.5, 0.0)) == math.inf


def test_threshold_validation():
    s = spectrum(1.0, 0.5)
    with pytest.raises(ValueError):
        sample_threshold(0, 1.0, 0.1, s)
    with pytest.raises(ValueError):
        sample_threshold(1, 1.0, 1.5, s)
    for alpha in (0.0, math.inf):
        with pytest.raises(ValueError, match="alpha must be positive"):
            sample_threshold(1, alpha, 0.1, s)
    # beyond the retained values nu(k) is exactly zero without a declared
    # tail, and unknown with one
    assert sample_threshold(3, 1.0, 0.1, s) == math.inf
    with pytest.raises(ValueError):
        sample_threshold(3, 1.0, 0.1, Spectrum(np.array([1.0, 0.5]), 0.25))


# --- growth_prediction -----------------------------------------------------------

def test_growth_prediction_single_sample():
    # parameters chosen so the k=1 threshold (alpha*1/e)*(delta/nu_1) already
    # exceeds n=1: nu_1 ~= 1 for geometric(2)
    assert growth_prediction("geometric", 2.0, 1, 10.0, 0.5) == 1


def test_growth_prediction_geometric_log_shape():
    ks = [growth_prediction("geometric", 2.0, n, 0.5, 0.1) for n in (10**3, 10**4, 10**5)]
    assert ks[0] < ks[1] < ks[2]
    inc1, inc2 = ks[1] - ks[0], ks[2] - ks[1]
    assert inc2 <= 1.2 * inc1


def test_growth_prediction_polynomial_power_shape():
    ks = [growth_prediction("polynomial", 1.0, n, 0.5, 0.1) for n in (10**3, 10**4, 10**5)]
    assert ks[0] < ks[1] < ks[2]
    # rate ~ n^(1/(1+p)) = sqrt(n): ratio per decade at most sqrt(10) * 1.5
    assert ks[1] / ks[0] <= math.sqrt(10.0) * 1.5
    assert ks[2] / ks[1] <= math.sqrt(10.0) * 1.5


def _plain_threshold_scan(kind, param, n, alpha, delta):
    k = 1
    while not sample_threshold(k, alpha, delta, synthetic_spectrum(kind, param, max(4 * k, 64))) > n:
        k += 1
    return k


# answers in the first window (k <= 64) and in the second, third and fourth
# (65..128, 129..256, 257..512); k = 14 would be 13 on a 4k-term truncation;
# the polynomial p = 1 answers 64 / 65, 128 / 129 and 256 / 257 sit where a
# window ends and the next begins
@pytest.mark.parametrize(
    "kind, param, n, alpha, delta, expected",
    [
        ("geometric", 2.0, 1, 10.0, 0.5, 1),
        ("polynomial", 0.5, 2, 0.5, 0.1, 14),
        ("geometric", 2.0, 10**3, 0.5, 0.1, 22),
        ("polynomial", 2.0, 10**4, 0.5, 0.1, 87),
        ("geometric", 1.1, 10**4, 0.5, 0.1, 209),
        ("polynomial", 0.5, 200, 0.5, 0.1, 283),
        ("polynomial", 1.0, 128, 0.5, 0.1, 64),
        ("polynomial", 1.0, 132, 0.5, 0.1, 65),
        ("polynomial", 1.0, 510, 0.5, 0.1, 128),
        ("polynomial", 1.0, 518, 0.5, 0.1, 129),
        ("polynomial", 1.0, 2031, 0.5, 0.1, 256),
        ("polynomial", 1.0, 2047, 0.5, 0.1, 257),
    ],
)
def test_growth_prediction_is_smallest_k_over_per_k_truncations(kind, param, n, alpha, delta, expected):
    assert _plain_threshold_scan(kind, param, n, alpha, delta) == expected
    assert growth_prediction(kind, param, n, alpha, delta) == expected


def test_growth_prediction_memory_is_one_row():
    # one rolling row per window (k_max = W // 4 columns) over one W-term
    # spectrum; holding a table of rows here would take tens of MiB
    tracemalloc.start()
    try:
        assert growth_prediction("polynomial", 1.0, 10_000, 0.5, 0.1) == 569
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("alpha", [0.5, 0.05])
def test_growth_prediction_bounds_the_observed_size_on_a_polynomial_spectrum(alpha):
    # the linear kernel on diag_gaussian samples a process whose covariance
    # spectrum is exactly the 1024-term truncation of the law, so its nu(k)
    # is at most the law's and the law's prediction stays an upper bound
    # (P[|D_n| > k] < delta).  The slack is wide: predicted 89 and 179 at
    # n = 250 and 1000 against 8-10 observed at alpha = 0.5, 284 and 569
    # against 59-67 at alpha = 0.05, i.e. 4.4-20x
    values = synthetic_spectrum("polynomial", 1.0, 1024).values
    for seed in (1, 2, 3):
        points = Sampler.diag_gaussian(Spectrum(values), seed).points(1000)
        _, rows = run_stream(linear(), alpha, points, [250, 1000])
        for n, size, _ in rows:
            assert size <= growth_prediction("polynomial", 1.0, n, alpha, 0.1), (seed, n)


def test_growth_prediction_validation():
    with pytest.raises(ValueError):
        growth_prediction("explicit", 2.0, 100, 0.5, 0.1)
    with pytest.raises(ValueError):
        growth_prediction("geometric", 2.0, 0, 0.5, 0.1)
    for alpha in (0.0, math.inf):
        with pytest.raises(ValueError, match="alpha must be positive"):
            growth_prediction("geometric", 2.0, 100, alpha, 0.1)
    with pytest.raises(ValueError):
        growth_prediction("geometric", 2.0, 100, 0.5, 1.0)

