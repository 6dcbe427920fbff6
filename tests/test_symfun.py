"""The DP rows are checked against subset enumeration throughout: the
enumeration oracle is the ground truth for every frozen value here."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oks.logvalue import is_log_zero, log_binomial
from oks.symfun import (
    Spectrum,
    log_nu,
    log_nu_row,
    nu_geometric,
    nu_rows,
    tail_sum,
)
from oracles import esp_brute


def spectrum(*values, tail=0.0):
    return Spectrum(np.array(values, dtype=float), tail)


def close_log(a, b, tol=1e-12):
    if is_log_zero(a) or is_log_zero(b):
        return is_log_zero(a) and is_log_zero(b)
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# --- Spectrum ----------------------------------------------------------------

def test_spectrum_validation():
    with pytest.raises(ValueError):
        spectrum(1.0, 2.0)  # ascending
    with pytest.raises(ValueError):
        spectrum(1.0, -0.5)
    with pytest.raises(ValueError):
        spectrum(1.0, tail=-1.0)
    with pytest.raises(ValueError):
        Spectrum(np.array([np.inf]))
    assert spectrum().size == 0


def test_spectrum_csv_round_trip(tmp_path):
    for spec in (spectrum(3.0, 2.0, 1.0), spectrum(1.0, 0.5, tail=0.125)):
        path = str(tmp_path / "spec.csv")
        spec.to_csv(path)
        back = Spectrum.from_csv(path)
        assert np.array_equal(back.values, spec.values)
        assert back.declared_tail == spec.declared_tail


def test_spectrum_csv_refuses_an_unrecognized_header(tmp_path):
    path = tmp_path / "spec.csv"
    path.write_text("# foo=1\n0.5\n")
    with pytest.raises(ValueError) as excinfo:
        Spectrum.from_csv(str(path))
    assert str(excinfo.value) == "unrecognized spectrum header '# foo=1'"


def test_spectrum_csv_header_line():
    buf = io.StringIO()
    spectrum(1.0, 0.5, tail=0.25).to_csv(buf)
    assert buf.getvalue().splitlines()[0] == "# tail=0.25"


# --- nu_rows / log_nu_row ------------------------------------------------------

def test_esp_table_example():
    # 2! * (3*2 + 3*1 + 2*1) = 22, by direct enumeration of the 2-subsets
    row = log_nu_row(spectrum(3.0, 2.0, 1.0), 2)
    assert row[2] == pytest.approx(math.log(22.0), rel=1e-13)


def test_esp_table_k0_column():
    rows = [row[0] for row in nu_rows(spectrum(2.0, 1.0, 0.5).values, 3)]
    assert rows == [0.0] * 4


def test_esp_table_k1_is_trace():
    s = spectrum(2.0, 1.0, 0.25)
    row = log_nu_row(s, 1)
    assert row[1] == pytest.approx(math.log(3.25), rel=1e-13)


def test_esp_table_zero_propagation():
    # r nonzero values: every (r+1)-subset contains a zero
    row = log_nu_row(spectrum(2.0, 1.0, 0.0, 0.0), 3)
    assert is_log_zero(row[3])
    assert not is_log_zero(row[2])


def test_esp_table_k_exceeds_length():
    # columns beyond the spectrum length are the zero state, as in log_nu
    row = log_nu_row(spectrum(1.0), 2)
    assert row[0] == 0.0 and row[1] == 0.0 and is_log_zero(row[2])
    with pytest.raises(ValueError):
        log_nu_row(spectrum(1.0), -1)


def test_esp_table_monotone_in_n():
    rng = np.random.default_rng(4)
    for _ in range(25):
        n = int(rng.integers(1, 10))
        vals = np.sort(rng.uniform(0, 3, n))[::-1]
        lv = np.array([row.copy() for row in nu_rows(vals, n)])
        assert lv.shape == (n + 1, n + 1)
        assert np.all(lv[1:] >= lv[:-1] - 1e-12)


def test_nu_rows_entries_do_not_depend_on_k_max():
    # growth_prediction's windows read row max(4k, 64) at k_max = W // 4 and
    # rely on it equalling the row a wider k_max gives, bit for bit
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(1, 40))
        vals = np.sort(rng.uniform(0, 3, n) ** int(rng.integers(1, 6)))[::-1]
        k = int(rng.integers(0, n + 2))
        k2 = k + int(rng.integers(1, 2 * n + 2))
        for narrow, wide in zip(nu_rows(vals, k), nu_rows(vals, k2)):
            assert np.array_equal(narrow, wide[: k + 1])


def _allocating_nu_rows(values, k_max):
    # the recursion step written with a new term and a new row each step
    row = np.full(k_max + 1, -math.inf)
    row[0] = 0.0
    logk = np.log(np.arange(1, k_max + 1, dtype=float))
    yield row.copy()
    with np.errstate(divide="ignore"):
        loglam = np.log(np.asarray(values, dtype=float))
    for n, loglam_n in enumerate(loglam, 1):
        m = min(n, k_max)
        row[1 : m + 1] = np.logaddexp(row[1 : m + 1], logk[:m] + loglam_n + row[:m])
        yield row.copy()


@pytest.mark.parametrize("values, k_max", [
    ([3.0, 2.0, 0.5, 0.0, 0.0], 3),
    ([3.0, 2.0, 0.5, 0.0, 0.0], 9),
    ((1.0 + np.arange(300.0)) ** -1.5, 40),
    ((1.0 + np.arange(50.0)) ** -0.5, 80),
    ([0.0, 0.0], 4),
    ([], 3),
], ids=["zeros", "zeros-k-above-length", "polynomial", "k-above-length", "all-zero", "empty"])
def test_nu_rows_in_place_step_equals_the_allocating_step(values, k_max):
    # growth_prediction reads intermediate rows, so every row is compared
    want = list(_allocating_nu_rows(values, k_max))
    got = [row.copy() for row in nu_rows(np.asarray(values, dtype=float), k_max)]
    assert len(got) == len(want) == len(values) + 1
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


# --- esp_brute ---------------------------------------------------------------

def test_esp_brute_examples():
    assert esp_brute(spectrum(3.0, 2.0, 1.0), 3) == pytest.approx(math.log(36.0), rel=1e-13)
    assert esp_brute(spectrum(1.0), 1) == pytest.approx(0.0, abs=1e-15)
    assert esp_brute(spectrum(0.5, 0.25), 2) == pytest.approx(math.log(0.25), rel=1e-13)


def test_esp_brute_size_cap():
    with pytest.raises(ValueError):
        esp_brute(Spectrum(np.linspace(23, 1, 23)), 2)


def test_esp_brute_is_the_zero_state_when_every_subset_holds_a_zero():
    # every term of the sum is log 0 = -inf; the sum is the zero state, with no warning
    assert is_log_zero(esp_brute(spectrum(1.0, 0.0, 0.0), 2))


def test_esp_brute_permutation_invariance():
    rng = np.random.default_rng(8)
    vals = rng.uniform(0, 2, 6)
    ref = esp_brute(Spectrum(np.sort(vals)[::-1]), 3)
    for _ in range(5):
        rng.shuffle(vals)
        assert close_log(esp_brute(Spectrum(np.sort(vals)[::-1]), 3), ref)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.floats(0, 10, allow_nan=False), min_size=1, max_size=10),
    st.integers(0, 10),
)
def test_dp_matches_enumeration(values, k):
    vals = np.sort(np.array(values))[::-1]
    k = min(k, len(vals))
    s = Spectrum(vals)
    assert close_log(log_nu_row(s, k)[k], esp_brute(s, k))
    # every prefix row holds nu over exactly the first n values
    for n, row in enumerate(nu_rows(vals, k)):
        assert close_log(row[k], esp_brute(Spectrum(vals[:n]), k))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0.01, 5, allow_nan=False), min_size=2, max_size=10), st.floats(0.1, 10))
def test_scaling_shifts_log_by_k_log_c(values, c):
    vals = np.sort(np.array(values))[::-1]
    k = len(vals) // 2 + 1
    base = log_nu_row(Spectrum(vals), k)[k]
    scaled = log_nu_row(Spectrum(vals * c), k)[k]
    assert scaled == pytest.approx(base + k * math.log(c), rel=1e-10, abs=1e-10)


# --- Newton / Maclaurin ------------------------------------------------------

def test_newton_and_maclaurin_random_spectra():
    rng = np.random.default_rng(12)
    for _ in range(100):
        n = int(rng.integers(3, 12))
        vals = np.sort(rng.uniform(0.05, 3.0, n))[::-1]
        nus = log_nu_row(Spectrum(vals), n)
        for k in range(1, n):
            assert 2 * nus[k] >= nus[k - 1] + nus[k + 1] - 1e-10
            assert nus[k] / k >= nus[k + 1] / (k + 1) - 1e-10


# --- tail_sum ---------------------------------------------------------------

def test_tail_sum_examples():
    assert tail_sum(spectrum(1.0, 0.5, 0.25), 0) == 1.75
    assert tail_sum(spectrum(1.0, 0.5, 0.25), 3) == 0.0
    assert tail_sum(spectrum(1.0, 0.5, tail=0.1), 1) == pytest.approx(0.6, rel=1e-15)
    with pytest.raises(ValueError):
        tail_sum(spectrum(1.0), 2)


def test_decay_bound_dominates_table():
    # nu(k + s) <= nu(k) * tail(k)**s * C(k + s, k)
    s = spectrum(2.0, 1.0, 0.5, 0.25, 0.125)
    row = log_nu_row(s, 5)
    for k in range(0, 4):
        for sdx in range(1, 5 - k + 1):
            b = row[k] + sdx * math.log(tail_sum(s, k)) + log_binomial(k + sdx, k)
            assert row[k + sdx] <= b + 1e-12


# --- nu_geometric ------------------------------------------------------------

def test_nu_geometric_frozen_values():
    assert nu_geometric(2.0, 1) == pytest.approx(0.0, abs=1e-14)  # trace = 1
    assert nu_geometric(2.0, 2) == pytest.approx(math.log(2.0 / 3.0), rel=1e-13)
    assert nu_geometric(10.0, 1) == pytest.approx(math.log(1.0 / 9.0), rel=1e-13)
    with pytest.raises(ValueError):
        nu_geometric(1.0, 1)
    with pytest.raises(ValueError):
        nu_geometric(2.0, 0)


def test_nu_geometric_validated_against_truncated_table():
    # closed form vs the DP on a 60-term truncation of lam_i = sigma**-i
    for sigma in (2.0, 3.0):
        vals = np.power(sigma, -np.arange(1, 61, dtype=float))
        row = log_nu_row(Spectrum(vals), 12)
        for k in range(1, 13):
            assert nu_geometric(sigma, k) == pytest.approx(row[k], rel=1e-10, abs=1e-10)


def test_super_exponential_decay_geometric():
    # log nu_k - k log alpha eventually strictly decreases (sigma=2, alpha=0.5)
    vals = np.power(2.0, -np.arange(1, 81, dtype=float))
    row = log_nu_row(Spectrum(vals), 40)
    seq = np.array([row[k] - k * math.log(0.5) for k in range(1, 41)])
    diffs = np.diff(seq)
    decreasing = np.where(diffs < 0)[0]
    assert decreasing.size > 0
    k0 = int(decreasing[0])
    assert k0 <= 5
    assert np.all(diffs[k0:] < 0)


def test_log_nu_beyond_length_is_zero_state():
    assert is_log_zero(log_nu(spectrum(1.0, 0.5), 3))
