import numpy as np
import pytest

from oks.harness import Sampler
from oks.kernels import NotPsdError, gram, linear, rbf
from oks.spectrum import empirical_spectrum, synthetic_spectrum
from oks.symfun import Spectrum


def test_empirical_order_one():
    s = empirical_spectrum(np.array([[4.0]]))
    assert np.array_equal(s.values, [4.0])
    assert s.declared_tail == 0.0


@pytest.mark.parametrize("n", [1, 3, 8])
def test_empirical_identity_gram(n):
    s = empirical_spectrum(np.eye(n))
    assert np.allclose(s.values, np.full(n, 1.0 / n), rtol=1e-14)


def test_empirical_rejects_non_psd():
    with pytest.raises(NotPsdError):
        empirical_spectrum(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_empirical_rejects_order_zero_and_asymmetric():
    with pytest.raises(ValueError):
        empirical_spectrum(np.zeros((0, 0)))
    with pytest.raises(ValueError):
        empirical_spectrum(np.array([[1.0, 0.1], [0.2, 1.0]]))


def test_empirical_clamps_rounding_negatives():
    # duplicated point: one eigenvalue is exactly 0 in real arithmetic and a
    # tiny signed value in floats
    pts = np.array([[1.0, 2.0], [1.0, 2.0], [0.5, -0.3]])
    s = empirical_spectrum(gram(rbf(1.0), pts))
    assert np.all(s.values >= 0.0)


def test_empirical_trace_identity():
    rng = np.random.default_rng(23)
    for _ in range(20):
        pts = rng.standard_normal((int(rng.integers(2, 30)), 3))
        g = gram(rbf(1.0), pts)
        s = empirical_spectrum(g)
        assert s.values.sum() == pytest.approx(np.trace(g) / g.shape[0], rel=1e-9)
        assert np.count_nonzero(s.values) <= g.shape[0]


def test_empirical_law_of_large_numbers():
    # diagonal feature model with spectrum (1, 0.5): the empirical spectrum of
    # a 2000-sample linear-kernel Gram sits within 0.05 of the truth
    sampler = Sampler.diag_gaussian(Spectrum(np.array([1.0, 0.5])), seed=42)
    pts = sampler.points(2000)
    s = empirical_spectrum(gram(linear(), pts))
    assert abs(s.values[0] - 1.0) < 0.05
    assert abs(s.values[1] - 0.5) < 0.05
    # rank-2 features: the rest is eigensolver noise
    assert np.all(s.values[2:] < 1e-10)


# --- synthetic_spectrum ------------------------------------------------------

def test_synthetic_geometric():
    s = synthetic_spectrum("geometric", 2.0, 3)
    assert np.array_equal(s.values, [0.5, 0.25, 0.125])
    assert s.declared_tail == pytest.approx(0.125, rel=1e-15)


def test_synthetic_polynomial():
    s = synthetic_spectrum("polynomial", 1.0, 2)
    assert np.array_equal(s.values, [1.0, 0.25])
    assert s.declared_tail == pytest.approx(0.5, rel=1e-15)


def test_synthetic_explicit_sorts():
    s = synthetic_spectrum("explicit", [1.0, 3.0, 2.0])
    assert np.array_equal(s.values, [3.0, 2.0, 1.0])
    assert s.declared_tail == 0.0


def test_synthetic_validation():
    with pytest.raises(ValueError):
        synthetic_spectrum("geometric", 1.0, 4)
    with pytest.raises(ValueError):
        synthetic_spectrum("polynomial", 0.0, 4)
    with pytest.raises(ValueError):
        synthetic_spectrum("geometric", 2.0, 0)
    with pytest.raises(ValueError):
        synthetic_spectrum("cauchy", 2.0, 4)


def test_geometric_tail_is_series_remainder():
    s = synthetic_spectrum("geometric", 3.0, 10)
    exact_tail = np.power(3.0, -np.arange(11, 200, dtype=float)).sum()
    assert s.declared_tail == pytest.approx(exact_tail, rel=1e-12)


def test_polynomial_tail_upper_bounds_remainder():
    s = synthetic_spectrum("polynomial", 1.5, 32)
    approx_tail = np.power(np.arange(33, 200000, dtype=float), -2.5).sum()
    assert s.declared_tail >= approx_tail


def test_empirical_gap_trend_diagonal_model():
    # the median L1 gap to the true spectrum, the shorter padded with zeros,
    # should not increase with n
    truth = Spectrum(np.array([1.0, 0.5, 0.25]))
    medians = []
    for n in (100, 400, 1600):
        gaps = []
        for seed in range(5):
            sampler = Sampler.diag_gaussian(truth, seed=1000 + seed)
            est = empirical_spectrum(gram(linear(), sampler.points(n)))
            padded = np.zeros(max(est.size, truth.size))
            padded[: truth.size] = truth.values
            padded[: est.size] -= est.values
            gaps.append(np.abs(padded).sum())
        medians.append(np.median(gaps))
    assert medians[1] <= medians[0]
    assert medians[2] <= medians[1]
