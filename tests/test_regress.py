import numpy as np
import pytest

from oks.kernels import linear, rbf
from oks import regress
from oks.regress import features, fit, read_labeled_csv, write_labeled_csv
from oks.sparsifier import Dictionary, run_stream
from oracles import eval_kernel


def full_dictionary(kernel, points, alpha=1e-9):
    d = Dictionary(kernel, alpha)
    for x in points:
        assert d.offer(x).admitted
    return d


def test_interpolation_with_full_dictionary():
    # dictionary = all training points, linear kernel, full rank
    pts = np.eye(5)
    d = full_dictionary(linear(), pts, alpha=0.5)
    ys = np.array([2.0, -1.0, 0.5, 3.0, 1.25])
    model = fit(d, pts, ys, ridge=0.0)
    assert model.evaluate(pts, ys) < 1e-20


def test_zero_labels_zero_weights():
    pts = np.eye(3)
    d = full_dictionary(linear(), pts, alpha=0.5)
    for ridge in (0.0, 0.5):
        model = fit(d, pts, np.zeros(3), ridge=ridge)
        assert np.allclose(model.weights, 0.0, atol=1e-15)


def test_linear_target_recovery():
    # y = 3 * x_1 lies in the span of linear-kernel features
    rng = np.random.default_rng(6)
    xs = rng.standard_normal((200, 2))
    ys = 3.0 * xs[:, 0]
    d, _ = run_stream(linear(), 1e-6, xs)
    assert len(d) == 2  # rank cap in R^2
    model = fit(d, xs, ys, ridge=0.0)
    test_xs = rng.standard_normal((100, 2))
    assert model.evaluate(test_xs, 3.0 * test_xs[:, 0]) < 1e-10
    assert model.predict(np.array([2.0, 0.0])) == pytest.approx(6.0, abs=1e-5)


def test_predict_zero_weights():
    d = full_dictionary(rbf(1.0), np.array([[0.0], [2.0]]), alpha=0.01)
    model = fit(d, np.array([[0.5], [1.0]]), np.zeros(2), ridge=1.0)
    assert model.predict(np.array([0.3])) == pytest.approx(0.0, abs=1e-12)


def test_predict_single_member():
    from oks.regress import RegressionModel

    d = full_dictionary(rbf(1.0), np.array([[1.0]]), alpha=0.5)
    model = RegressionModel(d, np.array([2.5]), 0.0)
    x = np.array([0.2])
    assert model.predict(x) == pytest.approx(2.5 * eval_kernel(rbf(1.0), x, np.array([1.0])))


def test_evaluate_examples():
    d = full_dictionary(linear(), np.eye(2), alpha=0.5)
    zero_model = fit(d, np.eye(2), np.zeros(2))
    assert zero_model.evaluate(np.eye(2), np.array([1.0, -1.0])) == 1.0


def test_shuffled_labels_fit_worse():
    rng = np.random.default_rng(44)
    xs = rng.standard_normal((120, 2))
    ys = 3.0 * xs[:, 0]
    d, _ = run_stream(linear(), 1e-6, xs)
    model = fit(d, xs, ys)
    shuffled = ys.copy()
    rng.shuffle(shuffled)
    assert model.evaluate(xs, shuffled) > model.evaluate(xs, ys)


def test_rank_deficient_without_ridge_raises():
    d = full_dictionary(linear(), np.eye(2), alpha=0.5)
    xs = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])  # identical rows: rank 1
    with pytest.raises(np.linalg.LinAlgError):
        fit(d, xs, np.array([1.0, 1.0, 1.0]), ridge=0.0)
    fit(d, xs, np.array([1.0, 1.0, 1.0]), ridge=0.1)  # resolvable by ridge


def test_ridge_zero_takes_the_svd_only_when_full_rank_is_not_certified(monkeypatch):
    # a well-conditioned design is certified by its triangle's inverse; a
    # rank-deficient one still reaches the SVD, which raises
    xs = np.random.default_rng(8).standard_normal((300, 2))
    d = Dictionary(rbf(1.0), 0.1)
    d.extend(xs)
    assert len(d) > 10
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: calls.append(1) or svd(*a, **kw))
    fit(d, xs, np.sin(xs[:, 0]), ridge=0.0)
    assert calls == []
    test_rank_deficient_without_ridge_raises()
    assert calls == [1]


def _check_fit_against_lstsq(d, xs, ys, ridge):
    # fit's weights against lstsq on [psi; sqrt(ridge) * I] and [ys; 0];
    # returns the augmented design's condition number
    psi = features(d, xs)
    m = len(d)
    design = np.vstack([psi, np.sqrt(ridge) * np.eye(m)]) if ridge else psi
    target = np.concatenate([ys, np.zeros(m)]) if ridge else ys
    expected, _, rank, sv = np.linalg.lstsq(design, target, rcond=None)
    assert rank == m
    weights = fit(d, xs, ys, ridge=ridge).weights
    assert np.linalg.norm(weights - expected) <= 1e-10 * np.linalg.norm(expected)
    return sv[0] / sv[-1]


@pytest.mark.parametrize("ridge", [0.0, 1e-3, 1.0])
def test_fit_matches_lstsq_on_augmented_design(ridge):
    rng = np.random.default_rng(12)
    xs = rng.standard_normal((150, 2))
    ys = np.sin(xs[:, 0]) + 0.1 * rng.standard_normal(150)
    d, _ = run_stream(rbf(1.0), 0.3, xs)
    _check_fit_against_lstsq(d, xs, ys, ridge)


@pytest.mark.parametrize("ridge", [0.0, 1e-3, 1.0])
def test_fit_matches_lstsq_past_the_qr_block_size(ridge):
    # m = 279 members span five blocks of regress.NB columns; the 1e-10 bound
    # holds with a margin while the condition number stays below 1e5 (about
    # 5e3 at ridge = 0)
    rng = np.random.default_rng(12)
    xs = rng.standard_normal((300, 5))
    ys = np.sin(xs[:, 0]) + 0.1 * rng.standard_normal(300)
    d, _ = run_stream(rbf(1.0), 0.05, xs)
    assert len(d) > 4 * regress.NB
    assert _check_fit_against_lstsq(d, xs, ys, ridge) < 1e5


@pytest.mark.parametrize("ridge", [1e-3, 1.0])
def test_fit_with_fewer_points_than_weights_matches_lstsq(ridge):
    rng = np.random.default_rng(5)
    xs = rng.standard_normal((200, 5))
    ys = np.sin(xs[:, 0]) + 0.1 * rng.standard_normal(200)
    d, _ = run_stream(rbf(1.0), 0.05, xs)
    assert len(d) > 2 * 60
    _check_fit_against_lstsq(d, xs[:60], ys[:60], ridge)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_fit_refuses_non_finite_labels(bad):
    d = full_dictionary(linear(), np.eye(2), alpha=0.5)
    ys = np.array([1.0, bad, 0.5])
    with pytest.raises(ValueError, match="labels must be finite"):
        fit(d, np.ones((3, 2)), ys, ridge=1e-3)


def test_fewer_points_than_weights_without_ridge_raises():
    d = full_dictionary(linear(), np.eye(3), alpha=0.5)
    xs = np.eye(3)[:2]
    with pytest.raises(np.linalg.LinAlgError, match="rank"):
        fit(d, xs, np.ones(2), ridge=0.0)
    assert fit(d, xs, np.ones(2), ridge=0.1).weights.shape == (3,)


@pytest.mark.parametrize("ridge", [-1.0, float("nan"), float("inf")])
def test_fit_refuses_a_negative_or_non_finite_ridge(ridge):
    d = full_dictionary(linear(), np.eye(2), alpha=0.5)
    with pytest.raises(ValueError, match="ridge must be a finite number >= 0"):
        fit(d, np.eye(2), np.ones(2), ridge=ridge)


def test_rank_rule_is_the_lstsq_cutoff():
    # the design's two columns differ in scale by 1/s; lstsq counts a singular
    # value as zero when at most eps * max(n, m) = 100 eps times the largest
    eps = np.finfo(float).eps
    xs = np.tile(np.eye(2), (50, 1))
    ys = np.ones(100)
    for gap, rank in ((10.0, 1), (1000.0, 2)):
        d = full_dictionary(linear(), np.array([[1 / (gap * eps), 0.0], [0.0, 1.0]]), alpha=0.5)
        assert np.linalg.lstsq(features(d, xs), ys, rcond=None)[2] == rank
        if rank < 2:
            with pytest.raises(np.linalg.LinAlgError, match="rank 1 < 2"):
                fit(d, xs, ys, ridge=0.0)
        else:
            assert np.all(np.isfinite(fit(d, xs, ys, ridge=0.0).weights))


def test_ridge_shrinks_weights():
    rng = np.random.default_rng(7)
    xs = rng.standard_normal((60, 2))
    ys = np.sin(xs[:, 0]) + 0.1 * rng.standard_normal(60)
    d, _ = run_stream(rbf(1.0), 0.05, xs)
    norms = []
    for ridge in (0.0, 0.01, 0.1, 1.0, 10.0):
        model = fit(d, xs, ys, ridge=ridge)
        norms.append(float(np.linalg.norm(model.weights)))
    for a, b in zip(norms, norms[1:]):
        assert b <= a + 1e-12


def test_fit_permutation_invariant():
    rng = np.random.default_rng(10)
    xs = rng.standard_normal((80, 2))
    ys = xs[:, 0] ** 2 + 0.05 * rng.standard_normal(80)
    d, _ = run_stream(rbf(1.0), 0.05, xs)
    base = fit(d, xs, ys).weights
    perm = rng.permutation(80)
    shuffled = fit(d, xs[perm], ys[perm]).weights
    assert np.allclose(base, shuffled, atol=1e-9)


def test_fit_validation():
    d = full_dictionary(linear(), np.eye(2), alpha=0.5)
    with pytest.raises(ValueError):
        fit(d, np.zeros((2, 2)), np.zeros(3))
    with pytest.raises(ValueError):
        fit(d, np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(ValueError):
        fit(Dictionary(linear(), 0.5), np.eye(2), np.zeros(2))
    with pytest.raises(ValueError):
        fit(d, np.eye(2), np.zeros(2), ridge=-1.0)


def test_features_shape():
    d = full_dictionary(rbf(1.0), np.array([[0.0], [1.0], [2.5]]), alpha=0.01)
    psi = features(d, np.array([[0.5], [1.5]]))
    assert psi.shape == (2, 3)


# --- labeled CSV ---------------------------------------------------------------

def test_labeled_csv_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    xs = rng.standard_normal((10, 3))
    ys = rng.standard_normal(10)
    path = str(tmp_path / "data.csv")
    write_labeled_csv(path, xs, ys)
    bx, by = read_labeled_csv(path)
    assert np.array_equal(bx, xs)
    assert np.array_equal(by, ys)


def test_labeled_csv_text_is_pinned(tmp_path):
    path = tmp_path / "data.csv"
    write_labeled_csv(str(path), np.array([[0.5, -1.25], [3.0, 1e-17]]), np.array([0.1, -2.0]))
    assert path.read_text() == "x0,x1,y\n0.5,-1.25,0.1\n3.0,1e-17,-2.0\n"


def test_labeled_csv_requires_header(tmp_path):
    for i, text in enumerate(["1.0,2.0\n", "", "x0,y\n"]):
        path = tmp_path / f"case{i}.csv"
        path.write_text(text)
        with pytest.raises(ValueError):
            read_labeled_csv(str(path))
