import itertools
import logging
import math

import numpy as np
import pytest

from oks.kernels import gram, gram_cross, linear, log_det_psd, polynomial, power, rbf
from oks.logvalue import is_log_zero
from oks.sparsifier import (
    BLOCK,
    Dictionary,
    NumericalConsistencyError,
    check_alpha_compatible,
    kstar_oracle,
    load_dictionary,
    run_stream,
    save_dictionary,
)

log = logging.getLogger(__name__)


def mixed_kernel(rng):
    choice = rng.integers(0, 4)
    if choice == 0:
        return linear()
    if choice == 1:
        return rbf(float(rng.uniform(0.5, 2.0)))
    if choice == 2:
        return polynomial(2, float(rng.uniform(0.5, 1.5)), float(rng.uniform(0.3, 1.0)))
    return power(rbf(float(rng.uniform(0.8, 1.5))), 2)


def dense_residual(kernel, members, x):
    """Reference residual via a dense solve against the full member Gram."""
    if len(members) == 0:
        from oks.kernels import eval_kernel

        return eval_kernel(kernel, x, x)
    g = gram_cross(kernel, x[None, :], np.asarray(members))[0]
    gd = gram(kernel, np.asarray(members))
    from oks.kernels import eval_kernel

    return eval_kernel(kernel, x, x) - float(g @ np.linalg.solve(gd, g))


# --- construction ------------------------------------------------------------

def test_new_dictionary():
    d = Dictionary(linear(), 0.5)
    assert len(d) == 0
    assert d.log_det == 0.0
    d2 = Dictionary(rbf(1.0), 0.01)
    assert len(d2) == 0


def test_alpha_must_be_positive():
    with pytest.raises(ValueError):
        Dictionary(linear(), 0.0)
    with pytest.raises(ValueError):
        Dictionary(linear(), -1.0)


# --- residual / offer --------------------------------------------------------

def test_residual_empty_dictionary_rbf():
    d = Dictionary(rbf(1.0), 0.1)
    assert d.residual(np.array([0.7])) == 1.0


def test_residual_duplicate_is_zero():
    d = Dictionary(linear(), 0.5)
    d.offer(np.array([1.0, 0.0]))
    assert d.residual(np.array([1.0, 0.0])) == 0.0


def test_residual_linear_example():
    d = Dictionary(linear(), 0.5)
    d.offer(np.array([1.0, 0.0]))
    # k(x,x) - g^2 / G = 2 - 1 = 1
    assert d.residual(np.array([1.0, 1.0])) == pytest.approx(1.0, rel=1e-14)


def test_offer_admission_chain():
    d = Dictionary(linear(), 0.5)
    out = d.offer(np.array([1.0, 0.0]))
    assert out.admitted and out.residual == 1.0
    assert d.log_det == 0.0
    out = d.offer(np.array([1.0, 0.0]))
    assert not out.admitted and out.residual == 0.0
    out = d.offer(np.array([1.0, 1.0]))
    assert out.admitted and out.residual == pytest.approx(1.0, rel=1e-14)
    # det [[1,1],[1,2]] = 1, and log_det tracked the residual product exactly
    assert d.log_det == pytest.approx(0.0, abs=1e-14)
    assert len(d) == 2


def test_offer_tie_rejects():
    d = Dictionary(linear(), 1.0)
    assert not d.offer(np.array([1.0, 0.0])).admitted  # residual == alpha exactly


def test_dimension_mismatch():
    d = Dictionary(linear(), 0.5)
    d.offer(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        d.residual(np.array([1.0, 0.0, 0.0]))


def test_factor_reproduces_gram():
    rng = np.random.default_rng(2)
    d = Dictionary(rbf(1.0), 0.05)
    for x in rng.standard_normal((60, 2)):
        d.offer(x)
    L = d.factor
    assert np.allclose(L @ L.T, gram(d.kernel, d.members), atol=1e-10)
    assert np.all(np.diag(L) > math.sqrt(d.alpha))
    assert d.log_det == pytest.approx(2 * np.sum(np.log(np.diag(L))), abs=1e-10)


# --- run_stream ---------------------------------------------------------------

def test_stream_identical_points():
    pts = np.tile([[1.5, -0.5]], (40, 1))
    d, trace = run_stream(rbf(1.0), 0.01, pts)
    assert len(d) == 1
    assert trace.dict_size[-1] == 1


def test_stream_orthonormal_basis():
    d, _ = run_stream(linear(), 0.5, np.eye(4))
    assert len(d) == 4


def test_stream_trace_records():
    pts = np.random.default_rng(0).standard_normal((10, 1))
    _, trace = run_stream(rbf(1.0), 0.2, pts, trace_every=3)
    assert list(trace.samples) == [3, 6, 9, 10]
    assert np.all(trace.dict_size[1:] >= trace.dict_size[:-1])
    assert np.all(trace.dict_size <= trace.samples)


def test_stream_rejects_empty():
    with pytest.raises(ValueError):
        run_stream(linear(), 0.5, np.zeros((0, 2)))


def test_stream_matches_dense_reference_run():
    # 10000 standard-normal 1-D points: sizes must agree with a from-scratch
    # implementation that recomputes each residual by a dense solve
    rng = np.random.default_rng(77)
    pts = rng.standard_normal((10_000, 1))
    d, trace = run_stream(rbf(1.0), 0.01, pts, trace_every=2500)

    members: list[np.ndarray] = []
    sizes = []
    for i, x in enumerate(pts, 1):
        if dense_residual(rbf(1.0), members, x) > 0.01:
            members.append(x)
        if i % 2500 == 0 or i == len(pts):
            sizes.append(len(members))
    assert sizes == [int(s) for s in trace.dict_size]
    assert np.array_equal(d.members, np.array(members))


# --- numerical agreement with dense projections --------------------------------

def test_residual_exactness_randomized_streams():
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(60):
        kernel = mixed_kernel(rng)
        dim = int(rng.integers(1, 6))
        alpha = float(rng.uniform(0.01, 0.5))
        d = Dictionary(kernel, alpha)
        members: list[np.ndarray] = []
        for x in rng.standard_normal((rng.integers(20, 120), dim)) * 0.7:
            ref = dense_residual(kernel, members, x)
            got = d.residual(x)
            worst = max(worst, abs(ref - got))
            if d.offer(x).admitted:
                members.append(x)
        ld_dense = log_det_psd(gram(kernel, d.members)) if len(d) else 0.0
        assert abs(d.log_det - ld_dense) < 1e-8
    assert worst < 1e-8


def test_determinant_lower_bound_invariant():
    rng = np.random.default_rng(9)
    for _ in range(40):
        kernel = mixed_kernel(rng)
        alpha = float(rng.uniform(0.01, 0.5))
        d = Dictionary(kernel, alpha)
        for x in rng.standard_normal((80, 2)):
            d.offer(x)
            if len(d):
                assert d.log_det > len(d) * math.log(alpha)


def test_order_sensitivity_keeps_invariants():
    rng = np.random.default_rng(200)
    pts = rng.standard_normal((40, 2))
    alpha = 0.2
    d1, _ = run_stream(rbf(1.0), alpha, pts)
    d2, _ = run_stream(rbf(1.0), alpha, pts[::-1])
    for d in (d1, d2):
        assert d.log_det > len(d) * math.log(alpha)
        assert check_alpha_compatible(d.kernel, alpha, d.members)


# --- block admission (Dictionary.extend) -----------------------------------------

def _extend_case(seed, n, dim):
    rng = np.random.default_rng(seed)
    return mixed_kernel(rng), rng.standard_normal((n, dim)) * 0.7


# more than 600 points each, so every stream crosses two block boundaries;
# kernels poly, pow, linear and rbf; the last is admission-heavy (59% admitted,
# d = 5), the second and the last admit points inside the second block
EXTEND_CASES = [(31, 700, 2, 0.05), (32, 650, 3, 0.2), (42, 620, 3, 0.05), (51, 620, 5, 0.03)]


@pytest.mark.parametrize("seed, n, dim, alpha", EXTEND_CASES)
def test_extend_equals_sequential_dense_replay(seed, n, dim, alpha):
    kernel, pts = _extend_case(seed, n, dim)
    d = Dictionary(kernel, alpha)
    res = d.extend(pts)

    members: list[np.ndarray] = []
    for x in pts:
        if dense_residual(kernel, members, x) > alpha:
            members.append(x)
    assert np.array_equal(d.members, np.array(members))
    L = d.factor
    assert np.allclose(L @ L.T, gram(kernel, d.members), rtol=0, atol=1e-10)
    admitted = res > alpha
    assert admitted.sum() == len(d)
    assert d.log_det == sum(math.log(r) for r in res[admitted])


@pytest.mark.parametrize("seed, n, dim, alpha", EXTEND_CASES)
def test_extend_any_split_matches_one_extend(seed, n, dim, alpha):
    kernel, pts = _extend_case(seed, n, dim)
    whole = Dictionary(kernel, alpha)
    whole_res = whole.extend(pts)
    rng = np.random.default_rng(seed + 1000)
    cuts = np.sort(rng.choice(np.arange(1, n), size=12, replace=False))
    d = Dictionary(kernel, alpha)
    parts = []
    for i, chunk in enumerate(np.split(pts, cuts)):
        if i % 2:
            parts.extend(d.offer(x).residual for x in chunk)
        else:
            parts.extend(d.extend(chunk))
    assert np.array_equal(d.members, whole.members)
    assert np.allclose(d.factor, whole.factor, rtol=0, atol=1e-10)
    assert d.log_det == pytest.approx(whole.log_det, rel=1e-12, abs=1e-12)
    assert np.allclose(parts, whole_res, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("seed, n, dim, alpha", EXTEND_CASES[1::2])
def test_extend_rejects_in_block_duplicate(seed, n, dim, alpha):
    kernel, pts = _extend_case(seed, n, dim)
    plain = Dictionary(kernel, alpha)
    res = plain.extend(pts)
    j = BLOCK + int(np.flatnonzero(res[BLOCK : 2 * BLOCK - 3] > alpha)[0])
    d = Dictionary(kernel, alpha)
    dup = d.extend(np.insert(pts, j + 3, pts[j], axis=0))[j + 3]  # same block as pts[j]
    assert np.array_equal(d.members, plain.members)
    # zero in exact arithmetic; rounding leaves a few ulps of k(x, x)
    assert 0 <= dup < 1e-12 * max(1.0, float(gram(kernel, pts[j : j + 1])[0, 0]))


def test_extend_rejects_in_block_duplicate_with_residual_zero():
    # integer points under the linear kernel: every step below is exact
    d = Dictionary(linear(), 0.5)
    d.extend([[1.0, 0.0, 0.0]])
    res = d.extend([[0.0, 0.0, 2.0], [3.0, 4.0, 0.0], [3.0, 4.0, 0.0]])
    assert res.tolist() == [4.0, 16.0, 0.0]
    assert d.members.tolist() == [[1.0, 0.0, 0.0], [0.0, 0.0, 2.0], [3.0, 4.0, 0.0]]
    assert d.factor.tolist() == [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [3.0, 0.0, 4.0]]


def test_extend_failure_semantics():
    d = Dictionary(rbf(1.0), 0.5)
    d.offer([0.0])
    d._fac[0, 0] = 1.0 - 1e-14  # residual of [0] becomes about -2e-14: rounding noise
    assert d.residual([0.0]) == 0.0
    assert d.extend([[0.0]]).tolist() == [0.0]
    d._fac[0, 0] = 0.5  # residual of [0] becomes about -3: a fault
    with pytest.raises(NumericalConsistencyError):
        d.residual([0.0])
    with pytest.raises(NumericalConsistencyError):
        d.extend([[5.0], [0.0], [10.0]])
    # the row before the fault was admitted, the one after it was not
    assert d.members.tolist() == [[0.0], [5.0]]


def test_extend_validates_before_admitting():
    d = Dictionary(rbf(1.0), 0.1)
    with pytest.raises(ValueError):
        d.extend([[0.0], [float("nan")]])
    with pytest.raises(ValueError):
        d.extend([0.0, 1.0])
    assert len(d) == 0
    assert d.extend(np.zeros((0, 1))).shape == (0,)


# --- alpha-compatibility --------------------------------------------------------

def test_dictionary_members_are_compatible():
    rng = np.random.default_rng(5)
    d, _ = run_stream(rbf(1.0), 0.1, rng.standard_normal((60, 2)))
    assert check_alpha_compatible(rbf(1.0), 0.1, d.members)


def test_duplicate_sequence_incompatible():
    seq = np.array([[1.0, 0.0], [1.0, 0.0]])
    assert not check_alpha_compatible(linear(), 0.1, seq)


def test_compatibility_is_hereditary():
    # rbf features: distinct points give full-rank Grams, so 5-point
    # compatible sequences actually occur
    rng = np.random.default_rng(15)
    found = 0
    for _ in range(200):
        if found >= 5:
            break
        pts = rng.standard_normal((5, 2))
        if not check_alpha_compatible(rbf(1.0), 0.01, pts):
            continue
        found += 1
        for r in range(5 + 1):
            for keep in itertools.combinations(range(5), r):
                assert check_alpha_compatible(rbf(1.0), 0.01, pts[list(keep)])
    assert found >= 5


def test_empty_sequence_compatible():
    assert check_alpha_compatible(linear(), 0.5, np.zeros((0, 2)))


# --- kstar oracle ----------------------------------------------------------------

def test_kstar_rank_cap_in_plane():
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((6, 2))
    assert kstar_oracle(linear(), 1e-9, pts) <= 2


def test_kstar_single_small_point():
    assert kstar_oracle(linear(), 2.0, np.array([[1.0, 0.5]])) == 0


def test_kstar_empty():
    assert kstar_oracle(linear(), 1.0, np.zeros((0, 3))) == 0


def test_kstar_against_independent_enumerator():
    # second enumerator coded from scratch: rank check (slogdet of a singular
    # Gram returns rounding noise, not zero) plus numpy's slogdet
    def reference(kernel, alpha, pts):
        g = gram(kernel, pts)
        best = 0
        for r in range(1, len(pts) + 1):
            for keep in itertools.combinations(range(len(pts)), r):
                sub = g[np.ix_(keep, keep)]
                if np.linalg.matrix_rank(sub, hermitian=True) < r:
                    continue
                sign, ld = np.linalg.slogdet(sub)
                if sign > 0 and ld > r * math.log(alpha):
                    best = max(best, r)
        return best

    rng = np.random.default_rng(40)
    pts = rng.standard_normal((6, 3))
    assert kstar_oracle(linear(), 1e-6, pts) == reference(linear(), 1e-6, pts)
    for seed in range(5):
        rng = np.random.default_rng(500 + seed)
        pts = rng.standard_normal((7, 2))
        alpha = float(rng.uniform(0.05, 2.0))
        assert kstar_oracle(rbf(1.0), alpha, pts) == reference(rbf(1.0), alpha, pts)


def test_dictionary_size_dominated_by_kstar():
    rng = np.random.default_rng(60)
    equalities = 0
    for _ in range(20):
        pts = rng.standard_normal((10, 2))
        alpha = float(rng.uniform(0.05, 0.8))
        d, _ = run_stream(rbf(1.0), alpha, pts)
        kstar = kstar_oracle(rbf(1.0), alpha, pts)
        assert len(d) <= kstar
        if len(d) == kstar:
            equalities += 1
    if equalities:
        log.info("dictionary size equalled kstar on %d/20 streams", equalities)


def test_passing_subset_sizes_form_a_prefix():
    # if no k-subset passes, no larger subset passes either
    rng = np.random.default_rng(70)
    for _ in range(10):
        n = int(rng.integers(4, 9))
        pts = rng.standard_normal((n, 3))
        alpha = float(rng.uniform(0.1, 1.5))
        g = gram(rbf(1.0), pts)
        passing = []
        for r in range(1, n + 1):
            hit = False
            for keep in itertools.combinations(range(n), r):
                ld = log_det_psd(g[np.ix_(keep, keep)])
                if not is_log_zero(ld) and ld > r * math.log(alpha):
                    hit = True
                    break
            passing.append(hit)
        # True entries must form a prefix
        first_false = passing.index(False) if False in passing else len(passing)
        assert all(passing[:first_false])
        assert not any(passing[first_false:])


# --- snapshots --------------------------------------------------------------------

def test_snapshot_round_trip(tmp_path):
    rng = np.random.default_rng(81)
    d, _ = run_stream(rbf(1.0), 0.15, rng.standard_normal((50, 2)))
    csv_path = str(tmp_path / "dict.csv")
    save_dictionary(d, csv_path)
    back = load_dictionary(csv_path)
    assert len(back) == len(d)
    assert np.array_equal(back.members, d.members)
    assert back.log_det == pytest.approx(d.log_det, abs=1e-10)
    assert back.kernel == d.kernel
