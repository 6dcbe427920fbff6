import functools
import itertools
import json
import logging
import math
import tracemalloc

import numpy as np
import pytest

from oks import sparsifier
from oks.cli import _parse_checkpoints
from oks.harness import Sampler, load_dictionary, save_dictionary
from oks.kernels import gram, gram_cross, linear, logdet_psd_stack, polynomial, power, rbf
from oks.logvalue import is_log_zero
from oks.sparsifier import BLOCK, PANEL, Dictionary, NumericalConsistencyError, run_stream
from oracles import check_alpha_compatible, eval_kernel, kstar_oracle

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
        return eval_kernel(kernel, x, x)
    g = gram_cross(kernel, x[None, :], np.asarray(members))[0]
    gd = gram(kernel, np.asarray(members))
    return eval_kernel(kernel, x, x) - float(g @ np.linalg.solve(gd, g))


def log_det_fold(residuals):
    """The log-determinant as Dictionary accumulates it: log(r) added in order,
    one ``+=`` at a time.  sum() would not do: from Python 3.12 it compensates
    its additions, so it need not equal the sequential sum in the last bits."""
    total = 0.0
    for r in residuals:
        total += math.log(r)
    return total


# --- construction ------------------------------------------------------------

def test_new_dictionary():
    d = Dictionary(linear(), 0.5)
    assert len(d) == 0
    assert d.log_det == 0.0
    d2 = Dictionary(rbf(1.0), 0.01)
    assert len(d2) == 0


def test_alpha_must_be_positive():
    for alpha in (0.0, -1.0, math.inf):
        with pytest.raises(ValueError, match="alpha must be positive"):
            Dictionary(linear(), alpha)


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
    d, rows = run_stream(rbf(1.0), 0.01, pts)
    assert len(d) == 1
    assert rows == [(40, 1, d.log_det)]


def test_stream_orthonormal_basis():
    d, _ = run_stream(linear(), 0.5, np.eye(4))
    assert len(d) == 4


def test_stream_trace_records():
    pts = np.random.default_rng(0).standard_normal((10, 1))
    d, rows = run_stream(rbf(1.0), 0.2, pts, [3, 6, 9])
    # one (n, |D|, log det) row of plain Python numbers per mark and the end
    assert [type(v) for row in rows for v in row] == [int, int, float] * 4
    n, size, log_det = zip(*rows)
    assert n == (3, 6, 9, 10)
    assert all(a <= b for a, b in zip(size, size[1:]))
    assert all(s <= m for s, m in zip(size, n))
    assert (size[-1], log_det[-1]) == (len(d), d.log_det)


def test_stream_records_a_mark_at_the_end_once():
    pts = np.random.default_rng(0).standard_normal((10, 1))
    _, plain = run_stream(rbf(1.0), 0.2, pts, [4])
    _, ended = run_stream(rbf(1.0), 0.2, pts, [4, 10])
    assert [row[0] for row in ended] == [4, 10]
    assert ended == plain
    for marks in ([0, 4], [4, 4], [6, 4], [4, 11]):
        with pytest.raises(ValueError):
            run_stream(rbf(1.0), 0.2, pts, marks)


def test_stream_rejects_empty():
    with pytest.raises(ValueError):
        run_stream(linear(), 0.5, np.zeros((0, 2)))


def test_stream_matches_dense_reference_run():
    # 10000 standard-normal 1-D points: sizes must agree with a from-scratch
    # implementation that recomputes each residual by a dense solve
    rng = np.random.default_rng(77)
    pts = rng.standard_normal((10_000, 1))
    d, rows = run_stream(rbf(1.0), 0.01, pts, [2500, 5000, 7500])

    members: list[np.ndarray] = []
    sizes = []
    for i, x in enumerate(pts, 1):
        if dense_residual(rbf(1.0), members, x) > 0.01:
            members.append(x)
        if i % 2500 == 0 or i == len(pts):
            sizes.append(len(members))
    assert sizes == [size for _, size, _ in rows]
    assert np.array_equal(d.members, np.array(members))


# one stream loop: the marks pick rows of one extend, they do not cut its blocks.
# Both streams span several blocks; the reject-heavy one is the benchmark's
# large stream leg
_MARKED_STREAMS = {
    "admission-heavy": (0.3, 10, 1000),
    "reject-heavy": (0.1, 5, 4000),
}


@pytest.mark.parametrize("case", sorted(_MARKED_STREAMS))
def test_marks_leave_the_dictionary_bit_identical(case, monkeypatch):
    alpha, dim, n = _MARKED_STREAMS[case]
    pts = Sampler.gaussian_input(dim, 1.0, 1).points(n)
    calls = []
    extend = Dictionary.extend

    def counted(self, points):
        calls.append(len(points))
        return extend(self, points)

    monkeypatch.setattr(Dictionary, "extend", counted)
    ladders = {
        "none": (),
        "every point": range(1, n + 1),
        "every 10th": range(10, n, 10),
        "default ladder": _parse_checkpoints(None, n),  # oks growth's
    }
    runs = {}
    for name, marks in ladders.items():
        calls.clear()
        d, rows = run_stream(rbf(1.0), alpha, pts, marks)
        assert calls == [n]  # one extend over the whole stream
        assert rows[-1] == (n, len(d), d.log_det)
        runs[name] = d, {row[0]: row for row in rows}
    assert n // BLOCK >= 3 and len(runs["none"][0]) > 3 * PANEL // 2
    ref, every = runs["every point"]
    for d, rows in runs.values():
        assert np.array_equal(d.factor, ref.factor)
        assert np.array_equal(d.members, ref.members)
        assert d.log_det == ref.log_det
        assert all(rows[m] == every[m] for m in rows)
    # every row against the factor: |D| after n points and the log det of its
    # leading |D| x |D| block, 2 log diag(L) summed in another order (the
    # first residuals are within 1e-11 of 1, so their logs carry an
    # absolute error)
    sizes = np.array([every[m][1] for m in range(1, n + 1)])
    assert sizes[0] == 1 and np.all(np.diff(sizes) >= 0) and sizes[-1] == len(ref)
    leading = np.concatenate(([0.0], np.cumsum(2 * np.log(np.diag(ref.factor)))))
    assert np.allclose([every[m][2] for m in range(1, n + 1)], leading[sizes],
                       rtol=1e-12, atol=1e-13)


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
        ld_dense = logdet_psd_stack(gram(kernel, d.members)) if len(d) else 0.0
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


@pytest.mark.parametrize("ell, dim, scale, alpha, n", [
    (1.0, 1, 1.0, 0.1, 1000),
    (1.0, 5, 1.0, 0.1, 1000),
    (1.5, 10, 1.05, 0.3, 600),
], ids=["rbf1-gauss1", "rbf1-gauss5", "rbf1.5-gauss10"])
def test_dictionary_size_is_below_its_log_det_certificate(ell, dim, scale, alpha, n):
    """|D_n| < log det(I + K_n/gamma) / log(1 + alpha/gamma) for every gamma > 0,
    where K_n is the Gram matrix of the n offered points.

    Proof.  Let K be the Gram matrix of the members admitted before member
    j, and k_j their kernel column at x_j.  Member j's ridge residual
    r_j = k(x_j, x_j) - k_j^T (K + gamma I)^-1 k_j is at least its ALD
    residual k(x_j, x_j) - k_j^T K^-1 k_j, which exceeds alpha, because
    (K + gamma I)^-1 <= K^-1 for positive definite K.  So
    det(I + K_D/gamma) = prod_j (1 + r_j/gamma) > (1 + alpha/gamma)^|D|.  The
    Schur complement of the D block in I + K_n/gamma is I plus a PSD matrix,
    so det(I + K_D/gamma) <= det(I + K_n/gamma).

    A theorem, so no tolerance.  Over seeds 1-3 the smallest certificate on
    the grid reads 1.89-2.22, 1.63-1.67 and 1.08-1.12 times |D_n| on the
    three streams.
    """
    kernel = rbf(ell)
    gammas = np.logspace(-8, 1, 200)
    for seed in (1, 2, 3):
        pts = Sampler.gaussian_input(dim, scale, seed).points(n)
        d, _ = run_stream(kernel, alpha, pts)
        lam = np.clip(np.linalg.eigvalsh(gram(kernel, pts)), 0.0, None)
        for gamma in gammas:
            certificate = np.log1p(lam / gamma).sum() / math.log1p(alpha / gamma)
            assert len(d) < certificate, (seed, gamma)


# --- block admission (Dictionary.extend) -----------------------------------------

def _extend_case(seed, n, dim):
    rng = np.random.default_rng(seed)
    return mixed_kernel(rng), rng.standard_normal((n, dim)) * 0.7


# more than 600 points each, so every stream crosses two block boundaries;
# kernels poly, pow, linear and rbf; the last is admission-heavy (59% admitted,
# d = 5), the second and the last admit points inside the second block
EXTEND_CASES = [(31, 700, 2, 0.05), (32, 650, 3, 0.2), (42, 620, 3, 0.05), (51, 620, 5, 0.03)]


@functools.cache
def _dense_replay(seed, n, dim, alpha):
    """Members and residuals of a point-at-a-time run of an EXTEND_CASES
    stream that recomputes every residual by a dense solve."""
    kernel, pts = _extend_case(seed, n, dim)
    members: list[np.ndarray] = []
    residuals = []
    for x in pts:
        residuals.append(dense_residual(kernel, members, x))
        if residuals[-1] > alpha:
            members.append(x)
    return np.array(members), np.array(residuals)


@pytest.mark.parametrize("seed, n, dim, alpha", EXTEND_CASES)
def test_extend_equals_sequential_dense_replay(seed, n, dim, alpha):
    kernel, pts = _extend_case(seed, n, dim)
    d = Dictionary(kernel, alpha)
    res = d.extend(pts)

    members, _ = _dense_replay(seed, n, dim, alpha)
    assert np.array_equal(d.members, members)
    L = d.factor
    assert np.allclose(L @ L.T, gram(kernel, d.members), rtol=0, atol=1e-10)
    admitted = res > alpha
    assert admitted.sum() == len(d)
    assert d.log_det == log_det_fold(res[admitted])


@pytest.mark.parametrize("seed, n, dim, alpha", EXTEND_CASES)
def test_extend_any_split_matches_one_extend(seed, n, dim, alpha):
    # a rejected row may report the partial residual where its substitution
    # stopped, which depends on the block and panel boundaries; on any split
    # it lies between the row's full residual and alpha
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
    parts = np.array(parts)
    assert np.array_equal(d.members, whole.members)
    assert np.allclose(d.factor, whole.factor, rtol=0, atol=1e-10)
    assert d.log_det == pytest.approx(whole.log_det, rel=1e-12, abs=1e-12)
    admitted = whole_res > alpha
    assert np.array_equal(parts > alpha, admitted)
    assert np.allclose(parts[admitted], whole_res[admitted], rtol=1e-9, atol=1e-12)
    _, full = _dense_replay(seed, n, dim, alpha)
    for res in (whole_res, parts):
        assert np.all(full[~admitted] - 1e-12 <= res[~admitted])
        assert np.all(res[~admitted] <= alpha)


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
    d._slabs[0][0, 0] = 1.0 - 1e-14  # L[0, 0]; residual of [0] becomes about -2e-14: rounding noise
    assert d.residual([0.0]) == 0.0
    assert d.extend([[0.0]]).tolist() == [0.0]
    d._slabs[0][0, 0] = 0.5  # residual of [0] becomes about -3: a fault
    with pytest.raises(NumericalConsistencyError):
        d.residual([0.0])
    with pytest.raises(NumericalConsistencyError):
        d.extend([[5.0], [0.0], [10.0]])
    # the row before the fault was admitted, the one after it was not
    assert d.members.tolist() == [[0.0], [5.0]]


def test_a_nan_residual_is_a_fault_not_a_rejection():
    d = Dictionary(rbf(1.0), 0.5)
    d.offer([0.0])
    d._slabs[0][0, 0] = np.nan  # L[0, 0]
    with pytest.raises(NumericalConsistencyError, match="projection residual nan"):
        d.extend([[0.0]])
    with pytest.raises(NumericalConsistencyError):
        d.residual([3.0])
    assert len(d) == 1


# --- the in-block walk ----------------------------------------------------------

def test_an_admission_heavy_block_matches_a_point_at_a_time_replay():
    # rbf:1.0 on gauss:10 at alpha 0.8 admits 95% of 600 points over three
    # blocks, and admitted rows of one block couple (kernel values above 0.3),
    # so each admission moves the residuals of the later rows of its block
    kernel, alpha = rbf(1.0), 0.8
    pts = Sampler.gaussian_input(10, 1.0, 1).points(2 * BLOCK + 88)
    d = Dictionary(kernel, alpha)
    res = d.extend(pts)

    ref = Dictionary(kernel, alpha)
    full = np.empty(len(pts))
    for i, x in enumerate(pts):
        full[i] = ref.residual(x)
        assert ref.offer(x).admitted == (full[i] > alpha)
    admitted = full > alpha
    assert 0.9 * len(pts) < admitted.sum() < len(pts)
    assert np.array_equal(d.members, ref.members)
    assert np.array_equal(res > alpha, admitted)
    assert np.allclose(res[admitted], full[admitted], rtol=1e-9, atol=1e-12)
    assert np.all(full[~admitted] - 1e-12 <= res[~admitted])
    assert np.all(res[~admitted] <= alpha)
    g = gram(kernel, d.members)
    L = d.factor
    assert np.allclose(L @ L.T, g, rtol=0, atol=1e-10)
    assert np.allclose(L, ref.factor, rtol=0, atol=1e-10)
    assert d.log_det == log_det_fold(res[admitted])
    block = (np.arange(len(pts)) // BLOCK)[admitted]
    coupled = (block[:, None] == block[None, :]) & ~np.eye(len(d), dtype=bool)
    assert g[coupled].max() > 0.3


def test_a_block_forms_no_in_block_gram_below_two_hot_candidates(monkeypatch):
    # duplicates of the members in the last panel: each keeps a residual above
    # alpha against the members before its own, so all of them get through
    # every panel, and then each has a full residual of 0
    kernel, alpha, pts = _pruning_case()
    d = Dictionary(kernel, alpha)
    d.extend(pts)
    size = len(d)
    assert size > PANEL
    dups = d.members[(size - 1) // PANEL * PANEL :]
    entries = []

    def counted(kernel, x, y):
        entries.append(len(x) * len(y))
        return gram_cross(kernel, x, y)

    monkeypatch.setattr(sparsifier, "gram_cross", counted)
    res = d.extend(dups)
    assert len(d) == size and np.all(res <= alpha)
    # one kernel value per candidate and member, and none among the candidates
    assert sum(entries) == len(dups) * size
    entries.clear()
    # a far point is the block's one hot candidate, and no later one needs S
    assert d.offer(np.full(5, 50.0)).admitted
    assert sum(entries) == size


# --- panel pruning ----------------------------------------------------------------

def _pruning_case():
    # reject-heavy (52% rejected) with |D| = 721, over six panels
    return rbf(1.0), 0.1, np.random.default_rng(15).standard_normal((1500, 5))


def test_pruned_extend_matches_a_point_at_a_time_full_solve():
    kernel, alpha, pts = _pruning_case()
    d = Dictionary(kernel, alpha)
    res = d.extend(pts)
    assert len(d) > 3 * PANEL

    ref = Dictionary(kernel, alpha)
    full = np.empty(len(pts))
    for i, x in enumerate(pts):
        full[i] = ref.residual(x)
        assert ref.offer(x).admitted == (full[i] > alpha)
    admitted = full > alpha
    assert np.array_equal(d.members, ref.members)
    assert np.array_equal(res > alpha, admitted)
    assert np.allclose(res[admitted], full[admitted], rtol=1e-9, atol=1e-12)
    rejected, full_rejected = res[~admitted], full[~admitted]
    assert np.all(full_rejected - 1e-12 <= rejected)
    assert np.all(rejected <= alpha)
    # most rejected rows stopped in an early panel, above their full residual
    assert np.mean(rejected > full_rejected + 1e-9) > 0.5
    L = d.factor
    assert np.allclose(L @ L.T, gram(kernel, d.members), rtol=0, atol=1e-10)
    assert d.log_det == log_det_fold(res[admitted])


def test_residual_on_a_multi_panel_dictionary_matches_a_dense_solve():
    kernel, alpha, pts = _pruning_case()
    d = Dictionary(kernel, alpha)
    d.extend(pts)
    assert len(d) > 3 * PANEL
    probes = [*np.random.default_rng(16).standard_normal((20, 5)), d.members[PANEL + 5]]
    for x in probes:
        assert d.residual(x) == pytest.approx(dense_residual(kernel, d.members, x), abs=1e-9)


@pytest.mark.parametrize("last", [False, True], ids=["second-panel", "last-member"])
def test_a_fault_in_a_later_panel_raises_after_the_rows_before_it(last):
    kernel, alpha, pts = _pruning_case()
    d = Dictionary(kernel, alpha)
    d.extend(pts)
    size = len(d)
    m = size - 1 if last else PANEL + 7
    dup = d.members[m]
    # halving L[m, m] doubles the last coordinate of member m's duplicate, so
    # its residual becomes -3 L[m, m]**2; against the first panel alone it
    # is above alpha, so its substitution reaches the corrupted row
    d._slabs[m // PANEL][m % PANEL, m] *= 0.5  # L[m, m]
    far = np.full(5, 50.0)
    with pytest.raises(NumericalConsistencyError):
        d.extend([far, dup, -far])
    assert len(d) == size + 1
    assert np.array_equal(d.members[-1], far)


def test_a_long_stream_keeps_its_factor_and_log_det_against_dense():
    # the benchmark's large stream leg: rbf:1.0, gauss:5 at seed 1, alpha 0.1
    d, _ = run_stream(rbf(1.0), 0.1, Sampler.gaussian_input(5, 1.0, 1).points(4000))
    assert len(d) == 1174
    g = gram(d.kernel, d.members)
    sign, log_det = np.linalg.slogdet(g)
    # |D| * cond(G) * eps = 1174 * 7.1e3 * 1.1e-16, about 1e-9
    assert sign == 1 and abs(d.log_det - log_det) < 1e-9
    # entries of G are at most 1: ten times |D| * eps
    L = d.factor
    assert np.max(np.abs(L @ L.T - g)) < 1e-12
    # slab p is PANEL x (p+1)*PANEL: the triangle, the upper halves of the
    # diagonal blocks (under half the last slab) and the unfilled rows of
    # the last slab (under one slab)
    n, panels = len(d), len(d._slabs)
    assert panels == -(-n // PANEL)
    held = sum(slab.size for slab in d._slabs)
    assert held == sum(PANEL * (p + 1) * PANEL for p in range(panels))
    assert held < n * (n + 1) / 2 + 1.5 * d._slabs[-1].size


def test_a_stream_peaks_below_its_slab_bound_plus_one_block():
    # the long stream above, |D| = 1174 over 10 slabs.  The run holds the
    # slabs, under the triangle plus one and a half slabs (see above), and
    # per block its candidates' coordinates against the factor, at most
    # BLOCK x |D|; a square factor that doubles holds 2048^2 doubles, 32 MiB,
    # to reach 1174 rows
    pts = Sampler.gaussian_input(5, 1.0, 1).points(4000)
    tracemalloc.start()
    try:
        d, _ = run_stream(rbf(1.0), 0.1, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = len(d)
    assert n == 1174
    assert peak < 8 * (n * (n + 1) / 2 + 1.5 * d._slabs[-1].size + BLOCK * n)


def test_growth_never_copies_a_slab():
    kernel, alpha, pts = _pruning_case()
    d = Dictionary(kernel, alpha)
    d.extend(pts[:10])
    slab, panel = d._slabs[0], d._panels[0]
    d.extend(pts[10:])
    assert len(d) > 3 * PANEL
    assert d._slabs[0] is slab and d._panels[0] is panel


def test_a_standard_basis_across_panels_is_exact():
    # linear kernel: every residual is exactly 1, so the factor is I
    m = 2 * PANEL + 3
    basis = np.eye(m)
    d = Dictionary(linear(), 0.5)
    assert d.extend(basis).tolist() == [1.0] * m
    assert np.array_equal(d.factor, np.eye(m))
    assert d.log_det == 0.0
    assert np.array_equal(d.members, basis)
    probes = basis[[0, PANEL - 1, PANEL, 2 * PANEL, m - 1]]
    assert [d.residual(x) for x in probes] == [0.0] * len(probes)
    # the readers return copies
    d.factor[:] = 7.0
    d.members[:] = 3.0
    assert [d.residual(x) for x in probes] == [0.0] * len(probes)
    assert d.residual(2 * np.ones(m)) == 0.0  # 4m - |2 * ones|^2, in integers
    assert np.array_equal(d.factor, np.eye(m)) and np.array_equal(d.members, basis)


def test_an_admission_heavy_stream_keeps_its_factor_and_log_det_against_dense():
    # rbf:1.0, gauss:10 at seed 1, alpha 0.05: every point is admitted, so
    # every block runs the in-block walk
    d, _ = run_stream(rbf(1.0), 0.05, Sampler.gaussian_input(10, 1.0, 1).points(2000))
    assert len(d) == 2000
    g = gram(d.kernel, d.members)
    sign, log_det = np.linalg.slogdet(g)
    # |D| * cond(G) * eps = 2000 * 121 * 1.1e-16, about 2.7e-11
    assert sign == 1 and abs(d.log_det - log_det) < 2.7e-11
    # entries of G are at most 1: ten times |D| * eps, about 2.2e-12
    L = d.factor
    assert np.max(np.abs(L @ L.T - g)) < 2.2e-12


def test_each_block_solves_once_per_panel_through_the_module_binding(monkeypatch):
    # bench/tracer.py counts the sparsifier's triangular solves by wrapping
    # oks.sparsifier.solve_triangular and reads the factor's order off its
    # first argument.  At d = 10, alpha = 0.3 almost every point is admitted,
    # so no block drops all its candidates before the last panel
    pts = np.random.default_rng(7).standard_normal((700, 10))
    ref = Dictionary(rbf(1.0), 0.3).extend(pts)
    orders = []
    solve = sparsifier.solve_triangular

    def counted(a, b, **kwargs):
        orders.append(a.shape)
        return solve(a, b, **kwargs)

    monkeypatch.setattr(sparsifier, "solve_triangular", counted)
    d = Dictionary(rbf(1.0), 0.3)
    res = []
    for s in range(0, len(pts), BLOCK):  # the blocks one extend forms
        n = len(d)
        orders.clear()
        res.append(d.extend(pts[s : s + BLOCK]))
        # one solve per panel, against its diagonal block L_pp
        assert orders == [(min(PANEL, n - p), min(PANEL, n - p)) for p in range(0, n, PANEL)]
    assert len(d) > 3 * PANEL
    assert np.concatenate(res).tobytes() == ref.tobytes()


def test_a_stream_at_the_alpha_floor_warns_once(caplog):
    # 1-D rbf draws at alpha = 1e-12: admitted residuals of a few alpha carry
    # only 2-3 correct digits, and the dense checks cannot confirm them
    pts = Sampler.gaussian_input(1, 1.0, 21).points(40)
    with caplog.at_level(logging.WARNING, logger="oks.sparsifier"):
        d, _ = run_stream(rbf(1.0), 1e-12, pts)
        d.extend(pts)
    assert len(caplog.records) == 1
    assert "alpha = 1e-12 is at the float64 floor" in caplog.records[0].getMessage()
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="oks.sparsifier"):
        run_stream(rbf(1.0), 0.1, pts)
    assert caplog.records == []


def test_extend_validates_before_admitting():
    d = Dictionary(rbf(1.0), 0.1)
    with pytest.raises(ValueError):
        d.extend([[0.0], [float("nan")]])
    with pytest.raises(ValueError):
        d.extend([0.0, 1.0])
    assert len(d) == 0
    assert d.extend(np.zeros((0, 1))).shape == (0,)


@pytest.mark.parametrize("kernel, scale, message", [
    (rbf(1.0), 1e160, "points overflow"),
    (linear(), 1e160, "points overflow"),
    (polynomial(3, 1.0, 1.0), 1e110, r"k\(x, x\) = inf is not finite at row 256"),
], ids=["rbf", "linear", "poly"])
def test_extend_refuses_a_non_finite_k_xx_before_admitting(kernel, scale, message):
    # the offending row sits in the second block, after rows that would be admitted
    pts = np.random.default_rng(4).standard_normal((BLOCK + 1, 1))
    pts[BLOCK] *= scale
    d = Dictionary(kernel, 0.1)
    with pytest.raises(ValueError, match=message):
        d.extend(pts)
    assert len(d) == 0
    assert d.log_det == 0.0


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
                ld = logdet_psd_stack(g[np.ix_(keep, keep)])
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


def test_snapshot_round_trip_of_empty_dictionary(tmp_path):
    # rbf has k(x, x) = 1, so alpha = 2 rejects every point; the dimension
    # is still recorded, written to the header, and read back
    d, _ = run_stream(rbf(1.0), 2.0, np.random.default_rng(5).standard_normal((20, 3)))
    assert len(d) == 0
    assert d.members.shape == (0, 3)
    csv_path = str(tmp_path / "dict.csv")
    save_dictionary(d, csv_path)
    assert (tmp_path / "dict.csv").read_text() == "x0,x1,x2\n"
    back = load_dictionary(csv_path)
    assert len(back) == 0
    assert back.members.shape == (0, 3)
    assert back.log_det == 0.0
    assert back.kernel == d.kernel
    with pytest.raises(ValueError):
        back.extend(np.zeros((1, 2)))


def _no_header(csv_path, sidecar):
    lines = csv_path.read_text().splitlines(keepends=True)
    csv_path.write_text("".join(lines[1:]))


def _duplicated_member(csv_path, sidecar):
    lines = csv_path.read_text().splitlines(keepends=True)
    csv_path.write_text("".join([*lines, lines[1]]))


def _wrong_size(csv_path, sidecar):
    meta = json.loads(sidecar.read_text())
    meta["size"] += 1
    sidecar.write_text(json.dumps(meta))


@pytest.mark.parametrize("corrupt, message", [
    (_no_header, "dictionary snapshot is missing its header row"),
    (_duplicated_member, "snapshot member failed to re-admit; file is corrupt"),
    (_wrong_size, "snapshot size disagrees with sidecar"),
], ids=["no-header", "duplicated-member", "size-disagrees"])
def test_load_dictionary_refuses_a_corrupt_snapshot(corrupt, message, tmp_path):
    d, _ = run_stream(rbf(1.0), 0.15, np.random.default_rng(81).standard_normal((50, 2)))
    csv_path = tmp_path / "dict.csv"
    save_dictionary(d, str(csv_path))
    corrupt(csv_path, tmp_path / "dict.json")
    with pytest.raises(ValueError) as excinfo:
        load_dictionary(str(csv_path))
    assert str(excinfo.value) == message
