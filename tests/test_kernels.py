import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oks import kernels
from oks.kernels import (
    DEFAULT_PIVOT_TOL,
    KernelSpec,
    NotPsdError,
    TILE,
    gram,
    gram_cross,
    kernel_diag,
    linear,
    logdet_psd_stack,
    polynomial,
    power,
    rbf,
)
from oks.logvalue import LOG_ZERO, is_log_zero
from oracles import eval_kernel


def random_points(rng, n, d, scale=1.0):
    return rng.standard_normal((n, d)) * scale


# --- eval_kernel -----------------------------------------------------------

def test_linear_orthogonal_vectors():
    assert eval_kernel(linear(), [1.0, 0.0], [0.0, 1.0]) == 0.0
    assert gram_cross(linear(), [[1.0, 0.0]], [[0.0, 1.0]]).tolist() == [[0.0]]


@pytest.mark.parametrize("bw", [0.25, 1.0, 3.0])
def test_rbf_zero_distance(bw):
    x = np.array([0.3, -1.2, 4.0])
    assert eval_kernel(rbf(bw), x, x) == 1.0
    assert kernel_diag(rbf(bw), [x]).tolist() == [1.0]


def test_polynomial_example():
    # (scale * <x, y> + offset) ** degree = (1 * 2 + 1) ** 2
    assert eval_kernel(polynomial(2, 1.0, 1.0), [1.0, 1.0], [1.0, 1.0]) == 9.0
    assert gram_cross(polynomial(2, 1.0, 1.0), [[1.0, 1.0]], [[1.0, 1.0]]).tolist() == [[9.0]]


def test_factories_refuse_a_fractional_degree_or_exponent():
    assert polynomial(2) == polynomial(np.int64(2)) == polynomial(2.0)
    assert power(rbf(1.0), np.int64(3)).exponent == 3
    for bad in (2.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="polynomial degree must be an integer"):
            polynomial(bad)
        with pytest.raises(ValueError, match="power exponent must be an integer"):
            power(rbf(1.0), bad)


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        eval_kernel(linear(), [1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        gram_cross(rbf(1.0), np.zeros((3, 2)), np.zeros((4, 3)))


def test_non_finite_rejected():
    with pytest.raises(ValueError):
        eval_kernel(linear(), [np.nan, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="non-finite coordinates"):
        gram_cross(linear(), [[np.nan, 0.0]], [[1.0, 1.0]])


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-5, 5), min_size=1, max_size=4),
    st.lists(st.floats(-5, 5), min_size=1, max_size=4),
    st.sampled_from(["linear", "rbf", "poly", "pow"]),
)
def test_symmetry_and_diag_nonneg(xs, ys, kind):
    d = min(len(xs), len(ys))
    x, y = np.array(xs[:d]), np.array(ys[:d])
    spec = {
        "linear": linear(),
        "rbf": rbf(0.8),
        "poly": polynomial(2, 0.5, 1.0),
        "pow": power(rbf(1.5), 3),
    }[kind]
    assert eval_kernel(spec, x, y) == pytest.approx(eval_kernel(spec, y, x), rel=1e-12, abs=1e-300)
    assert eval_kernel(spec, x, x) >= 0.0


def test_power_of_one_is_identity():
    rng = np.random.default_rng(5)
    base = rbf(0.7)
    pts = random_points(rng, 6, 3)
    assert np.array_equal(gram(power(base, 1), pts), gram(base, pts))


# --- gram ------------------------------------------------------------------

def test_gram_empty():
    assert gram(linear(), []).shape == (0, 0)


def test_gram_orthonormal():
    assert np.array_equal(gram(linear(), np.eye(2)), np.eye(2))


def test_gram_example():
    g = gram(linear(), [[1.0, 0.0], [1.0, 1.0]])
    assert np.array_equal(g, np.array([[1.0, 1.0], [1.0, 2.0]]))


def test_gram_matches_eval_entrywise():
    rng = np.random.default_rng(11)
    pts = random_points(rng, 5, 3)
    for spec in (linear(), rbf(1.3), polynomial(3, 1.0, 0.5), power(rbf(1.0), 2)):
        g = gram(spec, pts)
        assert np.array_equal(g, g.T)
        for i in range(5):
            for j in range(5):
                assert g[i, j] == pytest.approx(
                    eval_kernel(spec, pts[i], pts[j]), rel=1e-10, abs=1e-12
                )


def test_power_gram_is_entrywise_power():
    rng = np.random.default_rng(3)
    pts = random_points(rng, 7, 2)
    base = polynomial(2, 1.0, 0.5)
    assert np.array_equal(gram(power(base, 3), pts), gram(base, pts) ** 3)


def test_gram_batched_matches_loop():
    rng = np.random.default_rng(21)
    stack = rng.standard_normal((4, 3, 2))
    g = gram(rbf(1.0), stack)
    for b in range(4):
        assert np.allclose(g[b], gram(rbf(1.0), stack[b]), rtol=0, atol=0)


def test_rbf_gram_peak_stays_below_two_and_a_half_outputs():
    # the output is the only n x n array: the kernel values are formed over
    # it in place, a strip of TILE rows at a time
    pts = np.random.default_rng(5).standard_normal((2000, 1))
    tracemalloc.start()
    try:
        g = gram(rbf(1.0), pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * g.nbytes


_KINDS = {"linear": linear(), "rbf": rbf(1.0), "poly": polynomial(3, 0.5, 1.5),
          "pow": power(rbf(0.7), 2)}


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_gram_peak_stays_below_one_and_a_quarter_outputs(kind):
    # beside the output, one strip of TILE rows: 256 of 2000 here
    spec = _KINDS[kind]
    pts = np.random.default_rng(5).standard_normal((2000, 1))
    tracemalloc.start()
    try:
        g = gram(spec, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * g.nbytes


# one tile; two and more, plain and batched; exactly one tile; one row past it
_SHAPES = [(40, 3), (5, 9, 2), (600, 3), (2, 300, 2), (TILE, 2), (TILE + 1, 2)]
_SHAPE_IDS = ["plain", "batched", "tiled", "tiled-batched", "one-tile", "one-tile-plus-1"]


@pytest.mark.parametrize("bw", [0.3, 1.0])
@pytest.mark.parametrize("shape", _SHAPES, ids=_SHAPE_IDS)
def test_rbf_matrices_equal_the_out_of_place_formula(shape, bw):
    rng = np.random.default_rng(6)
    xs = rng.standard_normal(shape)
    ys = rng.standard_normal(shape[:-2] + (11, shape[-1]))

    def cross(a, b):
        sq = (
            np.sum(a * a, axis=-1)[..., :, None]
            + np.sum(b * b, axis=-1)[..., None, :]
            - 2.0 * (a @ b.swapaxes(-1, -2))
        )
        return np.exp(-np.maximum(sq, 0.0) / (2.0 * bw**2))

    k = cross(xs, xs)
    k = 0.5 * (k + k.swapaxes(-1, -2))
    idx = np.arange(shape[-2])
    k[..., idx, idx] = 1.0
    assert np.array_equal(gram(rbf(bw), xs), k)
    assert np.array_equal(gram_cross(rbf(bw), xs, ys), cross(xs, ys))


# each kind's formula over inner products ip and squared norms sx, sy, out of place
_PLAIN = {
    "linear": (linear(), lambda ip, sx, sy: ip),
    "poly": (polynomial(3, 0.5, 1.5), lambda ip, sx, sy: (1.5 * ip + 0.5) ** 3),
    "pow": (power(rbf(0.7), 2),
            lambda ip, sx, sy: np.exp(-np.maximum(sx + sy - 2.0 * ip, 0.0) / (2.0 * 0.7**2)) ** 2),
}


@pytest.mark.parametrize("kind", sorted(_PLAIN))
@pytest.mark.parametrize("shape", _SHAPES, ids=_SHAPE_IDS)
def test_other_kinds_match_the_out_of_place_formula(shape, kind):
    spec, formula = _PLAIN[kind]
    rng = np.random.default_rng(6)
    xs = rng.standard_normal(shape)
    ys = rng.standard_normal(shape[:-2] + (11, shape[-1]))

    def cross(a, b):
        sa, sb = np.sum(a * a, axis=-1), np.sum(b * b, axis=-1)
        return formula(a @ b.swapaxes(-1, -2), sa[..., :, None], sb[..., None, :])

    k = cross(xs, xs)
    k = 0.5 * (k + k.swapaxes(-1, -2))
    idx = np.arange(shape[-2])
    s = np.sum(xs * xs, axis=-1)
    k[..., idx, idx] = formula(s, s, s)
    assert np.array_equal(gram(spec, xs), k)
    assert np.array_equal(gram_cross(spec, xs, ys), cross(xs, ys))


@pytest.mark.parametrize("kind", sorted(_KINDS))
@pytest.mark.parametrize("layout", ["strided", "fortran", "fortran-batched"])
def test_gram_is_exactly_symmetric_for_any_input_layout(kind, layout):
    spec = _KINDS[kind]
    rng = np.random.default_rng(9)
    pts = {"strided": lambda: rng.standard_normal((2 * TILE + 77, 3))[::2],
           "fortran": lambda: np.asfortranarray(rng.standard_normal((TILE + 90, 3))),
           "fortran-batched": lambda: np.asfortranarray(rng.standard_normal((2, TILE + 9, 4)))
           }[layout]()
    g = gram(spec, pts)
    assert np.array_equal(g, g.swapaxes(-1, -2))
    assert np.array_equal(np.diagonal(g, axis1=-2, axis2=-1), kernel_diag(spec, pts))


def test_gram_is_symmetric_even_where_the_formed_values_are_not(monkeypatch):
    # skew every formed value by its column within the strip, as a product
    # that rounds <x, y> and <y, x> apart would; the mirror hides it all
    form = kernels._form

    def skewed(spec, ip, sx, sy):
        ip += 1e-3 * np.arange(ip.shape[-1])
        return form(spec, ip, sx, sy)

    pts = np.random.default_rng(4).standard_normal((2, TILE + 40, 3))
    plain = gram(rbf(1.0), pts)
    monkeypatch.setattr(kernels, "_form", skewed)
    g = gram(rbf(1.0), pts)
    assert np.array_equal(g, g.swapaxes(-1, -2))
    assert not np.array_equal(g, plain)  # the skew took


def test_kernel_diag_exact():
    rng = np.random.default_rng(2)
    pts = random_points(rng, 10, 4)
    assert np.array_equal(kernel_diag(rbf(2.0), pts), np.ones(10))
    assert np.allclose(kernel_diag(linear(), pts), np.sum(pts**2, axis=1), rtol=1e-15)
    for spec in (polynomial(3, 0.5, 1.5), power(polynomial(2, 1.0, 0.5), 3), power(rbf(0.7), 2)):
        oracle = [eval_kernel(spec, x, x) for x in pts]
        assert kernel_diag(spec, pts) == pytest.approx(oracle, rel=1e-14)
    # far from the origin |x|^2 + |x|^2 - 2 <x, x> still cancels exactly
    assert np.array_equal(kernel_diag(rbf(1.0), [[1e150, -1e150], [3e150, 0.0]]), np.ones(2))
    # 2 |x|^2 = 1.62e308 is finite, but 4 |x|^2 is not: computing sx + sy
    # after overwriting ip with -2 ip, where ip aliases sx, would overflow
    assert np.array_equal(kernel_diag(rbf(1.0), [[9e153]]), [1.0])
    assert np.array_equal(gram(rbf(1.0), [[9e153]]), [[1.0]])


@pytest.mark.parametrize("spec", [linear(), rbf(1.0), polynomial(2, 1.0, 1.0)],
                         ids=["linear", "rbf", "poly"])
def test_points_whose_doubled_squared_norm_overflows_are_refused(spec):
    x = np.array([[0.5], [1e154]])  # |x|^2 = 1e308 is finite, 2 |x|^2 is not
    for call in (lambda: kernel_diag(spec, x), lambda: gram(spec, x),
                 lambda: gram_cross(spec, x, x[:1]), lambda: gram_cross(spec, x[:1], x)):
        with pytest.raises(ValueError, match=r"points overflow: 2 \|x\|\^2 is not finite"):
            call()
    with pytest.raises(ValueError, match="non-finite coordinates"):
        gram_cross(spec, x[:1], [[np.inf]])


def test_gram_refuses_a_non_finite_k_xx_in_a_stack():
    # |x|^2 = 1e220 is finite, (|x|^2 + 1)^3 is not; the refusal comes before
    # the other entries overflow, which would warn
    stack = np.random.default_rng(8).standard_normal((3, 4, 1))
    stack[2, 1] = 1e110
    spec = polynomial(3, 1.0, 1.0)
    for call in (lambda: gram(spec, stack), lambda: kernel_diag(spec, stack)):
        with pytest.raises(ValueError, match=r"k\(x, x\) = inf is not finite at row \(2, 1\)"):
            call()
    assert np.isfinite(gram(spec, stack[:2])).all()


# --- logdet_psd_stack on one matrix ---------------------------------------

def test_logdet_identity():
    assert logdet_psd_stack(np.eye(3)) == 0.0
    assert type(logdet_psd_stack(np.eye(3))) is np.float64  # write_csv writes its str, a float's repr


def test_logdet_2x2():
    assert logdet_psd_stack([[2.0, 1.0], [1.0, 2.0]]) == pytest.approx(math.log(3.0), rel=1e-14)


def test_logdet_singular_rank_one():
    assert is_log_zero(logdet_psd_stack([[1.0, 1.0], [1.0, 1.0]]))


def test_logdet_order_zero():
    assert logdet_psd_stack(np.zeros((0, 0))) == 0.0


def test_logdet_non_psd_raises():
    with pytest.raises(NotPsdError):
        logdet_psd_stack([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1


def test_logdet_asymmetric_rejected():
    with pytest.raises(ValueError):
        logdet_psd_stack([[1.0, 0.5], [0.4, 1.0]])


def test_logdet_stack_matches_slogdet():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((40, 8, 5))
    g = gram(linear(), x) + 0.05 * np.eye(8)
    mine = logdet_psd_stack(g)
    _, ref = np.linalg.slogdet(g)
    assert np.abs(mine - ref).max() < 1e-10


def test_logdet_stack_singular_members():
    # rank-2 features make every 3x3 Gram singular
    rng = np.random.default_rng(9)
    x = rng.standard_normal((30, 3, 2))
    ld = logdet_psd_stack(gram(linear(), x))
    assert np.all(np.isneginf(ld))


# --- Cholesky-first routing ---------------------------------------------------

def _no_cholesky(a):
    raise np.linalg.LinAlgError("Cholesky switched off")


@pytest.fixture
def pivoted(monkeypatch):
    """logdet_psd_stack with Cholesky switched off, so that every matrix
    takes the pivoted elimination."""

    def run(mats):
        with monkeypatch.context() as m:
            m.setattr(np.linalg, "cholesky", _no_cholesky)
            return logdet_psd_stack(mats)

    return run


@pytest.fixture
def fallback_sizes(monkeypatch):
    """Records how many matrices each call hands to the pivoted elimination."""
    sizes = []
    inner = kernels._logdet_pivoted

    def counted(a):
        sizes.append(a.shape[0])
        return inner(a)

    monkeypatch.setattr(kernels, "_logdet_pivoted", counted)
    return sizes


def _wishart(rng, shape, n):
    # well conditioned, and exactly symmetric, as a matrix product need not be
    x = rng.standard_normal((*shape, n, 3 * n + 2))
    w = x @ x.swapaxes(-1, -2)
    return (w + w.swapaxes(-1, -2)) / 2


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_routed_logdet_matches_the_pivoted_path_on_pd_stacks(n, pivoted, fallback_sizes):
    a = _wishart(np.random.default_rng(40 + n), (300,), n)
    ref = pivoted(a)
    fallback_sizes.clear()
    got = logdet_psd_stack(a)
    assert fallback_sizes == []
    assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(np.abs(ref), 1.0))


def _with_det(rng, n, scale, factor, tol=DEFAULT_PIVOT_TOL):
    # a rotated diag(scale, ..., scale, eps) whose det is about factor * tol * D**n,
    # D its largest diagonal entry
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    top = (q[:, :-1] ** 2).sum(axis=1).max() * scale
    eps = factor * tol * top**n / scale ** (n - 1)
    m = (q * np.r_[np.full(n - 1, scale), eps]) @ q.T
    return (m + m.T) / 2


@pytest.mark.parametrize("n", [2, 4, 6])
def test_routing_keeps_singular_verdicts_near_the_tolerance(n, pivoted, fallback_sizes):
    rng = np.random.default_rng(50 + n)
    factors = (0.5, 2.0, 2e3, 1e12)
    a = np.array([_with_det(rng, n, scale, f) for f in factors for scale in (1e-3, 1.0, 7.0)])
    ref = pivoted(a)
    fallback_sizes.clear()
    got = logdet_psd_stack(a)
    assert np.array_equal(np.isneginf(got), np.isneginf(ref))
    live = ~np.isneginf(ref)
    # condition numbers reach 1e12: the two paths agree to rounding amplified by them
    assert np.allclose(got[live], ref[live], rtol=1e-6, atol=0)
    # the well-conditioned matrices (factor 1e12) certify, and both verdicts occur
    assert sum(fallback_sizes) <= len(a) - 3
    assert np.isneginf(ref).any() and live.any()


# eigenvalues 3 and -1; then a diagonal with no positive entry, so the pivot threshold is 0
@pytest.mark.parametrize("bad", [[[1.0, 2.0], [2.0, 1.0]], [[-1.0, 0.0], [0.0, -2.0]]])
def test_routing_raises_not_psd_on_both_paths(bad, pivoted):
    a = np.stack([np.eye(2), bad, 2 * np.eye(2)])
    with pytest.raises(NotPsdError):
        pivoted(a)
    with pytest.raises(NotPsdError):
        logdet_psd_stack(a)


def test_asymmetric_and_nan_matrices_keep_their_pivoted_values(pivoted, fallback_sizes):
    # the verdict both paths keep for them is a refusal: no Gram of the library
    # is either, since gram mirrors its triangle and refuses a non-finite k(x, x).
    # One such matrix (an inf one too) refuses its whole stack, on both paths
    asym = [[1.0, 0.5], [0.4, 1.0]]
    nan = [[1.0, np.nan], [np.nan, 1.0]]
    inf = [[1.0, np.inf], [np.inf, 1.0]]
    for bad, match in ((asym, "not symmetric"), (nan, "non-finite"), (inf, "non-finite")):
        a = np.stack([np.eye(2), bad, [[2.0, 1.0], [1.0, 2.0]]])
        for run in (logdet_psd_stack, pivoted):
            with pytest.raises(ValueError, match=match):
                run(a)
    assert fallback_sizes == []


def test_one_singular_matrix_inside_a_pd_stack(pivoted, fallback_sizes):
    a = _wishart(np.random.default_rng(60), (20,), 4)
    a[7] = np.ones((4, 4))  # Cholesky fails on it, and so on any batch holding it
    ref = pivoted(a)
    fallback_sizes.clear()
    got = logdet_psd_stack(a)
    assert fallback_sizes == [1]
    assert np.isneginf(got[7]) and np.isneginf(ref[7])
    assert np.isneginf(got).sum() == 1
    assert np.allclose(got, ref, rtol=1e-12, atol=0)
    # each value is the one its matrix gets alone, whatever shares its stack
    assert np.array_equal(got, [logdet_psd_stack(m) for m in a])


@pytest.mark.parametrize("n", [0, 1, 3])
def test_routing_keeps_batch_shapes(n, pivoted):
    a = _wishart(np.random.default_rng(70 + n), (2, 3), n)
    got = logdet_psd_stack(a)
    assert got.shape == (2, 3)
    assert np.allclose(got, pivoted(a), rtol=1e-12, atol=0)
    assert logdet_psd_stack(a[0, 0]).shape == ()
    if n == 0:
        assert np.array_equal(got, np.zeros((2, 3)))


def test_routing_reads_a_strided_stack_in_place(pivoted):
    # the Monte Carlo subset stacks arrive with the batch axis innermost
    g = _wishart(np.random.default_rng(80), (50,), 6)
    idx = np.array([[0, 1, 2], [1, 3, 5], [0, 4, 5]])
    sub = g[:, idx[:, :, None], idx[:, None, :]]
    assert not sub.flags.c_contiguous
    got = logdet_psd_stack(sub)
    assert np.allclose(got, pivoted(np.ascontiguousarray(sub)), rtol=1e-12, atol=0)


# --- spec-level inequalities ------------------------------------------------

def test_hadamard_bound():
    rng = np.random.default_rng(13)
    for _ in range(50):
        pts = random_points(rng, rng.integers(1, 7), rng.integers(1, 4))
        g = gram(rbf(1.0), pts)
        ld = logdet_psd_stack(g)
        if not is_log_zero(ld):
            assert ld <= np.sum(np.log(np.diag(g))) + 1e-9


def test_hadamard_product_bound():
    # det(A o B) >= det(A) det(B) for PSD A, B; relative tolerance 1e-9
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        a = gram(rbf(1.0), random_points(rng, n, 3))
        b = gram(polynomial(2, 1.0, 0.3), random_points(rng, n, 3))
        lhs = logdet_psd_stack(a * b)
        rhs = logdet_psd_stack(a) + logdet_psd_stack(b)
        if is_log_zero(rhs):
            continue
        assert lhs >= rhs - 1e-9 * max(1.0, abs(rhs))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_cover_thomas_inequality(k, alpha):
    # normalized (k+1)-point determinant vs mean over its k-point principal minors
    rng = np.random.default_rng(100 + k)
    for _ in range(20):
        pts = random_points(rng, k + 1, k + 1)
        g = gram(linear(), pts)
        det_full = math.exp(logdet_psd_stack(g)) if not is_log_zero(logdet_psd_stack(g)) else 0.0
        lhs = (det_full / alpha ** (k + 1)) ** (1.0 / (k + 1))
        subs = []
        for drop in range(k + 1):
            keep = [i for i in range(k + 1) if i != drop]
            sub = g[np.ix_(keep, keep)]
            ld = logdet_psd_stack(sub)
            det = 0.0 if is_log_zero(ld) else math.exp(ld)
            subs.append((det / alpha**k) ** (1.0 / k))
        assert lhs <= np.mean(subs) + 1e-9


# --- serialization ----------------------------------------------------------

def test_kernel_text_round_trip():
    for spec in (
        linear(),
        rbf(1.5),
        polynomial(3, 0.25, 2.0),
        power(rbf(0.5), 2),
        power(polynomial(2, 1.0, 1.0), 3),
    ):
        assert KernelSpec.from_text(spec.to_text()) == spec


def test_kernel_parse_examples():
    assert KernelSpec.from_text("linear") == linear()
    assert KernelSpec.from_text("rbf:1.0") == rbf(1.0)
    assert KernelSpec.from_text("poly:2:1.0:1.0") == polynomial(2, 1.0, 1.0)
    assert KernelSpec.from_text("pow:2:rbf:1.0") == power(rbf(1.0), 2)


def test_kernel_parse_failures():
    for bad in ("", "gauss:1", "rbf", "rbf:-1", "poly:0:1:1", "pow:2", "pow:0:linear",
                "rbf:inf", "poly:2:inf:1", "poly:2:nan:1", "poly:2:1:inf"):
        with pytest.raises(ValueError):
            KernelSpec.from_text(bad)
