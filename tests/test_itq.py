import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transferhash import itq
from transferhash.codes import BinaryCodeMatrix, sgn
from transferhash.errors import NumericalError
from transferhash.itq import (
    DEFAULT_STEP_ITERS,
    _polar,
    balanced_signs,
    gram_bound,
    itq_train,
    procrustes,
    quantization_loss,
    random_orthonormal,
)


def is_orthonormal(r, tol: float = 1e-8) -> bool:
    r = np.asarray(r)
    gram = r.T @ r
    return bool(np.linalg.norm(gram - np.eye(r.shape[1])) <= tol)


def frob_objective(x, r, a):
    return float(np.sum((x @ r - a) ** 2))


def test_procrustes_identity_minimizer():
    x = random_orthonormal(10, 3, 0)  # orthonormal columns
    r = procrustes(x, x)
    assert np.abs(r - np.eye(3)).max() < 1e-10


def test_procrustes_exact_fit_square():
    q = random_orthonormal(4, 4, 1)
    r = procrustes(q, np.eye(4))
    assert np.abs(r - q).max() < 1e-10


def test_procrustes_orthonormal_output():
    rng = np.random.default_rng(2)
    r = procrustes(rng.standard_normal((20, 3)), rng.standard_normal((20, 7)))
    assert is_orthonormal(r, 1e-8)


def test_procrustes_beats_random_candidates():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((6, 3))
    a = rng.standard_normal((6, 2))
    r = procrustes(a, x)
    best = frob_objective(x, r, a)
    for i in range(1000):
        q = random_orthonormal(3, 2, 100 + i)
        assert best <= frob_objective(x, q, a) + 1e-9


def test_procrustes_local_optimality_under_perturbation():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((30, 5))
    a = rng.standard_normal((30, 3))
    r = procrustes(a, x)
    best = frob_objective(x, r, a)
    for i in range(200):
        g = np.random.default_rng(i).standard_normal((5, 5))
        near_identity, rr = np.linalg.qr(np.eye(5) + 1e-3 * g)
        near_identity *= np.where(np.diag(rr) >= 0, 1.0, -1.0)
        assert best <= frob_objective(x, near_identity @ r, a) + 1e-9


def test_procrustes_warm_start_never_worse():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((25, 6))
    a = rng.standard_normal((25, 4))
    for i in range(20):
        r0 = random_orthonormal(6, 4, 1000 + i)
        r = procrustes(a, x, r0)
        assert frob_objective(x, r, a) <= frob_objective(x, r0, a)


def test_procrustes_shape_errors():
    rng = np.random.default_rng(6)
    with pytest.raises(ValueError):
        procrustes(rng.standard_normal((5, 4)), rng.standard_normal((5, 3)))
    with pytest.raises(Exception):
        procrustes(np.array([[np.nan]]), np.array([[1.0]]))


@pytest.mark.parametrize("shape", [(6, 3), (5, 2), (2, 6), (12,)])
def test_procrustes_rejects_a_warm_start_of_the_wrong_shape(shape):
    rng = np.random.default_rng(6)
    with pytest.raises(ValueError):
        procrustes(rng.standard_normal((9, 2)), rng.standard_normal((9, 6)), np.zeros(shape))


@pytest.mark.parametrize("d", [2, 6])  # square and tall
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_procrustes_rejects_a_non_finite_warm_start(d, bad):
    rng = np.random.default_rng(6)
    r0 = random_orthonormal(d, 2, 0)
    r0[0, 0] = bad
    with pytest.raises(NumericalError):
        procrustes(rng.standard_normal((9, 2)), rng.standard_normal((9, d)), r0)


@pytest.mark.parametrize("d", [3, 6])  # square and tall
def test_procrustes_rejects_a_warm_start_that_is_not_orthonormal(d):
    # the least-squares start of a 30 x 6 view scores lower than every MM
    # step within 5, so without the check it came back as the "rotation"
    rng = np.random.default_rng(0)
    x = rng.standard_normal((30, d))
    a = sgn(rng.standard_normal((30, 3))).astype(float)
    r0 = np.linalg.lstsq(x, a, rcond=None)[0]
    assert not is_orthonormal(r0)
    with pytest.raises(ValueError, match="orthonormal"):
        procrustes(a, x, r0, max_iter=5)


def test_procrustes_starts_from_the_warm_start_alone():
    # a pinned tall case where the closed form scores lower than the warm start
    rng = np.random.default_rng(11)
    x = rng.standard_normal((30, 6))
    a = sgn(rng.standard_normal((30, 2))).astype(float)
    r0 = random_orthonormal(6, 2, 3)
    assert frob_objective(x, svd_polar(x.T @ a), a) < frob_objective(x, r0, a)
    r = procrustes(a, x, r0, max_iter=0)
    assert np.array_equal(r, r0)


def test_procrustes_builds_one_polar_factor_per_mm_step(monkeypatch):
    rng = np.random.default_rng(12)
    x = rng.standard_normal((40, 8))
    a = sgn(rng.standard_normal((40, 3))).astype(float)
    calls = []

    def counting_polar(w):
        calls.append(w.shape)
        return _polar(w)

    monkeypatch.setattr(itq, "_polar", counting_polar)
    for steps in (0, 1, DEFAULT_STEP_ITERS):
        calls.clear()
        procrustes(a, x, random_orthonormal(8, 3, steps), max_iter=steps, tol=0.0)
        assert len(calls) == steps
    calls.clear()
    procrustes(a, x, max_iter=2, tol=0.0)  # no warm start: the closed form too
    assert len(calls) == 3


def svd_polar(w):
    u, _, vt = np.linalg.svd(w, full_matrices=False)
    return u @ vt


@st.composite
def polar_inputs(draw):
    """A d x c matrix U diag(s) V^T with c <= d <= 64 and a chosen spectrum."""
    d = draw(st.integers(1, 64))
    c = draw(st.integers(1, d))
    kind = draw(st.sampled_from(["near", "ill", "deficient", "zero"]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if kind == "near":  # the procrustes loop's inputs: condition ~1.02
        s = 1.0 + draw(st.floats(0.0, 0.3)) * rng.uniform(-1.0, 1.0, c)
    elif kind == "ill":  # closed-form starts: condition up to ~5e3
        s = np.geomspace(1.0, 10.0 ** -draw(st.floats(0.0, 4.0)), c)
    elif kind == "deficient":
        s = rng.uniform(0.5, 2.0, c)
        s[rng.permutation(c)[:draw(st.integers(1, c))]] = 0.0
    else:
        s = np.zeros(c)
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    w = (random_orthonormal(d, c, seed) * (scale * s)) @ random_orthonormal(c, c, seed + 1).T
    return w, kind


@settings(max_examples=300, deadline=None)
@given(case=polar_inputs())
def test_polar_orthonormal_and_equal_to_svd_factor(case):
    w, kind = case
    r = _polar(w)
    assert r.shape == w.shape
    assert np.abs(r.T @ r - np.eye(w.shape[1])).max() <= 1e-12
    if kind in ("near", "ill"):
        assert np.abs(r - svd_polar(w)).max() <= 1e-12


def reference_procrustes(a, x, r0, steps, tol=1e-13):
    """The MM loop with an SVD polar factor and the direct ||X R - A||^2."""
    def f(r):
        return float(np.sum((x @ r - a) ** 2))
    cross, gram = x.T @ a, x.T @ x
    mu = np.linalg.eigvalsh(gram)[-1]
    best = r = svd_polar(cross) if r0 is None else r0
    f_cur = f_best = f(r)
    for _ in range(steps):
        r = svd_polar(cross + mu * r - gram @ r)
        f_new = f(r)
        if f_new < f_best:
            best, f_best = r, f_new
        if abs(f_cur - f_new) <= tol * max(abs(f_cur), 1.0):
            break
        f_cur = f_new
    return best


@pytest.mark.parametrize("d", [64, 40])
def test_procrustes_matches_reference_mm_loop(d):
    rng = np.random.default_rng(d)
    z = rng.standard_normal((1000, 8))
    x = z @ rng.standard_normal((8, d)) + 0.5 * rng.standard_normal((1000, d))
    x -= x.mean(0)
    r0 = random_orthonormal(d, 32, 0)
    for _ in range(3):  # warm start from the previous sweep, as trainers do
        a = sgn(x @ r0).astype(float)
        r = procrustes(a, x, r0, max_iter=DEFAULT_STEP_ITERS)
        expected = reference_procrustes(a, x, r0, DEFAULT_STEP_ITERS)
        assert np.abs(r - expected).max() <= 1e-11
        r0 = r
    # short runs from random starts: r0 is the start, the objective picks the best step
    for seed in range(10):
        a = sgn(x @ random_orthonormal(d, 32, 100 + seed)).astype(float)
        r0 = random_orthonormal(d, 32, seed)
        for steps in (0, 1):
            r = procrustes(a, x, r0, max_iter=steps)
            assert np.abs(r - reference_procrustes(a, x, r0, steps)).max() <= 1e-11


@st.composite
def procrustes_inputs(draw):
    """(A, X, r0) with a d x c orthonormal r0: square (d == c) or tall (d > c)."""
    shape = draw(st.sampled_from(["square", "tall"]))
    d = draw(st.integers(1 if shape == "square" else 2, 12))
    c = d if shape == "square" else draw(st.integers(1, d - 1))
    n = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d)) * 10.0 ** draw(st.floats(-2.0, 2.0))
    a = sgn(rng.standard_normal((n, c))).astype(float)
    return a, x, random_orthonormal(d, c, seed)


@settings(max_examples=200, deadline=None)
@given(case=procrustes_inputs(), warm=st.booleans(),
       steps=st.sampled_from([0, 1, DEFAULT_STEP_ITERS, 60]))
def test_procrustes_with_precomputed_gram_is_bit_identical(case, warm, steps):
    a, x, r0 = case
    r0 = r0 if warm else None
    expected = procrustes(a, x, r0, max_iter=steps)
    assert np.array_equal(procrustes(a, x, r0, max_iter=steps, gram=gram_bound(x)),
                          expected)


@settings(max_examples=200, deadline=None)
@given(case=procrustes_inputs(), steps=st.sampled_from([0, 1, DEFAULT_STEP_ITERS]))
def test_procrustes_never_worse_than_warm_start(case, steps):
    a, x, r0 = case
    r = procrustes(a, x, r0, max_iter=steps)
    assert is_orthonormal(r)
    # procrustes compares candidates in Gram form, so allow its rounding
    slack = 1e-12 * (float(np.sum(a * a)) + float(np.sum(x * x)) * a.shape[1])
    assert frob_objective(x, r, a) <= frob_objective(x, r0, a) + slack


def test_procrustes_zero_cross_term():
    x = np.random.default_rng(9).standard_normal((10, 5))
    zero_a = np.zeros((10, 2))
    # square R: ||X R||^2 is fixed, every R scores the same, r0 is kept
    square = random_orthonormal(5, 5, 0)
    assert procrustes(np.zeros((10, 5)), x, square) is square
    # tall R: <R, G R> still varies, so the loop descends from r0
    r0 = random_orthonormal(5, 2, 0)
    r = procrustes(zero_a, x, r0, max_iter=DEFAULT_STEP_ITERS)
    assert is_orthonormal(r)
    assert frob_objective(x, r, zero_a) < frob_objective(x, r0, zero_a)
    # zero data: the objective is flat and the warm start wins the tie
    assert procrustes(np.ones((10, 2)), np.zeros((10, 5)), r0) is r0


def test_quantization_loss_zero_case():
    rng = np.random.default_rng(7)
    signs = sgn(rng.standard_normal((12, 4)))
    r = random_orthonormal(4, 4, 0)
    x = signs.astype(float) @ r.T
    codes = BinaryCodeMatrix(sgn(x @ r))
    assert quantization_loss(codes, x, r) < 1e-18


def test_quantization_loss_all_ones_vs_zero():
    codes = BinaryCodeMatrix(np.ones((5, 3), dtype=np.int8))
    assert quantization_loss(codes, np.zeros((5, 4)), np.eye(4)[:, :3]) == 15.0


def test_quantization_loss_matches_double_loop():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((9, 5))
    r = random_orthonormal(5, 3, 1)
    codes = BinaryCodeMatrix(sgn(rng.standard_normal((9, 3))))
    xr = x @ r
    expected = 0.0
    for i in range(9):
        for j in range(3):
            expected += (codes.signs[i, j] - xr[i, j]) ** 2
    assert abs(quantization_loss(codes, x, r) - expected) < 1e-12


def test_quantization_loss_shape_mismatch():
    with pytest.raises(ValueError):
        quantization_loss(BinaryCodeMatrix(np.ones((3, 2), dtype=np.int8)),
                          np.zeros((4, 2)), np.eye(2))


def test_random_orthonormal_one_by_one():
    values = {float(random_orthonormal(1, 1, seed)[0, 0]) for seed in range(10)}
    assert values <= {1.0, -1.0}


def test_random_orthonormal_orthonormality_and_seeds():
    for seed in range(5):
        r = random_orthonormal(9, 4, seed)
        assert np.abs(r.T @ r - np.eye(4)).max() < 1e-10
    assert np.linalg.norm(random_orthonormal(9, 4, 0) - random_orthonormal(9, 4, 1)) > 0
    assert np.array_equal(random_orthonormal(9, 4, 2), random_orthonormal(9, 4, 2))
    with pytest.raises(ValueError):
        random_orthonormal(3, 4, 0)


def test_itq_train_vertex_fixed_point():
    rng = np.random.default_rng(9)
    x = sgn(rng.standard_normal((40, 5))).astype(float)
    codes, rotation, losses = itq_train(x, 5, iters=3, seed=0, r0=np.eye(5))
    assert losses[0] < 1e-18
    assert np.array_equal(codes.signs, sgn(x))


def test_itq_train_monotone_loss():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((200, 12)); x -= x.mean(0)
    _, _, losses = itq_train(x, 8, iters=60, seed=0, tol=0)
    assert len(losses) == 60
    assert np.all(np.diff(losses) <= 1e-9)


def test_itq_train_seed_behavior():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((500, 16)); x -= x.mean(0)
    codes_a, _, losses_a = itq_train(x, 16, iters=40, seed=0)
    codes_b, _, _ = itq_train(x, 16, iters=40, seed=0)
    assert np.array_equal(codes_a.signs, codes_b.signs)
    _, _, losses_c = itq_train(x, 16, iters=40, seed=1)
    assert abs(losses_c[-1] - losses_a[-1]) <= 0.05 * losses_a[-1]


def test_itq_train_b_step_single_flip_optimal():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((25, 6)); x -= x.mean(0)
    codes, rotation, _ = itq_train(x, 4, iters=15, seed=3)
    base = quantization_loss(codes, x, rotation)
    for i in range(codes.rows):
        for j in range(codes.bits):
            flipped = codes.signs.copy()
            flipped[i, j] = -flipped[i, j]
            assert quantization_loss(BinaryCodeMatrix(flipped), x, rotation) >= base - 1e-9


def test_itq_train_dimension_error():
    with pytest.raises(ValueError):
        itq_train(np.zeros((10, 3)), 4, iters=1, seed=0)


def least_squares_start(x, c):
    """argmin ||X R - sgn(X)[:, :c]|| over all d x c R: not orthonormal."""
    return np.linalg.lstsq(x, sgn(x[:, :c]).astype(float), rcond=None)[0]


@pytest.mark.parametrize("start", ["wrong width", "wrong height", "nan", "inf",
                                   "least squares"])
def test_itq_train_rejects_a_bad_starting_rotation(start):
    rng = np.random.default_rng(14)
    x = rng.standard_normal((30, 6)); x -= x.mean(0)
    r0 = {"wrong width": np.eye(6)[:, :2], "wrong height": np.eye(5)[:, :3],
          "nan": np.full((6, 3), np.nan), "inf": np.where(np.eye(6)[:, :3], np.inf, 0.0),
          "least squares": least_squares_start(x, 3)}[start]
    with pytest.raises(ValueError):
        itq_train(x, 3, iters=1, r0=r0)


def test_balanced_signs_column_sums():
    rng = np.random.default_rng(13)
    for n in (2, 3, 8, 9):
        signs = balanced_signs(rng.standard_normal((n, 5)))
        sums = signs.sum(axis=0)
        assert np.all(np.abs(sums) == (n % 2))
