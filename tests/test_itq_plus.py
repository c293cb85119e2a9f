import re
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transferhash.codes import BinaryCodeMatrix, sgn
from transferhash.errors import NumericalError
from transferhash.itq import (
    balanced_signs,
    gram_bound,
    itq_train,
    procrustes,
    random_orthonormal,
)
from transferhash.itq_plus import (
    blend_scores,
    itq_plus_objective,
    itq_plus_train,
    update_b_balanced,
    update_p,
    update_r,
)
from transferhash.lap_itq_plus import lap_itq_plus_train


def two_view_instance(n=200, d_t=16, d_s=12, seed=0, latent=6, noise=0.3):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, latent))
    x_t = z @ rng.standard_normal((latent, d_t)) + noise * rng.standard_normal((n, d_t))
    x_s = z @ rng.standard_normal((latent, d_s)) + noise * rng.standard_normal((n, d_s))
    return x_t - x_t.mean(0), x_s - x_s.mean(0)


def brute_force_balanced(scores):
    """Exhaustive search over balanced sign matrices, column by column."""
    n, c = scores.shape
    positives = (n + 1) // 2
    out = np.empty((n, c), dtype=np.int8)
    for j in range(c):
        best_val, best_set = -np.inf, None
        for chosen in combinations(range(n), positives):
            val = scores[list(chosen), j].sum()
            if val > best_val:
                best_val, best_set = val, chosen
        column = np.full(n, -1, dtype=np.int8)
        column[list(best_set)] = 1
        out[:, j] = column
    return out


def test_objective_reduces_to_quantization_loss():
    x_t, x_s = two_view_instance(40, 8, 6, seed=1)
    r = random_orthonormal(8, 4, 0)
    p = random_orthonormal(6, 4, 1)
    codes = BinaryCodeMatrix(sgn(x_t @ r))
    assert itq_plus_objective(codes, r, p, x_t, x_s, 0.0) == pytest.approx(
        float(np.sum((codes.signs - x_t @ r) ** 2)), abs=1e-12)


def test_objective_zero_slack_residual():
    # construct x_t so the error matrix equals the slack image exactly;
    # the lambda1 term then vanishes for every lambda1
    x_s = 2.0 * random_orthonormal(30, 5, 3)
    q = random_orthonormal(5, 3, 4)
    slack_image = x_s @ q
    r = random_orthonormal(3, 3, 5)
    signs = sgn(np.random.default_rng(2).standard_normal((30, 3)))
    x_t = (signs - slack_image) @ r.T  # square r, so x_t @ r = B - slack image
    codes = BinaryCodeMatrix(signs)
    err_sq = float(np.sum(slack_image * slack_image))
    for lam in (0.0, 0.3, 7.0):
        assert itq_plus_objective(codes, r, q, x_t, x_s, lam) == pytest.approx(err_sq, rel=1e-10)


def test_objective_matches_direct_summation():
    x_t, x_s = two_view_instance(9, 5, 4, seed=3)
    r = random_orthonormal(5, 3, 0)
    p = random_orthonormal(4, 3, 1)
    codes = BinaryCodeMatrix(sgn(np.random.default_rng(4).standard_normal((9, 3))))
    lam = 0.37
    err = codes.signs - x_t @ r
    slack = err - x_s @ p
    expected = 0.0
    for i in range(9):
        for j in range(3):
            expected += err[i, j] ** 2 + lam * slack[i, j] ** 2
    assert itq_plus_objective(codes, r, p, x_t, x_s, lam) == pytest.approx(expected, rel=1e-12)


def test_update_b_balanced_four_rows():
    scores = np.array([[3.0], [-1.0], [2.0], [-5.0]])
    result = update_b_balanced(scores)
    assert np.array_equal(result.signs[:, 0], [1, -1, 1, -1])
    assert np.array_equal(result.signs, brute_force_balanced(scores))


def test_update_b_balanced_tie_breaks_by_index():
    result = update_b_balanced(np.zeros((2, 1)))
    assert np.array_equal(result.signs[:, 0], [1, -1])


def test_update_b_balanced_odd_rows():
    scores = np.array([[5.0], [4.0], [-9.0]])
    result = update_b_balanced(scores)
    assert np.array_equal(result.signs[:, 0], [1, 1, -1])
    assert result.signs[:, 0].sum() == 1
    assert np.array_equal(result.signs, brute_force_balanced(scores))


def balanced_signs_by_sort(scores) -> np.ndarray:
    """balanced_signs as it was when it stable-argsorted every score column."""
    scores = np.asarray(scores, dtype=np.float64)
    n, c = scores.shape
    positives = (n + 1) // 2
    order = np.argsort(-scores, axis=0, kind="stable")
    signs = np.full((n, c), -1, dtype=np.int8)
    cols = np.arange(c)
    signs[order[:positives], cols] = 1
    return signs


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_update_b_balanced_properties(data):
    # large cases run np.partition's introselect past its small-array path
    large = data.draw(st.booleans(), label="large")
    n = data.draw(st.integers(61, 2000) if large else st.integers(2, 60), label="rows")
    c = 32 if large else data.draw(st.integers(1, 70), label="code length")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    # a few distinct values, signed zeros and infinities among them, so most
    # scores tie; or about n of them, so few do
    pool = np.concatenate(([0.0, -0.0, np.inf, -np.inf], rng.standard_normal(
        data.draw(st.integers(0, 3) | st.just(n), label="finite nonzero values"))))
    scores = rng.choice(pool, (n, c))
    signs = update_b_balanced(scores).signs
    sums = signs.sum(axis=0, dtype=np.int64)
    assert np.abs(sums).max() <= 1
    if n % 2 == 0:
        assert not sums.any()
    # +1 goes to the ceil(n/2) first rows by descending score, then ascending index
    for j in range(c):
        order = np.lexsort((np.arange(n), -scores[:, j]))
        expected = np.full(n, -1)
        expected[order[:(n + 1) // 2]] = 1
        assert np.array_equal(signs[:, j], expected)
    assert np.array_equal(signs, balanced_signs(scores))
    assert np.array_equal(signs, balanced_signs_by_sort(scores))


def test_balanced_signs_rejects_a_nan_score():
    scores = np.zeros((4, 2))
    scores[3, 1] = np.nan
    with pytest.raises(NumericalError, match="NaN"):
        balanced_signs(scores)


@pytest.mark.parametrize("shape", [(), (5,), (2, 3, 4)])
def test_balanced_signs_rejects_scores_that_are_not_a_matrix(shape):
    with pytest.raises(ValueError, match=rf"shape {re.escape(str(shape))}"):
        balanced_signs(np.ones(shape))


@pytest.mark.parametrize("c", [0, 3])
def test_balanced_signs_of_no_rows_is_empty(c):
    signs = balanced_signs(np.empty((0, c)))
    assert signs.shape == (0, c) and signs.dtype == np.int8


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_lambda_raises_value_error(value):
    x_t, x_s = two_view_instance(n=20, d_t=6, d_s=5, seed=9)
    codes = BinaryCodeMatrix(sgn(x_t[:, :3]))
    with pytest.raises(ValueError, match="finite"):
        itq_plus_train(x_t, x_s, 3, value, iters=2)
    with pytest.raises(ValueError, match="finite"):
        update_r(codes, x_t, x_s, random_orthonormal(5, 3, 0), value,
                 gram=gram_bound(x_t))


@pytest.mark.parametrize("n", [4, 6, 8])
@pytest.mark.parametrize("c", [1, 2])
def test_update_b_balanced_brute_force(n, c):
    rng = np.random.default_rng(n * 10 + c)
    for _ in range(25):
        scores = rng.standard_normal((n, c))
        assert np.array_equal(update_b_balanced(scores).signs,
                              brute_force_balanced(scores))


def test_update_b_balanced_needs_two_rows():
    with pytest.raises(ValueError):
        update_b_balanced(np.ones((1, 2)))


def test_update_r_reduces_to_plain_procrustes():
    from transferhash.itq import DEFAULT_STEP_ITERS

    x_t, x_s = two_view_instance(30, 7, 5, seed=5)
    p = random_orthonormal(5, 3, 2)
    codes = BinaryCodeMatrix(sgn(np.random.default_rng(6).standard_normal((30, 3))))
    plain = procrustes(codes.signs.astype(float), x_t, max_iter=DEFAULT_STEP_ITERS)
    gram = gram_bound(x_t)
    assert np.array_equal(update_r(codes, x_t, x_s, p, 0.0, gram=gram), plain)
    # vanishing slack image behaves like lambda1 = 0
    zero_side = np.zeros_like(x_s)
    assert np.array_equal(update_r(codes, x_t, zero_side, p, 3.0, gram=gram), plain)


def test_update_r_decreases_objective():
    x_t, x_s = two_view_instance(60, 9, 7, seed=7)
    lam = 0.2
    codes = BinaryCodeMatrix(sgn(np.random.default_rng(8).standard_normal((60, 4))))
    p = random_orthonormal(7, 4, 3)
    r_old = random_orthonormal(9, 4, 4)
    before = itq_plus_objective(codes, r_old, p, x_t, x_s, lam)
    r_new = update_r(codes, x_t, x_s, p, lam, previous=r_old, gram=gram_bound(x_t))
    after = itq_plus_objective(codes, r_new, p, x_t, x_s, lam)
    assert after <= before + 1e-9


def test_update_p_exact_recovery():
    x_s = random_orthonormal(40, 6, 9)  # orthonormal columns
    q = random_orthonormal(6, 3, 10)
    r = random_orthonormal(8, 3, 11)
    x_t = np.random.default_rng(12).standard_normal((40, 8))
    signs = sgn(x_t @ r + x_s @ q)
    x_t = (signs - x_s @ q) @ r.T  # makes B - X_t R equal X_s Q exactly
    p = update_p(BinaryCodeMatrix(signs), x_t, r, x_s, gram=gram_bound(x_s))
    assert np.abs(p - q).max() < 1e-8


def test_update_p_decreases_slack_term():
    x_t, x_s = two_view_instance(50, 8, 6, seed=13)
    codes = BinaryCodeMatrix(sgn(np.random.default_rng(14).standard_normal((50, 4))))
    r = random_orthonormal(8, 4, 5)
    p_old = random_orthonormal(6, 4, 6)
    err = codes.signs - x_t @ r
    before = float(np.sum((err - x_s @ p_old) ** 2))
    p_new = update_p(codes, x_t, r, x_s, previous=p_old, gram=gram_bound(x_s))
    after = float(np.sum((err - x_s @ p_new) ** 2))
    assert after <= before + 1e-9


def test_update_p_beats_random_candidates():
    x_t, x_s = two_view_instance(25, 7, 5, seed=15)
    codes = BinaryCodeMatrix(sgn(np.random.default_rng(16).standard_normal((25, 3))))
    r = random_orthonormal(7, 3, 7)
    err = codes.signs - x_t @ r
    p = update_p(codes, x_t, r, x_s, gram=gram_bound(x_s))
    best = float(np.sum((err - x_s @ p) ** 2))
    for i in range(1000):
        cand = random_orthonormal(5, 3, 2000 + i)
        assert best <= float(np.sum((err - x_s @ cand) ** 2)) + 1e-9


def test_update_p_degenerate_keeps_previous():
    x_t = np.zeros((10, 4))
    x_s = np.zeros((10, 4))
    codes = BinaryCodeMatrix(np.ones((10, 2), dtype=np.int8))
    prev = random_orthonormal(4, 2, 0)
    assert update_p(codes, x_t, np.eye(4)[:, :2], x_s, previous=prev,
                    gram=gram_bound(x_s)) is prev


def test_update_p_dimension_error():
    x_t, x_s = two_view_instance(10, 6, 2, seed=17)
    codes = BinaryCodeMatrix(np.ones((10, 4), dtype=np.int8))
    with pytest.raises(ValueError):
        update_p(codes, x_t, random_orthonormal(6, 4, 0), x_s, gram=gram_bound(x_s))


def test_train_lambda_zero_matches_balanced_itq():
    x_t, x_s = two_view_instance(80, 10, 8, seed=18)
    for seed in (0, 1):
        codes_itq, rot_itq, losses = itq_train(x_t, 6, iters=30, seed=seed,
                                               tol=0, balanced=True)
        _, state = itq_plus_train(x_t, x_s, 6, 0.0, iters=30, seed=seed, tol=0)
        assert np.array_equal(codes_itq.signs, state.codes.signs)
        assert np.array_equal(rot_itq, state.rotation)
        assert state.objective_trace[-1] == pytest.approx(losses[-1], abs=1e-9)


def test_train_trace_monotone():
    x_t, x_s = two_view_instance(200, 16, 12, seed=19)
    _, state = itq_plus_train(x_t, x_s, 8, 0.01, iters=60, seed=0, tol=0)
    trace = np.array(state.objective_trace)
    assert len(trace) == 60
    assert np.all(np.diff(trace) <= 1e-9)


@st.composite
def two_view_fits(draw):
    """A generated two-view instance, code length, lambda1 and seed, plus
    lapitq+'s lambda2, neighbor count and extra source rows (maybe none)."""
    d_t, d_s = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    c = draw(st.integers(1, min(d_t, d_s)))
    n = draw(st.integers(2, 60))
    x_t, x_s = two_view_instance(n, d_t, d_s,
                                 seed=draw(st.integers(0, 2**32 - 1)),
                                 latent=draw(st.integers(1, 6)),
                                 noise=draw(st.floats(0.0, 2.0)))
    extra = draw(st.integers(0, 30))
    x_su = (np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((extra, d_s))
            if extra else None)
    lap = draw(st.floats(0.0, 2.0)), draw(st.integers(1, n - 1)), x_su
    return x_t, x_s, c, draw(st.floats(0.0, 2.0)), draw(st.integers(0, 1000)), lap


@settings(max_examples=60, deadline=None)
@given(case=two_view_fits())
def test_itq_and_itq_plus_traces_never_rise(case):
    x_t, x_s, c, lam, seed, (lambda2, k, x_su) = case
    _, _, losses = itq_train(x_t, c, iters=8, seed=seed, tol=0)
    assert np.all(np.diff(losses) <= 1e-9)
    _, state = itq_plus_train(x_t, x_s, c, lam, iters=8, seed=seed, tol=0)
    assert np.all(np.diff(state.objective_trace) <= 1e-9)
    _, state = lap_itq_plus_train(x_t, x_s, x_su, c, lam, lambda2, k, iters=8,
                                  seed=seed, tol=0)
    assert np.all(np.diff(state.objective_trace) <= 1e-9)


def test_fit_builds_each_gram_once(monkeypatch):
    # X_t and X_sc are fixed for the fit: one eigvalsh per view, not per sweep
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def counting(m, *args, **kwargs):
        shapes.append(m.shape)
        return eigvalsh(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    x_t, x_s = two_view_instance(120, 14, 11, seed=23)
    _, state = itq_plus_train(x_t, x_s, 6, 0.1, iters=7, seed=0, tol=0)
    assert len(state.objective_trace) == 7
    assert sorted(shapes) == [(11, 11), (14, 14)]
    shapes.clear()
    _, _, losses = itq_train(x_t, 6, iters=7, seed=0, tol=0)
    assert len(losses) == 7 and shapes == [(14, 14)]


def test_train_deterministic_per_seed():
    x_t, x_s = two_view_instance(100, 12, 10, seed=20)
    _, state_a = itq_plus_train(x_t, x_s, 8, 0.05, iters=25, seed=4)
    _, state_b = itq_plus_train(x_t, x_s, 8, 0.05, iters=25, seed=4)
    assert np.array_equal(state_a.codes.signs, state_b.codes.signs)
    assert np.array_equal(state_a.rotation, state_b.rotation)


def test_train_per_block_monotonicity():
    x_t, x_s = two_view_instance(120, 14, 11, seed=21)
    lam = 0.1
    rotation = random_orthonormal(14, 6, 0)
    slack_rot = random_orthonormal(11, 6, 0)
    previous = None
    gram_t, gram_sc = gram_bound(x_t), gram_bound(x_s)
    for _ in range(25):
        scores = blend_scores(x_t, rotation, x_s, slack_rot, lam)
        codes = update_b_balanced(scores)
        if previous is not None:
            before = itq_plus_objective(previous, rotation, slack_rot, x_t, x_s, lam)
            after = itq_plus_objective(codes, rotation, slack_rot, x_t, x_s, lam)
            assert after <= before + 1e-9
        mid0 = itq_plus_objective(codes, rotation, slack_rot, x_t, x_s, lam)
        rotation = update_r(codes, x_t, x_s, slack_rot, lam, previous=rotation,
                            gram=gram_t)
        mid1 = itq_plus_objective(codes, rotation, slack_rot, x_t, x_s, lam)
        assert mid1 <= mid0 + 1e-9
        slack_rot = update_p(codes, x_t, rotation, x_s, previous=slack_rot,
                             gram=gram_sc)
        mid2 = itq_plus_objective(codes, rotation, slack_rot, x_t, x_s, lam)
        assert mid2 <= mid1 + 1e-9
        previous = codes


def test_train_codes_balanced():
    x_t, x_s = two_view_instance(101, 12, 9, seed=22)  # odd row count
    _, state = itq_plus_train(x_t, x_s, 5, 0.05, iters=15, seed=0)
    sums = state.codes.signs.sum(axis=0)
    assert np.all(np.abs(sums) <= 1)


def test_train_privileged_path_inert_at_lambda_zero():
    x_t, x_s = two_view_instance(70, 9, 7, seed=23)
    _, state_a = itq_plus_train(x_t, x_s, 5, 0.0, iters=20, seed=2, tol=0)
    _, state_b = itq_plus_train(x_t, 10.0 * x_s, 5, 0.0, iters=20, seed=2, tol=0)
    assert np.array_equal(state_a.rotation, state_b.rotation)
    assert np.array_equal(state_a.codes.signs, state_b.codes.signs)


def test_train_validation_errors():
    x_t, x_s = two_view_instance(30, 6, 5, seed=24)
    with pytest.raises(ValueError):
        itq_plus_train(x_t, x_s[:20], 4, 0.1)
    with pytest.raises(ValueError):
        itq_plus_train(x_t, x_s, 6, 0.1)  # c > d_s
    with pytest.raises(ValueError):
        itq_plus_train(x_t, x_s, 4, -0.1)
    with pytest.raises(ValueError):
        itq_plus_train(x_t, x_s, 4, 0.1, b_step="other")
