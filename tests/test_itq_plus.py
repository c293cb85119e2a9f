import re
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transferhash.baselines import cca_itq_fit, lsh_fit
from transferhash.bench import fit_model
from transferhash.codes import BinaryCodeMatrix, sgn
from transferhash.errors import NumericalError
from transferhash.itq import (
    DEFAULT_TOL,
    balanced_signs,
    gram_bound,
    itq_train,
    procrustes,
    random_orthonormal,
)
from transferhash.itq_plus import (
    alternating_solve,
    balanced_step,
    blend_scores,
    itq_plus_objective,
    itq_plus_train,
    sign_step,
    update_b_balanced,
    update_p,
    update_r,
)
from transferhash.lap_itq_plus import (
    DEFAULT_INNER_ITERS,
    box_qp_minimize,
    knn_hamming_graph,
    lap_itq_plus_train,
    laplacian,
)
from transferhash.model import METHODS, HashModel


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
    x_t, x_s = two_view_instance(6, 4, 4, seed=5)
    with pytest.raises(ValueError, match=r"x_t of shape \(1, 4\) .* at least 2 rows"):
        itq_plus_train(x_t[:1], x_s[:1], 2)


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
        solve = alternating_solve(x_t, None, 6, 0.0, 30, seed, balanced_step, tol=0)
        codes_itq, rot_itq, losses = solve.codes, solve.rotation, solve.objective_trace
        state = itq_plus_train(x_t, x_s, 6, 0.0, iters=30, seed=seed, tol=0)
        assert np.array_equal(codes_itq.signs, state.codes.signs)
        assert np.array_equal(rot_itq, state.rotation)
        assert state.objective_trace[-1] == pytest.approx(losses[-1], abs=1e-9)


def test_train_trace_monotone():
    x_t, x_s = two_view_instance(200, 16, 12, seed=19)
    state = itq_plus_train(x_t, x_s, 8, 0.01, iters=60, seed=0, tol=0)
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
    state = itq_plus_train(x_t, x_s, c, lam, iters=8, seed=seed, tol=0)
    assert np.all(np.diff(state.objective_trace) <= 1e-9)
    state = lap_itq_plus_train(x_t, x_s, x_su, c, lam, lambda2, k, iters=8,
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
    state = itq_plus_train(x_t, x_s, 6, 0.1, iters=7, seed=0, tol=0)
    assert len(state.objective_trace) == 7
    assert sorted(shapes) == [(11, 11), (14, 14)]
    shapes.clear()
    _, _, losses = itq_train(x_t, 6, iters=7, seed=0, tol=0)
    assert len(losses) == 7 and shapes == [(14, 14)]


@pytest.mark.parametrize("method", METHODS)
def test_fit_model_builds_one_model_from_the_trainer_record(monkeypatch, method):
    # a trainer once built a model of its own, which fit_model then rebuilt
    # with the training centering, as lsh's and cca-itq's did last
    built = []
    post_init = HashModel.__post_init__

    def counting(model):
        built.append(model.method)
        post_init(model)

    monkeypatch.setattr(HashModel, "__post_init__", counting)
    rng = np.random.default_rng(31)
    target = rng.standard_normal((60, 10)) + 3.0
    source = rng.standard_normal((90, 8)) - 1.0
    fit = fit_model(method, target, source[:60], source[60:], bits=4, lambda1=0.2,
                    lambda2=0.1, k_graph=3, iters=6, seed=2)
    assert built == [method]
    # the trainer's record on the inputs fit_model centers
    x_t, x_s = target - target.mean(axis=0), source - source.mean(axis=0)
    projection, trace, graph = np.eye(10), [], None
    if method == "itq":
        _, rotation, trace = itq_train(x_t, 4, 6, 2)
    elif method == "lsh":
        rotation = lsh_fit(10, 4, 2)
    elif method == "cca-itq":
        left, rotation = cca_itq_fit(x_t, x_s[:60], 4, 6, 2)
        projection = left.matrix
    else:
        state = (itq_plus_train(x_t, x_s[:60], 4, 0.2, 6, 2) if method == "itq+" else
                 lap_itq_plus_train(x_t, x_s[:60], x_s[60:], 4, 0.2, 0.1, 3, 6, 2))
        rotation, trace, graph = state.rotation, state.objective_trace, state.graph
    assert fit.model.rotation.tobytes() == rotation.tobytes()
    assert fit.model.preprocessing.matrix.tobytes() == projection.tobytes()
    assert fit.trace == trace
    assert (fit.graph is None) == (graph is None) == (method != "lapitq+")
    assert graph is None or (fit.graph != graph).nnz == 0


def test_train_deterministic_per_seed():
    x_t, x_s = two_view_instance(100, 12, 10, seed=20)
    state_a = itq_plus_train(x_t, x_s, 8, 0.05, iters=25, seed=4)
    state_b = itq_plus_train(x_t, x_s, 8, 0.05, iters=25, seed=4)
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
    state = itq_plus_train(x_t, x_s, 5, 0.05, iters=15, seed=0)
    sums = state.codes.signs.sum(axis=0)
    assert np.all(np.abs(sums) <= 1)


def test_train_privileged_path_inert_at_lambda_zero():
    x_t, x_s = two_view_instance(70, 9, 7, seed=23)
    state_a = itq_plus_train(x_t, x_s, 5, 0.0, iters=20, seed=2, tol=0)
    state_b = itq_plus_train(x_t, 10.0 * x_s, 5, 0.0, iters=20, seed=2, tol=0)
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


# The parent's alternating solve and code steps, verbatim but for their
# names: each sweep wrapped its codes in a BinaryCodeMatrix and formed X_t R
# and X_sc P three times each, in blend_scores, update_r or update_p and
# itq_plus_objective.
CODE_STEPS_BEFORE_SIGNS = {"sign": lambda scores: (BinaryCodeMatrix(sgn(scores)), 0.0),
                           "balanced": lambda scores: (update_b_balanced(scores), 0.0)}


def alternating_solve_before_sweep_once(x_t, x_sc, c: int, lambda1: float, iters: int, seed,
                                        code_step, *, tol: float, r0=None):
    """Oracle: the package's former alternating_solve, verbatim."""
    x_t = np.asarray(x_t, dtype=np.float64)
    n, d_t = x_t.shape
    if iters < 1:
        raise ValueError("iters must be >= 1")
    if not 0.0 <= lambda1 < np.inf:
        raise ValueError("lambda1 must be finite and >= 0")
    if x_sc is None and lambda1 != 0:
        raise ValueError("lambda1 must be 0 without a privileged view")
    slack_rotation = None
    if x_sc is not None:
        x_sc = np.asarray(x_sc, dtype=np.float64)
        if x_sc.shape[0] != n:
            raise ValueError(f"row mismatch: target {n} vs privileged {x_sc.shape[0]}")
        slack_rotation = random_orthonormal(x_sc.shape[1], c, seed)
    rotation = random_orthonormal(d_t, c, seed) if r0 is None else np.asarray(r0, dtype=np.float64)
    if not (rotation.shape == (d_t, c) and np.isfinite(rotation).all()
            and np.linalg.norm(rotation.T @ rotation - np.eye(c)) <= 1e-8):
        raise ValueError(f"r0 must be a finite {d_t}x{c} matrix with orthonormal columns")
    # X_t and X_sc stay fixed, so each rotation step's majorizer is built
    # once per fit; a square rotation has a closed form and needs none
    gram_t = gram_bound(x_t) if d_t > c else None
    gram_sc = gram_bound(x_sc) if lambda1 > 0 and x_sc.shape[1] > c else None

    trace: list[float] = []
    for _ in range(iters):
        scores = blend_scores(x_t, rotation, x_sc, slack_rotation, lambda1)
        codes, term = code_step(scores)
        rotation = update_r(codes, x_t, x_sc, slack_rotation, lambda1,
                            previous=rotation, gram=gram_t)
        if lambda1 > 0:
            slack_rotation = update_p(codes, x_t, rotation, x_sc,
                                      previous=slack_rotation, gram=gram_sc)
        trace.append(itq_plus_objective(codes, rotation, slack_rotation, x_t, x_sc, lambda1)
                     + term)
        if tol > 0 and len(trace) >= 2:
            prev, cur = trace[-2], trace[-1]
            if abs(prev - cur) < tol * max(abs(prev), 1e-30):
                break
    return codes, rotation, slack_rotation, trace


def relaxed_step_before_signs(lap, lambda2):
    """Oracle: the former lapitq+ code step, verbatim from lap_itq_plus_train."""
    previous = None  # the last sweep's codes and graph term

    def relaxed_step(scores):
        # up to a constant, J at the current rotations is -2 <B, S> + lambda2
        # <B, L B>: keep the last sweep's codes where they score better
        nonlocal previous
        relaxed, _ = box_qp_minimize(scores.T, lap, lambda2, DEFAULT_INNER_ITERS)
        signs = sgn(relaxed)
        term = lambda2 * float(np.vdot(signs, lap.csr @ signs))
        if previous is not None:
            codes, last_term = previous
            if term - last_term > 2.0 * float(np.vdot(signs - codes.signs, scores)):
                return previous
        previous = BinaryCodeMatrix(signs), term
        return previous

    return relaxed_step


def trainer_fit(step, x_t, x_sc, c, lambda1, iters, seed, tol):
    """(codes, R, P, trace) of the trainer that runs this code step on these
    views, or of the bare solve where none does: itq runs the sign step
    without a privileged view, itq+ the balanced step with one."""
    if step == "sign" and x_sc is None:
        codes, rotation, losses = itq_train(x_t, c, iters, seed, tol=tol)
        return codes, rotation, None, losses
    if step == "balanced" and x_sc is not None:
        state = itq_plus_train(x_t, x_sc, c, lambda1, iters, seed, tol=tol)
    else:
        code_step = {"sign": sign_step, "balanced": balanced_step}[step]
        state = alternating_solve(x_t, x_sc, c, lambda1, iters, seed, code_step, tol=tol)
    return state.codes, state.rotation, state.slack_rotation, state.objective_trace


def assert_same_fit(got, expected):
    """Codes, rotations and trace of two (codes, R, P, trace) fits, bit for bit."""
    (codes, rotation, slack, trace), (codes_0, rotation_0, slack_0, trace_0) = got, expected
    assert isinstance(codes, BinaryCodeMatrix) and isinstance(codes_0, BinaryCodeMatrix)
    assert codes.signs.dtype == codes_0.signs.dtype == np.int8
    assert np.array_equal(codes.signs, codes_0.signs)
    assert np.array_equal(codes.packed, codes_0.packed)
    assert rotation.tobytes() == rotation_0.tobytes()
    assert (slack is None) == (slack_0 is None)
    assert slack is None or slack.tobytes() == slack_0.tobytes()
    assert trace == trace_0  # floats, exactly


@st.composite
def sweep_cases(draw):
    """A two-view instance, square (every view c wide) or tall, with the
    lambda1, code step, tolerance, sweep cap and seed of one fit."""
    c = draw(st.integers(1, 5), label="c")
    if draw(st.sampled_from(["square", "tall"]), label="shape") == "square":
        d_t = d_s = c
    else:
        d_t, d_s = c + draw(st.integers(1, 5)), c + draw(st.integers(0, 5))
    n = draw(st.integers(2, 40), label="n")
    x_t, x_s = two_view_instance(n, d_t, d_s, seed=draw(st.integers(0, 2**32 - 1)),
                                 latent=draw(st.integers(1, 6)),
                                 noise=draw(st.floats(0.0, 2.0)))
    return (x_t, x_s, c, draw(st.sampled_from([0.0, 0.3, 2.0]), label="lambda1"),
            draw(st.sampled_from(["sign", "balanced", "relaxed"]), label="code step"),
            draw(st.sampled_from([0.0, DEFAULT_TOL]), label="tol"),
            draw(st.integers(1, 12), label="iters"), draw(st.integers(0, 1000), label="seed"),
            draw(st.integers(0, 8), label="extra source rows"))


@settings(max_examples=80, deadline=None)
@given(case=sweep_cases())
def test_sweep_once_matches_the_former_alternating_solve(case):
    x_t, x_s, c, lam, step, tol, iters, seed, extra = case
    # the sign and balanced steps, without a privileged view and with one
    if step != "relaxed":
        for x_sc, lambda1 in ((None, 0.0), (x_s, lam)):
            assert_same_fit(trainer_fit(step, x_t, x_sc, c, lambda1, iters, seed, tol),
                            alternating_solve_before_sweep_once(
                                x_t, x_sc, c, lambda1, iters, seed,
                                CODE_STEPS_BEFORE_SIGNS[step], tol=tol))
        return
    # lapitq+: the offline source codes, the graph and the fit
    n, lambda2, k = x_t.shape[0], 0.1, min(3, x_t.shape[0] - 1)
    x_su = np.random.default_rng(seed).standard_normal((extra, x_s.shape[1])) if extra else None
    state = lap_itq_plus_train(x_t, x_s, x_su, c, lam, lambda2, k, iters, seed, tol=tol)
    x_stack = np.vstack([x_s, x_su]) if extra else x_s
    source_codes, *_ = alternating_solve_before_sweep_once(
        x_stack, None, c, 0.0, iters, seed, CODE_STEPS_BEFORE_SIGNS["sign"], tol=tol)
    graph = knn_hamming_graph(BinaryCodeMatrix(source_codes.signs[:n]), k)
    assert (graph != state.graph).nnz == 0
    assert_same_fit(
        (state.codes, state.rotation, state.slack_rotation, state.objective_trace),
        alternating_solve_before_sweep_once(x_t, x_s, c, lam, iters, seed,
                                            relaxed_step_before_signs(laplacian(graph), lambda2),
                                            tol=tol))


@pytest.mark.parametrize("shape", [(), (6,), (0, 4), (3, 4, 2)])
def test_alternating_solve_refuses_an_x_t_without_rows(shape):
    # a (0, d) matrix once gave a random rotation with the trace [0.0, 0.0]
    x = np.ones(shape)
    with pytest.raises(ValueError, match=re.escape(f"x_t of shape {shape}")):
        itq_train(x, 2, iters=2)
    with pytest.raises(ValueError, match=re.escape(f"x_t of shape {shape}")):
        alternating_solve(x, None, 2, 0.0, 2, 0, lambda s: (sgn(s), 0.0), tol=0.0)
    with pytest.raises(ValueError, match=re.escape(f"x_t of shape {shape}")):
        itq_plus_train(x, np.ones((6, 4)), 2, iters=2)


@pytest.mark.parametrize("shape", [(), (8,), (8, 4, 1)])
def test_alternating_solve_refuses_a_privileged_view_that_is_not_a_matrix(shape):
    x_t, _ = two_view_instance(8, 4, 4, seed=2)
    with pytest.raises(ValueError, match=re.escape(f"x_sc of shape {shape}")):
        itq_plus_train(x_t, np.ones(shape), 2, iters=2)


@pytest.mark.parametrize("name, value", [
    ("c", 2.0), ("c", True), ("c", "2"), ("c", None), ("c", 0), ("c", -1),
    ("c", np.bool_(True)), ("iters", 2.5), ("iters", 2.0), ("iters", True),
    ("iters", 0), ("iters", np.float64(3.0))])
def test_alternating_solve_refuses_counts_that_are_not_whole(name, value):
    x_t, x_s = two_view_instance(12, 5, 4, seed=3)
    counts = {"c": 2, "iters": 3, name: value}
    message = re.escape(f"{name}={value} must be an integer >= 1")
    with pytest.raises(ValueError, match=message):
        itq_train(x_t, counts["c"], counts["iters"])
    with pytest.raises(ValueError, match=message):
        itq_plus_train(x_t, x_s, counts["c"], 0.1, counts["iters"])


@pytest.mark.parametrize("tol", [None, "0", -1e-6, np.nan, np.inf])
def test_alternating_solve_refuses_a_tol_that_is_not_a_weight(tol):
    # None and "0" raised a bare TypeError at `tol > 0`
    x_t, x_s = two_view_instance(12, 5, 4, seed=3)
    with pytest.raises(ValueError, match="tol must be finite and >= 0"):
        itq_train(x_t, 2, 3, tol=tol)
    with pytest.raises(ValueError, match="tol must be finite and >= 0"):
        itq_plus_train(x_t, x_s, 2, 0.1, 3, tol=tol)


@pytest.mark.parametrize("integer", [np.int64, np.int32, np.uint8])
def test_alternating_solve_takes_numpy_integers(integer):
    x_t, x_s = two_view_instance(12, 5, 4, seed=4)
    codes, rotation, losses = itq_train(x_t, integer(3), integer(4), seed=1, tol=0)
    codes_0, rotation_0, losses_0 = itq_train(x_t, 3, 4, seed=1, tol=0)
    assert np.array_equal(codes.signs, codes_0.signs) and losses == losses_0
    assert rotation.tobytes() == rotation_0.tobytes()
    state = itq_plus_train(x_t, x_s, integer(3), 0.1, integer(4), seed=1, tol=0)
    assert len(state.objective_trace) == 4




@pytest.mark.parametrize("lambda1", [0.0, 0.1])
@pytest.mark.parametrize("view", ["x_t", "x_sc"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_alternating_solve_refuses_non_finite_views(lambda1, view, bad):
    # at lambda1 = 0 a non-finite x_sc gave a NaN trace with a RuntimeWarning
    views = dict(zip(("x_t", "x_sc"), two_view_instance(12, 5, 4, seed=3)))
    views[view] = views[view].copy()
    views[view][2, 1] = bad
    with pytest.raises(NumericalError, match="non-finite values in the training views"):
        itq_plus_train(views["x_t"], views["x_sc"], 2, lambda1, 3)
