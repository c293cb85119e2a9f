import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import transferhash
from transferhash.codes import BinaryCodeMatrix, sgn
from transferhash.errors import NumericalError
from transferhash.itq import itq_train
from transferhash.itq_plus import itq_plus_train
from transferhash.lap_itq_plus import (
    AdjacencyGraph,
    LaplacianMatrix,
    box_qp_minimize,
    knn_hamming_graph,
    lap_itq_plus_train,
    laplacian,
    relaxed_objective,
    source_codes_offline,
    update_b_relaxed,
)


def codes_from(rows):
    return BinaryCodeMatrix(np.array(rows, dtype=np.int8))


def hamming_table(codes):
    n = codes.rows
    table = np.zeros((n, n), dtype=int)
    for i in range(n):
        for j in range(n):
            table[i, j] = int(np.sum(codes.signs[i] != codes.signs[j]))
    return table


def test_source_codes_match_plain_itq():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((60, 8)); x -= x.mean(0)
    offline = source_codes_offline(x, 4, iters=20, seed=3)
    direct, _, _ = itq_train(x, 4, iters=20, seed=3)
    assert np.array_equal(offline.signs, direct.signs)
    again = source_codes_offline(x, 4, iters=20, seed=3)
    assert np.array_equal(offline.signs, again.signs)


def test_knn_graph_duplicate_pair():
    codes = codes_from([[1, 1, 1], [1, 1, 1], [-1, -1, -1]])
    graph = knn_hamming_graph(codes, 1)
    # 0 and 1 pick each other (distance 0); 2 ties between 0 and 1, index rule
    # picks 0, and the union keeps that edge symmetric
    expected = np.array([[0, 1, 1], [1, 0, 0], [1, 0, 0]], dtype=np.uint8)
    assert np.array_equal(graph.weights, expected)
    table = hamming_table(codes)
    assert table[0, 1] == 0 and table[0, 2] == 3


def test_knn_graph_total_tie_uses_index_rule():
    codes = codes_from([[1, -1]] * 4)
    graph = knn_hamming_graph(codes, 1)
    # node 0 links to 1; every other node links to 0
    expected = np.zeros((4, 4), dtype=np.uint8)
    expected[0, 1] = expected[1, 0] = 1
    expected[2, 0] = expected[0, 2] = 1
    expected[3, 0] = expected[0, 3] = 1
    assert np.array_equal(graph.weights, expected)


def test_knn_graph_symmetric_no_self_loops():
    rng = np.random.default_rng(1)
    codes = BinaryCodeMatrix(sgn(rng.standard_normal((30, 16))))
    graph = knn_hamming_graph(codes, 4)
    assert np.array_equal(graph.weights, graph.weights.T)
    assert np.all(np.diag(graph.weights) == 0)
    assert np.all(graph.weights.sum(axis=1) >= 4)


def test_knn_graph_column_permutation_invariant():
    rng = np.random.default_rng(2)
    signs = sgn(rng.standard_normal((20, 12)))
    perm = rng.permutation(12)
    g1 = knn_hamming_graph(BinaryCodeMatrix(signs), 3)
    g2 = knn_hamming_graph(BinaryCodeMatrix(signs[:, perm]), 3)
    assert np.array_equal(g1.weights, g2.weights)


def test_knn_graph_k_range():
    codes = codes_from([[1, 1], [1, -1], [-1, 1]])
    with pytest.raises(ValueError):
        knn_hamming_graph(codes, 0)
    with pytest.raises(ValueError):
        knn_hamming_graph(codes, 3)


def test_laplacian_path_graph():
    weights = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=np.uint8)
    lap = laplacian(AdjacencyGraph(weights, 1))
    assert np.array_equal(lap.matrix, [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])
    assert lap.lambda_max == pytest.approx(3.0, rel=1e-6)


def test_laplacian_empty_graph():
    lap = laplacian(AdjacencyGraph(np.zeros((4, 4), dtype=np.uint8), 1))
    assert np.array_equal(lap.matrix, np.zeros((4, 4)))
    assert lap.lambda_max == 0.0


def random_graph(n, k, seed):
    rng = np.random.default_rng(seed)
    codes = BinaryCodeMatrix(sgn(rng.standard_normal((n, 12))))
    return knn_hamming_graph(codes, k)


def test_laplacian_edge_sum_identity_and_row_sums():
    for seed in range(10):
        graph = random_graph(15, 3, seed)
        lap = laplacian(graph)
        assert np.abs(lap.matrix.sum(axis=1)).max() < 1e-9
        rng = np.random.default_rng(seed + 100)
        for _ in range(10):
            x = rng.standard_normal(graph.n)
            quad = float(x @ lap.matrix @ x)
            edge_sum = 0.5 * sum(
                graph.weights[i, j] * (x[i] - x[j]) ** 2
                for i in range(graph.n) for j in range(graph.n)
            )
            assert quad == pytest.approx(edge_sum, abs=1e-9 * max(1.0, abs(edge_sum)))
            assert quad >= -1e-9


def test_laplacian_lambda_max_close_to_exact():
    for seed in range(5):
        lap = laplacian(random_graph(20, 4, seed))
        exact = float(np.linalg.eigvalsh(lap.matrix)[-1])
        assert lap.lambda_max <= exact + 1e-9
        assert lap.lambda_max >= 0.9 * exact


def test_update_b_relaxed_zero_lambda_is_sign():
    rng = np.random.default_rng(3)
    k_mat = rng.standard_normal((4, 10))  # c x n
    lap = laplacian(random_graph(10, 2, 0))
    result = update_b_relaxed(k_mat, lap, 0.0)
    assert np.array_equal(result.signs, sgn(k_mat.T))


def test_update_b_relaxed_zero_laplacian_matches():
    rng = np.random.default_rng(4)
    k_mat = rng.standard_normal((3, 8))
    zero_lap = LaplacianMatrix(np.zeros((8, 8)), 0.0)
    result = update_b_relaxed(k_mat, zero_lap, 2.5)
    assert np.array_equal(result.signs, sgn(k_mat.T))


def test_update_b_relaxed_small_instance_oracle():
    # n=4, c=1, graph with 2 edges: 0-1 and 2-3
    weights = np.zeros((4, 4), dtype=np.uint8)
    weights[0, 1] = weights[1, 0] = 1
    weights[2, 3] = weights[3, 2] = 1
    lap = laplacian(AdjacencyGraph(weights, 1))
    k_mat = np.array([[0.8, -0.2, 0.5, -0.6]])  # c=1 x n=4
    lambda2 = 0.3
    relaxed, trace = box_qp_minimize(k_mat, lap, lambda2)
    assert np.all(np.diff(trace) <= 1e-9)
    start = sgn(k_mat.T).astype(float)
    start_value = relaxed_objective(start, k_mat, lap, lambda2)
    assert trace[-1] <= start_value + 1e-12
    # enumerate all 16 sign vectors: the binarized result must be at least as
    # good as the start corner, and the start value must match its enum entry
    enum = {}
    for bits in range(16):
        b = np.array([[1.0 if bits & (1 << i) else -1.0] for i in range(4)])
        enum[tuple(b[:, 0])] = relaxed_objective(b, k_mat, lap, lambda2)
    assert enum[tuple(start[:, 0])] == pytest.approx(start_value, abs=1e-12)
    final = sgn(relaxed).astype(float)
    assert enum[tuple(final[:, 0])] <= start_value + 1e-9


def test_update_b_relaxed_rejects_non_finite():
    lap = laplacian(random_graph(5, 1, 1))
    with pytest.raises(NumericalError):
        update_b_relaxed(np.array([[np.inf] * 5]), lap, 0.1)


def test_box_qp_inner_trace_monotone_random():
    rng = np.random.default_rng(5)
    for seed in range(10):
        n = 20
        lap = laplacian(random_graph(n, 3, seed))
        k_mat = rng.standard_normal((6, n))
        _, trace = box_qp_minimize(k_mat, lap, 0.5)
        assert np.all(np.diff(trace) <= 1e-9)


def draw_graph(data) -> AdjacencyGraph:
    """A kNN graph over codes with many ties, or a random graph with isolated rows."""
    n = data.draw(st.integers(2, 60), label="rows")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    if data.draw(st.booleans(), label="knn graph"):
        pool = sgn(rng.standard_normal((data.draw(st.integers(1, n), label="codes"),
                                        data.draw(st.integers(1, 16), label="bits"))))
        k = data.draw(st.integers(1, n - 1), label="k")
        return knn_hamming_graph(BinaryCodeMatrix(pool[rng.integers(0, len(pool), n)]), k)
    weights = np.triu(rng.random((n, n)) < data.draw(st.floats(0.0, 1.0), label="density"), 1)
    weights = weights | weights.T
    isolated = rng.random(n) < 0.3
    weights[isolated] = False
    weights[:, isolated] = False
    return AdjacencyGraph(weights, 1)


def dense_laplacian(graph):
    w = graph.weights.astype(np.float64)
    return np.diag(w.sum(axis=1)) - w


def dense_power_iteration(lap_dense):
    """lambda_max as laplacian() estimates it, with dense products."""
    v = np.random.default_rng(0).standard_normal(lap_dense.shape[0])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(50):
        lv = lap_dense @ v
        norm = np.linalg.norm(lv)
        if norm < 1e-30:
            return 0.0
        v = lv / norm
        lam = float(v @ (lap_dense @ v))
    return lam


def dense_box_qp(k_mat, lap_dense, lambda_max, lambda2, inner_iters):
    """box_qp_minimize's loop with a dense L and a product per term."""
    linear = k_mat.T
    b = sgn(linear).astype(np.float64)
    step = 1.0 / (2.0 * lambda2 * lambda_max + 1e-12)

    def value(b):
        return -2.0 * float(np.sum(b * linear)) + lambda2 * float(np.sum(b * (lap_dense @ b)))

    trace = [value(b)]
    for _ in range(inner_iters):
        grad = -2.0 * linear + (2.0 * lambda2) * (lap_dense @ b)
        b_next = np.clip(b - step * grad, -1.0, 1.0)
        if np.array_equal(b_next, b):
            break
        b = b_next
        trace.append(value(b))
    return b, trace


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_laplacian_is_degree_minus_adjacency(data):
    graph = draw_graph(data)
    lap = laplacian(graph)
    dense = dense_laplacian(graph)
    assert lap.matrix.dtype == np.float64 and np.array_equal(lap.matrix, dense)
    assert lap.lambda_max == pytest.approx(dense_power_iteration(dense), rel=1e-12, abs=0.0)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_box_qp_matches_dense_reference(data):
    if data.draw(st.booleans(), label="all-zero laplacian"):
        n = data.draw(st.integers(2, 60), label="rows")
        lap, dense = LaplacianMatrix(np.zeros((n, n)), 0.0), np.zeros((n, n))
    else:
        graph = draw_graph(data)
        lap, dense = laplacian(graph), dense_laplacian(graph)
    c = data.draw(st.integers(1, 8), label="code length")
    lambda2 = data.draw(st.sampled_from([0.0, 0.01, 5.0]), label="lambda2")
    inner_iters = data.draw(st.integers(0, 100), label="inner iters")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="score seed"))
    k_mat = rng.standard_normal((c, lap.n))

    relaxed, trace = box_qp_minimize(k_mat, lap, lambda2, inner_iters)
    expected, expected_trace = dense_box_qp(k_mat, dense, lap.lambda_max, lambda2,
                                            inner_iters)
    assert len(trace) == len(expected_trace)
    assert np.abs(relaxed - expected).max() <= 1e-12
    clear = np.abs(expected) > 1e-9
    assert np.array_equal(sgn(relaxed)[clear], sgn(expected)[clear])
    assert np.allclose(trace, expected_trace, rtol=1e-12, atol=1e-12)


def test_laplacian_matrix_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        LaplacianMatrix(np.zeros((2, 3)), 0.0)


def test_import_leaves_scipy_sparse_unloaded():
    # scipy.sparse costs about as much to import as the package itself, so
    # it loads at the first Laplacian, not with every CLI command
    probe = ("import sys, transferhash, transferhash.cli; "
             "print('scipy.sparse' in sys.modules)")
    src = str(Path(transferhash.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


def two_view_instance(n=100, d_t=12, d_s=10, seed=0, noise=0.3):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, 5))
    x_t = z @ rng.standard_normal((5, d_t)) + noise * rng.standard_normal((n, d_t))
    x_s = z @ rng.standard_normal((5, d_s)) + noise * rng.standard_normal((n, d_s))
    return x_t - x_t.mean(0), x_s - x_s.mean(0)


def test_lap_train_zero_lambda2_reduces_to_sign_step():
    x_t, x_s = two_view_instance(seed=6)
    for seed in (0, 1):
        _, state_plain = itq_plus_train(x_t, x_s, 6, 0.05, iters=25, seed=seed,
                                        tol=0, b_step="sign")
        _, state_lap = lap_itq_plus_train(x_t, x_s, None, 6, 0.05, 0.0, 5,
                                          iters=25, seed=seed, tol=0)
        assert np.array_equal(state_plain.codes.signs, state_lap.codes.signs)
        assert np.array_equal(state_plain.rotation, state_lap.rotation)


def test_lap_train_zero_lambdas_match_plain_itq_rotation():
    x_t, x_s = two_view_instance(seed=7)
    codes_itq, rot_itq, _ = itq_train(x_t, 6, iters=25, seed=2, tol=0)
    _, state = lap_itq_plus_train(x_t, x_s, None, 6, 0.0, 0.0, 5,
                                  iters=25, seed=2, tol=0)
    assert np.array_equal(rot_itq, state.rotation)
    assert np.array_equal(codes_itq.signs, state.codes.signs)


def test_lap_train_deterministic_with_extra_source():
    x_t, x_s = two_view_instance(80, 10, 9, seed=8)
    x_su = np.random.default_rng(9).standard_normal((50, 9))
    x_su -= x_su.mean(0)
    run = lambda: lap_itq_plus_train(x_t, x_s, x_su, 5, 0.05, 0.05, 4,
                                     iters=15, seed=1)[1]
    state_a, state_b = run(), run()
    assert np.array_equal(state_a.codes.signs, state_b.codes.signs)
    assert np.array_equal(state_a.rotation, state_b.rotation)


def test_lap_train_transfer_pulls_clusters_together():
    # unit-RMS data keeps entries near the quantization targets, so codes
    # can actually mirror the mutual cluster structure
    closer = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n_half = 30
        labels = np.repeat([0, 1], n_half)
        centers = np.array([[6.0] * 5, [-6.0] * 5])
        z = centers[labels] + rng.standard_normal((2 * n_half, 5))
        x_s = z @ rng.standard_normal((5, 10)) + 0.1 * rng.standard_normal((2 * n_half, 10))
        x_t = z @ rng.standard_normal((5, 12)) + 1.5 * rng.standard_normal((2 * n_half, 12))
        x_s -= x_s.mean(0); x_t -= x_t.mean(0)
        x_s /= np.sqrt((x_s ** 2).mean()); x_t /= np.sqrt((x_t ** 2).mean())
        _, state = lap_itq_plus_train(x_t, x_s, None, 8, 0.5, 0.1, 5,
                                      iters=30, seed=seed)
        table = hamming_table(state.codes)
        same = np.mean([table[i, j] for i in range(2 * n_half)
                        for j in range(2 * n_half)
                        if i < j and labels[i] == labels[j]])
        cross = np.mean([table[i, j] for i in range(2 * n_half)
                         for j in range(2 * n_half)
                         if i < j and labels[i] != labels[j]])
        if same < cross:
            closer += 1
    assert closer >= 8


def test_lap_train_validation():
    x_t, x_s = two_view_instance(30, 8, 6, seed=10)
    with pytest.raises(ValueError):
        lap_itq_plus_train(x_t, x_s, None, 4, 0.1, 0.1, 30, iters=5, seed=0)
    with pytest.raises(ValueError):
        lap_itq_plus_train(x_t, x_s, np.ones((5, 4)), 4, 0.1, 0.1, 5, iters=5, seed=0)
