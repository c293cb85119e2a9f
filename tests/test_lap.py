import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import transferhash
from transferhash import evaluate, lap_itq_plus
from transferhash.codes import BinaryCodeMatrix, sgn
from transferhash.errors import NumericalError
from transferhash.itq import itq_train
from transferhash.itq_plus import alternating_solve, sign_step
from transferhash.synth import make_two_view_clusters
from transferhash.lap_itq_plus import (
    DEFAULT_INNER_ITERS,
    _STEP_DELTA,
    _relaxed_value,
    box_qp_minimize,
    knn_hamming_graph,
    lap_itq_plus_train,
    laplacian,
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
    assert np.array_equal(graph.toarray(), expected)
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
    assert np.array_equal(graph.toarray(), expected)


def test_knn_graph_symmetric_no_self_loops():
    rng = np.random.default_rng(1)
    codes = BinaryCodeMatrix(sgn(rng.standard_normal((30, 16))))
    graph = knn_hamming_graph(codes, 4)
    assert np.array_equal(graph.toarray(), graph.toarray().T)
    assert np.all(np.diag(graph.toarray()) == 0)
    assert np.all(graph.toarray().sum(axis=1) >= 4)


def test_knn_graph_column_permutation_invariant():
    rng = np.random.default_rng(2)
    signs = sgn(rng.standard_normal((20, 12)))
    perm = rng.permutation(12)
    g1 = knn_hamming_graph(BinaryCodeMatrix(signs), 3)
    g2 = knn_hamming_graph(BinaryCodeMatrix(signs[:, perm]), 3)
    assert np.array_equal(g1.toarray(), g2.toarray())


def test_knn_graph_k_range():
    codes = codes_from([[1, 1], [1, -1], [-1, 1]])
    with pytest.raises(ValueError):
        knn_hamming_graph(codes, 0)
    with pytest.raises(ValueError):
        knn_hamming_graph(codes, 3)


@pytest.mark.parametrize("k", [2.5, True, "3", None])
def test_knn_graph_refuses_a_k_that_is_not_a_count(k):
    # each raised a bare TypeError, or took True for 1
    codes = codes_from([[1, 1], [1, -1], [-1, 1]])
    with pytest.raises(ValueError, match=re.escape(f"k={k} must be an integer >= 1")):
        knn_hamming_graph(codes, k)


def test_knn_graph_takes_a_small_unsigned_k_over_many_rows():
    # n * k overflowed uint8 (an OverflowError) once n passed 255
    codes = BinaryCodeMatrix(sgn(np.random.default_rng(3).standard_normal((300, 8))))
    assert (knn_hamming_graph(codes, np.uint8(5)) != knn_hamming_graph(codes, 5)).nnz == 0


def dense_knn_reference(signs, k):
    """The dense graph algorithm, kept as the reference: an n x n distance table
    with self at bits + 1, a stable argsort of every row, the union of the
    directed lists, and L's CSR arrays from the stored entries of W (each
    row's nonzero W_ij and its diagonal, in ascending column order).

    Returns (W, indptr, indices, data).
    """
    codes = BinaryCodeMatrix(signs)
    n, packed = codes.rows, codes.packed
    dists = np.empty((n, n), dtype=np.int64)
    for i in range(n):
        dists[i] = np.bitwise_count(packed ^ packed[i]).sum(axis=1)
    np.fill_diagonal(dists, codes.bits + 1)
    order = np.argsort(dists, axis=1, kind="stable")
    w = np.zeros((n, n), dtype=np.uint8)
    w[np.repeat(np.arange(n), k), order[:, :k].ravel()] = 1
    w = np.maximum(w, w.T)
    stored = w != 0
    np.fill_diagonal(stored, True)
    rows, cols = np.nonzero(stored)
    values = -w[rows, cols].astype(np.float64)
    values[rows == cols] += w.sum(axis=1, dtype=np.float64)
    indptr = np.concatenate(([0], np.cumsum(np.count_nonzero(stored, axis=1))))
    return w, indptr, cols, values


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_knn_graph_and_laplacian_match_dense_reference(monkeypatch, data):
    n = data.draw(st.integers(2, 80), label="rows")
    bits = data.draw(st.sampled_from([1, 64, 65, 130]), label="bits")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    # few distinct codes, so duplicates of a row can rank before it
    pool = sgn(rng.standard_normal((data.draw(st.integers(1, 6), label="codes"), bits)))
    signs = pool[rng.integers(0, len(pool), n)]
    k = data.draw(st.integers(1, n - 1), label="k")
    rows_per_block = data.draw(st.integers(1, n), label="rows per block")
    monkeypatch.setattr(evaluate, "_SCORE_BLOCK_ELEMENTS", rows_per_block * n)

    graph = knn_hamming_graph(BinaryCodeMatrix(signs), k)
    lap = laplacian(graph)
    weights, indptr, indices, values = dense_knn_reference(signs, k)
    assert np.array_equal(graph.toarray(), weights)
    assert np.array_equal(lap.csr.indptr, indptr)
    assert np.array_equal(lap.csr.indices, indices)
    assert lap.csr.data.tobytes() == values.tobytes()


def test_laplacian_path_graph():
    weights = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=np.uint8)
    lap = laplacian(scipy.sparse.csr_array(weights))
    assert np.array_equal(lap.csr.toarray(), [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])
    assert lap.max_degree == 2.0  # lambda_max(L) = 3 = max degree + 1


def test_laplacian_empty_graph():
    lap = laplacian(scipy.sparse.csr_array(np.zeros((4, 4), dtype=np.uint8)))
    assert np.array_equal(lap.csr.toarray(), np.zeros((4, 4)))
    assert lap.max_degree == 0.0


def random_graph(n, k, seed):
    rng = np.random.default_rng(seed)
    codes = BinaryCodeMatrix(sgn(rng.standard_normal((n, 12))))
    return knn_hamming_graph(codes, k)


def test_laplacian_edge_sum_identity_and_row_sums():
    for seed in range(10):
        graph = random_graph(15, 3, seed)
        lap = laplacian(graph)
        assert np.abs(lap.csr.toarray().sum(axis=1)).max() < 1e-9
        rng = np.random.default_rng(seed + 100)
        for _ in range(10):
            x = rng.standard_normal(graph.shape[0])
            quad = float(x @ lap.csr.toarray() @ x)
            edge_sum = 0.5 * sum(
                graph.toarray()[i, j] * (x[i] - x[j]) ** 2
                for i in range(graph.shape[0]) for j in range(graph.shape[0])
            )
            assert quad == pytest.approx(edge_sum, abs=1e-9 * max(1.0, abs(edge_sum)))
            assert quad >= -1e-9


def test_laplacian_lambda_max_close_to_exact():
    # the box QP's step takes max degree + 1 for lambda_max: never above the
    # exact value, and at least half of it
    for seed in range(5):
        lap = laplacian(random_graph(20, 4, seed))
        exact = float(np.linalg.eigvalsh(lap.csr.toarray())[-1])
        assert lap.max_degree == lap.csr.diagonal().max()
        assert lap.max_degree + 1.0 <= exact + 1e-9
        assert exact <= 2.0 * lap.max_degree + 1e-9


def test_update_b_relaxed_zero_lambda_is_sign():
    rng = np.random.default_rng(3)
    k_mat = rng.standard_normal((4, 10))  # c x n
    lap = laplacian(random_graph(10, 2, 0))
    result = update_b_relaxed(k_mat, lap, 0.0)
    assert np.array_equal(result.signs, sgn(k_mat.T))


def test_update_b_relaxed_zero_laplacian_matches():
    rng = np.random.default_rng(4)
    k_mat = rng.standard_normal((3, 8))
    zero_lap = laplacian(np.zeros((8, 8)))
    result = update_b_relaxed(k_mat, zero_lap, 2.5)
    assert np.array_equal(result.signs, sgn(k_mat.T))


def relaxed_objective(b, k_mat, lap, lambda2: float) -> float:
    """-2 tr(B K) + lambda2 tr(B^T L B) over the box [-1, 1]^(n x c)."""
    b = np.asarray(b, dtype=np.float64)
    lap_b = lap.csr @ b if lambda2 != 0.0 else None
    return _relaxed_value(b, lap_b, -2.0 * np.asarray(k_mat, dtype=np.float64).T, lambda2)


def test_update_b_relaxed_small_instance_oracle():
    # n=4, c=1, graph with 2 edges: 0-1 and 2-3
    weights = np.zeros((4, 4), dtype=np.uint8)
    weights[0, 1] = weights[1, 0] = 1
    weights[2, 3] = weights[3, 2] = 1
    lap = laplacian(scipy.sparse.csr_array(weights))
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


@pytest.mark.parametrize("lambda2", [np.nan, np.inf])
def test_box_qp_rejects_non_finite_lambda2(lambda2):
    lap = laplacian(random_graph(5, 1, 1))
    with pytest.raises(ValueError, match="finite"):
        box_qp_minimize(np.ones((2, 5)), lap, lambda2)


def test_box_qp_inner_trace_monotone_random():
    rng = np.random.default_rng(5)
    for seed in range(10):
        n = 20
        lap = laplacian(random_graph(n, 3, seed))
        k_mat = rng.standard_normal((6, n))
        _, trace = box_qp_minimize(k_mat, lap, 0.5)
        assert np.all(np.diff(trace) <= 1e-9)


def draw_graph(data):
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
    return scipy.sparse.csr_array(weights)


def dense_laplacian(graph):
    w = graph.toarray().astype(np.float64)
    return np.diag(w.sum(axis=1)) - w


def dense_product(lap_dense, b):
    """L B summed over the columns of L in ascending order.

    A CSR product adds a row's stored entries in that order; a BLAS product
    may not, and the last-bit difference can move the step at which the
    box QP's iterate stops changing, so the gradient takes this product.
    """
    out = np.zeros(b.shape)
    for j in range(lap_dense.shape[1]):
        out += lap_dense[:, j, None] * b[j]
    return out


def dense_box_qp(k_mat, lap_dense, lambda2, inner_iters):
    """box_qp_minimize's loop with a dense L and a product per term."""
    linear = k_mat.T
    b = sgn(linear).astype(np.float64)
    max_degree = lap_dense.diagonal().max(initial=0.0)
    step = 1.0 / (2.0 * lambda2 * (max_degree + 1.0) + 1e-12)

    def value(b):
        return -2.0 * float(np.sum(b * linear)) + lambda2 * float(np.sum(b * (lap_dense @ b)))

    trace = [value(b)]
    for _ in range(inner_iters):
        grad = -2.0 * linear + (2.0 * lambda2) * dense_product(lap_dense, b)
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
    assert lap.csr.toarray().dtype == np.float64 and np.array_equal(lap.csr.toarray(), dense)
    assert lap.max_degree == graph.toarray().sum(axis=1).max(initial=0)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_box_qp_matches_dense_reference(data):
    if data.draw(st.booleans(), label="all-zero laplacian"):
        n = data.draw(st.integers(2, 60), label="rows")
        lap, dense = laplacian(np.zeros((n, n))), np.zeros((n, n))
    else:
        graph = draw_graph(data)
        lap, dense = laplacian(graph), dense_laplacian(graph)
    c = data.draw(st.integers(1, 8), label="code length")
    lambda2 = data.draw(st.sampled_from([0.0, 0.01, 5.0]), label="lambda2")
    inner_iters = data.draw(st.integers(0, 100), label="inner iters")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="score seed"))
    k_mat = rng.standard_normal((c, lap.csr.shape[0]))

    relaxed, trace = box_qp_minimize(k_mat, lap, lambda2, inner_iters)
    expected, expected_trace = dense_box_qp(k_mat, dense, lambda2, inner_iters)
    # the loop may stop before the reference's cap once the signs are certain
    assert len(trace) <= len(expected_trace)
    assert np.allclose(trace, expected_trace[:len(trace)], rtol=1e-12, atol=1e-12)
    if len(trace) == len(expected_trace):
        assert np.abs(relaxed - expected).max() <= 1e-12
    clear = np.abs(expected) > 1e-9
    assert np.array_equal(sgn(relaxed)[clear], sgn(expected)[clear])


def capped_box_qp(k_mat, lap, lambda2, inner_iters=DEFAULT_INNER_ITERS):
    """box_qp_minimize without the sign certificate: every call runs to the cap
    or to a step that leaves B unchanged."""
    k_mat = np.asarray(k_mat, dtype=np.float64)
    linear_grad = np.ascontiguousarray(-2.0 * k_mat.T)
    b = sgn(k_mat.T).astype(np.float64, order="C")
    step = 1.0 / (2.0 * lambda2 * (lap.max_degree + 1.0) + 1e-12)
    lap_b = lap.csr @ b if lambda2 != 0.0 else None
    trace = [_relaxed_value(b, lap_b, linear_grad, lambda2)]
    for _ in range(inner_iters):
        grad = linear_grad
        if lambda2 != 0.0:
            grad = grad + (2.0 * lambda2) * lap_b
        b_next = np.clip(b - step * grad, -1.0, 1.0)
        if np.array_equal(b_next, b):
            break
        b = b_next
        lap_b = lap.csr @ b if lambda2 != 0.0 else None
        trace.append(_relaxed_value(b, lap_b, linear_grad, lambda2))
    return b, trace


def hub_instance(seed, rows, distinct, bits, c, scale):
    """Scores over a kNN graph (k = 5, or rows - 1 if fewer) of codes drawn
    from a few distinct ones: every row ties at its k-th distance, so
    low-index rows become hubs, as on the offline source codes of the
    data-sparse transfer workload."""
    rng = np.random.default_rng(seed)
    pool = sgn(rng.standard_normal((distinct, bits)))
    graph = knn_hamming_graph(BinaryCodeMatrix(pool[rng.integers(0, distinct, rows)]),
                              min(5, rows - 1))
    return scale * rng.standard_normal((c, rows)), laplacian(graph)


PINNED_HUB = dict(seed=8, rows=105, distinct=4, bits=10, c=3, scale=3.0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(90, 110),
       distinct=st.integers(1, 8), bits=st.integers(1, 32), c=st.integers(1, 32),
       scale=st.sampled_from([0.1, 0.3, 1.0, 3.0]))
@example(**PINNED_HUB)
def test_box_qp_stop_keeps_the_capped_signs_on_hub_graphs(seed, rows, distinct, bits,
                                                          c, scale):
    k_mat, lap = hub_instance(seed, rows, distinct, bits, c, scale)
    relaxed, trace = box_qp_minimize(k_mat, lap, 0.01)
    expected, expected_trace = capped_box_qp(k_mat, lap, 0.01)
    assert np.array_equal(sgn(relaxed), sgn(expected))
    assert trace == expected_trace[:len(trace)]


def test_box_qp_stop_fires_on_a_hub_graph():
    k_mat, lap = hub_instance(**PINNED_HUB)
    relaxed, trace = box_qp_minimize(k_mat, lap, 0.01)
    expected, expected_trace = capped_box_qp(k_mat, lap, 0.01)
    assert len(trace) < len(expected_trace) == DEFAULT_INNER_ITERS + 1
    assert np.array_equal(sgn(relaxed), sgn(expected))


def plain_graph(kind, seed, rows, density):
    """A symmetric 0/1 graph: random, edgeless, a star or complete."""
    weights = np.zeros((rows, rows), dtype=bool)
    if kind == "random":
        weights = np.triu(np.random.default_rng(seed).random((rows, rows)) < density, 1)
    elif kind == "star":
        weights[0, 1:] = True
    elif kind == "complete":
        weights = ~np.eye(rows, dtype=bool)
    return scipy.sparse.csr_array(weights | weights.T)


# a 50-step power iteration from a seeded start read lambda_max as 128.84 on
# this hub graph (max degree 129, exact lambda_max 130), so a step sized by it
# failed the Gershgorin test s * 2 lambda2 * ||L||_inf <= 2 that used to
# switch the sign stop off
GATE_OFF_HUB = dict(kind="knn", seed=2, rows=500, distinct=4, bits=16, density=0.0)


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(["knn", "random", "edgeless", "star", "complete"]),
       seed=st.integers(0, 2**32 - 1), rows=st.integers(2, 120),
       distinct=st.integers(1, 8), bits=st.integers(1, 32),
       density=st.floats(0.0, 1.0), c=st.integers(1, 16),
       scale=st.sampled_from([0.1, 1.0, 3.0]),
       lambda2=st.sampled_from([0.01, 0.1, 1.0]))
@example(**GATE_OFF_HUB, c=8, scale=1.0, lambda2=0.01)
@example(**GATE_OFF_HUB, c=32, scale=3.0, lambda2=0.1)
def test_degree_step_descends_and_keeps_the_capped_signs(kind, seed, rows, distinct,
                                                         bits, density, c, scale,
                                                         lambda2):
    if kind == "knn":
        k_mat, lap = hub_instance(seed, rows, distinct, bits, c, scale)
    else:
        lap = laplacian(plain_graph(kind, seed, rows, density))
        k_mat = scale * np.random.default_rng([seed, 1]).standard_normal((c, rows))
    if lap.max_degree > 0.0:  # a graph with an edge
        # the step 1 / (2 lambda2 (d_max + 1)) is at least 1 / Lipschitz and
        # below 2 / Lipschitz
        exact = float(np.linalg.eigvalsh(lap.csr.toarray())[-1])
        assert lap.max_degree + 1.0 <= exact * (1.0 + 1e-12)
        assert exact <= 2.0 * lap.max_degree * (1.0 + 1e-12)
    relaxed, trace = box_qp_minimize(k_mat, lap, lambda2)
    assert np.all(np.diff(trace) <= 1e-12 * max(1.0, abs(trace[0])))
    expected, expected_trace = capped_box_qp(k_mat, lap, lambda2)
    assert np.array_equal(sgn(relaxed), sgn(expected))
    assert trace == expected_trace[:len(trace)]


def box_qp_before_buffers(k_mat, lap, lambda2: float,
                          inner_iters: int = DEFAULT_INNER_ITERS):
    """box_qp_minimize as it was when every step allocated its arrays afresh."""
    k_mat = np.asarray(k_mat, dtype=np.float64)
    if not np.isfinite(k_mat).all():
        raise NumericalError("non-finite score matrix in relaxed code step")
    if not 0.0 <= lambda2 < np.inf:
        raise ValueError("lambda2 must be finite and >= 0")
    linear_grad = np.ascontiguousarray(-2.0 * k_mat.T)  # n x c
    b = sgn(k_mat.T).astype(np.float64, order="C")
    step = 1.0 / (2.0 * lambda2 * (lap.max_degree + 1.0) + _STEP_DELTA)
    lap_b = lap.csr @ b if lambda2 != 0.0 else None
    trace = [_relaxed_value(b, lap_b, linear_grad, lambda2)]
    for left in range(inner_iters - 1, -1, -1):
        grad = linear_grad
        if lambda2 != 0.0:
            grad = grad + (2.0 * lambda2) * lap_b
        b_next = np.clip(b - step * grad, -1.0, 1.0)
        move = b_next - b  # zero exactly where b_next == b, as both are finite
        if not move.any():
            break
        # no entry moves further than this before the cap; a bound of 0
        # (an underflowed move) or of 1 or more (|B| <= 1) certifies nothing
        bound = left * float(np.linalg.norm(move))
        b = b_next
        lap_b = lap.csr @ b if lambda2 != 0.0 else None
        trace.append(_relaxed_value(b, lap_b, linear_grad, lambda2))
        if 0.0 < bound < 1.0 and bound < np.abs(b).min():
            break
    return b, trace


@settings(max_examples=120, deadline=None)
@given(kind=st.sampled_from(["knn", "random", "edgeless", "star", "complete"]),
       seed=st.integers(0, 2**32 - 1), rows=st.integers(2, 120),
       distinct=st.integers(1, 8), bits=st.integers(1, 32),
       density=st.floats(0.0, 1.0), c=st.integers(1, 16),
       scale=st.sampled_from([0.1, 1.0, 3.0]),
       lambda2=st.sampled_from([0.0, 0.01, 0.1, 1.0]), inner_iters=st.integers(0, 100))
@example(**GATE_OFF_HUB, c=8, scale=1.0, lambda2=0.01, inner_iters=100)
def test_box_qp_in_reused_buffers_matches_the_allocating_loop(kind, seed, rows, distinct,
                                                              bits, density, c, scale,
                                                              lambda2, inner_iters):
    if kind == "knn":
        k_mat, lap = hub_instance(seed, rows, distinct, bits, c, scale)
    else:
        lap = laplacian(plain_graph(kind, seed, rows, density))
        k_mat = scale * np.random.default_rng([seed, 1]).standard_normal((c, rows))
    relaxed, trace = box_qp_minimize(k_mat, lap, lambda2, inner_iters)
    kept = relaxed.copy()
    expected, expected_trace = box_qp_before_buffers(k_mat, lap, lambda2, inner_iters)
    assert relaxed.tobytes() == expected.tobytes()
    assert trace == expected_trace
    box_qp_minimize(-k_mat, lap, lambda2, inner_iters)  # a second call reuses no buffer
    assert relaxed.tobytes() == kept.tobytes()


def test_box_qp_rejects_a_negative_step_cap():
    lap = laplacian(random_graph(5, 1, 1))
    box_qp_minimize(np.ones((2, 5)), lap, 0.1, 0)  # no step is a valid cap
    with pytest.raises(ValueError, match="inner_iters=-1"):
        box_qp_minimize(np.ones((2, 5)), lap, 0.1, -1)


@pytest.mark.parametrize("integer", [np.uint8, np.uint64, np.int8])
def test_box_qp_takes_no_steps_for_a_numpy_zero_cap(integer):
    # an unsigned 0 - 1 wrapped around, so np.uint8(0) ran 256 steps
    lap = laplacian(random_graph(5, 1, 1))
    k_mat = np.random.default_rng(4).standard_normal((2, 5))
    relaxed, trace = box_qp_minimize(k_mat, lap, 0.1, integer(0))
    assert len(trace) == 1 and np.array_equal(relaxed, sgn(k_mat.T))


@pytest.mark.parametrize("inner_iters", [2.5, 3.0, True, False, "4", None])
def test_box_qp_rejects_a_step_cap_that_is_not_an_integer(inner_iters):
    lap = laplacian(random_graph(5, 1, 1))
    box_qp_minimize(np.ones((2, 5)), lap, 0.1, np.int64(3))  # numpy integers count
    with pytest.raises(ValueError, match=f"inner_iters={inner_iters} must be an integer"):
        box_qp_minimize(np.ones((2, 5)), lap, 0.1, inner_iters)


@pytest.mark.parametrize("shape", [(2, 4), (5, 2), (5,), (1, 2, 5)])
def test_box_qp_rejects_scores_that_do_not_fit_the_laplacian(shape):
    lap = laplacian(random_graph(5, 1, 1))
    with pytest.raises(ValueError, match=r"shape \(.*\) does not fit Laplacian \(5, 5\)"):
        box_qp_minimize(np.ones(shape), lap, 0.1)


def test_lap_train_matches_a_fit_with_the_capped_box_qp(monkeypatch):
    target, source, _ = make_two_view_clusters(1000, 64, 40, clusters=5, noise=3.0,
                                               source_noise=0.1, latent_dim=16,
                                               center_spread=5.0, seed=0)
    x_t, x_s = target[:100] - target[:100].mean(0), source - source.mean(0)
    steps = []

    def counted(*args):
        relaxed, trace = box_qp_minimize(*args)
        steps.append(len(trace) - 1)
        return relaxed, trace

    def fit():
        return lap_itq_plus_train(x_t, x_s[:100], x_s[100:], 32, 0.3, 0.01, 5,
                                  iters=15, seed=1, tol=0)

    monkeypatch.setattr(lap_itq_plus, "box_qp_minimize", counted)
    stopped = fit()
    monkeypatch.setattr(lap_itq_plus, "box_qp_minimize", capped_box_qp)
    capped = fit()
    assert min(steps) < DEFAULT_INNER_ITERS
    assert stopped.rotation.tobytes() == capped.rotation.tobytes()
    assert stopped.codes.packed.tobytes() == capped.codes.packed.tobytes()
    assert stopped.slack_rotation.tobytes() == capped.slack_rotation.tobytes()
    assert stopped.objective_trace == capped.objective_trace


def test_laplacian_matrix_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        laplacian(np.zeros((2, 3)))


@pytest.mark.parametrize("weights", [
    [[0.0, 1.0], [0.0, 0.0]],  # asymmetric
    [[0.0, -1.0], [-1.0, 0.0]],  # negative
    [[0.0, np.nan], [np.nan, 0.0]],
    [[0.0, np.inf], [np.inf, 0.0]],
])
def test_laplacian_rejects_a_graph_the_step_bound_does_not_cover(weights):
    # the step's bound lambda_max(L) <= 2 max degree needs a symmetric W >= 0
    with pytest.raises(ValueError, match="symmetric"):
        laplacian(np.array(weights))
    with pytest.raises(ValueError, match="symmetric"):
        laplacian(scipy.sparse.csr_array(np.array(weights)))


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
        solve = alternating_solve(x_t, x_s, 6, 0.05, 25, seed, sign_step, tol=0)
        codes, rotation = solve.codes, solve.rotation
        state_lap = lap_itq_plus_train(x_t, x_s, None, 6, 0.05, 0.0, 5,
                                       iters=25, seed=seed, tol=0)
        assert np.array_equal(codes.signs, state_lap.codes.signs)
        assert np.array_equal(rotation, state_lap.rotation)


def test_lap_train_zero_lambdas_match_plain_itq_rotation():
    x_t, x_s = two_view_instance(seed=7)
    codes_itq, rot_itq, _ = itq_train(x_t, 6, iters=25, seed=2, tol=0)
    state = lap_itq_plus_train(x_t, x_s, None, 6, 0.0, 0.0, 5,
                               iters=25, seed=2, tol=0)
    assert np.array_equal(rot_itq, state.rotation)
    assert np.array_equal(codes_itq.signs, state.codes.signs)


def test_lap_train_deterministic_with_extra_source():
    x_t, x_s = two_view_instance(80, 10, 9, seed=8)
    x_su = np.random.default_rng(9).standard_normal((50, 9))
    x_su -= x_su.mean(0)
    run = lambda: lap_itq_plus_train(x_t, x_s, x_su, 5, 0.05, 0.05, 4,
                                     iters=15, seed=1)
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
        state = lap_itq_plus_train(x_t, x_s, None, 8, 0.5, 0.1, 5,
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


def test_lap_train_trace_ends_at_the_objective_of_its_returned_fit():
    # J = ||B - X_t R||^2 + lambda1 ||B - X_t R - X_sc P||^2 + lambda2 tr(B^T L B)
    x_t, x_s = two_view_instance(70, 10, 9, seed=12)
    x_su = np.random.default_rng(13).standard_normal((40, 9))
    for lambda1, lambda2 in ((0.3, 0.5), (0.0, 2.0), (1.0, 0.0)):
        state = lap_itq_plus_train(x_t, x_s, x_su, 5, lambda1, lambda2, 4,
                                   iters=12, seed=3, tol=0)
        b = state.codes.signs.astype(np.float64)
        err = b - x_t @ state.rotation
        slack = err - x_s @ state.slack_rotation
        objective = (np.sum(err ** 2) + lambda1 * np.sum(slack ** 2)
                     + lambda2 * np.trace(b.T @ dense_laplacian(state.graph) @ b))
        assert state.objective_trace[-1] == pytest.approx(objective, rel=1e-12, abs=1e-9)


def test_lap_train_validation():
    x_t, x_s = two_view_instance(30, 8, 6, seed=10)
    with pytest.raises(ValueError):
        lap_itq_plus_train(x_t, x_s, None, 4, 0.1, 0.1, 30, iters=5, seed=0)
    with pytest.raises(ValueError):
        lap_itq_plus_train(x_t, x_s, np.ones((5, 4)), 4, 0.1, 0.1, 5, iters=5, seed=0)


@pytest.mark.parametrize("lambdas", [(-1.0, 0.1), (0.1, -1.0), (np.nan, 0.1), (0.1, np.inf),
                                     ("0.1", 0.1), (0.1, None)])
def test_lap_train_checks_lambdas_before_the_source_fit(monkeypatch, lambdas):
    def no_fit(*args, **kwargs):
        raise AssertionError("the offline source codes were fitted")

    monkeypatch.setattr(lap_itq_plus, "itq_train", no_fit)
    x_t, x_s = two_view_instance(30, 8, 6, seed=10)
    with pytest.raises(ValueError, match="lambda[12] must be finite and >= 0"):
        lap_itq_plus_train(x_t, x_s, None, 4, *lambdas, 5, iters=5, seed=0)


@pytest.mark.parametrize("name, value", [("c", "2"), ("c", 2.0), ("c", True), ("c", 0),
                                         ("k", "2"), ("k", 2.0), ("k", np.bool_(True))])
def test_lap_train_checks_its_counts_before_the_source_fit(monkeypatch, name, value):
    # a string c or k once reached `c > min(d_t, d_s)` and raised a bare TypeError
    def no_fit(*args, **kwargs):
        raise AssertionError("the offline source codes were fitted")

    monkeypatch.setattr(lap_itq_plus, "itq_train", no_fit)
    x_t, x_s = two_view_instance(30, 8, 6, seed=10)
    counts = {"c": 4, "k": 5, name: value}
    with pytest.raises(ValueError, match=re.escape(f"{name}={value} must be an integer >= 1")):
        lap_itq_plus_train(x_t, x_s, None, counts["c"], 0.1, 0.1, counts["k"], iters=5)


@pytest.mark.parametrize("view, bad", [("x_sc", np.float64(1.0)), ("x_sc", np.ones(30)),
                                       ("x_sc", None), ("x_t", np.float64(1.0)),
                                       ("x_t", np.ones(30)), ("x_su", np.ones(6))])
def test_lap_train_checks_its_views_before_the_source_fit(monkeypatch, view, bad):
    # it read x_sc.shape[1] first, so a 0-d, 1-d or None view raised a bare IndexError
    def no_fit(*args, **kwargs):
        raise AssertionError("the offline source codes were fitted")

    monkeypatch.setattr(lap_itq_plus, "itq_train", no_fit)
    x_t, x_s = two_view_instance(30, 8, 6, seed=10)
    views = {"x_t": x_t, "x_sc": x_s, "x_su": None, view: bad}
    with pytest.raises(ValueError, match=re.escape(f"{view} of shape")):
        lap_itq_plus_train(views["x_t"], views["x_sc"], views["x_su"], 4, 0.1, 0.1, 5, iters=5)


@pytest.mark.parametrize("view", ["x_t", "x_sc", "x_su"])
def test_lap_train_checks_finiteness_before_the_source_fit(monkeypatch, view):
    # a NaN in x_t once surfaced only after the offline fit and the graph build
    calls = []

    def counting_fit(*args, **kwargs):
        calls.append(args)
        return itq_train(*args, **kwargs)

    monkeypatch.setattr(lap_itq_plus, "itq_train", counting_fit)
    x_t, x_s = two_view_instance(30, 8, 6, seed=10)
    views = {"x_t": x_t, "x_sc": x_s, "x_su": np.ones((5, 6))}
    views[view] = views[view].copy()
    views[view][2, 1] = np.nan
    with pytest.raises(NumericalError, match="non-finite"):
        lap_itq_plus_train(views["x_t"], views["x_sc"], views["x_su"], 4, 0.1, 0.1, 5, iters=5)
    assert calls == []
