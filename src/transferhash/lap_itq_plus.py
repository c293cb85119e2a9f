"""Graph-regularized transfer hashing: import source-side Hamming structure.

Source codes are learned offline with plain quantization over all source
rows; a k-nearest-neighbor graph over the correspondence rows' codes
yields a Laplacian whose quadratic form penalizes target codes that
disagree across source-side neighbors.  The code step becomes a
box-relaxed quadratic program solved by projected gradient descent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import evaluate
from .codes import BinaryCodeMatrix, sgn
from .errors import NumericalError, check_count, check_matrix, check_weight
from .itq import DEFAULT_ITERS, DEFAULT_TOL, itq_train
from .itq_plus import DEFAULT_LAMBDA1, alternating_solve, check_solve_args

DEFAULT_LAMBDA2 = 0.01
DEFAULT_K = 5
DEFAULT_INNER_ITERS = 25
_STEP_DELTA = 1e-12


def _sparse():
    import scipy.sparse  # imported at first use: it costs about as much as importing this package
    return scipy.sparse


@dataclass(frozen=True, eq=False)
class LaplacianMatrix:
    """L = D - W of a graph W, as `laplacian` builds it.

    `csr` is L as a float64 CSR array with sorted indices, so a product L B
    costs O(edges * c).  `max_degree` is d_max, the largest diagonal entry
    of L.  By Gershgorin lambda_max(L) <= 2 d_max for any symmetric W >= 0,
    and d_max + 1 <= lambda_max(L) for a 0/1 graph with an edge (Grone &
    Merris, 1994).
    """

    csr: object
    max_degree: float


def source_codes_offline(x_s, c: int, iters: int = DEFAULT_ITERS, seed=0,
                         *, tol: float = DEFAULT_TOL) -> BinaryCodeMatrix:
    """Plain quantization codes for the stacked source rows (run offline)."""
    codes, _, _ = itq_train(x_s, c, iters, seed, tol=tol)
    return codes


def knn_hamming_graph(codes: BinaryCodeMatrix, k: int):
    """Directed k-nearest-neighbors by Hamming distance, symmetrized by union.

    Rows are ranked a block at a time by the retrieval kernel, the blocks
    shared among evaluate's workers: ascending distance, ties by ascending
    index, self excluded.  Returns W, the symmetric 0/1 adjacency without
    self-loops, as an n x n uint8 CSR array with sorted indices.
    """
    check_count("k", k, 1)
    n, k = codes.rows, int(k)  # numpy integers would overflow in n * k
    if k >= n:
        raise ValueError(f"k={k} out of range for {n} codes")
    packed = codes.packed
    neighbors = np.empty((n, k), dtype=np.intp)

    def rank(blocks):
        for lo, hi in blocks:
            order = evaluate._hamming_order(packed, packed[lo:hi])[:, :k + 1]
            keep = order != np.arange(lo, hi)[:, None]
            # self ranks among its distance-0 duplicates by index; where more
            # than k of them precede it, the (k + 1)-th entry is dropped instead
            keep[keep.all(axis=1), k] = False
            neighbors[lo:hi] = order[keep].reshape(hi - lo, k)
        return []

    evaluate._map_blocks(rank, evaluate._row_blocks(
        n, n, evaluate._SCORE_BLOCK_ELEMENTS // evaluate._BUDGET_SHARES))
    directed = _sparse().csr_array(
        (np.ones(n * k, dtype=np.uint8), neighbors.ravel(), np.arange(0, n * k + 1, k)),
        shape=(n, n))
    return directed.maximum(directed.T).sorted_indices()


def laplacian(graph) -> LaplacianMatrix:
    """L = diag(W 1) - W, with its largest diagonal entry as max_degree.

    graph is W, dense or sparse; it must be square and symmetric, with
    finite nonnegative weights, or a ValueError is raised.  L is a CSR
    array with sorted indices; a row stores its nonzero entries.
    """
    w = _sparse().csr_array(graph, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError("graph must be square")
    if (w != w.T).nnz or not np.all((w.data >= 0.0) & (w.data < np.inf)):
        raise ValueError("graph must be symmetric with finite nonnegative weights")
    lap = _sparse().diags_array(w.sum(axis=1)) - w
    lap.sort_indices()
    return LaplacianMatrix(lap, float(lap.diagonal().max(initial=0.0)))


def write_edge_list(graph, path) -> None:
    """Debug dump of W: one `i j` pair (i < j) per undirected edge, row-major."""
    ii, jj = _sparse().triu(graph, 1, format="csr").nonzero()
    with open(path, "w", encoding="utf-8") as fh:
        for i, j in zip(ii.tolist(), jj.tolist()):
            fh.write(f"{i} {j}\n")


def _relaxed_value(b, lap_b, linear_grad, lambda2: float) -> float:
    """-2 tr(B K) + lambda2 tr(B^T L B), given the products L B and -2 K^T."""
    value = float(np.vdot(b, linear_grad))
    if lambda2 != 0.0:
        value += lambda2 * float(np.vdot(b, lap_b))
    return value


def box_qp_minimize(k_mat, lap: LaplacianMatrix, lambda2: float,
                    inner_iters: int = DEFAULT_INNER_ITERS):
    """Projected gradient descent for the relaxed code step (K is c x n).

    Gradient -2 K^T + 2 lambda2 L B, step s = 1/(2 lambda2 (d_max + 1) +
    delta), clipping to the box each step, started from sgn(K^T), for at
    most inner_iters steps.  Returns (relaxed solution, objective trace);
    the trace is non-increasing.  Each step multiplies by the sparse L once,
    for the trace value at B and the gradient there, and works in two n x c
    buffers allocated per call.  The default 25-step cap stops far from
    convergence; on the benchmark's corpora that gave codes as good as 100
    or 1,000 steps or better (measured, not proven).

    The gradient's Lipschitz constant is 2 lambda2 lambda_max(L), and s
    times it is below lambda_max / (d_max + 1) < 2 by the bounds in
    LaplacianMatrix, so every step descends and is nonexpansive; on a 0/1
    graph with an edge s is 1/Lipschitz or longer, up to delta.  No later
    step then moves B further than the last, ||B_k - B_(k-1)||_F, so with m
    steps left no entry moves more than m times that.  Once every |B_k|
    entry exceeds it, sgn(B_k) is the capped run's sign pattern, all a
    caller uses, and the loop stops with a prefix of the capped run's
    trace; so does a step that leaves B unchanged, as a fixed point repeats.
    """
    k_mat = np.asarray(k_mat, dtype=np.float64)
    if k_mat.ndim != 2 or k_mat.shape[1] != lap.csr.shape[0]:
        raise ValueError(f"score matrix of shape {k_mat.shape} does not fit Laplacian {lap.csr.shape}")
    if not np.isfinite(k_mat).all():
        raise NumericalError("non-finite score matrix in relaxed code step")
    check_weight("lambda2", lambda2)
    check_count("inner_iters", inner_iters, 0)
    linear_grad = np.ascontiguousarray(-2.0 * k_mat.T)  # n x c
    b = sgn(k_mat.T).astype(np.float64, order="C")
    step = 1.0 / (2.0 * lambda2 * (lap.max_degree + 1.0) + _STEP_DELTA)
    lap_b = lap.csr @ b if lambda2 != 0.0 else None
    trace = [_relaxed_value(b, lap_b, linear_grad, lambda2)]
    b_next, move = np.empty_like(b), np.empty_like(b)  # move holds the gradient first
    for left in range(int(inner_iters) - 1, -1, -1):  # an unsigned 0 - 1 would wrap
        grad = linear_grad
        if lambda2 != 0.0:
            grad = np.multiply(lap_b, 2.0 * lambda2, out=move)
            grad += linear_grad
        np.multiply(grad, step, out=b_next)
        np.clip(np.subtract(b, b_next, out=b_next), -1.0, 1.0, out=b_next)
        np.subtract(b_next, b, out=move)  # zero exactly where b_next == b, as both are finite
        # no entry moves further than this before the cap; a bound of 0
        # (an underflowed move) or of 1 or more (|B| <= 1) certifies nothing
        bound = left * float(np.linalg.norm(move))
        if bound == 0.0 and not move.any():
            break
        b, b_next = b_next, b
        lap_b = lap.csr @ b if lambda2 != 0.0 else None
        trace.append(_relaxed_value(b, lap_b, linear_grad, lambda2))
        if 0.0 < bound < 1.0 and bound < np.abs(b, out=move).min():
            break
    return b, trace


def update_b_relaxed(k_mat, lap: LaplacianMatrix, lambda2: float,
                     inner_iters: int = DEFAULT_INNER_ITERS) -> BinaryCodeMatrix:
    """Sign of the relaxed box-QP solution (c x n score matrix K)."""
    relaxed, _ = box_qp_minimize(k_mat, lap, lambda2, inner_iters)
    return BinaryCodeMatrix(sgn(relaxed))


def lap_itq_plus_train(x_t, x_sc, x_su, c: int,
                       lambda1: float = DEFAULT_LAMBDA1,
                       lambda2: float = DEFAULT_LAMBDA2,
                       k: int = DEFAULT_K,
                       iters: int = DEFAULT_ITERS, seed=0, *,
                       tol: float = DEFAULT_TOL):
    """Alternating solve with the graph-regularized relaxed code step.

    Source codes are learned on stack(x_sc, x_su); the neighbor graph uses
    only the first n rows (the ones aligned with target instances).  The
    run is alternating_solve with a code step that minimizes the box QP on
    the blended scores and takes signs, unless the last sweep's codes
    score better on the current scores, which it then keeps.  The trace
    records, after the rotation steps, the objective of itq+ plus the graph
    term lambda2 tr(B^T L B) at the binary codes; like the itq and itq+
    traces it never rises.

    Returns the solve's ItqPlusState with graph set to the neighbor graph.
    """
    # everything is checked before the offline source fit
    x_t, x_sc = check_solve_args(x_t, check_matrix("x_sc", x_sc), c, lambda1, iters, tol)
    n, d_s = x_sc.shape
    x_su = check_matrix("x_su", x_su) if x_su is not None else np.empty((0, d_s))
    if x_su.size and x_su.shape[1] != d_s:
        raise ValueError(f"extra source rows have {x_su.shape[1]} dims, expected {d_s}")
    if not np.isfinite(x_su).all():
        raise NumericalError("non-finite values in the extra source rows")
    check_count("k", k, 1)
    if k >= n:
        raise ValueError(f"k={k} out of range for {n} correspondence rows")
    check_weight("lambda2", lambda2)

    x_stack = np.vstack([x_sc, x_su]) if x_su.size else x_sc
    source_codes = source_codes_offline(x_stack, c, iters, seed, tol=tol)
    graph = knn_hamming_graph(BinaryCodeMatrix(source_codes.signs[:n]), k)
    lap = laplacian(graph)

    previous = None  # the last sweep's codes and graph term

    def relaxed_step(scores):
        # up to a constant, J at the current rotations is -2 <B, S> + lambda2
        # <B, L B>: keep the last sweep's codes where they score better
        nonlocal previous
        relaxed, _ = box_qp_minimize(scores.T, lap, lambda2, DEFAULT_INNER_ITERS)
        signs = sgn(relaxed)
        term = lambda2 * float(np.vdot(signs, lap.csr @ signs))
        if previous is not None:
            last_signs, last_term = previous
            if term - last_term > 2.0 * float(np.vdot(signs - last_signs, scores)):
                return previous
        previous = signs, term
        return previous

    state = alternating_solve(x_t, x_sc, c, lambda1, iters, seed, relaxed_step, tol=tol)
    state.graph = graph
    return state
