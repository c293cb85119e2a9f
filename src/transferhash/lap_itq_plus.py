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

from .codes import BinaryCodeMatrix, sgn
from .errors import NumericalError
from .itq import DEFAULT_ITERS, DEFAULT_TOL, itq_train
from .itq_plus import (
    DEFAULT_LAMBDA1,
    ItqPlusState,
    alternating_solve,
    identity_model,
    itq_plus_objective,
)

DEFAULT_LAMBDA2 = 0.01
DEFAULT_K = 5
DEFAULT_INNER_ITERS = 100
_STEP_DELTA = 1e-12
_POWER_STEPS = 50


@dataclass(frozen=True, eq=False)
class AdjacencyGraph:
    """Symmetric 0/1 neighbor graph without self-loops."""

    weights: np.ndarray
    k: int

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.uint8)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError("adjacency must be square")
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    def edges(self):
        """Undirected edges as (i, j) pairs with i < j."""
        ii, jj = np.nonzero(np.triu(self.weights, 1))
        return list(zip(ii.tolist(), jj.tolist()))


def _csr_array(*args, **kwargs):
    import scipy.sparse  # imported at first use: it costs about as much as importing this package
    return scipy.sparse.csr_array(*args, **kwargs)


@dataclass(frozen=True, eq=False)
class LaplacianMatrix:
    """L = D - W with the largest eigenvalue cached for step sizing.

    `csr` accepts any square matrix, dense or sparse, and holds it as a
    float64 CSR array, so a product L B costs O(edges * c).
    """

    csr: object
    lambda_max: float

    def __post_init__(self):
        csr = _csr_array(self.csr, dtype=np.float64)
        if csr.ndim != 2 or csr.shape[0] != csr.shape[1]:
            raise ValueError("laplacian must be square")
        object.__setattr__(self, "csr", csr)

    @property
    def n(self) -> int:
        return self.csr.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        """L as a dense n x n array, built on each access."""
        return self.csr.toarray()


def source_codes_offline(x_s, c: int, iters: int = DEFAULT_ITERS, seed=0,
                         *, tol: float = DEFAULT_TOL) -> BinaryCodeMatrix:
    """Plain quantization codes for the stacked source rows (run offline)."""
    codes, _, _ = itq_train(x_s, c, iters, seed, tol=tol)
    return codes


def knn_hamming_graph(codes: BinaryCodeMatrix, k: int) -> AdjacencyGraph:
    """Directed k-nearest-neighbors by Hamming distance, symmetrized by union.

    Ties break by ascending index; all edge weights are 1.
    """
    n = codes.rows
    if not 1 <= k < n:
        raise ValueError(f"k={k} out of range for {n} codes")
    packed = codes.packed
    dists = np.empty((n, n), dtype=np.int64)
    for i in range(n):
        dists[i] = np.bitwise_count(packed ^ packed[i]).sum(axis=1)
    np.fill_diagonal(dists, codes.bits + 1)  # exclude self from neighbor lists
    order = np.argsort(dists, axis=1, kind="stable")
    weights = np.zeros((n, n), dtype=np.uint8)
    rows = np.repeat(np.arange(n), k)
    weights[rows, order[:, :k].ravel()] = 1
    weights = np.maximum(weights, weights.T)
    np.fill_diagonal(weights, 0)
    return AdjacencyGraph(weights, k)


def laplacian(graph: AdjacencyGraph) -> LaplacianMatrix:
    """L = D - W with lambda_max estimated by 50 power-iteration steps.

    L is built from the stored entries of W: each row keeps its diagonal
    D_ii - W_ii and its nonzero W_ij, in ascending column order.
    """
    w = graph.weights
    stored = w != 0
    np.fill_diagonal(stored, True)
    rows, cols = np.nonzero(stored)
    values = -w[rows, cols].astype(np.float64)
    values[rows == cols] += w.sum(axis=1, dtype=np.float64)  # one diagonal entry per row
    indptr = np.concatenate(([0], np.cumsum(np.count_nonzero(stored, axis=1))))
    lap = _csr_array((values, cols, indptr), shape=(graph.n, graph.n))
    rng = np.random.default_rng(0)
    v = rng.standard_normal(graph.n)
    v /= np.linalg.norm(v)
    lam = 0.0
    lv = lap @ v
    for _ in range(_POWER_STEPS):
        norm = np.linalg.norm(lv)
        if norm < 1e-30:
            return LaplacianMatrix(lap, 0.0)
        v = lv / norm
        lv = lap @ v
        lam = float(v @ lv)
    return LaplacianMatrix(lap, lam)


def write_edge_list(graph: AdjacencyGraph, path) -> None:
    """Debug dump: one `i j` pair per undirected edge."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, j in graph.edges():
            fh.write(f"{i} {j}\n")


def relaxed_objective(b, k_mat, lap: LaplacianMatrix, lambda2: float) -> float:
    """-2 tr(B K) + lambda2 tr(B^T L B) over the box [-1, 1]^(n x c)."""
    b = np.asarray(b, dtype=np.float64)
    lap_b = lap.csr @ b if lambda2 != 0.0 else None
    return _relaxed_value(b, lap_b, -2.0 * np.asarray(k_mat, dtype=np.float64).T, lambda2)


def _relaxed_value(b, lap_b, linear_grad, lambda2: float) -> float:
    """relaxed_objective given the products L B and -2 K^T."""
    value = float(np.vdot(b, linear_grad))
    if lambda2 != 0.0:
        value += lambda2 * float(np.vdot(b, lap_b))
    return value


def box_qp_minimize(k_mat, lap: LaplacianMatrix, lambda2: float,
                    inner_iters: int = DEFAULT_INNER_ITERS):
    """Projected gradient descent for the relaxed code step.

    Gradient -2 K^T + 2 lambda2 L B, Lipschitz step 1/(2 lambda2 lambda_max
    + delta), clipping to the box each step, started from sgn(K^T).
    Returns (relaxed solution, objective trace); the trace is non-increasing.
    Each step multiplies by the sparse L once: the product serves both the
    trace value of the current iterate and the gradient taken from it.
    """
    k_mat = np.asarray(k_mat, dtype=np.float64)
    if not np.isfinite(k_mat).all():
        raise NumericalError("non-finite score matrix in relaxed code step")
    if lambda2 < 0:
        raise ValueError("lambda2 must be >= 0")
    linear_grad = np.ascontiguousarray(-2.0 * k_mat.T)  # n x c
    b = sgn(k_mat.T).astype(np.float64, order="C")
    step = 1.0 / (2.0 * lambda2 * lap.lambda_max + _STEP_DELTA)
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
                       tol: float = DEFAULT_TOL,
                       return_graph: bool = False):
    """Alternating solve with the graph-regularized relaxed code step.

    Source codes are learned on stack(x_sc, x_su); the neighbor graph uses
    only the first n rows (the ones aligned with target instances).  The
    run is alternating_solve with a code step that minimizes the box QP on
    the blended scores and takes signs.  The objective trace records the
    full regularized objective at the relaxed codes of each sweep, before
    binarization and the rotation steps, so unlike the itq and itq+ traces
    it can rise from one sweep to the next.

    Returns (HashModel, ItqPlusState).
    """
    x_t = np.asarray(x_t, dtype=np.float64)
    x_sc = np.asarray(x_sc, dtype=np.float64)
    x_su = np.asarray(x_su, dtype=np.float64) if x_su is not None else np.empty((0, x_sc.shape[1]))
    if x_su.size and x_su.shape[1] != x_sc.shape[1]:
        raise ValueError(
            f"extra source rows have {x_su.shape[1]} dims, expected {x_sc.shape[1]}"
        )
    n, d_t = x_t.shape
    if x_sc.shape[0] != n:
        raise ValueError(f"row mismatch: target {n} vs privileged {x_sc.shape[0]}")
    d_s = x_sc.shape[1]
    if c > min(d_t, d_s):
        raise ValueError(f"code length {c} exceeds min dimension {min(d_t, d_s)}")
    if not 1 <= k < n:
        raise ValueError(f"k={k} out of range for {n} correspondence rows")

    x_stack = np.vstack([x_sc, x_su]) if x_su.size else x_sc
    source_codes = source_codes_offline(x_stack, c, iters, seed, tol=tol)
    graph = knn_hamming_graph(BinaryCodeMatrix(source_codes.signs[:n]), k)
    lap = laplacian(graph)

    def relaxed_step(scores, rotation, slack_rotation):
        relaxed, _ = box_qp_minimize(scores.T, lap, lambda2, DEFAULT_INNER_ITERS)
        objective = (itq_plus_objective(relaxed, rotation, slack_rotation, x_t, x_sc, lambda1)
                     + lambda2 * float(np.vdot(relaxed, lap.csr @ relaxed)))
        return BinaryCodeMatrix(sgn(relaxed)), objective

    codes, rotation, slack_rotation, trace = alternating_solve(
        x_t, x_sc, c, lambda1, iters, seed, relaxed_step, tol=tol)
    state = ItqPlusState(codes, rotation, slack_rotation, lambda1, trace)
    model = identity_model("lapitq+", rotation, lambda1=lambda1, lambda2=lambda2,
                           k_graph=k, iters=iters, seed=seed)
    if return_graph:
        return model, state, graph
    return model, state
