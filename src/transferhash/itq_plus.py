"""Privileged-information quantization: codes regularized by a source-side slack.

Home of the alternating solve shared by every trainer.  Each sweep runs a
code step on the blended target/source scores, a target rotation step,
and a slack rotation step fitting the quantization error from the
privileged view.  itq is the solve with sign codes and no privileged view,
itq+ with balanced codes, and lapitq+ with a graph-regularized relaxed step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codes import BinaryCodeMatrix, sgn
from .errors import NumericalError, check_count, check_matrix, check_weight
from .itq import (
    DEFAULT_ITERS,
    DEFAULT_STEP_ITERS,
    DEFAULT_TOL,
    balanced_signs,
    gram_bound,
    procrustes,
    random_orthonormal,
)

DEFAULT_LAMBDA1 = 0.01


@dataclass
class ItqPlusState:
    """One fit: the solve's final blocks, its per-sweep objective, lapitq+'s graph."""

    codes: BinaryCodeMatrix
    rotation: np.ndarray
    slack_rotation: np.ndarray | None
    objective_trace: list
    graph: object = None


def itq_plus_objective(codes, rotation, slack_rotation, x_t, x_sc, lambda1) -> float:
    """||E||_F^2 + lambda1 ||E - X_sc P||_F^2 with E = B - X_t R.

    This is the functional every block update is exactly optimal for, so
    the alternating solve descends it monotonically.  At lambda1 = 0 it
    equals the plain quantization loss; x_sc = None (no privileged view)
    drops the slack term.
    """
    signs = codes.signs if isinstance(codes, BinaryCodeMatrix) else np.asarray(codes)
    x_t = np.asarray(x_t, dtype=np.float64)
    err = signs - x_t @ rotation
    loss = float(np.sum(err * err))
    if x_sc is None:
        return loss
    x_sc = np.asarray(x_sc, dtype=np.float64)
    if err.shape != (x_sc.shape[0], np.asarray(slack_rotation).shape[1]):
        raise ValueError("shape mismatch between codes, data, and rotations")
    slack = err - x_sc @ slack_rotation
    return loss + float(lambda1) * float(np.sum(slack * slack))


def blend_scores(x_t, rotation, x_sc, slack_rotation, lambda1) -> np.ndarray:
    """The n x c score matrix (1+lambda1) X_t R + lambda1 X_sc P.

    Columns of the maximizing code matrix are read off this matrix; the
    balanced step selects from it, and the relaxed step's linear term K is
    its transpose.
    """
    scores = (1.0 + lambda1) * (np.asarray(x_t) @ rotation)
    if lambda1 != 0.0:
        scores = scores + lambda1 * (np.asarray(x_sc) @ slack_rotation)
    return scores


def update_b_balanced(scores) -> BinaryCodeMatrix:
    """Balanced code matrix maximizing the per-entry score sum.

    Per column the ceil(n/2) largest scores get +1 and the rest -1, ties
    broken by ascending row index; |column sum| <= 1, and 0 for even n.
    scores must be a matrix with at least 2 rows, else ValueError.
    """
    return BinaryCodeMatrix(balanced_step(scores)[0])


def update_r(codes, x_t, x_sc, slack_rotation, lambda1, previous=None, *,
             gram) -> np.ndarray:
    """Target-rotation step: procrustes toward B - lambda1/(lambda1+1) X_sc P.

    gram is gram_bound(x_t), or None for a square rotation, which needs none.
    """
    check_weight("lambda1", lambda1)
    signs = codes.signs if isinstance(codes, BinaryCodeMatrix) else np.asarray(codes)
    target = signs.astype(np.float64)
    if lambda1 > 0:
        target = target - (lambda1 / (lambda1 + 1.0)) * (np.asarray(x_sc) @ slack_rotation)
    return procrustes(target, x_t, previous, max_iter=DEFAULT_STEP_ITERS, gram=gram)


def update_p(codes, x_t, rotation, x_sc, previous=None, *, gram) -> np.ndarray:
    """Slack-rotation step: procrustes fit of the quantization error from X_sc.

    gram is gram_bound(x_sc), or None for a square rotation, which needs none.
    When the fit is flat (X_sc^T E = 0 with a square P, or X_sc = 0), the
    previous rotation, if given, is kept.
    """
    signs = codes.signs if isinstance(codes, BinaryCodeMatrix) else np.asarray(codes)
    err = signs - np.asarray(x_t) @ rotation
    return procrustes(err, x_sc, previous, max_iter=DEFAULT_STEP_ITERS, gram=gram)


def sign_step(scores):
    """itq's code step: B = sgn(scores), with no objective term of its own."""
    return sgn(scores), 0.0


def balanced_step(scores):
    """itq+'s code step: balanced_signs of scores with at least 2 rows, no term."""
    return balanced_signs(check_matrix("scores", scores, 2)), 0.0


def check_solve_args(x_t, x_sc, c, lambda1, iters, tol):
    """alternating_solve's entry check; returns x_t and x_sc as float64 arrays.

    ValueError unless x_t is a matrix with rows, x_sc None (then lambda1 = 0) or
    a matrix with as many rows, c and iters counts >= 1, lambda1 and tol weights,
    and c at most each view's width; NumericalError for non-finite views.
    """
    x_t = check_matrix("x_t", x_t, 1)
    check_count("c", c, 1)
    check_count("iters", iters, 1)
    check_weight("lambda1", lambda1)
    check_weight("tol", tol)
    if x_sc is None and lambda1 != 0:
        raise ValueError("lambda1 must be 0 without a privileged view")
    x_sc = None if x_sc is None else check_matrix("x_sc", x_sc, rows=x_t.shape[0])
    width = x_t.shape[1] if x_sc is None else min(x_t.shape[1], x_sc.shape[1])
    if c > width:
        raise ValueError(f"code length {c} exceeds view width {width}")
    if not (np.isfinite(x_t).all() and (x_sc is None or np.isfinite(x_sc).all())):
        raise NumericalError("non-finite values in the training views")
    return x_t, x_sc


def alternating_solve(x_t, x_sc, c: int, lambda1: float, iters: int, seed,
                      code_step, *, tol: float):
    """The alternating minimization behind itq, itq+ and lapitq+.

    Each sweep runs the code step on the blended scores (blend_scores), a
    target rotation step (update_r), a slack rotation step (update_p, only
    when lambda1 > 0, since the slack cannot move codes or R otherwise),
    records itq_plus_objective plus the code step's term (lapitq+'s graph
    term), and stops once its relative change is below tol (0 disables).
    The sweep forms X_t R once after the target rotation step and X_sc P
    once after the slack step; the two products serve the next code step's
    scores, both rotation targets and the trace term, with the same
    operations in the same order as those single-step functions.  Code
    steps return int8 signs, and the codes are wrapped in a
    BinaryCodeMatrix once, at the end.
    No rotation step ends worse than its warm start, so the trace cannot
    rise if no code step scores worse than the last sweep's codes on its
    scores.  x_sc = None runs without a privileged view: plain
    quantization, with lambda1 = 0.  check_solve_args checks the arguments;
    both rotations start from random_orthonormal with the given seed.  A
    sweep whose objective is not finite raises NumericalError.

    Returns ItqPlusState(codes, rotation, slack_rotation, trace); the
    slack rotation is None without a privileged view.
    """
    x_t, x_sc = check_solve_args(x_t, x_sc, c, lambda1, iters, tol)
    d_t = x_t.shape[1]
    slack_rotation = None if x_sc is None else random_orthonormal(x_sc.shape[1], c, seed)
    rotation = random_orthonormal(d_t, c, seed)
    # X_t and X_sc stay fixed, so each rotation step's majorizer is built
    # once per fit; a square rotation has a closed form and needs none
    gram_t = gram_bound(x_t) if d_t > c else None
    gram_sc = gram_bound(x_sc) if lambda1 > 0 and x_sc.shape[1] > c else None

    x_r = x_t @ rotation
    x_p = None if x_sc is None else x_sc @ slack_rotation
    trace: list[float] = []
    for _ in range(iters):
        scores = (1.0 + lambda1) * x_r
        if lambda1 != 0.0:
            scores = scores + lambda1 * x_p
        signs, term = code_step(scores)
        target = signs.astype(np.float64)
        if lambda1 > 0:
            target = target - (lambda1 / (lambda1 + 1.0)) * x_p
        rotation = procrustes(target, x_t, rotation, max_iter=DEFAULT_STEP_ITERS,
                              gram=gram_t)
        x_r = x_t @ rotation
        err = signs - x_r
        if lambda1 > 0:
            slack_rotation = procrustes(err, x_sc, slack_rotation,
                                        max_iter=DEFAULT_STEP_ITERS, gram=gram_sc)
            x_p = x_sc @ slack_rotation
        # a square rotation builds no gram_bound, so views whose squares
        # overflow reach this sum: refuse it rather than record inf
        with np.errstate(over="ignore", invalid="ignore"):
            loss = float(np.sum(err * err))
            if x_sc is not None:
                slack = err - x_p
                loss = loss + float(lambda1) * float(np.sum(slack * slack))
        total = loss + term
        if not math.isfinite(total):
            raise NumericalError("the objective overflows float64: the views' "
                                 "values are too large")
        trace.append(total)
        if tol > 0 and len(trace) >= 2:
            prev, cur = trace[-2], trace[-1]
            if abs(prev - cur) < tol * max(abs(prev), 1e-30):
                break
    return ItqPlusState(BinaryCodeMatrix(signs), rotation, slack_rotation, trace)


def itq_plus_train(x_t, x_sc, c: int, lambda1: float = DEFAULT_LAMBDA1,
                   iters: int = DEFAULT_ITERS, seed=0, *,
                   tol: float = DEFAULT_TOL):
    """Alternating optimization over codes, target rotation, and slack rotation.

    x_t and x_sc are centered, row-aligned views of the n >= 2 training
    instances.  This is alternating_solve with the balanced code step
    (balanced_step).  The objective is recorded after each full sweep.

    Returns the solve's ItqPlusState; bench.fit_model builds the HashModel.
    """
    x_t = check_matrix("x_t", x_t, 2)
    return alternating_solve(x_t, x_sc, c, lambda1, iters, seed, balanced_step, tol=tol)
