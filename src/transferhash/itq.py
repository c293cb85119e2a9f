"""Plain iterative quantization: alternate sign codes with a procrustes rotation.

Also home of the shared orthogonal-procrustes solver and the quantization
loss used by every trainer in the package.
"""

from __future__ import annotations

import numpy as np

from .codes import BinaryCodeMatrix
from .errors import NumericalError

DEFAULT_ITERS = 150
DEFAULT_TOL = 1e-6
DEFAULT_STEP_ITERS = 60  # rotation-step refinement cap inside trainers


def random_orthonormal(d: int, c: int, seed) -> np.ndarray:
    """Seeded random d x c matrix with orthonormal columns (QR of a Gaussian)."""
    if c > d:
        raise ValueError(f"cannot build {d}x{c} orthonormal matrix: c > d")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, c))
    q, r = np.linalg.qr(g)
    # fix column signs so the factorization is unique per seed
    signs = np.where(np.diag(r) >= 0, 1.0, -1.0)
    return q * signs


def is_orthonormal(r, tol: float = 1e-8) -> bool:
    r = np.asarray(r)
    gram = r.T @ r
    return bool(np.linalg.norm(gram - np.eye(r.shape[1])) <= tol)


def _polar(w) -> np.ndarray:
    """Orthonormal polar factor U V^T, the Stiefel maximizer of tr(R^T W)."""
    u, _, vt = np.linalg.svd(w, full_matrices=False)
    return u @ vt


def procrustes(a, x, r0=None, *, max_iter: int = 500, tol: float = 1e-13) -> np.ndarray:
    """Orthonormal d x c matrix R minimizing ||X R - A||_F^2.

    For square R (d == c) the thin-SVD closed form U V^T of X^T A is the
    exact minimizer.  For d > c the ||X R||^2 term varies over the Stiefel
    manifold and the closed form only maximizes the cross term, so it is
    refined by a monotone majorize-minimize loop (each step re-polarizes
    X^T A + (mu I - X^T X) R with mu the top eigenvalue of X^T X).  Passing
    r0 adds a warm start; the best iterate ever evaluated is returned, so
    the result is never worse than r0.
    """
    a = np.asarray(a, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if a.shape[0] != x.shape[0]:
        raise ValueError(f"row mismatch: scores {a.shape[0]} vs data {x.shape[0]}")
    if a.shape[1] > x.shape[1]:
        raise ValueError(
            f"target has {a.shape[1]} columns but data only {x.shape[1]} dims"
        )
    if not (np.isfinite(a).all() and np.isfinite(x).all()):
        raise NumericalError("non-finite values in procrustes inputs")

    cross = x.T @ a
    closed = _polar(cross)
    d, c = closed.shape
    if d == c:
        return closed

    gram = x.T @ x
    mu = float(np.linalg.eigvalsh(gram)[-1])

    def objective(r):
        diff = x @ r - a
        return float(np.sum(diff * diff))

    # descend from the better of {closed form, warm start}; prefer the warm
    # start on ties so a no-improvement step is a no-op
    best_r, best_f = closed, objective(closed)
    if r0 is not None:
        r0 = np.asarray(r0, dtype=np.float64)
        f0 = objective(r0)
        if f0 <= best_f:
            best_r, best_f = r0, f0
    r, f_cur = best_r, best_f
    for _ in range(max_iter):
        r = _polar(cross + mu * r - gram @ r)
        f_new = objective(r)
        if f_new < best_f:
            best_r, best_f = r, f_new
        if abs(f_cur - f_new) <= tol * max(abs(f_cur), 1.0):
            break
        f_cur = f_new
    return best_r


def quantization_loss(codes, x, rotation) -> float:
    """||B - X R||_F^2 for a code matrix, data matrix, and rotation."""
    signs = codes.signs if isinstance(codes, BinaryCodeMatrix) else np.asarray(codes)
    x = np.asarray(x, dtype=np.float64)
    rotation = np.asarray(rotation, dtype=np.float64)
    if signs.shape != (x.shape[0], rotation.shape[1]) or x.shape[1] != rotation.shape[0]:
        raise ValueError(
            f"shape mismatch: codes {signs.shape}, data {x.shape}, "
            f"rotation {rotation.shape}"
        )
    diff = signs - x @ rotation
    return float(np.sum(diff * diff))


def balanced_signs(scores) -> np.ndarray:
    """Per column, give +1 to the ceil(n/2) largest scores, -1 to the rest.

    Ties break by ascending row index.  For odd n the column sums are +1,
    the closest feasible point to exact balance.
    """
    scores = np.asarray(scores, dtype=np.float64)
    n, c = scores.shape
    positives = (n + 1) // 2
    order = np.argsort(-scores, axis=0, kind="stable")
    signs = np.full((n, c), -1, dtype=np.int8)
    cols = np.arange(c)
    signs[order[:positives], cols] = 1
    return signs


def itq_train(x, c: int, iters: int = DEFAULT_ITERS, seed=0, *,
              tol: float = DEFAULT_TOL, r0=None, balanced: bool = False):
    """Alternating minimization of ||B - X R||_F^2 over sign codes and rotations.

    This is the shared alternating solve of itq_plus run with no privileged
    view: the code step reads B off X R, and the rotation step is the
    procrustes fit of X R to B.

    Parameters
    ----------
    x : centered data matrix, n x d with d >= c
    c : code length
    iters : maximum outer iterations
    seed : seeds the random orthonormal start when r0 is not given
    tol : relative-change early stop; 0 disables
    r0 : optional explicit starting rotation
    balanced : use the balanced (half +1 per column) code step instead of sgn

    Returns (codes, rotation, losses) with one loss per executed iteration;
    the loss sequence is non-increasing.
    """
    from .itq_plus import CODE_STEPS, alternating_solve  # itq_plus builds on this module

    code_step = CODE_STEPS["balanced" if balanced else "sign"]
    codes, rotation, _, losses = alternating_solve(
        x, None, c, 0.0, iters, seed, code_step, tol=tol, r0=r0)
    return codes, rotation, losses
