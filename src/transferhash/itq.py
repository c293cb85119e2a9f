"""Plain iterative quantization: alternate sign codes with a procrustes rotation.

Also home of the shared orthogonal-procrustes solver and the quantization
loss used by every trainer in the package.
"""

from __future__ import annotations

import math

import numpy as np

from .codes import BinaryCodeMatrix
from .errors import NumericalError

DEFAULT_ITERS = 150
DEFAULT_TOL = 1e-6
DEFAULT_STEP_ITERS = 60  # rotation-step refinement cap inside trainers

# Newton-Schulz in _polar: a step cap (from any start it converges from,
# c <= 64 needs at most 11 steps), and the ||I - X^T X||_F below which one
# more step leaves an error at rounding level (each step maps e to ~3e^2/4)
_NS_MAX_STEPS = 16
_NS_LAST_STEP = 1e-8


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
    """Orthonormal polar factor U V^T, the Stiefel maximizer of tr(R^T W).

    Scaled to unit RMS singular value, a nearly orthonormal w (the usual
    input inside the procrustes loop) converges to U V^T under the
    Newton-Schulz iteration X <- X + X (I - X^T X) / 2 in a few d x c
    products.  It converges whenever ||I - X^T X||_F < 1 at the start;
    otherwise (an ill-conditioned, rank-deficient or zero w), or when it
    has not converged within _NS_MAX_STEPS, the SVD gives the factor.
    """
    c = w.shape[1]
    sq_norm = float(np.vdot(w, w))
    if sq_norm > 0.0:
        x = w * math.sqrt(c / sq_norm)
        eye = np.eye(c)
        for _ in range(_NS_MAX_STEPS):
            resid = eye - x.T @ x
            err2 = float(np.vdot(resid, resid))
            if err2 >= 1.0:
                break
            x = x @ (eye + 0.5 * resid)
            if err2 <= _NS_LAST_STEP**2:
                return x  # the error squares each step: now at rounding level
    u, _, vt = np.linalg.svd(w, full_matrices=False)
    return u @ vt


def procrustes(a, x, r0=None, *, max_iter: int = 500, tol: float = 1e-13) -> np.ndarray:
    """Orthonormal d x c matrix R minimizing ||X R - A||_F^2.

    For square R (d == c) the closed form, the polar factor U V^T of
    X^T A, is the exact minimizer.  For d > c the ||X R||^2 term varies
    over the Stiefel manifold and the closed form only maximizes the cross
    term, so it is refined by a monotone majorize-minimize loop: each step
    re-polarizes X^T A + (mu I - G) R, with G = X^T X and mu its top
    eigenvalue.  The loop works in Gram form, ||A||^2 - 2 <R, X^T A> +
    <R, G R>, so a step costs O(d^2 c) whatever n is, and its nearly
    orthonormal input gets its polar factor from the Newton-Schulz
    iteration of _polar; the SVD stays for an ill-conditioned closed form
    and as the fallback.  Passing r0 adds a warm start; the best iterate
    ever evaluated is returned, so the result is never worse than r0.
    Trainers pass max_iter=DEFAULT_STEP_ITERS: a fixed descent from the
    warm start, not a solve to convergence.
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
    a_sq = float(np.vdot(a, a))

    def evaluate(r):
        """||X R - A||^2, and G R, which the next majorizer reuses."""
        gr = gram @ r
        return a_sq + float(np.vdot(r, gr - 2.0 * cross)), gr

    # descend from the better of {closed form, warm start}; prefer the warm
    # start on ties so a no-improvement step is a no-op
    best_r = closed
    best_f, best_gr = evaluate(closed)
    if r0 is not None:
        r0 = np.asarray(r0, dtype=np.float64)
        f0, gr0 = evaluate(r0)
        if f0 <= best_f:
            best_r, best_f, best_gr = r0, f0, gr0
    r, f_cur, gr = best_r, best_f, best_gr
    for _ in range(max_iter):
        r = _polar(cross + mu * r - gr)
        f_new, gr = evaluate(r)
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
