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
DEFAULT_STEP_ITERS = 5  # rotation-step refinement cap inside trainers

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


def gram_bound(x) -> tuple[np.ndarray, float]:
    """G = X^T X and mu = lambda_max(G), the majorizer procrustes builds from X.

    A trainer holds X fixed for a whole fit, so it computes these once and
    passes them to every procrustes call as gram=.
    """
    gram = x.T @ x
    return gram, float(np.linalg.eigvalsh(gram)[-1])


def procrustes(a, x, r0=None, *, max_iter: int = 500, tol: float = 1e-13,
               gram=None) -> np.ndarray:
    """Orthonormal d x c matrix R minimizing ||X R - A||_F^2.

    For square R (d == c) the closed form, the polar factor U V^T of
    X^T A, is the exact minimizer; when X^T A = 0 every R scores the same
    and a given r0 is returned as is.  For d > c the ||X R||^2 term varies
    over the Stiefel manifold, so a monotone majorize-minimize loop
    descends from the warm start r0, or from the closed form when there is
    none: each step re-polarizes X^T A + (mu I - G) R, with G = X^T X and
    mu its top eigenvalue.  The loop works in Gram form, ||A||^2 -
    2 <R, X^T A> + <R, G R>, so a step costs O(d^2 c) whatever n is, and
    _polar factors its nearly orthonormal input by Newton-Schulz; the SVD
    serves a start with no warm start, square R, and the fallback.  The
    best iterate is returned, so the result is never worse than r0, which
    must be d x c with orthonormal columns (ValueError) and finite
    (NumericalError).
    Trainers pass max_iter=DEFAULT_STEP_ITERS (5), a short descent that
    the next sweep warms again, and gram=gram_bound(x), computed once per
    fit since X does not change; without it G and mu are computed per call.
    """
    a = np.asarray(a, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if a.shape[0] != x.shape[0]:
        raise ValueError(f"row mismatch: scores {a.shape[0]} vs data {x.shape[0]}")
    if a.shape[1] > x.shape[1]:
        raise ValueError(
            f"target has {a.shape[1]} columns but data only {x.shape[1]} dims"
        )
    if r0 is not None:
        r0 = np.asarray(r0, dtype=np.float64)
        if r0.shape != (x.shape[1], a.shape[1]):
            raise ValueError(f"warm start has shape {r0.shape}, "
                             f"expected {(x.shape[1], a.shape[1])}")
    if not (np.isfinite(a).all() and np.isfinite(x).all()
            and (r0 is None or np.isfinite(r0).all())):
        raise NumericalError("non-finite values in procrustes inputs")
    if r0 is not None and not np.linalg.norm(r0.T @ r0 - np.eye(r0.shape[1])) <= 1e-8:
        raise ValueError("warm start r0 must have orthonormal columns")

    cross = x.T @ a
    d, c = cross.shape
    if d == c:
        # ||X R||^2 is fixed for square R; a zero X^T A leaves nothing to fit
        return r0 if r0 is not None and not np.any(cross) else _polar(cross)

    gram, mu = gram_bound(x) if gram is None else gram
    a_sq = float(np.vdot(a, a))

    def evaluate(r):
        """||X R - A||^2, and G R, which the next majorizer reuses."""
        gr = gram @ r
        return a_sq + float(np.vdot(r, gr - 2.0 * cross)), gr

    best_r = r = _polar(cross) if r0 is None else r0
    best_f, gr = evaluate(r)
    f_cur = best_f
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
    r0 : optional starting rotation, d x c with orthonormal columns
    balanced : use the balanced (half +1 per column) code step instead of sgn

    Returns (codes, rotation, losses) with one loss per executed iteration;
    the loss sequence is non-increasing.
    """
    from .itq_plus import CODE_STEPS, alternating_solve  # itq_plus builds on this module

    code_step = CODE_STEPS["balanced" if balanced else "sign"]
    codes, rotation, _, losses = alternating_solve(
        x, None, c, 0.0, iters, seed, code_step, tol=tol, r0=r0)
    return codes, rotation, losses
