"""Plain iterative quantization: alternate sign codes with a procrustes rotation.

Also home of the orthogonal-procrustes solver behind every trainer's
rotation steps and of the balanced sign rule.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import NumericalError, check_count, check_matrix, check_weight

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
    check_count("d", d, 1)
    check_count("c", c, 1)
    if c > d:
        raise ValueError(f"cannot build {d}x{c} orthonormal matrix: c > d")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, c))
    q, r = np.linalg.qr(g)
    # fix column signs so the factorization is unique per seed
    signs = np.where(np.diag(r) >= 0, 1.0, -1.0)
    return q * signs


@functools.lru_cache(maxsize=16)
def _identity(c: int) -> np.ndarray:
    """The c x c identity, built once per code length and read-only."""
    eye = np.eye(c)
    eye.flags.writeable = False
    return eye


def _polar(w) -> np.ndarray:
    """Orthonormal polar factor U V^T, the Stiefel maximizer of tr(R^T W).

    Scaled to unit RMS singular value, a nearly orthonormal w (the usual
    input inside the procrustes loop) converges to U V^T under the
    Newton-Schulz iteration X <- X + X (I - X^T X) / 2 in a few d x c
    products.  It converges whenever ||I - X^T X||_F < 1 at the start;
    otherwise (an ill-conditioned, rank-deficient or zero w), or when it
    has not converged within _NS_MAX_STEPS, the SVD gives the factor.
    A step allocates only the X^T X product and the next X: the c x c
    identity is cached, and I - X^T X, then I + (I - X^T X) / 2, are
    formed in the product's own buffer.  w must be finite; procrustes
    checks X^T A, the w it starts from, and nothing here checks again.
    """
    c = w.shape[1]
    sq_norm = float(np.vdot(w, w))
    if sq_norm > 0.0:
        x = w * math.sqrt(c / sq_norm)
        eye = _identity(c)
        for _ in range(_NS_MAX_STEPS):
            step = x.T @ x
            np.subtract(eye, step, out=step)  # the residual I - X^T X
            err2 = float(np.vdot(step, step))
            if err2 >= 1.0:
                break
            step *= 0.5
            step += eye
            x = x @ step
            if err2 <= _NS_LAST_STEP**2:
                return x  # the error squares each step: now at rounding level
    u, _, vt = np.linalg.svd(w, full_matrices=False)
    return u @ vt


def gram_bound(x) -> tuple[np.ndarray, float]:
    """G = X^T X and mu = lambda_max(G), the majorizer procrustes builds from X.

    A trainer holds X fixed for a whole fit, so it computes these once and
    passes them to every procrustes call as gram=.  A G that is not
    finite, from non-finite X or from X^T X overflowing float64, is a
    NumericalError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        gram = x.T @ x
    if not np.isfinite(gram).all():
        raise NumericalError("X^T X is not finite: the data are non-finite or "
                             "their Gram matrix overflows float64")
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
    best iterate is returned, so the result is never worse than r0.

    Checks, in order: a and x are matrices with equal row counts,
    max_iter an integer >= 0 and tol a real >= 0, c <= d, r0 of shape
    d x c (ValueError).  Then one finiteness test on the d x c product
    X^T A stands for a and x, since a NaN or +-inf anywhere in either
    makes a whole row or column of X^T A non-finite (0 * inf is NaN; with
    c = 0, x itself is tested); a finite a and x whose X^T A overflows
    float64 fail it too (NumericalError).
    r0 must be finite (NumericalError) with ||r0^T r0 - I||_F <= 1e-8
    (ValueError).  gram=None computes G and mu here, through gram_bound.
    Trainers pass max_iter=DEFAULT_STEP_ITERS (5), a short descent that
    the next sweep warms again, and gram=gram_bound(x), computed once per
    fit since X does not change.
    """
    a = check_matrix("a", a)
    x = check_matrix("x", x, rows=a.shape[0])
    check_count("max_iter", max_iter, 0)
    check_weight("tol", tol)
    if a.shape[1] > x.shape[1]:
        raise ValueError(
            f"target has {a.shape[1]} columns but data only {x.shape[1]} dims"
        )
    if r0 is not None:
        r0 = np.asarray(r0, dtype=np.float64)
        if r0.shape != (x.shape[1], a.shape[1]):
            raise ValueError(f"warm start has shape {r0.shape}, "
                             f"expected {(x.shape[1], a.shape[1])}")
    with np.errstate(over="ignore", invalid="ignore"):
        cross = x.T @ a
    # with no code column, X^T A has no entries to carry a bad value of x
    if not (np.isfinite(cross).all() if cross.size else np.isfinite(x).all()):
        if np.isfinite(a).all() and np.isfinite(x).all():
            raise NumericalError("X^T A overflows float64 in procrustes")
        raise NumericalError("non-finite values in procrustes inputs")
    if r0 is not None:
        if not np.isfinite(r0).all():
            raise NumericalError("non-finite values in procrustes inputs")
        off = (r0.T @ r0).ravel()  # ||r0^T r0 - I||_F, as np.linalg.norm forms it
        off[::r0.shape[1] + 1] -= 1.0
        if not math.sqrt(off.dot(off)) <= 1e-8:
            raise ValueError("warm start r0 must have orthonormal columns")

    d, c = cross.shape
    if d == c:
        # ||X R||^2 is fixed for square R; a zero X^T A leaves nothing to fit
        return r0 if r0 is not None and not np.any(cross) else _polar(cross)

    gram, mu = gram_bound(x) if gram is None else gram
    a_sq = float(np.vdot(a, a))
    cross2 = 2.0 * cross

    def evaluate(r):
        """||X R - A||^2, and G R, which the next majorizer reuses."""
        gr = gram @ r
        return a_sq + float(np.vdot(r, gr - cross2)), gr

    best_r = r = _polar(cross) if r0 is None else r0
    best_f, gr = evaluate(r)
    f_cur = best_f
    for _ in range(max_iter):
        majorizer = mu * r  # X^T A + mu R - G R, in one buffer
        majorizer += cross
        majorizer -= gr
        r = _polar(majorizer)
        f_new, gr = evaluate(r)
        if f_new < best_f:
            best_r, best_f = r, f_new
        if abs(f_cur - f_new) <= tol * max(abs(f_cur), 1.0):
            break
        f_cur = f_new
    return best_r


def balanced_signs(scores) -> np.ndarray:
    """Per column, give +1 to the ceil(n/2) largest scores, -1 to the rest.

    Ties break by ascending row index (-0.0 ties with 0.0).  For odd n the
    column sums are +1, the closest feasible point to exact balance.  A
    selection in O(n c), not a sort: the scores above each column's
    ceil(n/2)-th largest (np.partition) get +1, then its ties in row order.
    scores must be an n x c matrix (ValueError) with no NaN (NumericalError).
    """
    scores = check_matrix("scores", scores)
    if np.isnan(scores).any():
        raise NumericalError("NaN in the balanced code step's scores")
    n, c = scores.shape
    if n == 0:
        return np.empty((0, c), dtype=np.int8)
    kth = n - (n + 1) // 2  # ascending rank of the ceil(n/2)-th largest score
    cut = np.partition(scores, kth, axis=0)[kth]
    plus = scores > cut
    tied = scores == cut
    places_left = n - kth - np.count_nonzero(plus, axis=0)
    plus |= tied & (np.cumsum(tied, axis=0, dtype=np.int32) <= places_left)
    return plus.astype(np.int8) * np.int8(2) - np.int8(1)


def itq_train(x, c: int, iters: int = DEFAULT_ITERS, seed=0, *,
              tol: float = DEFAULT_TOL):
    """Alternating minimization of ||B - X R||_F^2 over sign codes and rotations.

    This is the shared alternating solve of itq_plus run with no privileged
    view and the sign code step: the code step reads B = sgn(X R), and the
    rotation step is the procrustes fit of X R to B.

    Parameters
    ----------
    x : centered data matrix, n x d with d >= c
    c : code length
    iters : maximum outer iterations
    seed : seeds the random orthonormal start
    tol : relative-change early stop; 0 disables

    Returns (codes, rotation, losses) with one loss per executed iteration;
    the loss sequence is non-increasing.
    """
    from .itq_plus import alternating_solve, sign_step  # itq_plus builds on this module

    state = alternating_solve(x, None, c, 0.0, iters, seed, sign_step, tol=tol)
    return state.codes, state.rotation, state.objective_trace
