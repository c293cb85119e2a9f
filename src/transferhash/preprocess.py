"""Dimensionality-reduction front ends: energy-threshold PCA and ridge CCA."""

from __future__ import annotations

import numpy as np

from .errors import NumericalError, check_count, check_matrix
from .model import LinearProjection

_EPS = 1e-12


def _fix_column_signs(m: np.ndarray) -> np.ndarray:
    """Make the first non-negligible component of every column positive."""
    m = m.copy()
    for j in range(m.shape[1]):
        col = m[:, j]
        nz = np.flatnonzero(np.abs(col) > _EPS * max(np.abs(col).max(), _EPS))
        if nz.size and col[nz[0]] < 0:
            m[:, j] = -col
    return m


def pca_fit(x, energy: float) -> LinearProjection:
    """Top eigenvectors of the covariance keeping the given energy fraction.

    x must be zero-centered.  d_out is the smallest k whose leading
    eigenvalues reach `energy` of the total; columns are eigenvalue-descending
    with the first nonzero component positive.
    """
    if not 0.0 < energy <= 1.0:
        raise ValueError(f"energy must be in (0, 1], got {energy}")
    x = np.asarray(x, dtype=np.float64)
    cov = (x.T @ x) / x.shape[0]
    eigvals, eigvecs = np.linalg.eigh(cov)
    eigvals = np.clip(eigvals[::-1], 0.0, None)
    eigvecs = eigvecs[:, ::-1]
    if eigvals.sum() <= 0.0:
        raise NumericalError("pca_fit: rank-0 input (all-zero matrix)")
    cum = np.cumsum(eigvals)
    reached = cum / cum[-1]
    k = int(np.searchsorted(reached, energy) + 1)
    k = min(k, eigvals.size)
    return LinearProjection(_fix_column_signs(eigvecs[:, :k]), "pca")


def _inverse_sqrt(cov: np.ndarray, origin: str) -> np.ndarray:
    vals, vecs = np.linalg.eigh(cov)
    if vals[-1] <= 0 or vals[0] <= _EPS * vals[-1]:
        raise NumericalError(f"{origin}: covariance is singular")
    return (vecs / np.sqrt(vals)) @ vecs.T


def cca_fit(x_a, x_b, c: int):
    """Top-c canonical direction pairs of two centered, row-aligned views.

    Solves the whitened cross-covariance SVD with ridge*I added to each
    autocovariance, ridge = 1e-6 * trace(cov)/d per side; an all-zero
    view leaves its covariance singular (NumericalError).  Returns
    (left projection, right projection, correlations descending); each
    canonical pair is sign-fixed jointly so the result is reproducible and
    symmetric under swapping the views.  Non-finite views raise
    NumericalError.
    """
    x_a = check_matrix("x_a", x_a, 1)
    n, d_a = x_a.shape
    x_b = check_matrix("x_b", x_b, rows=n)
    d_b = x_b.shape[1]
    check_count("c", c, 1)
    if c > min(d_a, d_b):
        raise ValueError(f"c={c} exceeds min view dimension {min(d_a, d_b)}")
    if not (np.isfinite(x_a).all() and np.isfinite(x_b).all()):
        raise NumericalError("non-finite values in cca_fit inputs")

    caa = (x_a.T @ x_a) / n
    cbb = (x_b.T @ x_b) / n
    cab = (x_a.T @ x_b) / n
    caa = caa + 1e-6 * np.trace(caa) / d_a * np.eye(d_a)
    cbb = cbb + 1e-6 * np.trace(cbb) / d_b * np.eye(d_b)

    isa = _inverse_sqrt(caa, "cca_fit left view")
    isb = _inverse_sqrt(cbb, "cca_fit right view")
    u, s, vt = np.linalg.svd(isa @ cab @ isb, full_matrices=False)
    left = isa @ u[:, :c]
    right = isb @ vt[:c].T

    # joint sign fix: flip each pair so the largest-magnitude entry across
    # both directions is positive (invariant under swapping the views)
    for j in range(c):
        stacked = np.concatenate([left[:, j], right[:, j]])
        if stacked[np.abs(stacked).argmax()] < 0:
            left[:, j] = -left[:, j]
            right[:, j] = -right[:, j]

    return (
        LinearProjection(left, "cca-left"),
        LinearProjection(right, "cca-right"),
        s[:c].copy(),
    )


def project(x, proj: LinearProjection) -> np.ndarray:
    """Apply a fitted projection: X @ proj.matrix (x a finite matrix)."""
    x = check_matrix("x", x)
    if not np.isfinite(x).all():
        raise NumericalError("non-finite values in project input")
    if x.shape[1] != proj.d_in:
        raise ValueError(
            f"matrix has {x.shape[1]} columns, projection expects {proj.d_in}"
        )
    return x @ proj.matrix
