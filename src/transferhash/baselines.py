"""Comparison hashers: random-hyperplane signs and CCA-initialized quantization."""

from __future__ import annotations

import numpy as np

from .errors import check_count
from .itq import DEFAULT_ITERS, itq_train
from .preprocess import cca_fit, project


def lsh_fit(d: int, c: int, seed=0) -> np.ndarray:
    """Random-projection sign hashing: c i.i.d. Gaussian hyperplanes.

    d and c must be integers >= 1 (ValueError).  Returns the d x c plane
    matrix, which takes the place of a rotation (it is not orthonormal);
    thresholds are zero, so codes are signs of linear functionals of the
    centered input.  bench.fit_model builds the model around it.
    """
    check_count("d", d, 1)
    check_count("c", c, 1)
    return np.random.default_rng(seed).standard_normal((d, c))


def cca_itq_fit(x_t, x_sc, c: int, iters: int = DEFAULT_ITERS, seed=0):
    """Quantization on the target-side canonical projection of paired views.

    Fits CCA on the centered correspondence pairs, projects the target view
    onto its top-c canonical directions, then runs plain quantization there.
    Returns (canonical projection, rotation): the encoder composes the two,
    and bench.fit_model builds the model around them.
    """
    left, _, _ = cca_fit(x_t, x_sc, c)
    _, rotation, _ = itq_train(project(x_t, left), c, iters, seed)
    return left, rotation
