"""Comparison hashers: random-hyperplane signs and CCA-initialized quantization."""

from __future__ import annotations

import numpy as np

from .errors import check_count
from .itq import DEFAULT_ITERS, itq_train
from .model import CenteringInfo, HashModel, LinearProjection, default_hyperparams
from .preprocess import cca_fit, project


def lsh_fit(d: int, c: int, seed=0) -> HashModel:
    """Random-projection sign hashing: c i.i.d. Gaussian hyperplanes.

    d and c must be integers >= 1 (ValueError).  Thresholds are zero, so
    codes are signs of linear functionals of the centered input.  The model
    carries a zero mean; bench.fit_model gives it the training mean, so that
    it encodes raw data.
    """
    check_count("d", d, 1)
    check_count("c", c, 1)
    rng = np.random.default_rng(seed)
    planes = rng.standard_normal((d, c))
    return HashModel(
        method="lsh",
        centering=CenteringInfo(np.zeros(d)),
        preprocessing=LinearProjection.identity(d),
        rotation=planes,  # not orthonormal; waived for random projections
        bits=c,
        hyperparams=default_hyperparams(seed=seed),
    )


def cca_itq_fit(x_t, x_sc, c: int, iters: int = DEFAULT_ITERS, seed=0) -> HashModel:
    """Quantization on the target-side canonical projection of paired views.

    Fits CCA on the centered correspondence pairs, projects the target view
    onto its top-c canonical directions, then runs plain quantization there.
    The returned encoder composes the canonical projection with the learned
    rotation.
    """
    left, _, _ = cca_fit(x_t, x_sc, c)
    projected = project(x_t, left)
    _, rotation, _ = itq_train(projected, c, iters, seed)
    return HashModel(
        method="cca-itq",
        centering=CenteringInfo(np.zeros(left.d_in)),
        preprocessing=left,
        rotation=rotation,
        bits=c,
        hyperparams=default_hyperparams(iters=iters, seed=seed),
    )
