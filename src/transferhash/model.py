"""Shared model records: centering, linear projections, and the hash model.

A trained HashModel is everything needed to encode a new point:
subtract the training mean, multiply by the model's one d x c encoder
(projection @ rotation, formed at construction), and take signs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import check_count

METHODS = ("itq", "itq+", "lapitq+", "lsh", "cca-itq")
PROJECTION_KINDS = ("pca", "cca-left", "cca-right", "lsh", "identity")

HYPERPARAM_KEYS = ("lambda1", "lambda2", "k_graph", "iters", "seed")


def _read_only_copy(values) -> np.ndarray:
    copy = np.array(values, dtype=np.float64)
    copy.flags.writeable = False
    return copy


@dataclass(frozen=True, eq=False)
class CenteringInfo:
    """Column means removed from the training data; reused for queries.

    Construction keeps a read-only float64 copy of the mean, so writing
    into the caller's array afterwards changes nothing here.
    """

    mean: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", _read_only_copy(self.mean))

    def apply(self, x):
        return np.asarray(x, dtype=np.float64) - self.mean


@dataclass(frozen=True, eq=False)
class LinearProjection:
    """A d_in x d_out projection applied before rotation learning, kept as a
    read-only float64 copy of the given matrix."""

    matrix: np.ndarray
    kind: str = "identity"

    def __post_init__(self):
        if self.kind not in PROJECTION_KINDS:
            raise ValueError(f"unknown projection kind {self.kind!r}")
        matrix = _read_only_copy(self.matrix)
        if matrix.ndim != 2:
            raise ValueError(f"projection of shape {matrix.shape} is not a 2-D matrix")
        object.__setattr__(self, "matrix", matrix)

    @property
    def d_in(self) -> int:
        return self.matrix.shape[0]

    @property
    def d_out(self) -> int:
        return self.matrix.shape[1]

    @classmethod
    def identity(cls, d: int) -> "LinearProjection":
        return cls(np.eye(d), "identity")


def default_hyperparams(**overrides):
    params = dict.fromkeys(HYPERPARAM_KEYS)
    for key, value in overrides.items():
        if key not in params:
            raise ValueError(f"unknown hyperparameter {key!r}")
        params[key] = value.item() if isinstance(value, np.generic) else value  # JSON takes these
    return params


@dataclass(frozen=True, eq=False)
class HashModel:
    """A trained encoder: centering, projection, rotation, and code length.

    Construction checks the invariants every consumer relies on: integer
    bits >= 1, a mean as long as the projection's input, shapes that chain
    mean -> projection -> rotation -> bits, and finite values throughout,
    the derived d x c encoder = projection @ rotation included.  All four
    arrays are read-only (the rotation is copied here), so no check goes stale.
    """

    method: str
    centering: CenteringInfo
    preprocessing: LinearProjection
    rotation: np.ndarray
    bits: int
    hyperparams: dict = field(default_factory=default_hyperparams)
    encoder: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        check_count("bits", self.bits, 1)
        rotation = _read_only_copy(self.rotation)
        if rotation.ndim != 2:
            raise ValueError(f"rotation of shape {rotation.shape} is not a 2-D matrix")
        object.__setattr__(self, "rotation", rotation)
        if self.preprocessing.d_out != rotation.shape[0]:
            raise ValueError(
                f"projection output dim {self.preprocessing.d_out} does not match "
                f"rotation input dim {rotation.shape[0]}"
            )
        if self.bits != rotation.shape[1]:
            raise ValueError(
                f"bits={self.bits} but rotation has {rotation.shape[1]} columns"
            )
        if self.centering.mean.shape != (self.preprocessing.d_in,):
            raise ValueError(
                f"mean length {self.centering.mean.size} does not match the "
                f"projection input dim {self.preprocessing.d_in}"
            )
        for name, values in (("mean", self.centering.mean),
                             ("projection", self.preprocessing.matrix),
                             ("rotation", rotation)):
            if not np.isfinite(values).all():
                raise ValueError(f"non-finite value in the model's {name}")
        with np.errstate(over="ignore", invalid="ignore"):
            encoder = self.preprocessing.matrix @ rotation
        if not np.isfinite(encoder).all():
            raise ValueError("the model's projection @ rotation overflows float64")
        encoder.flags.writeable = False
        object.__setattr__(self, "encoder", encoder)

    @property
    def input_dim(self) -> int:
        return self.centering.mean.shape[0]

