"""Run configuration: defaults, validation, and the key=value file format."""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from .data import MATRIX_FORMATS, read_text_lines
from .errors import ConfigError, check_count, check_weight, check_whole
from .evaluate import DEFAULT_GT_RANK, DEFAULT_KS
from .itq import DEFAULT_ITERS
from .itq_plus import DEFAULT_LAMBDA1
from .lap_itq_plus import DEFAULT_K, DEFAULT_LAMBDA2
from .model import METHODS

DEFAULT_BITS = (8, 16, 32, 64)
DEFAULT_SEEDS = tuple(range(10))


@dataclass(frozen=True)
class RunConfig:
    """Everything a benchmark run needs; round-trips through its file format.

    Defaults the library also uses are read from the modules that use them.
    """

    methods: tuple = ("itq",)
    bits: tuple = DEFAULT_BITS
    alpha: float = 0.5
    test_fraction: float = 0.1
    lambda1: float = DEFAULT_LAMBDA1
    lambda2: float = DEFAULT_LAMBDA2
    k_graph: int = DEFAULT_K
    iters: int = DEFAULT_ITERS
    seeds: tuple = DEFAULT_SEEDS
    pca_energy: float | None = None
    target: str | None = None
    source: str | None = None
    format: str = "thpi-bin"
    r_groundtruth: int = DEFAULT_GT_RANK
    ks: tuple = DEFAULT_KS

    def validate(self) -> "RunConfig":
        """self, or ConfigError for the first value out of its range; counts
        and weights follow errors.py's rules, as the library's arguments do."""
        for name in ("methods", "bits", "seeds", "ks"):
            values = getattr(self, name)
            if not (isinstance(values, (tuple, list)) and values):
                raise ConfigError(f"{name} must be a non-empty tuple, got {values!r}")
        for method in self.methods:
            if method not in METHODS:
                raise ConfigError(f"unknown method {method!r}")
        try:
            for bits in self.bits:
                check_count("bits", bits, 1)
            for seed in self.seeds:
                check_count("seed", seed, 0)
            check_count("k_graph", self.k_graph, 1)
            check_count("iters", self.iters, 1)
            for name in ("alpha", "test_fraction", "lambda1", "lambda2"):
                check_weight(name, getattr(self, name))
            if self.pca_energy is not None:
                check_weight("pca_energy", self.pca_energy)
            check_whole("r_groundtruth", self.r_groundtruth, 1)
            for k in self.ks:
                check_whole("K", k, 1)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigError(f"alpha must be in (0, 1], got {self.alpha}")
        if not self.test_fraction < 1.0:
            raise ConfigError(f"test_fraction must be in [0, 1), got {self.test_fraction}")
        if self.pca_energy is not None and not 0.0 < self.pca_energy <= 1.0:
            raise ConfigError(f"pca_energy must be in (0, 1], got {self.pca_energy}")
        # each (method, bits, seed) cell is run and written once
        for name in ("methods", "bits", "seeds"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ConfigError(f"{name} must not repeat a value, got {values}")
        if self.format not in MATRIX_FORMATS:
            raise ConfigError(f"unknown matrix format {self.format!r}")
        return self


def _int_list(raw: str) -> tuple:
    return tuple(int(part) for part in raw.split(",") if part.strip())


def _str_list(raw: str) -> tuple:
    return tuple(part.strip() for part in raw.split(",") if part.strip())


# how a RunConfig field is read from a config-file value or a CLI flag
PARSERS = {
    "methods": _str_list,
    "bits": _int_list,
    "alpha": float,
    "test_fraction": float,
    "lambda1": float,
    "lambda2": float,
    "k_graph": int,
    "iters": int,
    "seeds": _int_list,
    "pca_energy": float,
    "target": str,
    "source": str,
    "format": str,
    "r_groundtruth": int,
    "ks": _int_list,
}
_DEFAULTS = {f.name: f.default for f in fields(RunConfig)}


def _format_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def read_config_file(path) -> dict:
    """Parse a key=value config file (# comments, blank lines ignored)."""
    values = {}
    for lineno, line in enumerate(read_text_lines(path, ConfigError), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: line {lineno}: expected key=value")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in PARSERS:
            raise ConfigError(f"unknown config key {key!r}")
        # fields that default to None read "none" as unset
        if raw.lower() == "none" and _DEFAULTS[key] is None:
            values[key] = None
            continue
        try:
            values[key] = PARSERS[key](raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {raw!r} ({exc})") from None
    return values


def write_config_file(config: RunConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for f in fields(config):
            fh.write(f"{f.name}={_format_value(getattr(config, f.name))}\n")


def merge_config(base: RunConfig, overrides: dict) -> RunConfig:
    """Apply non-None overrides onto a base config."""
    known = {f.name for f in fields(base)}
    bad = set(overrides) - known
    if bad:
        raise ConfigError(f"unknown config keys: {sorted(bad)}")
    updates = {k: v for k, v in overrides.items() if v is not None}
    return replace(base, **updates)
