"""Exception types mapped to CLI exit codes (config=2, data=3, numerical=4),
and the argument checks shared by every trainer, step and setting (ValueError)."""

import numbers

import numpy as np


class ConfigError(Exception):
    """Bad configuration value or inconsistent run parameters."""


class DataError(Exception):
    """Unreadable, malformed, or dimensionally inconsistent input data."""


class ParseError(DataError):
    """A file could not be parsed; message names the offending line/offset."""


class NumericalError(Exception):
    """A numerical routine failed (singular matrix, non-finite values)."""


def check_count(name: str, value, minimum: int) -> None:
    """ValueError unless value is a whole number >= minimum.

    Python and numpy integers count; a bool, a float (even a whole one) or
    anything else does not.
    """
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < minimum):
        raise ValueError(f"{name}={value} must be an integer >= {minimum}")


def check_matrix(name: str, x, min_rows: int = 0, rows: int | None = None) -> np.ndarray:
    """x as a float64 array; ValueError unless it is 2-D with at least
    min_rows rows, and exactly `rows` rows when given."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < min_rows:
        at_least = f" with at least {min_rows} row{'s' * (min_rows > 1)}" if min_rows else ""
        raise ValueError(f"{name} of shape {x.shape} is not a matrix{at_least}")
    if rows is not None and x.shape[0] != rows:
        raise ValueError(f"row mismatch: {name} has {x.shape[0]} rows, expected {rows}")
    return x


def check_weight(name: str, value) -> None:
    """ValueError unless value is a finite real number >= 0."""
    if not (isinstance(value, numbers.Real) and 0.0 <= value < np.inf):
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


def check_whole(name: str, value, minimum: int) -> int:
    """value as an int; ValueError unless it is a real number with a whole
    value >= minimum (unlike check_count, whole floats such as 5.0 count;
    as there, a bool does not)."""
    if isinstance(value, bool) or not (
            isinstance(value, numbers.Integral)
            or isinstance(value, numbers.Real) and float(value).is_integer()):
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")
    return int(value)
