"""Exception and warning types shared across the package, and the shared checks
for integer parameters and sweeps at the API boundary."""

import numbers

import numpy as np


class BathforgeError(Exception):
    """Base class for all package errors."""

    category = "internal"


class ConfigError(BathforgeError):
    """Malformed or inconsistent configuration input."""

    category = "config"


class ValidationError(BathforgeError):
    """Physically or numerically invalid parameters or data."""

    category = "validation"


class NyquistError(ValidationError):
    """Sample grid too coarse for the highest comb tooth."""


class FitError(BathforgeError):
    """Nonlinear fit failed to converge or data are degenerate."""

    category = "fit"


class AmplitudeRangeWarning(UserWarning):
    """Fractional amplitude noise large enough to drive the field negative."""


def require_int(name: str, value, low: int, high: int | None = None) -> None:
    """Reject bools, non-integers and values outside [low, high]; numpy integers pass."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValidationError(f"{name} must be >= {low}, got {value}")
    if high is not None and value > high:
        raise ValidationError(f"{name} must be in [{low}, {high}], got {value}")


def require_sweep(name: str, values) -> np.ndarray:
    """A non-empty sweep of finite values >= 0 as a float array."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0 or not np.all(np.isfinite(arr)) or np.any(arr < 0):
        raise ValidationError(f"{name} must be a non-empty list of finite values >= 0")
    return arr
