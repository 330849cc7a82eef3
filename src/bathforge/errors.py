"""Exception and warning types shared across the package."""


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
