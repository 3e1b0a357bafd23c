"""Exception and warning types shared across the package."""

from __future__ import annotations


class QndError(Exception):
    """Base class for all errors raised by this package."""


class LayoutError(QndError, ValueError):
    """Unknown component label, or a pulse/block index outside the layout."""


class DimensionMismatchError(QndError, ValueError):
    """An array does not have the shape the phase-space layout requires."""


class NotSymmetricError(QndError, ValueError):
    """A covariance block departs from symmetry beyond tolerance."""


class NotPositiveSemidefiniteError(QndError, ValueError):
    """A covariance failed the PSD check while strict checking is enabled."""


class UndefinedInputError(QndError, ValueError):
    """An input at which the model or a closed-form expression is undefined
    (a non-finite number, a zero denominator, a negative variance input,
    and similar)."""


class UninformativeCouplingError(QndError):
    """A delta covariance sits at (or below) its noise floor, so ratio
    estimators built on it carry no information."""


class SamplerUnsupportedError(QndError):
    """A matrix handed to the sampler is too indefinite to factor."""


class ConfigError(QndError, ValueError):
    """Configuration file could not be parsed or validated. The message
    names the offending field or the line/column of the syntax error."""


class RecordError(QndError, ValueError):
    """A shot-record file is malformed or inconsistent with its sidecar."""


class PositivityWarning(UserWarning):
    """Covariance has an eigenvalue below the PSD tolerance; emitted instead
    of an exception when strict checking is off."""
