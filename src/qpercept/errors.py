"""Exception types shared across the package, and the input checks they share."""
import math
import numbers


class QPerceptError(ValueError):
    """Base class for all qpercept errors."""


class DimensionMismatch(QPerceptError):
    """Operands act on Hilbert spaces of different dimension."""


class ValidationError(QPerceptError):
    """Input violates a structural invariant (shape, positivity, partition...)."""


class InvalidExperience(QPerceptError):
    """An experience operator produced a measure below -TOL."""


class ZeroMeasure(QPerceptError):
    """A conditioning set or perception has zero (or undefined) measure."""


class DegenerateInput(QPerceptError):
    """The computation is undefined for this degenerate input."""


class UnknownLabel(QPerceptError, KeyError):
    """A perception label that the space or family does not hold; a KeyError
    too, so mapping-style callers keep working."""


def check_finite(what: str, *values) -> None:
    """Raise ValidationError unless every value is a finite real number.

    Every int is finite, also one too large for a float.
    """
    for value in values:
        if not (isinstance(value, int) or math.isfinite(value)):
            raise ValidationError(f"{what} must be finite, got {value}")


def check_seed(seed) -> None:
    """Raise ValidationError unless the seed is a nonnegative integer."""
    if not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise ValidationError(f"the seed must be a nonnegative integer, got {seed!r}")


def json_field(data, key: str, what: str):
    """data[key] of a JSON object read from outside the program, or a ValidationError."""
    if not isinstance(data, dict) or key not in data:
        raise ValidationError(f"{what} JSON has no key {key!r}")
    return data[key]
