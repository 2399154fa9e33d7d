"""Exception types shared across the package, the input checks they share,
and the defaults and bounds the command line reads before it imports numpy.

One rule decides what an integer argument is, and one what a real argument
is.  `check_int` takes a Python or numpy integer, never a bool and never a
float however integral; `check_real` takes a Python or numpy real number,
never a bool, finite as a float (an int beyond the float range is not), and
returns the float.  Each applies its range to every such parameter of the
package, a strict bound being one more comparison on the returned float, and
a test scans the source for any other integer or real-argument test.
"""
import math
import numbers

# the one absolute tolerance of every structural check, on unit-scale values
TOL = 1e-9
# the seed of a seeded run that names none
DEFAULT_SEED = 42
# linear-positivity Monte Carlo draws its samples in blocks of BLOCK
BLOCK = 2**16
# a run-time bound, not a memory one (memory is one block): about 0.06 s per
# 10^6 samples on a 2-core Xeon VM, so 10^9 take about a minute
MAX_SAMPLES = 10**9
# not a cost bound (the divided-cat measure is O(parts)): 1023 is the largest
# count for which the fraction 2^(1-parts) is still a normal double
MAX_PARTS = 1023


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


def check_int(what: str, value, lo: int | None, hi: int | None = None) -> int:
    """int(value) for an integer in [lo, hi] (None leaves that end open), or a
    ValidationError naming what and the value."""
    # a plain int skips the Integral test, an ABC check some 15 times slower
    integer = type(value) is int or (isinstance(value, numbers.Integral) and not isinstance(value, bool))
    if integer and (lo is None or lo <= value) and (hi is None or value <= hi):
        return int(value)
    need = "" if lo is None else f" >= {lo}" if hi is None else f" in [{lo}, {hi}]"
    raise ValidationError(f"{what} must be an integer{need}, got {value!r}")


def check_real(what: str, value, lo: float | None = None, hi: float | None = None) -> float:
    """float(value) for a finite real number in [lo, hi] (None leaves that end
    open), or a ValidationError naming what and the value."""
    # a float, numpy's float64 included, skips the Real test, an ABC check
    real = isinstance(value, float) or (isinstance(value, numbers.Real) and not isinstance(value, bool))
    try:
        x = float(value) if real else math.nan
    except OverflowError:  # an int beyond the float range
        x = math.inf
    if math.isfinite(x) and (lo is None or lo <= x) and (hi is None or x <= hi):
        return x
    need = "" if lo is None else f" >= {lo}" if hi is None else f" in [{lo}, {hi}]"
    raise ValidationError(f"{what} must be a finite real number{need}, got {value!r}")


def json_field(data, key: str, what: str):
    """data[key] of a JSON object read from outside the program, or a ValidationError."""
    if not isinstance(data, dict) or key not in data:
        raise ValidationError(f"{what} JSON has no key {key!r}")
    return data[key]
