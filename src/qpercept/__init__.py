"""Perception-measure statistics for finite-dimensional quantum states.

Submodules:
    operators   dense complex matrices, states, projectors, Haar sampling
    hypotheses  experience-operator variants and structural checks
    measures    perception spaces, measure profiles, typicalities
    inference   power-law exponent statistics and Bayesian updating
    bloch       closed forms of the qubit models and paired spins, math only
    toymodels   matrix and array routes of the models, linear-positivity Monte Carlo
    manyworlds  projector decompositions and the replicated functional
    reproduce   reference-constant battery
"""

from .errors import (
    DegenerateInput,
    DimensionMismatch,
    InvalidExperience,
    QPerceptError,
    UnknownLabel,
    ValidationError,
    ZeroMeasure,
)


def __getattr__(name: str):
    # the operators names of __all__ load numpy, so they are bound on first
    # use (PEP 562): `import qpercept` and the numpy-free subcommands skip it
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import operators

    return getattr(operators, name)


__version__ = "0.1.0"

__all__ = [
    "DegenerateInput",
    "DimensionMismatch",
    "InvalidExperience",
    "QPerceptError",
    "UnknownLabel",
    "ValidationError",
    "ZeroMeasure",
    "Operator",
    "ParamPositiveOp",
    "State",
    "bloch_projector",
    "expectation",
    "from_params",
    "haar_random_unitary",
    "identity",
    "is_projector",
    "tensor_product",
    "__version__",
]
