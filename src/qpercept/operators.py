"""Dense complex linear algebra for small Hilbert spaces.

Operators and states are immutable wrappers around complex matrices.  Every
measure in the package is an expectation Tr(state E) from one kernel,
`expectations`, which takes an (N, d, d) stack of operators and checks the
dimensions once; `expectation` is its batch of one.  Every array argument of
the package goes through one rule, `check_array`, into a finite float or
complex array.  All arithmetic is double precision.  Every structural check
compares against one absolute tolerance, TOL, on unit-scale matrices; a matrix
check goes through the max-norm predicate `negligible`.  TOL is defined in
`errors`, beside the other constants the command line reads before numpy, and
bound here as operators.TOL.  The only other thresholds are two named rounding
slacks, bloch.LINPOS_SLACK and inference.DE_QUAD_RTOL.  Random sampling takes
an explicit nonnegative integer seed and never shares generator state.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .bloch import bloch_vector, check_bloch_angles
from .errors import TOL, DimensionMismatch, ValidationError, check_int, check_real, json_field


def negligible(x) -> bool:
    """True iff every entry of x is within TOL of zero: the one structural rule."""
    return bool(np.max(np.abs(x)) <= TOL)


def pairwise_negligible(mats: Sequence[np.ndarray], pair: Callable) -> bool:
    """True iff pair(A, B) is negligible for every pair of the matrices."""
    return all(negligible(pair(a, b)) for a, b in itertools.combinations(mats, 2))


def _holds_bool(value) -> bool:
    """Whether a bool sits among the entries of a nested sequence of one shape."""
    kinds = set(map(type, np.asarray(value, dtype=object).flat))
    return bool in kinds or np.bool_ in kinds


def check_array(what: str, value, ndim: int | None = None, dtype=float) -> np.ndarray:
    """value as a finite float (or complex) array of ndim axes, or a
    ValidationError naming what.  A numeric array is checked in one pass, and a
    float64 (complex128) one comes back uncopied; bools, strings and ints beyond
    int64 go entry by entry, as given, through errors.check_real.  A sequence
    is scanned for bools first, since numpy reads True among floats as 1.0."""
    try:
        arr = np.asarray(value)
    except ValueError:  # a ragged list
        raise ValidationError(f"{what} must be an array of numbers of one shape") from None
    numeric = arr.dtype.kind in ("iufc" if dtype is complex else "iuf") and (
        isinstance(value, np.ndarray) or not _holds_bool(value)
    )
    arr = arr.astype(dtype, copy=False) if numeric else arr
    if not (numeric and np.isfinite(arr).all()):
        entries = np.asarray(value, dtype=object)
        for entry in entries.flat:
            for part in (entry.real, entry.imag) if dtype is complex and isinstance(entry, complex) else (entry,):
                check_real(f"each entry of {what}", part)
        arr = entries.astype(dtype)
    if ndim is not None and arr.ndim != ndim:
        raise ValidationError(f"{what} must be a {ndim}-dimensional array, got shape {arr.shape}")
    return arr


def _as_square_complex(entries) -> np.ndarray:
    mat = check_array("the matrix", entries, 2, complex)
    if mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
        raise ValidationError(f"expected a square matrix, got shape {mat.shape}")
    mat.setflags(write=False)
    return mat


@dataclass(frozen=True)
class Operator:
    """A finite-dimensional complex matrix (observable, projector, class operator...)."""

    mat: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mat", _as_square_complex(self.mat))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def dagger(self) -> "Operator":
        return Operator(self.mat.conj().T)

    def __matmul__(self, other: "Operator") -> "Operator":
        if self.dim != other.dim:
            raise DimensionMismatch(f"dims {self.dim} and {other.dim}")
        return Operator(self.mat @ other.mat)

    def __add__(self, other: "Operator") -> "Operator":
        if self.dim != other.dim:
            raise DimensionMismatch(f"dims {self.dim} and {other.dim}")
        return Operator(self.mat + other.mat)

    def __sub__(self, other: "Operator") -> "Operator":
        if self.dim != other.dim:
            raise DimensionMismatch(f"dims {self.dim} and {other.dim}")
        return Operator(self.mat - other.mat)

    def __rmul__(self, scalar) -> "Operator":
        return Operator(complex(scalar) * self.mat)

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "re": self.mat.real.tolist(),
            "im": self.mat.imag.tolist(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "Operator":
        re, im, dim = (json_field(data, key, "operator") for key in ("re", "im", "dim"))
        re, im = check_array("operator field 're'", re, 2), check_array("operator field 'im'", im, 2)
        if re.shape != im.shape or re.shape != (dim, dim):
            raise ValidationError("re/im blocks do not match the declared dim")
        return cls(re + 1j * im)


@dataclass(frozen=True)
class State:
    """Density operator: Hermitian, positive semidefinite, unit trace (within TOL)."""

    mat: np.ndarray

    def __post_init__(self):
        mat = _as_square_complex(self.mat)
        object.__setattr__(self, "mat", mat)
        if not negligible(mat - mat.conj().T):
            raise ValidationError("state is not Hermitian within tolerance")
        if abs(np.trace(mat).real - 1.0) > TOL or abs(np.trace(mat).imag) > TOL:
            raise ValidationError("state trace differs from 1 beyond tolerance")
        if np.min(np.linalg.eigvalsh((mat + mat.conj().T) / 2)) < -TOL:
            raise ValidationError("state has an eigenvalue below -TOL")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @classmethod
    def pure(cls, vector) -> "State":
        v = check_array("the state vector", vector, dtype=complex).reshape(-1)
        norm = np.linalg.norm(v)
        if norm <= 0 or not np.isfinite(norm):
            raise ValidationError("pure state vector must have positive finite norm")
        v = v / norm
        return cls(np.outer(v, v.conj()))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "State":
        dim = check_int("dim", dim, 1)
        return cls(np.eye(dim, dtype=complex) / dim)

    @classmethod
    def from_bloch(cls, polar: float, azimuth: float) -> "State":
        """Pure two-state density matrix pointing along (polar, azimuth)."""
        check_bloch_angles(polar, azimuth)
        return cls(bloch_projector(polar, azimuth).mat)

    to_json = Operator.to_json

    @classmethod
    def from_json(cls, data: dict) -> "State":
        return cls(Operator.from_json(data).mat)


@dataclass(frozen=True)
class ParamPositiveOp:
    """Bloch-style parameters (t, x, y, z) of a positive 2x2 operator.

    Positivity requires t >= sqrt(x^2 + y^2 + z^2).
    """

    t: float
    x: float
    y: float
    z: float

    def __post_init__(self):
        for name in "txyz":
            object.__setattr__(self, name, check_real(f"the parameter {name}", getattr(self, name)))
        r = math.sqrt(self.x**2 + self.y**2 + self.z**2)
        if self.t < r - TOL:
            raise ValidationError(f"t={self.t} violates t >= sqrt(x^2+y^2+z^2)={r}")


def identity(dim: int) -> Operator:
    return Operator(np.eye(check_int("dim", dim, 1), dtype=complex))


def expectations(state: State, stack: np.ndarray) -> np.ndarray:
    """Tr(state E) for every operator E of an (N, d, d) stack: the package's one
    expectation kernel, complex in general and real for Hermitian E."""
    if state.dim != stack.shape[-1]:
        raise DimensionMismatch(f"state dim {state.dim} != operator dim {stack.shape[-1]}")
    return np.trace(state.mat @ stack, axis1=1, axis2=2)


def expectation(state: State, op: Operator) -> complex:
    """Expectation value Tr(state . op): the kernel's batch of one."""
    return complex(expectations(state, op.mat[np.newaxis])[0])


def bloch_projector(polar: float, azimuth: float) -> Operator:
    """Rank-one projector onto the spin-half state along (polar, azimuth)."""
    polar, azimuth = check_real("the polar angle", polar), check_real("the azimuth", azimuth)
    c, s = math.cos(polar), math.sin(polar)
    phase = complex(math.cos(azimuth), math.sin(azimuth))
    return Operator(0.5 * np.array([[1 + c, s * phase], [s * phase.conjugate(), 1 - c]]))


def from_params(p: ParamPositiveOp) -> Operator:
    """Positive 2x2 operator [[t+z, x+iy], [x-iy, t-z]]."""
    return Operator(
        np.array(
            [[p.t + p.z, p.x + 1j * p.y], [p.x - 1j * p.y, p.t - p.z]], dtype=complex
        )
    )


def tensor_product(a: Operator, b: Operator) -> Operator:
    """Kronecker product, row-major block order with `a` as the outer factor."""
    return Operator(np.kron(a.mat, b.mat))


def is_hermitian(op: Operator) -> bool:
    return negligible(op.mat - op.mat.conj().T)


def is_projector(op: Operator) -> bool:
    """True iff op is Hermitian and idempotent within TOL (max-norm)."""
    return is_hermitian(op) and negligible(op.mat @ op.mat - op.mat)


def haar_random_unitary(dim: int, seed: int, size: int | None = None):
    """Haar-distributed unitary via QR of a complex Ginibre matrix.

    The R-diagonal phase correction makes the distribution exactly Haar.
    Deterministic for a fixed seed.  With `size` given, returns a stacked
    (size, dim, dim) array instead of a single Operator.
    """
    dim = check_int("dim", dim, 1)
    rng = np.random.default_rng(check_int("the seed", seed, 0))
    shape = (dim, dim) if size is None else (check_int("size", size, 0), dim, dim)
    z = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    phase = d / np.abs(d)
    q = q * phase[..., np.newaxis, :]
    if size is None:
        return Operator(q)
    return q
