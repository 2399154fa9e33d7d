"""Ordered projector decompositions of the identity, the operator-family
metric, and the replicated-space decoherence functional.

A rank pattern (r_1, ..., r_m) summing to the Hilbert dimension labels a
compact manifold of decompositions of real dimension dim^2 - sum(r_i^2);
sampling uses Haar-random unitaries so region integrals can be estimated by
seeded Monte Carlo with membership predicates.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, ValidationError, check_int, check_real, json_field
from .operators import TOL, Operator, State, check_array, expectations, haar_random_unitary
from .operators import negligible, pairwise_negligible


@dataclass(frozen=True)
class ProjectorDecomposition:
    """Ordered orthogonal projectors of fixed ranks summing to the identity."""

    dim: int
    ranks: tuple[int, ...]
    projectors: tuple[Operator, ...]

    def __post_init__(self):
        ranks = _validate_ranks(self.dim, self.ranks)
        object.__setattr__(self, "ranks", ranks)
        object.__setattr__(self, "dim", int(self.dim))
        projectors = tuple(self.projectors)
        object.__setattr__(self, "projectors", projectors)
        if len(projectors) != len(ranks):
            raise ValidationError("one projector per rank required")
        if any(p.dim != self.dim for p in projectors):
            raise DimensionMismatch(f"every projector must have dimension {self.dim}")
        if not negligible(sum(p.mat for p in projectors) - np.eye(self.dim)):
            raise ValidationError("projectors must sum to the identity")
        if not pairwise_negligible([p.mat for p in projectors], np.matmul):
            raise ValidationError("projectors must be pairwise orthogonal")
        for p, r in zip(projectors, ranks):
            if abs(np.trace(p.mat).real - r) > TOL:
                raise ValidationError("projector trace does not match its declared rank")

    def __len__(self) -> int:
        return len(self.ranks)

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "ranks": list(self.ranks),
            "projectors": [p.to_json() for p in self.projectors],
        }

    @classmethod
    def from_json(cls, data: dict) -> "ProjectorDecomposition":
        dim, ranks, ops = (json_field(data, key, "decomposition") for key in ("dim", "ranks", "projectors"))
        check_int("decomposition field 'dim'", dim, 1)
        if not isinstance(ranks, list):
            raise ValidationError(f"decomposition field 'ranks' must be a list of integers, got {ranks!r}")
        ranks = tuple(check_int("each entry of decomposition field 'ranks'", r, 1) for r in ranks)
        if not isinstance(ops, list):
            raise ValidationError(f"decomposition field 'projectors' must be a list, got {ops!r}")
        return cls(dim=dim, ranks=ranks, projectors=tuple(Operator.from_json(p) for p in ops))


def _validate_ranks(dim: int, ranks: Sequence[int]) -> tuple[int, ...]:
    """The ranks as a tuple of ints: positive integers partitioning the integer dim."""
    dim = check_int("dim", dim, 1)
    if not np.iterable(ranks):
        raise ValidationError(f"ranks must be a sequence of integers, got {ranks!r}")
    ranks = tuple(check_int("each rank", r, 1) for r in ranks)
    if sum(ranks) != dim:
        raise ValidationError(f"ranks {ranks} do not partition dim {dim}")
    return ranks


def manifold_dimension(dim: int, ranks: Sequence[int]) -> int:
    """Real dimension dim^2 - sum(r_i^2) of the space of decompositions."""
    ranks = _validate_ranks(dim, ranks)
    return sum(ranks) ** 2 - sum(r * r for r in ranks)  # the ranks sum to dim


def sample_decomposition(dim: int, ranks: Sequence[int], seed: int) -> ProjectorDecomposition:
    """Decomposition from contiguous column blocks of a Haar-random unitary."""
    ranks = _validate_ranks(dim, ranks)
    u = haar_random_unitary(dim, seed).mat
    projectors = []
    start = 0
    for r in ranks:
        block = u[:, start : start + r]
        projectors.append(Operator(block @ block.conj().T))
        start += r
    return ProjectorDecomposition(dim=dim, ranks=ranks, projectors=tuple(projectors))


def density_at(decomposition: ProjectorDecomposition, state: State) -> np.ndarray:
    """Expectations of each projector in the state; they sum to one."""
    return expectations(state, np.stack([p.mat for p in decomposition.projectors])).real


def gram_metric(derivs: np.ndarray) -> np.ndarray:
    """Gram metric g_ij = Re sum Tr[(d_i C)^dag (d_j C)] at each of N points.

    derivs has shape (N, k, ...), the family's derivatives along k coordinates;
    trailing axes (operator index, matrix entries) are summed over.
    """
    d = check_array("the family's derivatives", derivs, dtype=complex)
    d = d.reshape(d.shape[0], d.shape[1], -1)
    return np.matmul(d.conj(), d.transpose(0, 2, 1)).real


def family_metric(
    family: Callable[[np.ndarray], list[np.ndarray]],
    points: np.ndarray,
    step_sizes: Sequence[float],
    check_step: bool = False,
) -> np.ndarray:
    """Gram-matrix metric of a parameterized class-operator family.

    family(x) returns the list of class operators at parameter vector x; the
    metric is g_ij = sum_alpha Re Tr[(d_i C_alpha)^dag (d_j C_alpha)] with
    central differences of size step_sizes.  With check_step the computation
    repeats at half steps and rejects families whose metric has not converged.
    Returns an (n_points, k, k) array.
    """
    pts = np.atleast_2d(check_array("the points", points))
    steps = tuple(step_sizes) if np.iterable(step_sizes) else ()
    if len(steps) != pts.shape[1]:
        raise ValidationError("one step per coordinate required")
    steps = np.array([check_real("a step size", h) for h in steps])
    if np.any(steps <= 0):
        raise ValidationError(f"a step size must be positive, got {float(steps.min())!r}")

    first = None  # the shape of the family's first output, which every output must have

    def metric(h: np.ndarray) -> np.ndarray:
        nonlocal first
        derivs = []
        for x in pts:
            rows = []
            for i, shift in enumerate(np.diag(h)):
                plus, minus = family(x + shift), family(x - shift)
                if len(plus) != len(minus):
                    raise ValidationError("family must return a fixed number of operators")
                for c in (*plus, *minus):
                    first = np.shape(c) if first is None else first
                    if np.shape(c) != first:
                        raise DimensionMismatch(f"family outputs of shapes {first} and {np.shape(c)}")
                with np.errstate(over="ignore", invalid="ignore"):  # a subnormal step; gram_metric rejects the inf
                    rows.append([(p - m) / (2 * h[i]) for p, m in zip(plus, minus)])
            derivs.append(rows)
        return gram_metric(derivs)

    out = metric(steps)
    if check_step:
        refined = metric(steps / 2)
        scale = max(1.0, float(np.max(np.abs(out))))
        if np.max(np.abs(out - refined)) > 1e-2 * scale:
            raise ValidationError("metric has not converged; reduce the step sizes")
    return out


def _check_steps(decompositions: Sequence[ProjectorDecomposition], dim: Optional[int] = None) -> tuple:
    """The steps as a tuple: at least one, all of dimension dim (the first step's by default)."""
    decomps = tuple(decompositions)
    if len(decomps) == 0:
        raise ValidationError("need at least one step")
    dim = decomps[0].dim if dim is None else dim
    if any(d.dim != dim for d in decomps):
        raise DimensionMismatch(f"every step must have dimension {dim}")
    return decomps


def _check_term(decomps: Sequence[ProjectorDecomposition], d_idx: int, p_idx: int) -> None:
    if not 0 <= d_idx < len(decomps):
        raise ValidationError(f"decomposition index {d_idx} out of range")
    if not 0 <= p_idx < len(decomps[d_idx]):
        raise ValidationError(f"projector index {p_idx} out of range")


class ReplicatedDecoherenceFunctional:
    """Bilinear pairing of histories over replicated copies of one state.

    An atomic history picks one projector index per step; its pairing with
    another history is the product over steps of <P(h'_k) P(h_k)>.  Sums of
    atomic histories (unit coefficients) extend bilinearly.  Off-diagonal
    atomic pairs always vanish because each step's projectors are orthogonal.
    """

    def __init__(self, state: State, decompositions: Sequence[ProjectorDecomposition]):
        decomps = _check_steps(decompositions, state.dim)
        self.state = state
        self.decompositions = decomps
        # <P_j P_i> per step, indexed [step][j, i]: one kernel call on the m^2 products
        self._pair = []
        for d in decomps:
            p = np.stack([q.mat for q in d.projectors])
            products = (p[:, np.newaxis] @ p[np.newaxis]).reshape(-1, d.dim, d.dim)
            self._pair.append(expectations(state, products).reshape(len(d), len(d)))

    @property
    def steps(self) -> int:
        return len(self.decompositions)

    def _check(self, history: Sequence[int]) -> tuple[int, ...]:
        if not np.iterable(history):
            raise ValidationError(f"a history must be a sequence of integers, got {history!r}")
        h = tuple(history)
        if len(h) != self.steps:
            raise ValidationError("history length must equal the number of steps")
        return tuple(check_int("a history index", i, 0, len(d) - 1) for i, d in zip(h, self.decompositions))

    def atomic(self, h, h_prime) -> complex:
        h = self._check(h)
        hp = self._check(h_prime)
        out = complex(1.0)
        for k in range(self.steps):
            out *= self._pair[k][hp[k], h[k]]
        return out

    def evaluate(self, histories, histories_prime) -> complex:
        """Pairing of two unit-coefficient sums of atomic histories."""
        return sum(
            self.atomic(h, hp) for h in histories for hp in histories_prime
        )

    def all_histories(self):
        return itertools.product(*[range(len(d)) for d in self.decompositions])

    def diagonal(self) -> dict[tuple[int, ...], float]:
        """Weights <P(h_1)>...<P(h_n)> of every atomic history; they sum to 1."""
        return {h: self.atomic(h, h).real for h in self.all_histories()}


@dataclass(frozen=True)
class SpectralExperience:
    """Per-perception spectral data: terms (coefficient, step index, projector index).

    Each perception's experience operator is the nonnegative combination
    sum(coefficient * P) of projectors drawn from the per-step decompositions.
    """

    terms: tuple[tuple[tuple[float, int, int], ...], ...]

    def __post_init__(self):
        try:
            terms = tuple(tuple(_spectral_term(*term) for term in per) for per in self.terms)
        except TypeError:
            raise ValidationError(
                "spectral terms must be one sequence of (coefficient, step, projector) triples per perception"
            ) from None
        object.__setattr__(self, "terms", terms)

    def __len__(self) -> int:
        return len(self.terms)


def _spectral_term(lam, d_idx, p_idx) -> tuple[float, int, int]:
    indices = (check_int("a spectral term's index", i, None) for i in (d_idx, p_idx))
    return (check_real("a spectral coefficient", lam, 0), *indices)


def spectral_operator(
    spectral: SpectralExperience,
    decompositions: Sequence[ProjectorDecomposition],
    perception: int,
) -> Operator:
    """Experience operator of one perception from its spectral terms."""
    decomps = _check_steps(decompositions)
    perception = check_int("the perception index", perception, 0, len(spectral) - 1)
    dim = decomps[0].dim
    acc = np.zeros((dim, dim), dtype=complex)
    for lam, d_idx, p_idx in spectral.terms[perception]:
        _check_term(decomps, d_idx, p_idx)
        acc += lam * decomps[d_idx].projectors[p_idx].mat
    return Operator(acc)


def reconstruct_measures(
    state: State,
    spectral: SpectralExperience,
    decompositions: Sequence[ProjectorDecomposition],
) -> np.ndarray:
    """Measures recovered from the diagonal of the replicated functional.

    The diagonal is the product of the per-step marginals m_k = density_at.
    Summing it over the histories that select projector j at step d leaves
    m_d[j], since every other step's projectors sum to the identity, so
    out[p] = sum of lam * m_d[j] over p's terms (lam, d, j): linear, not
    exponential, in the step count.  ReplicatedDecoherenceFunctional.diagonal
    is the enumeration this replaces.
    """
    decomps = _check_steps(decompositions, state.dim)
    for terms in spectral.terms:
        for _, d_idx, p_idx in terms:
            _check_term(decomps, d_idx, p_idx)
    marginals = [density_at(d, state) for d in decomps]
    return np.array(
        [sum(lam * marginals[d][j] for lam, d, j in terms) for terms in spectral.terms], dtype=float
    )
