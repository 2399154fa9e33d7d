"""Experience-operator constructions and the structural checks between them.

An experience operator assigns a nonnegative measure density to one perception.
The variants below cover the standard construction hierarchy: plain positive
operators, projectors (possibly constrained or group-symmetrized), commuting
products, ordered chains of projectors, unit-coefficient sums of chains, and
real parts of class operators.  Each variant realizes itself and carries its
JSON tag; `realize`, `spec_to_json` and `spec_from_json` are the entry points.

A family is realized as a whole by `ExperienceFamily.realize_all` (and a list
of specs by `realize_stack`): `realize` runs once per spec, and the matrices
come back as one read-only complex array of shape (N, d, d), so densities and
priors are read off the stack in one vectorized pass.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, fields
from typing import Callable, ClassVar, Optional, Sequence, Union, get_args

import numpy as np

from .errors import DimensionMismatch, InvalidExperience, UnknownLabel, ValidationError, check_real, json_field
from .operators import TOL, Operator, State, expectation, expectations, is_projector
from .operators import negligible, pairwise_negligible


def _check_operators(spec, *names: str) -> None:
    """ValidationError unless each named field of the spec is an Operator."""
    for name in names:
        value = getattr(spec, name)
        if not isinstance(value, Operator):
            raise ValidationError(
                f"{type(spec).__name__} {name} must be an Operator, got {type(value).__name__}"
            )


def _operator_tuple(spec, name: str) -> tuple[Operator, ...]:
    """The named field of the spec as a tuple of Operators, stored back on it."""
    ops = _as_tuple(spec, name, "Operators")
    if not all(isinstance(op, Operator) for op in ops):
        raise ValidationError(f"{type(spec).__name__} {name} must be a sequence of Operators")
    object.__setattr__(spec, name, ops)
    return ops


def _as_tuple(spec, name: str, what: str) -> tuple:
    try:
        return tuple(getattr(spec, name))
    except TypeError:
        raise ValidationError(f"{type(spec).__name__} {name} must be a sequence of {what}") from None


def _same_dim(ops: Sequence[Operator], what: str) -> None:
    if len({op.dim for op in ops}) > 1:
        raise DimensionMismatch(f"{what} act on spaces of different dimension")


def _left_product(ops: Sequence[Operator]) -> np.ndarray:
    return functools.reduce(np.matmul, [op.mat for op in ops])


def _commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


@dataclass(frozen=True)
class Explicit:
    """An experience operator given directly as a positive operator."""

    tag: ClassVar[str] = "explicit"
    op: Operator

    def __post_init__(self):
        _check_operators(self, "op")

    def realize(self, state: Optional[State] = None) -> Operator:
        return self.op


@dataclass(frozen=True)
class Projector:
    tag: ClassVar[str] = "projector"
    op: Operator

    def __post_init__(self):
        _check_operators(self, "op")
        if not is_projector(self.op):
            raise ValidationError("Projector spec requires an idempotent Hermitian operator")

    realize = Explicit.realize


@dataclass(frozen=True)
class ConstrainedProjector:
    """P_C P P_C: a projector sandwiched by the constraint projector P_C."""

    tag: ClassVar[str] = "constrained_projector"
    constraint: Operator
    inner: Operator

    def __post_init__(self):
        _check_operators(self, "constraint", "inner")
        for name, op in (("constraint", self.constraint), ("inner", self.inner)):
            if not is_projector(op):
                raise ValidationError(f"ConstrainedProjector {name} must be a projector")
        _same_dim((self.constraint, self.inner), "constraint and inner projector")

    def realize(self, state: Optional[State] = None) -> Operator:
        pc = self.constraint.mat
        return Operator(pc @ self.inner.mat @ pc)


@dataclass(frozen=True)
class SymmetrizedProjector:
    """Average of g P g^-1 over a finite symmetry group given by unitaries g.

    Continuous groups are not representable here; callers must pass the full
    finite element list (including the identity).
    """

    tag: ClassVar[str] = "symmetrized_projector"
    inner: Operator
    group: tuple[Operator, ...]

    def __post_init__(self):
        _check_operators(self, "inner")
        if not is_projector(self.inner):
            raise ValidationError("SymmetrizedProjector inner must be a projector")
        group = _operator_tuple(self, "group")
        if len(group) == 0:
            raise ValidationError("symmetry group must be a nonempty finite list")
        _same_dim((self.inner,) + group, "inner projector and group elements")
        for g in group:
            if not negligible(g.mat @ g.mat.conj().T - np.eye(g.dim)):
                raise ValidationError("group elements must be unitary")

    def realize(self, state: Optional[State] = None) -> Operator:
        acc = sum(g.mat @ self.inner.mat @ g.mat.conj().T for g in self.group)
        return Operator(acc / len(self.group))


@dataclass(frozen=True)
class ProductProjector:
    """Product of projectors for the components of one perception.

    The components must commute pairwise; this is verified at realization.
    """

    tag: ClassVar[str] = "product_projector"
    components: tuple[Operator, ...]

    def __post_init__(self):
        comps = _operator_tuple(self, "components")
        if len(comps) == 0:
            raise ValidationError("ProductProjector needs at least one component")
        for c in comps:
            if not is_projector(c):
                raise ValidationError("ProductProjector components must be projectors")
        _same_dim(comps, "ProductProjector components")

    def realize(self, state: Optional[State] = None) -> Operator:
        if not pairwise_negligible([c.mat for c in self.components], _commutator):
            raise ValidationError("ProductProjector components do not commute within TOL")
        return Operator(_left_product(self.components))


@dataclass(frozen=True)
class ProjectionSequence:
    """Chain of projectors applied in order; chain[0] is applied last.

    Realizes to C^dagger C with C = chain[0] @ chain[1] @ ... @ chain[-1].
    The caller fixes the order; nothing here infers one.
    """

    tag: ClassVar[str] = "sequence"
    chain: tuple[Operator, ...]

    def __post_init__(self):
        chain = _operator_tuple(self, "chain")
        if len(chain) < 1:
            raise ValidationError("chain must contain at least one projector")
        for p in chain:
            if not is_projector(p):
                raise ValidationError("chain entries must be projectors")
        _same_dim(chain, "chain entries")

    def _class_matrix(self) -> np.ndarray:
        return _left_product(self.chain)

    def class_operator(self) -> Operator:
        return Operator(self._class_matrix())

    def realize(self, state: Optional[State] = None) -> Operator:
        c = self._class_matrix()
        return Operator(c.conj().T @ c)


@dataclass(frozen=True)
class HistorySum:
    """Unit-coefficient sum of projector chains; realizes to C^dagger C."""

    tag: ClassVar[str] = "history_sum"
    sequences: tuple[ProjectionSequence, ...]

    def __post_init__(self):
        seqs = tuple(
            s if isinstance(s, ProjectionSequence) else ProjectionSequence(s)
            for s in _as_tuple(self, "sequences", "chains")
        )
        if len(seqs) == 0:
            raise ValidationError("HistorySum needs at least one chain")
        _same_dim([s.chain[0] for s in seqs], "HistorySum chains")
        object.__setattr__(self, "sequences", seqs)

    def _class_matrix(self) -> np.ndarray:
        return sum(s._class_matrix() for s in self.sequences)

    class_operator = ProjectionSequence.class_operator
    realize = ProjectionSequence.realize


@dataclass(frozen=True)
class LinearlyPositive:
    """Re C for a class operator C; valid only where the state gives <Re C> >= 0."""

    tag: ClassVar[str] = "linearly_positive"
    class_op: Operator

    def __post_init__(self):
        _check_operators(self, "class_op")

    def realize(self, state: Optional[State] = None) -> Operator:
        if state is None:
            raise ValidationError("LinearlyPositive requires a state to verify nonnegativity")
        re_c = Operator((self.class_op.mat + self.class_op.mat.conj().T) / 2)
        val = expectation(state, re_c).real
        if val < -TOL:
            raise InvalidExperience(f"<Re C> = {val} is negative beyond tolerance")
        return re_c


ExperienceSpec = Union[
    Explicit,
    Projector,
    ConstrainedProjector,
    SymmetrizedProjector,
    ProductProjector,
    ProjectionSequence,
    HistorySum,
    LinearlyPositive,
]

_SPEC_TYPES = get_args(ExperienceSpec)


def _known(spec) -> ExperienceSpec:
    if not isinstance(spec, _SPEC_TYPES):
        raise ValidationError(f"unknown experience spec {type(spec).__name__}")
    return spec


def realize(spec: ExperienceSpec, state: Optional[State] = None) -> Operator:
    """Build the experience operator for a spec.

    A state is required only for LinearlyPositive, whose realization must be
    checked to have nonnegative expectation.
    """
    return _known(spec).realize(state)


def realize_stack(specs: Sequence[ExperienceSpec], state: Optional[State] = None) -> np.ndarray:
    """The specs' operators as one read-only (N, d, d) complex array, in order.

    Each spec goes through `realize` exactly once; specs acting on spaces of
    different dimension raise DimensionMismatch.
    """
    mats = [realize(s, state).mat for s in specs]
    if not mats:
        raise ValidationError("need at least one experience spec")
    if len({m.shape for m in mats}) > 1:
        raise DimensionMismatch("experience specs act on spaces of different dimension")
    stack = np.stack(mats)
    stack.setflags(write=False)
    return stack


def _encode(value):
    if isinstance(value, Operator):
        return value.to_json()
    if isinstance(value, ProjectionSequence):
        return _encode(value.chain)
    return [_encode(v) for v in value]


def _decode(value):
    if isinstance(value, dict):
        return Operator.from_json(value)
    if not isinstance(value, (list, tuple)):
        raise ValidationError(f"spec JSON needs an operator or a list, got {type(value).__name__}")
    return tuple(_decode(v) for v in value)


def spec_to_json(spec: ExperienceSpec) -> dict:
    """The variant tag plus each field, with nested chains as projector lists."""
    spec = _known(spec)
    return {"variant": spec.tag, **{f.name: _encode(getattr(spec, f.name)) for f in fields(spec)}}


def spec_from_json(data: dict) -> ExperienceSpec:
    """Inverse of spec_to_json: dicts decode to operators, lists to tuples."""
    variant = json_field(data, "variant", "experience spec")
    cls = next((c for c in _SPEC_TYPES if c.tag == variant), None)
    if cls is None:
        raise ValidationError(f"unknown spec variant {variant!r}")
    return cls(**{f.name: _decode(json_field(data, f.name, "experience spec")) for f in fields(cls)})


@dataclass(frozen=True)
class ExperienceFamily:
    """Ordered labeled experience specs with positive prior weights."""

    entries: tuple[tuple[str, ExperienceSpec, float], ...]

    def __post_init__(self):
        entries = tuple((str(l), s, check_real(f"the prior weight for {l!r}", w)) for l, s, w in self.entries)
        if len(entries) == 0:
            raise ValidationError("family must have at least one entry")
        labels = [l for l, _, _ in entries]
        if len(set(labels)) != len(labels):
            raise ValidationError("family labels must be unique")
        for label, _, w in entries:
            if w <= 0:
                raise ValidationError(f"the prior weight for {label!r} must be positive, got {w!r}")
        object.__setattr__(self, "entries", entries)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(l for l, _, _ in self.entries)

    @property
    def weights(self) -> np.ndarray:
        return np.array([w for _, _, w in self.entries])

    def spec_for(self, label: str) -> ExperienceSpec:
        for l, s, _ in self.entries:
            if l == label:
                return s
        raise UnknownLabel(label)

    def realize_all(self, state: Optional[State] = None) -> np.ndarray:
        """Every entry's operator, stacked in entry order (see `realize_stack`)."""
        return realize_stack([s for _, s, _ in self.entries], state)


def awareness_operator(
    family: ExperienceFamily,
    subset: Optional[Callable[[str], bool]] = None,
    state: Optional[State] = None,
) -> Operator:
    """Weighted sum of experience operators over the labels selected by `subset`.

    This is the positive-operator-valued measure of the selected set: additive
    over disjoint subsets, positive semidefinite for positive specs.  The empty
    selection gives the zero operator.
    """
    if len(family) == 0:
        raise ValidationError("family is empty")
    stack = family.realize_all(state)
    acc = np.zeros(stack.shape[1:], dtype=complex)
    for (label, _, weight), mat in zip(family.entries, stack):
        if subset is None or subset(label):
            acc += weight * mat
    return Operator(acc)


def _vectorized(stack: np.ndarray) -> np.ndarray:
    """One column per operator: the (d*d, N) matrix of the flattened stack."""
    return np.ascontiguousarray(stack.reshape(len(stack), -1).T)


def check_pairwise_independence(family: ExperienceFamily, *, state: Optional[State] = None):
    """Detect proportional pairs E' = lambda E among the realized operators.

    Returns (ok, offending_pair); the test normalizes each vectorized operator
    and flags a pair whenever the smaller singular value of the stacked pair
    drops below TOL times max(1, the larger one).
    """
    if len(family) < 2:
        raise ValidationError("need at least two entries to compare")
    vecs = _vectorized(family.realize_all(state))
    norms = np.linalg.norm(vecs, axis=0)
    if np.any(norms == 0):
        idx = int(np.argmin(norms))
        return False, (family.labels[idx], family.labels[idx])
    unit = vecs / norms
    for i, j in itertools.combinations(range(len(family)), 2):
        s = np.linalg.svd(unit[:, [i, j]], compute_uv=False)
        if s[-1] <= TOL * max(1.0, s[0]):
            return False, (family.labels[i], family.labels[j])
    return True, None


def check_linear_independence(family: ExperienceFamily, *, state: Optional[State] = None) -> bool:
    """True iff the whole realized set is linearly independent.

    At most dim^2 operators can be independent, so larger families always fail.
    """
    stack = family.realize_all(state)
    dim = stack.shape[1]
    if len(stack) > dim * dim:
        return False
    vecs = _vectorized(stack)
    norms = np.linalg.norm(vecs, axis=0)
    if np.any(norms == 0):
        return False
    s = np.linalg.svd(vecs / norms, compute_uv=False)
    return bool(s[-1] > TOL * max(1.0, s[0]))


def check_commuting(family: ExperienceFamily) -> bool:
    return pairwise_negligible(family.realize_all(), _commutator)


def check_orthogonal(family: ExperienceFamily) -> bool:
    return pairwise_negligible(family.realize_all(), np.matmul)


@dataclass(frozen=True)
class PairDecoherence:
    """Decoherence diagnostics for one unordered pair of histories.

    weak_residual is Re <C^dag C'>; medium_residual is |<C^dag C'>|.  The
    consistency flag tests additivity of the pair measure and is None when the
    summed history is not homogeneous (so the condition does not apply); it is
    also None for identical class operators, where the residual is just the
    measure itself.  strongly_decoherent reports whether both histories admit
    projectors reproducing all expectations against the state, with the two
    projectors orthogonal.
    """

    label_a: str
    label_b: str
    applicable: bool
    weak_residual: float
    medium_residual: float
    homogeneous_sum: bool
    consistent: Optional[bool]
    strongly_decoherent: bool


def _chains_sum_homogeneous(spec_a, spec_b) -> bool:
    # Sufficient condition: single chains of equal length differing in exactly
    # one slot, where the two differing projectors are orthogonal and sum to a
    # projector.  The summed history then collapses to a single chain.
    if not (isinstance(spec_a, ProjectionSequence) and isinstance(spec_b, ProjectionSequence)):
        return False
    if len(spec_a.chain) != len(spec_b.chain):
        return False
    diff = [
        k
        for k, (p, q) in enumerate(zip(spec_a.chain, spec_b.chain))
        if not negligible(p.mat - q.mat)
    ]
    if len(diff) != 1:
        return False
    p, q = spec_a.chain[diff[0]], spec_b.chain[diff[0]]
    if not negligible(p.mat @ q.mat):
        return False
    return is_projector(p + q)


def _strong_projector(c_mat: np.ndarray, state: State):
    """Projector P with P rho = C rho if one exists, else None.

    On the support of rho the condition pins P to map eigenvector v to C v, so
    a feasible P is the orthogonal projector onto the image of the support;
    feasibility reduces to a Gram consistency check solved in least squares.
    """
    evals, evecs = np.linalg.eigh(state.mat)
    support = evals > TOL
    v = evecs[:, support]
    w = c_mat @ v
    if negligible(w):
        return np.zeros_like(c_mat)
    gram_residual = w.conj().T @ (v - w)
    if not negligible(gram_residual):
        return None
    u, s, _ = np.linalg.svd(w, full_matrices=False)
    cols = u[:, s > TOL]
    proj = cols @ cols.conj().T
    if not negligible(proj @ v - w):
        return None
    return proj


def decoherence_report(family: ExperienceFamily, state: State) -> list[PairDecoherence]:
    """Pairwise decoherence diagnostics for a family of history specs."""
    specs = []
    for label, spec, _ in family.entries:
        if not isinstance(spec, (ProjectionSequence, HistorySum)):
            raise ValidationError(f"entry {label!r} is not a history spec")
        specs.append((label, spec))
    ops = [spec.class_operator() for _, spec in specs]
    _same_dim(ops, "history specs")
    class_ops = {label: op.mat for (label, _), op in zip(specs, ops)}
    pairs = list(itertools.combinations(specs, 2))
    # every pair's <C_a^dag C_b> from one kernel call, made before _strong_projector
    # multiplies by the state, so a state of the wrong dimension is a DimensionMismatch
    products = [class_ops[la].conj().T @ class_ops[lb] for (la, _), (lb, _) in pairs]
    crosses = expectations(state, np.array(products, dtype=complex).reshape((-1,) + ops[0].mat.shape))
    strong = {label: _strong_projector(mat, state) for label, mat in class_ops.items()}
    records = []
    for ((la, sa), (lb, sb)), cross in zip(pairs, crosses):
        ca, cb = class_ops[la], class_ops[lb]
        cross = complex(cross)
        identical = negligible(ca - cb)
        homog = _chains_sum_homogeneous(sa, sb)
        consistent = None
        if not identical and homog:
            consistent = abs(2 * cross.real) <= TOL
        pa, pb = strong[la], strong[lb]
        records.append(
            PairDecoherence(
                label_a=la,
                label_b=lb,
                applicable=not identical,
                weak_residual=cross.real,
                medium_residual=abs(cross),
                homogeneous_sum=homog,
                consistent=consistent,
                strongly_decoherent=pa is not None and pb is not None and negligible(pa @ pb),
            )
        )
    return records


def normalization_check(spec: ExperienceSpec, mode: str) -> bool:
    """Check a normalization convention on the realized operator, within TOL.

    constant_max: largest eigenvalue equals 1; unit: trace equals 1;
    projection: Tr E equals Tr E^2.
    """
    if isinstance(spec, LinearlyPositive):
        raise ValidationError("normalization checks need a state-free realization")
    op = realize(spec)
    herm = (op.mat + op.mat.conj().T) / 2
    if mode == "constant_max":
        return bool(abs(np.max(np.linalg.eigvalsh(herm)) - 1.0) <= TOL)
    if mode == "unit":
        return bool(abs(np.trace(op.mat).real - 1.0) <= TOL and abs(np.trace(op.mat).imag) <= TOL)
    if mode == "projection":
        return bool(abs(np.trace(op.mat) - np.trace(op.mat @ op.mat)) <= TOL)
    raise ValidationError(f"unknown normalization mode {mode!r}")
