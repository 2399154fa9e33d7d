"""Worked two-state models: ball, circle, and sphere perception families,
two-step history diagnostics, and the paired-spin / cat measures.

Angles are radians throughout.  The two-step diagnostics are closed forms in
four numbers of the Bloch vectors a (state), q and r (projectors Q and R):
a.q, a.r, q.r and a.(q x r).  QRQ = ((1 + q.r)/2) Q gives the history measures
(1 +- a.q)(1 +- q.r)/4 and the residual Tr rho(QR - QRQ) =
(a.r - (a.q)(q.r) + i a.(q x r))/4 (Goldstein & Page, PRL 74, 3715 (1995)).
A spherical triangle with unit vertices s, q, r has solid angle
2 atan2(|s.(q x r)|, 1 + s.q + q.r + r.s) (Van Oosterom & Strackee, IEEE
Trans. Biomed. Eng. 30, 125 (1983)).  The linear-positivity Monte Carlo is
evaluated at the pole: each (Q, R) pair needs only two polar cosines and an
azimuth difference.  It draws blocks of BLOCK samples, block b from
SeedSequence(seed, spawn_key=(b,)), so memory is constant in the sample count
and totals are reproducible bit for bit.  A block is one random(4 * size)
draw, scaled in place: the same stream, to the bit, as four uniform() calls.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Optional

import numpy as np

from .errors import BLOCK, MAX_PARTS, MAX_SAMPLES
from .errors import DegenerateInput, DimensionMismatch, ValidationError, check_int, check_real
from .hypotheses import ExperienceFamily, Explicit, ProjectionSequence
from .measures import measure_density
from .operators import (
    Operator,
    ParamPositiveOp,
    State,
    TOL,
    bloch_projector,
    bloch_vector,
    check_array,
    check_bloch_angles,
    expectations,
    from_params,
    identity,
    tensor_product,
)


@dataclass(frozen=True)
class Direction:
    """A point on the unit two-sphere given by polar and azimuthal angles."""

    polar: float
    azimuth: float

    def __post_init__(self):
        check_bloch_angles(self.polar, self.azimuth)

    def unit_vector(self) -> np.ndarray:
        """The Bloch vector of bloch_projector at this direction."""
        return np.array(bloch_vector(self.polar, self.azimuth))


# ---------------------------------------------------------------------------
# ball model: three-parameter continuum of positive operators on a qubit


def _ball_r2(u: float, v: float, w: float) -> float:
    """u^2 + v^2 + w^2 of finite coordinates in the unit ball (within TOL)."""
    u, v, w = (check_real("a ball coordinate", c) for c in (u, v, w))
    r2 = u * u + v * v + w * w
    if r2 > 1.0 + TOL:
        raise ValidationError("ball coordinates must satisfy u^2+v^2+w^2 <= 1")
    return r2


def ball_experience(u: float, v: float, w: float) -> Operator:
    """Experience operator at ball coordinates, projection-normalized."""
    t = 1.0 / (1.0 + _ball_r2(u, v, w))
    return from_params(ParamPositiveOp(t=t, x=t * u, y=t * v, z=t * w))


def ball_prior_weight(u: float, v: float, w: float) -> float:
    """Prior density sqrt(8)/(1+u^2+v^2+w^2)^3 from the operator-family metric."""
    return math.sqrt(8.0) / (1.0 + _ball_r2(u, v, w)) ** 3


def ball_model_density(state: State, u: float, v: float, w: float) -> float:
    """Measure density of the ball-model perception (u, v, w) in the state.

    For the spin-up pure state this reduces to (1+w)/(1+u^2+v^2+w^2).
    """
    return measure_density(state, Explicit(ball_experience(u, v, w)))


# ---------------------------------------------------------------------------
# circle model: projectors around the equator, pure state at polar angle theta


def _principal(phi: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    out = math.remainder(phi, 2 * math.pi)
    if out <= -math.pi:
        out = math.pi
    return out


@dataclass(frozen=True)
class CircleResult:
    density: float
    typicality: float
    reversed_typicality: float
    dual_typicality: float


def circle_model(theta: float, phi: float) -> CircleResult:
    """Closed-form density and typicalities for the equatorial-circle family.

    Requires sin(theta) > 0 so that the density varies around the circle.
    """
    theta, phi = check_real("theta", theta), check_real("phi", phi)
    if math.sin(theta) <= 0:
        raise DegenerateInput("circle model needs sin(theta) > 0")
    p = _principal(phi)
    density = 0.5 * (1.0 + math.sin(theta) * math.cos(p))
    t = 1.0 - abs(p + math.sin(theta) * math.sin(p)) / math.pi
    return CircleResult(
        density=density,
        typicality=t,
        reversed_typicality=1.0 - t,
        dual_typicality=1.0 - abs(1.0 - 2.0 * t),
    )


def circle_density_array(theta: float, phis: np.ndarray) -> np.ndarray:
    """Vectorized circle-model densities, for building grid profiles."""
    theta = check_real("theta", theta)
    if math.sin(theta) <= 0:
        raise DegenerateInput("circle model needs sin(theta) > 0")
    # 0.5 * (1 + sin(theta) cos(phi)), one operation at a time in one array
    out = np.cos(check_array("the angles", phis))
    out *= math.sin(theta)
    out += 1.0
    out *= 0.5
    return out


@dataclass(frozen=True)
class SphereResult:
    density: float
    typicality: float
    cold_probability: float


def sphere_model(theta: float, vartheta: float, varphi: float) -> SphereResult:
    """Closed-form results for the full-sphere projector family.

    psi is the angle between the state direction (theta, 0) and the perception
    direction; the density is cos^2(psi/2), the typicality its square, and the
    cold probability is the chance that a random perception falls on the
    0 < polar < pi/2 hemisphere.
    """
    theta, vartheta, varphi = map(check_real, ("theta", "vartheta", "varphi"), (theta, vartheta, varphi))
    cos_psi = math.cos(theta) * math.cos(vartheta) + math.sin(theta) * math.sin(
        vartheta
    ) * math.cos(varphi)
    density = 0.5 * (1.0 + cos_psi)
    return SphereResult(
        density=density,
        typicality=density * density,
        cold_probability=(2.0 + math.cos(theta)) / 4.0,
    )


# ---------------------------------------------------------------------------
# two-step histories on a qubit


def two_step_family(q: Operator, r: Operator) -> ExperienceFamily:
    """The four ordered two-step histories built from Q/I-Q then R/I-R.

    Chains are stored last-applied-first, so ("r", "q") realizes to Q R Q.
    The four experience operators always sum to the identity.
    """
    i2 = identity(2)
    chains = {
        "1": (r, q),
        "2": (r, i2 - q),
        "3": (i2 - r, q),
        "4": (i2 - r, i2 - q),
    }
    return ExperienceFamily(
        tuple((label, ProjectionSequence(chain), 1.0) for label, chain in chains.items())
    )


@dataclass(frozen=True)
class TwoStepReport:
    """Decoherence-condition values for one two-step configuration.

    weak_residual is the single real consistency combination
    2 Re <(QR - QRQ)>; medium_residual is the modulus of the complex one;
    linearly_positive reports the interval condition
    max(0, <Q+R-I>) <= Re <QR> <= min(<Q>, <R>).
    """

    weak_residual: float
    medium_residual: float
    linearly_positive: bool
    measures: tuple[float, float, float, float]

    def __post_init__(self):
        if min(self.measures) < -TOL or abs(sum(self.measures) - 1.0) > TOL:
            raise ValidationError("history measures must be nonnegative and sum to 1")


def two_step_analysis(
    state_dir: Direction,
    q_dir: Direction,
    r_dir: Direction,
    state: Optional[State] = None,
) -> TwoStepReport:
    """Evaluate the two-step decoherence conditions for given directions.

    A given state (pure or mixed) replaces the pure state along state_dir.
    """
    a = bloch_vector(state_dir.polar, state_dir.azimuth) if state is None else _pauli_vector(state).tolist()
    aq, ar, qr, triple = _bloch_invariants(
        a, bloch_vector(q_dir.polar, q_dir.azimuth), bloch_vector(r_dir.polar, r_dir.azimuth)
    )
    weak = 0.5 * (ar - aq * qr)
    return TwoStepReport(
        weak_residual=weak,
        medium_residual=math.hypot(0.5 * weak, 0.25 * triple),
        linearly_positive=bool(_linpos_mask(aq, ar, qr)),
        # <(I +- Q)/2> times the factor (1 +- q.r)/2 of QRQ, in two_step_family order
        measures=tuple(0.25 * (1.0 + e * aq) * (1.0 + f * qr) for e, f in ((1, 1), (-1, -1), (1, -1), (-1, 1))),
    )


def _dot(x, y) -> float:
    return x[0] * y[0] + x[1] * y[1] + x[2] * y[2]


def _cross(x, y) -> tuple[float, float, float]:
    return (x[1] * y[2] - x[2] * y[1], x[2] * y[0] - x[0] * y[2], x[0] * y[1] - x[1] * y[0])


def _bloch_invariants(a, q, r) -> tuple[float, float, float, float]:
    """(a.q, a.r, q.r, a.(q x r)) of three Bloch vectors, in scalar arithmetic."""
    return _dot(a, q), _dot(a, r), _dot(q, r), _dot(a, _cross(q, r))


_PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def _pauli_vector(x) -> np.ndarray:
    """Bloch vector Tr(X sigma_i) of a qubit state or operator X."""
    if x.dim != 2:
        raise DimensionMismatch(f"a Bloch vector needs a 2-dimensional operator, got dim {x.dim}")
    return np.einsum("ij,kji->k", x.mat, _PAULI).real


# A rounding slack, not a structural tolerance: at TOL the closed form accepts
# what the matrix route Tr rho Q R rejects, e.g. at the (polar, azimuth)
# directions state (0, 0), Q (1, 0) and R (6.84e-9, 1).
LINPOS_SLACK = 1e-12


def _linpos_mask(aq, ar, qr):
    """Interval condition on the dot products a.q, a.r and q.r of the Bloch
    vectors of the state (a) and the projectors Q and R; broadcasts.

    <Q> = (1 + a.q)/2 and Re <QR> = (1 + q.r + a.q + a.r)/4 hold only when all
    three vectors come from one map to the sphere, such as _pauli_vector.
    """
    mid = 0.25 * (1.0 + qr + aq + ar)
    lhs = np.maximum(0.0, 0.5 * (aq + ar))
    rhs = np.minimum(0.5 * (1.0 + aq), 0.5 * (1.0 + ar))
    return (lhs <= mid + LINPOS_SLACK) & (mid <= rhs + LINPOS_SLACK)


@dataclass(frozen=True)
class MonteCarloFraction:
    fraction: float
    hits: int
    samples: int
    seed: int

    @property
    def standard_error(self) -> float:
        return math.sqrt(self.fraction * (1.0 - self.fraction) / self.samples)

    def provenance(self) -> dict:
        return {"seed": self.seed, "samples": self.samples, "blockSize": BLOCK}


def linear_positivity_fraction(samples: int, seed: int) -> MonteCarloFraction:
    """Fraction of uniformly sampled (Q, R) direction pairs that keep the
    two-step histories linearly positive, for a pure state.

    Q and R are uniform, so every pure state gives the pole's distribution;
    there a.q and a.r are the polar cosines of Q and R.
    """
    samples = check_int("the sample count", samples, 1, MAX_SAMPLES)
    seed = check_int("the seed", seed, 0)
    hits = 0
    for block, start in enumerate(range(0, samples, BLOCK)):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(block,)))
        size = min(BLOCK, samples - start)
        # one draw, in the order and to the bit of uniform(-1, 1), uniform(0, 2 pi),
        # uniform(-1, 1), uniform(0, 2 pi): each row scaled as low + (high - low) u
        draws = rng.random(4 * size).reshape(4, size)
        draws[0::2] *= 2.0
        draws[0::2] -= 1.0
        draws[1::2] *= 2.0 * math.pi
        cos_q, phi_q, cos_r, phi_r = draws
        qr = np.sqrt((1.0 - cos_q * cos_q) * (1.0 - cos_r * cos_r)) * np.cos(phi_q - phi_r)
        qr += cos_q * cos_r
        hits += int(np.count_nonzero(_linpos_mask(cos_q, cos_r, qr)))
    return MonteCarloFraction(fraction=hits / samples, hits=hits, samples=samples, seed=seed)


# ---------------------------------------------------------------------------
# spherical-triangle geometry of the two-step conditions


@dataclass(frozen=True)
class TriangleReport:
    status: str  # "ok" or "degenerate"
    inequality_holds: Optional[bool]
    all_triangles_sub_pi: Optional[bool]
    areas: Optional[tuple[float, ...]]


def triangle_equivalence(state_dir: Direction, q_dir: Direction, r_dir: Direction) -> TriangleReport:
    """Compare the interval condition against its spherical-triangle picture.

    The three great circles through the state, Q, and R directions cut the
    sphere into eight triangles; the interval condition holds exactly when no
    triangle exceeds solid angle pi (within TOL).  Direction pairs within TOL
    of parallel or antipodal are reported as degenerate and skipped.
    """
    s, q, r = (bloch_vector(d.polar, d.azimuth) for d in (state_dir, q_dir, r_dir))
    for x, y in ((s, q), (s, r), (q, r)):
        angle = math.atan2(math.hypot(*_cross(x, y)), _dot(x, y))
        if angle < TOL or math.pi - angle < TOL:
            return TriangleReport("degenerate", None, None, None)
    sq, sr, qr, triple = _bloch_invariants(s, q, r)
    # one triangle (es s, eq q, er r) per sign choice
    areas = tuple(
        2.0 * math.atan2(abs(triple), 1.0 + es * eq * sq + es * er * sr + eq * er * qr)
        for es in (1, -1) for eq in (1, -1) for er in (1, -1)
    )
    all_sub_pi = all(area <= math.pi + TOL for area in areas)
    linpos = bool(_linpos_mask(sq, sr, qr))
    return TriangleReport("ok", linpos, all_sub_pi, areas)


# ---------------------------------------------------------------------------
# paired spins and the divided cat


_P0 = Operator(np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex))
_P1 = Operator(np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex))
_PLUS = Operator(np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex))
_MINUS = Operator(np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex))


def _cat_measure(factors) -> float:
    """Measure of the product of per-part 2x2 operators P_1 (x) ... (x) P_n in the
    cat state rho = (|0...0><0...0| + |1...1><1...1|)/2.

    Only the two corner diagonal entries of the product touch rho, so the
    measure is (prod <0|P_k|0> + prod <1|P_k|1>)/2, in O(n).
    """
    alive = math.prod(float(p.mat[0, 0].real) for p in factors)
    dead = math.prod(float(p.mat[1, 1].real) for p in factors)
    return 0.5 * (alive + dead)


@dataclass(frozen=True)
class EprCatReport:
    """Measures for the paired-spin experiment and the divided-cat sector.

    Region-A measures are independent of the far detector angle; the joint
    same-spin and opposite-spin measures have ratio tan^2(theta/2).  The cat
    sector is two (or n) perfectly correlated binary factors: in the
    alive/dead coupling no perception sees head and body disagree, while in
    the rotated +/- coupling only a 2^(1-n) fraction of the measure is free
    of such disagreements.  Both come from _cat_measure, the closed form
    (prod <0|P_k|0> + prod <1|P_k|1>)/2 of a product projector, O(n) in n parts.
    """

    theta: float
    mu_up_a: float
    mu_down_a: float
    mu_up_up: float
    mu_up_down: float
    mu_down_up: float
    mu_down_down: float
    confused_original: float

    def unconfused_fraction_alternative(self, parts: int = 2) -> float:
        return _unconfused_fraction(parts)


def _unconfused_fraction(parts: int) -> float:
    parts = check_int("the number of parts of the cat", parts, 1, MAX_PARTS)
    # only all-plus and all-minus have no head/body disagreement; plus + minus is
    # the identity, so the measure of all 2^parts patterns is the identity's
    unconfused = _cat_measure([_PLUS] * parts) + _cat_measure([_MINUS] * parts)
    return unconfused / _cat_measure([_PLUS + _MINUS] * parts)


@cache
def _singlet() -> tuple[State, float, float]:
    """The singlet state and its two region-A measures, which no detector
    angle changes; built on first use."""
    up = np.array([1.0, 0.0], dtype=complex)
    down = np.array([0.0, 1.0], dtype=complex)
    rho = State.pure((np.kron(up, down) - np.kron(down, up)) / math.sqrt(2))
    region_a = np.stack([tensor_product(p, identity(2)).mat for p in (_P0, _P1)])
    return (rho, *expectations(rho, region_a).real.tolist())


def epr_cat_model(theta: float) -> EprCatReport:
    """Build the singlet experiment at detector angle theta and report measures."""
    theta = check_real("theta", theta, 0.0, math.pi)
    rho, mu_up_a, mu_down_a = _singlet()
    b_up = bloch_projector(theta, 0.0)
    b_down = identity(2) - b_up
    joint = np.stack([tensor_product(a, b).mat for a in (_P0, _P1) for b in (b_up, b_down)])
    up_up, up_down, down_up, down_down = expectations(rho, joint).real.tolist()
    return EprCatReport(
        theta=theta,
        mu_up_a=mu_up_a,
        mu_down_a=mu_down_a,
        mu_up_up=up_up,
        mu_up_down=up_down,
        mu_down_up=down_up,
        mu_down_down=down_down,
        confused_original=_confused_original(),
    )


@cache
def _confused_original() -> float:
    """Measure of perceptions seeing head and body liveliness disagree when
    perceptions couple to the alive/dead states themselves."""
    # spin (x) head (x) body; spin up pairs with both alive, down with both dead
    return _cat_measure([identity(2), _P0, _P1]) + _cat_measure([identity(2), _P1, _P0])
