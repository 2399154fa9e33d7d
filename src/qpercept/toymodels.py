"""Worked two-state models: ball, circle, and sphere perception families,
two-step history diagnostics, and the paired-spin / cat measures.

The closed forms of the circle and sphere families and of the two-step
diagnostics need no matrices: they live in `bloch`, in scalar `math` only, and
are bound here too, so `toymodels.circle_model` and the rest resolve as
before.  This module holds what needs numpy.  The linear-positivity Monte
Carlo is evaluated at the pole: each (Q, R) pair needs only two polar cosines
and an azimuth difference.  It draws blocks of BLOCK samples, block b from
SeedSequence(seed, spawn_key=(b,)), so memory is constant in the sample count
and totals are reproducible bit for bit.  A block is one random(4 * size)
draw, scaled in place: the same stream, to the bit, as four uniform() calls.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

# the closed forms, bound here for callers of toymodels.<name>
from .bloch import (
    LINPOS_SLACK,
    CircleResult,
    Direction,
    SphereResult,
    TriangleReport,
    TwoStepReport,
    _bloch_invariants,
    _cross,
    _dot,
    _linpos_mask,
    _principal,
    bloch_vector,
    check_bloch_angles,
    circle_model,
    sphere_model,
    triangle_equivalence,
    two_step_analysis,
)
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
    check_array,
    expectations,
    from_params,
    identity,
    tensor_product,
)


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
# circle model on a grid; the closed form is bloch.circle_model


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


_PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def _pauli_vector(x) -> np.ndarray:
    """Bloch vector Tr(X sigma_i) of a qubit state or operator X."""
    if x.dim != 2:
        raise DimensionMismatch(f"a Bloch vector needs a 2-dimensional operator, got dim {x.dim}")
    return np.einsum("ij,kji->k", x.mat, _PAULI).real


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
