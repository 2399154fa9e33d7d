"""Worked two-state models: ball, circle, and sphere perception families,
two-step history diagnostics, and the paired-spin / cat measures.

The closed forms need no matrices: the ball model's spin-up density and prior,
the circle and sphere families, the two-step diagnostics and the paired-spin
and cat measures live in `bloch`, in scalar `math` only, and are bound here
too, so `toymodels.epr_cat_model` and the rest resolve as before.  This module
holds what needs numpy: the ball model's experience operator and its density
in any state, the circle densities on a grid, the two-step history family and
the linear-positivity Monte Carlo.  The Monte Carlo is evaluated at the pole:
each (Q, R) pair needs only two polar cosines and an azimuth difference.  It
draws blocks of BLOCK samples, block b from SeedSequence(seed, spawn_key=(b,)),
so memory is constant in the sample count and totals are reproducible bit for
bit.  A block is one random(4 * size) draw, scaled in place: the same stream,
to the bit, as four uniform() calls.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# the closed forms, bound here for callers of toymodels.<name>
from .bloch import (
    LINPOS_SLACK,
    CircleResult,
    Direction,
    EprCatReport,
    SphereResult,
    TriangleReport,
    TwoStepReport,
    _ball_r2,
    _bloch_invariants,
    _cat_measure,
    _confused_original,
    _cross,
    _dot,
    _linpos_mask,
    _principal,
    _unconfused_fraction,
    ball_prior_weight,
    bloch_vector,
    check_bloch_angles,
    circle_model,
    epr_cat_model,
    sphere_model,
    triangle_equivalence,
    two_step_analysis,
)
from .errors import BLOCK, MAX_SAMPLES, DegenerateInput, DimensionMismatch, check_int, check_real
from .hypotheses import ExperienceFamily, Explicit, ProjectionSequence
from .measures import measure_density
from .operators import Operator, ParamPositiveOp, State, check_array, from_params, identity


# ---------------------------------------------------------------------------
# ball model: three-parameter continuum of positive operators on a qubit


def ball_experience(u: float, v: float, w: float) -> Operator:
    """Experience operator at ball coordinates, projection-normalized."""
    t = 1.0 / (1.0 + _ball_r2(u, v, w))
    return from_params(ParamPositiveOp(t=t, x=t * u, y=t * v, z=t * w))


def ball_model_density(state: State, u: float, v: float, w: float) -> float:
    """Measure density of the ball-model perception (u, v, w) in the state.

    For the spin-up pure state this is bloch.ball_spin_up_density.
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
