"""Closed forms on the Bloch sphere of a qubit: the circle and sphere
perception families, the two-step history diagnostics and their
spherical-triangle picture, in scalar `math` only, so that the command line
answers them without loading numpy.

Angles are radians throughout.  The two-step diagnostics are closed forms in
four numbers of the Bloch vectors a (state), q and r (projectors Q and R):
a.q, a.r, q.r and a.(q x r).  QRQ = ((1 + q.r)/2) Q gives the history measures
(1 +- a.q)(1 +- q.r)/4 and the residual Tr rho(QR - QRQ) =
(a.r - (a.q)(q.r) + i a.(q x r))/4 (Goldstein & Page, PRL 74, 3715 (1995)).
A spherical triangle with unit vertices s, q, r has solid angle
2 atan2(|s.(q x r)|, 1 + s.q + q.r + r.s) (Van Oosterom & Strackee, IEEE
Trans. Biomed. Eng. 30, 125 (1983)).  The linear-positivity predicate
`_linpos_mask` takes Python floats or numpy arrays alike, through comparisons
and `&` alone; toymodels' Monte Carlo calls it on arrays.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import TOL, DegenerateInput, ValidationError, check_real


def check_bloch_angles(polar: float, azimuth: float) -> None:
    """Finite angles with the polar angle in [0, pi]."""
    check_real("the polar angle", polar, 0.0, math.pi)
    check_real("the azimuth", azimuth)


def bloch_vector(polar: float, azimuth: float) -> tuple[float, float, float]:
    """Bloch vector Tr(P sigma_i) of P = bloch_projector(polar, azimuth), whose
    entry P[0, 1] = sin(polar) e^(i azimuth) / 2 makes y = -sin(polar) sin(azimuth)."""
    polar, azimuth = check_real("the polar angle", polar), check_real("the azimuth", azimuth)
    s = math.sin(polar)
    return (s * math.cos(azimuth), -s * math.sin(azimuth), math.cos(polar))


@dataclass(frozen=True)
class Direction:
    """A point on the unit two-sphere given by polar and azimuthal angles."""

    polar: float
    azimuth: float

    def __post_init__(self):
        check_bloch_angles(self.polar, self.azimuth)

    def unit_vector(self) -> np.ndarray:
        """The Bloch vector of bloch_projector at this direction."""
        import numpy as np

        return np.array(bloch_vector(self.polar, self.azimuth))


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
    state: State | None = None,
) -> TwoStepReport:
    """Evaluate the two-step decoherence conditions for given directions.

    A given state (pure or mixed) replaces the pure state along state_dir.
    """
    if state is None:
        a = bloch_vector(state_dir.polar, state_dir.azimuth)
    else:
        from .toymodels import _pauli_vector

        a = _pauli_vector(state).tolist()
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


# A rounding slack, not a structural tolerance: at TOL the closed form accepts
# what the matrix route Tr rho Q R rejects, e.g. at the (polar, azimuth)
# directions state (0, 0), Q (1, 0) and R (6.84e-9, 1).
LINPOS_SLACK = 1e-12


def _linpos_mask(aq, ar, qr):
    """Interval condition on the dot products a.q, a.r and q.r of the Bloch
    vectors of the state (a) and the projectors Q and R; a bool of floats, a
    mask of arrays.

    <Q> = (1 + a.q)/2 and Re <QR> = (1 + q.r + a.q + a.r)/4 hold only when all
    three vectors come from one map to the sphere, such as _pauli_vector.
    max(0, x) <= t is written (0 <= t) & (x <= t), and m <= min(a, b) + s as
    (m <= a + s) & (m <= b + s): rounding is monotone, so fl(min(a, b) + s) is
    min(fl(a + s), fl(b + s)) and each verdict is that of the max/min form.
    """
    mid = 0.25 * (1.0 + qr + aq + ar)
    top = mid + LINPOS_SLACK
    low = (0.0 <= top) & (0.5 * (aq + ar) <= top)
    return low & (mid <= 0.5 * (1.0 + aq) + LINPOS_SLACK) & (mid <= 0.5 * (1.0 + ar) + LINPOS_SLACK)


# ---------------------------------------------------------------------------
# spherical-triangle geometry of the two-step conditions


@dataclass(frozen=True)
class TriangleReport:
    status: str  # "ok" or "degenerate"
    inequality_holds: bool | None
    all_triangles_sub_pi: bool | None
    areas: tuple[float, ...] | None


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
