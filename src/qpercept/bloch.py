"""Closed forms of the qubit toy models: the ball model's spin-up density and
prior, the circle and sphere perception families on the Bloch sphere, the
two-step history diagnostics and their spherical-triangle picture, and the
paired-spin and divided-cat measures, in scalar `math` only, so that the
command line answers them without loading numpy.

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

The records are NamedTuples, not dataclasses: in a fresh process `import
dataclasses` pulls in `inspect`, `ast` and `dis` (6-7 ms on a 2-core Xeon VM),
and six frozen dataclasses take 3-4 ms more to build, against about 0.6 ms for
six NamedTuples.  `Direction` and `TwoStepReport` check their fields in
`__new__`, and their `_make`, which `_replace` calls, goes through it.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .errors import MAX_PARTS, TOL, DegenerateInput, ValidationError, check_int, check_real


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


class _DirectionFields(NamedTuple):
    polar: float
    azimuth: float


class Direction(_DirectionFields):
    """A point on the unit two-sphere given by polar and azimuthal angles."""

    __slots__ = ()
    # _replace builds through _make, which would otherwise skip __new__
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, polar: float, azimuth: float):
        check_bloch_angles(polar, azimuth)
        return super().__new__(cls, polar, azimuth)

    def unit_vector(self) -> np.ndarray:
        """The Bloch vector of bloch_projector at this direction."""
        import numpy as np

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


def ball_prior_weight(u: float, v: float, w: float) -> float:
    """Prior density sqrt(8)/(1+u^2+v^2+w^2)^3 from the operator-family metric."""
    return math.sqrt(8.0) / (1.0 + _ball_r2(u, v, w)) ** 3


def ball_spin_up_density(u: float, v: float, w: float) -> float:
    """Measure density (1+w)/(1+u^2+v^2+w^2) of the ball-model perception
    (u, v, w) in the spin-up state.

    It is the (0, 0) entry t + t w, t = 1/(1 + u^2 + v^2 + w^2), of
    toymodels.ball_experience, formed in the same order, so it equals
    toymodels.ball_model_density at spin up to the bit.
    """
    t = 1.0 / (1.0 + _ball_r2(u, v, w))
    return t + t * w


# ---------------------------------------------------------------------------
# circle model: projectors around the equator, pure state at polar angle theta


def _principal(phi: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    out = math.remainder(phi, 2 * math.pi)
    if out <= -math.pi:
        out = math.pi
    return out


class CircleResult(NamedTuple):
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


class SphereResult(NamedTuple):
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


class _TwoStepFields(NamedTuple):
    weak_residual: float
    medium_residual: float
    linearly_positive: bool
    measures: tuple[float, float, float, float]


class TwoStepReport(_TwoStepFields):
    """Decoherence-condition values for one two-step configuration.

    weak_residual is the single real consistency combination
    2 Re <(QR - QRQ)>; medium_residual is the modulus of the complex one;
    linearly_positive reports the interval condition
    max(0, <Q+R-I>) <= Re <QR> <= min(<Q>, <R>).
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, weak_residual: float, medium_residual: float, linearly_positive: bool,
                measures: tuple[float, float, float, float]):
        if min(measures) < -TOL or abs(sum(measures) - 1.0) > TOL:
            raise ValidationError("history measures must be nonnegative and sum to 1")
        return super().__new__(cls, weak_residual, medium_residual, linearly_positive, measures)


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


class TriangleReport(NamedTuple):
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


# ---------------------------------------------------------------------------
# paired spins and the divided cat

# each per-part factor as its diagonal (<0|P|0>, <1|P|1>), all a cat measure reads
_ALIVE, _DEAD, _IDENTITY = (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)
_PLUS = _MINUS = (0.5, 0.5)  # |+><+| and |-><-| share their diagonal


def _cat_measure(diagonals) -> float:
    """Measure of the product P_1 (x) ... (x) P_n of per-part 2x2 operators in
    the cat state rho = (|0...0><0...0| + |1...1><1...1|)/2, from the pairs
    (<0|P_k|0>, <1|P_k|1>).

    Only the two corner diagonal entries of the product touch rho, so the
    measure is (prod <0|P_k|0> + prod <1|P_k|1>)/2, in O(n).
    """
    alive = math.prod(a for a, _ in diagonals)
    dead = math.prod(d for _, d in diagonals)
    return 0.5 * (alive + dead)


class EprCatReport(NamedTuple):
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
    return unconfused / _cat_measure([_IDENTITY] * parts)


def epr_cat_model(theta: float) -> EprCatReport:
    """Measures of the singlet experiment at far-detector angle theta.

    In the singlet (|01> - |10>)/sqrt(2) each region-A outcome has measure
    1/2 at every angle.  Spin up at the far detector projects onto
    (cos(theta/2), sin(theta/2)), so a joint outcome of equal spins has
    measure sin^2(theta/2)/2 and one of opposite spins cos^2(theta/2)/2.
    """
    theta = check_real("theta", theta, 0.0, math.pi)
    s, c = math.sin(0.5 * theta), math.cos(0.5 * theta)
    # s * s, not s ** 2: a product is correctly rounded, libm's pow not always
    same, opposite = 0.5 * (s * s), 0.5 * (c * c)
    return EprCatReport(
        theta=theta,
        mu_up_a=0.5,
        mu_down_a=0.5,
        mu_up_up=same,
        mu_up_down=opposite,
        mu_down_up=opposite,
        mu_down_down=same,
        confused_original=_confused_original(),
    )


def _confused_original() -> float:
    """Measure of perceptions seeing head and body liveliness disagree when
    perceptions couple to the alive/dead states themselves."""
    # spin (x) head (x) body; spin up pairs with both alive, down with both dead
    return _cat_measure([_IDENTITY, _ALIVE, _DEAD]) + _cat_measure([_IDENTITY, _DEAD, _ALIVE])
