"""Perception measures, typicality statistics, and relative-state quantities.

A perception space is a finite set of labeled points with positive prior
weights; continuum models are represented on quadrature grids (trapezoid rule)
so that all integrals become fixed-order sums.  A measure profile attaches a
nonnegative density m(p) to each point, Re Tr(rho E(p)) read off the realized
stack by the one kernel `operators.expectations`; every statistic here is a
ratio of weighted sums over the profile.

Tie semantics: the "at most as dense" set uses <= and the "at least as dense"
set uses >=, so plateaus of equal density inflate both sides.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidExperience,
    QPerceptError,
    UnknownLabel,
    ValidationError,
    ZeroMeasure,
    check_int,
    check_real,
)
from .hypotheses import ExperienceFamily, ExperienceSpec, realize, realize_stack
from .manyworlds import gram_metric
from .operators import TOL, State, check_array, expectations


@dataclass(frozen=True)
class PerceptionSpace:
    """Finite point set with per-point positive prior weights.

    Discrete spaces carry opaque string labels; grid spaces carry the (N, k)
    coordinate array and axis names instead (labels stay None so large grids
    cost no label storage).
    """

    weights: np.ndarray
    labels: Optional[tuple[str, ...]] = None
    points: Optional[np.ndarray] = None
    axes: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        w = check_array("the prior weights", self.weights, 1)
        if len(w) == 0 or np.any(w <= 0):
            raise ValidationError("prior weights must be a nonempty array of positive values")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        if self.labels is not None:
            labels = tuple(self.labels)
            if len(labels) != len(w):
                raise ValidationError("need one weight per label")
            object.__setattr__(self, "labels", labels)
            if len(self._label_index) != len(labels):
                raise ValidationError("labels must be unique")
        if self.points is not None:
            pts = check_array("the grid points", self.points, 2)
            if pts.shape[0] != len(w):
                raise ValidationError("points must be an (N, k) array aligned with weights")
            pts.setflags(write=False)
            object.__setattr__(self, "points", pts)
        if self.labels is None and self.points is None:
            raise ValidationError("a space needs labels or grid points")

    def __len__(self) -> int:
        return len(self.weights)

    @classmethod
    def discrete(cls, labels: Sequence[str], weights=None) -> "PerceptionSpace":
        labels = tuple(str(l) for l in labels)
        if weights is None:
            weights = np.ones(len(labels))
        return cls(weights=weights, labels=labels)

    @classmethod
    def grid(
        cls,
        axes: dict[str, np.ndarray],
        prior_density: Optional[Callable[..., np.ndarray]] = None,
    ) -> "PerceptionSpace":
        """Cartesian product of strictly increasing axes with trapezoid weights.

        prior_density, if given, is evaluated vectorized on the coordinate
        columns and multiplies the quadrature weights.
        """
        arrays = [check_array(f"axis {name!r}", a, 1) for name, a in axes.items()]
        axis_weights = []
        for name, arr in zip(axes, arrays):
            if len(arr) < 2:
                raise ValidationError(f"axis {name!r} needs at least two points")
            half = np.diff(arr)
            if not np.all(half > 0):
                raise ValidationError(f"axis {name!r} must be strictly increasing")
            half /= 2
            w = np.empty_like(arr)
            w[0], w[-1] = half[0], half[-1]
            np.add(half[:-1], half[1:], out=w[1:-1])
            axis_weights.append(w)
        # one copy of the broadcast mesh; the weights are the axes' outer product,
        # in axis order, so each is ((w0 * w1) * w2)... as a running product would be
        pts = np.stack(np.meshgrid(*arrays, indexing="ij", copy=False), axis=-1).reshape(-1, len(arrays))
        weights = reduce(np.multiply.outer, axis_weights).reshape(-1)
        if prior_density is not None:
            dens = check_array("the prior density", prior_density(*[pts[:, i] for i in range(pts.shape[1])]))
            if dens.shape != (pts.shape[0],):
                raise ValidationError("prior_density must return one value per point")
            if np.any(dens <= 0):
                raise ValidationError("prior density must be positive")
            weights = weights * dens
        return cls(weights=weights, points=pts, axes=tuple(axes))

    @cached_property
    def _label_index(self) -> dict[str, int]:
        return {label: i for i, label in enumerate(self.labels)}

    def index_of(self, label: str) -> int:
        if self.labels is None:
            raise UnknownLabel(f"grid space has no labels; use integer indices ({label!r})")
        try:
            return self._label_index[label]
        except (KeyError, TypeError):
            raise UnknownLabel(label) from None


@dataclass(frozen=True)
class MeasureProfile:
    """Per-point measure density over a perception space."""

    space: PerceptionSpace
    density: np.ndarray

    def __post_init__(self):
        _set_density(self, check_array("the density", self.density))
        if np.any(self.density < 0):
            raise ValidationError("density values must be nonnegative")

    @cached_property
    def point_measures(self) -> np.ndarray:
        """density * weight at every point, formed once and read-only."""
        out = self.density * self.space.weights
        out.setflags(write=False)
        return out

    @cached_property
    def total_measure(self) -> float:
        """The weighted sum of the density, in numpy's fixed (index-ascending
        pairwise) summation order, so totals are reproducible."""
        return float(np.sum(self.point_measures))

    def resolve(self, p) -> int:
        """Accept an index or a label and return the index.  A value that
        offers __index__ (an int, a bool, a numpy integer) is an index, held
        to the integer rule of errors.check_int; any other value is a label."""
        if hasattr(p, "__index__"):
            return check_int("the index", p, 0, len(self.space) - 1)
        return self.space.index_of(p)

    @cached_property
    def _curves(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # mu{v' <= v} ("right") or mu{v' < v} ("left") over the total, read from the
        # prefix sums of one stable sort; the top of the sort reads exactly 1
        def fractions(values, *sides):
            order = np.argsort(values, kind="stable")
            ordered, sums = values[order], np.concatenate(([0.0], np.cumsum(self.point_measures[order])))
            return [sums[np.searchsorted(ordered, values, side=side)] / sums[-1] for side in sides]

        t, below = fractions(self.density, "right", "left")
        t_r = 1.0 - below
        (t_d,) = fractions(np.minimum(t, t_r), "right")
        for curve in (t, t_r, t_d):
            curve.setflags(write=False)
        return t, t_r, t_d


def profile_from_density(space: PerceptionSpace, density) -> MeasureProfile:
    """Build a profile from raw density values, clamping negatives within TOL to 0."""
    raw = check_array("the density", density)
    if np.any(raw < -TOL):
        raise InvalidExperience("density below -TOL")
    # the clipped copy is finite and nonnegative, so only its shape is left to check
    profile = object.__new__(MeasureProfile)
    object.__setattr__(profile, "space", space)
    _set_density(profile, np.clip(raw, 0.0, None))
    return profile


def _set_density(profile: MeasureProfile, m: np.ndarray) -> None:
    """Give the profile the checked density m, one value per point, read-only."""
    if m.shape != (len(profile.space),):
        raise ValidationError("density must have one value per point")
    m.setflags(write=False)
    object.__setattr__(profile, "density", m)


def measure_density(state: State, spec: ExperienceSpec) -> float:
    """Expectation of the experience operator in the state, clamped at -TOL."""
    return float(_densities(state, realize(spec, state).mat[np.newaxis])[0])


def _densities(state: State, stack: np.ndarray) -> np.ndarray:
    """Re Tr(state E) for every operator E of the stack, in one pass; a negative
    value within TOL reads 0, and the first one with an imaginary part or a
    value below -TOL raises."""
    vals = expectations(state, stack)
    bad = (np.abs(vals.imag) > TOL) | (vals.real < -TOL)
    if bad.any():
        val = complex(vals[np.argmax(bad)])
        if abs(val.imag) > TOL:
            raise InvalidExperience(f"measure density has imaginary part {val.imag}")
        raise InvalidExperience(f"measure density {val.real} below -TOL")
    return np.where(vals.real < 0.0, 0.0, vals.real)


def build_profile(
    state: State, family: ExperienceFamily, space: Optional[PerceptionSpace] = None
) -> MeasureProfile:
    """Evaluate a family's densities on a space (default: the family's own labels).

    When a space is given, its labels must all be covered by the family (for
    unlabeled grid spaces the family entries are matched to grid points in
    order); the space supplies the prior weights.  Without one, the family's
    labels and prior weights define a discrete space.
    """
    if space is None:
        space = PerceptionSpace.discrete(family.labels, family.weights)
        stack = family.realize_all(state)
    elif space.labels is None:
        if len(family) != len(space):
            raise ValidationError("family must cover the grid points in order")
        stack = family.realize_all(state)
    else:
        by_label = {label: spec for label, spec, _ in family.entries}
        missing = [label for label in space.labels if label not in by_label]
        if missing:
            raise UnknownLabel(missing[0])
        stack = realize_stack([by_label[label] for label in space.labels], state)
    return profile_from_density(space, _densities(state, stack))


def _selection_mask(profile: MeasureProfile, predicate) -> np.ndarray:
    if predicate is None:
        return np.ones(len(profile.space), dtype=bool)
    if not callable(predicate):
        mask = np.asarray(predicate, dtype=bool)
        if mask.shape != (len(profile.space),):
            raise ValidationError("mask length must match the space")
        return mask
    space = profile.space
    if space.points is not None:
        return np.fromiter(
            (bool(predicate(tuple(pt))) for pt in space.points), dtype=bool, count=len(space)
        )
    return np.fromiter((bool(predicate(l)) for l in space.labels), dtype=bool, count=len(space))


def set_measure(profile: MeasureProfile, predicate=None) -> float:
    """Measure of the selected subset: sum of density times prior weight.

    predicate receives the label (discrete spaces) or the coordinate tuple
    (grid spaces); a boolean array or list also serves.  None selects everything.
    """
    mask = _selection_mask(profile, predicate)
    return float(np.sum(profile.point_measures[mask]))


def conditional_probability(profile: MeasureProfile, condition, event) -> float:
    """mu(S1 and S2) / mu(S1) for predicate- or mask-defined sets."""
    cond_mask = _selection_mask(profile, condition)
    event_mask = _selection_mask(profile, event)
    denom = float(np.sum(profile.point_measures[cond_mask]))
    if denom <= 0:
        raise ZeroMeasure("conditioning set has zero measure")
    num = float(np.sum(profile.point_measures[cond_mask & event_mask]))
    return min(max(num / denom, 0.0), 1.0)


def _check_total(profile: MeasureProfile) -> float:
    total = profile.total_measure
    if not (total > 0 and np.isfinite(total)):
        raise ZeroMeasure("typicality needs a positive finite total measure")
    return total


def typicality(profile: MeasureProfile, p) -> float:
    """Measure-weighted fraction of points at most as dense as p (ties included)."""
    return float(typicality_curves(profile)[0][profile.resolve(p)])


def reversed_typicality(profile: MeasureProfile, p) -> float:
    """Measure-weighted fraction of points at least as dense as p (ties included)."""
    return float(typicality_curves(profile)[1][profile.resolve(p)])


def typicality_curves(profile: MeasureProfile):
    """Arrays (T, T_r, T_d) of the three typicalities at every point.

    Built once per profile and cached on it: read-only, every value in [0, 1],
    and plateaus get the full two-sided counting semantics.
    """
    _check_total(profile)
    return profile._curves


def dual_typicality(profile: MeasureProfile, p) -> float:
    """Fraction of points whose min(T, T_r) is at most that of p."""
    return float(typicality_curves(profile)[2][profile.resolve(p)])


def typicality_of_density(profile: MeasureProfile, density_value: float) -> float:
    """Typicality evaluated at a density value rather than a stored point."""
    density_value = check_real("the density value", density_value)
    total = _check_total(profile)
    mask = profile.density <= density_value
    return float(np.sum(profile.point_measures[mask]) / total)


def restricted_typicality(profile: MeasureProfile, p, predicate) -> float:
    """Typicality computed within a subset S containing p."""
    idx = profile.resolve(p)
    mask = _selection_mask(profile, predicate)
    if not mask[idx]:
        raise ValidationError("point p must belong to the restricting set")
    denom = float(np.sum(profile.point_measures[mask]))
    if denom <= 0:
        raise ZeroMeasure("restricting set has zero measure")
    sub = mask & (profile.density <= profile.density[idx])
    return float(np.sum(profile.point_measures[sub]) / denom)


def prior_measure(
    family: ExperienceFamily,
    mode: str = "counting",
    prior_state: Optional[State] = None,
    space: Optional[PerceptionSpace] = None,
) -> np.ndarray:
    """Per-point prior weights under a chosen convention.

    counting: every point weighs 1.  trace: Tr E(p).  prior_state: expectation
    of E(p) in a fixed reference state.  riemannian: sqrt(det g) from central
    finite differences of the operator family across grid neighbors; grid
    points where the metric degenerates (det <= TOL) come back as NaN.
    """
    if mode == "counting":
        return np.ones(len(family))
    if mode == "trace":
        return np.trace(family.realize_all(), axis1=1, axis2=2).real
    if mode == "prior_state":
        if prior_state is None:
            raise ValidationError("prior_state mode needs a reference state")
        return expectations(prior_state, family.realize_all()).real
    if mode == "riemannian":
        if space is None or space.points is None:
            raise ValidationError("riemannian mode needs a grid space")
        if len(space) != len(family):
            raise ValidationError("family must cover the grid points in order")
        return _riemannian_weights(family.realize_all(), space)
    raise ValidationError(f"unknown prior-measure mode {mode!r}")


def _riemannian_weights(stack: np.ndarray, space: PerceptionSpace) -> np.ndarray:
    axes_vals = [np.unique(column) for column in space.points.T]
    ndim = len(axes_vals)
    mesh = np.meshgrid(*axes_vals, indexing="ij")
    if not np.array_equal(space.points, np.column_stack([m.reshape(-1) for m in mesh])):
        raise ValidationError("grid points must be a full cartesian product in PerceptionSpace.grid order")
    mats = stack.reshape(mesh[0].shape + stack.shape[1:])
    # np.gradient: central differences inside, one-sided at the boundary
    diffs = np.stack(
        [np.gradient(mats, axes_vals[axis], axis=axis, edge_order=1) for axis in range(ndim)],
        axis=ndim,
    )
    det = np.linalg.det(gram_metric(diffs.reshape((len(stack), ndim, -1))))
    return np.where(det > TOL, np.sqrt(np.abs(det)), np.nan)


def relative_state(spec: ExperienceSpec, pure_state) -> np.ndarray:
    """Normalized E|psi>; errors out when the perception has no support on psi."""
    psi = check_array("the state vector", pure_state, dtype=complex).reshape(-1)
    op = realize(spec)
    if op.dim != psi.shape[0]:
        raise DimensionMismatch("operator and state vector dims differ")
    with np.errstate(over="ignore", invalid="ignore"):  # |E psi|^2 overflows above about 1e154
        out = op.mat @ psi
        norm = float(np.linalg.norm(out))
    if not np.isfinite(norm):
        raise QPerceptError("the norm of E|psi> overflows; rescale the state vector")
    if norm <= np.sqrt(TOL):
        raise ZeroMeasure("experience operator annihilates the state")
    return out / norm


def relative_density(spec: ExperienceSpec, state: State) -> State:
    """Normalized E rho E as the relative density matrix of the perception."""
    op = realize(spec, state)
    if op.dim != state.dim:
        raise DimensionMismatch("operator and state dims differ")
    mat = op.mat @ state.mat @ op.mat.conj().T
    norm = float(np.trace(mat).real)
    if norm <= TOL:
        raise ZeroMeasure("perception has zero measure in this state")
    return State(mat / norm)


def overlap_fraction(spec_a: ExperienceSpec, spec_b: ExperienceSpec, state: State) -> float:
    """<EE'><E'E> / (<EE><E'E'>), the squared relative-state overlap for projectors."""
    ea, eb = realize_stack([spec_a, spec_b], state)
    aa, bb, ab, ba = expectations(state, np.array([ea @ ea, eb @ eb, ea @ eb, eb @ ea]))
    if aa.real <= TOL or bb.real <= TOL:
        raise ZeroMeasure("overlap fraction needs both perceptions to have support")
    return float((ab * ba).real / (aa.real * bb.real))


def profile_rows(profile: MeasureProfile) -> list[dict]:
    """Row dicts (coordinates/label, weight, density, T, T_r, T_d) for export."""
    t, t_r, t_d = typicality_curves(profile)
    rows = []
    space = profile.space
    for i in range(len(space)):
        label = space.labels[i] if space.labels is not None else f"p{i}"
        row: dict = {"label": label}
        if space.points is not None:
            for k, name in enumerate(space.axes or ()):
                row[name] = float(space.points[i, k])
        row.update(
            weight=float(space.weights[i]),
            density=float(profile.density[i]),
            typicality=float(t[i]),
            reversed_typicality=float(t_r[i]),
            dual_typicality=float(t_d[i]),
        )
        rows.append(row)
    return rows


def profile_to_csv(profile: MeasureProfile, path) -> None:
    rows = profile_rows(profile)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def profile_to_json(profile: MeasureProfile) -> dict:
    return {
        "total_measure": profile.total_measure,
        "points": profile_rows(profile),
    }
