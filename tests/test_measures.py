import csv
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import REPO, random_projector, random_state, subprocess_env
from qpercept import hypotheses, measures
from qpercept.errors import TOL, InvalidExperience, ValidationError, ZeroMeasure
from qpercept.hypotheses import ExperienceFamily, Explicit, Projector
from qpercept.measures import (
    MeasureProfile,
    PerceptionSpace,
    build_profile,
    conditional_probability,
    dual_typicality,
    measure_density,
    overlap_fraction,
    prior_measure,
    profile_from_density,
    profile_rows,
    profile_to_csv,
    profile_to_json,
    relative_density,
    relative_state,
    restricted_typicality,
    reversed_typicality,
    set_measure,
    typicality,
    typicality_curves,
    typicality_of_density,
)
from qpercept.operators import Operator, State, bloch_projector, check_array, identity
from qpercept.toymodels import ball_experience, ball_prior_weight, circle_density_array, circle_model


def circle_profile(theta: float, points: int = 20001) -> MeasureProfile:
    phis = np.linspace(-math.pi, math.pi, points)
    space = PerceptionSpace.grid({"phi": phis})
    return profile_from_density(space, circle_density_array(theta, phis))


def sphere_profile(theta: float, n_theta=301, n_phi=301) -> MeasureProfile:
    varthetas = np.linspace(0.0, math.pi, n_theta)
    varphis = np.linspace(0.0, 2 * math.pi, n_phi)
    space = PerceptionSpace.grid(
        {"vartheta": varthetas, "varphi": varphis},
        prior_density=lambda vt, vp: np.maximum(np.sin(vt), 1e-300),
    )
    vt = space.points[:, 0]
    vp = space.points[:, 1]
    cos_psi = math.cos(theta) * np.cos(vt) + math.sin(theta) * np.sin(vt) * np.cos(vp)
    return profile_from_density(space, 0.5 * (1.0 + cos_psi))


def test_measure_density_circle_value():
    theta, phi = 1.1, 0.6
    state = State.from_bloch(theta, 0.0)
    spec = Projector(bloch_projector(math.pi / 2, phi))
    expected = 0.5 * (1 + math.sin(theta) * math.cos(phi))
    assert measure_density(state, spec) == pytest.approx(expected, abs=1e-12)


def test_measure_density_maximally_mixed_is_half():
    spec = Projector(bloch_projector(0.7, 0.2))
    assert measure_density(State.maximally_mixed(2), spec) == pytest.approx(0.5, abs=1e-12)


def test_measure_density_sphere_value():
    theta, vt, vp = 0.8, 1.9, 2.5
    state = State.from_bloch(theta, 0.0)
    spec = Projector(bloch_projector(vt, vp))
    cos_psi = math.cos(theta) * math.cos(vt) + math.sin(theta) * math.sin(vt) * math.cos(vp)
    assert measure_density(state, spec) == pytest.approx(0.5 * (1 + cos_psi), abs=1e-12)


def test_measure_density_rejects_genuinely_negative():
    neg = Explicit(Operator(np.diag([-1.0, 0.0])))
    with pytest.raises(InvalidExperience):
        measure_density(State.maximally_mixed(2), neg)


def test_build_profile_circle_total_measure_is_pi():
    prof = circle_profile(theta=1.2)
    assert prof.total_measure == pytest.approx(math.pi, rel=1e-8)


def test_build_profile_from_family_discrete():
    p = bloch_projector(0.3, 0.1)
    fam = ExperienceFamily(
        (("a", Projector(p), 1.0), ("b", Projector(identity(2) - p), 2.0))
    )
    state = State.from_bloch(0.3, 0.1)
    prof = build_profile(state, fam)
    assert prof.density[0] == pytest.approx(1.0, abs=1e-12)
    assert prof.density[1] == pytest.approx(0.0, abs=1e-12)
    assert prof.total_measure == pytest.approx(1.0, abs=1e-10)


def test_build_profile_on_labeled_space_looks_up_each_label(rng):
    fam = ExperienceFamily(
        tuple((label, Projector(random_projector(rng, 3, 1)), 1.0) for label in "abcde")
    )
    state = random_state(rng, 3)
    space = PerceptionSpace.discrete(["d", "a", "e"], weights=[0.5, 2.0, 1.5])
    prof = build_profile(state, fam, space)
    assert prof.space is space
    for k, label in enumerate(space.labels):
        assert prof.density[k] == measure_density(state, fam.spec_for(label))
    own = build_profile(state, fam)
    assert own.space.labels == fam.labels
    assert np.array_equal(own.space.weights, fam.weights)
    with pytest.raises(KeyError) as exc:
        build_profile(state, fam, PerceptionSpace.discrete(["a", "zz"]))
    assert exc.value.args == ("zz",)


def test_perception_space_rejects_duplicate_labels():
    with pytest.raises(ValidationError, match="labels must be unique"):
        PerceptionSpace.discrete(["a", "a"])
    with pytest.raises(ValidationError, match="labels must be unique"):
        PerceptionSpace.discrete([1, "1"])  # labels are compared as strings
    space = PerceptionSpace.discrete(["a", "b", "c"])
    assert [space.index_of(label) for label in "cab"] == [2, 0, 1]
    with pytest.raises(KeyError):
        space.index_of("z")


def test_build_profile_sphere_total_measure():
    prof = sphere_profile(theta=0.9)
    assert prof.total_measure == pytest.approx(2 * math.pi, rel=1e-4)


def test_zero_total_measure_blocks_typicality():
    space = PerceptionSpace.discrete(["only"])
    prof = profile_from_density(space, np.array([0.0]))
    assert prof.total_measure == 0.0
    with pytest.raises(ZeroMeasure):
        typicality(prof, 0)


def test_profile_from_density_checks_its_input_once_and_keeps_every_error(monkeypatch):
    space = PerceptionSpace.discrete(["a", "b"])
    calls = []

    def counted(what, *args, **kwargs):
        calls.append(what)
        return check_array(what, *args, **kwargs)

    monkeypatch.setattr(measures, "check_array", counted)
    prof = profile_from_density(space, np.array([-0.5 * TOL, 1.0]))
    assert calls == ["the density"]
    assert prof.density.tolist() == [0.0, 1.0] and not prof.density.flags.writeable
    assert prof == MeasureProfile(space, prof.density)
    with pytest.raises(ValidationError, match="^each entry of the density must be a finite real number, got nan$"):
        profile_from_density(space, [math.nan, 1.0])
    with pytest.raises(InvalidExperience, match="^density below -TOL$"):
        profile_from_density(space, [-2 * TOL, 1.0])
    for make in (profile_from_density, MeasureProfile):
        with pytest.raises(ValidationError, match="^density must have one value per point$"):
            make(space, [-0.5 * TOL, 0.5, 0.5])
    with pytest.raises(ValidationError, match="^density values must be nonnegative$"):
        MeasureProfile(space, [-0.5 * TOL, 1.0])


def test_set_measure_full_and_empty():
    prof = circle_profile(1.0, points=2001)
    assert set_measure(prof) == pytest.approx(prof.total_measure)
    assert set_measure(prof, np.zeros(len(prof.space), dtype=bool)) == 0.0


def test_set_measure_additivity(rng):
    prof = circle_profile(0.7, points=2001)
    mask = rng.uniform(size=len(prof.space)) < 0.4
    total = set_measure(prof, mask) + set_measure(prof, ~mask)
    assert total == pytest.approx(prof.total_measure, rel=1e-10)


def test_a_list_mask_selects_as_an_array_mask_does():
    prof = profile_from_density(PerceptionSpace.discrete(["a", "b", "c"]), np.array([0.2, 0.3, 0.5]))
    as_list, as_array = [True, False, True], np.array([True, False, True])
    assert set_measure(prof, as_list) == set_measure(prof, as_array) == pytest.approx(0.7)
    assert restricted_typicality(prof, "c", as_list) == restricted_typicality(prof, "c", as_array)
    assert conditional_probability(prof, as_list, [False, False, True]) == pytest.approx(0.5 / 0.7)
    with pytest.raises(ValidationError, match="mask length must match the space"):
        set_measure(prof, [True, False])


def test_ball_box_measure_stabilizes_under_refinement():
    # weighted measure of a box around the origin for the spin-up state
    def box_measure(n):
        axis = np.linspace(-0.2, 0.2, n)
        space = PerceptionSpace.grid(
            {"u": axis, "v": axis, "w": axis},
            prior_density=lambda u, v, w: ball_prior_weight_vec(u, v, w),
        )
        u, v, w = (space.points[:, i] for i in range(3))
        density = (1.0 + w) / (1.0 + u * u + v * v + w * w)
        prof = profile_from_density(space, density)
        return prof.total_measure

    def ball_prior_weight_vec(u, v, w):
        return np.sqrt(8.0) / (1.0 + u * u + v * v + w * w) ** 3

    coarse, fine, finest = box_measure(21), box_measure(41), box_measure(81)
    assert abs(fine - finest) < 1e-4
    assert abs(coarse - finest) < 1e-3
    # independent closed-form check of the integrand at the center
    assert ball_prior_weight(0, 0, 0) == pytest.approx(math.sqrt(8.0))


def test_conditional_probability_superset_is_one(rng):
    prof = circle_profile(0.9, points=2001)
    inner = prof.space.points[:, 0] < 1.0
    assert conditional_probability(prof, inner, np.ones(len(prof.space), dtype=bool)) == 1.0


def test_conditional_probability_queen_of_england():
    # five billion equally weighted perceptions, one of interest
    space = PerceptionSpace.discrete(["queen", "rest"], weights=[1.0, 5e9 - 1.0])
    prof = profile_from_density(space, np.ones(2))
    p = conditional_probability(prof, None, lambda l: l == "queen")
    assert p == pytest.approx(2e-10, rel=1e-6)


def test_conditional_probability_cold_hemisphere():
    theta = 0.9
    # sharp hemisphere cuts converge only linearly in the row spacing
    prof = sphere_profile(theta, n_theta=1201, n_phi=41)
    vt = prof.space.points[:, 0]
    # the lukewarm circle at the equator has measure zero; excluding its grid
    # row from the condition keeps the discretization error symmetric
    off_equator = np.abs(vt - math.pi / 2) > 1e-12
    cold = vt < math.pi / 2
    expected = (2 + math.cos(theta)) / 4
    assert conditional_probability(prof, off_equator, cold) == pytest.approx(expected, rel=1e-3)


def test_conditional_probability_zero_condition():
    prof = circle_profile(1.0, points=501)
    with pytest.raises(ZeroMeasure):
        conditional_probability(prof, np.zeros(len(prof.space), dtype=bool), None)


def test_typicality_constant_density_is_one():
    space = PerceptionSpace.discrete(list("abcde"))
    prof = profile_from_density(space, np.full(5, 0.7))
    for i in range(5):
        assert typicality(prof, i) == 1.0
        assert reversed_typicality(prof, i) == 1.0


def test_typicality_circle_grid_matches_closed_form():
    theta, phi = math.pi / 2, 5 * math.pi / 6
    prof = circle_profile(theta, points=200001)
    closed = circle_model(theta, phi)
    grid_t = typicality_of_density(prof, closed.density)
    assert grid_t == pytest.approx((math.pi - 3) / (6 * math.pi), abs=1e-5)


def test_typicality_sphere_grid_matches_closed_form():
    theta = 0.8
    prof = sphere_profile(theta, 501, 501)
    for psi in (0.5, 1.2, 2.4):
        density = math.cos(psi / 2) ** 2
        expected = math.cos(psi / 2) ** 4
        assert typicality_of_density(prof, density) == pytest.approx(expected, abs=2e-3)


def _grid_oracle(arrays):
    """Points and trapezoid weights as a meshgrid copy and a running product from ones."""
    axis_weights = []
    for arr in arrays:
        w = np.zeros_like(arr)
        w[:-1] += np.diff(arr) / 2
        w[1:] += np.diff(arr) / 2
        axis_weights.append(w)
    pts = np.column_stack([m.reshape(-1) for m in np.meshgrid(*arrays, indexing="ij")])
    weights = np.ones(pts.shape[0])
    for wm in np.meshgrid(*axis_weights, indexing="ij"):
        weights = weights * wm.reshape(-1)
    return pts, weights


@pytest.mark.parametrize("sizes", [(2,), (1001,), (7, 2), (40, 33), (5, 2, 9)])
def test_grid_points_and_weights_equal_the_meshgrid_oracle(rng, sizes):
    arrays = [np.cumsum(rng.uniform(0.01, 1.0, n)) - 3.0 for n in sizes]
    space = PerceptionSpace.grid({f"x{k}": a for k, a in enumerate(arrays)})
    pts, weights = _grid_oracle(arrays)
    assert np.array_equal(space.points, pts) and np.array_equal(space.weights, weights)
    assert not space.points.flags.writeable and not space.weights.flags.writeable


def test_profile_products_are_formed_once_and_read_only():
    prof = circle_profile(1.0, points=101)
    assert prof.point_measures is prof.point_measures
    assert not prof.point_measures.flags.writeable
    assert np.array_equal(prof.point_measures, prof.density * prof.space.weights)
    assert prof.total_measure == float(np.sum(prof.density * prof.space.weights))
    assert MeasureProfile(prof.space, prof.density).total_measure == prof.total_measure


def test_tie_semantics_inflate_both_sides():
    space = PerceptionSpace.discrete(list("abcd"))
    prof = profile_from_density(space, np.array([1.0, 2.0, 2.0, 3.0]))
    total = prof.total_measure
    t = typicality(prof, 1)
    t_r = reversed_typicality(prof, 1)
    # both "<=" and ">=" sets include the full tied plateau
    assert t == pytest.approx((1 + 2 + 2) / total)
    assert t_r == pytest.approx((2 + 2 + 3) / total)
    assert t + t_r == pytest.approx(1 + (2 + 2) / total)


@given(seed=st.integers(0, 2**20))
@settings(max_examples=30, deadline=None)
def test_typicality_sum_rule(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 30))
    space = PerceptionSpace.discrete([f"x{i}" for i in range(n)])
    density = rng.choice([0.5, 1.0, 1.5, 2.0], size=n)
    prof = profile_from_density(space, density)
    mu = prof.point_measures
    for idx in range(0, n, max(1, n // 5)):
        ties = float(np.sum(mu[density == density[idx]]))
        lhs = typicality(prof, idx) + reversed_typicality(prof, idx)
        assert lhs == pytest.approx(1.0 + ties / prof.total_measure, rel=1e-10)


def test_typicality_curves_match_pointwise_queries():
    prof = circle_profile(0.6, points=501)
    t, t_r, t_d = typicality_curves(prof)
    for idx in (0, 100, 250, 400):
        assert t[idx] == pytest.approx(typicality(prof, idx), rel=1e-12)
        assert t_r[idx] == pytest.approx(reversed_typicality(prof, idx), rel=1e-12)
        assert t_d[idx] == pytest.approx(dual_typicality(prof, idx), rel=1e-12)


@given(
    points=st.lists(
        st.tuples(
            st.floats(1e-3, 1e3),
            st.sampled_from([0.0, 0.0, 1 / 3, 0.5, 1.0, 1.0, 2.0, 7.25]),
        ),
        min_size=1,
        max_size=60,
    )
)
@settings(max_examples=150, deadline=None)
def test_typicality_engine_against_masked_sums(points):
    weights, density = (np.array(column) for column in zip(*points))
    labels = [f"x{i}" for i in range(len(points))]
    prof = profile_from_density(PerceptionSpace.discrete(labels, weights), density)
    if prof.total_measure == 0:
        with pytest.raises(ZeroMeasure):
            typicality_curves(prof)
        return
    curves = typicality_curves(prof)
    assert typicality_curves(prof) is curves
    t, t_r, t_d = curves
    for curve in curves:
        assert not curve.flags.writeable
        assert np.all((curve >= 0.0) & (curve <= 1.0))
    assert t.max() == 1.0
    assert np.all(t + t_r >= 1.0 - 1e-12)
    for i, label in enumerate(labels):
        for p in (i, label):
            assert typicality(prof, p) == t[i]
            assert reversed_typicality(prof, p) == t_r[i]
            assert dual_typicality(prof, p) == t_d[i]
    # oracle: one masked sum per point over the pairwise total; T_d is checked
    # against the returned min(T, T_r), since cross-ties (1/3 against 1 - 2/3)
    # can round either way
    mu, total = prof.point_measures, prof.total_measure
    lowest = np.minimum(t, t_r)
    for i in range(len(points)):
        assert t[i] == pytest.approx(np.sum(mu[density <= density[i]]) / total, abs=1e-12)
        assert t_r[i] == pytest.approx(np.sum(mu[density >= density[i]]) / total, abs=1e-12)
        assert t_d[i] == pytest.approx(np.sum(mu[lowest <= lowest[i]]) / total, abs=1e-12)


def test_dual_typicality_matches_continuum_identity():
    prof = circle_profile(1.3, points=40001)
    t, _, t_d = typicality_curves(prof)
    interior = (t > 0.01) & (t < 0.99)
    assert np.max(np.abs(t_d[interior] - (1 - np.abs(1 - 2 * t[interior])))) < 1e-3


def test_typicality_cdf_is_uniform():
    # drawing perceptions by measure makes the typicality itself uniform
    prof = circle_profile(0.9, points=100001)
    t, _, _ = typicality_curves(prof)
    rng = np.random.default_rng(7)
    weights = prof.point_measures / prof.total_measure
    draws = rng.choice(len(weights), size=100_000, p=weights)
    sample = np.sort(t[draws])
    grid = np.arange(1, len(sample) + 1) / len(sample)
    ks = np.max(np.maximum(np.abs(sample - grid), np.abs(sample - grid + 1 / len(sample))))
    assert ks <= 0.02


def test_restricted_typicality():
    prof = circle_profile(1.0, points=4001)
    phis = prof.space.points[:, 0]
    half = phis >= 0
    idx = 3000
    assert half[idx]
    # brute-force filtered sum oracle
    mu = prof.point_measures
    mask = half & (prof.density <= prof.density[idx])
    expected = float(np.sum(mu[mask]) / np.sum(mu[half]))
    assert restricted_typicality(prof, idx, half) == pytest.approx(expected, rel=1e-12)
    assert restricted_typicality(prof, idx, np.ones(len(phis), dtype=bool)) == pytest.approx(
        typicality(prof, idx), rel=1e-12
    )
    singleton = np.zeros(len(phis), dtype=bool)
    singleton[idx] = True
    assert restricted_typicality(prof, idx, singleton) == 1.0
    with pytest.raises(ValidationError):
        restricted_typicality(prof, 10, singleton)


def test_prior_measure_counting_and_trace(rng):
    specs = tuple(
        (f"p{i}", Projector(random_projector(rng, 2, 1)), 1.0) for i in range(4)
    )
    fam = ExperienceFamily(specs)
    assert np.array_equal(prior_measure(fam, "counting"), np.ones(4))
    # rank-one projectors all have unit trace
    assert np.allclose(prior_measure(fam, "trace"), np.ones(4))
    mixed = State.maximally_mixed(2)
    assert np.allclose(prior_measure(fam, "prior_state", prior_state=mixed), 0.5 * np.ones(4))


def test_prior_measure_realizes_only_when_needed(rng, monkeypatch):
    fam = ExperienceFamily(
        tuple((f"p{i}", Projector(random_projector(rng, 2, 1)), 1.0) for i in range(5))
    )
    calls = []
    real = hypotheses.realize

    def counting_realize(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(hypotheses, "realize", counting_realize)
    assert np.array_equal(prior_measure(fam, "counting"), np.ones(5))
    with pytest.raises(ValidationError, match="unknown prior-measure mode"):
        prior_measure(fam, "volume")
    with pytest.raises(ValidationError, match="needs a grid space"):
        prior_measure(fam, "riemannian")
    assert len(calls) == 0
    prior_measure(fam, "trace")
    assert len(calls) == 5


def test_prior_measure_riemannian_circle_constant():
    phis = np.linspace(0.0, 2 * math.pi, 101)
    space = PerceptionSpace.grid({"phi": phis})
    fam = ExperienceFamily(
        tuple(
            (f"p{i}", Projector(bloch_projector(math.pi / 2, float(p))), 1.0)
            for i, p in enumerate(phis)
        )
    )
    weights = prior_measure(fam, "riemannian", space=space)
    # interior points carry the exact constant 1/sqrt(2)
    assert np.allclose(weights[1:-1], 1 / math.sqrt(2), atol=1e-3)


def test_prior_measure_riemannian_sphere_proportional_to_sine():
    n_t, n_p = 41, 41
    varthetas = np.linspace(0.2, math.pi - 0.2, n_t)
    varphis = np.linspace(0.0, 2 * math.pi, n_p)
    space = PerceptionSpace.grid({"vartheta": varthetas, "varphi": varphis})
    entries = []
    for i, (vt, vp) in enumerate(space.points):
        entries.append((f"p{i}", Projector(bloch_projector(float(vt), float(vp))), 1.0))
    fam = ExperienceFamily(tuple(entries))
    weights = prior_measure(fam, "riemannian", space=space).reshape(n_t, n_p)
    interior = weights[1:-1, 1:-1]
    sines = np.sin(varthetas[1:-1])
    ratio = interior / sines[:, None]
    # proportionality to sin(polar): the ratio is constant across the grid
    assert np.nanmax(np.abs(ratio / np.nanmean(ratio) - 1.0)) < 1e-4


def test_prior_measure_riemannian_rejects_grid_out_of_order():
    # same points and a family permuted to match, but not in PerceptionSpace.grid
    # order: the np.gradient reshape would silently scramble neighbors
    axis = np.linspace(0.2, math.pi - 0.2, 41)
    grid = PerceptionSpace.grid({"vartheta": axis, "varphi": np.linspace(0.0, 2 * math.pi, 41)})
    order = np.random.default_rng(5).permutation(len(grid))
    space = PerceptionSpace(weights=grid.weights[order], points=grid.points[order], axes=grid.axes)
    fam = ExperienceFamily(
        tuple(
            (f"p{i}", Projector(bloch_projector(float(vt), float(vp))), 1.0)
            for i, (vt, vp) in enumerate(space.points)
        )
    )
    with pytest.raises(ValidationError):
        prior_measure(fam, "riemannian", space=space)


def test_prior_measure_riemannian_converges_to_ball_prior():
    # the grid Gram metric approaches sqrt(8)/(1+r^2)^3 at second order
    errors = []
    for n in (11, 21):
        axis = np.linspace(-0.5, 0.5, n)
        space = PerceptionSpace.grid({"u": axis, "v": axis, "w": axis})
        fam = ExperienceFamily(
            tuple((f"b{i}", Explicit(ball_experience(*pt)), 1.0) for i, pt in enumerate(space.points))
        )
        weights = prior_measure(fam, "riemannian", space=space).reshape(n, n, n)
        exact = np.array([ball_prior_weight(*pt) for pt in space.points]).reshape(n, n, n)
        errors.append(np.max(np.abs(weights / exact - 1.0)[1:-1, 1:-1, 1:-1]))
    assert errors[1] <= errors[0] / 3


def test_relative_state_examples(rng):
    psi = np.array([1.0, 0.0])
    containing = Projector(Operator(np.diag([1.0, 0.0])))
    out = relative_state(containing, psi)
    assert np.allclose(out, psi)
    orthogonal = Projector(Operator(np.diag([0.0, 1.0])))
    with pytest.raises(ZeroMeasure):
        relative_state(orthogonal, psi)


def test_relative_density_normalization(rng):
    for _ in range(10):
        state = random_state(rng, 3)
        spec = Projector(random_projector(rng, 3, 2))
        rel = relative_density(spec, state)
        assert np.trace(rel.mat).real == pytest.approx(1.0, abs=1e-10)


def test_overlap_fraction_examples(rng):
    state = random_state(rng, 2)
    p = Projector(bloch_projector(0.5, 0.5))
    assert overlap_fraction(p, p, state) == pytest.approx(1.0, rel=1e-10)
    q = Projector(identity(2) - bloch_projector(0.5, 0.5))
    assert overlap_fraction(p, q, state) == pytest.approx(0.0, abs=1e-12)


def test_overlap_fraction_matches_the_four_traces(rng):
    for dim in (2, 3, 4):
        state = random_state(rng, dim)
        ea, eb = (random_projector(rng, dim, rank) for rank in (1, dim - 1))

        def tr(x, y):
            return complex(np.trace(state.mat @ x.mat @ y.mat))

        ref = (tr(ea, eb) * tr(eb, ea)).real / (tr(ea, ea).real * tr(eb, eb).real)
        assert overlap_fraction(Projector(ea), Projector(eb), state) == pytest.approx(ref, rel=1e-12, abs=1e-14)


def test_overlap_fraction_matches_relative_state_overlap(rng):
    psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    state = State.pure(psi)
    a = Projector(random_projector(rng, 3, 1))
    b = Projector(random_projector(rng, 3, 2))
    via_states = abs(np.vdot(relative_state(a, psi), relative_state(b, psi))) ** 2
    assert overlap_fraction(a, b, state) == pytest.approx(via_states, rel=1e-9)


def test_conditional_probabilities_invariant_under_density_rescaling():
    space = PerceptionSpace.discrete(list("abcd"))
    dens = np.array([0.1, 0.4, 0.2, 0.3])
    prof1 = profile_from_density(space, dens)
    prof2 = profile_from_density(space, 5.0 * dens)
    sel = lambda l: l in {"a", "c"}
    cond = lambda l: l in {"a", "b", "c"}
    assert conditional_probability(prof1, cond, sel) == pytest.approx(
        conditional_probability(prof2, cond, sel), rel=1e-12
    )


def test_profile_export(tmp_path):
    prof = circle_profile(1.0, points=101)
    rows = profile_rows(prof)
    assert {"label", "phi", "weight", "density", "typicality"} <= set(rows[0])
    out = tmp_path / "profile.csv"
    profile_to_csv(prof, out)
    header = out.read_text().splitlines()[0]
    assert header.split(",")[0] == "label"
    blob = profile_to_json(prof)
    assert blob["total_measure"] == pytest.approx(prof.total_measure)
    assert len(blob["points"]) == 101


def test_the_sweep_script_writes_the_profile_rows(tmp_path):
    # the script in a fresh interpreter, at its default theta of pi/2
    out = tmp_path / "circle.csv"
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "typicality_sweep.py"), "--points", "41", "--output", str(out)],
        capture_output=True, text=True, env=subprocess_env(),
    )
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    assert len(lines) == 42
    rows = profile_rows(circle_profile(math.pi / 2, points=41))
    assert lines[0].split(",") == list(rows[0])
    # str(float) round-trips, so the written values are the rows' values exactly
    written = list(csv.DictReader(lines))
    assert [{k: row[k] if k == "label" else float(row[k]) for k in row} for row in written] == rows
