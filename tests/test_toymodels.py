import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    eight_triangle_areas,
    matrix_route_linpos,
    spherical_triangle_solid_angle,
    sphere_directions,
    two_step_matrix_route,
    vector_linpos,
)
from qpercept import bloch, toymodels
from qpercept.errors import DegenerateInput, ValidationError
from qpercept.hypotheses import realize
from qpercept.measures import PerceptionSpace, profile_from_density, typicality_of_density
from qpercept.operators import Operator, State, bloch_projector, bloch_vector, expectation, identity, tensor_product
from qpercept.toymodels import (
    Direction,
    EprCatReport,
    ball_experience,
    ball_model_density,
    ball_prior_weight,
    circle_density_array,
    circle_model,
    epr_cat_model,
    linear_positivity_fraction,
    sphere_model,
    triangle_equivalence,
    two_step_analysis,
    two_step_family,
)

polar = st.floats(min_value=0.0, max_value=math.pi)
azimuth = st.floats(min_value=0.0, max_value=2 * math.pi)


def direction_from(rng):
    return Direction(math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi))


# --- ball model ---------------------------------------------------------------


def test_ball_model_density_closed_form():
    up = State.pure([1.0, 0.0])
    assert ball_model_density(up, 0.0, 0.0, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert ball_model_density(up, 1.0, 0.0, 0.0) == pytest.approx(0.5, abs=1e-12)
    down = State.pure([0.0, 1.0])
    assert ball_model_density(down, 0.0, 0.0, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_ball_model_density_general_formula(rng):
    up = State.pure([1.0, 0.0])
    for _ in range(20):
        u, v, w = rng.uniform(-0.57, 0.57, 3)
        expected = (1 + w) / (1 + u * u + v * v + w * w)
        assert ball_model_density(up, u, v, w) == pytest.approx(expected, abs=1e-12)


ball_coordinate = st.floats(min_value=-1.0, max_value=1.0)


@settings(max_examples=300, deadline=None)
@given(ball_coordinate, ball_coordinate, ball_coordinate)
def test_ball_spin_up_density_is_the_matrix_route_to_the_bit(u, v, w):
    assume(u * u + v * v + w * w <= 1.0)
    assert bloch.ball_spin_up_density(u, v, w) == ball_model_density(State.pure([1.0, 0.0]), u, v, w)


def test_ball_model_rejects_outside_ball():
    with pytest.raises(ValidationError):
        ball_experience(0.8, 0.8, 0.8)
    with pytest.raises(ValidationError):
        ball_prior_weight(1.2, 0.0, 0.0)
    with pytest.raises(ValidationError, match="^ball coordinates must satisfy u\\^2\\+v\\^2\\+w\\^2 <= 1$"):
        bloch.ball_spin_up_density(0.8, 0.8, 0.8)
    with pytest.raises(ValidationError, match="a ball coordinate must be a finite real number, got nan"):
        ball_experience(0.0, math.nan, 0.0)


def test_ball_prior_weight():
    assert ball_prior_weight(0, 0, 0) == pytest.approx(math.sqrt(8))
    assert ball_prior_weight(1, 0, 0) == pytest.approx(math.sqrt(8) / 8)


# --- circle model -------------------------------------------------------------


def test_circle_model_reference_point():
    res = circle_model(math.pi / 2, 5 * math.pi / 6)
    assert res.typicality == pytest.approx((math.pi - 3) / (6 * math.pi), abs=1e-12)
    assert res.typicality == pytest.approx(0.007511723574771, abs=1e-12)
    assert res.reversed_typicality == pytest.approx(1 - res.typicality, abs=1e-15)


def test_circle_model_peak_has_unit_typicality():
    res = circle_model(math.pi / 2, 0.0)
    assert res.typicality == 1.0
    # the peak is "too good to be true": the dual statistic flags it
    assert res.dual_typicality == pytest.approx(0.0, abs=1e-15)


def test_circle_model_rejects_degenerate_state():
    with pytest.raises(DegenerateInput):
        circle_model(0.0, 1.0)


def test_circle_model_matches_grid_oracle():
    theta, phi = math.pi / 3, 2.0
    phis = np.linspace(-math.pi, math.pi, 1_000_001)
    space = PerceptionSpace.grid({"phi": phis})
    prof = profile_from_density(space, circle_density_array(theta, phis))
    closed = circle_model(theta, phi)
    grid_t = typicality_of_density(prof, closed.density)
    assert grid_t == pytest.approx(closed.typicality, abs=1e-5)


@given(theta=st.floats(min_value=0.05, max_value=math.pi - 0.05), phi=st.floats(-10, 10))
@settings(max_examples=150, deadline=None)
def test_circle_model_bounds_and_duality(theta, phi):
    res = circle_model(theta, phi)
    assert 0.0 <= res.typicality <= 1.0
    assert res.reversed_typicality == pytest.approx(1 - res.typicality, abs=1e-12)
    assert res.dual_typicality == pytest.approx(
        1 - abs(1 - 2 * res.typicality), abs=1e-12
    )


# --- sphere model -------------------------------------------------------------


def test_sphere_model_aligned_and_antipodal():
    aligned = sphere_model(0.7, 0.7, 0.0)
    assert aligned.density == pytest.approx(1.0, abs=1e-12)
    assert aligned.typicality == pytest.approx(1.0, abs=1e-12)
    anti = sphere_model(0.7, math.pi - 0.7, math.pi)
    assert anti.density == pytest.approx(0.0, abs=1e-12)
    assert anti.typicality == pytest.approx(0.0, abs=1e-12)


def test_sphere_model_cold_probability():
    assert sphere_model(math.pi / 2, 1.0, 1.0).cold_probability == pytest.approx(0.5)
    theta = 0.4
    assert sphere_model(theta, 1.0, 1.0).cold_probability == pytest.approx(
        (2 + math.cos(theta)) / 4
    )


def test_sphere_cold_probability_against_quadrature():
    theta = 1.1
    vt = np.linspace(0, math.pi / 2, 20001)
    # azimuth integral of the density leaves pi*(1 + cos(theta) cos(vt))
    integrand = math.pi * (1 + math.cos(theta) * np.cos(vt)) * np.sin(vt)
    cold = np.trapezoid(integrand, vt)
    assert cold / (2 * math.pi) == pytest.approx(
        sphere_model(theta, 0.0, 0.0).cold_probability, rel=1e-8
    )


def test_sphere_density_matches_operator_expectation(rng):
    theta = 0.9
    state = State.from_bloch(theta, 0.0)
    for _ in range(20):
        vt, vp = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
        direct = expectation(state, bloch_projector(vt, vp)).real
        assert sphere_model(theta, vt, vp).density == pytest.approx(direct, abs=1e-12)


# --- two-step histories ---------------------------------------------------------


def test_two_step_degenerate_coincidence_kills_medium_residual():
    state_dir = Direction(0.8, 1.3)
    rep = two_step_analysis(state_dir, state_dir, Direction(2.0, 0.4))
    assert rep.medium_residual <= 1e-12


def test_two_step_measures_sum_to_one(rng):
    for _ in range(50):
        rep = two_step_analysis(direction_from(rng), direction_from(rng), direction_from(rng))
        assert sum(rep.measures) == pytest.approx(1.0, abs=1e-9)
        assert min(rep.measures) >= -1e-10


def test_two_step_weak_is_real_part_of_medium(rng):
    # the single real condition is twice the real part of the complex one
    for _ in range(50):
        sd, qd, rd = (direction_from(rng) for _ in range(3))
        rep = two_step_analysis(sd, qd, rd)
        q = bloch_projector(qd.polar, qd.azimuth)
        r = bloch_projector(rd.polar, rd.azimuth)
        rho = State.from_bloch(sd.polar, sd.azimuth)
        cross = np.trace(rho.mat @ (q.mat @ r.mat - q.mat @ r.mat @ q.mat))
        assert rep.weak_residual == pytest.approx(2 * cross.real, abs=1e-12)
        assert rep.medium_residual == pytest.approx(abs(cross), abs=1e-12)


def test_two_step_right_angle_configuration_is_weakly_consistent():
    # state at the pole, Q on the equator: the great circle from the state
    # through Q is a meridian, which meets the equator at a right angle, so
    # any R on the equator gives a weakly consistent pair of circles at Q
    state_dir = Direction(0.0, 0.0)
    q_dir = Direction(math.pi / 2, 0.7)
    r_dir = Direction(math.pi / 2, 2.9)
    rep = two_step_analysis(state_dir, q_dir, r_dir)
    assert abs(rep.weak_residual) <= 1e-10


def test_two_step_family_realizations_match_report(rng):
    sd, qd, rd = (direction_from(rng) for _ in range(3))
    q = bloch_projector(qd.polar, qd.azimuth)
    r = bloch_projector(rd.polar, rd.azimuth)
    rho = State.from_bloch(sd.polar, sd.azimuth)
    fam = two_step_family(q, r)
    rep = two_step_analysis(sd, qd, rd)
    for (label, spec, _), measure in zip(fam.entries, rep.measures):
        assert expectation(rho, realize(spec)).real == pytest.approx(measure, abs=1e-12)


def test_bloch_vector_is_the_map_of_bloch_projector():
    # a grid with both poles, so sin(polar) = 0 and the azimuth drops out
    for polar in np.linspace(0.0, math.pi, 9):
        for azimuth in np.linspace(0.0, 2 * math.pi, 13):
            vector = bloch_vector(polar, azimuth)
            assert np.allclose(toymodels._pauli_vector(bloch_projector(polar, azimuth)), vector, rtol=0, atol=1e-15)
            assert np.array_equal(Direction(polar, azimuth).unit_vector(), vector)


def _angles(v) -> tuple[float, float]:
    """(polar, azimuth) with bloch_vector(polar, azimuth) along v."""
    return math.atan2(math.hypot(v[0], v[1]), v[2]), math.atan2(-v[1], v[0])


def _tangent_basis(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two unit vectors completing the unit vector n to an orthonormal basis."""
    u = np.cross(n, np.eye(3)[np.argmin(np.abs(n))])
    u /= np.linalg.norm(u)
    return u, np.cross(n, u)


@st.composite
def two_step_triples(draw):
    """Three direction angle pairs: anywhere, on one great circle, or with one
    pair parallel or antipodal to within 2 to 10 times the 1e-9 cutoff."""
    kind = draw(st.sampled_from(["any", "coplanar", "near-degenerate"]))
    if kind == "any":
        return [draw(st.tuples(polar, azimuth)) for _ in range(3)]
    pole = np.array(bloch_vector(*draw(st.tuples(polar, azimuth))))
    u, w = _tangent_basis(pole)
    if kind == "coplanar":
        vectors = [math.cos(a) * u + math.sin(a) * w for a in draw(st.lists(azimuth, min_size=3, max_size=3))]
    else:
        gap, turn = draw(st.floats(2e-9, 1e-8)), draw(azimuth)
        near = math.cos(gap) * pole + math.sin(gap) * (math.cos(turn) * u + math.sin(turn) * w)
        far = bloch_vector(*draw(st.tuples(polar, azimuth)))
        vectors = [pole, draw(st.sampled_from([1.0, -1.0])) * near, far]
    return [_angles(v) for v in vectors]


@given(angles=two_step_triples(), length=st.one_of(st.none(), st.floats(0.0, 1.0)))
@settings(max_examples=300, deadline=None)
def test_closed_forms_match_the_matrix_route_and_the_corner_angles(angles, length):
    sd, qd, rd = (Direction(*a) for a in angles)
    q, r = bloch_projector(qd.polar, qd.azimuth), bloch_projector(rd.polar, rd.azimuth)
    pure = State.from_bloch(sd.polar, sd.azimuth)
    # length None is the pure state along sd; otherwise a mixed state of that Bloch length
    rho = pure if length is None else State(length * pure.mat + (1 - length) * np.eye(2) / 2)
    rep = two_step_analysis(sd, qd, rd, state=None if length is None else rho)
    measures, cross, linpos = two_step_matrix_route(rho, q, r)
    assert np.allclose(rep.measures, measures, rtol=0, atol=1e-12)
    assert rep.weak_residual == pytest.approx(2 * cross.real, abs=1e-12)
    assert rep.medium_residual == pytest.approx(abs(cross), abs=1e-12)
    assert rep.linearly_positive == linpos

    tri = triangle_equivalence(sd, qd, rd)
    vectors = [d.unit_vector() for d in (sd, qd, rd)]
    arcs = [math.atan2(np.linalg.norm(np.cross(x, y)), x @ y) for x, y in itertools.combinations(vectors, 2)]
    # each pair's arc from parallel or antipodal, smallest first
    gaps = sorted(min(arc, math.pi - arc) for arc in arcs)
    assume(abs(gaps[0] - 1e-9) > 1e-14)  # the two routes round an arc at the cutoff differently
    assert tri.status == ("ok" if gaps[0] >= 1e-9 else "degenerate")
    if tri.status == "degenerate":
        return
    assert tri.inequality_holds == matrix_route_linpos(pure, q, r)
    oracle = eight_triangle_areas(*vectors)
    # near a parallel or antipodal pair the areas are ill-conditioned: on 20,000
    # clustered triples the two routes parted by at most about 10 eps / (gap_1 gap_2)
    tol = 1e-12 + 2**10 * np.finfo(float).eps / (gaps[0] * gaps[1])
    assert np.allclose(tri.areas, oracle, rtol=0, atol=tol)
    if np.all(np.abs(oracle - (math.pi + 1e-9)) > tol):
        assert tri.all_triangles_sub_pi == bool(np.all(oracle <= math.pi + 1e-9))


# --- linear positivity Monte Carlo ----------------------------------------------


def test_linear_positivity_single_sample_is_binary():
    mc = linear_positivity_fraction(1, seed=5)
    assert mc.fraction in (0.0, 1.0)


def test_linear_positivity_deterministic():
    a = linear_positivity_fraction(40_000, seed=9)
    b = linear_positivity_fraction(40_000, seed=9)
    assert a == b
    assert a.provenance() == {"seed": 9, "samples": 40_000, "blockSize": toymodels.BLOCK}


@pytest.mark.parametrize("samples", [0, -3, toymodels.MAX_SAMPLES + 1])
def test_linear_positivity_rejects_sample_counts_out_of_range(samples):
    message = rf"the sample count must be an integer in \[1, 1000000000\], got {samples}"
    with pytest.raises(ValidationError, match=message):
        linear_positivity_fraction(samples, seed=9)


def _block_hits(seed: int, block: int, size: int) -> int:
    """Hits of one block, drawn in the test from the block's spawned seed and
    judged on Bloch vectors, without the pole kernel."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(block,)))
    qs = sphere_directions(rng, size)
    rs = sphere_directions(rng, size)
    return int(np.count_nonzero(vector_linpos(np.array([0.0, 0.0, 1.0]), qs, rs)))


def test_linear_positivity_blocks_extend_a_shorter_run():
    block = toymodels.BLOCK
    one, two = linear_positivity_fraction(block, seed=3), linear_positivity_fraction(2 * block, seed=3)
    assert one.hits == _block_hits(3, 0, block)
    assert two.hits - one.hits == _block_hits(3, 1, block)
    # a partial last block is the prefix of the full one
    assert linear_positivity_fraction(block + 100, seed=3).hits - one.hits == _block_hits(3, 1, 100)


@pytest.mark.parametrize("seeds", [range(0, 20), range(1000, 1020)])
def test_pole_kernel_matches_the_vector_route(seeds):
    # the kernel's q.r differs from the vector route's in rounding only
    for seed in seeds:
        assert linear_positivity_fraction(toymodels.BLOCK, seed).hits == _block_hits(seed, 0, toymodels.BLOCK)


def test_pole_kernel_matches_the_vector_route_at_seed_42():
    samples = 10**6
    full, tail = divmod(samples, toymodels.BLOCK)
    oracle = sum(_block_hits(42, b, toymodels.BLOCK) for b in range(full)) + _block_hits(42, full, tail)
    assert oracle == linear_positivity_fraction(samples, 42).hits == 333854


def test_one_draw_per_block_is_the_four_uniform_stream(monkeypatch):
    # small blocks keep 200 seeds cheap; 2500 samples end in a partial block
    monkeypatch.setattr(toymodels, "BLOCK", 1000)
    sizes = (1000, 1000, 500)
    recorded = []
    mask = toymodels._linpos_mask

    def recording(aq, ar, qr):
        recorded.append((aq.copy(), ar.copy()))
        return mask(aq, ar, qr)

    monkeypatch.setattr(toymodels, "_linpos_mask", recording)
    for seed in range(200):
        recorded.clear()
        hits = linear_positivity_fraction(sum(sizes), seed).hits
        oracle_hits = 0
        for block, size in enumerate(sizes):
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(block,)))
            qs, rs = sphere_directions(rng, size), sphere_directions(rng, size)
            assert np.array_equal(recorded[block][0], qs[:, 2])
            assert np.array_equal(recorded[block][1], rs[:, 2])
            oracle_hits += int(np.count_nonzero(mask(qs[:, 2], rs[:, 2], np.einsum("ij,ij->i", qs, rs))))
        assert hits == oracle_hits


def test_linear_positivity_stream_is_not_the_sphere_stream(monkeypatch):
    # sphere_checks(42) draws its uniforms u from default_rng(42); the polar
    # cosines of the linear-positivity sample must not be 2u - 1 of them
    cosines = []
    mask = toymodels._linpos_mask

    def recording(aq, ar, qr):
        cosines.append(aq)  # at the pole a.q is the polar cosine of Q
        return mask(aq, ar, qr)

    monkeypatch.setattr(toymodels, "_linpos_mask", recording)
    linear_positivity_fraction(2**16, seed=42)
    uniforms = np.random.default_rng(42).uniform(0.0, 1.0, cosines[0].size)
    assert cosines[0].size == 2**16
    assert not np.allclose(cosines[0], 2.0 * uniforms - 1.0)


def test_linear_positivity_memory_is_constant_in_samples():
    tracemalloc.start()
    try:
        linear_positivity_fraction(10**6, seed=42)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20  # one block of 2^16 pairs peaks near 5 MiB


def test_linear_positivity_standard_error():
    mc = linear_positivity_fraction(5000, seed=4)
    assert mc.standard_error == math.sqrt(mc.fraction * (1 - mc.fraction) / 5000)
    assert linear_positivity_fraction(1, seed=5).standard_error == 0.0


def test_linear_positivity_matches_matrix_route(rng):
    # the Bloch-vector predicate agrees with the matrix route pointwise, and for
    # pure states also with the eight-triangle picture
    n = 300
    state_dir = Direction(0.0, 0.0)
    pure = State.from_bloch(0.0, 0.0)
    hits = 0
    for _ in range(n):
        qd, rd = direction_from(rng), direction_from(rng)
        q, r = bloch_projector(qd.polar, qd.azimuth), bloch_projector(rd.polar, rd.azimuth)
        rep = two_step_analysis(state_dir, qd, rd)
        assert rep.linearly_positive == matrix_route_linpos(pure, q, r)
        tri = triangle_equivalence(state_dir, qd, rd)
        assert tri.status == "ok"
        assert rep.linearly_positive == tri.inequality_holds
        hits += rep.linearly_positive
    assert 0 < hits < n
    # mixed states off the pole: every Bloch vector must come from the same map
    hits = 0
    for _ in range(n):
        sd, qd, rd = (direction_from(rng) for _ in range(3))
        q, r = bloch_projector(qd.polar, qd.azimuth), bloch_projector(rd.polar, rd.azimuth)
        length = rng.uniform(0.0, 1.0)
        rho = State(length * State.from_bloch(sd.polar, sd.azimuth).mat + (1 - length) * np.eye(2) / 2)
        rep = two_step_analysis(sd, qd, rd, state=rho)
        assert rep.linearly_positive == matrix_route_linpos(rho, q, r)
        hits += rep.linearly_positive
    assert 0 < hits < n


def test_linear_positivity_fraction_converges_to_one_third():
    mc = linear_positivity_fraction(200_000, seed=123)
    sigma = math.sqrt((1 / 3) * (2 / 3) / mc.samples)
    assert mc.fraction == pytest.approx(1.0 / 3.0, abs=4 * sigma)


# --- spherical triangles ---------------------------------------------------------


def test_octant_triangle_areas():
    z = np.array([0.0, 0.0, 1.0])
    x = np.array([1.0, 0.0, 0.0])
    y = np.array([0.0, 1.0, 0.0])
    assert spherical_triangle_solid_angle(z, x, y) == pytest.approx(math.pi / 2, abs=1e-12)


def test_triangle_report_octant():
    rep = triangle_equivalence(
        Direction(0.0, 0.0), Direction(math.pi / 2, 0.0), Direction(math.pi / 2, math.pi / 2)
    )
    assert rep.status == "ok"
    assert rep.inequality_holds and rep.all_triangles_sub_pi
    assert np.allclose(rep.areas, math.pi / 2)


@pytest.mark.parametrize("tilt, holds", [(-1e-6, True), (1e-6, False)])
def test_a_triangle_just_over_pi_breaks_linear_positivity(tilt, holds):
    # three directions 120 degrees apart in azimuth at polar angle acos(1/3)
    # span a regular tetrahedron's face, area pi; tilting them toward the
    # equator makes that triangle just larger than pi and s.q + s.r + q.r < -1
    polar_angle = math.acos(1 / 3) + tilt
    rep = triangle_equivalence(*(Direction(polar_angle, k * 2 * math.pi / 3) for k in range(3)))
    assert rep.status == "ok"
    assert rep.inequality_holds == rep.all_triangles_sub_pi == holds
    assert 1e-7 < abs(max(rep.areas) - math.pi) < 1e-4


def test_triangle_areas_tile_the_sphere(rng):
    for _ in range(25):
        rep = triangle_equivalence(direction_from(rng), direction_from(rng), direction_from(rng))
        if rep.status == "ok":
            assert sum(rep.areas) == pytest.approx(4 * math.pi, rel=1e-9)


def test_triangle_degenerate_configurations_are_skipped():
    near = Direction(1e-13, 0.0)
    rep = triangle_equivalence(Direction(0.0, 0.0), near, Direction(1.0, 1.0))
    assert rep.status == "degenerate"
    assert rep.inequality_holds is None and rep.areas is None
    anti = triangle_equivalence(
        Direction(0.4, 0.2), Direction(math.pi - 0.4, 0.2 + math.pi), Direction(1.0, 1.0)
    )
    assert anti.status == "degenerate"


# --- paired spins and the cat ------------------------------------------------------


_P0 = np.array([[1.0, 0.0], [0.0, 0.0]])
_P1 = np.array([[0.0, 0.0], [0.0, 1.0]])
_PLUS = np.array([[0.5, 0.5], [0.5, 0.5]])
_MINUS = np.array([[0.5, -0.5], [-0.5, 0.5]])


def test_epr_perfect_anticorrelation_at_zero_angle():
    rep = epr_cat_model(0.0)
    assert (rep.mu_up_up, rep.mu_up_down, rep.mu_down_up, rep.mu_down_down) == (0.0, 0.5, 0.5, 0.0)


def test_epr_perfect_correlation_at_the_float_nearest_pi():
    rep = epr_cat_model(math.pi)
    assert rep.mu_up_up == rep.mu_down_down == 0.5
    # math.pi falls short of pi by sin(math.pi), so cos^2(theta/2)/2 is sin^2(math.pi)/8, not 0
    assert rep.mu_up_down == rep.mu_down_up == math.sin(math.pi) ** 2 / 8 > 0.0


def test_epr_region_a_measures_are_exactly_one_half_at_every_angle():
    for theta in np.linspace(0, math.pi, 50):
        rep = epr_cat_model(float(theta))
        assert rep.mu_up_a == rep.mu_down_a == 0.5


def _epr_per_call(theta: float) -> EprCatReport:
    """Oracle: the singlet and every tensor product of the experiment built
    afresh for each angle, each measure an expectation Tr(rho A (x) B)."""
    up, down = np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex)
    rho = State.pure((np.kron(up, down) - np.kron(down, up)) / math.sqrt(2))
    p0, p1, i2 = Operator(_P0), Operator(_P1), identity(2)
    b_up = bloch_projector(theta, 0.0)
    b_down = i2 - b_up

    def mu(a, b):
        return float(expectation(rho, tensor_product(a, b)).real)

    confused = _kron_cat_measure([i2, p0, p1]) + _kron_cat_measure([i2, p1, p0])
    return EprCatReport(
        theta, mu(p0, i2), mu(p1, i2), mu(p0, b_up), mu(p0, b_down), mu(p1, b_up), mu(p1, b_down), confused,
    )


def test_epr_model_matches_the_tensor_product_construction():
    # the closed form rounds differently from the matrix route (the region-A
    # measures read 0.5000000000000001 there); over 5001 angles the two part
    # by at most 1 eps
    eps = np.finfo(float).eps
    for theta in np.linspace(0.0, math.pi, 1001):
        closed, dense = epr_cat_model(float(theta)), _epr_per_call(float(theta))
        assert closed.theta == dense.theta and closed.confused_original == dense.confused_original == 0.0
        for name in EprCatReport._fields[1:-1]:
            assert abs(getattr(closed, name) - getattr(dense, name)) <= 2 * eps, (theta, name)


def test_epr_tan_squared_ratio():
    for theta in (0.3, math.pi / 2, 2.2):
        rep = epr_cat_model(theta)
        assert rep.mu_up_up / rep.mu_up_down == pytest.approx(
            math.tan(theta / 2) ** 2, rel=1e-12
        )
    assert epr_cat_model(math.pi / 2).mu_up_up == pytest.approx(
        epr_cat_model(math.pi / 2).mu_up_down, rel=1e-12
    )


def test_epr_joint_measures_total():
    rep = epr_cat_model(1.234)
    total = rep.mu_up_up + rep.mu_up_down + rep.mu_down_up + rep.mu_down_down
    assert total == pytest.approx(1.0, abs=1e-12)


def test_cat_confusion_measures():
    rep = epr_cat_model(0.9)
    assert rep.confused_original == 0.0
    assert rep.unconfused_fraction_alternative(2) == 0.5
    for parts in range(1, 7):
        assert rep.unconfused_fraction_alternative(parts) == 2.0 ** (1 - parts)
    with pytest.raises(ValidationError):
        rep.unconfused_fraction_alternative(0)


def _kronecker_unconfused_fraction(parts: int) -> float:
    """Oracle: the 2^parts Kronecker loop that _cat_measure replaced."""
    alive = np.zeros(2**parts)
    alive[0] = 1.0
    dead = np.zeros(2**parts)
    dead[-1] = 1.0
    rho = 0.5 * (np.outer(alive, alive) + np.outer(dead, dead))
    total = 0.0
    unconfused = 0.0
    for pattern in range(2**parts):
        proj = np.eye(1)
        for bit_index in range(parts):
            bit = (pattern >> (parts - 1 - bit_index)) & 1
            proj = np.kron(proj, _MINUS if bit else _PLUS)
        mu = float(np.trace(rho @ proj))
        total += mu
        if pattern == 0 or pattern == 2**parts - 1:
            unconfused += mu
    return unconfused / total


def _kron_cat_measure(factors) -> float:
    """Oracle: Tr(rho P_1 (x) ... (x) P_n) with rho the n-part cat state, built densely."""
    n = len(factors)
    rho = np.zeros((2**n, 2**n))
    rho[0, 0] = rho[-1, -1] = 0.5
    proj = np.eye(1)
    for p in factors:
        proj = np.kron(proj, p.mat)
    return float(np.trace(rho @ proj).real)


@pytest.mark.parametrize("parts", range(1, 8))
def test_unconfused_fraction_matches_kronecker_oracle(parts):
    assert toymodels._unconfused_fraction(parts) == _kronecker_unconfused_fraction(parts)


def test_unconfused_fraction_is_exact_up_to_the_bound():
    rep = epr_cat_model(0.4)
    for parts in range(1, bloch.MAX_PARTS + 1):
        assert rep.unconfused_fraction_alternative(parts) == 2.0 ** (1 - parts)
    # the bound is the last part count whose fraction is a normal double
    assert 2.0 ** (1 - bloch.MAX_PARTS) == np.finfo(float).tiny
    with pytest.raises(ValidationError):
        rep.unconfused_fraction_alternative(bloch.MAX_PARTS + 1)


def test_confused_original_matches_kronecker_oracle():
    p0, p1, i2 = _P0, _P1, np.eye(2)
    # spin (x) head (x) body; spin up pairs with both alive, down with both dead
    rho = 0.5 * (np.kron(p0, np.kron(p0, p0)) + np.kron(p1, np.kron(p1, p1)))
    disagree = np.kron(i2, np.kron(p0, p1)) + np.kron(i2, np.kron(p1, p0))
    assert toymodels._confused_original() == float(np.trace(rho @ disagree)) == 0.0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(polar, azimuth), min_size=1, max_size=5))
def test_cat_measure_matches_dense_trace(angles):
    # random Bloch projectors have unequal diagonals, so a swapped index shows
    factors = [bloch_projector(t, p) for t, p in angles]
    diagonals = [(float(p.mat[0, 0].real), float(p.mat[1, 1].real)) for p in factors]
    assert toymodels._cat_measure(diagonals) == pytest.approx(_kron_cat_measure(factors), abs=1e-12)


def test_direction_validation():
    with pytest.raises(ValidationError):
        Direction(-0.1, 0.0)
    with pytest.raises(ValidationError):
        Direction(math.pi + 0.1, 0.0)
