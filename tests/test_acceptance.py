"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria 2, 5 and 6 check the package against the value of each quantity's
defining equation, derived in the test from code independent of qpercept:

- 2: the linear-positivity fraction.  With q at angle a from the state, the
  interval condition confines r to a region covering cos(a/2) + sin(a/2) - 1
  of the sphere; its average over uniform cos(a) is a scipy quadrature
  (exactly 1/3), and the Monte Carlo fraction must match it.
- 5: the averaged posterior over n integrates to one and has tail
  (4/(3 pi)) n^(-3/2); the published (4/3) coefficient is checked against the
  pi-scaled, unnormalized form it belongs to.
- 6: the high endpoint of the 99% dual-typicality band is the upper 0.25%
  point of the unit gaussian, -scipy.special.ndtri(0.0025).

Each of the three published constants, (sqrt(128)-9)/15, the (4/3) tail
ratio of the normalized density and 2.8070337863, stays in the reference
battery (``qpercept.reproduce``) as a failing check with a note saying why.
These criteria assert that the battery still reports it so, and print the
published constant next to the computed value.
"""
import math
import time

import numpy as np
import pytest
from scipy import integrate, special

from conftest import eight_triangle_areas, random_projector, random_state, sphere_directions, vector_linpos
from qpercept import inference, toymodels
from qpercept.hypotheses import ExperienceFamily, Explicit, awareness_operator, realize
from qpercept.manyworlds import (
    ReplicatedDecoherenceFunctional,
    SpectralExperience,
    reconstruct_measures,
    sample_decomposition,
    spectral_operator,
)
from qpercept.measures import PerceptionSpace, profile_from_density, typicality_curves
from qpercept.operators import State, expectation
from qpercept.reproduce import circle_grid_typicality, linpos_check, sqmn_checks
from qpercept.toymodels import Direction

SEED = 42


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def known_discrepancy(check):
    """The battery check still reports its published constant as failing."""
    assert not check.passed
    assert check.note
    return check


@pytest.fixture(scope="module")
def sqmn_battery():
    return {check.name: check for check in sqmn_checks()}


def test_criterion_01_circle_typicality():
    start = time.perf_counter()
    closed = toymodels.circle_model(math.pi / 2, 5 * math.pi / 6).typicality
    expected = (math.pi - 3) / (6 * math.pi)
    grid = circle_grid_typicality(math.pi / 2, 5 * math.pi / 6, points=1_000_001)
    elapsed = time.perf_counter() - start
    ok = (
        abs(closed - expected) <= 1e-9
        and abs(closed - 0.00751172357477) <= 1e-9
        and abs(grid - closed) <= 1e-5
        and elapsed < 1.0
    )
    assert report(
        "1", ok, f"circle typicality closed={closed:.12f} grid={grid:.12f} in {elapsed:.2f}s"
    )


def test_criterion_02_linear_positivity_fraction():
    start = time.perf_counter()
    mc = toymodels.linear_positivity_fraction(1_000_000, SEED)
    elapsed = time.perf_counter() - start
    # q at angle a from s confines r to |r.u| <= cos(a/2), |r.v| <= sin(a/2);
    # that region is cos(a/2) + sin(a/2) - 1 of the sphere, averaged over cos(a)
    exact, _ = integrate.quad(
        lambda a: (math.cos(a / 2) + math.sin(a / 2) - 1) * math.sin(a) / 2, 0, math.pi
    )
    published = known_discrepancy(linpos_check(SEED))
    ok = abs(mc.fraction - exact) <= 2e-3 and elapsed < 30.0
    assert report(
        "2",
        ok,
        f"linear-positivity fraction={mc.fraction:.6f} vs interval condition {exact:.6f} "
        f"in {elapsed:.1f}s (published {published.expected:.6f} stays a battery failure)",
    )
    assert abs(exact - 1.0 / 3.0) <= 1e-12
    sigma = math.sqrt(exact * (1 - exact) / mc.samples)
    assert abs(mc.fraction - exact) <= 4 * sigma
    assert published.observed == mc.fraction


def test_criterion_03_dual_normalization():
    start = time.perf_counter()
    inference.dual_normalization.cache_clear()
    norm, x1 = inference.dual_normalization()
    elapsed = time.perf_counter() - start
    ok = abs(1.0 / norm - 0.857348) <= 1e-5 and abs(x1 - 0.476936) <= 1e-6 and elapsed < 1.0
    assert report("3", ok, f"1/N={1.0/norm:.6f} x1={x1:.6f} in {elapsed:.2f}s")


def test_criterion_04_posterior_moments():
    start = time.perf_counter()
    mean_exact_ok = all(
        inference.posterior_moment(p, 1) == pytest.approx(1.5 / (p * p), rel=1e-14)
        for p in (0.5, 1.0, 2.0)
    )
    quad_mean, _ = integrate.quad(lambda n: n * inference.posterior_density(1.0, n), 0, np.inf)
    std = math.sqrt(inference.posterior_moment(1.0, 2) - inference.posterior_moment(1.0, 1) ** 2)
    dual_mean = inference.dual_posterior_moment(1.0, 1)
    dual_std = math.sqrt(inference.dual_posterior_moment(1.0, 2) - dual_mean**2)
    elapsed = time.perf_counter() - start
    ok = (
        mean_exact_ok
        and abs(quad_mean - 1.5) <= 1e-7
        and abs(std - math.sqrt(11) / 2) <= 1e-12
        and abs(std - 1.658312) <= 1e-6
        and abs(dual_mean - 1.727468) <= 1e-4
        and abs(dual_std - 1.686141) <= 1e-4
        and elapsed < 2.0
    )
    assert report(
        "4",
        ok,
        f"moments mean=1.5 std={std:.6f} dual mean={dual_mean:.6f} "
        f"dual std={dual_std:.6f} in {elapsed:.2f}s",
    )


def test_criterion_05_averaged_posterior(sqmn_battery):
    head, _ = integrate.quad(inference.averaged_posterior, 0, 1, epsabs=1e-12)
    tail, _ = integrate.quad(
        lambda u: inference.averaged_posterior(1.0 / (u * u)) * 2.0 / u**3, 1e-9, 1, epsabs=1e-12
    )
    total = head + tail
    coefficient = 1e4**1.5 * inference.averaged_posterior(1e4)
    normalized_ratio = coefficient / (4.0 / (3.0 * math.pi))
    # the published 4/3 coefficient is the tail of pi * averaged_posterior,
    # the unnormalized form whose integral is pi
    ratio = math.pi * coefficient / (4.0 / 3.0)
    published = known_discrepancy(sqmn_battery["averaged-posterior-tail"])
    ok = (
        abs(total - 1.0) <= 1e-7
        and abs(normalized_ratio - 1.0) <= 1e-2
        and abs(ratio - 1.0) <= 1e-2
    )
    assert report(
        "5",
        ok,
        f"averaged posterior integral={total:.9f} tail n^1.5 p(n)={coefficient:.4f} "
        f"vs 4/(3 pi)={4.0 / (3.0 * math.pi):.4f}, pi-scaled {math.pi * coefficient:.4f} "
        f"vs published 4/3 (on the normalized density the battery reads "
        f"{published.observed:.4f} and fails)",
    )


def test_criterion_06_gaussian_band(sqmn_battery):
    low, high = inference.gaussian_99_band()
    # the upper 0.25% point of the unit gaussian solves erfc(x/sqrt(2)) = 0.005
    expected_high = -special.ndtri(0.0025)
    published = known_discrepancy(sqmn_battery["band-high"])
    ok_low = abs(low - 0.0062666117) <= 1e-8
    ok_high = abs(high - expected_high) <= 1e-8
    assert report(
        "6",
        ok_low and ok_high,
        f"band=[{low:.10f}, {high:.10f}] vs ndtri high {expected_high:.10f} "
        f"(published {published.expected:.10f} stays a battery failure)",
    )
    # both endpoints satisfy the defining dual-typicality equation
    for x in (low, high):
        td = 1 - abs(1 - 2 * inference.erfc(x / math.sqrt(2)))
        assert td == pytest.approx(0.01, abs=1e-8)


def test_criterion_07_digit_experiment():
    exact = inference.canonical_digit_experiment(8, 1.0)
    n0 = inference.canonical_digit_experiment(8, 0.0)
    n2 = inference.canonical_digit_experiment(8, 2.0)
    bound = inference.confidence_bound(8)
    ok = (
        abs(exact - 1.0 / 3.0) <= 1e-3
        and n0 <= 1.1e-4
        and n2 <= 1.1e-4
        and abs(bound - 0.5) <= 0.05
    )
    assert report(
        "7", ok, f"digit test p(n=1)={exact:.6f} p(n=0)={n0:.2e} p(n=2)={n2:.2e} bound={bound:.4f}"
    )


def test_criterion_08_epr_cat():
    max_signal = 0.0
    max_ratio_dev = 0.0
    for theta in np.linspace(0.0, math.pi, 50):
        rep = toymodels.epr_cat_model(float(theta))
        max_signal = max(max_signal, abs(rep.mu_up_a - rep.mu_down_a))
        if 0.0 < theta < math.pi:
            expected = math.tan(theta / 2) ** 2
            dev = abs(rep.mu_up_up / rep.mu_up_down - expected) / max(1.0, expected)
            max_ratio_dev = max(max_ratio_dev, dev)
    zero = toymodels.epr_cat_model(0.0)
    unconf_exact = all(
        zero.unconfused_fraction_alternative(n) == 2.0 ** (1 - n) for n in range(1, 7)
    )
    ok = (
        max_signal == 0.0
        and max_ratio_dev <= 1e-9
        and zero.mu_up_up == 0.0
        and zero.mu_down_down == 0.0
        and unconf_exact
    )
    assert report(
        "8",
        ok,
        f"no-signalling dev={max_signal:.1e} tan-ratio dev={max_ratio_dev:.1e} "
        f"equal-spin measures at zero angle={zero.mu_up_up + zero.mu_down_down}",
    )


def test_criterion_09_sphere_monte_carlo():
    rng = np.random.default_rng(SEED)
    draws = 2.0 * np.arccos(rng.uniform(0.0, 1.0, 1_000_000) ** 0.25)
    ok = True
    details = []
    for psi in (math.pi / 6, math.pi / 2, 5 * math.pi / 6):
        expected = math.cos(psi / 2) ** 4
        observed = float(np.mean(draws >= psi))
        sigma = math.sqrt(expected * (1 - expected) / len(draws))
        ok = ok and abs(observed - expected) <= 3 * sigma
        details.append(f"T({psi:.3f})={observed:.5f}~{expected:.5f}")
    cold_ok = all(
        toymodels.sphere_model(t, 1.0, 2.0).cold_probability == (2 + math.cos(t)) / 4
        for t in np.linspace(0, math.pi, 21)
    )
    ok = ok and cold_ok
    assert report("9", ok, " ".join(details) + f" cold-exact={cold_ok}")


def test_criterion_10_property_suites(rng):
    # additivity of the awareness measure over random partitions
    pov_ok = True
    for _ in range(10):
        specs = tuple(
            (f"p{i}", Explicit(random_projector(rng, 3, 1)), float(rng.uniform(0.2, 2)))
            for i in range(6)
        )
        fam = ExperienceFamily(specs)
        chosen = set(rng.choice(fam.labels, size=3, replace=False))
        lhs = awareness_operator(fam, lambda l: l in chosen).mat
        rhs = awareness_operator(fam, lambda l: l not in chosen).mat
        whole = awareness_operator(fam).mat
        pov_ok = pov_ok and np.max(np.abs(lhs + rhs - whole)) <= 1e-10

    # two-step completeness: operators sum to the identity, measures to one
    twostep_ok = True
    for _ in range(200):
        sd = Direction(math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi))
        qd = Direction(math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi))
        rd = Direction(math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi))
        rep = toymodels.two_step_analysis(sd, qd, rd)
        twostep_ok = twostep_ok and abs(sum(rep.measures) - 1.0) <= 1e-9
        twostep_ok = twostep_ok and min(rep.measures) >= -1e-10

    # spectral reconstruction equals the direct expectation on 100 instances
    recon_ok = True
    for _ in range(100):
        dim = int(rng.integers(2, 4))
        steps = int(rng.integers(1, 4))
        decs = [
            sample_decomposition(dim, [1] * dim, int(rng.integers(0, 2**30)))
            for _ in range(steps)
        ]
        state = random_state(rng, dim)
        terms = tuple(
            tuple(
                (float(rng.uniform(0, 2)), int(rng.integers(0, steps)), int(rng.integers(0, dim)))
                for _ in range(int(rng.integers(1, 4)))
            )
            for _ in range(2)
        )
        spectral = SpectralExperience(terms=terms)
        recon = reconstruct_measures(state, spectral, decs)
        for p in range(2):
            direct = expectation(state, spectral_operator(spectral, decs, p)).real
            recon_ok = recon_ok and abs(recon[p] - direct) <= 1e-9

    # replicated functional: off-diagonal pairings vanish
    offdiag_ok = True
    for _ in range(10):
        state = random_state(rng, 3)
        decs = [
            sample_decomposition(3, (1, 1, 1), int(rng.integers(0, 2**30))) for _ in range(2)
        ]
        f = ReplicatedDecoherenceFunctional(state, decs)
        hists = list(f.all_histories())
        off = max(
            abs(f.atomic(h, hp)) for h in hists for hp in hists if h != hp
        )
        offdiag_ok = offdiag_ok and off <= 1e-10

    # typicality values drawn by measure are uniform (Kolmogorov-Smirnov)
    phis = np.linspace(-math.pi, math.pi, 100_001)
    space = PerceptionSpace.grid({"phi": phis})
    prof = profile_from_density(space, toymodels.circle_density_array(0.9, phis))
    t, _, _ = typicality_curves(prof)
    weights = prof.point_measures / prof.total_measure
    draws = np.random.default_rng(7).choice(len(weights), size=100_000, p=weights)
    sample = np.sort(t[draws])
    grid = np.arange(1, len(sample) + 1) / len(sample)
    ks = float(
        np.max(np.maximum(np.abs(sample - grid), np.abs(sample - grid + 1 / len(sample))))
    )
    ks_ok = ks <= 0.02

    # interval condition agrees with the eight-triangle picture
    gen = np.random.default_rng(SEED)
    n_tri = 10_000
    s = np.array([0.0, 0.0, 1.0])
    qs = sphere_directions(gen, n_tri)
    rs = sphere_directions(gen, n_tri)
    areas = eight_triangle_areas(s, qs, rs)
    geometric = np.all(areas <= math.pi + 1e-9, axis=-1)
    algebraic = vector_linpos(s, qs, rs)
    agreement = float(np.mean(geometric == algebraic))
    tri_ok = agreement >= 0.9999

    ok = pov_ok and twostep_ok and recon_ok and offdiag_ok and ks_ok and tri_ok
    assert report(
        "10",
        ok,
        f"pov={pov_ok} twostep={twostep_ok} reconstruction={recon_ok} "
        f"offdiag={offdiag_ok} ks={ks:.4f} triangle-agreement={agreement:.5f}",
    )
