import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from qpercept.errors import DegenerateInput, ValidationError, ZeroMeasure
from qpercept.inference import (
    Hypothesis,
    HypothesisSet,
    PowerLawModel,
    _dual_integral,
    averaged_posterior,
    bayes_update,
    canonical_digit_experiment,
    confidence_bound,
    de_quad,
    digit_experiment,
    dual_normalization,
    dual_posterior,
    dual_posterior_moment,
    erf,
    erfc,
    gaussian_99_band,
    gaussian_dual,
    gaussian_reversed,
    gaussian_typicality,
    posterior_density,
    posterior_moment,
    ranked_hypotheses,
)


def test_erf_at_zero():
    assert erf(0.0) == 0.0
    assert erfc(0.0) == 1.0


def test_erfc_crossover_point():
    _, x1 = dual_normalization()
    assert erfc(x1) == pytest.approx(0.5, abs=1e-12)
    assert x1 == pytest.approx(0.476936, abs=1e-6)


def test_erf_against_quadrature_oracle():
    # 40-point Gauss-Legendre quadrature of (2/sqrt(pi)) exp(-t^2)
    for x in (0.25, 1.0, 2.5):
        nodes, weights = np.polynomial.legendre.leggauss(40)
        t = 0.5 * x * (nodes + 1.0)
        val = 0.5 * x * np.sum(weights * 2.0 / math.sqrt(math.pi) * np.exp(-t * t))
        assert erf(x) == pytest.approx(val, abs=1e-12)


def test_power_law_model():
    model = PowerLawModel(exponent=0.0)
    assert model.apply(0.0) == 1.0  # 0**0 reads as a counting measure
    assert PowerLawModel(exponent=2.0).apply(3.0) == 9.0
    custom = PowerLawModel(transform=lambda m: m + 1.0)
    assert custom.apply(1.5) == 2.5


def test_gaussian_typicality_values():
    assert gaussian_typicality(1.0, 0.0) == 1.0
    assert gaussian_typicality(-2.0, 1.3) == 0.0
    assert gaussian_reversed(-2.0, 1.3) == 1.0
    assert gaussian_dual(-2.0, 1.3) == 0.0
    t = gaussian_typicality(2.0, 0.7)
    assert t == pytest.approx(erfc(math.sqrt(2.0 * 0.49 / 2.0)), abs=1e-15)


def test_gaussian_typicality_against_sampling_oracle():
    # frequency interpretation: measure-weighted draws below the density at p
    n, p = 1.0, 1.0
    rng = np.random.default_rng(11)
    draws = rng.normal(0.0, 1.0 / math.sqrt(n), size=1_000_000)
    freq = float(np.mean(np.abs(draws) >= abs(p)))
    assert gaussian_typicality(n, p) == pytest.approx(freq, abs=2e-3)


@given(n=st.floats(min_value=0.01, max_value=50), p=st.floats(min_value=-5, max_value=5))
@settings(max_examples=200, deadline=None)
def test_gaussian_typicality_pair_sums_to_one(n, p):
    assert gaussian_typicality(n, p) + gaussian_reversed(n, p) == pytest.approx(1.0, abs=1e-12)


def test_posterior_density_normalized_over_exponent():
    for p in (0.5, 1.0, 2.0):
        val, _ = integrate.quad(lambda n: posterior_density(p, n), 0, np.inf)
        assert val == pytest.approx(1.0, abs=1e-8)


def test_posterior_density_small_exponent_limit():
    assert posterior_density(1.3, 1e-12) == pytest.approx(1.3**2, rel=1e-5)
    assert posterior_density(1.3, 0.0) == 0.0
    assert posterior_density(1.3, -1.0) == 0.0


def test_posterior_density_requires_information():
    with pytest.raises(DegenerateInput):
        posterior_density(0.0, 1.0)


def test_posterior_density_asymptotic_form():
    # exponential tail approximation; the relative error is 1/(p^2 n)
    p = 1.0
    for n, tol in ((50.0, 2.5e-2), (400.0, 3e-3)):
        asym = math.sqrt(2.0 / (math.pi * p * p * n)) * math.exp(-0.5 * p * p * n)
        assert posterior_density(p, n) / asym == pytest.approx(1.0, abs=tol)


def test_posterior_density_monotone_decreasing():
    ns = np.linspace(0.01, 20, 500)
    vals = [posterior_density(0.8, n) for n in ns]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_posterior_moments_closed_forms():
    assert posterior_moment(1.0, 0) == 1.0
    assert posterior_moment(1.0, 1) == pytest.approx(1.5)
    assert posterior_moment(2.0, 1) == pytest.approx(1.5 / 4.0)
    std = math.sqrt(posterior_moment(1.0, 2) - posterior_moment(1.0, 1) ** 2)
    assert std == pytest.approx(math.sqrt(11) / 2, abs=1e-12)
    assert std == pytest.approx(1.658312, abs=1e-6)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
def test_posterior_moments_match_quadrature(m, p):
    val, _ = integrate.quad(
        lambda n: n**m * posterior_density(p, n), 0, np.inf, limit=200
    )
    assert posterior_moment(p, m) == pytest.approx(val, rel=1e-7)


def test_averaged_posterior_normalization():
    head, _ = integrate.quad(averaged_posterior, 0, 1, epsabs=1e-12)
    tail, _ = integrate.quad(
        lambda u: averaged_posterior(1.0 / (u * u)) * 2.0 / u**3, 1e-9, 1, epsabs=1e-12
    )
    assert head + tail == pytest.approx(1.0, abs=1e-7)


def test_averaged_posterior_tail_power_law():
    # normalized density falls off as (4 / (3 pi)) n^(-3/2)
    n = 1e4
    assert averaged_posterior(n) / ((4 / (3 * math.pi)) * n**-1.5) == pytest.approx(
        1.0, abs=1e-2
    )


@pytest.mark.parametrize("n", [1e8, 1e10, 1e12, 1e14, 1e16, 1e20, 1e50, 1e100, 1e200, 1e204, 1e210, 1e300])
def test_averaged_posterior_keeps_its_tail_at_large_n(n):
    # here the closed form cancels: it is 7.8e-5 off at 1e12, 0.0 at 1e16 and
    # 8.6e-167 at 1e300, where the true value underflows; below the smallest
    # normal double only an absolute tolerance means anything
    asymptote = (4 / (3 * math.pi)) * n**-1.5 * (1 - (6 / 5) / n)
    assert math.isclose(averaged_posterior(n), asymptote, rel_tol=1e-12, abs_tol=1e-12 * sys.float_info.min)


def test_averaged_posterior_series_meets_the_closed_form():
    # the series takes over at n = 100, where the closed form has lost only
    # two digits to cancellation
    for n in (99.0, math.nextafter(100.0, 0.0), 100.0, 101.0):
        closed = (2 / math.pi) * (math.atan(1 / math.sqrt(n)) - math.sqrt(n) / (n + 1))
        assert averaged_posterior(n) == pytest.approx(closed, rel=1e-13)


# the quadrature's two integrands in the reference battery
BATTERY_INTEGRANDS = {
    "posterior-mean": (lambda n: n * posterior_density(1.0, n), 1.5),
    "averaged-posterior-norm": (averaged_posterior, 1.0),
}


@pytest.mark.parametrize("name", BATTERY_INTEGRANDS)
def test_de_quad_matches_quad_on_the_battery_integrands(name):
    f, exact = BATTERY_INTEGRANDS[name]
    value, abserr = de_quad(f, 0.0)
    # quad needs the averaged posterior's n^(-3/2) tail split off and substituted
    head, _ = integrate.quad(f, 0, 1, epsabs=1e-13)
    tail, _ = integrate.quad(lambda u: f(1.0 / (u * u)) * 2.0 / u**3, 1e-12, 1, epsabs=1e-13)
    assert value == pytest.approx(head + tail, abs=1e-10)
    assert abs(value - exact) <= abserr < 1e-12


@pytest.mark.parametrize(
    "f, a, b, exact",
    [
        (lambda x: math.exp(-x), 0.0, math.inf, 1.0),
        (math.sqrt, 0.0, 1.0, 2 / 3),
        (math.sqrt, 1.0, 0.0, -2 / 3),
        (lambda x: x**-1.5, 1.0, math.inf, 2.0),
        (lambda x: 1 / (1 + x * x), -1.0, 1.0, math.pi / 2),
        # the window stops near x = 5e30, and the 5 x^(-1/5) beyond it is about
        # 3.6e-6, far above the last difference of levels: only the end terms
        # can carry it into the bound
        (lambda x: x**-1.2, 1.0, math.inf, 5.0),
    ],
)
def test_de_quad_error_bound_is_honest(f, a, b, exact):
    value, abserr = de_quad(f, a, b)
    assert abs(value - exact) <= abserr


def test_de_quad_bound_keeps_the_cut_tail_when_the_levels_agree():
    # the levels agree to the last bit and the value is exact in floating point,
    # yet the window cuts off the head of [0, e^(-70.7)]: the bound says so
    value, abserr = de_quad(lambda x: math.exp(-x), 0.0)
    assert value == 1.0
    assert 0 < abserr < 1e-25
    value, abserr = de_quad(lambda x: x**-1.2, 1.0)
    assert 5 - value > 1e-6 and abserr >= 5 - value


@pytest.mark.parametrize("n", [0.5, 1.0, 2.0])
def test_averaged_posterior_matches_double_quadrature(n):
    # independent oracle: average the per-observation posterior over a unit
    # gaussian observation distribution
    def integrand(p):
        return (
            posterior_density(p, n)
            * math.exp(-0.5 * p * p)
            / math.sqrt(2 * math.pi)
        )

    val, _ = integrate.quad(integrand, -np.inf, np.inf, epsabs=1e-12)
    assert averaged_posterior(n) == pytest.approx(val, abs=1e-6)


def test_dual_normalization_constants():
    norm, x1 = dual_normalization()
    assert 1.0 / norm == pytest.approx(0.857348, abs=1e-5)
    assert norm == pytest.approx(1.166387, abs=2e-5)
    assert x1 == pytest.approx(0.476936, abs=1e-6)


def test_dual_posterior_normalized_and_moments():
    assert dual_posterior_moment(1.0, 0) == pytest.approx(1.0, abs=1e-9)
    mean = dual_posterior_moment(1.0, 1)
    second = dual_posterior_moment(1.0, 2)
    assert mean == pytest.approx(1.727468, abs=1e-4)
    assert math.sqrt(second - mean * mean) == pytest.approx(1.686141, abs=1e-4)
    # moments scale as 1/p^2 per order
    assert dual_posterior_moment(2.0, 1) == pytest.approx(mean / 4.0, rel=1e-8)


def test_dual_normalization_matches_parent_quadratures():
    # the two quadrature routes to 1/N that the closed form replaced
    norm, x1 = dual_normalization()
    tol = dict(epsabs=1e-13, epsrel=1e-13)
    below, _ = integrate.quad(lambda x: x * erf(x), 0.0, x1, **tol)
    above, _ = integrate.quad(lambda x: x * erfc(x), x1, np.inf, **tol)
    assert 4.0 * (below + above) == pytest.approx(1.0 / norm, rel=1e-12, abs=0)
    head, _ = integrate.quad(lambda x: x * erfc(x), 0.0, x1, **tol)
    assert 1.0 + 2.0 * x1 * x1 - 8.0 * head == pytest.approx(1.0 / norm, rel=1e-12, abs=0)


@pytest.mark.parametrize("k", [1, 3, 5, 9])
@pytest.mark.parametrize("split", [0.2, 0.476936, 1.0, 2.5])
def test_dual_integral_is_the_split_integral(k, split):
    # the closed form holds at any split point, not only at the crossover
    below, _ = integrate.quad(lambda x: x**k * erf(x), 0.0, split, epsabs=0, epsrel=1e-13)
    above, _ = integrate.quad(lambda x: x**k * erfc(x), split, np.inf, epsabs=0, epsrel=1e-13)
    assert _dual_integral(k, split) == pytest.approx(below + above, rel=1e-12, abs=0)


def quadrature_dual_moment(p, m):
    """The three-piece quadrature dual_posterior_moment used before its closed form.

    Split at the crossover and at p^2 n = 60; epsabs=0 so that tiny high-order
    moments at large p are held to the relative tolerance too.
    """
    _, x1 = dual_normalization()
    crossover, split = 2.0 * x1 * x1 / (p * p), 60.0 / (p * p)
    total = 0.0
    for lo, hi in ((0.0, crossover), (crossover, split), (split, np.inf)):
        val, _ = integrate.quad(
            lambda n: n**m * dual_posterior(p, n), lo, hi, epsabs=0, epsrel=1e-12, limit=200
        )
        total += val
    return total


@given(p=st.floats(min_value=0.05, max_value=20), m=st.integers(min_value=0, max_value=4))
@settings(max_examples=60, deadline=None)
def test_dual_posterior_moment_matches_quadrature(p, m):
    assert dual_posterior_moment(p, m) == pytest.approx(quadrature_dual_moment(p, m), rel=1e-10, abs=0)


@pytest.mark.parametrize("p", [0.05, 0.3, 1.0, 2.5, 20.0])
def test_dual_posterior_moment_zero_is_one(p):
    assert dual_posterior_moment(p, 0) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
def test_dual_posterior_moment_scales_as_p_to_minus_2m(m):
    for p in (0.3, 2.5, 7.0):
        assert dual_posterior_moment(p, m) * p ** (2 * m) == pytest.approx(
            dual_posterior_moment(1.0, m), rel=1e-13
        )


@pytest.mark.parametrize("m", [-1, 0.5, 1.5, -0.25])
def test_dual_posterior_moment_rejects_bad_order(m):
    with pytest.raises(ValidationError):
        dual_posterior_moment(1.0, m)
    with pytest.raises(ValidationError):
        posterior_moment(1.0, m)


def test_dual_posterior_pointwise():
    norm, _ = dual_normalization()
    p, n = 1.3, 0.9
    x = math.sqrt(p * p * n / 2)
    assert dual_posterior(p, n) == pytest.approx(norm * p * p * min(erf(x), erfc(x)))
    assert dual_posterior(p, -1.0) == 0.0
    with pytest.raises(DegenerateInput):
        dual_posterior(0.0, 1.0)


def test_bayes_update_basics():
    single = HypothesisSet((Hypothesis("only", 3.0, lambda _: 0.4),))
    assert bayes_update(single, None) == {"only": 1.0}
    pair = HypothesisSet(
        (
            Hypothesis("a", 1.0, lambda _: 0.2),
            Hypothesis("b", 1.0, lambda _: 0.8),
        )
    )
    out = bayes_update(pair, None)
    assert out["a"] == pytest.approx(0.2)
    assert out["b"] == pytest.approx(0.8)


def test_bayes_update_complexity_ranked_oracle():
    # three exponent hypotheses with priors 2^-rank and gaussian likelihoods
    p_obs = 1.0
    entries = [(f"n={n}", (lambda n: (lambda p: gaussian_typicality(n, p)))(n)) for n in (1.0, 2.0, 4.0)]
    hyps = ranked_hypotheses(entries)
    out = bayes_update(hyps, p_obs)
    priors = [0.5, 0.25, 0.125]
    likes = [gaussian_typicality(n, p_obs) for n in (1.0, 2.0, 4.0)]
    weights = [pr * lk for pr, lk in zip(priors, likes)]
    total = sum(weights)
    for key, w in zip(out, weights):
        assert out[key] == pytest.approx(w / total, rel=1e-12)


@given(scale=st.floats(min_value=0.01, max_value=100))
@settings(max_examples=50, deadline=None)
def test_bayes_update_invariant_under_prior_rescaling(scale):
    base = HypothesisSet(
        (
            Hypothesis("a", 1.0, lambda _: 0.3),
            Hypothesis("b", 2.0, lambda _: 0.5),
        )
    )
    scaled = HypothesisSet(
        (
            Hypothesis("a", scale * 1.0, lambda _: 0.3),
            Hypothesis("b", scale * 2.0, lambda _: 0.5),
        )
    )
    out1 = bayes_update(base, None)
    out2 = bayes_update(scaled, None)
    for k in out1:
        assert out1[k] == pytest.approx(out2[k], rel=1e-12)


def test_bayes_update_rejects_zero_likelihoods():
    hyps = HypothesisSet((Hypothesis("a", 1.0, lambda _: 0.0),))
    with pytest.raises(ZeroMeasure):
        bayes_update(hyps, None)


def test_digit_experiment_canonical_values():
    assert canonical_digit_experiment(8, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert canonical_digit_experiment(8, 0.0) == pytest.approx(1e-4, rel=1e-3)
    assert canonical_digit_experiment(8, 2.0) <= 1.1e-4


def test_digit_experiment_equal_expectations_reduce_to_counting():
    for n in (0.0, 0.7, 1.0, 3.0):
        val = digit_experiment(4, 7, 100, 0.3, 0.3, 0.3, n)
        assert val == pytest.approx(100 / 10**4, rel=1e-12)


@given(
    scale=st.floats(min_value=1e-3, max_value=1e3),
    n=st.floats(min_value=-2, max_value=4),
)
@settings(max_examples=60, deadline=None)
def test_digit_experiment_scale_invariance(scale, n):
    base = digit_experiment(4, 5, 50, 1.0, 0.25, 0.01, n)
    scaled = digit_experiment(4, 5, 50, scale * 1.0, scale * 0.25, scale * 0.01, n)
    assert base == pytest.approx(scaled, rel=1e-9)


def test_digit_experiment_validation():
    with pytest.raises(ValidationError):
        digit_experiment(2, 90, 20, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValidationError):
        digit_experiment(2, 0, 20, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValidationError):
        digit_experiment(2, 1, 20, 0.0, 1.0, 1.0, 1.0)


def test_confidence_bound_values():
    b8 = confidence_bound(8)
    assert b8 == pytest.approx(0.5, abs=0.05)
    # plugging the bound back hits the rejection threshold
    e = 10.0 ** (b8 * 4)
    assert 1.0 / (e + 1.0 + 1.0 / e) == pytest.approx(0.01, abs=1e-10)
    assert confidence_bound(16) == pytest.approx(b8 / 2, rel=1e-6)


def test_confidence_bound_grows_with_level():
    # rejecting at stricter levels leaves a wider undecidable band
    bounds = [confidence_bound(8, level) for level in (0.9, 0.99, 0.999)]
    assert bounds[0] < bounds[1] < bounds[2]
    assert confidence_bound(8, 0.5) == 0.0


def test_gaussian_band_endpoints():
    low, high = gaussian_99_band()
    assert low == pytest.approx(0.0062666117, abs=1e-8)
    # correct root of erfc(x/sqrt(2)) = 0.005; published digits transpose 683->863
    assert high == pytest.approx(2.8070337683, abs=1e-8)
    for x in (low, high):
        t = erfc(x / math.sqrt(2))
        assert 1 - abs(1 - 2 * t) == pytest.approx(0.01, abs=1e-8)
