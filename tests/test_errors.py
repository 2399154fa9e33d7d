"""The library's error contract: bad input raises a QPerceptError, and
in-range input returns finite values."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpercept import inference, toymodels
from qpercept.errors import QPerceptError, UnknownLabel, ValidationError
from qpercept.hypotheses import ExperienceFamily, Explicit
from qpercept.measures import PerceptionSpace, profile_from_density, typicality, typicality_of_density
from qpercept.operators import State, identity

any_float = st.floats(allow_nan=True, allow_infinity=True)

# the scalar theta is the checked argument; the grid of angles is the caller's
PHIS = np.linspace(-math.pi, math.pi, 9)


def _scalar(out):
    return [out]


# a small circle profile for the typicality of an arbitrary density value
CIRCLE = profile_from_density(PerceptionSpace.grid({"phi": PHIS}), toymodels.circle_density_array(1.0, PHIS))


def _grid_values(space):
    return np.concatenate([space.weights, space.points.ravel()])


# each function, its arity, and the values of its result that must be finite
PUBLIC = {
    "posterior_moment": (inference.posterior_moment, 2, _scalar),
    "typicality_of_density": (lambda v: typicality_of_density(CIRCLE, v), 1, _scalar),
    "PerceptionSpace.grid": (lambda *axis: PerceptionSpace.grid({"x": np.array(axis)}), 3, _grid_values),
    "posterior_density": (inference.posterior_density, 2, _scalar),
    "dual_posterior": (inference.dual_posterior, 2, _scalar),
    "dual_posterior_moment": (inference.dual_posterior_moment, 2, _scalar),
    "gaussian_typicality": (inference.gaussian_typicality, 2, _scalar),
    "gaussian_reversed": (inference.gaussian_reversed, 2, _scalar),
    "gaussian_dual": (inference.gaussian_dual, 2, _scalar),
    "circle_model": (toymodels.circle_model, 2, dataclasses.astuple),
    "circle_density_array": (lambda theta: toymodels.circle_density_array(theta, PHIS), 1, lambda out: out),
    "sphere_model": (toymodels.sphere_model, 3, dataclasses.astuple),
    "ball_prior_weight": (toymodels.ball_prior_weight, 3, _scalar),
    "ball_experience": (toymodels.ball_experience, 3, lambda out: out.mat.view(float)),
    "from_bloch": (State.from_bloch, 2, lambda out: out.mat.view(float)),
    "averaged_posterior": (inference.averaged_posterior, 1, _scalar),
    # a gaussian, whose nodes reach the whole float range as the ends do
    "de_quad": (lambda a, b: inference.de_quad(lambda x: math.exp(-x * x), a, b), 2, list),
}


@pytest.mark.parametrize("name", PUBLIC)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_raises_a_qpercept_error_or_returns_finite_values(name, data):
    function, arity, values = PUBLIC[name]
    args = data.draw(st.tuples(*[any_float] * arity))
    try:
        out = function(*args)
    except QPerceptError:
        return
    assert np.all(np.isfinite(values(out)))


@pytest.mark.parametrize(
    "call",
    [
        lambda: inference.posterior_density(math.nan, 1),
        lambda: inference.posterior_density(1.0, math.inf),
        lambda: toymodels.circle_model(math.nan, 0),
        lambda: toymodels.circle_model(1.0, math.inf),
        lambda: State.from_bloch(5.0, 0),
        lambda: State.from_bloch(-0.1, 0),
        lambda: State.from_bloch(1.0, math.nan),
        lambda: inference.dual_posterior(math.nan, 1.0),
        lambda: inference.dual_posterior(1.0, math.inf),
        lambda: inference.dual_posterior_moment(math.nan, 1),
        lambda: inference.dual_posterior_moment(1.0, math.inf),
        lambda: inference.gaussian_typicality(math.nan, 1.0),
        lambda: inference.gaussian_reversed(1.0, math.nan),
        lambda: inference.gaussian_dual(-math.inf, 1.0),
        lambda: toymodels.circle_density_array(math.nan, PHIS),
        lambda: toymodels.circle_density_array(math.inf, PHIS),
        lambda: toymodels.ball_prior_weight(math.nan, 0.0, 0.0),
        lambda: toymodels.ball_experience(0.0, math.nan, 0.0),
        lambda: inference.posterior_moment(math.nan, 1),
        lambda: inference.posterior_moment(1.0, math.inf),
        lambda: typicality_of_density(CIRCLE, math.nan),
        lambda: typicality_of_density(CIRCLE, -math.inf),
        lambda: PerceptionSpace.grid({"x": [0.0, 1.0, math.inf]}),
        lambda: PerceptionSpace.grid({"x": [-math.inf, 0.0, 1.0]}),
        lambda: PerceptionSpace.grid({"x": [0.0, math.nan, 1.0]}),
        lambda: inference.averaged_posterior(math.nan),
        lambda: inference.averaged_posterior(math.inf),
        lambda: inference.averaged_posterior(0.0),
        lambda: inference.de_quad(math.exp, math.nan),
        lambda: inference.de_quad(math.exp, math.inf),
        lambda: inference.de_quad(math.exp, 0.0, math.nan),
        lambda: inference.de_quad(math.exp, 0.0, -math.inf),
    ],
)
def test_non_finite_and_out_of_range_inputs_are_validation_errors(call):
    with pytest.raises(ValidationError):
        call()


@pytest.mark.parametrize(
    "f, a, b",
    [
        (lambda x: math.nan, 0.0, 1.0),
        (lambda x: x**10, 0.0, math.inf),  # x^10 times its weight overflows at the far end
        (lambda x: 0.0, -1e308, 1e308),  # the half-width overflows, and 0 * inf is nan
    ],
)
def test_a_non_finite_integrand_is_a_computation_failure(f, a, b):
    with pytest.raises(QPerceptError, match="not finite") as exc:
        inference.de_quad(f, a, b)
    assert not isinstance(exc.value, ValidationError)


def test_an_overflowing_posterior_density_is_a_computation_failure():
    with pytest.raises(QPerceptError, match="overflows") as exc:
        inference.posterior_density(2e154, 1.0)  # p * p is inf
    assert not isinstance(exc.value, ValidationError)


@pytest.mark.parametrize(
    "call",
    [
        lambda: inference.dual_posterior(2e154, 1.0),  # p * p is inf
        lambda: inference.dual_posterior_moment(1e-200, 1),  # p * p is 0
        lambda: inference.dual_posterior_moment(1.0, 171),  # I_343 is inf
        lambda: inference.dual_posterior_moment(1.0, 1e300),
        lambda: inference.dual_posterior_moment(1.0, 10**400),  # no float holds the order
    ],
)
def test_an_overflowing_dual_posterior_is_a_computation_failure(call):
    with pytest.raises(QPerceptError, match="overflows") as exc:
        call()
    assert not isinstance(exc.value, ValidationError)


@pytest.mark.parametrize(
    "p, m",
    [
        (1.0, 1000),  # above order 268 no p keeps both p^(2m) and the moment in range
        (1.0, 150),  # (301)!! / 151 is inf
        (1e-200, 1),  # p * p is 0
        (1e200, 1),  # p * p is inf
        (1.0, 1e300),
        (1.0, 10**400),  # no float holds the order
    ],
)
def test_an_overflowing_posterior_moment_is_a_computation_failure(p, m):
    with pytest.raises(QPerceptError, match="overflows") as exc:
        inference.posterior_moment(p, m)
    assert not isinstance(exc.value, ValidationError)


def _labeled_profile():
    space = PerceptionSpace.discrete(["a", "b", "c"])
    return profile_from_density(space, np.array([0.2, 0.3, 0.5]))


def _grid_profile():
    phis = np.linspace(0.0, 1.0, 5)
    return profile_from_density(PerceptionSpace.grid({"phi": phis}), np.ones(5))


@pytest.mark.parametrize("label", ["zz", 1.0, ["a"]])
def test_unknown_labels_raise_one_error(label):
    space = PerceptionSpace.discrete(["a", "b", "c"])
    for call in (lambda: space.index_of(label), lambda: typicality(_labeled_profile(), label)):
        with pytest.raises(UnknownLabel) as exc:
            call()
        assert isinstance(exc.value, QPerceptError) and isinstance(exc.value, KeyError)
        assert exc.value.args == (label,)
    family = ExperienceFamily((("a", Explicit(identity(2)), 1.0),))
    with pytest.raises(UnknownLabel) as exc:
        family.spec_for(label)
    assert exc.value.args == (label,)


@pytest.mark.parametrize("label", ["zz", 1.0])
def test_grid_spaces_have_no_labels(label):
    profile = _grid_profile()
    with pytest.raises(UnknownLabel, match="grid space has no labels"):
        profile.space.index_of(label)
    with pytest.raises(UnknownLabel, match="grid space has no labels"):
        typicality(profile, label)
