"""The library's error contract: bad input raises a QPerceptError, and
in-range input returns finite values."""
import dataclasses
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpercept import inference, reproduce, toymodels
from qpercept.errors import DimensionMismatch, QPerceptError, UnknownLabel, ValidationError
from qpercept.hypotheses import (
    _SPEC_TYPES,
    ConstrainedProjector,
    ExperienceFamily,
    Explicit,
    HistorySum,
    LinearlyPositive,
    ProductProjector,
    ProjectionSequence,
    Projector,
    SymmetrizedProjector,
    decoherence_report,
    realize,
    spec_from_json,
)
from qpercept.manyworlds import (
    ProjectorDecomposition,
    ReplicatedDecoherenceFunctional,
    SpectralExperience,
    density_at,
    family_metric,
    gram_metric,
    manifold_dimension,
    sample_decomposition,
    spectral_operator,
)
from qpercept.measures import (
    MeasureProfile,
    PerceptionSpace,
    overlap_fraction,
    prior_measure,
    profile_from_density,
    relative_density,
    relative_state,
    typicality,
    typicality_of_density,
)
from qpercept.operators import (
    Operator,
    ParamPositiveOp,
    State,
    bloch_projector,
    haar_random_unitary,
    identity,
    tensor_product,
)

any_float = st.floats(allow_nan=True, allow_infinity=True)

# in-range arguments, drawn beside any_float so that every run reaches the computation
finite = st.floats(allow_nan=False, allow_infinity=False)
moderate = st.floats(-10.0, 10.0)
polar = st.floats(0.0, math.pi)
nonzero_p = st.floats(0.1, 10.0) | st.floats(-10.0, -0.1)
order = st.integers(0, 20)
in_ball = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda x: x[0] ** 2 + x[1] ** 2 + x[2] ** 2 <= 1.0)
# 3 distinct grid points at least 1/8 apart, increasing
increasing = st.lists(st.integers(-1000, 1000), min_size=3, max_size=3, unique=True).map(
    lambda xs: tuple(x / 8 for x in sorted(xs))
)
six_angles = st.tuples(polar, finite, polar, finite, polar, finite)

# the scalar theta is the checked argument; the grid of angles is the caller's
PHIS = np.linspace(-math.pi, math.pi, 9)


def _scalar(out):
    return [out]


# a small circle profile for the typicality of an arbitrary density value
CIRCLE = profile_from_density(PerceptionSpace.grid({"phi": PHIS}), toymodels.circle_density_array(1.0, PHIS))


def _grid_values(space):
    return np.concatenate([space.weights, space.points.ravel()])


def _directions(angles):
    return [toymodels.Direction(*angles[i : i + 2]) for i in (0, 2, 4)]


def _two_step_values(rep):
    return [rep.weak_residual, rep.medium_residual, *rep.measures]


# positive definite, so no nonzero vector is annihilated
RELATIVE_SPEC = Explicit(toymodels.ball_experience(0.1, 0.2, 0.3))


def _sphere_family(x):
    return [bloch_projector(float(x[0]), float(x[1])).mat]


def _sphere_metric(*steps):
    return family_metric(_sphere_family, [[1.0, 0.5]], steps)


def _bayes_pair(prior, likelihood):
    """bayes_update of hypothesis a, with the given prior and constant
    likelihood, against b, with prior 1 and likelihood 1/2."""
    hyps = inference.HypothesisSet(
        (inference.Hypothesis("a", prior, lambda _: likelihood), inference.Hypothesis("b", 1.0, lambda _: 0.5))
    )
    return inference.bayes_update(hyps, None)


QUBIT_MIXED = State.maximally_mixed(2)
SIGMA_Z = Operator(np.diag([1.0, -1.0]))


def _realizer(build):
    """realize, in the maximally mixed qubit state, the spec that build makes
    of the Bloch projectors along each drawn (polar, azimuth) pair."""

    def run(*angles):
        return realize(build(*[bloch_projector(*angles[i : i + 2]) for i in range(0, len(angles), 2)]), QUBIT_MIXED)

    return run


def _matrix(op):
    return op.mat.view(float)


# every spec variant; the product's components act on two qubits, so they commute
REALIZERS = {
    "Explicit": (Explicit, 2),
    "Projector": (Projector, 2),
    "ConstrainedProjector": (ConstrainedProjector, 4),
    "SymmetrizedProjector": (lambda p: SymmetrizedProjector(p, (identity(2), SIGMA_Z)), 2),
    "ProductProjector": (
        lambda p, q: ProductProjector((tensor_product(p, identity(2)), tensor_product(identity(2), q))), 4
    ),
    "ProjectionSequence": (lambda p, q: ProjectionSequence((p, q)), 4),
    "HistorySum": (lambda p, q: HistorySum(((p, q), (q, p))), 4),
    # <Re PQ> = |<p|q>|^2 / 2 in the mixed state, never negative
    "LinearlyPositive": (lambda p, q: LinearlyPositive(p @ q), 4),
}

# each function, its arity, a strategy for in-range argument tuples, and the
# values of its result that must be finite
PUBLIC = {
    **{
        f"realize.{name}": (_realizer(build), arity, st.tuples(*[finite] * arity), _matrix)
        for name, (build, arity) in REALIZERS.items()
    },
    # the two prior weights of a two-point space
    "PerceptionSpace.discrete": (
        lambda *w: PerceptionSpace.discrete(["a", "b"], w), 2, st.tuples(*[st.floats(0.01, 100.0)] * 2),
        lambda out: out.weights,
    ),
    "posterior_moment": (inference.posterior_moment, 2, st.tuples(nonzero_p, order), _scalar),
    "typicality_of_density": (
        lambda v: typicality_of_density(CIRCLE, v), 1, st.tuples(st.floats(-1.0, 2.0)), _scalar
    ),
    "PerceptionSpace.grid": (
        lambda *axis: PerceptionSpace.grid({"x": np.array(axis)}), 3, increasing, _grid_values
    ),
    "posterior_density": (inference.posterior_density, 2, st.tuples(nonzero_p, moderate), _scalar),
    "dual_posterior": (inference.dual_posterior, 2, st.tuples(nonzero_p, moderate), _scalar),
    "dual_posterior_moment": (inference.dual_posterior_moment, 2, st.tuples(nonzero_p, order), _scalar),
    "gaussian_typicality": (inference.gaussian_typicality, 2, st.tuples(moderate, moderate), _scalar),
    "gaussian_reversed": (inference.gaussian_reversed, 2, st.tuples(moderate, moderate), _scalar),
    "gaussian_dual": (inference.gaussian_dual, 2, st.tuples(moderate, moderate), _scalar),
    "circle_model": (
        toymodels.circle_model, 2, st.tuples(st.floats(0.01, math.pi - 0.01), moderate), tuple
    ),
    "circle_density_array": (
        lambda theta: toymodels.circle_density_array(theta, PHIS), 1,
        st.tuples(st.floats(0.01, math.pi - 0.01)), lambda out: out,
    ),
    "sphere_model": (toymodels.sphere_model, 3, st.tuples(moderate, moderate, moderate), tuple),
    "ball_prior_weight": (toymodels.ball_prior_weight, 3, in_ball, _scalar),
    "ball_experience": (toymodels.ball_experience, 3, in_ball, _matrix),
    "from_bloch": (State.from_bloch, 2, st.tuples(polar, finite), _matrix),
    "averaged_posterior": (
        inference.averaged_posterior, 1,
        st.tuples(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)), _scalar,
    ),
    # a gaussian, whose nodes reach the whole float range as the ends do
    "de_quad": (
        lambda a, b: inference.de_quad(lambda x: math.exp(-x * x), a, b), 2,
        st.tuples(moderate, moderate | st.just(math.inf)), list,
    ),
    # six angles: the state, Q and R directions
    "two_step_analysis": (
        lambda *a: toymodels.two_step_analysis(*_directions(a)), 6, six_angles, _two_step_values
    ),
    "triangle_equivalence": (
        lambda *a: toymodels.triangle_equivalence(*_directions(a)), 6, six_angles, lambda out: out.areas or []
    ),
    # 100 to 10^6 digit strings in three groups, expectations within a factor
    # 100 of each other and exponents small enough that no power overflows
    "digit_experiment": (
        inference.digit_experiment, 7,
        st.tuples(st.integers(2, 6), st.integers(1, 10), st.integers(1, 10), *[st.floats(0.1, 10.0)] * 3,
                  st.floats(-5.0, 5.0)),
        _scalar,
    ),
    "canonical_digit_experiment": (
        inference.canonical_digit_experiment, 2,
        st.tuples(st.integers(1, 10).map(lambda half: 2 * half), st.floats(-3.0, 3.0)), _scalar,
    ),
    "confidence_bound": (
        inference.confidence_bound, 2, st.tuples(st.integers(1, 308), st.floats(0.01, 0.999)), _scalar
    ),
    # the exponent, then the density
    "PowerLawModel.apply": (
        lambda n, m: inference.PowerLawModel(n).apply(m), 2,
        st.tuples(st.floats(-3.0, 3.0), st.floats(0.01, 100.0)), _scalar,
    ),
    # the prior and the constant likelihood of one hypothesis of two
    "bayes_update": (
        _bayes_pair, 2, st.tuples(st.floats(0.01, 100.0), st.floats(0.0, 1.0)), lambda out: list(out.values())
    ),
    # the two step sizes of the sphere family's metric at one point
    "family_metric": (_sphere_metric, 2, st.tuples(*[st.floats(1e-6, 1e-2)] * 2), lambda out: out),
    # the two entries of the state vector
    "relative_state": (
        lambda *psi: relative_state(RELATIVE_SPEC, psi), 2, st.tuples(st.floats(0.5, 10.0), moderate),
        lambda out: out.view(float),
    ),
}


@pytest.mark.parametrize("name", PUBLIC)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_raises_a_qpercept_error_or_returns_finite_values(name, data):
    function, arity, in_range, values = PUBLIC[name]
    # in range, every draw reaches the computation and its result is finite
    assert np.all(np.isfinite(values(function(*data.draw(in_range)))))
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
        lambda: relative_state(RELATIVE_SPEC, [math.nan, 1.0]),
        lambda: relative_state(RELATIVE_SPEC, [1.0, -math.inf]),
        lambda: _sphere_metric(math.nan, 1e-4),
        lambda: _sphere_metric(math.inf, math.inf),
    ],
)
def test_non_finite_and_out_of_range_inputs_are_validation_errors(call):
    with pytest.raises(ValidationError):
        call()


def test_a_two_step_state_of_the_wrong_dimension_is_a_dimension_mismatch():
    direction = toymodels.Direction(0.5, 0.5)
    with pytest.raises(DimensionMismatch, match="2-dimensional"):
        toymodels.two_step_analysis(direction, direction, direction, state=State.maximally_mixed(3))


# qubit operators against a 3-dimensional state, at every site that forms Tr(rho E),
# and a family metric whose class operators change shape
QUBIT_STEP = sample_decomposition(2, (1, 1), 0)
TWO_STEP = toymodels.two_step_family(bloch_projector(0.4, 0.0), bloch_projector(1.2, 0.7))
QUBIT_Q, QUBIT_R = (TWO_STEP.entries[0][1].chain[i] for i in (1, 0))
STATE_3 = State.maximally_mixed(3)


@pytest.mark.parametrize(
    "call",
    [
        lambda: density_at(QUBIT_STEP, STATE_3),
        lambda: ReplicatedDecoherenceFunctional(STATE_3, [QUBIT_STEP]),
        lambda: decoherence_report(TWO_STEP, STATE_3),
        lambda: decoherence_report(ExperienceFamily(TWO_STEP.entries[:1]), STATE_3),
        lambda: decoherence_report(
            ExperienceFamily(TWO_STEP.entries[:1] + (("c", ProjectionSequence((identity(3),)), 1.0),)),
            State.maximally_mixed(2),
        ),
        lambda: realize(LinearlyPositive(QUBIT_Q @ QUBIT_R), STATE_3),
        lambda: overlap_fraction(Projector(QUBIT_Q), Projector(QUBIT_R), STATE_3),
        lambda: overlap_fraction(Projector(QUBIT_Q), Projector(identity(3)), State.maximally_mixed(2)),
        lambda: relative_density(Projector(QUBIT_Q), STATE_3),
        lambda: prior_measure(TWO_STEP, "prior_state", STATE_3),
        lambda: family_metric(lambda x: [np.eye(2) if x[0] > 1 else np.eye(3)], [[1.0]], [1e-3]),
        lambda: family_metric(lambda x: [np.eye(2), np.ones(1)], [[1.0]], [1e-3]),
    ],
    ids=[
        "density_at",
        "functional",
        "decoherence_report",
        "decoherence_report_one_entry",
        "decoherence_report_mixed_family",
        "linearly_positive",
        "overlap_fraction",
        "overlap_fraction_mixed_specs",
        "relative_density",
        "prior_state",
        "family_metric_output_shapes",
        "family_metric_broadcastable_shapes",
    ],
)
def test_qubit_operators_against_a_qutrit_state_are_a_dimension_mismatch(call):
    with pytest.raises(DimensionMismatch):
        call()


FUNCTIONAL = ReplicatedDecoherenceFunctional(State.maximally_mixed(2), [QUBIT_STEP])
COEFFICIENT = "a spectral coefficient must be a finite real number >= 0"
SPECTRAL = SpectralExperience((((1.0, 0, 0),), ((1.0, 0, 1),)))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: sample_decomposition(2, (1.5, 1.5), 0), "each rank must be an integer >= 1, got 1.5"),
        (lambda: sample_decomposition(2.0, (1, 1), 0), "dim must be an integer"),
        (lambda: sample_decomposition(True, (1,), 0), "dim must be an integer"),
        (lambda: sample_decomposition(2, 2, 0), "ranks must be a sequence of integers"),
        (lambda: manifold_dimension(2, ("1", "1")), "each rank must be an integer >= 1, got '1'"),
        (lambda: manifold_dimension(2, (True, True)), "each rank must be an integer >= 1, got True"),
        (lambda: manifold_dimension(2, (3, -1)), "each rank must be an integer >= 1, got -1"),
        (lambda: ProjectorDecomposition(2, (1.0, 1.0), QUBIT_STEP.projectors), "each rank must be an integer"),
        (lambda: SpectralExperience((((0.5, 1.7, 0.2),),)), "a spectral term's index must be an integer, got 1.7"),
        (lambda: SpectralExperience(((0.5, 0, 0),)), r"\(coefficient, step, projector\) triples"),
        (lambda: SpectralExperience((((0.5, 0),),)), r"\(coefficient, step, projector\) triples"),
        (lambda: SpectralExperience((((-0.5, 0, 0),),)), f"{COEFFICIENT}, got -0.5"),
        (lambda: SpectralExperience((((math.nan, 0, 0),),)), f"{COEFFICIENT}, got nan"),
        (lambda: SpectralExperience((((math.inf, 0, 0),),)), f"{COEFFICIENT}, got inf"),
        (lambda: SpectralExperience((((None, 0, 0),),)), f"{COEFFICIENT}, got None"),
        (lambda: SpectralExperience((((0.5, "0", 0),),)), "a spectral term's index must be an integer, got '0'"),
        (lambda: SpectralExperience(3), r"\(coefficient, step, projector\) triples"),
        (lambda: SpectralExperience((3,)), r"\(coefficient, step, projector\) triples"),
        (lambda: FUNCTIONAL.atomic((0.9,), (0,)), r"a history index must be an integer in \[0, 1\], got 0.9"),
        (lambda: FUNCTIONAL.atomic(0, (0,)), "a history must be a sequence of integers, got 0"),
        (lambda: spectral_operator(SPECTRAL, [QUBIT_STEP], 0.5), r"must be an integer in \[0, 1\], got 0.5"),
    ],
    ids=[
        "float_ranks",
        "float_dim",
        "bool_dim",
        "int_ranks",
        "string_ranks",
        "bool_ranks",
        "negative_rank",
        "decomposition_float_ranks",
        "float_term_indices",
        "term_not_nested",
        "short_term",
        "negative_coefficient",
        "nan_coefficient",
        "infinite_coefficient",
        "missing_coefficient",
        "string_index",
        "terms_not_a_sequence",
        "perception_not_a_sequence",
        "float_history",
        "int_history",
        "float_perception",
    ],
)
def test_non_integer_ranks_and_indices_are_validation_errors(call, message):
    with pytest.raises(ValidationError, match=message):
        call()


def test_numpy_integer_ranks_and_indices_keep_working():
    two, one, zero = np.int64(2), np.int64(1), np.int64(0)
    decomp = sample_decomposition(two, (one, one), 0)
    assert decomp.ranks == (1, 1) and all(type(r) is int for r in decomp.ranks)
    assert type(decomp.dim) is int and json.dumps(decomp.to_json())
    assert manifold_dimension(two, np.array([1, 1])) == 2
    spectral = SpectralExperience((((1.0, zero, one),),))
    assert spectral.terms == (((1.0, 0, 1),),) and type(spectral.terms[0][0][1]) is int
    assert spectral_operator(spectral, [decomp], zero).dim == 2
    assert FUNCTIONAL.atomic((zero,), np.array([0])) == FUNCTIONAL.atomic((0,), (0,))


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
        lambda: inference.dual_posterior_moment(1e-100, 2),  # (2 / p^2)^2 is inf
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


def test_a_non_finite_state_vector_is_rejected_before_any_arithmetic():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        message = "^each entry of the state vector must be a finite real number, got nan$"
        with pytest.raises(ValidationError, match=message):
            relative_state(RELATIVE_SPEC, [math.nan, 1.0])


def test_an_overflowing_relative_state_is_a_computation_failure():
    with pytest.raises(QPerceptError, match="overflows") as exc:
        relative_state(RELATIVE_SPEC, [1e200, 1e200])
    assert not isinstance(exc.value, ValidationError)


_OP = {"dim": 1, "re": [[1.0]], "im": [[0.0]]}


@pytest.mark.parametrize(
    "decode, data, message",
    [
        (spec_from_json, {}, "experience spec JSON has no key 'variant'"),
        (spec_from_json, [], "experience spec JSON has no key 'variant'"),
        (spec_from_json, {"variant": ["x"]}, r"unknown spec variant \['x'\]"),
        (spec_from_json, {"variant": "nope"}, "unknown spec variant 'nope'"),
        (spec_from_json, {"variant": "projector"}, "experience spec JSON has no key 'op'"),
        (spec_from_json, {"variant": "sequence", "chain": 3}, "spec JSON needs an operator or a list, got int"),
        (spec_from_json, {"variant": "explicit", "op": {}}, "operator JSON has no key 're'"),
        (Operator.from_json, {}, "operator JSON has no key 're'"),
        (Operator.from_json, {"re": [[1.0]], "im": [[0.0]]}, "operator JSON has no key 'dim'"),
        (
            Operator.from_json, {**_OP, "re": [["a"]]},
            "^each entry of operator field 're' must be a finite real number, got 'a'$",
        ),
        (
            Operator.from_json, {**_OP, "re": [[1.0], [2.0, 3.0]]},
            "^operator field 're' must be an array of numbers of one shape$",
        ),
        (State.from_json, {}, "operator JSON has no key 're'"),
        (ProjectorDecomposition.from_json, {}, "decomposition JSON has no key 'dim'"),
        (ProjectorDecomposition.from_json, {"dim": 1, "ranks": [1]}, "decomposition JSON has no key 'projectors'"),
        (ProjectorDecomposition.from_json, {"dim": 1, "ranks": [1], "projectors": [{}]}, "no key 're'"),
        (ProjectorDecomposition.from_json, {"dim": "2", "ranks": [1, 1], "projectors": []}, "field 'dim'"),
        (ProjectorDecomposition.from_json, {"dim": 2, "ranks": 3, "projectors": []}, "field 'ranks'"),
        (ProjectorDecomposition.from_json, {"dim": 2, "ranks": [1.0, 1], "projectors": []}, "field 'ranks'"),
        (ProjectorDecomposition.from_json, {"dim": 1, "ranks": [1], "projectors": 3}, "field 'projectors'"),
        (spec_from_json, {"variant": "explicit", "op": []}, "Explicit op must be an Operator, got tuple"),
    ],
)
def test_json_decoders_raise_validation_errors_naming_the_key(decode, data, message):
    with pytest.raises(ValidationError, match=message):
        decode(data)


@pytest.mark.parametrize("seed", [-3, -1, 1.5, "7", None, True, 2.0])
@pytest.mark.parametrize(
    "draw",
    [
        lambda seed: haar_random_unitary(2, seed),
        lambda seed: haar_random_unitary(2, seed, size=3),
        lambda seed: sample_decomposition(2, (1, 1), seed),
        lambda seed: toymodels.linear_positivity_fraction(10, seed),
        reproduce.sphere_checks,
    ],
)
def test_seeds_must_be_nonnegative_integers(draw, seed):
    with pytest.raises(ValidationError, match=f"the seed must be an integer >= 0, got {seed!r}"):
        draw(seed)
    draw(np.int64(0))  # numpy integers are integers


EPR = toymodels.epr_cat_model(0.0)
QUBIT_JSON = QUBIT_STEP.to_json()

# every integer parameter but the seeds: the call with that argument in place,
# a valid value, and one just out of range (None where any integer is valid)
INTEGER_PARAMETERS = {
    "State.maximally_mixed": (State.maximally_mixed, 2, 0),
    "identity": (identity, 2, 0),
    "haar_random_unitary.dim": (lambda d: haar_random_unitary(d, 0), 2, 0),
    "haar_random_unitary.size": (lambda s: haar_random_unitary(2, 0, size=s), 2, -1),
    "manifold_dimension.dim": (lambda d: manifold_dimension(d, (2,)), 2, 0),
    "manifold_dimension.ranks": (lambda r: manifold_dimension(2, (r,)), 2, 0),
    "from_json.dim": (lambda d: ProjectorDecomposition.from_json({**QUBIT_JSON, "dim": d}), 2, 0),
    "from_json.ranks": (lambda r: ProjectorDecomposition.from_json({**QUBIT_JSON, "ranks": [r, 1]}), 1, 0),
    "SpectralExperience.terms": (lambda i: SpectralExperience((((1.0, i, 0),),)), 0, None),
    "atomic.history": (lambda i: FUNCTIONAL.atomic((i,), (0,)), 1, 2),
    "spectral_operator.perception": (lambda i: spectral_operator(SPECTRAL, [QUBIT_STEP], i), 1, 2),
    "linear_positivity_fraction.samples": (lambda n: toymodels.linear_positivity_fraction(n, 0), 2, 0),
    "unconfused_fraction_alternative.parts": (EPR.unconfused_fraction_alternative, 2, 0),
    "posterior_moment.m": (lambda m: inference.posterior_moment(1.0, m), 2, -1),
    "dual_posterior_moment.m": (lambda m: inference.dual_posterior_moment(1.0, m), 2, -1),
    "digit_experiment.k": (lambda k: inference.digit_experiment(k, 1, 1, 1.0, 1.0, 1.0, 1.0), 2, 0),
    "digit_experiment.n1": (lambda n: inference.digit_experiment(2, n, 1, 1.0, 1.0, 1.0, 1.0), 2, 0),
    "digit_experiment.n2": (lambda n: inference.digit_experiment(2, 1, n, 1.0, 1.0, 1.0, 1.0), 2, 0),
    "canonical_digit_experiment.k": (lambda k: inference.canonical_digit_experiment(k, 1.0), 2, 0),
    "confidence_bound.k": (inference.confidence_bound, 2, 0),
    "circle_grid_typicality.points": (lambda n: reproduce.circle_grid_typicality(1.0, 0.5, points=n), 3, 1),
}
_INTEGER_CASES = [
    (name, value)
    for name, (_, _, out_of_range) in INTEGER_PARAMETERS.items()
    for value in [True, 2.5, 2.0, "2"] + ([] if out_of_range is None else [out_of_range])
]


@pytest.mark.parametrize("name, value", _INTEGER_CASES, ids=[f"{n}-{v!r}" for n, v in _INTEGER_CASES])
def test_integer_parameters_reject_bools_floats_strings_and_out_of_range_values(name, value):
    call, _, _ = INTEGER_PARAMETERS[name]
    with pytest.raises(ValidationError, match=f"must be an integer.*, got {re.escape(repr(value))}$"):
        call(value)


@pytest.mark.parametrize("name", INTEGER_PARAMETERS)
def test_integer_parameters_take_numpy_integers(name):
    call, valid, _ = INTEGER_PARAMETERS[name]
    out = call(np.int64(valid))
    if isinstance(out, float):
        assert out == call(valid)


def test_an_index_is_an_integer_and_any_other_value_a_label():
    profile = _labeled_profile()
    assert typicality(profile, np.int64(1)) == typicality(profile, 1) == typicality(profile, "b")
    for index in (True, 3, -1):
        with pytest.raises(ValidationError, match=rf"the index must be an integer in \[0, 2\], got {index!r}"):
            typicality(profile, index)
    for label in (2.0, "2"):
        with pytest.raises(UnknownLabel):
            typicality(profile, label)


def _param_op(i, value):
    """ParamPositiveOp with field i set to value, among t = 2 and x = y = z = 1/2."""
    return ParamPositiveOp(*[value if j == i else 2.0 if j == 0 else 0.5 for j in range(4)])


# every real parameter: the call with that argument in place, a valid value, and
# one out of range (None where any finite real is valid)
REAL_PARAMETERS = {
    "PowerLawModel.exponent": (lambda n: inference.PowerLawModel(n).apply(2.0), 1.5, None),
    "PowerLawModel.apply": (lambda m: inference.PowerLawModel(2.0).apply(m), 2.0, -1.0),
    "Hypothesis.prior": (lambda w: _bayes_pair(w, 0.5)["a"], 2.0, 0.0),
    "bayes_update.likelihood": (lambda lk: _bayes_pair(1.0, lk)["a"], 0.25, -0.5),
    "gaussian_typicality.n": (lambda n: inference.gaussian_typicality(n, 1.0), 2.0, None),
    "gaussian_typicality.p": (lambda p: inference.gaussian_typicality(1.0, p), 0.5, None),
    "gaussian_reversed.n": (lambda n: inference.gaussian_reversed(n, 1.0), 2.0, None),
    "gaussian_reversed.p": (lambda p: inference.gaussian_reversed(1.0, p), 0.5, None),
    "gaussian_dual.n": (lambda n: inference.gaussian_dual(n, 1.0), 2.0, None),
    "gaussian_dual.p": (lambda p: inference.gaussian_dual(1.0, p), 0.5, None),
    "posterior_density.p": (lambda p: inference.posterior_density(p, 1.0), 0.5, None),
    "posterior_density.n": (lambda n: inference.posterior_density(1.0, n), 2.0, None),
    "posterior_moment.p": (lambda p: inference.posterior_moment(p, 2), 0.5, None),
    "averaged_posterior.n": (inference.averaged_posterior, 2.0, 0.0),
    "de_quad.a": (lambda a: inference.de_quad(lambda x: math.exp(-x * x), a)[0], 0.5, None),
    # inf is valid here: it names the half-line [a, inf)
    "de_quad.b": (lambda b: inference.de_quad(lambda x: math.exp(-x * x), 0.0, b)[0], 0.5, None),
    "dual_posterior.p": (lambda p: inference.dual_posterior(p, 1.0), 0.5, None),
    "dual_posterior.n": (lambda n: inference.dual_posterior(1.0, n), 2.0, None),
    "dual_posterior_moment.p": (lambda p: inference.dual_posterior_moment(p, 2), 0.5, None),
    "digit_experiment.m1": (lambda m: inference.digit_experiment(2, 1, 1, m, 1.0, 1.0, 1.0), 0.5, 0.0),
    "digit_experiment.m2": (lambda m: inference.digit_experiment(2, 1, 1, 1.0, m, 1.0, 1.0), 0.5, 0.0),
    "digit_experiment.m3": (lambda m: inference.digit_experiment(2, 1, 1, 1.0, 1.0, m, 1.0), 0.5, -1.0),
    "digit_experiment.n": (lambda n: inference.digit_experiment(2, 1, 1, 1.0, 0.5, 1.0, n), 1.5, None),
    "canonical_digit_experiment.n": (lambda n: inference.canonical_digit_experiment(8, n), 1.5, None),
    "confidence_bound.level": (lambda level: inference.confidence_bound(8, level), 0.9, 1.0),
    "gaussian_99_band.dual_floor": (lambda floor: inference.gaussian_99_band(floor)[1], 0.05, 0.0),
    "typicality_of_density": (lambda v: typicality_of_density(CIRCLE, v), 0.5, None),
    "State.from_bloch.polar": (lambda a: State.from_bloch(a, 0.5), 1.0, 4.0),
    "State.from_bloch.azimuth": (lambda a: State.from_bloch(1.0, a), 0.5, None),
    **{f"ParamPositiveOp.{name}": (lambda v, i=i: _param_op(i, v), 1.0, None) for i, name in enumerate("txyz")},
    "Direction.polar": (lambda a: toymodels.Direction(a, 0.5), 1.0, -0.5),
    "Direction.azimuth": (lambda a: toymodels.Direction(1.0, a), 0.5, None),
    "ball_experience.u": (lambda u: toymodels.ball_experience(u, 0.0, 0.0), 0.5, None),
    "ball_prior_weight.w": (lambda w: toymodels.ball_prior_weight(0.0, 0.0, w), 0.5, None),
    "circle_model.theta": (lambda t: toymodels.circle_model(t, 0.5).typicality, 1.0, None),
    "circle_model.phi": (lambda phi: toymodels.circle_model(1.0, phi).typicality, 0.5, None),
    "circle_density_array.theta": (lambda t: toymodels.circle_density_array(t, PHIS), 1.0, None),
    "sphere_model.theta": (lambda t: toymodels.sphere_model(t, 0.5, 0.5).typicality, 1.0, None),
    "sphere_model.vartheta": (lambda t: toymodels.sphere_model(1.0, t, 0.5).typicality, 1.0, None),
    "sphere_model.varphi": (lambda t: toymodels.sphere_model(1.0, 0.5, t).typicality, 1.0, None),
    "epr_cat_model.theta": (lambda t: toymodels.epr_cat_model(t).mu_up_up, 1.0, 4.0),
    "SpectralExperience.coefficient": (lambda c: SpectralExperience((((c, 0, 0),),)), 0.5, -0.5),
    "family_metric.step": (lambda h: _sphere_metric(h, 1e-4), 1e-4, 0.0),
    "ExperienceFamily.weight": (lambda w: ExperienceFamily((("a", Explicit(identity(2)), w),)).weights, 2.0, 0.0),
}
_REAL_CASES = [
    (name, value)
    for name, (_, _, out_of_range) in REAL_PARAMETERS.items()
    for value in [True, "1", None, 10**400, math.nan, math.inf] + ([] if out_of_range is None else [out_of_range])
    if not (name == "de_quad.b" and value == math.inf)
]


@pytest.mark.parametrize("name, value", _REAL_CASES, ids=[f"{n}-{v!r:.12}" for n, v in _REAL_CASES])
def test_real_parameters_reject_bools_strings_overflowing_ints_non_finite_and_out_of_range_values(name, value):
    call, _, _ = REAL_PARAMETERS[name]
    with pytest.raises(ValidationError, match=f"must be .*, got {re.escape(repr(value))}$"):
        call(value)


@pytest.mark.parametrize("name", REAL_PARAMETERS)
def test_real_parameters_take_numpy_floats_and_integers(name):
    call, valid, _ = REAL_PARAMETERS[name]
    expected = call(valid)
    for value in (np.float64(valid), np.float32(valid)) + ((np.int64(valid),) if valid == int(valid) else ()):
        out = call(value)
        if isinstance(out, (float, np.ndarray)) and float(value) == valid:
            assert np.array_equal(out, expected)


def _all_entries(valid, entry):
    """valid, a list nested for each axis, with every entry replaced."""
    return [_all_entries(v, entry) if isinstance(v, list) else entry for v in valid]


def _last_entry(valid, entry):
    """valid with its last entry replaced."""
    last = valid[-1]
    return valid[:-1] + [_last_entry(last, entry) if isinstance(last, list) else entry]


TWO_POINTS = PerceptionSpace.discrete(["a", "b"])
_ZERO = [[0.0, 0.0], [0.0, 0.0]]
RAGGED = [1.0, 2.0]

# every array argument: the call with that array in place, a valid array as a
# list (nested for more than one axis), and whether complex entries are valid
ARRAY_PARAMETERS = {
    "Operator": (Operator, [[1.0, 0.5], [0.5, 1.0]], True),
    "Operator.from_json.re": (lambda re: Operator.from_json({"dim": 2, "re": re, "im": _ZERO}), _ZERO, False),
    "Operator.from_json.im": (lambda im: Operator.from_json({"dim": 2, "re": _ZERO, "im": im}), _ZERO, False),
    "State.pure": (State.pure, [1.0, 0.5], True),
    "PerceptionSpace.weights": (lambda w: PerceptionSpace.discrete(["a", "b"], w), [1.0, 2.0], False),
    "PerceptionSpace.points": (lambda pts: PerceptionSpace([1.0, 1.0], points=pts, axes=("x",)), [[0.0], [1.0]], False),
    "PerceptionSpace.grid.axis": (lambda axis: PerceptionSpace.grid({"x": axis}), [0.0, 1.0], False),
    "PerceptionSpace.grid.prior_density": (
        lambda dens: PerceptionSpace.grid({"x": [0.0, 1.0]}, lambda x: dens), [1.0, 2.0], False
    ),
    "MeasureProfile.density": (lambda m: MeasureProfile(TWO_POINTS, m), [0.5, 1.0], False),
    "profile_from_density": (lambda m: profile_from_density(TWO_POINTS, m), [0.5, 1.0], False),
    "relative_state": (lambda psi: relative_state(RELATIVE_SPEC, psi), [1.0, 0.5], True),
    "gram_metric": (gram_metric, [[[1.0, 0.5]]], True),
    "family_metric.points": (lambda pts: family_metric(_sphere_family, pts, (1e-4, 1e-4)), [[1.0, 0.5]], False),
    "circle_density_array.phis": (lambda phis: toymodels.circle_density_array(1.0, phis), [0.0, 1.0], False),
}
# (name, array, the bad entry, id): a bool array, then one bad entry at the end,
# a bool among numbers included (numpy alone would read it as 1.0)
_ARRAY_CASES = [
    (name, array, entry, f"{name}-{label}")
    for name, (_, valid, _) in ARRAY_PARAMETERS.items()
    for array, entry, label in [(_all_entries(valid, True), True, "True")]
    + [(_last_entry(valid, bad), bad, f"{bad!r:.12}") for bad in ("1", 10**400, math.nan, math.inf, RAGGED)]
    + [(_last_entry(valid, bad), bad, f"last-{bad!r}") for bad in (True, np.True_)]
]


@pytest.mark.parametrize(
    "name, array, entry", [case[:3] for case in _ARRAY_CASES], ids=[case[3] for case in _ARRAY_CASES]
)
def test_array_parameters_reject_bools_strings_overflowing_ints_non_finite_entries_and_ragged_lists(
    name, array, entry
):
    call, _, _ = ARRAY_PARAMETERS[name]
    # a ragged list has no entry to name; every other message ends in the bad entry
    tail = "an array of numbers of one shape" if entry is RAGGED else f".*, got {re.escape(repr(entry))}"
    with pytest.raises(ValidationError, match=f"must be {tail}$"):
        call(array)


def _numbers(out):
    """The array an intake's result holds."""
    return getattr(out, "mat", getattr(out, "density", getattr(out, "weights", out)))


@pytest.mark.parametrize("name", ARRAY_PARAMETERS)
def test_array_parameters_take_float32_integer_and_complex_arrays(name):
    call, valid, complex_valid = ARRAY_PARAMETERS[name]
    expected = _numbers(call(valid))
    # every valid entry is a float32; truncated to integers the arrays stay valid
    assert np.array_equal(_numbers(call(np.array(valid, dtype=np.float32))), expected)
    call(np.array(valid).astype(np.int64))
    if complex_valid:
        assert np.array_equal(_numbers(call(np.array(valid, dtype=complex))), expected)
    else:  # a complex number is no real one, whatever its imaginary part
        first = complex(np.array(valid).flat[0])
        with pytest.raises(ValidationError, match=f"must be a finite real number, got {re.escape(repr(first))}$"):
            call(np.array(valid, dtype=complex))


# every field of every spec variant holds one operator, or a sequence of them
# (HistorySum: of chains); the identity fits each
_ONE = {"dim": 2, "re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}
_SEQUENCE_FIELDS = {"group": [_ONE], "components": [_ONE], "chain": [_ONE], "sequences": [[_ONE]]}
_SPEC_FIELDS = [(cls, f.name) for cls in _SPEC_TYPES for f in dataclasses.fields(cls)]


@pytest.mark.parametrize("cls, name", _SPEC_FIELDS, ids=[f"{c.tag}.{n}" for c, n in _SPEC_FIELDS])
@pytest.mark.parametrize(
    "bad", [[], [[]], [_ONE], [[_ONE]], _ONE], ids=["[]", "[[]]", "[op]", "[[op]]", "op"]
)
def test_wrong_typed_spec_fields_are_validation_errors(cls, name, bad):
    # JSON that decodes, to operators and tuples nested the wrong way
    data = {"variant": cls.tag}
    data.update((f.name, _SEQUENCE_FIELDS.get(f.name, _ONE)) for f in dataclasses.fields(cls))
    realize(spec_from_json(data), State.pure([1.0, 0.0]))
    if bad != data[name]:
        data[name] = bad
        with pytest.raises(ValidationError):
            spec_from_json(data)


@pytest.mark.parametrize(
    "prior, tail",
    [
        (10**400, f"a finite real number, got {10**400!r}"),
        (0, "positive, got 0.0"),  # the float the rule read
        (-1.0, "positive, got -1.0"),
        (math.inf, "a finite real number, got inf"),
        (math.nan, "a finite real number, got nan"),
        ("1", "a finite real number, got '1'"),
        (None, "a finite real number, got None"),
    ],
    ids=["huge_int", "zero", "negative", "inf", "nan", "string", "None"],
)
def test_a_prior_outside_the_positive_floats_is_a_validation_error(prior, tail):
    with pytest.raises(ValidationError, match=f"^the prior for 'a' must be {re.escape(tail)}$"):
        inference.Hypothesis("a", prior, lambda _: 0.5)


@pytest.mark.parametrize("likelihood", [10**400, -0.5, math.inf, math.nan, "x", None])
def test_a_likelihood_outside_the_nonnegative_floats_is_a_validation_error(likelihood):
    hyps = inference.HypothesisSet((inference.Hypothesis("a", 1.0, lambda _: likelihood),))
    message = f"^the likelihood for 'a' must be a finite real number >= 0, got {re.escape(repr(likelihood))}$"
    with pytest.raises(ValidationError, match=message):
        inference.bayes_update(hyps, None)


_GOOD_HYPOTHESIS = inference.Hypothesis("a", 1.0, lambda _: 0.5)


# each checked record, a valid instance, a field to replace with a bad value and
# the constructor's message; _replace goes through _make, not __new__
@pytest.mark.parametrize(
    "record, field, bad, message",
    [
        (toymodels.Direction(0.0, 0.0), "polar", 9.0, "the polar angle must be"),
        (
            toymodels.TwoStepReport(0.0, 0.0, True, (0.25, 0.25, 0.25, 0.25)),
            "measures", (0.5, 0.5, 0.5, 0.5), "sum to 1",
        ),
        (inference.PowerLawModel(2.0), "exponent", math.inf, "the exponent must be"),
        (_GOOD_HYPOTHESIS, "prior", -1.0, "must be positive"),
        (inference.HypothesisSet((_GOOD_HYPOTHESIS,)), "entries", (), "at least one hypothesis"),
    ],
    ids=["Direction", "TwoStepReport", "PowerLawModel", "Hypothesis", "HypothesisSet"],
)
def test_replacing_a_field_of_a_checked_record_checks_it_again(record, field, bad, message):
    assert record._replace(**{field: getattr(record, field)}) == record
    with pytest.raises(ValidationError, match=message):
        record._replace(**{field: bad})
    with pytest.raises(ValidationError, match=message):
        type(record)._make({**record._asdict(), field: bad}.values())
