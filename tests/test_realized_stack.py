"""A family realized as one (N, d, d) stack: every reader of the stack agrees
bit for bit with the per-spec path it replaced."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_projector, random_state
from qpercept import hypotheses
from qpercept.errors import DimensionMismatch, InvalidExperience, UnknownLabel, ValidationError
from qpercept.hypotheses import (
    ConstrainedProjector,
    ExperienceFamily,
    Explicit,
    HistorySum,
    LinearlyPositive,
    ProductProjector,
    ProjectionSequence,
    Projector,
    SymmetrizedProjector,
    awareness_operator,
    check_commuting,
    check_linear_independence,
    check_orthogonal,
    check_pairwise_independence,
    realize,
    realize_stack,
)
from qpercept.measures import PerceptionSpace, build_profile, measure_density, prior_measure
from qpercept.operators import Operator, State, expectation, haar_random_unitary, identity


def _positive(rng, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return g @ g.conj().T / dim


def _hermitian(rng, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2


def _commuting_pair(rng, dim: int) -> tuple[Operator, Operator]:
    u = haar_random_unitary(dim, int(rng.integers(0, 2**31))).mat
    diagonals = rng.integers(0, 2, size=(2, dim))
    return tuple(Operator(u @ np.diag(d).astype(complex) @ u.conj().T) for d in diagonals)


def _chain(rng, dim: int) -> tuple[Operator, ...]:
    return tuple(random_projector(rng, dim, int(rng.integers(1, dim + 1))) for _ in range(rng.integers(1, 4)))


def make_spec(variant: int, rng, dim: int):
    """One spec of each of the eight variants, all with positive operators."""
    proj = lambda: random_projector(rng, dim, int(rng.integers(1, dim + 1)))  # noqa: E731
    if variant == 0:
        return Explicit(Operator(_positive(rng, dim)))
    if variant == 1:
        return Projector(proj())
    if variant == 2:
        return ConstrainedProjector(proj(), proj())
    if variant == 3:
        return SymmetrizedProjector(proj(), (identity(dim), haar_random_unitary(dim, int(rng.integers(0, 2**31)))))
    if variant == 4:
        return ProductProjector(_commuting_pair(rng, dim))
    if variant == 5:
        return ProjectionSequence(_chain(rng, dim))
    if variant == 6:
        return HistorySum(tuple(_chain(rng, dim) for _ in range(rng.integers(1, 3))))
    # Re C = A is positive, so <Re C> >= 0 in every state
    return LinearlyPositive(Operator(_positive(rng, dim) + 1j * _hermitian(rng, dim)))


def family_of(specs, rng) -> ExperienceFamily:
    return ExperienceFamily(tuple((f"s{k}", s, rng.uniform(0.5, 2.0)) for k, s in enumerate(specs)))


mixed_families = st.tuples(
    st.integers(2, 4),
    st.lists(st.integers(0, 7), min_size=1, max_size=16),
    st.integers(0, 2**31),
)


@settings(max_examples=60, deadline=None)
@given(case=mixed_families)
def test_stack_and_densities_equal_the_per_spec_path(case):
    dim, variants, seed = case
    rng = np.random.default_rng(seed)
    specs = [make_spec(v, rng, dim) for v in variants]
    family = family_of(specs, rng)
    state = random_state(rng, dim)

    stack = family.realize_all(state)
    assert stack.shape == (len(specs), dim, dim) and stack.dtype == complex
    assert not stack.flags.writeable
    for k, spec in enumerate(specs):
        assert np.array_equal(stack[k], realize(spec, state).mat)

    oracle = np.array([measure_density(state, s) for s in specs])
    assert np.array_equal(build_profile(state, family).density, oracle)
    if len(specs) > 1:  # a grid axis needs two points
        grid = PerceptionSpace.grid({"x": np.arange(float(len(specs)))})
        assert np.array_equal(build_profile(state, family, grid).density, oracle)

    order = rng.permutation(len(specs))
    space = PerceptionSpace.discrete([family.labels[k] for k in order])
    assert np.array_equal(build_profile(state, family, space).density, oracle[order])


@settings(max_examples=60, deadline=None)
@given(case=mixed_families)
def test_priors_equal_their_per_operator_values(case):
    dim, variants, seed = case
    rng = np.random.default_rng(seed)
    # prior modes realize without a state, which LinearlyPositive needs
    specs = [make_spec(v, rng, dim) for v in variants if v != 7] or [make_spec(0, rng, dim)]
    family = family_of(specs, rng)
    reference = random_state(rng, dim)
    ops = [realize(s) for s in specs]
    trace = np.array([float(np.trace(op.mat).real) for op in ops])
    expected = np.array([float(expectation(reference, op).real) for op in ops])
    assert np.array_equal(prior_measure(family, "trace"), trace)
    assert np.array_equal(prior_measure(family, "prior_state", prior_state=reference), expected)


@pytest.mark.parametrize("dim", [2, 5, 8, 16])
def test_densities_match_bit_for_bit_at_larger_dims(rng, dim):
    specs = [make_spec(v % 7, rng, dim) for v in range(40)]
    family = family_of(specs, rng)
    state = random_state(rng, dim)
    oracle = np.array([measure_density(state, s) for s in specs])
    assert np.array_equal(build_profile(state, family).density, oracle)


def _negative_family(rng):
    p = random_projector(rng, 2, 1)
    state = State.pure(np.linalg.eigh(p.mat)[1][:, 1])  # <p> = 1
    entries = (
        ("good", Projector(p), 1.0),
        ("bad", LinearlyPositive(-1.0 * p), 1.0),
        ("other", Projector(identity(2) - p), 1.0),
    )
    return ExperienceFamily(entries), state


def test_a_negative_linearly_positive_entry_still_raises(rng):
    family, state = _negative_family(rng)
    with pytest.raises(InvalidExperience, match="negative beyond tolerance"):
        build_profile(state, family)
    with pytest.raises(InvalidExperience):
        build_profile(state, family, PerceptionSpace.discrete(["other", "bad"]))


def test_a_labeled_space_without_the_negative_entry_builds(rng):
    family, state = _negative_family(rng)
    profile = build_profile(state, family, PerceptionSpace.discrete(["other", "good"]))
    assert np.allclose(profile.density, [0.0, 1.0], atol=1e-12)


def test_build_profile_realizes_each_spec_once(rng, monkeypatch):
    specs = [make_spec(v, rng, 3) for v in range(8)]
    family = family_of(specs, rng)
    state = random_state(rng, 3)
    calls = []
    real = hypotheses.realize

    def counting_realize(spec, *args, **kwargs):
        calls.append(spec)
        return real(spec, *args, **kwargs)

    def realized_once_each(expected) -> bool:
        same = len(calls) == len(expected) and all(a is b for a, b in zip(calls, expected))
        calls.clear()
        return same

    monkeypatch.setattr(hypotheses, "realize", counting_realize)
    build_profile(state, family)
    assert realized_once_each(specs)
    build_profile(state, family, PerceptionSpace.grid({"x": np.arange(8.0)}))
    assert realized_once_each(specs)
    build_profile(state, family, PerceptionSpace.discrete(["s5", "s1", "s6"]))
    assert realized_once_each([specs[5], specs[1], specs[6]])


def test_a_missing_label_raises_before_realizing(rng, monkeypatch):
    family = family_of([make_spec(1, rng, 2) for _ in range(3)], rng)
    monkeypatch.setattr(hypotheses, "realize", None)  # any realization would fail loudly
    with pytest.raises(KeyError) as exc:
        build_profile(random_state(rng, 2), family, PerceptionSpace.discrete(["s0", "zz"]))
    assert isinstance(exc.value, UnknownLabel)
    assert exc.value.args == ("zz",)


@pytest.mark.parametrize(
    "call",
    [
        lambda fam, state: awareness_operator(fam),
        lambda fam, state: build_profile(state, fam),
        lambda fam, state: check_linear_independence(fam),
        lambda fam, state: prior_measure(fam, "trace"),
        lambda fam, state: prior_measure(fam, "prior_state", prior_state=state),
        lambda fam, state: check_pairwise_independence(fam),
        lambda fam, state: check_commuting(fam),
        lambda fam, state: check_orthogonal(fam),
    ],
    ids=[
        "awareness",
        "build_profile",
        "linear_independence",
        "prior_trace",
        "prior_state",
        "pairwise_independence",
        "commuting",
        "orthogonal",
    ],
)
def test_mixed_dimension_families_raise_dimension_mismatch(call):
    family = ExperienceFamily(
        (
            ("two", Projector(Operator(np.diag([1.0, 0.0]))), 1.0),
            ("three", Projector(Operator(np.diag([1.0, 0.0, 0.0]))), 1.0),
        )
    )
    state = State.maximally_mixed(2)
    with pytest.raises(DimensionMismatch, match="different dimension"):
        call(family, state)


def test_an_empty_spec_list_is_a_validation_error():
    with pytest.raises(ValidationError, match="at least one experience spec"):
        realize_stack([])


def test_a_state_of_the_wrong_dimension_is_a_dimension_mismatch(rng):
    family = family_of([make_spec(1, rng, 3) for _ in range(3)], rng)
    with pytest.raises(DimensionMismatch):
        build_profile(random_state(rng, 2), family)
    with pytest.raises(DimensionMismatch):
        prior_measure(family, "prior_state", prior_state=random_state(rng, 2))
