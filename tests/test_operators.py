import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_hermitian, random_projector, random_state
from qpercept.errors import DimensionMismatch, ValidationError
from qpercept.operators import (
    TOL,
    Operator,
    ParamPositiveOp,
    State,
    bloch_projector,
    expectation,
    expectations,
    from_params,
    haar_random_unitary,
    identity,
    is_projector,
    tensor_product,
)

angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def _projector_residual(op):
    """max |P - P^dagger| and max |P P - P| together: is_projector at a bound of choice."""
    return max(np.max(np.abs(op.mat - op.mat.conj().T)), np.max(np.abs(op.mat @ op.mat - op.mat)))


def test_expectation_identity_is_one(rng):
    for dim in (1, 2, 3, 5):
        state = random_state(rng, dim)
        assert expectation(state, identity(dim)) == pytest.approx(1.0, abs=1e-12)


def test_expectation_matches_circle_closed_form():
    # state at polar angle pi/2, equatorial projector at azimuth 0
    rho = State.from_bloch(math.pi / 2, 0.0)
    e = bloch_projector(math.pi / 2, 0.0)
    assert expectation(rho, e).real == pytest.approx(1.0, abs=1e-12)
    e_off = bloch_projector(math.pi / 2, 1.3)
    expected = 0.5 * (1 + math.sin(math.pi / 2) * math.cos(1.3))
    assert expectation(rho, e_off).real == pytest.approx(expected, abs=1e-12)


def test_expectation_against_elementwise_trace_oracle(rng):
    state = random_state(rng, 3)
    op = random_hermitian(rng, 3)
    # independent double-loop trace of (state @ op)
    acc = 0.0 + 0.0j
    for i in range(3):
        for j in range(3):
            acc += state.mat[i, j] * op.mat[j, i]
    val = expectation(state, op)
    assert val == pytest.approx(acc, abs=1e-12)
    assert abs(val.imag) < 1e-12


def test_expectation_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        expectation(State.maximally_mixed(2), identity(3))
    with pytest.raises(DimensionMismatch, match="state dim 2 != operator dim 3"):
        expectations(State.maximally_mixed(2), np.stack([identity(3).mat] * 2))


def test_expectations_equal_the_per_operator_trace_bit_for_bit(rng):
    for dim in (1, 2, 3, 5):
        state = random_state(rng, dim)
        stack = np.stack([random_hermitian(rng, dim).mat for _ in range(6)])
        vals = expectations(state, stack)
        assert vals.shape == (6,)
        for val, op in zip(vals, stack):
            assert val == np.trace(state.mat @ op)
            assert complex(val) == expectation(state, Operator(op))


@given(a=st.complex_numbers(max_magnitude=3), b=st.complex_numbers(max_magnitude=3), seed=st.integers(0, 2**20))
@settings(max_examples=40, deadline=None)
def test_expectation_is_linear(a, b, seed):
    rng = np.random.default_rng(seed)
    state = random_state(rng, 3)
    x = random_hermitian(rng, 3)
    y = random_hermitian(rng, 3)
    lhs = expectation(state, Operator(a * x.mat + b * y.mat))
    rhs = a * expectation(state, x) + b * expectation(state, y)
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_positive_operator_expectation_nonnegative(rng):
    for _ in range(20):
        state = random_state(rng, 4)
        p = random_projector(rng, 4, 2)
        assert expectation(state, p).real >= -1e-10


def test_bloch_projector_north_pole():
    p = bloch_projector(0.0, 2.37)
    assert np.allclose(p.mat, np.diag([1.0, 0.0]))


def test_bloch_projector_equator_form():
    phi = 0.83
    p = bloch_projector(math.pi / 2, phi)
    expected = 0.5 * np.array([[1, np.exp(1j * phi)], [np.exp(-1j * phi), 1]])
    assert np.allclose(p.mat, expected, atol=1e-15)


@given(polar=angles, azimuth=angles)
@settings(max_examples=100, deadline=None)
def test_bloch_projector_is_rank_one_projector(polar, azimuth):
    p = bloch_projector(polar, azimuth)
    assert np.max(np.abs(p.mat @ p.mat - p.mat)) <= 1e-12
    assert np.max(np.abs(p.mat - p.mat.conj().T)) <= 1e-12
    assert np.trace(p.mat).real == pytest.approx(1.0, abs=1e-12)


def test_from_params_identity():
    assert np.allclose(from_params(ParamPositiveOp(1, 0, 0, 0)).mat, np.eye(2))


def test_from_params_reproduces_equatorial_projectors():
    # t = 1/2, (x, y, z) = (cos phi, sin phi, 0)/2 gives the circle family
    phi = 2.1
    p = from_params(
        ParamPositiveOp(t=0.5, x=0.5 * math.cos(phi), y=0.5 * math.sin(phi), z=0.0)
    )
    # equatorial member with the matching phase convention
    expected = 0.5 * np.array(
        [[1, math.cos(phi) + 1j * math.sin(phi)], [math.cos(phi) - 1j * math.sin(phi), 1]]
    )
    assert np.allclose(p.mat, expected, atol=1e-15)
    assert is_projector(p)
    assert _projector_residual(p) <= 1e-12


def test_from_params_rejects_cone_violation():
    with pytest.raises(ValidationError):
        ParamPositiveOp(t=1.0, x=1.0001, y=0.0, z=0.0)


def test_from_params_positive_semidefinite(rng):
    for _ in range(25):
        x, y, z = rng.uniform(-1, 1, 3)
        r = math.sqrt(x * x + y * y + z * z)
        t = r + rng.uniform(0, 1)
        op = from_params(ParamPositiveOp(t, x, y, z))
        assert np.min(np.linalg.eigvalsh(op.mat)) >= -1e-12


def test_tensor_product_identities():
    assert np.allclose(tensor_product(identity(2), identity(2)).mat, np.eye(4))
    a = Operator(np.diag([1.0, 0.0]))
    b = Operator(np.diag([0.0, 1.0]))
    assert np.allclose(tensor_product(a, b).mat, np.diag([0.0, 1.0, 0.0, 0.0]))


def test_tensor_product_expectation_factorizes(rng):
    sa = random_state(rng, 2)
    sb = random_state(rng, 3)
    oa = random_hermitian(rng, 2)
    ob = random_hermitian(rng, 3)
    joint = State(np.kron(sa.mat, sb.mat))
    lhs = expectation(joint, tensor_product(oa, ob))
    rhs = expectation(sa, oa) * expectation(sb, ob)
    assert lhs == pytest.approx(rhs, abs=1e-10)


@given(seed=st.integers(0, 2**20))
@settings(max_examples=30, deadline=None)
def test_tensor_product_trace_multiplies(seed):
    rng = np.random.default_rng(seed)
    a = random_hermitian(rng, 2)
    b = random_hermitian(rng, 3)
    lhs = np.trace(tensor_product(a, b).mat)
    assert lhs == pytest.approx(np.trace(a.mat) * np.trace(b.mat), abs=1e-10)


def test_is_projector():
    for p in (identity(3), bloch_projector(0.7, 1.9)):
        assert is_projector(p)
        assert _projector_residual(p) <= 1e-12
    assert not is_projector(Operator(0.5 * np.eye(2)))
    # P P - P has the one nonzero entry r (1 + r): within TOL, or not
    assert is_projector(Operator(np.diag([1.0 + TOL / 2, 0.0])))
    assert not is_projector(Operator(np.diag([1.0 + 2 * TOL, 0.0])))


def test_haar_dim_one_is_phase():
    u = haar_random_unitary(1, 5)
    assert abs(abs(u.mat[0, 0]) - 1.0) < 1e-12


def test_haar_deterministic_per_seed():
    a = haar_random_unitary(2, 7)
    b = haar_random_unitary(2, 7)
    assert np.array_equal(a.mat, b.mat)
    c = haar_random_unitary(2, 8)
    assert not np.allclose(a.mat, c.mat)


def test_haar_unitarity_and_column_norms(rng):
    for dim in (2, 3, 6):
        u = haar_random_unitary(dim, int(rng.integers(0, 2**31)))
        assert np.max(np.abs(u.mat.conj().T @ u.mat - np.eye(dim))) <= 1e-10
        assert np.allclose(np.linalg.norm(u.mat, axis=0), 1.0, atol=1e-10)


def test_haar_first_moment():
    # |U_00|^2 averages to 1/dim over the unitary group
    us = haar_random_unitary(4, 123, size=100_000)
    mean = float(np.mean(np.abs(us[:, 0, 0]) ** 2))
    assert mean == pytest.approx(0.25, abs=3e-3)


def test_state_validation():
    with pytest.raises(ValidationError):
        State(np.array([[1.0, 0.5], [0.0, 0.0]]))  # not Hermitian
    with pytest.raises(ValidationError):
        State(np.diag([0.7, 0.7]))  # trace 1.4
    with pytest.raises(ValidationError):
        State(np.diag([1.5, -0.5]))  # negative eigenvalue


def test_operator_json_round_trip_is_bit_stable(rng):
    op = random_hermitian(rng, 3)
    blob = json.dumps(op.to_json())
    back = Operator.from_json(json.loads(blob))
    assert np.array_equal(back.mat, op.mat)
    blob2 = json.dumps(back.to_json())
    assert blob == blob2


def test_state_json_round_trip(rng):
    state = random_state(rng, 4)
    back = State.from_json(json.loads(json.dumps(state.to_json())))
    assert np.array_equal(back.mat, state.mat)
