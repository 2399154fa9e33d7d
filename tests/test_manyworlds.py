import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_state
from qpercept.errors import DimensionMismatch, ValidationError
from qpercept.manyworlds import (
    ProjectorDecomposition,
    ReplicatedDecoherenceFunctional,
    SpectralExperience,
    density_at,
    family_metric,
    gram_metric,
    manifold_dimension,
    reconstruct_measures,
    sample_decomposition,
    spectral_operator,
)
from qpercept.operators import Operator, State, bloch_projector, expectation, haar_random_unitary
from qpercept.toymodels import ball_experience, ball_prior_weight


def test_manifold_dimension_values():
    assert manifold_dimension(2, (1, 1)) == 2  # the two-sphere of a qubit
    assert manifold_dimension(3, (1, 2)) == 4
    assert manifold_dimension(4, (1, 1, 1, 1)) == 12
    with pytest.raises(ValidationError):
        manifold_dimension(3, (2, 2))
    with pytest.raises(ValidationError):
        manifold_dimension(3, ())


def test_sample_decomposition_invariants_over_seeds():
    for seed in range(50):
        dim = 2 + seed % 7
        ranks = [1] * dim if seed % 2 else [dim - 1, 1]
        dec = sample_decomposition(dim, ranks, seed)
        total = sum(p.mat for p in dec.projectors)
        assert np.max(np.abs(total - np.eye(dim))) <= 1e-10
        for a, b in itertools.combinations(dec.projectors, 2):
            assert np.max(np.abs(a.mat @ b.mat)) <= 1e-10
        for p, r in zip(dec.projectors, dec.ranks):
            assert np.trace(p.mat).real == pytest.approx(r, abs=1e-8)


def test_sample_decomposition_deterministic():
    a = sample_decomposition(4, (2, 1, 1), 3)
    b = sample_decomposition(4, (2, 1, 1), 3)
    for pa, pb in zip(a.projectors, b.projectors):
        assert np.array_equal(pa.mat, pb.mat)


def test_density_at_maximally_mixed():
    dec = sample_decomposition(4, (2, 1, 1), 17)
    dens = density_at(dec, State.maximally_mixed(4))
    assert np.allclose(dens, [0.5, 0.25, 0.25], atol=1e-12)


def test_density_at_pure_state_in_first_block():
    dec = sample_decomposition(3, (1, 2), 8)
    evals, evecs = np.linalg.eigh(dec.projectors[0].mat)
    vec = evecs[:, np.argmax(evals)]
    dens = density_at(dec, State.pure(vec))
    assert np.allclose(dens, [1.0, 0.0], atol=1e-10)


def test_density_at_sums_to_one(rng):
    for seed in range(20):
        dec = sample_decomposition(5, (2, 2, 1), seed)
        state = random_state(rng, 5)
        dens = density_at(dec, state)
        assert dens.sum() == pytest.approx(1.0, abs=1e-9)
        assert dens.min() >= -1e-10


def test_density_dimension_mismatch():
    dec = sample_decomposition(3, (1, 2), 8)
    with pytest.raises(DimensionMismatch):
        density_at(dec, State.maximally_mixed(2))


def test_density_invariant_under_joint_conjugation(rng):
    dec = sample_decomposition(4, (2, 1, 1), 5)
    state = random_state(rng, 4)
    u = haar_random_unitary(4, 77).mat
    rotated = ProjectorDecomposition(
        dim=4,
        ranks=dec.ranks,
        projectors=tuple(Operator(u @ p.mat @ u.conj().T) for p in dec.projectors),
    )
    rotated_state = State(u @ state.mat @ u.conj().T)
    assert np.allclose(
        density_at(dec, state), density_at(rotated, rotated_state), atol=1e-10
    )


# --- family metric ---------------------------------------------------------------


def test_family_metric_constant_family_vanishes():
    fixed = bloch_projector(1.0, 0.5).mat

    def family(x):
        return [fixed]

    g = family_metric(family, np.array([[0.2], [0.9]]), [1e-4])
    assert np.allclose(g, 0.0, atol=1e-12)


def test_family_metric_circle_is_constant():
    def family(x):
        return [bloch_projector(math.pi / 2, float(x[0])).mat]

    pts = np.array([[0.0], [1.0], [2.5]])
    g = family_metric(family, pts, [1e-4], check_step=True)
    assert np.allclose(np.sqrt(g[:, 0, 0]), 1 / math.sqrt(2), atol=1e-8)


def test_family_metric_sphere_volume_element():
    def family(x):
        return [bloch_projector(float(x[0]), float(x[1])).mat]

    varthetas = np.linspace(0.3, math.pi - 0.3, 7)
    pts = np.array([[vt, 1.1] for vt in varthetas])
    g = family_metric(family, pts, [1e-4, 1e-4])
    dets = np.sqrt(np.linalg.det(g))
    assert np.max(np.abs(dets / (0.5 * np.sin(varthetas)) - 1.0)) < 1e-4
    # symmetry and positivity
    assert np.allclose(g, np.swapaxes(g, 1, 2), atol=1e-12)
    assert np.min(np.linalg.eigvalsh(g)) >= -1e-8


def test_family_metric_rejects_nonconverged_step():
    def family(x):
        # highly oscillatory dependence defeats a coarse step
        return [np.array([[math.sin(1e6 * float(x[0])), 0], [0, 1]], dtype=complex)]

    with pytest.raises(ValidationError):
        family_metric(family, np.array([[0.1]]), [1e-2], check_step=True)


def test_gram_metric_matches_trace_loop(rng):
    derivs = rng.standard_normal((4, 3, 2, 3, 3)) + 1j * rng.standard_normal((4, 3, 2, 3, 3))
    g = gram_metric(derivs)
    assert g.shape == (4, 3, 3)
    for n, i, j in itertools.product(range(4), range(3), range(3)):
        # reference: sum over operators of Re Tr(dA^dag dB)
        ref = sum(np.trace(da.conj().T @ db).real for da, db in zip(derivs[n, i], derivs[n, j]))
        assert g[n, i, j] == pytest.approx(ref, rel=1e-13, abs=1e-13)
    derivs[2, 1, 0, 0, 0] = np.nan
    with pytest.raises(ValidationError):
        gram_metric(derivs)


def test_family_metric_ball_volume_element_is_prior_weight():
    pts = np.array([[0.0, 0.0, 0.0], [0.2, -0.1, 0.3], [-0.4, 0.3, 0.1], [0.1, 0.5, -0.5]])
    g = family_metric(lambda x: [ball_experience(*x).mat], pts, [1e-4, 1e-4, 1e-4])
    exact = np.array([ball_prior_weight(*x) for x in pts])
    assert np.max(np.abs(np.sqrt(np.linalg.det(g)) / exact - 1.0)) < 1e-6


# --- replicated decoherence functional ----------------------------------------------


def test_one_step_diagonal_reproduces_projector_weights(rng):
    dec = sample_decomposition(3, (1, 1, 1), 2)
    state = random_state(rng, 3)
    f = ReplicatedDecoherenceFunctional(state, [dec])
    diag = f.diagonal()
    for i in range(3):
        assert diag[(i,)] == pytest.approx(
            expectation(state, dec.projectors[i]).real, abs=1e-12
        )


def test_replicated_functional_properties(rng):
    state = random_state(rng, 3)
    decs = [sample_decomposition(3, (1, 2), 4), sample_decomposition(3, (1, 1, 1), 9)]
    f = ReplicatedDecoherenceFunctional(state, decs)
    histories = list(f.all_histories())
    # hermiticity, positive diagonal, unit total, vanishing off-diagonals
    total = 0.0
    for h in histories:
        dhh = f.atomic(h, h)
        assert abs(dhh.imag) <= 1e-12
        assert dhh.real >= -1e-10
        total += dhh.real
        for hp in histories:
            assert f.atomic(h, hp) == pytest.approx(np.conj(f.atomic(hp, h)), abs=1e-12)
            if h != hp:
                assert abs(f.atomic(h, hp)) <= 1e-10
    assert total == pytest.approx(1.0, abs=1e-9)


def test_replicated_functional_bilinear_extension(rng):
    state = random_state(rng, 2)
    decs = [sample_decomposition(2, (1, 1), s) for s in (1, 2)]
    f = ReplicatedDecoherenceFunctional(state, decs)
    a = [(0, 0), (0, 1)]
    b = [(1, 0)]
    direct = sum(f.atomic(h, hp) for h in a for hp in b)
    assert f.evaluate(a, b) == pytest.approx(direct, abs=1e-14)


def test_replicated_functional_index_validation(rng):
    state = random_state(rng, 2)
    f = ReplicatedDecoherenceFunctional(state, [sample_decomposition(2, (1, 1), 0)])
    with pytest.raises(ValidationError):
        f.atomic((2,), (0,))
    with pytest.raises(ValidationError):
        f.atomic((0, 0), (0,))


# --- measure reconstruction -----------------------------------------------------------


def test_reconstruct_single_perception_single_step(rng):
    dec = sample_decomposition(2, (1, 1), 6)
    state = random_state(rng, 2)
    spectral = SpectralExperience(terms=(((1.0, 0, 0),),))
    out = reconstruct_measures(state, spectral, [dec])
    assert out[0] == pytest.approx(expectation(state, dec.projectors[0]).real, abs=1e-12)


def test_reconstruct_zero_coefficients(rng):
    dec = sample_decomposition(2, (1, 1), 6)
    spectral = SpectralExperience(terms=(((0.0, 0, 0), (0.0, 0, 1)),))
    out = reconstruct_measures(random_state(rng, 2), spectral, [dec])
    assert out[0] == 0.0


@given(seed=st.integers(0, 2**18))
@settings(max_examples=40, deadline=None)
def test_reconstruct_matches_direct_expectation(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 4))
    steps = int(rng.integers(1, 4))
    decs = []
    for k in range(steps):
        ranks = [1] * dim if rng.uniform() < 0.5 or dim == 2 else [dim - 1, 1]
        decs.append(sample_decomposition(dim, ranks, int(rng.integers(0, 2**30))))
    state = random_state(rng, dim)
    perceptions = []
    for _ in range(int(rng.integers(1, 4))):
        terms = []
        for _ in range(int(rng.integers(1, 4))):
            d_idx = int(rng.integers(0, steps))
            p_idx = int(rng.integers(0, len(decs[d_idx])))
            terms.append((float(rng.uniform(0, 2)), d_idx, p_idx))
        perceptions.append(tuple(terms))
    spectral = SpectralExperience(terms=tuple(perceptions))
    recon = reconstruct_measures(state, spectral, decs)
    for p in range(len(spectral)):
        direct = expectation(state, spectral_operator(spectral, decs, p)).real
        assert recon[p] == pytest.approx(direct, abs=1e-10)


def _random_ranks(rng, dim):
    cuts = rng.choice(np.arange(1, dim), size=int(rng.integers(0, dim)), replace=False)
    return tuple(int(r) for r in np.diff([0, *sorted(cuts), dim]))


@given(dim=st.integers(2, 4), steps=st.integers(1, 5), seed=st.integers(0, 2**18))
@settings(max_examples=40, deadline=None)
def test_reconstruct_matches_history_enumeration(dim, steps, seed):
    rng = np.random.default_rng(seed)
    decs = [
        sample_decomposition(dim, _random_ranks(rng, dim), int(rng.integers(0, 2**30)))
        for _ in range(steps)
    ]
    state = random_state(rng, dim)
    spectral = SpectralExperience(
        terms=tuple(
            tuple(
                (float(rng.uniform(0, 2)), d_idx, int(rng.integers(0, len(decs[d_idx]))))
                for d_idx in rng.integers(0, steps, size=int(rng.integers(0, 5)))
            )
            for _ in range(int(rng.integers(1, 5)))
        )
    )
    # oracle: walk every atomic history of the replicated functional's diagonal
    diag = ReplicatedDecoherenceFunctional(state, decs).diagonal()
    expected = [
        sum(
            weight * sum(lam for lam, d_idx, p_idx in per_perception if h[d_idx] == p_idx)
            for h, weight in diag.items()
        )
        for per_perception in spectral.terms
    ]
    recon = reconstruct_measures(state, spectral, decs)
    assert recon.shape == (len(spectral),)
    assert np.max(np.abs(recon - expected)) <= 1e-12


def test_reconstruct_sixty_steps_without_enumeration(rng):
    # 3^60 atomic histories: only the per-step marginals are computed
    decs = [sample_decomposition(3, (1, 1, 1), seed) for seed in range(60)]
    state = random_state(rng, 3)
    spectral = SpectralExperience(
        terms=tuple(
            tuple(
                (float(rng.uniform(0, 2)), int(d), int(rng.integers(0, 3)))
                for d in rng.integers(0, 60, size=4)
            )
            for _ in range(10)
        )
    )
    start = time.perf_counter()
    recon = reconstruct_measures(state, spectral, decs)
    assert time.perf_counter() - start < 1.0
    for p in range(len(spectral)):
        direct = expectation(state, spectral_operator(spectral, decs, p)).real
        assert abs(recon[p] - direct) <= 1e-12


def test_reconstruct_rejects_bad_steps(rng):
    state = random_state(rng, 2)
    spectral = SpectralExperience(terms=(((1.0, 5, 5),),))
    # step checks come before term checks
    with pytest.raises(ValidationError, match="need at least one step"):
        reconstruct_measures(state, spectral, [])
    with pytest.raises(DimensionMismatch):
        reconstruct_measures(
            state, spectral, [sample_decomposition(2, (1, 1), 0), sample_decomposition(3, (1, 2), 1)]
        )


@pytest.mark.parametrize(
    "term, message",
    [
        ((1.0, 2, 0), "decomposition index 2 out of range"),
        ((1.0, -1, 0), "decomposition index -1 out of range"),
        ((1.0, 1, 3), "projector index 3 out of range"),
        ((1.0, 0, -1), "projector index -1 out of range"),
    ],
)
def test_reconstruct_rejects_out_of_range_terms(rng, term, message):
    state = random_state(rng, 3)
    decs = [sample_decomposition(3, (1, 2), 0), sample_decomposition(3, (1, 1, 1), 1)]
    spectral = SpectralExperience(terms=(((0.5, 0, 1),), ((0.5, 1, 2), term)))
    with pytest.raises(ValidationError, match=message):
        reconstruct_measures(state, spectral, decs)
    with pytest.raises(ValidationError, match=message):
        spectral_operator(spectral, decs, 1)


@pytest.mark.parametrize("perception", [-1, 2, 5])
def test_spectral_operator_rejects_perception_out_of_range(perception):
    decs = [sample_decomposition(3, (1, 2), 0)]
    spectral = SpectralExperience(terms=(((0.5, 0, 0),), ((0.5, 0, 1),)))
    message = rf"the perception index must be an integer in \[0, 1\], got {perception}"
    with pytest.raises(ValidationError, match=message):
        spectral_operator(spectral, decs, perception)


def test_spectral_operator_rejects_no_steps():
    spectral = SpectralExperience(terms=(((0.5, 0, 0),),))
    with pytest.raises(ValidationError, match="need at least one step"):
        spectral_operator(spectral, [], 0)


def test_spectral_operator_rejects_steps_of_different_dimensions():
    spectral = SpectralExperience(terms=(((0.5, 0, 0), (0.5, 1, 0)),))
    decs = [sample_decomposition(3, (1, 2), 0), sample_decomposition(2, (1, 1), 1)]
    with pytest.raises(DimensionMismatch, match="every step must have dimension 3"):
        spectral_operator(spectral, decs, 0)


def test_projectors_of_another_dimension_are_a_dimension_mismatch():
    # checked before the completeness test, whose sum would not broadcast
    projectors = (Operator(np.eye(3)), Operator(np.zeros((3, 3))))
    with pytest.raises(DimensionMismatch, match="every projector must have dimension 2"):
        ProjectorDecomposition(2, (1, 1), projectors)
    data = {"dim": 2, "ranks": [1, 1], "projectors": [p.to_json() for p in projectors]}
    with pytest.raises(DimensionMismatch, match="every projector must have dimension 2"):
        ProjectorDecomposition.from_json(data)


def test_functional_pairs_match_the_triple_product_trace(rng):
    # the kernel takes Tr(rho (P_j P_i)); the loop's (rho P_j) P_i rounds differently
    for dim in (2, 3, 4):
        state = random_state(rng, dim)
        dec = sample_decomposition(dim, (1,) * dim, int(rng.integers(0, 2**30)))
        f = ReplicatedDecoherenceFunctional(state, [dec])
        for j, i in itertools.product(range(dim), repeat=2):
            ref = np.trace(state.mat @ dec.projectors[j].mat @ dec.projectors[i].mat)
            assert abs(f.atomic((i,), (j,)) - ref) <= 1e-14


def test_spectral_experience_validation():
    with pytest.raises(ValidationError):
        SpectralExperience(terms=(((-0.5, 0, 0),),))


def test_decomposition_json_round_trip():
    dec = sample_decomposition(4, (2, 1, 1), 21)
    back = ProjectorDecomposition.from_json(dec.to_json())
    for a, b in zip(dec.projectors, back.projectors):
        assert np.array_equal(a.mat, b.mat)
    assert back.ranks == dec.ranks
