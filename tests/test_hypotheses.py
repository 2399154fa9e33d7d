import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_projector, random_state
from qpercept.errors import DimensionMismatch, InvalidExperience, ValidationError
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
    decoherence_report,
    normalization_check,
    realize,
    spec_from_json,
    spec_to_json,
)
from qpercept.operators import (
    Operator,
    State,
    bloch_projector,
    expectation,
    identity,
    is_projector,
)


def antipodal(p):
    return identity(2) - p


def family_of(*specs, weights=None):
    weights = weights or [1.0] * len(specs)
    return ExperienceFamily(
        tuple((f"p{i}", s, w) for i, (s, w) in enumerate(zip(specs, weights)))
    )


# --- realize -----------------------------------------------------------------


def test_single_link_chain_reduces_to_projector():
    p = bloch_projector(1.1, 0.4)
    assert np.allclose(realize(ProjectionSequence((p,))).mat, p.mat)


def test_two_link_chain_gives_sandwich():
    q = bloch_projector(0.9, 0.1)
    r = bloch_projector(2.0, 1.7)
    # chain is last-applied-first: C = R Q, E = C^dag C = Q R Q
    e = realize(ProjectionSequence((r, q)))
    assert np.allclose(e.mat, q.mat @ r.mat @ q.mat, atol=1e-14)


def test_symmetrized_with_trivial_group_is_identity_map():
    p = bloch_projector(0.5, 0.3)
    spec = SymmetrizedProjector(inner=p, group=(identity(2),))
    assert np.allclose(realize(spec).mat, p.mat)


def test_symmetrized_output_commutes_with_group(rng):
    # cyclic group of order 3 acting on a qubit
    u = Operator(
        np.array(
            [[np.exp(2j * math.pi / 3), 0], [0, np.exp(-2j * math.pi / 3)]]
        )
    )
    group = (identity(2), u, u @ u)
    p = bloch_projector(1.0, 0.7)
    e = realize(SymmetrizedProjector(inner=p, group=group))
    for g in group:
        assert np.max(np.abs(g.mat @ e.mat @ g.mat.conj().T - e.mat)) <= 1e-10


def test_constrained_projector_sandwich():
    pc = Operator(np.diag([1.0, 1.0, 0.0]))
    inner = Operator(np.diag([1.0, 0.0, 1.0]))
    e = realize(ConstrainedProjector(constraint=pc, inner=inner))
    assert np.allclose(e.mat, np.diag([1.0, 0.0, 0.0]))


def test_product_projector_requires_commutation():
    a = Operator(np.diag([1.0, 1.0, 0.0, 0.0]))
    b = Operator(np.diag([1.0, 0.0, 1.0, 0.0]))
    e = realize(ProductProjector((a, b)))
    assert np.allclose(e.mat, np.diag([1.0, 0.0, 0.0, 0.0]))
    q = bloch_projector(1.2, 0.0)
    r = bloch_projector(0.4, 2.2)
    with pytest.raises(ValidationError):
        realize(ProductProjector((q, r)))


def test_history_sum_collapses_to_single_block():
    q = bloch_projector(0.8, 0.0)
    r = bloch_projector(1.9, 2.4)
    i2 = identity(2)
    # (RQ) + (R(I-Q)) sums to R, so E = R
    h = HistorySum((ProjectionSequence((r, q)), ProjectionSequence((r, i2 - q))))
    assert np.allclose(realize(h).mat, r.mat, atol=1e-14)


def test_linearly_positive_needs_state_and_positivity():
    q = bloch_projector(0.2, 0.0)
    r = bloch_projector(2.9, 0.0)
    spec = LinearlyPositive(class_op=r @ q)
    with pytest.raises(ValidationError):
        realize(spec)
    # state along -x makes <Re RQ> = (1 + q.r + a.q + a.r)/4 negative here
    state = State.from_bloch(math.pi / 2, math.pi)
    val = expectation(state, Operator((r @ q).mat + (r @ q).mat.conj().T)).real / 2
    assert val < 0
    with pytest.raises(InvalidExperience):
        realize(spec, state)
    ok_state = State.from_bloch(0.2, 0.0)
    e = realize(spec, ok_state)
    assert np.max(np.abs(e.mat - e.mat.conj().T)) <= 1e-14


@given(seed=st.integers(0, 2**20))
@settings(max_examples=30, deadline=None)
def test_chain_realization_is_positive_semidefinite(seed):
    rng = np.random.default_rng(seed)
    chain = tuple(random_projector(rng, 3, int(rng.integers(1, 3))) for _ in range(3))
    e = realize(ProjectionSequence(chain))
    assert np.min(np.linalg.eigvalsh(e.mat)) >= -1e-10


# --- awareness operator -------------------------------------------------------


def test_awareness_single_entry_scales_by_weight():
    p = bloch_projector(0.3, 0.9)
    fam = family_of(Projector(p), weights=[2.5])
    assert np.allclose(awareness_operator(fam).mat, 2.5 * p.mat)


def test_awareness_antipodal_pair_gives_identity():
    p = bloch_projector(1.234, 0.777)
    fam = family_of(Projector(p), Projector(antipodal(p)))
    assert np.allclose(awareness_operator(fam).mat, np.eye(2), atol=1e-12)


@given(seed=st.integers(0, 2**20))
@settings(max_examples=25, deadline=None)
def test_awareness_additive_over_partition(seed):
    rng = np.random.default_rng(seed)
    specs = [Explicit(random_projector(rng, 3, 1)) for _ in range(5)]
    weights = list(rng.uniform(0.1, 2.0, 5))
    fam = family_of(*specs, weights=weights)
    split = set(rng.choice(fam.labels, size=2, replace=False))
    left = awareness_operator(fam, lambda l: l in split)
    right = awareness_operator(fam, lambda l: l not in split)
    whole = awareness_operator(fam)
    assert np.max(np.abs(left.mat + right.mat - whole.mat)) <= 1e-10


def test_awareness_empty_family_rejected():
    with pytest.raises(ValidationError):
        ExperienceFamily(())


# --- independence checks -------------------------------------------------------


def test_pairwise_independence_of_distinct_projectors():
    fam = family_of(Projector(bloch_projector(0.4, 0.1)), Projector(bloch_projector(1.4, 2.1)))
    ok, pair = check_pairwise_independence(fam)
    assert ok and pair is None


def test_pairwise_independence_rejects_density_times_identity():
    # all operators proportional to the identity: the state carries no burden
    fam = family_of(
        Explicit(Operator(0.3 * np.eye(2))),
        Explicit(Operator(0.8 * np.eye(2))),
    )
    ok, pair = check_pairwise_independence(fam)
    assert not ok and pair == ("p0", "p1")


def test_pairwise_independence_rejects_scalar_multiple():
    p = bloch_projector(0.9, 0.2)
    fam = family_of(Explicit(p), Explicit(Operator(2.0 * p.mat)))
    ok, _ = check_pairwise_independence(fam)
    assert not ok


def test_linear_independence_bounded_by_dim_squared(rng):
    specs = [Explicit(random_projector(rng, 2, 1)) for _ in range(5)]
    assert not check_linear_independence(family_of(*specs))


def test_linear_independence_of_noncoplanar_directions():
    # tetrahedral directions span the full operator space
    dirs = [(0.0, 0.0)] + [(math.acos(-1 / 3), 2 * math.pi * k / 3) for k in range(3)]
    fam = family_of(*[Projector(bloch_projector(t, p)) for t, p in dirs])
    assert check_linear_independence(fam)


def test_linear_independence_fails_for_great_circle_directions(rng):
    phis = rng.uniform(0, 2 * math.pi, 4)
    fam = family_of(*[Projector(bloch_projector(math.pi / 2, p)) for p in phis])
    assert not check_linear_independence(fam)
    # oracle: rank of the stacked vectorized operators
    stack = np.column_stack(
        [bloch_projector(math.pi / 2, p).mat.reshape(-1) for p in phis]
    )
    assert np.linalg.matrix_rank(stack, tol=1e-9) < 4


def test_commuting_and_orthogonal_checks():
    p = bloch_projector(0.6, 1.0)
    fam_anti = family_of(Projector(p), Projector(antipodal(p)))
    assert check_commuting(fam_anti)
    assert check_orthogonal(fam_anti)
    fam_tilted = family_of(Projector(p), Projector(bloch_projector(1.5, 1.0)))
    assert not check_orthogonal(fam_tilted)
    fam_with_identity = family_of(Projector(identity(2)), Projector(p))
    assert check_commuting(fam_with_identity)
    assert not check_orthogonal(fam_with_identity)


def test_orthogonal_family_implies_both_independence_notions():
    # random orthogonal family: column blocks of one Haar frame
    from qpercept.operators import haar_random_unitary

    basis = haar_random_unitary(4, 99).mat
    specs = []
    for cols in ((0,), (1, 2), (3,)):
        block = basis[:, list(cols)]
        specs.append(Explicit(Operator(block @ block.conj().T)))
    fam = family_of(*specs)
    assert check_orthogonal(fam)
    ok, _ = check_pairwise_independence(fam)
    assert ok
    assert check_linear_independence(fam)


# --- decoherence report ---------------------------------------------------------


def two_step_specs(q, r):
    i2 = identity(2)
    return {
        "1": ProjectionSequence((r, q)),
        "2": ProjectionSequence((r, i2 - q)),
        "3": ProjectionSequence((i2 - r, q)),
        "4": ProjectionSequence((i2 - r, i2 - q)),
    }


def test_decoherence_identical_chains_not_applicable():
    q = bloch_projector(1.0, 0.0)
    r = bloch_projector(0.5, 0.5)
    fam = ExperienceFamily(
        (
            ("a", ProjectionSequence((r, q)), 1.0),
            ("b", ProjectionSequence((r, q)), 1.0),
        )
    )
    state = State.from_bloch(0.7, 0.1)
    (record,) = decoherence_report(fam, state)
    assert not record.applicable
    # the residual of an identical pair is the measure of the history itself
    measure = expectation(state, realize(ProjectionSequence((r, q)))).real
    assert record.weak_residual == pytest.approx(measure, abs=1e-12)


def test_decoherence_residuals_match_the_per_pair_trace(rng):
    state = random_state(rng, 3)
    chains = {k: (random_projector(rng, 3, 1), random_projector(rng, 3, 2)) for k in "abc"}
    fam = ExperienceFamily(tuple((k, ProjectionSequence(c), 1.0) for k, c in chains.items()))
    records = decoherence_report(fam, state)
    assert [(r.label_a, r.label_b) for r in records] == [("a", "b"), ("a", "c"), ("b", "c")]
    for r in records:
        ca, cb = (ProjectionSequence(chains[k]).class_operator().mat for k in (r.label_a, r.label_b))
        ref = complex(np.trace(state.mat @ ca.conj().T @ cb))
        assert abs(r.weak_residual - ref.real) <= 1e-14
        assert abs(r.medium_residual - abs(ref)) <= 1e-14


def test_decoherence_state_aligned_with_first_projector():
    # Q equal to the state projector kills the complex residual
    state_dir = (0.8, 1.1)
    q = bloch_projector(*state_dir)
    r = bloch_projector(2.1, 0.3)
    fam = ExperienceFamily(
        tuple((k, s, 1.0) for k, s in two_step_specs(q, r).items())
    )
    state = State.from_bloch(*state_dir)
    records = decoherence_report(fam, state)
    pair = next(r_ for r_ in records if {r_.label_a, r_.label_b} == {"1", "3"})
    assert pair.medium_residual <= 1e-12


def test_decoherence_homogeneous_sum_detection():
    q = bloch_projector(1.3, 0.2)
    r = bloch_projector(0.4, 2.0)
    fam = ExperienceFamily(
        (
            ("1", ProjectionSequence((r, q)), 1.0),
            ("2", ProjectionSequence((r, identity(2) - q)), 1.0),
        )
    )
    state = State.from_bloch(0.9, 0.4)
    (record,) = decoherence_report(fam, state)
    # C(1) + C(2) = R is homogeneous, so the consistency flag applies
    assert record.homogeneous_sum
    assert record.consistent == (abs(record.weak_residual) <= 1e-9)


def test_decoherence_right_angle_configuration_is_weakly_decoherent():
    # state at the pole and both projectors on the equator: the two great
    # circles through Q meet at right angles, so the cross term of the
    # adjacent histories is real-free
    q = bloch_projector(math.pi / 2, 0.7)
    r = bloch_projector(math.pi / 2, 2.9)
    fam = ExperienceFamily(
        tuple((k, s, 1.0) for k, s in two_step_specs(q, r).items())
    )
    state = State.from_bloch(0.0, 0.0)
    records = decoherence_report(fam, state)
    pair = next(r_ for r_ in records if {r_.label_a, r_.label_b} == {"1", "2"})
    assert abs(pair.weak_residual) <= 1e-10


def test_strong_decoherence_for_orthogonal_rank_one_chains():
    p = bloch_projector(0.0, 0.0)
    fam = ExperienceFamily(
        (
            ("up", ProjectionSequence((p,)), 1.0),
            ("down", ProjectionSequence((identity(2) - p,)), 1.0),
        )
    )
    state = State(np.diag([0.6, 0.4]))
    (record,) = decoherence_report(fam, state)
    # single projector chains against a diagonal state admit the projectors
    # themselves, which are orthogonal
    assert record.strongly_decoherent
    assert record.medium_residual <= 1e-12


# --- normalization -------------------------------------------------------------


def test_normalization_rank_one_projector_satisfies_all():
    spec = Projector(bloch_projector(0.4, 0.6))
    for mode in ("constant_max", "unit", "projection"):
        assert normalization_check(spec, mode)


def test_normalization_rank_two_projector():
    spec = Projector(Operator(np.diag([1.0, 1.0, 0.0])))
    assert not normalization_check(spec, "unit")
    assert normalization_check(spec, "projection")
    assert normalization_check(spec, "constant_max")


def test_normalization_half_projector_fails_constant_max():
    spec = Explicit(Operator(0.5 * bloch_projector(1.0, 1.0).mat))
    assert not normalization_check(spec, "constant_max")


# --- serialization --------------------------------------------------------------


def test_spec_json_round_trip():
    q = bloch_projector(0.3, 1.0)
    r = bloch_projector(1.2, 2.0)
    specs = [
        Explicit(q),
        Projector(q),
        ConstrainedProjector(identity(2), q),
        SymmetrizedProjector(q, (identity(2),)),
        ProductProjector((identity(2), q)),
        ProjectionSequence((r, q)),
        HistorySum((ProjectionSequence((r, q)), ProjectionSequence((r, identity(2) - q)))),
        LinearlyPositive(r @ q),
    ]
    for spec in specs:
        data = spec_to_json(spec)
        back = spec_from_json(json.loads(json.dumps(data)))
        assert type(back) is type(spec)
        assert spec_to_json(back) == data
        if hasattr(spec, "op"):
            assert np.array_equal(back.op.mat, spec.op.mat)
    for call in (lambda: realize(q), lambda: spec_to_json(q), lambda: spec_from_json({"variant": "nope"})):
        with pytest.raises(ValidationError):
            call()


_Q2 = bloch_projector(0.4, 1.1)
_P3 = Operator(np.diag([1.0, 0.0, 0.0]))


@pytest.mark.parametrize(
    "build",
    [
        lambda: ProjectionSequence((_Q2, _P3)),
        lambda: ConstrainedProjector(_P3, _Q2),
        lambda: SymmetrizedProjector(_Q2, (identity(2), identity(3))),
        lambda: ProductProjector((_Q2, _P3)),
        lambda: HistorySum(((_Q2,), (_P3,))),
    ],
    ids=["sequence", "constrained", "symmetrized", "product", "history_sum"],
)
def test_mixed_dimensions_raise_dimension_mismatch(build):
    with pytest.raises(DimensionMismatch):
        build()


def test_two_step_family_sums_to_identity(rng):
    for _ in range(10):
        q = random_projector(rng, 2, 1)
        r = random_projector(rng, 2, 1)
        total = sum(realize(s).mat for s in two_step_specs(q, r).values())
        assert np.max(np.abs(total - np.eye(2))) <= 1e-10
