"""The Bloch-sphere closed forms: one linear-positivity predicate for Python
floats and numpy arrays, whose verdicts are those of the max/min form."""
import numpy as np
import pytest

from conftest import minmax_linpos
from qpercept import bloch, errors, operators, toymodels
from qpercept.bloch import LINPOS_SLACK, _linpos_mask
from qpercept.toymodels import linear_positivity_fraction

S = LINPOS_SLACK
# (a.q, a.r, q.r) on each cut of the predicate, the other three conditions holding:
# 0 <= mid + S, (a.q + a.r)/2 <= mid + S, mid <= <Q> + S and mid <= <R> + S
CUTS = {
    "zero": (-0.3, -0.2, -1.0 + 0.3 + 0.2 - 4 * S),
    "sum": (0.4, 0.3, 0.4 + 0.3 - 1.0 - 4 * S),
    "q": (0.2, 0.5, 1.0 + 0.2 - 0.5 + 4 * S),
    "r": (0.5, 0.2, 1.0 + 0.2 - 0.5 + 4 * S),
}


def neighbours(x: float, n: int) -> np.ndarray:
    """x and its n nearest floats on either side, by np.nextafter."""
    below, above, out = x, x, [x]
    for _ in range(n):
        below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
        out += [below, above]
    return np.sort(np.array(out))


@pytest.mark.parametrize("cut", sorted(CUTS))
def test_the_predicate_is_the_max_min_form_across_each_cut(cut):
    aq, ar, qr = np.meshgrid(*(neighbours(x, 12) for x in CUTS[cut]), indexing="ij")
    aq, ar, qr = aq.ravel(), ar.ravel(), qr.ravel()
    oracle = minmax_linpos(aq, ar, qr)
    # the neighbourhood straddles the cut: both verdicts occur
    assert oracle.any() and not oracle.all()
    assert np.array_equal(_linpos_mask(aq, ar, qr), oracle)
    for x, y, z, expected in zip(aq.tolist(), ar.tolist(), qr.tolist(), oracle.tolist()):
        verdict = _linpos_mask(x, y, z)
        assert type(verdict) is bool and verdict == expected


def test_the_predicate_rejects_nan_as_the_max_min_form_does():
    for args in [(np.nan, 0.1, 0.2), (0.1, np.nan, 0.2), (0.1, 0.2, np.nan)]:
        assert _linpos_mask(*args) is False and not minmax_linpos(*args)


def test_each_moved_name_has_one_definition():
    for name in ("Direction", "circle_model", "sphere_model", "two_step_analysis", "triangle_equivalence",
                 "check_bloch_angles", "bloch_vector", "LINPOS_SLACK", "_linpos_mask", "TwoStepReport"):
        assert getattr(toymodels, name) is getattr(bloch, name)
    assert operators.bloch_vector is bloch.bloch_vector and operators.check_bloch_angles is bloch.check_bloch_angles
    assert operators.TOL is errors.TOL is bloch.TOL


@pytest.fixture
def minmax_monte_carlo(monkeypatch):
    """linear_positivity_fraction with the max/min form in place of the predicate."""

    def run(samples, seed):
        with monkeypatch.context() as patch:
            patch.setattr(toymodels, "_linpos_mask", minmax_linpos)
            return linear_positivity_fraction(samples, seed)

    return run


def test_monte_carlo_hits_are_those_of_the_max_min_form(minmax_monte_carlo):
    samples = toymodels.BLOCK + 5000  # a full block and a partial one
    for seed in range(20):
        assert linear_positivity_fraction(samples, seed).hits == minmax_monte_carlo(samples, seed).hits


def test_monte_carlo_hits_at_seed_42_are_those_of_the_max_min_form(minmax_monte_carlo):
    assert linear_positivity_fraction(10**6, 42).hits == minmax_monte_carlo(10**6, 42).hits == 333854
