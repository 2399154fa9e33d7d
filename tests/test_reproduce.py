"""The reference battery's plumbing: the sphere threshold, check coercion, and
the groups that `run_all(only=...)` runs."""
import json
import math

import numpy as np
import pytest

from qpercept import cli, reproduce

PSIS = (math.pi / 6, math.pi / 2, 5 * math.pi / 6)


def _arccos_route(u: np.ndarray, psi: float) -> np.ndarray:
    """Oracle: the perception angle 2 arccos(u^(1/4)) is at least psi."""
    return 2.0 * np.arccos(u**0.25) >= psi


@pytest.mark.parametrize("psi", PSIS)
def test_sphere_threshold_is_the_arccos_route_but_within_ulps_of_each_cut(psi):
    # on 2^13 consecutive doubles centred on the cut the two routes part only
    # where arccos rounds, within 8 ulps of it (a uniform double lands there
    # with probability near 1e-15); farther out they differ by far more than rounding
    cut = math.cos(psi / 2) ** 4
    below = [cut]
    for _ in range(2**12):
        below.append(math.nextafter(below[-1], 0.0))
    above = [cut]
    for _ in range(2**12 - 1):
        above.append(math.nextafter(above[-1], 1.0))
    u = np.array(below[::-1] + above[1:])
    ulps_from_cut = np.nonzero(_arccos_route(u, psi) != (u <= cut))[0] - 2**12
    assert np.all(np.abs(ulps_from_cut) <= 8)


@pytest.mark.parametrize("seed", [*range(10), 42, 97, 216, 249])
def test_sphere_counts_equal_the_arccos_counts(seed):
    # 97, 216 and 249 are the seeds in 0-299 where one 3-sigma check misses
    failing = {97: ["sphere-mc-psi-30"], 216: ["sphere-mc-psi-150"], 249: ["sphere-mc-psi-90"]}
    samples = 10**6
    checks = reproduce.sphere_checks(seed, samples)
    u = np.random.default_rng(seed).uniform(0.0, 1.0, samples)
    for psi, check in zip(PSIS, checks):
        assert check.observed == np.count_nonzero(_arccos_route(u, psi)) / samples
    assert [c.name for c in checks if not c.passed] == failing.get(seed, [])


def test_checks_coerce_numpy_scalars_to_plain_json_values():
    check = reproduce.Check("x", np.float64(1.0), np.intp(1), np.float64(0.5))
    assert all(type(v) is float for v in (check.expected, check.observed, check.tolerance))
    assert check.passed is True
    out = check.to_json()
    assert out["pass"] is True
    assert json.loads(json.dumps(out)) == {
        "name": "x", "expected": 1.0, "observed": 1.0, "tolerance": 0.5, "pass": True,
    }
    assert reproduce.Check("y", np.float32(0.0), np.float64(2.0), np.float64(1.0)).passed is False
    out = reproduce.Check("z", 1.0, 1.0, 0.0, abserr=np.float64(1e-14)).to_json()
    assert type(out["abserr"]) is float and list(out)[-1] == "abserr"


@pytest.fixture(scope="module")
def full_battery():
    return reproduce.run_all()


def test_the_quadrature_checks_carry_an_honest_error_bound(full_battery):
    bounded = {c.name: c for c in full_battery if c.abserr is not None}
    assert sorted(bounded) == ["averaged-posterior-norm", "posterior-mean-quadrature"]
    for check in bounded.values():
        assert abs(check.observed - check.expected) <= check.abserr < 1e-12


def test_a_filtered_battery_runs_only_the_matching_groups(full_battery):
    names = [c.name for c in full_battery]
    for only in [*names, "", "psi", "epr", "dual", "nomatch"]:
        expected = [c for c in full_battery if only in c.name] if only else full_battery
        assert reproduce.run_all(only=only) == expected, only


def test_reproduce_only_digit_skips_the_heavy_groups(monkeypatch, tmp_path):
    def unused(*args, **kwargs):
        raise AssertionError("this group holds no digit check")

    for group in ("circle_checks", "linpos_check", "epr_checks", "sphere_checks"):
        monkeypatch.setattr(reproduce, group, unused)
    out = tmp_path / "report.json"
    assert cli.main(["reproduce", "--only", "digit", "--output", str(out)]) == 0
    names = [c["name"] for c in json.loads(out.read_text())["results"]["checks"]]
    assert names == ["digit-n1", "digit-n0", "digit-n2"]
