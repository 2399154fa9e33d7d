"""Reference-constant battery: every published closed-form value the package
reproduces, each with its expected value, tolerance, and observed result.

Three reference constants are inconsistent with their own defining equations
(see the notes attached to those checks); the battery reports the honest
computed values and flags the mismatches as failures rather than adjusting
either side.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import inference, toymodels
from .errors import DEFAULT_SEED, check_int
from .measures import PerceptionSpace, profile_from_density, typicality_of_density

SAMPLES = 1_000_000  # per Monte Carlo check


@dataclass(frozen=True)
class Check:
    name: str
    expected: float
    observed: float
    tolerance: float
    note: Optional[str] = None
    abserr: Optional[float] = None  # a quadrature's own error bound

    def __post_init__(self):
        # numpy scalars in, plain floats and a plain bool out, so reports serialize
        for name in ("expected", "observed", "tolerance"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if self.abserr is not None:
            object.__setattr__(self, "abserr", float(self.abserr))

    @property
    def passed(self) -> bool:
        return abs(self.observed - self.expected) <= self.tolerance

    def to_json(self) -> dict:
        out = {
            "name": self.name,
            "expected": self.expected,
            "observed": self.observed,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }
        if self.note:
            out["note"] = self.note
        if self.abserr is not None:
            out["abserr"] = self.abserr
        return out


def circle_checks() -> list[Check]:
    theta, phi = math.pi / 2, 5 * math.pi / 6
    closed = toymodels.circle_model(theta, phi)
    expected = (math.pi - 3) / (6 * math.pi)
    grid_t = circle_grid_typicality(theta, phi, points=1_000_001)
    return [
        Check("circle-typicality-closed", expected, closed.typicality, 1e-9),
        Check("circle-typicality-grid", closed.typicality, grid_t, 1e-5),
    ]


def circle_grid_typicality(theta: float, phi: float, points: int = 1_000_001) -> float:
    """Grid-counted typicality of the circle model at (theta, phi)."""
    phis = np.linspace(-math.pi, math.pi, check_int("points", points, 2))
    space = PerceptionSpace.grid({"phi": phis})
    profile = profile_from_density(space, toymodels.circle_density_array(theta, phis))
    return typicality_of_density(profile, toymodels.circle_model(theta, phi).density)


def linpos_check(seed: int = DEFAULT_SEED) -> Check:
    mc = toymodels.linear_positivity_fraction(SAMPLES, seed)
    return Check(
        "linpos-fraction",
        (math.sqrt(128) - 9) / 15,
        mc.fraction,
        2e-3,
        note=(
            "reference constant (sqrt(128)-9)/15 does not match its defining "
            "interval condition: exact reduction of the acceptance integral "
            "gives 1/3, confirmed by matrix-level and geometric Monte Carlo"
        ),
    )


def sqmn_checks() -> list[Check]:
    norm, x1 = inference.dual_normalization()
    checks = [
        Check("dual-normalization-inverse", 0.857348, 1.0 / norm, 1e-5),
        Check("dual-x1", 0.476936, x1, 1e-6),
        Check("posterior-mean", 1.5, inference.posterior_moment(1.0, 1), 1e-12),
    ]
    # the quadratures carry the rule's own error bound, tails included
    mean_quad, mean_err = inference.de_quad(lambda n: n * inference.posterior_density(1.0, n), 0.0)
    checks.append(Check("posterior-mean-quadrature", 1.5, mean_quad, 1e-7, abserr=mean_err))
    m2 = inference.posterior_moment(1.0, 2)
    checks.append(
        Check("posterior-std", math.sqrt(11) / 2, math.sqrt(m2 - 1.5**2), 1e-12)
    )
    dual_mean = inference.dual_posterior_moment(1.0, 1)
    dual_m2 = inference.dual_posterior_moment(1.0, 2)
    checks.append(Check("dual-mean", 1.727468, dual_mean, 1e-4))
    checks.append(
        Check("dual-std", 1.686141, math.sqrt(dual_m2 - dual_mean**2), 1e-4)
    )

    total, total_err = inference.de_quad(inference.averaged_posterior, 0.0)
    checks.append(Check("averaged-posterior-norm", 1.0, total, 1e-7, abserr=total_err))
    ratio = inference.averaged_posterior(1e4) / ((4.0 / 3.0) * 1e4**-1.5)
    checks.append(
        Check(
            "averaged-posterior-tail",
            1.0,
            ratio,
            1e-2,
            note=(
                "the (4/3) n^(-3/2) tail coefficient belongs to the unnormalized "
                "form of the averaged posterior, which integrates to pi; the "
                "normalized density used here has tail (4/(3 pi)) n^(-3/2)"
            ),
        )
    )

    low, high = inference.gaussian_99_band()
    checks.append(Check("band-low", 0.0062666117, low, 1e-8))
    checks.append(
        Check(
            "band-high",
            2.8070337863,
            high,
            1e-8,
            note=(
                "reference digits appear transposed: the root of "
                "erfc(x/sqrt(2)) = 0.005 is 2.8070337683..., and plugging the "
                "reference value back misses 0.005 by 2.8e-10"
            ),
        )
    )

    checks.append(
        Check("digit-n1", 1.0 / 3.0, inference.canonical_digit_experiment(8, 1.0), 1e-3)
    )
    checks.append(
        Check("digit-n0", 0.0, inference.canonical_digit_experiment(8, 0.0), 1.1e-4)
    )
    checks.append(
        Check("digit-n2", 0.0, inference.canonical_digit_experiment(8, 2.0), 1.1e-4)
    )
    checks.append(Check("confidence-bound-k8", 0.5, inference.confidence_bound(8), 0.05))
    return checks


def epr_checks() -> list[Check]:
    thetas = np.linspace(0.0, math.pi, 50)
    max_signal = 0.0
    max_ratio_dev = 0.0
    for theta in thetas:
        rep = toymodels.epr_cat_model(float(theta))
        max_signal = max(max_signal, abs(rep.mu_up_a - rep.mu_down_a))
        if 0 < theta < math.pi:
            expected = math.tan(theta / 2) ** 2
            dev = abs(rep.mu_up_up / rep.mu_up_down - expected)
            max_ratio_dev = max(max_ratio_dev, dev / max(1.0, expected))
    zero = toymodels.epr_cat_model(0.0)
    unconf_dev = max(
        abs(zero.unconfused_fraction_alternative(n) - 2.0 ** (1 - n)) for n in range(1, 7)
    )
    return [
        Check("epr-no-signalling", 0.0, max_signal, 1e-12),
        Check("epr-tan-ratio", 0.0, max_ratio_dev, 1e-9),
        Check("epr-anticorrelation", 0.0, zero.mu_up_up + zero.mu_down_down, 1e-12),
        Check("epr-unconfused-exact", 0.0, unconf_dev, 0.0),
        Check("epr-confused-original", 0.0, zero.confused_original, 0.0),
    ]


def sphere_checks(seed: int = DEFAULT_SEED) -> list[Check]:
    checks = []
    # a perception at angle 2 arccos(u^(1/4)) from the state, u uniform, lies at
    # least psi away when u <= cos^4(psi/2); the arccos route itself parts from
    # this only within a few ulps of the cut, where rounding decides
    uniforms = np.random.default_rng(check_int("the seed", seed, 0)).random(SAMPLES)
    for psi in (math.pi / 6, math.pi / 2, 5 * math.pi / 6):
        expected = math.cos(psi / 2) ** 4
        observed = int(np.count_nonzero(uniforms <= expected)) / SAMPLES
        sigma = math.sqrt(expected * (1 - expected) / SAMPLES)
        checks.append(Check(f"sphere-mc-psi-{round(math.degrees(psi))}", expected, observed, 3 * sigma))
    cold = toymodels.sphere_model(math.pi / 2, 0.3, 0.7).cold_probability
    checks.append(Check("sphere-cold-probability", 0.5, cold, 0.0))
    return checks


# the battery's groups in report order: the function's name in this module,
# whether it takes the seed, and the names of the checks it returns
_GROUPS = (
    ("circle_checks", False, ("circle-typicality-closed", "circle-typicality-grid")),
    ("linpos_check", True, ("linpos-fraction",)),
    ("sqmn_checks", False, (
        "dual-normalization-inverse", "dual-x1", "posterior-mean", "posterior-mean-quadrature",
        "posterior-std", "dual-mean", "dual-std", "averaged-posterior-norm",
        "averaged-posterior-tail", "band-low", "band-high", "digit-n1", "digit-n0",
        "digit-n2", "confidence-bound-k8",
    )),
    ("epr_checks", False, (
        "epr-no-signalling", "epr-tan-ratio", "epr-anticorrelation", "epr-unconfused-exact",
        "epr-confused-original",
    )),
    ("sphere_checks", True, (
        "sphere-mc-psi-30", "sphere-mc-psi-90", "sphere-mc-psi-150", "sphere-cold-probability",
    )),
)


def run_all(seed: int = DEFAULT_SEED, only: Optional[str] = None) -> list[Check]:
    """Run the full battery, or with `only` the checks whose name holds that
    substring; a group none of whose checks match is not run."""
    checks = []
    for group, seeded, names in _GROUPS:
        if only and not any(only in name for name in names):
            continue
        # looked up at call time, so a replaced module attribute is the one run
        run = globals()[group]
        out = run(seed) if seeded else run()
        checks += out if isinstance(out, list) else [out]
    if only:
        checks = [c for c in checks if only in c.name]
    return checks
