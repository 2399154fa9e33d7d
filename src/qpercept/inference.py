"""Statistics for power-law measure exponents and Bayesian theory comparison.

The exponent family raises every measure density to a power n (n = 1 is the
unmodified theory, and 0**0 is taken as 1 so n = 0 degenerates to counting).
For a unit gaussian density profile the typicalities, posteriors, and moments
below have closed forms and need only `math`.  The dual-posterior integrals
reduce by parts to incomplete gaussian moments (Abramowitz & Stegun ch. 7; see
`_dual_integral`).  Two defining integrals stay checks in the reference
battery, by the double-exponential rule `de_quad`; scipy's `quad` survives only
as a test oracle.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from math import erf, erfc
from typing import Callable, Optional

import numpy as np

from .errors import DegenerateInput, QPerceptError, ValidationError, ZeroMeasure, check_finite


@dataclass(frozen=True)
class PowerLawModel:
    """Measure-density transform m -> m**n; only the power law is built in.

    A caller-supplied scalar transform may replace the power law through
    `transform`; it must map nonnegative reals to nonnegative reals.
    """

    exponent: float = 1.0
    transform: Optional[Callable[[float], float]] = None

    def apply(self, m: float) -> float:
        if self.transform is not None:
            out = float(self.transform(m))
        elif m == 0.0 and self.exponent == 0.0:
            out = 1.0
        else:
            out = float(m**self.exponent)
        if out < 0 or not np.isfinite(out):
            raise ValidationError("transformed density must be finite and nonnegative")
        return out


@dataclass(frozen=True)
class Hypothesis:
    """One theory: an id, a positive prior weight, and a likelihood evaluator."""

    id: str
    prior: float
    evaluator: Callable[[float], float]

    def __post_init__(self):
        if not (self.prior > 0 and np.isfinite(self.prior)):
            raise ValidationError(f"prior for {self.id!r} must be positive and finite")


@dataclass(frozen=True)
class HypothesisSet:
    entries: tuple[Hypothesis, ...]

    def __post_init__(self):
        entries = tuple(self.entries)
        if len(entries) == 0:
            raise ValidationError("need at least one hypothesis")
        ids = [h.id for h in entries]
        if len(set(ids)) != len(ids):
            raise ValidationError("hypothesis ids must be unique")
        object.__setattr__(self, "entries", entries)


def gaussian_typicality(n: float, p: float) -> float:
    """Typicality of observing p under the exponent-n gaussian density.

    Negative exponents make the density diverge in the tails, so the
    typicality is zero there; n = 0 is the constant-density limit.
    """
    check_finite("n and p", n, p)
    if n < 0:
        return 0.0
    return erfc(math.sqrt(n * p * p / 2))


def gaussian_reversed(n: float, p: float) -> float:
    check_finite("n and p", n, p)
    if n < 0:
        return 1.0
    return erf(math.sqrt(n * p * p / 2))


def gaussian_dual(n: float, p: float) -> float:
    check_finite("n and p", n, p)
    if n < 0:
        return 0.0
    t = gaussian_typicality(n, p)
    return 1.0 - abs(1.0 - 2.0 * t)


def posterior_density(p: float, n: float) -> float:
    """Posterior density over the exponent n given one observation p.

    Uses a uniform prior in n; the ordinary typicality is the likelihood.
    Normalized over n in (0, inf) for any p != 0.
    """
    check_finite("p and n", p, n)
    if p == 0:
        raise DegenerateInput("p = 0 carries no information about the exponent")
    if n <= 0:
        return 0.0
    density = p * p * erfc(math.sqrt(p * p * n / 2))
    if not math.isfinite(density):  # p * p overflows for |p| above 1.3e154
        raise QPerceptError(f"the posterior density overflows at p = {p}")
    return density


def posterior_moment(p: float, m: int) -> float:
    """m-th moment of the exponent posterior: (2m+1)!! / ((m+1) p^(2m)).

    Above m = 268, (2m+1)!!/(m+1) exceeds the square of the largest double, so
    p^(2m) or the moment leaves the double range whatever p is: those orders
    fail at once, as does any p for which either leaves it.
    """
    check_finite("p and m", p, m)
    if p == 0:
        raise DegenerateInput("p = 0 carries no information about the exponent")
    if m < 0 or int(m) != m:
        raise ValidationError("moment order must be a nonnegative integer")
    moment = math.inf
    if m <= 268:
        double_fact = math.prod(range(3, 2 * int(m) + 2, 2))
        try:
            moment = double_fact / ((m + 1) * p ** (2 * m))
        except (OverflowError, ZeroDivisionError):  # a factor overflows or p^(2m) underflows
            pass
    if not math.isfinite(moment):
        raise QPerceptError(f"the posterior moment of order {m} overflows at p = {p}")
    return moment


def averaged_posterior(n: float) -> float:
    """Posterior for n averaged over observations drawn from the unit gaussian.

    Equals (2/pi) * (arctan(1/sqrt(n)) - sqrt(n)/(n+1)); the prefactor makes
    the average of the normalized per-observation posteriors itself integrate
    to one.  The large-n tail is (4/(3 pi)) n^(-3/2), so all moments diverge.
    """
    check_finite("n", n)
    if n <= 0:
        raise ValidationError("defined for positive exponents only")
    rn = math.sqrt(n)
    y = 1.0 / rn
    if y < 0.1:
        # the closed form cancels down to its y^3 leading term, so sum the series
        # (2/pi) sum_(k>=1) (-1)^(k+1) (2k/(2k+1)) y^(2k+1) instead; at y < 0.1
        # nine terms leave under 1e-17 of the sum
        series = 0.0
        for k in range(9, 0, -1):
            series = 2 * k / (2 * k + 1) - y * y * series
        return (2.0 / math.pi) * y**3 * series
    return (2.0 / math.pi) * (math.atan(y) - rn / (n + 1.0))


def _dual_integral(k: int, x1: float) -> float:
    """Integral of x^k erf(x) over [0, x1] plus x^k erfc(x) over [x1, inf), odd k.

    At the crossover x1 this is I_k, the integral of x^k min(erf x, erfc x).
    By parts, with j = (k+1)/2 and G_j, U_j the integrals of t^(2j) e^(-t^2)
    below and above x1: (k+1) I_k = x1^(k+1) (erf x1 - erfc x1)
    + (2/sqrt(pi)) (U_j - G_j).  G and U climb from j = 0 by the A&S recursion;
    the upper tail only adds.
    """
    edge = math.exp(-x1 * x1) / 2
    below = math.sqrt(math.pi) / 2 * erf(x1)
    above = math.sqrt(math.pi) / 2 * erfc(x1)
    for i in range(1, (k + 1) // 2 + 1):
        term = x1 ** (2 * i - 1) * edge
        below = (2 * i - 1) / 2 * below - term
        above = (2 * i - 1) / 2 * above + term
    boundary = x1 ** (k + 1) * (erf(x1) - erfc(x1))
    return (boundary + 2 / math.sqrt(math.pi) * (above - below)) / (k + 1)


def _bisect(below: Callable[[float], bool], lo: float, hi: float, tol: float) -> float:
    """Midpoint of [lo, hi] once halved below tol; below(x) says the root lies above x."""
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if below(mid):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def de_quad(f: Callable[[float], float], a: float, b: float = math.inf) -> tuple[float, float]:
    """Integral of f over [a, b], or over [a, inf) when b is inf, and a bound on its error.

    The double-exponential rule (Takahasi & Mori, Publ. RIMS 9, 721 (1974)):
    with u = (pi/2) sinh t, x = a + e^u (exp-sinh) or the tanh u map onto
    [a, b] (tanh-sinh) makes f dx decay double exponentially in t, and the
    trapezoid rule on t in [-4.5, 4.5] converges fast.  The step halves from
    1/2 until two levels agree to 1e-12 relative, at most seven times.  The
    error bound is that last difference plus the end terms at the first step,
    which bound the tails cut off by the window while they decay faster than
    e^(-2t): halving the step does not shrink the tails, so neither may their
    bound.  Scalar `math` and `fsum` keep the result, bound included, free of
    the summation order and vector kernels of the platform.  The outer nodes
    round onto a nonzero finite end, so f must be finite there: shift a
    singular end to 0.  A non-finite term raises a QPerceptError.
    """
    check_finite("a", a)
    if b != math.inf:
        check_finite("b", b)

    def term(t: float) -> float:
        u = math.pi / 2 * math.sinh(t)
        if b == math.inf:
            x, w = a + math.exp(u), math.pi / 2 * math.cosh(t) * math.exp(u)
        else:
            # distance to the nearer end without the cancellation in 1 - tanh u
            q = math.exp(-2 * abs(u))
            near = (b - a) * q / (1 + q)
            x = a + near if t < 0 else b - near
            w = (b - a) * math.pi * math.cosh(t) * q / (1 + q) ** 2
        fw = f(x) * w
        if not math.isfinite(fw):
            raise QPerceptError(f"the integrand is not finite at x = {x} in [{a}, {b}]")
        return fw

    h, k = 0.5, 9
    terms = [term(i * h) for i in range(-k, k + 1)]
    tails = h * (abs(terms[0]) + abs(terms[-1]))
    value = h * math.fsum(terms)
    for _ in range(7):
        h, k = h / 2, 2 * k
        terms += [term(i * h) for i in range(1 - k, k, 2)]
        previous, value = value, h * math.fsum(terms)
        if abs(value - previous) <= 1e-12 * abs(value):
            break
    return value, abs(value - previous) + tails


@lru_cache(maxsize=1)
def dual_normalization() -> tuple[float, float]:
    """Normalization N of the dual-typicality posterior and the crossover x1.

    x1 solves erf(x) = erfc(x) = 1/2 (bisection to 1e-12); substituting
    x = sqrt(p^2 n / 2) turns 1/N into 4 I_1 (see `_dual_integral`).
    """
    x1 = _bisect(lambda x: erf(x) < 0.5, 0.0, 1.0, 1e-12)
    return 1.0 / (4.0 * _dual_integral(1, x1)), x1


def dual_posterior(p: float, n: float) -> float:
    """Posterior over n with the dual typicality as the likelihood."""
    check_finite("p and n", p, n)
    if p == 0:
        raise DegenerateInput("p = 0 carries no information about the exponent")
    if n <= 0:
        return 0.0
    norm, _ = dual_normalization()
    x = math.sqrt(p * p * n / 2)
    density = norm * p * p * min(erfc(x), erf(x))
    if not math.isfinite(density):  # p * p overflows for |p| above 1.3e154
        raise QPerceptError(f"the dual posterior density overflows at p = {p}")
    return density


def dual_posterior_moment(p: float, m: int) -> float:
    """m-th moment of the dual posterior: 4 N (2/p^2)^m I_(2m+1).

    I_(2m+1) exceeds the double range above m = 170, so higher orders fail at
    once, as does any p for which (2/p^2)^m leaves that range.
    """
    check_finite("p and m", p, m)
    if p == 0:
        raise DegenerateInput("p = 0 carries no information about the exponent")
    if m < 0 or int(m) != m:
        raise ValidationError("moment order must be a nonnegative integer")
    moment = math.inf
    if m <= 170:
        norm, x1 = dual_normalization()
        try:
            moment = 4.0 * norm * (2.0 / (p * p)) ** m * _dual_integral(2 * int(m) + 1, x1)
        except (OverflowError, ZeroDivisionError):  # p * p underflows or the power overflows
            pass
    if not math.isfinite(moment):
        raise QPerceptError(f"the dual posterior moment of order {m} overflows at p = {p}")
    return moment


def bayes_update(hypotheses: HypothesisSet, observation) -> dict[str, float]:
    """Posterior weights prior * likelihood, normalized across the set."""
    likelihoods = []
    for h in hypotheses.entries:
        lk = float(h.evaluator(observation))
        if lk < 0 or not np.isfinite(lk):
            raise ValidationError(f"likelihood for {h.id!r} must be finite and nonnegative")
        likelihoods.append(lk)
    weights = [h.prior * lk for h, lk in zip(hypotheses.entries, likelihoods)]
    total = sum(weights)
    if total <= 0:
        raise ZeroMeasure("all hypotheses have zero likelihood; no update possible")
    return {h.id: w / total for h, w in zip(hypotheses.entries, weights)}


def ranked_hypotheses(entries: list[tuple[str, Callable[[float], float]]]) -> HypothesisSet:
    """Build a hypothesis set with priors 2^-rank in the given order.

    The order encodes the caller's complexity ranking (rank 1 first); what
    counts as complex is background knowledge the caller supplies.
    """
    return HypothesisSet(
        tuple(
            Hypothesis(id=hid, prior=2.0 ** -(rank + 1), evaluator=ev)
            for rank, (hid, ev) in enumerate(entries)
        )
    )


def _digit_strings(k: int) -> int:
    """10^k, refused before it is built when no float can hold it."""
    if k < 1 or int(k) != k:
        raise ValidationError("k must be a positive integer")
    if k > sys.float_info.max_10_exp:
        raise OverflowError(f"10^{k} digit strings exceed the float range (k <= {sys.float_info.max_10_exp})")
    return 10 ** int(k)


def digit_experiment(k: int, n1: int, n2: int, m1: float, m2: float, m3: float, n: float) -> float:
    """Conditional probability of perceiving the middle digit group.

    The 10^k possible digit strings split into groups of sizes n1, n2 and the
    remainder n3; the groups carry controlled expectation values m1, m2, m3.
    Under exponent n the chance that a perception lands in group 2 is
    m2^n n2 / (m1^n n1 + m2^n n2 + m3^n n3), independent of the overall scale
    of the m's.
    """
    total = _digit_strings(k)
    if n1 < 1 or n2 < 1 or int(n1) != n1 or int(n2) != n2:
        raise ValidationError("group sizes must be positive integers")
    n3 = total - int(n1) - int(n2)
    if n3 < 0:
        raise ValidationError("n1 + n2 exceeds the number of digit strings")
    if min(m1, m2, m3) <= 0:
        raise ValidationError("expectation values must be positive")

    def power(m: float) -> float:
        return 1.0 if n == 0 else float(m**n)

    num = power(m2) * n2
    den = power(m1) * n1 + num + (power(m3) * n3 if n3 > 0 else 0.0)
    return num / den


def canonical_digit_experiment(k: int, n: float) -> float:
    """Digit experiment with n1 = 1, n2 = 10^(k/2), and m_i = 1/n_i."""
    if k % 2 != 0:
        raise ValidationError("the canonical setup needs an even k")
    total = _digit_strings(k)
    n2 = 10 ** (k // 2)
    n3 = total - 1 - n2
    return digit_experiment(k, 1, n2, 1.0, 1.0 / n2, 1.0 / n3, n)


def confidence_bound(k: int, level: float = 0.99) -> float:
    """Bound b on |n - 1| below which the canonical digit test cannot reject.

    Solves 1 / (10^(b k / 2) + 1 + 10^(-b k / 2)) = 1 - level for b >= 0 by
    bisection.  The left side peaks at 1/3, so levels at or below 2/3 give a
    zero bound; the bound grows as the level approaches 1.
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    if not 0 < level < 1:
        raise ValidationError("level must be inside (0, 1)")
    threshold = 1.0 - level

    def prob(b: float) -> float:
        e = 10.0 ** (b * k / 2.0)
        return 1.0 / (e + 1.0 + 1.0 / e)

    if prob(0.0) <= threshold:
        return 0.0
    hi = 1.0
    while prob(hi) > threshold:
        hi *= 2
    return _bisect(lambda b: prob(b) > threshold, 0.0, hi, 1e-12)


def gaussian_99_band(dual_floor: float = 0.01) -> tuple[float, float]:
    """Band of gaussian deviations whose dual typicality stays above the floor.

    For the unit gaussian the dual typicality of a deviation x is
    1 - |1 - 2 erfc(x / sqrt(2))|, so the band endpoints solve
    erfc(x / sqrt(2)) = 1 - floor/2 (too close to the mean) and
    erfc(x / sqrt(2)) = floor/2 (too far).  Bisection to 1e-10.
    """
    if not 0 < dual_floor < 1:
        raise ValidationError("dual_floor must be inside (0, 1)")
    # erfc(x / sqrt 2) is decreasing in x
    low = _bisect(lambda x: erfc(x / math.sqrt(2)) > 1.0 - dual_floor / 2, 0.0, 1.0, 1e-10)
    high = _bisect(lambda x: erfc(x / math.sqrt(2)) > dual_floor / 2, 1.0, 10.0, 1e-10)
    return low, high
