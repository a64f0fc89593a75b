"""Conjugate posteriors for the effect parameter, plus quadrature utilities.

Two sampling models are supported: a binomial count with a beta prior on the
success probability (effect scale: bias b = pi - 0.5) and a normal mean with
known sampling standard deviation and a normal prior. Posteriors are kept in
closed form and truncated to the declared effect space, so that probabilities
over the space always total one.

The special functions are implemented here rather than imported: the beta
CDF uses the continued-fraction form of the regularized incomplete beta
function and the normal CDF goes through erfc. Every posterior mass (the
truncation constant, the CDF, region probabilities) is taken from the tail
on its own side of the distribution, I_{1-x}(b, a) or erfc on the far side
where that tail is the smaller one, so a posterior that lies beyond one end
of the space keeps its relative precision and mirrors its partner beyond
the other end. Each posterior binds its log density once, with its
normalising constant and the log mass of the space. Quantiles use
safeguarded Newton steps on the CDF and the density; the summary mean and
sd are closed-form truncated moments. The adaptive quadrature integrates
the expected-loss rule's loss pieces times that density.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

from .errors import DomainError, NumericalError, ValidationError
from .loss import ParameterSpace
from .regions import RegionSet

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)

_CF_MAX_ITER = 600
_CF_EPS = 1e-15
_CF_TINY = 1e-300

QUANTILE_TOL = 1e-10


def log_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _beta_cont_frac(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function, by the modified
    Lentz method. Converges fast for x < (a + 1) / (a + b + 2)."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_TINY:
        d = _CF_TINY
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        num = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + num * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + num / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        h *= d * c
        num = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + num * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + num / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        step = d * c
        h *= step
        if abs(step - 1.0) < _CF_EPS:
            return h
    raise NumericalError(
        f"incomplete beta continued fraction did not converge (a={a}, b={b}, x={x})"
    )


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b), the CDF of a Beta(a, b) distribution at x."""
    if not (a > 0.0 and b > 0.0):
        raise ValidationError(f"beta shape parameters must be positive, got ({a}, {b})")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(a * math.log(x) + b * math.log1p(-x) - log_beta(a, b))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cont_frac(a, b, x) / a
    return 1.0 - front * _beta_cont_frac(b, a, 1.0 - x) / b


def normal_cdf(x: float, mean: float = 0.0, sd: float = 1.0) -> float:
    return 0.5 * math.erfc((mean - x) / (sd * _SQRT2))


def _tails(family: str, params: tuple[float, float], t: float) -> tuple[float, float]:
    """Lower and upper tail of the untruncated native distribution at t.

    The tail on t's side of the distribution is computed directly and the
    other as its complement, so the smaller tail keeps full relative
    precision: I_x(a, b) or I_{1-x}(b, a) for the beta, erfc on the far
    side for the normal.
    """
    p1, p2 = params
    if family == "beta":
        if t * (p1 + p2 + 2.0) < p1 + 1.0:
            lower = regularized_incomplete_beta(p1, p2, t)
            return lower, 1.0 - lower
        upper = regularized_incomplete_beta(p2, p1, 1.0 - t)
        return 1.0 - upper, upper
    if t < p1:
        lower = normal_cdf(t, p1, p2)
        return lower, 1.0 - lower
    upper = normal_cdf(-t, -p1, p2)
    return 1.0 - upper, upper


def _mass_between(lo_tails: tuple[float, float], hi_tails: tuple[float, float]) -> float:
    """Mass between two points from their tails: a difference of lower
    tails below the median, of upper tails above it, else one minus both
    outer tails. No branch subtracts two numbers close to one."""
    (f_lo, s_lo), (f_hi, s_hi) = lo_tails, hi_tails
    if f_hi <= 0.5:
        return f_hi - f_lo
    if s_lo <= 0.5:
        return s_lo - s_hi
    return 1.0 - f_lo - s_hi


def _interval_mass(family: str, params: tuple[float, float], lo: float, hi: float) -> float:
    """Untruncated mass of the native interval [lo, hi]."""
    return _mass_between(_tails(family, params, lo), _tails(family, params, hi))


def _normal_tail_z(q: float) -> float:
    """z >= 0 with standard normal upper tail q <= 1/2, to about 4.5e-4
    (Abramowitz & Stegun 26.2.23); a starting point for Newton steps."""
    t = math.sqrt(-2.0 * math.log(max(q, 1e-300)))
    return t - (2.515517 + t * (0.802853 + t * 0.010328)) / (
        1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308))
    )


@dataclass(frozen=True)
class BinomialModel:
    """n coin-style trials with k successes; Beta(prior_alpha, prior_beta)
    prior on the success probability. The effect is the bias b = pi - 0.5."""

    n: int
    k: int
    prior_alpha: float = 1.0
    prior_beta: float = 1.0

    def __post_init__(self) -> None:
        if self.n < 0 or self.k < 0 or self.k > self.n:
            raise ValidationError(f"need 0 <= k <= n, got k={self.k}, n={self.n}")
        for name in ("prior_alpha", "prior_beta"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValidationError(f"{name} must be positive and finite, got {v}")


@dataclass(frozen=True)
class NormalKnownVarModel:
    """Sample mean ybar of n observations with known sampling sd sigma,
    normal prior on the mean."""

    n: int
    ybar: float
    sigma: float
    prior_mean: float = 0.0
    prior_sd: float = 1.0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValidationError(f"need n >= 1 observations, got n={self.n}")
        if not math.isfinite(self.ybar):
            raise ValidationError(f"ybar must be finite, got {self.ybar}")
        for name in ("sigma", "prior_sd"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValidationError(f"{name} must be positive and finite, got {v}")
        if not math.isfinite(self.prior_mean):
            raise ValidationError(f"prior_mean must be finite, got {self.prior_mean}")


BIAS_SPACE = ParameterSpace(-0.5, 0.5)


@dataclass(frozen=True)
class PosteriorModel:
    """Closed-form posterior on the effect scale, truncated to its space.

    ``params`` are (alpha, beta) for the beta family and (mean, sd) for the
    normal family, both on the native parameter scale, and
    effect = native + effect_shift (shift 0 for normal; -0.5 for binomial,
    so pi -> pi - 0.5).
    """

    family: str
    params: tuple[float, float]
    space: ParameterSpace
    effect_shift: float = 0.0

    def __post_init__(self) -> None:
        if self.family not in ("beta", "normal"):
            raise ValidationError(f"unknown posterior family {self.family!r}")
        p1, p2 = self.params
        if not (math.isfinite(p1) and math.isfinite(p2)):
            raise ValidationError("posterior parameters must be finite")
        if self.family == "beta" and not (p1 > 0.0 and p2 > 0.0):
            raise ValidationError("beta posterior needs positive shape parameters")
        if self.family == "normal" and not p2 > 0.0:
            raise ValidationError("normal posterior needs a positive sd")
        if self.family == "beta":
            lo, hi = self._native(self.space.lo), self._native(self.space.hi)
            if lo < -1e-12 or hi > 1.0 + 1e-12:
                raise ValidationError(
                    "effect space maps outside the beta support [0, 1]"
                )

    def _native(self, effect: float) -> float:
        return effect - self.effect_shift

    def _tails_at(self, effect: float) -> tuple[float, float]:
        return _tails(self.family, self.params, self._native(effect))

    @cached_property
    def _ends(self) -> tuple[tuple[float, float], tuple[float, float], float, float]:
        """Tails at both space ends, the untruncated mass of the space and
        its log."""
        lo_tails = self._tails_at(self.space.lo)
        hi_tails = self._tails_at(self.space.hi)
        total = _mass_between(lo_tails, hi_tails)
        # a subnormal mass has lost its relative precision
        if not total >= sys.float_info.min:
            raise NumericalError(
                "posterior mass vanishes on the parameter space "
                f"[{self.space.lo}, {self.space.hi}]"
            )
        return lo_tails, hi_tails, total, math.log(total)

    def _prob(self, lo: float, hi: float) -> float:
        """Truncated posterior probability of [lo, hi] clipped to the space."""
        lo_tails, hi_tails, total, _ = self._ends
        a = lo_tails if lo <= self.space.lo else self._tails_at(lo)
        b = hi_tails if hi >= self.space.hi else self._tails_at(hi)
        return min(max(_mass_between(a, b) / total, 0.0), 1.0)

    def cdf(self, effect: float) -> float:
        """CDF of the truncated posterior on the effect scale."""
        if effect <= self.space.lo:
            return 0.0
        if effect >= self.space.hi:
            return 1.0
        return self._prob(self.space.lo, effect)

    @cached_property
    def log_density(self) -> Callable[[float], float]:
        """effect -> log density of the truncated posterior, valid inside
        the space; a call is only arithmetic on constants bound here."""
        p1, p2 = self.params
        shift, log_mass = self.effect_shift, self._ends[3]
        if self.family == "beta":
            log_scale = log_beta(p1, p2)

            def log_density(effect: float) -> float:
                x = effect - shift
                if x <= 0.0 or x >= 1.0:
                    return -math.inf
                base = (p1 - 1.0) * math.log(x) + (p2 - 1.0) * math.log1p(-x)
                return (base - log_scale) - log_mass

        else:
            log_scale = math.log(p2 * _SQRT2PI)

            def log_density(effect: float) -> float:
                z = (effect - shift - p1) / p2
                return (-0.5 * z * z - log_scale) - log_mass

        return log_density

    def __getstate__(self) -> dict:
        # pickle cannot store the bound density, a closure; it is bound
        # again on first use
        return {k: v for k, v in vars(self).items() if k != "log_density"}

    def log_pdf(self, effect: float) -> float:
        if not self.space.contains(effect):
            return -math.inf
        return self.log_density(effect)

    def pdf(self, effect: float) -> float:
        return math.exp(self.log_pdf(effect))

    def quantile(self, p: float) -> float:
        """Inverse CDF on the effect scale by safeguarded Newton steps.

        Starts from the normal approximation at the untruncated tail level
        of p and keeps a bracket [lo, hi] with cdf(lo) < p <= cdf(hi); a
        step that leaves the bracket is replaced by bisection. Stops when a
        step or the bracket is within QUANTILE_TOL.
        """
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"quantile level must be in [0, 1], got {p}")
        lo, hi = self.space.lo, self.space.hi
        if p <= 0.0:
            return lo
        if p >= 1.0:
            return hi
        lo_tails, hi_tails, total, _ = self._ends
        below = lo_tails[0] + p * total
        above = hi_tails[1] + (1.0 - p) * total
        z = -_normal_tail_z(below) if below <= above else _normal_tail_z(above)
        loc, sd = self.native_location_scale
        x = min(max(loc + sd * z, lo), hi)
        for _ in range(200):
            f = self.cdf(x) - p
            if f < 0.0:
                lo = x
            else:
                hi = x
            density = self.pdf(x)
            step = f / density if density > 0.0 else math.inf
            if abs(step) <= QUANTILE_TOL:
                return x - step
            x = x - step if lo < x - step < hi else 0.5 * (lo + hi)
            if hi - lo <= QUANTILE_TOL:
                return x
        return x

    @property
    def native_location_scale(self) -> tuple[float, float]:
        """Mean and sd of the untruncated native distribution, mapped to the
        effect scale; used to anchor quadrature split points and quantile
        searches."""
        a, b = self.params
        if self.family == "beta":
            mean = a / (a + b)
            sd = math.sqrt(a * b / ((a + b) ** 2 * (a + b + 1.0)))
        else:
            mean, sd = a, b
        return mean + self.effect_shift, sd


def concentration_splits(post: PosteriorModel) -> tuple[float, ...]:
    """Interior points bracketing the posterior's mass, so that adaptive
    quadrature cannot step over a sharply concentrated density."""
    loc, sd = post.native_location_scale
    pts = []
    for mult in (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0):
        for sign in (-1.0, 1.0):
            x = loc + sign * mult * sd
            if post.space.lo < x < post.space.hi:
                pts.append(x)
    return tuple(sorted(set(pts)))


def posterior_update_binomial(
    model: BinomialModel, space: ParameterSpace | None = None
) -> PosteriorModel:
    """Conjugate update: Beta(alpha + k, beta + n - k) on the success
    probability, expressed on the bias scale b = pi - 0.5."""
    space = space if space is not None else BIAS_SPACE
    return PosteriorModel(
        family="beta",
        params=(model.prior_alpha + model.k, model.prior_beta + model.n - model.k),
        space=space,
        effect_shift=-0.5,
    )


def posterior_update_normal(
    model: NormalKnownVarModel, space: ParameterSpace | None = None
) -> PosteriorModel:
    """Conjugate update with precision weighting of prior mean and ybar.

    Without an explicit space the posterior is supported on mean +/- 40 sd,
    which is indistinguishable from the untruncated distribution.
    """
    precision = 1.0 / model.prior_sd**2 + model.n / model.sigma**2
    mean = (
        model.prior_mean / model.prior_sd**2 + model.n * model.ybar / model.sigma**2
    ) / precision
    sd = precision**-0.5
    if space is None:
        space = ParameterSpace(mean - 40.0 * sd, mean + 40.0 * sd)
    return PosteriorModel(family="normal", params=(mean, sd), space=space)


def posterior_update(
    model: BinomialModel | NormalKnownVarModel, space: ParameterSpace
) -> PosteriorModel:
    """The conjugate update of either model, truncated to the space."""
    if isinstance(model, BinomialModel):
        return posterior_update_binomial(model, space)
    return posterior_update_normal(model, space)


def posterior_region_prob(post: PosteriorModel, region: RegionSet) -> float:
    """Posterior probability of a region set: the sum of its intervals'
    masses, each taken from the tails on its own side.

    Endpoint openness is immaterial for these continuous posteriors.
    """
    span = max(1.0, post.space.span)
    total = 0.0
    for itv in region.intervals:
        if itv.lo < post.space.lo - 1e-9 * span or itv.hi > post.space.hi + 1e-9 * span:
            raise DomainError(
                f"region [{itv.lo}, {itv.hi}] outside the effect space "
                f"[{post.space.lo}, {post.space.hi}]"
            )
        total += post._prob(itv.lo, itv.hi)
    return min(max(total, 0.0), 1.0)


def credible_interval(post: PosteriorModel, mass: float) -> tuple[float, float]:
    """Central credible interval: quantiles at (1 - mass)/2 and 1 - (1 - mass)/2."""
    if not 0.0 < mass < 1.0:
        raise ValidationError(f"credible mass must be in (0, 1), got {mass}")
    tail = 0.5 * (1.0 - mass)
    return post.quantile(tail), post.quantile(1.0 - tail)


class QuadratureResult(NamedTuple):
    value: float
    error: float
    converged: bool


def quadrature(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-10,
    max_depth: int = 50,
    max_evals: int = 200_000,
) -> QuadratureResult:
    """Adaptive Simpson integration with an absolute error target.

    Subdivides until the Richardson error estimate of each panel is within
    its share of the tolerance. Panels that hit max_depth, and runs that
    exhaust the evaluation budget, are accepted as-is and flagged by
    converged=False.
    """
    if not tol > 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if lo > hi:
        raise ValueError(f"need lo <= hi, got [{lo}, {hi}]")
    if lo == hi:
        return QuadratureResult(0.0, 0.0, True)

    def recurse(a, b, fa, fm, fb, whole, tol, depth):
        nonlocal evals
        m = 0.5 * (a + b)
        flm, frm = f(0.5 * (a + m)), f(0.5 * (m + b))
        evals += 2
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        err = (left + right - whole) / 15.0
        if abs(err) <= tol:
            return left + right + err, abs(err), True
        if depth >= max_depth or evals >= max_evals:
            return left + right + err, abs(err), False
        lv, le, lc = recurse(a, m, fa, flm, fm, left, 0.5 * tol, depth + 1)
        rv, re, rc = recurse(m, b, fm, frm, fb, right, 0.5 * tol, depth + 1)
        return lv + rv, le + re, lc and rc

    f_lo, f_mid, f_hi = f(lo), f(0.5 * (lo + hi)), f(hi)
    evals = 3
    whole = (hi - lo) / 6.0 * (f_lo + 4.0 * f_mid + f_hi)
    value, error, converged = recurse(lo, hi, f_lo, f_mid, f_hi, whole, tol, 0)
    return QuadratureResult(value, error, converged)


def _truncated_moments(post: PosteriorModel) -> tuple[float, float]:
    """Mean and sd of the truncated posterior on the effect scale.

    Beta: E[pi^j; region] = B(a+j, b)/B(a, b) times the region's mass under
    Beta(a+j, b). Normal: the truncated-normal formulas in phi and the
    region's mass.
    """
    a, b = post.params
    lo, hi = post._native(post.space.lo), post._native(post.space.hi)
    total = post._ends[2]
    if post.family == "beta":
        m1 = _interval_mass("beta", (a + 1.0, b), lo, hi)
        m2 = _interval_mass("beta", (a + 2.0, b), lo, hi)
        mean = a / (a + b) * m1 / total
        var = mean * ((a + 1.0) / (a + b + 1.0) * m2 / m1 - mean)
    else:
        z_lo, z_hi = (lo - a) / b, (hi - a) / b
        phi_lo = math.exp(-0.5 * z_lo * z_lo) / _SQRT2PI
        phi_hi = math.exp(-0.5 * z_hi * z_hi) / _SQRT2PI
        shift = (phi_lo - phi_hi) / total
        mean = a + b * shift
        var = b * b * (1.0 + (z_lo * phi_lo - z_hi * phi_hi) / total - shift * shift)
    return mean + post.effect_shift, math.sqrt(max(var, 0.0))


def posterior_summary(post: PosteriorModel) -> dict:
    """Location summaries used in reports: mean and sd of the truncated
    posterior (closed-form truncated moments) plus the central 95%
    interval."""
    mean, sd = _truncated_moments(post)
    ci = credible_interval(post, 0.95)
    return {
        "family": post.family,
        "params": list(post.params),
        "mean": mean,
        "sd": sd,
        "central_95": [ci[0], ci[1]],
    }
