"""Conjugate posteriors for the effect parameter, their partial moments, and
the adaptive quadrature behind the beta expected losses that are printed.

Each sampling model is one row of ``FAMILIES``, which holds every rule that
depends on the model: a binomial count with a beta prior on the success
probability (effect scale: bias b = pi - 0.5) and a normal mean with known
sampling standard deviation and a normal prior. Posteriors are kept in
closed form and truncated to the declared effect space, so that
probabilities over the space always total one.

The special functions are implemented here rather than imported: the beta
CDF uses the continued-fraction form of the regularized incomplete beta
function and the normal CDF goes through erfc. Every posterior mass (the
truncation constant, the CDF, region probabilities) is taken from the tail
on its own side of the distribution, I_{1-x}(b, a) or erfc on the far side
where that tail is the smaller one, so a posterior that lies beyond one end
of the space keeps its relative precision and mirrors its partner beyond
the other end. Each posterior binds its log density once, with its
normalising constant and the log mass of the space, and keeps the tails it
has taken at each point, so that procedures sharing it take the tails at
their common cut points once. Quantiles use safeguarded Newton steps on
the CDF and the density. The partial moments
E[(theta - origin)^j; lo < theta < hi], j = 0, 1, 2, are closed-form for
both families; they give the summary mean and sd, and the expected losses
that decide. A beta posterior's take only its mass and the incomplete
beta's prefactor at the two cuts. The adaptive quadrature integrates a beta
posterior's loss pieces times its density only for the values that decide
and compare print, until ROADMAP item 1 re-records the benchmark's tail
references.
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


def _is_count(value) -> bool:
    # the rule of a config's counts (values.count): an int, not a bool, in
    # [0, 2**63), since numpy's binomial draw takes n as a C long
    return isinstance(value, int) and not isinstance(value, bool) and 0 <= value < 2**63


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


def _beta_front(a: float, b: float, x: float) -> float:
    """x^a (1 - x)^b / B(a, b), 0 outside (0, 1): the incomplete beta's
    prefactor (DiDonato & Morris, ACM TOMS 18, 1992) and s f of _beta_moments."""
    if x <= 0.0 or x >= 1.0:
        return 0.0
    try:
        return math.exp(a * math.log(x) + b * math.log1p(-x) - log_beta(a, b))
    except OverflowError:
        raise NumericalError(f"incomplete beta prefactor overflows (a={a}, b={b}, x={x})") from None


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b), the CDF of a Beta(a, b) distribution at x."""
    if not (a > 0.0 and b > 0.0):
        raise ValidationError(f"beta shape parameters must be positive, got ({a}, {b})")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if math.isnan(x):
        raise ValueError(f"x must be a number, got {x}")
    front = _beta_front(a, b, x)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cont_frac(a, b, x) / a
    return 1.0 - front * _beta_cont_frac(b, a, 1.0 - x) / b


def normal_cdf(x: float, mean: float = 0.0, sd: float = 1.0) -> float:
    return 0.5 * math.erfc((mean - x) / (sd * _SQRT2))


def _exp_neg_square(w: float) -> float:
    """exp(-w*w) to full relative precision. w*w is split as s*s, exact for
    s = w truncated to 20 fraction bits, plus (w - s)(w + s), so that the
    rounding of w*w (about 1e-14 at w = 10) does not reach the exponent."""
    if abs(w) > 40.0:
        return 0.0
    s = math.trunc(w * 1048576.0) / 1048576.0
    return math.exp(-s * s) * math.exp(-(w - s) * (w + s))


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


def _region_masses(tails_at: Callable[[float], tuple], ends: tuple) -> tuple[float, float]:
    """The untruncated masses of H0 and H1, from the tails at the ends of
    their intervals (effect scale)."""
    return tuple(
        sum(_mass_between(tails_at(lo), tails_at(hi)) for lo, hi in region)
        for region in ends
    )


def _normal_tail_z(q: float) -> float:
    """z >= 0 with standard normal upper tail q <= 1/2, to about 4.5e-4
    (Abramowitz & Stegun 26.2.23); a starting point for Newton steps."""
    t = math.sqrt(-2.0 * math.log(max(q, 1e-300)))
    return t - (2.515517 + t * (0.802853 + t * 0.010328)) / (
        1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308))
    )


def _normal_upper_z(q: float) -> float:
    """z with standard normal upper tail q in (0, 1), to full precision:
    three Newton steps from ``_normal_tail_z``, each on the tail by erfc, or
    about the median by erf for q above 1/4, where 1/2 - q is exact and z
    keeps its relative precision near 0."""
    if q > 0.5:
        return -_normal_upper_z(1.0 - q)
    z = _normal_tail_z(q)
    for _ in range(3):
        w = z / _SQRT2
        miss = 0.5 * math.erfc(w) - q if q < 0.25 else (0.5 - q) - 0.5 * math.erf(w)
        z += miss * _SQRT2PI * math.exp(0.5 * z * z)
    return z


@dataclass(frozen=True)
class BinomialModel:
    """n coin-style trials with k successes; Beta(prior_alpha, prior_beta)
    prior on the success probability. The effect is the bias b = pi - 0.5."""

    n: int
    k: int
    prior_alpha: float = 1.0
    prior_beta: float = 1.0

    def __post_init__(self) -> None:
        if not (_is_count(self.n) and _is_count(self.k)):
            raise ValidationError(
                f"n and k must be integers in [0, 2**63), got n={self.n!r}, k={self.k!r}"
            )
        if self.k > self.n:
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
        if not (_is_count(self.n) and self.n >= 1):
            raise ValidationError(f"need an integer n >= 1 of observations, got n={self.n!r}")
        if not math.isfinite(self.ybar):
            raise ValidationError(f"ybar must be finite, got {self.ybar}")
        for name in ("sigma", "prior_sd"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValidationError(f"{name} must be positive and finite, got {v}")
        if not math.isfinite(self.prior_mean):
            raise ValidationError(f"prior_mean must be finite, got {self.prior_mean}")


class BinomialDraw(NamedTuple):
    n: int
    k: int


class NormalDraw(NamedTuple):
    n: int
    ybar: float
    sigma: float


def _beta_proper(a: float, b: float) -> bool:
    return a > 0.0 and b > 0.0


def _normal_proper(mean: float, sd: float) -> bool:
    return sd > 0.0


def _beta_update(model: BinomialModel) -> tuple[float, float]:
    return model.prior_alpha + model.k, model.prior_beta + model.n - model.k


def _normal_update(model: NormalKnownVarModel) -> tuple[float, float]:
    """The precision-weighted update; a posterior whose mean or sd no float
    holds raises NumericalError."""
    n, ybar, sigma, prior_mean, prior_sd = (
        model.n, model.ybar, model.sigma, model.prior_mean, model.prior_sd
    )
    # q is the prior's precision over the data's and r = 1/q, which is taken
    # from t again since t * t may overflow; the weights and the sd come from
    # whichever of the two is below 1, and the mean is a convex combination
    t = sigma / prior_sd
    q = t * t / n
    if q < 1.0:
        w_prior, w_data = q / (1.0 + q), 1.0 / (1.0 + q)
        sd = sigma / math.sqrt(n * (1.0 + q))
    else:
        r = n / t / t
        w_prior, w_data = 1.0 / (1.0 + r), r / (1.0 + r)
        sd = prior_sd / math.sqrt(1.0 + r)
    mean = w_prior * prior_mean + w_data * ybar
    if not (math.isfinite(mean) and sd > 0.0):
        raise NumericalError(
            f"the normal posterior of ybar={ybar!r}, n={n}, sigma={sigma!r} under "
            f"the prior mean={prior_mean!r}, sd={prior_sd!r} is not representable: "
            f"mean {mean!r}, sd {sd!r}"
        )
    return mean, sd


def _beta_tails(params: tuple[float, float], t: float) -> tuple[float, float]:
    p1, p2 = params
    if t * (p1 + p2 + 2.0) < p1 + 1.0:
        lower = regularized_incomplete_beta(p1, p2, t)
        return lower, 1.0 - lower
    upper = regularized_incomplete_beta(p2, p1, 1.0 - t)
    return 1.0 - upper, upper


def _normal_tails(params: tuple[float, float], t: float) -> tuple[float, float]:
    p1, p2 = params
    if t < p1:
        lower = normal_cdf(t, p1, p2)
        return lower, 1.0 - lower
    upper = normal_cdf(-t, -p1, p2)
    return 1.0 - upper, upper


def _beta_log_density(params, shift: float, log_mass: float) -> Callable[[float], float]:
    p1, p2 = params
    log_scale = log_beta(p1, p2)

    def log_density(effect: float) -> float:
        x = effect - shift
        if x <= 0.0 or x >= 1.0:
            return -math.inf
        base = (p1 - 1.0) * math.log(x) + (p2 - 1.0) * math.log1p(-x)
        return (base - log_scale) - log_mass

    return log_density


def _normal_log_density(params, shift: float, log_mass: float) -> Callable[[float], float]:
    p1, p2 = params
    log_scale = math.log(p2 * _SQRT2PI)

    def log_density(effect: float) -> float:
        z = (effect - shift - p1) / p2
        return (-0.5 * z * z - log_scale) - log_mass

    return log_density


def _beta_location_scale(params: tuple[float, float]) -> tuple[float, float]:
    a, b = params
    return a / (a + b), math.sqrt(a * b / ((a + b) ** 2 * (a + b + 1.0)))


def _normal_location_scale(params: tuple[float, float]) -> tuple[float, float]:
    return params


def _beta_moments(params, m0: float, x_lo: float, x_hi: float, x_o: float) -> tuple:
    """The moments about the mean mu = a/(a + b) from the region's mass M0
    and s f = x^a (1 - x)^b / B(a, b) at its ends, by (s f)' = (a + b)(mu - x) f:
    M1 = -[s f]/(a + b) and (a + b + 1) M2 = mu(1 - mu) M0 + (1 - 2 mu) M1 -
    [(x - mu) s f], shifted to the origin; their scale is 1."""
    a, b = params
    s, mu = a + b, a / (a + b)
    sf_lo, sf_hi = _beta_front(a, b, x_lo), _beta_front(a, b, x_hi)
    m1 = (sf_lo - sf_hi) / s
    # mu(1 - mu) as ab/s^2 and 1 - 2 mu as (b - a)/s: no mu is taken from 1
    m2 = a * b / (s * s) * m0 + (b - a) / s * m1 - (x_hi - mu) * sf_hi + (x_lo - mu) * sf_lo
    d = mu - x_o
    return m0, m1 + d * m0, m2 / (s + 1.0) + d * (2.0 * m1 + d * m0), 1.0


def _normal_moments(params, m0: float, x_lo: float, x_hi: float, x_o: float) -> tuple:
    """The truncated-normal formulas in sd units, about the origin, with phi
    taken at the cut z-values, and the sd, their scale. They work from the erfc arguments of the
    masses and put an origin on a cut exactly on it: a rounding of a cut
    then moves its mass, its phi and the origin together, and the
    cancellation in the moments of a far tail stays exact."""
    a, b = params
    w_lo, w_hi = (x_lo - a) / (b * _SQRT2), (x_hi - a) / (b * _SQRT2)
    z_lo, z_hi = _SQRT2 * w_lo, _SQRT2 * w_hi
    phi_lo = _exp_neg_square(w_lo) / _SQRT2PI
    phi_hi = _exp_neg_square(w_hi) / _SQRT2PI
    u = -(z_lo if x_o == x_lo else z_hi if x_o == x_hi else (x_o - a) / b)
    e1 = phi_lo - phi_hi  # E[z; region], z = (theta - mean) / sd
    e2 = m0 + z_lo * phi_lo - z_hi * phi_hi  # E[z^2; region]
    return m0, u * m0 + e1, u * (u * m0 + 2.0 * e1) + e2, b


def _binomial_point_null(model: BinomialModel) -> tuple[float, float]:
    """Exact test of pi = 1/2, the doubled smaller tail clipped at 1; the
    tails of Binomial(n, 1/2) are P(X >= k) = I_{1/2}(k, n - k + 1) and
    P(X <= k) = P(X >= n - k), so the upper one is the smaller where 2k >= n."""
    n, k = model.n, model.k
    if 2 * k >= n:
        tail = 1.0 if k == 0 else regularized_incomplete_beta(k, n - k + 1, 0.5)
    else:
        tail = regularized_incomplete_beta(n - k, k + 1, 0.5)
    return min(1.0, 2.0 * tail), float(k)


def _normal_point_null(model: NormalKnownVarModel) -> tuple[float, float]:
    z = model.ybar * math.sqrt(model.n) / model.sigma
    return math.erfc(abs(z) / _SQRT2), z


def _binomial_draw(rng, effect: float, n: int, sigma: float | None, size: int):
    return rng.binomial(n, min(max(effect + 0.5, 0.0), 1.0), size)


def _normal_draw(rng, effect: float, n: int, sigma: float, size: int):
    return rng.normal(effect, sigma / math.sqrt(n), size)


class Family(NamedTuple):
    """One row of the family table: a sampling model, its conjugate
    posterior, and every rule that depends on which model it is. Posterior
    parameters are native, (alpha, beta) of the success probability or
    (mean, sd) of the mean, and effect = native + effect_shift."""

    model: type  # fields: n, the data, the known values, the prior's two numbers
    posterior: str  # the posterior's name, PosteriorModel.family
    effect_shift: float
    support: tuple[float, float]  # of the native parameter
    prior_keys: tuple[str, str]  # the config keys of the prior's two numbers
    proper: Callable  # (two numbers) -> whether they make a proper prior or posterior
    data: tuple[tuple[str, type], ...]  # model.data keys after n, each int or float
    known: tuple[str, ...]  # positive model fields a config gives beside the data
    update: Callable  # model -> posterior parameters
    tails: Callable  # (params, native t) -> untruncated tails, each from its own side
    log_density: Callable  # (params, shift, log mass of the space) -> bound log density
    location_scale: Callable  # params -> untruncated native mean and sd
    moments: Callable  # (params, mass, native lo, hi, origin) -> partial moments, scale
    point_null: Callable  # model -> (p-value, statistic) of the nhst test
    point_null_detail: str  # its detail, a format string of model and statistic
    draw: Callable  # (rng, true effect, n, sigma, size) -> size statistics, k or ybar

    def check_support(self, lo: float, hi: float) -> None:
        """Raise unless the effects [lo, hi] map into the native support."""
        s_lo, s_hi = self.support
        if lo - self.effect_shift < s_lo or hi - self.effect_shift > s_hi:
            raise ValidationError(
                f"effects in [{lo!r}, {hi!r}] map outside the {self.posterior} "
                f"support [{s_lo:g}, {s_hi:g}]; they must lie in "
                f"[{s_lo + self.effect_shift:g}, {s_hi + self.effect_shift:g}]"
            )


FAMILIES: dict[str, Family] = {
    "binomial": Family(
        model=BinomialModel, posterior="beta", effect_shift=-0.5, support=(0.0, 1.0),
        prior_keys=("alpha", "beta"), proper=_beta_proper, data=(("k", int),), known=(),
        update=_beta_update, tails=_beta_tails, log_density=_beta_log_density,
        location_scale=_beta_location_scale, moments=_beta_moments,
        point_null=_binomial_point_null,
        point_null_detail="exact binomial test of pi=0.5 with k={model.k}, n={model.n}",
        draw=_binomial_draw,
    ),
    "normal": Family(
        model=NormalKnownVarModel, posterior="normal", effect_shift=0.0,
        support=(-math.inf, math.inf), prior_keys=("mean", "sd"), proper=_normal_proper,
        data=(("ybar", float),), known=("sigma",), update=_normal_update,
        tails=_normal_tails, log_density=_normal_log_density,
        location_scale=_normal_location_scale, moments=_normal_moments,
        point_null=_normal_point_null,
        point_null_detail="z-test of a zero mean, z={statistic:.6g}",
        draw=_normal_draw,
    ),
}
_BY_POSTERIOR = {row.posterior: row for row in FAMILIES.values()}
_BY_MODEL = {row.model: name for name, row in FAMILIES.items()}


def family_of(model: BinomialModel | NormalKnownVarModel) -> str:
    """The FAMILIES key of a model."""
    name = _BY_MODEL.get(type(model))
    if name is None:
        raise ValidationError(f"unsupported model type {type(model).__name__}")
    return name


@dataclass(frozen=True)
class PosteriorModel:
    """Closed-form posterior on the effect scale, truncated to its space.
    ``family`` is a row's posterior name, "beta" or "normal", and ``params``
    its native parameters; effect = native + the row's effect_shift."""

    family: str
    params: tuple[float, float]
    space: ParameterSpace

    def __post_init__(self) -> None:
        row = _BY_POSTERIOR.get(self.family)
        if row is None:
            raise ValidationError(f"unknown posterior family {self.family!r}")
        p1, p2 = self.params
        if not (math.isfinite(p1) and math.isfinite(p2)):
            raise ValidationError("posterior parameters must be finite")
        if not row.proper(p1, p2):
            raise ValidationError(f"improper {self.family} posterior parameters {self.params}")
        row.check_support(self.space.lo, self.space.hi)
        object.__setattr__(self, "_row", row)
        # the tails at each effect asked for: the procedures that share a
        # posterior ask for the same cut points
        object.__setattr__(self, "_tails", {})

    @property
    def effect_shift(self) -> float:
        return self._row.effect_shift

    def _native(self, effect: float) -> float:
        return effect - self._row.effect_shift

    def _tails_at(self, effect: float) -> tuple[float, float]:
        tails = self._tails.get(effect)
        if tails is None:
            tails = self._tails[effect] = self._row.tails(self.params, self._native(effect))
        return tails

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

    def _mass(self, lo: float, hi: float) -> float:
        """Untruncated posterior mass of [lo, hi] clipped to the space, from
        the tails at each end, or at the space end it reaches."""
        lo_tails, hi_tails, _, _ = self._ends
        a = lo_tails if lo <= self.space.lo else self._tails_at(lo)
        b = hi_tails if hi >= self.space.hi else self._tails_at(hi)
        return _mass_between(a, b)

    def _prob(self, lo: float, hi: float) -> float:
        """Truncated posterior probability of [lo, hi] clipped to the space."""
        return min(max(self._mass(lo, hi) / self._ends[2], 0.0), 1.0)

    def cdf(self, effect: float) -> float:
        """CDF of the truncated posterior on the effect scale."""
        if effect <= self.space.lo:
            return 0.0
        if effect >= self.space.hi:
            return 1.0
        if math.isnan(effect):
            raise ValueError(f"effect must be a number, got {effect}")
        return self._prob(self.space.lo, effect)

    @cached_property
    def log_density(self) -> Callable[[float], float]:
        """effect -> log density of the truncated posterior, valid inside
        the space; a call is only arithmetic on constants bound here."""
        return self._row.log_density(self.params, self.effect_shift, self._ends[3])

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
        """Mean and sd of the untruncated native distribution, the mean
        moved to the effect scale. Both start the quantile search and place
        the quadrature's split points; the mean also sets the origin of the
        summary's moments and of the closed form's panels."""
        mean, sd = self._row.location_scale(self.params)
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


def posterior_update(
    model: BinomialModel | NormalKnownVarModel, space: ParameterSpace
) -> PosteriorModel:
    """The conjugate update of a model of any family, truncated to the space."""
    row = FAMILIES[family_of(model)]
    return PosteriorModel(row.posterior, row.update(model), space)


def _region_ends(region: RegionSet, space: ParameterSpace) -> tuple[tuple[float, float], ...]:
    """The (lo, hi) of each interval of a region set, which must lie in the
    space up to a rounding of its span."""
    span = max(1.0, space.span)
    for itv in region.intervals:
        if itv.lo < space.lo - 1e-9 * span or itv.hi > space.hi + 1e-9 * span:
            raise DomainError(
                f"region [{itv.lo}, {itv.hi}] outside the effect space "
                f"[{space.lo}, {space.hi}]"
            )
    return tuple((itv.lo, itv.hi) for itv in region.intervals)


def posterior_region_prob(post: PosteriorModel, region: RegionSet) -> float:
    """Posterior probability of a region set: the sum of its intervals'
    masses, each taken from the tails on its own side.

    Endpoint openness is immaterial for these continuous posteriors.
    """
    total = sum(post._prob(lo, hi) for lo, hi in _region_ends(region, post.space))
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


def _scaled_moments(
    post: PosteriorModel, lo: float, hi: float, origin: float
) -> tuple[float, float, float, float]:
    """E[((theta - origin) / scale)^j; lo < theta < hi] for j = 0, 1, 2
    under the untruncated posterior, and the scale: the sd of a normal
    posterior, 1 for a beta one; lo and hi lie in the space.

    The mass is the posterior's tail-side ``_mass``, and the row's
    ``moments`` gives the other two. With the origin at the mean or on the
    cut nearest the mass, only the mass beyond a far cut cancels, and that
    cancellation is exact up to rounding.
    """
    m0 = post._mass(lo, hi)
    x_lo, x_hi, x_o = post._native(lo), post._native(hi), post._native(origin)
    return post._row.moments(post.params, m0, x_lo, x_hi, x_o)


def posterior_summary(post: PosteriorModel) -> dict:
    """Location summaries used in reports: mean and sd of the truncated
    posterior, from its partial moments about the point of the space nearest
    the untruncated mean, plus the central 95% interval."""
    lo, hi = post.space.lo, post.space.hi
    origin = min(max(post.native_location_scale[0], lo), hi)
    m0, m1, m2, scale = _scaled_moments(post, lo, hi, origin)
    shift = m1 / m0
    ci = credible_interval(post, 0.95)
    return {
        "family": post.family,
        "params": list(post.params),
        "mean": origin + scale * m1 / m0,
        # the variance in units of the scale, whose square may underflow
        "sd": scale * math.sqrt(max(m2 / m0 - shift * shift, 0.0)),
        "central_95": [ci[0], ci[1]],
    }
