"""Baseline procedures run side by side with the decision engine.

These are the established answers to "is the effect there / does it
matter": an exact two-sided binomial test or z-test of the point null, the
two-one-sided-tests equivalence procedure, the ROPE credible-interval rule,
and a Bayes factor for interval hypotheses. None of them returns an optimal
action for a concrete decision problem; the point of carrying them along is
the comparison table.

None of them integrates numerically or searches: the tests use the
incomplete beta and erfc, the ROPE rule compares two posterior tail masses
at the rope ends with (1 - mass)/2 instead of finding the credible
interval's quantiles, and the interval Bayes factor is the posterior odds
over the prior odds of the two regions. The posterior procedures take a
posterior that the caller may share with the other procedures of the same
data; the tails it has taken at the region ends are not taken again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import NumericalError, ValidationError
from .hypotheses import HypothesisPair
from .inference import (
    FAMILIES,
    BinomialModel,
    NormalKnownVarModel,
    PosteriorModel,
    _mass_between,
    family_of,
    normal_cdf,
    posterior_region_prob,
)
from .regions import RegionSet


@dataclass(frozen=True)
class ComparatorResult:
    procedure: str
    statistic: float
    verdict: str
    p_value: float | None = None
    bayes_factor: float | None = None
    alpha: float | None = None
    threshold: float | None = None
    detail: str = ""

    def __post_init__(self) -> None:
        if self.p_value is not None and not 0.0 <= self.p_value <= 1.0:
            raise ValidationError(f"p-value out of [0, 1]: {self.p_value}")
        # a ratio of positive masses may underflow to 0.0 or overflow to inf;
        # both are valid answers, while NaN and negative values are not
        if self.bayes_factor is not None and not self.bayes_factor >= 0.0:
            raise ValidationError(
                f"Bayes factor must be a nonnegative ratio: {self.bayes_factor}"
            )


def nhst_point_null(
    model: BinomialModel | NormalKnownVarModel, alpha: float
) -> ComparatorResult:
    """Two-sided test of the single null value representing no effect.

    Binomial: exact test of pi = 1/2 with the doubled-smaller-tail p-value,
    clipped at 1. Normal: z-test of a zero mean.
    """
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must be in (0, 1), got {alpha}")
    p, statistic, detail = FAMILIES[family_of(model)].point_null(model)
    verdict = "reject" if p < alpha else "fail_to_reject"
    return ComparatorResult(
        procedure="nhst_point_null",
        statistic=statistic,
        verdict=verdict,
        p_value=p,
        alpha=alpha,
        detail=detail,
    )


def tost_equivalence(
    model: NormalKnownVarModel, bounds: tuple[float, float], alpha: float
) -> ComparatorResult:
    """Two one-sided z-tests against the given equivalence bounds.

    Concludes "equivalent" when both one-sided nulls (effect at or beyond a
    bound) are rejected at level alpha; the reported p is the larger one.
    Normal model only.
    """
    if not isinstance(model, NormalKnownVarModel):
        raise ValidationError("the equivalence test supports the normal model only")
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must be in (0, 1), got {alpha}")
    lo, hi = bounds
    if not lo < hi:
        raise ValidationError(f"equivalence bounds need lo < hi, got ({lo}, {hi})")
    se = model.sigma / math.sqrt(model.n)
    z_lower = (model.ybar - lo) / se
    z_upper = (model.ybar - hi) / se
    p_lower = 1.0 - normal_cdf(z_lower)
    p_upper = normal_cdf(z_upper)
    if p_lower >= p_upper:
        p, statistic = p_lower, z_lower
    else:
        p, statistic = p_upper, z_upper
    verdict = "equivalent" if p < alpha else "not_equivalent"
    return ComparatorResult(
        procedure="tost_equivalence",
        statistic=statistic,
        verdict=verdict,
        p_value=p,
        alpha=alpha,
        detail=f"one-sided z-tests against bounds ({lo:.6g}, {hi:.6g})",
    )


def rope_decision(post: PosteriorModel, rope: RegionSet, mass: float) -> ComparatorResult:
    """Credible-interval versus region-of-practical-equivalence rule.

    Accepts a0 when the central credible interval at the given mass lies
    entirely inside the rope, accepts a1 when it lies entirely outside,
    withholds otherwise. The interval is never searched for: with
    t = (1 - mass)/2 in each of its tails, it lies inside the rope [lo, hi]
    exactly when P(theta < lo | y) <= t and P(theta > hi | y) <= t, and
    outside it when either of those masses exceeds 1 - t. Each mass is
    taken from its own tail side. The rope must be a single interval
    around the null value.
    """
    if rope.is_empty:
        raise ValidationError("rope must be non-empty")
    if len(rope.intervals) > 1:
        raise ValidationError(
            "rope must be a single interval around the null value; got "
            f"{len(rope.intervals)} disjoint intervals"
        )
    if not 0.0 < mass < 1.0:
        raise ValidationError(f"credible mass must be in (0, 1), got {mass}")
    hull = rope.intervals[0]
    tail = 0.5 * (1.0 - mass)
    below = post._prob(post.space.lo, hull.lo)
    above = post._prob(hull.hi, post.space.hi)
    if below <= tail and above <= tail:
        verdict = "accept_a0"
    elif below > 1.0 - tail or above > 1.0 - tail:
        verdict = "accept_a1"
    else:
        verdict = "withhold"
    return ComparatorResult(
        procedure="rope_decision",
        statistic=posterior_region_prob(post, rope),
        verdict=verdict,
        threshold=mass,
        detail=(
            f"central credible interval at mass {mass:g} vs rope "
            f"[{hull.lo:.6g}, {hull.hi:.6g}]: P(theta < {hull.lo:.6g}) = {below:.6g} "
            f"and P(theta > {hull.hi:.6g}) = {above:.6g} against (1 - mass)/2 = {tail:.6g}"
        ),
    )


def _region_masses(
    tails_at: Callable[[float], tuple[float, float]], pair: HypothesisPair
) -> dict[str, float]:
    """The untruncated mass of each hypothesis region, from the tails at
    its interval ends (effect scale)."""
    return {
        name: sum(
            _mass_between(tails_at(itv.lo), tails_at(itv.hi)) for itv in region.intervals
        )
        for name, region in (("h0", pair.h0), ("h1", pair.h1))
    }


def prior_region_masses(
    model: BinomialModel | NormalKnownVarModel, pair: HypothesisPair
) -> dict[str, float]:
    """The mass of H0 and H1 under the model's own untruncated prior, the
    denominators of ``interval_bayes_factor``. Both regions must map into
    the family's support and be non-empty with positive prior mass."""
    row = FAMILIES[family_of(model)]
    for itv in (*pair.h0.intervals, *pair.h1.intervals):
        row.check_support(itv.lo, itv.hi)
    # the prior's two numbers are the model's last two fields
    params = tuple(vars(model).values())[-2:]
    masses = _region_masses(lambda t: row.tails(params, t - row.effect_shift), pair)
    for name, region in (("h0", pair.h0), ("h1", pair.h1)):
        if region.is_empty:
            raise ValidationError(f"{name} is empty; it has no prior mass")
        if masses[name] <= 0.0:
            raise ValidationError(f"{name} has zero prior mass under the given prior")
    return masses


def interval_bayes_factor(
    model: BinomialModel | NormalKnownVarModel,
    pair: HypothesisPair,
    prior: tuple[float, float] | None = None,
    threshold: float = 1.0,
    *,
    post: PosteriorModel | None = None,
    prior_masses: dict[str, float] | None = None,
) -> ComparatorResult:
    """BF_10 for H1 against H0 with the prior truncated to each region.

    With the prior truncated and renormalized to a region H, the marginal
    likelihood of H is the evidence times P(H | y) / P(H), so

        BF_10 = [P(H1 | y) / P(H0 | y)] / [P(H1) / P(H0)],

    the posterior odds over the prior odds of the two regions under the
    untruncated conjugate prior and posterior (Morey & Rouder 2011). The
    prior defaults to the model's own; ``prior`` is (alpha, beta) for the
    binomial model and (mean, sd) for the normal one, and overriding it is
    a second conjugate update. Region masses come from the tail on their
    own side, so far-tail evidence keeps its relative precision. Both
    regions must map into the family's support.

    A caller that runs many models under one prior may pass what it
    already holds, with ``prior`` None: ``post``, the model's posterior,
    whose tails at the region ends it may already have taken, and
    ``prior_masses``, from ``prior_region_masses``. Neither changes the
    result.

    The verdict is "favors_h1" above the threshold, "favors_h0" below its
    inverse, else "inconclusive"; a threshold below 1 would overlap the two.
    """
    if not (math.isfinite(threshold) and threshold >= 1.0):
        raise ValidationError(f"threshold must be finite and >= 1, got {threshold}")
    row = FAMILIES[family_of(model)]
    if prior is not None:
        if post is not None or prior_masses is not None:
            raise ValidationError("post and prior_masses hold the model's own prior")
        model = row.model(*tuple(vars(model).values())[:-2], *prior)
    if prior_masses is None:
        prior_masses = prior_region_masses(model, pair)
    if post is None:
        params = row.update(model)
        post_masses = _region_masses(lambda t: row.tails(params, t - row.effect_shift), pair)
    else:
        post_masses = _region_masses(post._tails_at, pair)
    # the marginal likelihood of each region over the common evidence
    marginal = {name: post_masses[name] / prior_masses[name] for name in ("h0", "h1")}
    if marginal["h0"] <= 0.0 and marginal["h1"] <= 0.0:
        raise NumericalError("both marginal likelihoods vanished")
    bf = math.inf if marginal["h0"] <= 0.0 else marginal["h1"] / marginal["h0"]
    if bf > threshold:
        verdict = "favors_h1"
    elif bf < 1.0 / threshold:
        verdict = "favors_h0"
    else:
        verdict = "inconclusive"
    return ComparatorResult(
        procedure="interval_bayes_factor",
        statistic=bf,
        verdict=verdict,
        bayes_factor=bf,
        detail="prior truncated and renormalized to each hypothesis region",
    )
