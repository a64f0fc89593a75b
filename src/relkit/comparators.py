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
over the prior odds of the two regions.

Each procedure is a public function that checks its arguments, a private
rule that computes the verdict and what the result needs from the data,
and a private builder of the result. Every command binds its procedures
through ``simulate.bind_procedure``, which makes the same checks once and
calls the same rules per dataset, on a posterior the procedures of one
dataset share, for models of the one prior it was bound to; the values a
rule returns give both the result and the coordinates a sweep certifies
with. The public functions serve library callers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from . import values
from .errors import NumericalError, ValidationError
from .hypotheses import HypothesisPair
from .inference import (
    FAMILIES,
    BinomialModel,
    NormalKnownVarModel,
    PosteriorModel,
    Family,
    _pair_ends,
    _region_masses,
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
        if self.bayes_factor is not None:
            _check_bayes_factor(self.bayes_factor)


def _check_bayes_factor(bf: float) -> None:
    # a ratio of positive masses may underflow to 0.0 or overflow to inf;
    # both are valid answers, while NaN and negative values are not
    if not bf >= 0.0:
        raise ValidationError(f"Bayes factor must be a nonnegative ratio: {bf}")


def _nhst(point_null: Callable, model, alpha: float) -> tuple[str, float, float]:
    """The point-null rule: (verdict, p-value, statistic)."""
    p, statistic = point_null(model)
    return ("reject" if p < alpha else "fail_to_reject"), p, statistic


def _nhst_result(
    row: Family, model, alpha: float, verdict: str, p: float, statistic: float
) -> ComparatorResult:
    return ComparatorResult(
        procedure="nhst_point_null",
        statistic=statistic,
        verdict=verdict,
        p_value=p,
        alpha=alpha,
        detail=row.point_null_detail.format(model=model, statistic=statistic),
    )


def nhst_point_null(
    model: BinomialModel | NormalKnownVarModel, alpha: float
) -> ComparatorResult:
    """Two-sided test of the single null value representing no effect.

    Binomial: exact test of pi = 1/2 with the doubled-smaller-tail p-value,
    clipped at 1. Normal: z-test of a zero mean.
    """
    values.check("alpha", values.probability, alpha)
    row = FAMILIES[family_of(model)]
    return _nhst_result(row, model, alpha, *_nhst(row.point_null, model, alpha))


def _tost_tails(model: NormalKnownVarModel, lo: float, hi: float) -> tuple[float, ...]:
    """The two one-sided z-tests: (z_lower, p_lower, z_upper, p_upper)."""
    se = model.sigma / math.sqrt(model.n)
    z_lower = (model.ybar - lo) / se
    z_upper = (model.ybar - hi) / se
    return z_lower, 1.0 - normal_cdf(z_lower), z_upper, normal_cdf(z_upper)


def _tost(tails: tuple[float, ...], alpha: float) -> tuple[str, float, float]:
    """The equivalence rule on the tails of ``_tost_tails``: (verdict, the
    larger one-sided p, its z)."""
    z_lower, p_lower, z_upper, p_upper = tails
    if p_lower >= p_upper:
        p, statistic = p_lower, z_lower
    else:
        p, statistic = p_upper, z_upper
    return ("equivalent" if p < alpha else "not_equivalent"), p, statistic


def _tost_result(
    lo: float, hi: float, alpha: float, verdict: str, p: float, statistic: float
) -> ComparatorResult:
    return ComparatorResult(
        procedure="tost_equivalence",
        statistic=statistic,
        verdict=verdict,
        p_value=p,
        alpha=alpha,
        detail=f"one-sided z-tests against bounds ({lo:.6g}, {hi:.6g})",
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
    values.check("alpha", values.probability, alpha)
    lo, hi = bounds
    if not lo < hi:
        raise ValidationError(f"equivalence bounds need lo < hi, got ({lo}, {hi})")
    return _tost_result(lo, hi, alpha, *_tost(_tost_tails(model, lo, hi), alpha))


def _rope_verdict(below: float, above: float, tail: float) -> str:
    """The ROPE verdict from P(theta < lo | y) and P(theta > hi | y)."""
    if below <= tail and above <= tail:
        return "accept_a0"
    if below > 1.0 - tail or above > 1.0 - tail:
        return "accept_a1"
    return "withhold"


def _rope(post: PosteriorModel, lo: float, hi: float, tail: float) -> tuple[str, float, float]:
    """The ROPE rule: (verdict, P(theta < lo | y), P(theta > hi | y))."""
    below = post._prob(post.space.lo, lo)
    above = post._prob(hi, post.space.hi)
    return _rope_verdict(below, above, tail), below, above


def _rope_result(
    post: PosteriorModel,
    rope: RegionSet,
    mass: float,
    verdict: str,
    below: float,
    above: float,
) -> ComparatorResult:
    lo, hi, tail = rope.intervals[0].lo, rope.intervals[0].hi, 0.5 * (1.0 - mass)
    return ComparatorResult(
        procedure="rope_decision",
        statistic=posterior_region_prob(post, rope),
        verdict=verdict,
        threshold=mass,
        detail=(
            f"central credible interval at mass {mass:g} vs rope "
            f"[{lo:.6g}, {hi:.6g}]: P(theta < {lo:.6g}) = {below:.6g} "
            f"and P(theta > {hi:.6g}) = {above:.6g} against (1 - mass)/2 = {tail:.6g}"
        ),
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
    values.check("credible mass", values.probability, mass)
    lo, hi, tail = rope.intervals[0].lo, rope.intervals[0].hi, 0.5 * (1.0 - mass)
    if not lo < hi:
        raise ValidationError(f"rope needs lo < hi, got ({lo}, {hi})")
    return _rope_result(post, rope, mass, *_rope(post, lo, hi, tail))


def _prior_masses(row: Family, params: tuple[float, float], pair: HypothesisPair) -> tuple:
    """The masses (H0, H1) under the untruncated prior ``params`` of a family
    row; both regions must map into its support and have positive mass."""
    for itv in (*pair.h0.intervals, *pair.h1.intervals):
        row.check_support(itv.lo, itv.hi)
    masses = _region_masses(lambda t: row.tails(params, t), _pair_ends(pair.h0, pair.h1))
    for name, region, mass in zip(("h0", "h1"), (pair.h0, pair.h1), masses):
        if region.is_empty:
            raise ValidationError(f"{name} is empty; it has no prior mass")
        if mass <= 0.0:
            raise ValidationError(f"{name} has zero prior mass under the given prior")
    return masses


def _bayes_factor(
    post_masses: tuple[float, float], prior_masses: tuple[float, float], threshold: float
) -> tuple[str, float]:
    """The Bayes-factor rule: (verdict, BF_10) from the region masses."""
    # the marginal likelihood of each region over the common evidence
    m0, m1 = (post / prior for post, prior in zip(post_masses, prior_masses))
    if m0 <= 0.0 and m1 <= 0.0:
        raise NumericalError("both marginal likelihoods vanished")
    bf = math.inf if m0 <= 0.0 else m1 / m0
    _check_bayes_factor(bf)
    return _bayes_factor_verdict(bf, threshold), bf


def _bayes_factor_verdict(bf: float, threshold: float) -> str:
    if bf > threshold:
        return "favors_h1"
    if bf < 1.0 / threshold:
        return "favors_h0"
    return "inconclusive"


def _bayes_factor_result(verdict: str, bf: float) -> ComparatorResult:
    return ComparatorResult(
        procedure="interval_bayes_factor",
        statistic=bf,
        verdict=verdict,
        bayes_factor=bf,
        detail="prior truncated and renormalized to each hypothesis region",
    )


def interval_bayes_factor(
    model: BinomialModel | NormalKnownVarModel,
    pair: HypothesisPair,
    threshold: float = 1.0,
) -> ComparatorResult:
    """BF_10 for H1 against H0 with the prior truncated to each region.

    With the prior truncated and renormalized to a region H, the marginal
    likelihood of H is the evidence times P(H | y) / P(H), so

        BF_10 = [P(H1 | y) / P(H0 | y)] / [P(H1) / P(H0)],

    the posterior odds over the prior odds of the two regions under the
    untruncated conjugate prior and posterior (Morey & Rouder 2011); the
    prior is the model's own. Region masses come from the tail on their
    own side, so far-tail evidence keeps its relative precision. Both
    regions must map into the family's support and have positive prior
    mass.

    The verdict is "favors_h1" above the threshold, "favors_h0" below its
    inverse, else "inconclusive"; a threshold below 1 would overlap the two.
    """
    values.check("threshold", values.threshold, threshold)
    row = FAMILIES[family_of(model)]
    # the prior's two numbers are the model's last two fields; its masses
    # are checked before the posterior's are taken
    prior_masses = _prior_masses(row, tuple(vars(model).values())[-2:], pair)
    post = row.update(model)
    post_masses = _region_masses(lambda t: row.tails(post, t), _pair_ends(pair.h0, pair.h1))
    return _bayes_factor_result(*_bayes_factor(post_masses, prior_masses, threshold))
