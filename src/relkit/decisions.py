"""Two-action decisions from a posterior.

Two rules are provided. The hypothesis-ratio rule compares the posterior
odds of H1 against H0 with a loss ratio weighing type-I consequences
(deciding a1 when H0 holds) against type-II consequences (deciding a0 when
H1 holds); an interval-valued ratio yields a three-way rule whose middle
outcome is "indeterminate". The expected-loss rule takes the expectation of
the full loss curves under the posterior and the argmin: in closed form
from the partial moments of a normal posterior, by adaptive quadrature for
a beta posterior until ROADMAP item 1 re-records the benchmark's tail
references.

The hypothesis-ratio rule implicitly treats the loss as constant within each
hypothesis region; when it is not, use the expected-loss rule instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import NumericalError, ValidationError
from .hypotheses import HypothesisPair
from .inference import (
    PosteriorModel,
    _partial_moments,
    concentration_splits,
    posterior_region_prob,
    quadrature,
)
from .loss import ACTIONS, LossSpec, Piece, _about, _piece_at, breakpoints
from .regions import partition, region_measure

EXPECTED_LOSS_TIE_TOL = 1e-10
_COVERAGE_TOL = 1e-9


@dataclass(frozen=True)
class LossRatio:
    """Ratio of type-I to type-II loss; scalar when lo == hi, else an
    interval of plausible ratios."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValidationError("loss ratio must be finite")
        if not 0.0 < self.lo <= self.hi:
            raise ValidationError(
                f"loss ratio needs 0 < lo <= hi, got [{self.lo}, {self.hi}]"
            )

    @classmethod
    def scalar(cls, value: float) -> "LossRatio":
        return cls(value, value)

    @property
    def is_scalar(self) -> bool:
        return self.lo == self.hi


@dataclass(frozen=True)
class DecisionOutcome:
    """Decision plus the evidence that produced it.

    posterior_h0/posterior_h1 are the region probabilities renormalized to
    sum to one. For the hypothesis-ratio rule the threshold fields carry the
    ratio bounds; for the expected-loss rule they carry the two posterior
    expected losses (a0 in threshold_lo, a1 in threshold_hi).
    """

    decision: str
    posterior_h0: float
    posterior_h1: float
    posterior_odds: float
    threshold_lo: float
    threshold_hi: float
    warnings: tuple[str, ...] = ()


def decide_from_odds(odds: float, ratio: LossRatio) -> str:
    """Compare posterior odds of H1 to the loss ratio.

    Scalar ratio: a1 exactly when odds exceed it, ties go to a0. Interval
    ratio: a1 above the interval, a0 below it, indeterminate inside or on
    its boundary.
    """
    if ratio.is_scalar:
        return "a1" if odds > ratio.hi else "a0"
    if odds > ratio.hi:
        return "a1"
    if odds < ratio.lo:
        return "a0"
    return "indeterminate"


def _coverage_check(post: PosteriorModel, pair: HypothesisPair, allow: bool) -> None:
    covered = region_measure(pair.h0) + region_measure(pair.h1)
    span = post.space.span
    if span - covered > _COVERAGE_TOL * max(1.0, span) and not allow:
        raise ValidationError(
            "hypotheses do not jointly cover the parameter space; renormalizing "
            "over their union discards all other effect values, which is a "
            "strong claim. Pass allow_restricted_space=True to accept it."
        )


def bayes_two_action_decision(
    post: PosteriorModel,
    pair: HypothesisPair,
    ratio: LossRatio,
    allow_restricted_space: bool = False,
) -> DecisionOutcome:
    """Hypothesis-based decision from posterior region odds.

    a1 is optimal when its expected loss l_I * P(H0|y) drops below
    l_II * P(H1|y), i.e. when the posterior odds exceed l_I / l_II.
    """
    _coverage_check(post, pair, allow_restricted_space)
    p0 = posterior_region_prob(post, pair.h0)
    p1 = posterior_region_prob(post, pair.h1)
    total = p0 + p1
    if total <= 0.0:
        raise NumericalError(
            "degenerate evidence: both hypothesis regions have zero "
            "posterior probability"
        )
    odds = math.inf if p0 == 0.0 else p1 / p0
    return DecisionOutcome(
        decision=decide_from_odds(odds, ratio),
        posterior_h0=p0 / total,
        posterior_h1=p1 / total,
        posterior_odds=odds,
        threshold_lo=ratio.lo,
        threshold_hi=ratio.hi,
    )


def _weighted(piece: Piece, log_density) -> Callable[[float], float]:
    """theta -> the piece's polynomial at theta times exp(log_density(theta))."""
    o, c0, c1, c2 = piece
    exp = math.exp
    return lambda t: (c0 + (t - o) * (c1 + (t - o) * c2)) * exp(log_density(t))


def _closed_form_expected_losses(post: PosteriorModel, spec: LossSpec) -> dict:
    """E[L(a) | y] for a normal posterior, exact up to rounding.

    Each panel's partial moments are taken once, about the point of the
    panel nearest the posterior mean, and shared by both actions: each
    action's piece is re-expanded about that point, where its polynomial is
    c0 + c1*u + c2*u**2, and contributes c0*M0 + c1*M1 + c2*M2.
    """
    loc = post.native_location_scale[0]
    sums = [0.0] * len(ACTIONS)
    for a, b, pieces in spec._panels:
        origin = min(max(loc, a), b)
        m0, m1, m2 = _partial_moments(post, a, b, origin)
        for i, piece in enumerate(pieces):
            c0, c1, c2 = _about(piece, origin)
            sums[i] += c0 * m0 + c1 * m1 + c2 * m2
    total = post._ends[2]
    return {action: value / total for action, value in zip(ACTIONS, sums)}


def _quadrature_expected_losses(
    post: PosteriorModel, spec: LossSpec
) -> tuple[dict, list[str]]:
    """E[L(a) | y] by adaptive quadrature, for beta posteriors, and a warning
    for each action whose quadrature reached its depth limit."""
    # Every loss piece start is a cut, so each quadrature panel lies inside
    # one piece and integrates that piece's polynomial. The panels span the
    # posterior's space, the only place its bound density is valid.
    lo, hi = post.space.lo, post.space.hi
    cuts = set(breakpoints(spec) + concentration_splits(post))
    points = [lo, *sorted(c for c in cuts if lo < c < hi), hi]
    share = 1e-8 / (len(points) - 1)
    warnings: list[str] = []
    expected = {}
    for action, curve in zip(ACTIONS, spec._curves):
        parts = [
            quadrature(_weighted(_piece_at(curve, a), post.log_density), a, b, tol=share)
            for a, b in zip(points[:-1], points[1:])
        ]
        if not all(part.converged for part in parts):
            warnings.append(
                f"expected loss for {action} reached quadrature depth limit "
                f"(error estimate {sum(part.error for part in parts):.3g})"
            )
        expected[action] = sum(part.value for part in parts)
    return expected, warnings


def expected_loss_decision(post: PosteriorModel, spec: LossSpec) -> DecisionOutcome:
    """Full-loss decision: argmin of E[L(theta, a) | y], ties to a0.

    A normal posterior's expected losses are closed-form partial moments. A
    beta posterior's still come from adaptive quadrature: the benchmark's
    analyze references record the quadrature's values on its k = 0 and
    k = n tail requests, and that path can be deleted once ROADMAP item 1
    re-records them exactly. The posterior region probabilities reported
    alongside refer to the relevance partition the loss induces.
    """
    if abs(post.space.lo - spec.space.lo) > 1e-12 or abs(
        post.space.hi - spec.space.hi
    ) > 1e-12:
        raise ValidationError(
            "posterior and loss specification must share the effect space"
        )
    if post.family == "normal":
        expected, warnings = _closed_form_expected_losses(post, spec), []
    else:
        expected, warnings = _quadrature_expected_losses(post, spec)
    if expected["a1"] < expected["a0"] - EXPECTED_LOSS_TIE_TOL:
        decision = "a1"
    else:
        decision = "a0"

    part = partition(spec)
    p0 = posterior_region_prob(post, part.negligible)
    p1 = posterior_region_prob(post, part.relevant)
    total = p0 + p1
    return DecisionOutcome(
        decision=decision,
        posterior_h0=p0 / total,
        posterior_h1=p1 / total,
        posterior_odds=math.inf if p0 == 0.0 else p1 / p0,
        threshold_lo=expected["a0"],
        threshold_hi=expected["a1"],
        warnings=tuple(warnings),
    )
