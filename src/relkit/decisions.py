"""Two-action decisions from a posterior.

Two rules are provided. The hypothesis-ratio rule compares the posterior
odds of H1 against H0 with a loss ratio weighing type-I consequences
(deciding a1 when H0 holds) against type-II consequences (deciding a0 when
H1 holds); an interval-valued ratio yields a three-way rule whose middle
outcome is "indeterminate". The expected-loss rule takes the expectation of
the full loss curves under the posterior and the argmin, in closed form
from the posterior's partial moments, with ties within a share of the
loss's peak going to a0. The values it prints for a beta posterior still
come from adaptive quadrature, until ROADMAP item 1 re-records the
benchmark's tail references; only a printed report integrates.

The hypothesis-ratio rule implicitly treats the loss as constant within each
hypothesis region; when it is not, use the expected-loss rule instead.

Every command binds both rules through ``simulate.bind_procedure``, whose
kernels call the private rules below, for models of the one prior they were
bound to, and report what the public functions return; the posterior a
verdict was taken from also gives the coordinates a sweep certifies with.
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
    _region_ends,
    _region_prob,
    concentration_splits,
    posterior_region_prob,
    quadrature,
)
from .loss import ACTIONS, LossSpec, ParameterSpace, Piece, _about, _piece_at, breakpoints
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


def _coverage_check(space: ParameterSpace, pair: HypothesisPair, allow: bool) -> None:
    covered = region_measure(pair.h0) + region_measure(pair.h1)
    span = space.span
    if span - covered > _COVERAGE_TOL * max(1.0, span) and not allow:
        raise ValidationError(
            "hypotheses do not jointly cover the parameter space; renormalizing "
            "over their union discards all other effect values, which is a "
            'strong claim. Set "allow_restricted_space": true (in Python, '
            "allow_restricted_space=True) to accept it."
        )


def _two_action(p0: float, p1: float, ratio: LossRatio) -> tuple[str, float]:
    """The hypothesis-ratio rule: (decision, posterior odds of H1) from the
    posterior probabilities of H0 and H1."""
    if p0 + p1 <= 0.0:
        raise NumericalError(
            "degenerate evidence: both hypothesis regions have zero "
            "posterior probability"
        )
    odds = math.inf if p0 == 0.0 else p1 / p0
    return decide_from_odds(odds, ratio), odds


def _two_action_outcome(
    p0: float, p1: float, ratio: LossRatio, decision: str, odds: float
) -> DecisionOutcome:
    total = p0 + p1
    return DecisionOutcome(
        decision=decision,
        posterior_h0=p0 / total,
        posterior_h1=p1 / total,
        posterior_odds=odds,
        threshold_lo=ratio.lo,
        threshold_hi=ratio.hi,
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
    _coverage_check(post.space, pair, allow_restricted_space)
    p0 = posterior_region_prob(post, pair.h0)
    p1 = posterior_region_prob(post, pair.h1)
    return _two_action_outcome(p0, p1, ratio, *_two_action(p0, p1, ratio))


def _weighted(piece: Piece, log_density) -> Callable[[float], float]:
    """theta -> the piece's polynomial at theta times exp(log_density(theta))."""
    o, c0, c1, c2 = piece
    exp = math.exp
    return lambda t: (c0 + (t - o) * (c1 + (t - o) * c2)) * exp(log_density(t))


def _closed_form_expected_losses(post: PosteriorModel, spec: LossSpec) -> dict:
    """E[L(a) | y] for a posterior of either family, exact up to rounding.

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


def _tie_tol(spec: LossSpec) -> float:
    """The tie tolerance of the expected-loss rule, a share of the loss's
    peak, so that rescaling a loss changes no decision; it is 0 only for a
    loss that is 0 everywhere, whose expected losses tie exactly."""
    return EXPECTED_LOSS_TIE_TOL * spec._peak


def _argmin(expected: dict, tol: float) -> str:
    """a1 where its expected loss is below a0's by more than tol, else a0."""
    return "a1" if expected["a1"] < expected["a0"] - tol else "a0"


def _expected_loss(post: PosteriorModel, spec: LossSpec) -> tuple[str, dict]:
    """The expected-loss rule: (decision, E[L(a) | y] per action)."""
    expected = _closed_form_expected_losses(post, spec)
    return _argmin(expected, _tie_tol(spec)), expected


def _printed_expected_losses(
    post: PosteriorModel, spec: LossSpec, decision: str, expected: dict
) -> tuple[dict, list[str]]:
    """The E[L(a) | y] that decide and compare print, and their warnings.

    A beta posterior's printed values still come from adaptive quadrature:
    the benchmark's analyze reference records them on its k = n tail
    requests. Once ROADMAP item 1 re-records those exactly, item 2 deletes
    this function, and the closed-form values that decide are printed. A
    warning names each action whose quadrature reached its depth limit, and
    a ranking of the actions by the printed values against the decision.
    """
    if post.family == "normal":
        return expected, []
    # Every loss piece start is a cut, so each quadrature panel lies inside
    # one piece and integrates that piece's polynomial. The panels span the
    # posterior's space, the only place its bound density is valid.
    lo, hi = post.space.lo, post.space.hi
    cuts = set(breakpoints(spec) + concentration_splits(post))
    points = [lo, *sorted(c for c in cuts if lo < c < hi), hi]
    share = 1e-8 / (len(points) - 1)
    warnings: list[str] = []
    printed = {}
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
        printed[action] = sum(part.value for part in parts)
    if _argmin(printed, _tie_tol(spec)) != decision:
        warnings.append(
            "the quadrature's expected losses rank the actions against the "
            f"decision; in closed form E[L(a0)] = {expected['a0']:.6g} and "
            f"E[L(a1)] = {expected['a1']:.6g}"
        )
    return printed, warnings


def _expected_loss_outcome(
    post: PosteriorModel,
    spec: LossSpec,
    part_ends: tuple[tuple, tuple],
    decision: str,
    expected: dict,
) -> DecisionOutcome:
    """The outcome of the expected-loss rule, with the printed expected
    losses and the posterior probabilities of the negligible and relevant
    regions, whose interval ends ``part_ends`` holds."""
    printed, warnings = _printed_expected_losses(post, spec, decision, expected)
    p0 = _region_prob(post, part_ends[0])
    p1 = _region_prob(post, part_ends[1])
    total = p0 + p1
    return DecisionOutcome(
        decision=decision,
        posterior_h0=p0 / total,
        posterior_h1=p1 / total,
        posterior_odds=math.inf if p0 == 0.0 else p1 / p0,
        threshold_lo=printed["a0"],
        threshold_hi=printed["a1"],
        warnings=tuple(warnings),
    )


def _partition_ends(spec: LossSpec, space: ParameterSpace) -> tuple[tuple, tuple]:
    """The interval ends of the negligible and relevant regions of the
    loss's partition, checked against the space."""
    part = partition(spec)
    return _region_ends(part.negligible, space), _region_ends(part.relevant, space)


def expected_loss_decision(post: PosteriorModel, spec: LossSpec) -> DecisionOutcome:
    """Full-loss decision: argmin of E[L(theta, a) | y], ties to a0.

    The decision comes from the closed-form expected losses of either
    family. The expected losses reported for a beta posterior still come
    from adaptive quadrature (``_printed_expected_losses``), with a warning
    where they rank the actions against the decision. The posterior region
    probabilities reported alongside refer to the relevance partition the
    loss induces.
    """
    if abs(post.space.lo - spec.space.lo) > 1e-12 or abs(
        post.space.hi - spec.space.hi
    ) > 1e-12:
        raise ValidationError(
            "posterior and loss specification must share the effect space"
        )
    part_ends = _partition_ends(spec, post.space)
    return _expected_loss_outcome(post, spec, part_ends, *_expected_loss(post, spec))
