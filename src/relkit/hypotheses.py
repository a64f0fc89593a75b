"""Hypothesis pairs and how well they incorporate practical relevance.

A pair of disjoint region sets plays the roles of H0 (negligible effects)
and H1 (relevant effects). Incorporation is *complete* when every negligible
effect is in H0 and every relevant effect is in H1, and *partial* when H0
holds only negligible and H1 only relevant effects, that is, when it is
complete on the restricted space H0 ∪ H1. Complete implies partial; the
reverse fails, e.g. for a pair of singletons picked out of the space.

Both conditions quantify over a continuum, but every set involved is a
finite union of intervals. Membership is therefore constant between
consecutive cut points (the space ends, every hypothesis and subspace
endpoint, each crossing and each crossing +/- ROOT_TOL), so checking the cut
points and the midpoints between them is exact. Points within ROOT_TOL of a
loss-curve crossing are skipped, in ``_check_points`` alone: a hypothesis
endpoint that close to a crossing counts as matching it.

``LossRatio`` weighs the errors on the two hypotheses, type I (a1 under H0)
against type II (a0 under H1), for the hypothesis-ratio rule of
``decisions``; it lives here so that reading a config loads no decision
code.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from typing import NamedTuple

from dataclasses import dataclass, field

from .errors import ValidationError
from .loss import LossSpec
from .regions import (
    RegionSet,
    RelevancePartition,
    partition,
    region_contains,
    region_union,
    region_within,
)

# Points this close to a crossing are not checked, so a hypothesis endpoint
# written as a decimal (the published 0.106) matches the computed root.
ROOT_TOL = 1e-9


@dataclass(frozen=True)
class HypothesisPair:
    """Two disjoint region sets hypothesizing H0 and H1."""

    h0: RegionSet
    h1: RegionSet
    # H0 ∪ H1, built once by the overlap check
    _union: RegionSet = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "_union", region_union(self.h0, self.h1))
        except ValidationError as exc:
            raise ValidationError(f"hypothesis regions overlap: {exc}") from exc


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


class CheckResult(NamedTuple):
    ok: bool
    witness: float | None


def derive_hypotheses(part: RelevancePartition) -> HypothesisPair:
    """The canonical pair H0 = negligible, H1 = relevant. Always complete."""
    return HypothesisPair(h0=part.negligible, h1=part.relevant)


def _check_points(
    pair: HypothesisPair, spec: LossSpec, subspace: RegionSet | None
) -> Iterator[tuple[float, bool]]:
    """Yield, in increasing order, the cut points and the midpoints between
    them that lie in ``subspace`` (the whole space when None) and farther
    than ROOT_TOL from every crossing, each with whether the partition
    counts it relevant. Lazy, so the first violation ends the scan."""
    space = spec.space
    if not (region_within(pair.h0, space) and region_within(pair.h1, space)):
        raise ValidationError("hypothesis regions must lie within the parameter space")
    part = partition(spec)
    cuts = {space.lo, space.hi}
    for region in (pair.h0, pair.h1, subspace or RegionSet()):
        for itv in region.intervals:
            cuts.update((itv.lo, itv.hi))
    for c in part.crossings:
        cuts.update((c - ROOT_TOL, c, c + ROOT_TOL))
    pts = sorted(t for t in cuts if space.lo <= t <= space.hi)
    mids = [0.5 * (a + b) for a, b in zip(pts, pts[1:])]
    for t in sorted(pts + mids):
        if subspace is not None and not region_contains(subspace, t):
            continue
        if any(abs(t - c) < ROOT_TOL for c in part.crossings):
            continue
        yield t, region_contains(part.relevant, t)


def check_complete(
    pair: HypothesisPair,
    spec: LossSpec,
    subspace: RegionSet | None = None,
) -> CheckResult:
    """Does H0 contain all negligible and H1 all relevant effects?

    With ``subspace`` given, quantification is restricted to effect values
    inside it (the restricted-parameter-space reading for pairs that only
    partially incorporate relevance).

    Returns (ok, witness); the witness is the smallest checked point
    violating the condition when ok is False.
    """
    for t, relevant in _check_points(pair, spec, subspace):
        if not region_contains(pair.h1 if relevant else pair.h0, t):
            return CheckResult(False, t)
    return CheckResult(True, None)


def check_partial(pair: HypothesisPair, spec: LossSpec) -> CheckResult:
    """Does H0 contain only negligible and H1 only relevant effects? That is
    complete incorporation on the restricted space H0 ∪ H1; the witness is
    the smallest checked point that the pair misclassifies."""
    return check_complete(pair, spec, restricted_space(pair))


def restricted_space(pair: HypothesisPair) -> RegionSet:
    """The union of both hypotheses: the parameter space they act on."""
    return pair._union
