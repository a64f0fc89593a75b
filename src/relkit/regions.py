"""Interval sets and the practical-relevance partition of a parameter space.

An effect value is practically relevant when acting on it (``a1``) carries
strictly smaller loss than acting as if it were absent (``a0``). Ties count
as negligible. :func:`partition` turns a loss specification into the exact
negligible/relevant split of the space: between knots the loss difference is
a polynomial of degree <= 2, so the loss-curve crossings are its roots in
closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

from .errors import ValidationError
from .loss import LossSpec, ParameterSpace, Piece, _about, _piece_at, loss_difference


@dataclass(frozen=True)
class Interval:
    """One interval with explicit endpoint openness."""

    lo: float
    hi: float
    lo_open: bool = False
    hi_open: bool = False

    def __post_init__(self) -> None:
        lo, hi = float(self.lo), float(self.hi)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValidationError("interval endpoints must be finite")
        if lo > hi:
            raise ValidationError(f"interval needs lo <= hi, got [{lo}, {hi}]")
        if lo == hi and (self.lo_open or self.hi_open):
            raise ValidationError(f"degenerate open interval at {lo} is empty")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def contains(self, theta: float) -> bool:
        if theta < self.lo or theta > self.hi:
            return False
        if theta == self.lo and self.lo_open:
            return False
        if theta == self.hi and self.hi_open:
            return False
        return True

    @property
    def length(self) -> float:
        return self.hi - self.lo


def _canonicalize(intervals: tuple[Interval, ...]) -> tuple[Interval, ...]:
    """Sort, reject overlaps, and merge intervals that share a compatible
    endpoint (one side closed), e.g. [a, b) + [b, c] -> [a, c]."""
    ordered = sorted(intervals, key=lambda i: (i.lo, i.hi))
    merged: list[Interval] = []
    for cur in ordered:
        if not merged:
            merged.append(cur)
            continue
        prev = merged[-1]
        if cur.lo < prev.hi:
            raise ValidationError(
                f"intervals overlap: [{prev.lo}, {prev.hi}] and [{cur.lo}, {cur.hi}]"
            )
        if cur.lo == prev.hi:
            if not prev.hi_open and not cur.lo_open:
                raise ValidationError(
                    f"intervals overlap at the shared endpoint {cur.lo}"
                )
            if prev.hi_open != cur.lo_open:
                merged[-1] = Interval(prev.lo, cur.hi, prev.lo_open, cur.hi_open)
                continue
            # both open: a pinhole gap at the shared endpoint, keep separate
        merged.append(cur)
    return tuple(merged)


@dataclass(frozen=True)
class RegionSet:
    """Finite union of disjoint intervals, kept in canonical (merged) form."""

    intervals: tuple[Interval, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "intervals", _canonicalize(tuple(self.intervals)))

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    @classmethod
    def single(
        cls, lo: float, hi: float, lo_open: bool = False, hi_open: bool = False
    ) -> "RegionSet":
        return cls((Interval(lo, hi, lo_open, hi_open),))

    @classmethod
    def point(cls, value: float) -> "RegionSet":
        return cls((Interval(value, value),))


def region_contains(region: RegionSet, theta: float) -> bool:
    """Membership respecting open/closed endpoints."""
    for itv in region.intervals:
        if itv.contains(theta):
            return True
    return False


def region_measure(region: RegionSet) -> float:
    """Total length; endpoint openness is immaterial, points contribute 0."""
    return sum(itv.length for itv in region.intervals)


def region_hull(region: RegionSet) -> Interval:
    """Smallest single interval containing the set."""
    if region.is_empty:
        raise ValidationError("hull of an empty region set")
    first, last = region.intervals[0], region.intervals[-1]
    return Interval(first.lo, last.hi, first.lo_open, last.hi_open)


def region_union(a: RegionSet, b: RegionSet) -> RegionSet:
    """Union of two disjoint region sets (overlaps are rejected)."""
    return RegionSet(a.intervals + b.intervals)


def region_within(region: RegionSet, space: ParameterSpace) -> bool:
    return all(
        space.lo <= itv.lo and itv.hi <= space.hi for itv in region.intervals
    )


@dataclass(frozen=True)
class RelevancePartition:
    """Split of the parameter space into negligible and relevant regions.

    ``crossings`` are the boundary points of the relevant set inside the
    space; each crossing itself belongs to the negligible set (ties are
    negligible).
    """

    negligible: RegionSet
    relevant: RegionSet
    crossings: tuple[float, ...]


def is_practically_relevant(spec: LossSpec, theta: float) -> bool:
    """True iff a1 has strictly smaller loss than a0 at theta."""
    return loss_difference(spec, theta) < 0.0


def _quadratic_roots(c0: float, c1: float, c2: float) -> tuple[float, ...]:
    """Real roots of c0 + c1 * u + c2 * u**2, by the cancellation-free formula."""
    if c2 == 0.0:
        return (-c0 / c1,) if c1 != 0.0 else ()
    disc = c1 * c1 - 4.0 * c2 * c0
    if disc < 0.0:
        return ()
    q = -0.5 * (c1 + math.copysign(math.sqrt(disc), c1))
    return (q / c2, c0 / q) if q != 0.0 else (0.0,)


def _difference(p0: Piece, p1: Piece, theta: float) -> float:
    """The loss difference at theta on the single pieces p0 and p1, as
    ``loss_difference`` takes it where they hold theta."""
    (o0, a0, b0, c0), (o1, a1, b1, c1) = p0, p1
    u0, u1 = theta - o0, theta - o1
    return (a1 + u1 * (b1 + u1 * c1)) - (a0 + u0 * (b0 + u0 * c0))


def _roots(p0: Piece, p1: Piece, da: float, db: float, a: float, b: float) -> tuple[float, ...]:
    """Roots of the loss difference on [a, b], where the curves are the
    single pieces p0 and p1 and the difference is da at a and db at b; the
    quadratic case may also return roots outside [a, b]."""
    if p0[3] == p1[3] == 0.0:
        # linear: a root needs a strict sign change between the exact end values
        if da == 0.0 or db == 0.0 or (da < 0.0) == (db < 0.0):
            return ()
        return (a + (b - a) * da / (da - db),)
    # both curves quadratic: expand a1 about a0's vertex
    o, c0, c1, c2 = p0
    b0, b1, b2 = _about(p1, o)
    return tuple(o + u for u in _quadratic_roots(b0 - c0, b1 - c1, b2 - c2))


def partition(spec: LossSpec) -> RelevancePartition:
    """Compute the negligible/relevant partition induced by a loss spec.

    The loss difference is a polynomial of degree <= 2 between consecutive
    knots of the two curves, so its roots there come in closed form. Roots
    are ties and go to the negligible side; every knot and every open gap
    between consecutive points is classified by the sign of the difference.
    ``crossings`` are the boundary points of the relevant set inside the
    space, so a point where the curves touch without crossing is a
    negligible singleton and a crossing. A LossSpec is checked when it is
    built, so every spec has a partition; it is computed on first use and
    kept on the spec.
    """
    part = spec._partition
    if part is None:
        part = _partition(spec)
        object.__setattr__(spec, "_partition", part)
    return part


def _partition(spec: LossSpec) -> RelevancePartition:
    space, panels = spec.space, spec._panels
    starts = [a for a, _, _ in panels]
    # the difference at each panel's start on the panel's pieces, and at
    # the space's end on the pieces that hold it, which may start there
    ends = [_difference(p0, p1, a) for a, _, (p0, p1) in panels]
    ends.append(_difference(*(_piece_at(curve, space.hi) for curve in spec._curves), space.hi))
    roots = {
        r
        for (a, b, (p0, p1)), da, db in zip(panels, ends, ends[1:])
        for r in _roots(p0, p1, da, db, a, b)
        if a <= r <= b
    }
    # the difference at every point, 0 at a root: roots are ties
    at = dict(zip(starts + [space.hi], ends))
    at.update(dict.fromkeys(roots, 0.0))

    # each point and each open gap between neighbours, in order, classified
    # by the sign of the difference, a gap's at its midpoint on the pieces
    # of the panel that holds it; runs of one class are merged as they
    # come, each as [lo, hi, lo_open, hi_open, relevant]
    runs: list[list] = []

    def add(lo: float, hi: float, is_open: bool, relevant: bool) -> None:
        if runs and runs[-1][4] == relevant:
            runs[-1][1], runs[-1][3] = hi, is_open
        else:
            runs.append([lo, hi, is_open, is_open, relevant])

    k, q = 0, None
    for p in sorted(at):
        if q is not None:
            t = 0.5 * (q + p)
            while k + 1 < len(panels) and starts[k + 1] <= t:
                k += 1
            # a midpoint that rounds onto a point takes that point's difference
            d = at[t] if t in at else _difference(*panels[k][2], t)
            add(q, p, True, d < 0.0)
        add(p, p, False, at[p] < 0.0)
        q = p
    negligible, relevant = (
        RegionSet(tuple(Interval(*run[:4]) for run in runs if run[4] == side))
        for side in (False, True)
    )
    edges = {x for itv in relevant.intervals for x in (itv.lo, itv.hi)}
    crossings = sorted(x for x in edges if space.lo < x < space.hi)
    return RelevancePartition(negligible=negligible, relevant=relevant, crossings=tuple(crossings))
