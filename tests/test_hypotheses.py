import dataclasses
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from relkit.errors import ValidationError
from relkit.hypotheses import (
    ROOT_TOL,
    CheckResult,
    HypothesisPair,
    check_complete,
    check_partial,
    derive_hypotheses,
    restricted_space,
)
from relkit.loss import loss_difference
from relkit.regions import (
    Interval,
    RegionSet,
    partition,
    region_contains,
    region_within,
)

from conftest import equal_losses_spec, quadratic_pair_spec, random_loss_spec


def eq_9_10_pair():
    return HypothesisPair(
        h0=RegionSet.single(-0.106, 0.106),
        h1=RegionSet(
            (
                Interval(-0.5, -0.106, hi_open=True),
                Interval(0.106, 0.5, lo_open=True),
            )
        ),
    )


def singleton_pair():
    return HypothesisPair(h0=RegionSet.point(0.0), h1=RegionSet.point(0.3))


class TestHypothesisPair:
    def test_overlap_rejected(self):
        with pytest.raises(ValidationError, match="overlap"):
            HypothesisPair(
                h0=RegionSet.single(-0.2, 0.2), h1=RegionSet.single(0.1, 0.5)
            )

    def test_outside_space_rejected(self, coin_spec):
        pair = HypothesisPair(
            h0=RegionSet.single(-0.9, 0.0), h1=RegionSet.single(0.1, 0.5)
        )
        with pytest.raises(ValidationError, match="within"):
            check_complete(pair, coin_spec)


class TestDeriveHypotheses:
    def test_coin_demo_matches_published_regions(self, coin_spec):
        pair = derive_hypotheses(partition(coin_spec))
        (h0,) = pair.h0.intervals
        assert h0.lo == pytest.approx(-0.106, abs=1e-6)
        assert h0.hi == pytest.approx(0.106, abs=1e-6)
        left, right = pair.h1.intervals
        assert left.hi_open and right.lo_open
        assert (left.lo, right.hi) == (-0.5, 0.5)

    def test_everything_negligible(self):
        spec = equal_losses_spec()
        pair = derive_hypotheses(partition(spec))
        assert pair.h0.intervals == (Interval(-0.5, 0.5),)
        assert pair.h1.is_empty

    def test_quadratic_h1_is_middle_region(self):
        pair = derive_hypotheses(partition(quadratic_pair_spec()))
        (h1,) = pair.h1.intervals
        assert h1.lo == pytest.approx(-0.2, abs=1e-6)
        assert h1.hi == pytest.approx(0.2, abs=1e-6)


class TestCheckComplete:
    def test_coin_demo_published_pair(self, coin_spec):
        ok, witness = check_complete(eq_9_10_pair(), coin_spec)
        assert ok and witness is None

    def test_singleton_pair_fails_with_outside_witness(self, coin_spec):
        ok, witness = check_complete(singleton_pair(), coin_spec)
        assert not ok
        assert witness is not None and witness not in (0.0, 0.3)

    def test_equal_losses_whole_space_h0(self):
        spec = equal_losses_spec()
        pair = HypothesisPair(h0=RegionSet.single(-0.5, 0.5), h1=RegionSet())
        ok, _ = check_complete(pair, spec)
        assert ok


class TestCheckPartial:
    def test_singleton_pair_is_partial(self, coin_spec):
        ok, witness = check_partial(singleton_pair(), coin_spec)
        assert ok and witness is None

    def test_published_pair_is_partial(self, coin_spec):
        ok, _ = check_partial(eq_9_10_pair(), coin_spec)
        assert ok

    def test_negligible_point_in_h1_fails_with_witness_zero(self, coin_spec):
        pair = HypothesisPair(h0=RegionSet(), h1=RegionSet.point(0.0))
        ok, witness = check_partial(pair, coin_spec)
        assert not ok
        assert witness == 0.0


class TestRestrictionReading:
    def test_partial_only_pair_is_complete_on_its_union(self, coin_spec):
        pair = singleton_pair()
        union = restricted_space(pair)
        ok, _ = check_complete(pair, coin_spec, subspace=union)
        assert ok


def _shrunk_pair(part, margin=0.02):
    """Shrink every derived region inward: still partial, no longer complete
    (the shed margins hold effects assigned to neither hypothesis)."""
    def shrink(region):
        out = []
        for itv in region.intervals:
            lo, hi = itv.lo + margin, itv.hi - margin
            if lo < hi:
                out.append(Interval(lo, hi))
        return RegionSet(tuple(out))

    return HypothesisPair(h0=shrink(part.negligible), h1=shrink(part.relevant))


def _swapped_pair(part):
    return HypothesisPair(h0=part.relevant, h1=part.negligible)


def test_implication_battery():
    """complete implies partial across randomized losses and pairs, and the
    battery must contain genuinely partial-but-not-complete instances."""
    rng = random.Random(90210)
    partial_not_complete = 0
    checked = 0
    for _ in range(60):
        spec = random_loss_spec(rng)
        part = partition(spec)
        pairs = [derive_hypotheses(part), _shrunk_pair(part)]
        if not part.negligible.is_empty and not part.relevant.is_empty:
            pairs.append(_swapped_pair(part))
        for pair in pairs:
            complete_ok, _ = check_complete(pair, spec)
            partial_ok, _ = check_partial(pair, spec)
            checked += 1
            if complete_ok:
                assert partial_ok, "complete pair failed the partial check"
            if partial_ok and not complete_ok:
                partial_not_complete += 1
    assert checked >= 120
    assert partial_not_complete >= 1


def test_round_trip_derived_pairs_are_complete():
    rng = random.Random(777)
    for _ in range(20):
        spec = random_loss_spec(rng)
        pair = derive_hypotheses(partition(spec))
        ok, witness = check_complete(pair, spec)
        assert ok, f"derived pair not complete, witness {witness}"


def test_subspace_skips_outside_points(coin_spec):
    # restricting to h0 alone checks only the negligible side
    pair = eq_9_10_pair()
    ok, _ = check_complete(pair, coin_spec, subspace=pair.h0)
    assert ok
    assert region_contains(pair.h0, 0.0)


def _reference_points(pair, spec, subspace=None):
    """Cut points and midpoints, sorted, plus the crossings: the two checks'
    shared scan before each check filtered it in its own loop."""
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
    return sorted(pts + mids), part.crossings


def reference_complete(pair, spec, subspace=None):
    points, crossings = _reference_points(pair, spec, subspace)
    delta = lambda t: loss_difference(spec, t)
    for t in points:
        if subspace is not None and not region_contains(subspace, t):
            continue
        if any(abs(t - c) < ROOT_TOL for c in crossings):
            continue
        if delta(t) < 0.0:
            if not region_contains(pair.h1, t):
                return CheckResult(False, t)
        elif not region_contains(pair.h0, t):
            return CheckResult(False, t)
    return CheckResult(True, None)


def reference_partial(pair, spec):
    points, crossings = _reference_points(pair, spec)
    delta = lambda t: loss_difference(spec, t)
    for t in points:
        if any(abs(t - c) < ROOT_TOL for c in crossings):
            continue
        relevant = delta(t) < 0.0
        if relevant and region_contains(pair.h0, t):
            return CheckResult(False, t)
        if not relevant and region_contains(pair.h1, t):
            return CheckResult(False, t)
    return CheckResult(True, None)


@st.composite
def losses_and_pairs(draw):
    """A random loss and a disjoint pair: either the derived pair with each
    crossing moved by 0, ROOT_TOL / 2 or ROOT_TOL, or a random pair whose
    endpoints include the space ends, crossings, points within ROOT_TOL of a
    crossing and points just that distance away."""
    spec = random_loss_spec(random.Random(draw(st.integers(0, 2**32 - 1))))
    lo, hi = spec.space.lo, spec.space.hi
    part = partition(spec)
    steps = (-1.0, -0.5, 0.0, 0.5, 1.0)
    if draw(st.booleans()):
        moved = {c: c + draw(st.sampled_from(steps)) * ROOT_TOL for c in part.crossings}

        def move(itv):
            return dataclasses.replace(
                itv, lo=moved.get(itv.lo, itv.lo), hi=moved.get(itv.hi, itv.hi)
            )

        regions = (part.negligible, part.relevant)
        h0, h1 = (RegionSet(tuple(map(move, r.intervals))) for r in regions)
        return spec, HypothesisPair(h0=h0, h1=h1)
    near = [c + k * ROOT_TOL for c in part.crossings for k in steps]
    special = [t for t in near if lo <= t <= hi] + [lo, hi]
    point = st.one_of(st.sampled_from(special), st.floats(lo, hi))
    pts = sorted(set(draw(st.lists(point, min_size=1, max_size=6))))
    roles = st.sampled_from([None, "h0", "h1"])
    parts = {"h0": [], "h1": []}
    covered = False  # whether a piece to the left already holds the point
    for p, q in zip(pts, pts[1:] + [None]):
        role = None if covered else draw(roles)
        if role is not None:
            parts[role].append(Interval(p, p))
            covered = True
        if q is None:
            break
        role = draw(roles)
        if role is None:
            covered = False
            continue
        hi_open = draw(st.booleans())
        parts[role].append(Interval(p, q, covered or draw(st.booleans()), hi_open))
        covered = not hi_open
    h0, h1 = (RegionSet(tuple(parts[role])) for role in ("h0", "h1"))
    return spec, HypothesisPair(h0=h0, h1=h1)


# ties everywhere: random losses almost never have one off a crossing
TIES = equal_losses_spec(), RegionSet.single(-0.5, 0.5)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@example((TIES[0], HypothesisPair(h0=TIES[1], h1=RegionSet())))
@example((TIES[0], HypothesisPair(h0=RegionSet(), h1=TIES[1])))
@given(losses_and_pairs())
def test_checks_match_the_reference_loops(case):
    spec, pair = case
    assert check_complete(pair, spec) == reference_complete(pair, spec)
    assert check_partial(pair, spec) == reference_partial(pair, spec)
    for subspace in (pair.h0, restricted_space(pair)):
        assert check_complete(pair, spec, subspace) == reference_complete(
            pair, spec, subspace
        )
