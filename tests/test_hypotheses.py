import random

import pytest

from relkit.errors import ValidationError
from relkit.hypotheses import (
    HypothesisPair,
    check_complete,
    check_partial,
    derive_hypotheses,
    restricted_space,
)
from relkit.regions import (
    Interval,
    RegionSet,
    partition,
    region_contains,
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
