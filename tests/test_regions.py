import random

import pytest

from relkit.errors import ValidationError
from relkit.loss import loss_difference
from relkit.regions import (
    Interval,
    RegionSet,
    is_practically_relevant,
    partition,
    region_contains,
    region_hull,
    region_measure,
    region_union,
)

from conftest import (
    a0_always_better_spec,
    equal_losses_spec,
    quadratic_pair_spec,
    random_loss_spec,
)

COIN_B0 = RegionSet.single(-0.106, 0.106)
COIN_B1 = RegionSet(
    (
        Interval(-0.5, -0.106, lo_open=False, hi_open=True),
        Interval(0.106, 0.5, lo_open=True, hi_open=False),
    )
)


class TestIntervalAndRegionSet:
    def test_merge_compatible_endpoints(self):
        rs = RegionSet((Interval(0.0, 0.3, hi_open=True), Interval(0.3, 0.6)))
        assert rs.intervals == (Interval(0.0, 0.6),)

    def test_pinhole_gap_not_merged(self):
        rs = RegionSet((Interval(0.0, 0.3, hi_open=True), Interval(0.3, 0.6, lo_open=True)))
        assert len(rs.intervals) == 2

    def test_overlap_rejected(self):
        with pytest.raises(ValidationError):
            RegionSet((Interval(0.0, 0.4), Interval(0.2, 0.6)))
        with pytest.raises(ValidationError):
            RegionSet((Interval(0.0, 0.3), Interval(0.3, 0.6)))

    def test_degenerate_open_interval_rejected(self):
        with pytest.raises(ValidationError):
            Interval(0.1, 0.1, lo_open=True)

    def test_reversed_endpoints_rejected(self):
        with pytest.raises(ValidationError):
            Interval(0.5, 0.1)

    def test_singleton_merges_into_neighbour(self):
        rs = RegionSet((Interval(0.0, 0.0), Interval(0.0, 0.5, lo_open=True)))
        assert rs.intervals == (Interval(0.0, 0.5),)


class TestRegionContains:
    def test_coin_boundary_openness(self):
        assert region_contains(COIN_B0, 0.106)
        assert not region_contains(COIN_B1, 0.106)
        assert region_contains(COIN_B1, 0.1060001)
        assert region_contains(COIN_B1, -0.5)

    def test_empty_set(self):
        assert not region_contains(RegionSet(), 0.0)

    def test_point_set(self):
        rs = RegionSet.point(0.3)
        assert region_contains(rs, 0.3)
        assert not region_contains(rs, 0.3 + 1e-12)


class TestRegionMeasure:
    def test_values(self):
        assert region_measure(COIN_B0) == pytest.approx(0.212, abs=1e-15)
        assert region_measure(RegionSet.single(-0.5, 0.5)) == 1.0
        assert region_measure(RegionSet.point(0.0)) == 0.0
        assert region_measure(RegionSet()) == 0.0

    def test_union_and_hull(self):
        full = region_union(COIN_B0, COIN_B1)
        assert region_measure(full) == pytest.approx(1.0, abs=1e-15)
        hull = region_hull(COIN_B1)
        assert (hull.lo, hull.hi) == (-0.5, 0.5)


class TestPartitionCoinDemo:
    def test_regions_and_crossings(self, coin_spec):
        part = partition(coin_spec)
        assert len(part.crossings) == 2
        assert part.crossings[0] == pytest.approx(-0.106, abs=1e-6)
        assert part.crossings[1] == pytest.approx(0.106, abs=1e-6)

        (neg,) = part.negligible.intervals
        assert neg.lo == pytest.approx(-0.106, abs=1e-6)
        assert neg.hi == pytest.approx(0.106, abs=1e-6)
        assert not neg.lo_open and not neg.hi_open

        left, right = part.relevant.intervals
        assert (left.lo, left.lo_open) == (-0.5, False)
        assert left.hi == pytest.approx(-0.106, abs=1e-6) and left.hi_open
        assert right.lo == pytest.approx(0.106, abs=1e-6) and right.lo_open
        assert (right.hi, right.hi_open) == (0.5, False)

    def test_crossing_loss_difference_small(self, coin_spec):
        part = partition(coin_spec)
        for c in part.crossings:
            assert abs(loss_difference(coin_spec, c)) <= 1e-9

    def test_zero_effect_is_negligible(self, coin_spec):
        part = partition(coin_spec)
        assert region_contains(part.negligible, 0.0)


class TestPartitionOtherShapes:
    def test_a0_always_better(self):
        part = partition(a0_always_better_spec())
        assert part.crossings == ()
        assert part.relevant.is_empty
        assert part.negligible.intervals == (Interval(-0.5, 0.5),)

    def test_equal_losses_all_negligible(self):
        part = partition(equal_losses_spec())
        assert part.crossings == ()
        assert part.negligible.intervals == (Interval(-0.5, 0.5),)

    def test_quadratic_difference_roots(self):
        # analytic roots of theta^2 - 0.04 at +/-0.2; relevant in between
        part = partition(quadratic_pair_spec())
        assert part.crossings[0] == pytest.approx(-0.2, abs=1e-7)
        assert part.crossings[1] == pytest.approx(0.2, abs=1e-7)
        (rel,) = part.relevant.intervals
        assert rel.lo_open and rel.hi_open
        neg_lo, neg_hi = part.negligible.intervals
        assert (neg_lo.lo, neg_hi.hi) == (-0.5, 0.5)

    def test_narrow_negligible_band(self, unit_space):
        # a0 is strictly better only within 1e-5 of 0.1234567
        from relkit.loss import LossSpec, QuadraticParams

        spec = LossSpec(
            space=unit_space,
            kind="quadratic",
            params_a0=QuadraticParams(c=1.0, center=0.1234567),
            params_a1=QuadraticParams(c=0.0, offset=1e-10),
        )
        part = partition(spec)
        assert part.crossings == pytest.approx(
            (0.1234567 - 1e-5, 0.1234567 + 1e-5), abs=1e-12
        )
        assert region_contains(part.negligible, 0.1234567)
        assert not region_contains(part.relevant, 0.1234567)

    def test_touch_point_is_negligible_crossing(self, unit_space):
        # a1 is strictly better everywhere except a tie at 0
        from relkit.loss import CurveKnots, LossSpec

        a0 = CurveKnots(knots=(-0.5, 0.0, 0.5), values=(0.5, 0.2, 0.5))
        a1 = CurveKnots(knots=(-0.5, 0.0, 0.5), values=(0.3, 0.2, 0.3))
        spec = LossSpec(
            space=unit_space, kind="piecewise_linear", params_a0=a0, params_a1=a1
        )
        part = partition(spec)
        assert part.crossings == (0.0,)
        assert part.negligible.intervals == (Interval(0.0, 0.0),)
        assert part.relevant.intervals == (
            Interval(-0.5, 0.0, hi_open=True),
            Interval(0.0, 0.5, lo_open=True),
        )

    def test_tie_plateau_stays_negligible(self, unit_space):
        # curves coincide on [-0.1, 0.1], a1 wins beyond +0.3
        from relkit.loss import CurveKnots, LossSpec

        a0 = CurveKnots(knots=(-0.5, -0.1, 0.1, 0.3, 0.5), values=(0.4, 0.2, 0.2, 0.3, 0.5))
        a1 = CurveKnots(knots=(-0.5, -0.1, 0.1, 0.3, 0.5), values=(0.9, 0.2, 0.2, 0.3, 0.1))
        spec = LossSpec(space=unit_space, kind="piecewise_linear", params_a0=a0, params_a1=a1)
        part = partition(spec)
        assert region_contains(part.negligible, 0.0)
        assert region_contains(part.negligible, -0.3)
        assert region_contains(part.relevant, 0.45)


class TestPartitionOptions:
    def test_invalid_spec_raises(self, unit_space):
        from relkit.loss import LossSpec, QuadraticParams

        # the loss is checked when it is built, before partition can see it
        with pytest.raises(ValidationError, match="invalid loss specification"):
            LossSpec(
                space=unit_space,
                kind="quadratic",
                params_a0=QuadraticParams(c=-1.0),
                params_a1=QuadraticParams(c=1.0),
            )


def _xor_partition_property(spec, part, rng, points=2000):
    tol = 1e-9
    for _ in range(points):
        theta = rng.uniform(spec.space.lo, spec.space.hi)
        if any(abs(theta - c) <= tol for c in part.crossings):
            continue
        in_neg = region_contains(part.negligible, theta)
        in_rel = region_contains(part.relevant, theta)
        assert in_neg != in_rel, f"partition not exclusive at {theta}"
        assert in_rel == is_practically_relevant(spec, theta), (
            f"membership disagrees with the pointwise rule at {theta}"
        )
    for c in part.crossings:
        assert region_contains(part.negligible, c), f"crossing {c} not negligible"


def test_partition_matches_pointwise_rule_on_random_specs():
    rng = random.Random(1711)
    for _ in range(25):
        spec = random_loss_spec(rng)
        part = partition(spec)
        _xor_partition_property(spec, part, rng)


def test_partition_scaling_invariance():
    # scaling both curves by c > 0 must leave the crossings in place
    rng = random.Random(42)
    from relkit.loss import CurveKnots, LossSpec

    for _ in range(10):
        spec = random_loss_spec(rng)
        if spec.kind == "quadratic":
            continue
        part = partition(spec)
        scaled = LossSpec(
            space=spec.space,
            kind=spec.kind,
            params_a0=CurveKnots(
                knots=spec.params_a0.knots,
                values=tuple(3.7 * v for v in spec.params_a0.values),
            ),
            params_a1=CurveKnots(
                knots=spec.params_a1.knots,
                values=tuple(3.7 * v for v in spec.params_a1.values),
            ),
        )
        part_scaled = partition(scaled)
        assert len(part.crossings) == len(part_scaled.crossings)
        for a, b in zip(part.crossings, part_scaled.crossings):
            assert a == pytest.approx(b, abs=1e-8)


def test_is_practically_relevant_examples(coin_spec):
    assert not is_practically_relevant(coin_spec, 0.0)
    assert is_practically_relevant(coin_spec, 0.3)
    spec = equal_losses_spec()
    assert not is_practically_relevant(spec, 0.25)


def test_zero_effect_anchor_on_random_specs():
    # whenever a0 is strictly better at zero, zero must land in the
    # negligible region
    rng = random.Random(3)
    checked = 0
    for _ in range(60):
        spec = random_loss_spec(rng)
        if loss_difference(spec, 0.0) <= 1e-6:
            continue
        part = partition(spec)
        assert region_contains(part.negligible, 0.0)
        checked += 1
    assert checked >= 10
