"""Property tests of the exact loss geometry over random losses, of the
mirror symmetry of the posterior functionals and the expected losses, and
of the interval-valued loss-ratio rule.

Example counts are kept small and the examples derandomized, so the suite
stays fast and every run checks the same losses. Knots, values and
quadratic coefficients lie on a 1/1000 grid: that produces exact ties,
touch points and crossings at knots, but no root within an ulp of a knot,
where float rounding of the root alone decides which side a point is on.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from relkit.comparators import interval_bayes_factor
from relkit.decisions import (
    LossRatio,
    bayes_two_action_decision,
    decide_from_odds,
    expected_loss_decision,
)
from relkit.hypotheses import (
    HypothesisPair,
    check_complete,
    check_partial,
    derive_hypotheses,
)
from relkit.inference import (
    BinomialModel,
    PosteriorModel,
    posterior_summary,
    posterior_update_binomial,
)
from relkit.loss import (
    CurveKnots,
    LossSpec,
    ParameterSpace,
    QuadraticParams,
    breakpoints,
    loss_difference,
)
from relkit.regions import (
    Interval,
    RegionSet,
    is_practically_relevant,
    partition,
    region_contains,
)

from test_hypotheses import _shrunk_pair, _swapped_pair

SPACE = ParameterSpace(-0.5, 0.5)
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def _grid(lo, hi):
    """Multiples of 1/1000: coarse enough for exact ties and touch points,
    fine enough for every shape of crossing."""
    return st.integers(round(lo * 1000), round(hi * 1000)).map(lambda i: i / 1000)


@st.composite
def _knot_curve(draw):
    interior = draw(st.lists(_grid(-0.49, 0.49), max_size=5, unique=True))
    knots = (-0.5, *sorted(interior), 0.5)
    values = draw(st.lists(_grid(0.0, 1.0), min_size=len(knots), max_size=len(knots)))
    return CurveKnots(knots=knots, values=tuple(values))


_quadratic = st.builds(
    QuadraticParams, c=_grid(0.0, 3.0), center=_grid(-0.4, 0.4), offset=_grid(0.0, 0.5)
)

losses = st.one_of(
    st.builds(
        lambda kind, a0, a1: LossSpec(SPACE, kind, a0, a1),
        st.sampled_from(["piecewise_linear", "table"]),
        _knot_curve(),
        _knot_curve(),
    ),
    st.builds(
        lambda a0, a1: LossSpec(SPACE, "quadratic", a0, a1), _quadratic, _quadratic
    ),
)


def _mirror(spec):
    def flip(params):
        if isinstance(params, QuadraticParams):
            return QuadraticParams(params.c, -params.center, params.offset)
        return CurveKnots(
            knots=tuple(-x for x in reversed(params.knots)),
            values=tuple(reversed(params.values)),
        )

    space = ParameterSpace(-spec.space.hi, -spec.space.lo)
    return LossSpec(space, spec.kind, flip(spec.params_a0), flip(spec.params_a1))


def _probe_points(spec, part):
    """Space ends, knots and crossings, plus the midpoints between them."""
    cuts = sorted({spec.space.lo, spec.space.hi, *breakpoints(spec), *part.crossings})
    return cuts + [0.5 * (a + b) for a, b in zip(cuts, cuts[1:])]


@PROPERTY
@given(losses)
def test_membership_matches_pointwise_rule(spec):
    part = partition(spec)
    for t in _probe_points(spec, part):
        in_rel = region_contains(part.relevant, t)
        assert in_rel != region_contains(part.negligible, t)
        if t in part.crossings:
            # a crossing is a tie; the pointwise difference there is only
            # rounding, of either sign
            assert not in_rel and abs(loss_difference(spec, t)) <= 1e-12
        else:
            assert in_rel == is_practically_relevant(spec, t), f"disagreement at {t}"


@PROPERTY
@given(losses)
def test_reflection_mirrors_partition(spec):
    part, mirrored = partition(spec), partition(_mirror(spec))
    assert len(mirrored.crossings) == len(part.crossings)
    for c, m in zip(part.crossings, reversed(mirrored.crossings)):
        assert m == pytest.approx(-c, abs=1e-12)
        assert region_contains(mirrored.negligible, m)
    for t in _probe_points(spec, part):
        if t not in part.crossings:
            assert region_contains(part.relevant, t) == region_contains(
                mirrored.relevant, -t
            ), f"label of {t} not mirrored"


@PROPERTY
@given(losses)
def test_complete_implies_partial(spec):
    part = partition(spec)
    pairs = [derive_hypotheses(part), _shrunk_pair(part)]
    if not part.negligible.is_empty and not part.relevant.is_empty:
        pairs.append(_swapped_pair(part))
    for pair in pairs:
        if check_complete(pair, spec).ok:
            assert check_partial(pair, spec).ok


@st.composite
def _counts_on_symmetric_space(draw):
    n = draw(st.integers(0, 400))
    k = draw(st.integers(0, n))
    half = draw(st.sampled_from([0.1, 0.15, 0.2, 0.3, 0.5]))
    cut = draw(_grid(0.001, half - 0.001))
    prior = draw(_grid(0.5, 5.0))
    return n, k, half, cut, prior


@PROPERTY
@given(_counts_on_symmetric_space())
def test_swapped_counts_mirror_the_posterior(case):
    """Swapping k and n - k under a symmetric prior, space and pair keeps the
    posterior odds and the Bayes factor and negates the posterior mean, also
    when the posterior lies beyond one end of the space."""
    n, k, half, cut, prior = case
    space = ParameterSpace(-half, half)
    pair = HypothesisPair(
        h0=RegionSet.single(-cut, cut),
        h1=RegionSet(
            (Interval(-half, -cut, hi_open=True), Interval(cut, half, lo_open=True))
        ),
    )
    results = []
    for successes in (k, n - k):
        model = BinomialModel(n=n, k=successes, prior_alpha=prior, prior_beta=prior)
        post = posterior_update_binomial(model, space)
        odds = bayes_two_action_decision(post, pair, LossRatio.scalar(1.0)).posterior_odds
        bf = interval_bayes_factor(model, pair).bayes_factor
        results.append((odds, bf, posterior_summary(post)["mean"]))
    (odds, bf, mean), (m_odds, m_bf, m_mean) = results
    assert m_odds == pytest.approx(odds, rel=1e-9, abs=0.0)
    assert m_bf == pytest.approx(bf, rel=1e-9, abs=0.0)
    assert m_mean == pytest.approx(-mean, rel=1e-9, abs=1e-14)


@st.composite
def _normal_posterior_params(draw):
    """(mean, sd) of a normal posterior inside SPACE or 3 to 30 sd beyond
    either end of it."""
    sd = draw(st.floats(1e-3, 0.3))
    side = draw(st.sampled_from(["inside", "above", "below"]))
    if side == "inside":
        return draw(st.floats(SPACE.lo, SPACE.hi)), sd
    beyond = draw(st.floats(3.0, 30.0)) * sd
    return (SPACE.hi + beyond if side == "above" else SPACE.lo - beyond), sd


@PROPERTY
@given(losses, _normal_posterior_params())
def test_reflection_mirrors_normal_expected_losses(spec, params):
    """Reflecting theta -> -theta in a normal posterior and its loss keeps
    both expected losses, also for a posterior far beyond an end."""
    mean, sd = params
    mirrored = _mirror(spec)
    out = expected_loss_decision(PosteriorModel("normal", (mean, sd), SPACE), spec)
    m_out = expected_loss_decision(
        PosteriorModel("normal", (-mean, sd), mirrored.space), mirrored
    )
    assert (m_out.threshold_lo, m_out.threshold_hi) == pytest.approx(
        (out.threshold_lo, out.threshold_hi), rel=1e-12, abs=0.0
    )


_ratios = st.floats(1e-6, 1e6)


@st.composite
def _odds_and_ratio_bounds(draw):
    """Posterior odds and the two ends of a loss-ratio interval; the odds
    often sit on an end."""
    lo, hi = sorted((draw(_ratios), draw(_ratios)))
    odds = draw(st.one_of(st.sampled_from([lo, hi, 0.0, math.inf]), st.floats(0.0, 1e7)))
    return odds, lo, hi


@PROPERTY
@given(_odds_and_ratio_bounds())
def test_interval_rule_agrees_with_its_scalar_ends(case):
    """The interval rule gives what its two scalar ends give when they agree
    and is indeterminate when they disagree. The one exception is odds on
    the lower end of a proper interval: both scalar ends tie to a0 there,
    while the interval rule counts its boundary as indeterminate."""
    odds, lo, hi = case
    interval = decide_from_odds(odds, LossRatio(lo, hi))
    at_lo = decide_from_odds(odds, LossRatio.scalar(lo))
    at_hi = decide_from_odds(odds, LossRatio.scalar(hi))
    if lo < hi and odds == lo:
        assert (at_lo, at_hi, interval) == ("a0", "a0", "indeterminate")
    elif at_lo == at_hi:
        assert interval == at_lo
    else:
        assert interval == "indeterminate"
