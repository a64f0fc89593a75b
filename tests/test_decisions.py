import math
import random
from pathlib import Path

import pytest
from scipy import stats

from relkit import decisions, inference
from relkit.config import load_config
from relkit.decisions import (
    LossRatio,
    bayes_two_action_decision,
    decide_from_odds,
    expected_loss_decision,
)
from relkit.errors import NumericalError, ValidationError
from relkit.hypotheses import HypothesisPair, derive_hypotheses
from relkit.inference import (
    BinomialModel,
    NormalKnownVarModel,
    PosteriorModel,
    posterior_update,
)
from relkit.loss import (
    CurveKnots,
    LossSpec,
    ParameterSpace,
    QuadraticParams,
    coin_demo_loss,
    evaluate_loss,
)
from relkit.regions import RegionSet, partition

from conftest import BIAS_SPACE, equal_losses_spec, quadratic_pair_spec
from oracles import expected_losses_oracle

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def coin_pair(coin_spec):
    return derive_hypotheses(partition(coin_spec))


class TestLossRatio:
    def test_scalar_and_interval(self):
        assert LossRatio.scalar(2.0).is_scalar
        assert not LossRatio(1.0, 2.0).is_scalar

    @pytest.mark.parametrize("lo,hi", [(0.0, 1.0), (-1.0, 1.0), (2.0, 1.0), (1.0, float("inf"))])
    def test_invalid(self, lo, hi):
        with pytest.raises(ValidationError):
            LossRatio(lo, hi)


class TestDecideFromOdds:
    def test_documented_rows(self):
        assert decide_from_odds(1.0, LossRatio.scalar(1.0)) == "a0"
        assert decide_from_odds(3.0, LossRatio(1.0, 2.0)) == "a1"
        assert decide_from_odds(1.5, LossRatio(1.0, 2.0)) == "indeterminate"

    def test_interval_boundary_goes_to_indeterminate(self):
        assert decide_from_odds(2.0, LossRatio(1.0, 2.0)) == "indeterminate"
        assert decide_from_odds(1.0, LossRatio(1.0, 2.0)) == "indeterminate"

    def test_threshold_monotonicity(self):
        rng = random.Random(314)
        for _ in range(500):
            odds = rng.lognormvariate(0.0, 2.0)
            ladder = sorted(rng.lognormvariate(0.0, 2.0) for _ in range(6))
            decisions = [decide_from_odds(odds, LossRatio.scalar(r)) for r in ladder]
            switched = False
            for earlier, later in zip(decisions[:-1], decisions[1:]):
                if earlier == "a0":
                    assert later == "a0", "decision flipped back to a1 as ratio grew"
                    switched = True
            assert switched or decisions[0] in ("a0", "a1")

    def test_degenerate_interval_reduces_to_scalar(self):
        rng = random.Random(2718)
        for _ in range(500):
            r = rng.lognormvariate(0.0, 1.5)
            odds = rng.choice([r, rng.lognormvariate(0.0, 1.5)])
            assert decide_from_odds(odds, LossRatio(r, r)) == decide_from_odds(
                odds, LossRatio.scalar(r)
            )


class TestBayesTwoActionDecision:
    def test_overwhelming_heads(self, coin_spec):
        post = posterior_update(BinomialModel(n=20, k=20), BIAS_SPACE)
        out = bayes_two_action_decision(post, coin_pair(coin_spec), LossRatio.scalar(1.0))
        assert out.decision == "a1"
        assert out.posterior_h0 + out.posterior_h1 == pytest.approx(1.0, abs=1e-8)
        # oracle through scipy's beta cdf on the pi scale
        p0 = stats.beta.cdf(0.606, 21, 1) - stats.beta.cdf(0.394, 21, 1)
        assert out.posterior_odds == pytest.approx((1 - p0) / p0, rel=1e-6)

    def test_balanced_sample(self, coin_spec):
        post = posterior_update(BinomialModel(n=10, k=5), BIAS_SPACE)
        out = bayes_two_action_decision(post, coin_pair(coin_spec), LossRatio.scalar(1.0))
        assert out.decision == "a0"

    def test_wide_interval_withholds(self, coin_spec):
        post = posterior_update(BinomialModel(n=10, k=5), BIAS_SPACE)
        out = bayes_two_action_decision(post, coin_pair(coin_spec), LossRatio(0.01, 100.0))
        assert out.decision == "indeterminate"

    def test_partial_pair_needs_flag(self, coin_spec):
        post = posterior_update(BinomialModel(n=10, k=5), BIAS_SPACE)
        pair = HypothesisPair(
            h0=RegionSet.single(-0.05, 0.05), h1=RegionSet.single(0.2, 0.4)
        )
        with pytest.raises(ValidationError, match="restricted"):
            bayes_two_action_decision(post, pair, LossRatio.scalar(1.0))
        out = bayes_two_action_decision(
            post, pair, LossRatio.scalar(1.0), allow_restricted_space=True
        )
        assert out.decision in ("a0", "a1")
        assert out.posterior_h0 + out.posterior_h1 == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_evidence(self, coin_spec):
        post = posterior_update(BinomialModel(n=10, k=5), BIAS_SPACE)
        pair = HypothesisPair(h0=RegionSet.point(0.0), h1=RegionSet.point(0.3))
        with pytest.raises(NumericalError, match="degenerate"):
            bayes_two_action_decision(
                post, pair, LossRatio.scalar(1.0), allow_restricted_space=True
            )


class TestExpectedLossDecision:
    def test_posterior_concentrated_at_zero(self, coin_spec):
        post = posterior_update(BinomialModel(n=200000, k=100000), BIAS_SPACE)
        out = expected_loss_decision(post, coin_spec)
        assert out.decision == "a0"
        assert out.threshold_lo < out.threshold_hi  # E[L|a0] < E[L|a1]

    def test_posterior_concentrated_at_relevant_bias(self, coin_spec):
        post = posterior_update(BinomialModel(n=200000, k=160000), BIAS_SPACE)
        out = expected_loss_decision(post, coin_spec)
        assert out.decision == "a1"

    def test_equal_curves_tie_to_a0(self):
        spec = equal_losses_spec()
        post = posterior_update(BinomialModel(n=12, k=9), BIAS_SPACE)
        assert expected_loss_decision(post, spec).decision == "a0"

    def test_space_mismatch_rejected(self, coin_spec):
        post = PosteriorModel("normal", (0.0, 0.1), ParameterSpace(-1.0, 1.0))
        with pytest.raises(ValidationError, match="share"):
            expected_loss_decision(post, coin_spec)

    def test_agreement_at_concentration(self, coin_spec):
        """With the posterior piled onto a single point, the expected-loss
        decision must match the pointwise preference there."""
        from relkit.loss import loss_difference

        rng = random.Random(808)
        for _ in range(8):
            target = rng.uniform(-0.45, 0.45)
            if abs(abs(target) - 0.106) < 1e-3:
                continue
            n = 4_000_000
            k = int(round((target + 0.5) * n))
            post = posterior_update(BinomialModel(n=n, k=k), BIAS_SPACE)
            out = expected_loss_decision(post, coin_spec)
            expected = "a1" if loss_difference(coin_spec, target) < 0 else "a0"
            assert out.decision == expected, f"disagrees at theta*={target}"


def _oracle_case(i: int) -> tuple[PosteriorModel, LossSpec]:
    """Case i of the expected-loss oracle battery: both families in turn,
    the coin, piecewise-linear and quadratic losses in turn, and a seeded
    posterior whose location lies inside the space."""
    rng = random.Random(9000 + i)
    family = ("beta", "normal")[i % 2]
    kind = ("coin", "piecewise_linear", "quadratic")[(i // 2) % 3]
    if kind == "coin" or family == "beta":
        lo, hi = -0.5, 0.5
    else:
        lo, hi = -rng.uniform(0.2, 1.0), rng.uniform(0.2, 1.0)
    space = ParameterSpace(lo, hi)
    if kind == "coin":
        spec = coin_demo_loss()
    elif kind == "piecewise_linear":
        curves = [
            CurveKnots(
                knots=(lo, *sorted(rng.uniform(lo, hi) for _ in range(2)), hi),
                values=tuple(rng.uniform(0.0, 1.0) for _ in range(4)),
            )
            for _ in range(2)
        ]
        spec = LossSpec(space, kind, *curves)
    else:
        curves = [
            QuadraticParams(
                c=rng.uniform(0.0, 3.0),
                center=rng.uniform(lo, hi),
                offset=rng.uniform(0.0, 0.5),
            )
            for _ in range(2)
        ]
        spec = LossSpec(space, kind, *curves)
    if family == "beta":
        n = rng.choice((10, 50, 200, 1000))
        post = posterior_update(BinomialModel(n=n, k=rng.randint(0, n)), space)
    else:
        sd = math.exp(rng.uniform(math.log(0.003), math.log(0.5)))
        post = PosteriorModel("normal", (rng.uniform(0.9 * lo, 0.9 * hi), sd), space)
    return post, spec


# Battery cases where the adaptive Simpson quadrature misses the oracle by
# more than 1e-9: its target is 1e-8 over all panels, and a panel whose first
# Richardson estimate happens to agree stops early (CHANGES.md, FOUND on
# expected-loss quadrature accuracy). A closed form makes them pass.
_QUADRATURE_MISSES = frozenset({2})
ORACLE_CASES = [
    pytest.param(
        i,
        marks=pytest.mark.xfail(reason="adaptive quadrature error above 1e-9"),
    )
    if i in _QUADRATURE_MISSES
    else i
    for i in range(36)
]


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_expected_losses_match_scipy_quad(case):
    post, spec = _oracle_case(case)
    out = expected_loss_decision(post, spec)
    want = expected_losses_oracle(post, spec)
    assert [out.threshold_lo, out.threshold_hi] == pytest.approx(want, rel=0, abs=1e-9)


@pytest.mark.xfail(
    reason="k = n posterior beyond the space: quadrature misses the mass at the "
    "space end (CHANGES.md, FOUND on the t72+ tail request)",
)
def test_expected_losses_of_tail_request_t72_match_scipy_quad():
    """The analyze benchmark's tail request t72+: n = k = 400 on [-0.15, 0.15]
    with a piecewise-linear loss; E[L(a1)] is about 7.69e-4."""
    space = ParameterSpace(-0.15, 0.15)
    spec = LossSpec(
        space,
        "piecewise_linear",
        CurveKnots(knots=(-0.15, 0.0, 0.15), values=(0.15, 0.0, 0.15)),
        CurveKnots(knots=(-0.15, 0.0, 0.15), values=(0.0, 0.0713539, 0.0)),
    )
    post = posterior_update(BinomialModel(n=400, k=400), space)
    out = expected_loss_decision(post, spec)
    want = expected_losses_oracle(post, spec)
    assert want[1] == pytest.approx(7.69e-4, rel=1e-3)
    assert [out.threshold_lo, out.threshold_hi] == pytest.approx(want, rel=0, abs=1e-9)


class TestThreeWayConsistency:
    """An interval loss ratio decides as its two scalar ends do when they
    agree, and is indeterminate when they disagree."""

    @staticmethod
    def _three_way(post, pair, ratio):
        interval, at_lo, at_hi = (
            bayes_two_action_decision(post, pair, r).decision
            for r in (ratio, LossRatio.scalar(ratio.lo), LossRatio.scalar(ratio.hi))
        )
        consistent = interval == (at_lo if at_lo == at_hi else "indeterminate")
        return consistent, interval, at_lo, at_hi

    def test_documented_rows(self, coin_spec):
        pair = coin_pair(coin_spec)
        hot = posterior_update(BinomialModel(n=20, k=20), BIAS_SPACE)  # huge odds
        consistent, interval, at_lo, at_hi = self._three_way(hot, pair, LossRatio(1.0, 2.0))
        assert consistent
        assert interval == "a1"
        assert at_lo == at_hi == "a1"

        mid = posterior_update(BinomialModel(n=10, k=6), BIAS_SPACE)
        odds = bayes_two_action_decision(mid, pair, LossRatio.scalar(1.0)).posterior_odds
        lo_r, hi_r = odds * 0.5, odds * 2.0
        consistent, interval, at_lo, at_hi = self._three_way(mid, pair, LossRatio(lo_r, hi_r))
        assert consistent
        assert interval == "indeterminate"
        assert at_lo == "a1"
        assert at_hi == "a0"

    def test_degenerate_interval(self, coin_spec):
        pair = coin_pair(coin_spec)
        post = posterior_update(BinomialModel(n=10, k=5), BIAS_SPACE)
        consistent, interval, at_lo, _ = self._three_way(post, pair, LossRatio(2.0, 2.0))
        assert consistent
        assert interval == at_lo


ASPIRIN_LOSS =load_config(CONFIG_DIR / "aspirin_scenario.json").loss


def _sweep_normal_posteriors():
    """The normal posteriors of a sweep_normal-like command: sigma 0.2,
    n = 22000 and prior sd 0.05, at 101 sample means in [-0.01, 0.01]."""
    for i in range(101):
        model = NormalKnownVarModel(
            n=22000, ybar=-0.01 + 0.0002 * i, sigma=0.2, prior_mean=0.0, prior_sd=0.05
        )
        yield posterior_update(model, ASPIRIN_LOSS.space)


def _far_normal_posteriors():
    """Normal posteriors 5 to 30 sd beyond either end of [-0.1, 0.1]."""
    rng = random.Random(3030)
    for i in range(40):
        sd = math.exp(rng.uniform(math.log(1e-3), math.log(0.05)))
        beyond = rng.uniform(5.0, 30.0) * sd
        mean = 0.1 + beyond if i % 2 else -0.1 - beyond
        yield PosteriorModel("normal", (mean, sd), ASPIRIN_LOSS.space)


class TestNormalClosedForm:
    """A normal posterior's expected losses are closed-form partial moments;
    each case is checked against the SciPy quadrature oracle."""

    @pytest.fixture(autouse=True)
    def no_quadrature(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a normal posterior must not integrate numerically")

        monkeypatch.setattr(inference, "quadrature", refuse)
        monkeypatch.setattr(decisions, "quadrature", refuse)

    def _check(self, post, spec):
        out = expected_loss_decision(post, spec)
        assert out.warnings == ()
        want = expected_losses_oracle(post, spec)
        assert [out.threshold_lo, out.threshold_hi] == pytest.approx(want, rel=0, abs=1e-9)

    def test_sweep_normal_posteriors(self):
        for post in _sweep_normal_posteriors():
            self._check(post, ASPIRIN_LOSS)

    def test_posteriors_far_beyond_either_end(self):
        rng = random.Random(3131)
        space = ASPIRIN_LOSS.space
        for post in _far_normal_posteriors():
            self._check(post, ASPIRIN_LOSS)
            knots = (-0.1, *sorted(rng.uniform(-0.1, 0.1) for _ in range(3)), 0.1)
            curves = [
                CurveKnots(knots, tuple(rng.uniform(0.0, 1.0) for _ in knots))
                for _ in range(2)
            ]
            self._check(post, LossSpec(space, "piecewise_linear", *curves))

    def test_quadratic_vertex_far_from_the_posterior(self):
        space = ParameterSpace(-1.0, 1.0)
        spec = LossSpec(
            space,
            "quadratic",
            QuadraticParams(c=2.0, center=-0.95, offset=0.01),
            QuadraticParams(c=0.5, center=0.9, offset=0.2),
        )
        for mean, sd in ((0.5, 0.01), (0.9, 0.002), (-0.3, 0.05), (1.2, 0.03), (-1.1, 0.004)):
            self._check(PosteriorModel("normal", (mean, sd), space), spec)


def _coin_counts():
    """(n, k) of every count at n = 20, 100 and 1000, and of 50 counts from
    0 to n at n = 10^4."""
    for n in (20, 100, 1000):
        for k in range(n + 1):
            yield n, k
    for i in range(50):
        yield 10_000, round(i * 10_000 / 49)


def _tail_pair_cases():
    """The k = 0 and k = n posteriors at n = 200 and 400 of the benchmark's
    mirrored tail pairs: on [-w, w], a0 is |theta| and a1 rises from 0 at
    either end to h at 0."""
    for w in (0.1, 0.15, 0.2):
        space, knots = ParameterSpace(-w, w), (-w, 0.0, w)
        for h in (0.2 * w, 0.35 * w, 0.5 * w):
            spec = LossSpec(
                space,
                "piecewise_linear",
                CurveKnots(knots, (w, 0.0, w)),
                CurveKnots(knots, (0.0, h, 0.0)),
            )
            for n in (200, 400):
                for k in (0, n):
                    yield posterior_update(BinomialModel(n=n, k=k), space), spec


class TestBetaClosedForm:
    """The expected-loss rule decides a beta posterior from one pass of
    closed-form partial moments; each case's expected losses are checked
    against the SciPy quadrature oracle within 1e-9, and the verdict read
    from the same pass's coordinates decides as the oracle's values rank
    the actions. (The printed values still come from quadrature; the strict
    xfails above check those.)"""

    @staticmethod
    def _check(post, spec):
        split = decisions._split(spec)
        expected, coords = decisions._expected_losses(post, split)
        decision = decisions._expected_loss_verdict(split, coords)
        want = expected_losses_oracle(post, spec)
        assert [expected["a0"], expected["a1"]] == pytest.approx(want, rel=0, abs=1e-9)
        assert decision == ("a1" if want[1] < want[0] else "a0")

    def test_coin_loss_at_every_count(self, coin_spec):
        for n, k in _coin_counts():
            self._check(posterior_update(BinomialModel(n=n, k=k), BIAS_SPACE), coin_spec)

    def test_tail_pairs(self):
        for post, spec in _tail_pair_cases():
            self._check(post, spec)

    def test_quadratic_loss_on_concentrated_posteriors(self):
        # E[theta^2] against a constant: the quadratic piece's moment is
        # taken about the panel point nearest the mean, not from raw moments
        spec = quadratic_pair_spec()
        for n in (100, 1000, 10**4):
            for k in (0, 1, 3, n // 2 - 1, n // 2, n // 2 + 1, n - 3, n - 1, n):
                post = posterior_update(BinomialModel(n=n, k=k), BIAS_SPACE)
                expected, _ = decisions._expected_losses(post, decisions._split(spec))
                want = expected_losses_oracle(post, spec)
                assert [expected["a0"], expected["a1"]] == pytest.approx(want, rel=1e-9), (n, k)


def test_expected_losses_of_a_spike_far_inside_a_wide_space():
    # the posterior N(5, 1e-10) on [-1e300, 1e300]: the space's ends lie
    # beyond 1e308 sd of the mean, where (x - mean) / sd overflows, and the
    # expected losses are the losses at the mean, with no NaN
    space = ParameterSpace(-1e300, 1e300)
    knots = (-1e300, 0.0, 1e300)
    spec = LossSpec(
        space,
        "piecewise_linear",
        CurveKnots(knots, (1e300, 0.0, 1e300)),
        CurveKnots(knots, (0.0, 1.0, 0.0)),
    )
    model = NormalKnownVarModel(n=1, ybar=5.0, sigma=1e-10, prior_mean=0.0, prior_sd=1.0)
    post = posterior_update(model, space)
    expected, coords = decisions._expected_losses(post, decisions._split(spec))
    mean = post.location_scale[0]
    for action in ("a0", "a1"):
        want = evaluate_loss(spec, mean, action)
        assert expected[action] == pytest.approx(want, rel=1e-9, abs=0.0), action
    assert all(math.isfinite(c) for c in coords)


def test_decision_consistency_under_data_smoke(coin_spec):
    """Light version of the large-n consistency sweep: at n = 2000 the
    decisions should already lock onto the pointwise preference."""
    import numpy as np

    pair = coin_pair(coin_spec)
    rng = np.random.default_rng(99)
    for true_b, want in ((0.3, "a1"), (0.0, "a0")):
        agree = 0
        reps = 100
        for _ in range(reps):
            k = int(rng.binomial(2000, true_b + 0.5))
            post = posterior_update(BinomialModel(n=2000, k=k), BIAS_SPACE)
            out = bayes_two_action_decision(post, pair, LossRatio.scalar(1.0))
            if out.decision == want:
                agree += 1
        assert agree / reps >= 0.95
