import math
import random

import numpy as np
import pytest
from scipy import stats

from relkit.comparators import (
    ComparatorResult,
    interval_bayes_factor,
    nhst_point_null,
    rope_decision,
    tost_equivalence,
)
from relkit.errors import NumericalError, ValidationError
from relkit.hypotheses import HypothesisPair, derive_hypotheses
from relkit.inference import (
    BinomialModel,
    NormalKnownVarModel,
    PosteriorModel,
    posterior_region_prob,
    posterior_update,
)
from relkit.loss import ParameterSpace
from relkit.regions import Interval, RegionSet, partition

import oracles
from conftest import BIAS_SPACE


@pytest.fixture(scope="module")
def coin_pair():
    from relkit.loss import coin_demo_loss

    return derive_hypotheses(partition(coin_demo_loss()))


class TestNhstPointNull:
    def test_center_sample_keeps_null(self):
        result = nhst_point_null(BinomialModel(n=10, k=5), alpha=0.05)
        assert result.p_value == 1.0
        assert result.verdict == "fail_to_reject"

    def test_all_heads_rejects(self):
        result = nhst_point_null(BinomialModel(n=10, k=10), alpha=0.05)
        assert result.p_value == pytest.approx(2.0 * 0.5**10, abs=1e-12)
        assert result.verdict == "reject"

    def test_normal_zero_mean(self):
        model = NormalKnownVarModel(n=50, ybar=0.0, sigma=1.0)
        result = nhst_point_null(model, alpha=0.05)
        assert result.p_value == 1.0

    def test_doubled_tail_against_scipy(self):
        rng = random.Random(62)
        for _ in range(60):
            n = rng.randint(1, 400)
            k = rng.randint(0, n)
            mine = nhst_point_null(BinomialModel(n=n, k=k), alpha=0.05).p_value
            lower = float(stats.binom.cdf(k, n, 0.5))
            upper = float(stats.binom.sf(k - 1, n, 0.5))
            assert mine == pytest.approx(min(1.0, 2.0 * min(lower, upper)), abs=1e-10)

    def test_normal_p_matches_scipy(self):
        model = NormalKnownVarModel(n=36, ybar=0.31, sigma=1.2)
        mine = nhst_point_null(model, alpha=0.05).p_value
        z = 0.31 * 6.0 / 1.2
        assert mine == pytest.approx(2.0 * float(stats.norm.sf(z)), abs=1e-14)

    def test_validity_under_the_null(self):
        # rejection rate at alpha=0.05 stays below 0.05 + 3 SE (exact test
        # is conservative); 500 replicates here, the full sweep runs in the
        # acceptance suite
        rng = np.random.default_rng(4242)
        reps, rejections = 500, 0
        for _ in range(reps):
            k = int(rng.binomial(100, 0.5))
            if nhst_point_null(BinomialModel(n=100, k=k), 0.05).verdict == "reject":
                rejections += 1
        rate = rejections / reps
        assert rate <= 0.05 + 3.0 * math.sqrt(0.05 * 0.95 / reps)

    def test_alpha_validated(self):
        with pytest.raises(ValidationError):
            nhst_point_null(BinomialModel(n=10, k=5), alpha=1.5)


class TestTostEquivalence:
    def test_huge_sample_inside_bounds(self):
        model = NormalKnownVarModel(n=10**4, ybar=0.0, sigma=1.0)
        result = tost_equivalence(model, (-0.106, 0.106), alpha=0.05)
        assert result.verdict == "equivalent"
        # both one-sided z statistics are 10.6 sds from their bound
        assert result.p_value == pytest.approx(float(stats.norm.sf(10.6)), rel=1e-9)

    def test_mean_exactly_at_bound(self):
        model = NormalKnownVarModel(n=25, ybar=0.106, sigma=1.0)
        result = tost_equivalence(model, (-0.106, 0.106), alpha=0.05)
        assert result.p_value == pytest.approx(0.5, abs=1e-12)
        assert result.verdict == "not_equivalent"

    def test_no_power_with_one_observation(self):
        model = NormalKnownVarModel(n=1, ybar=0.0, sigma=10.0)
        result = tost_equivalence(model, (-0.106, 0.106), alpha=0.05)
        assert result.verdict == "not_equivalent"

    def test_binomial_model_rejected(self):
        with pytest.raises(ValidationError, match="normal"):
            tost_equivalence(BinomialModel(n=10, k=5), (-0.1, 0.1), alpha=0.05)

    def test_bad_bounds(self):
        model = NormalKnownVarModel(n=10, ybar=0.0, sigma=1.0)
        with pytest.raises(ValidationError):
            tost_equivalence(model, (0.1, -0.1), alpha=0.05)

    def test_equivalent_rate_grows_with_n(self):
        # coherence with the relevance bounds: true effect inside the
        # negligible hull, larger samples conclude equivalence more often
        rng = np.random.default_rng(7)
        rates = []
        for n in (50, 5000):
            hits = 0
            for _ in range(200):
                ybar = float(rng.normal(0.02, 1.0 / math.sqrt(n)))
                model = NormalKnownVarModel(n=n, ybar=ybar, sigma=1.0)
                result = tost_equivalence(model, (-0.106, 0.106), alpha=0.05)
                hits += result.verdict == "equivalent"
            rates.append(hits / 200)
        assert rates[-1] >= 0.95
        assert rates[-1] >= rates[0]


class TestRopeDecision:
    def _post(self, mean, sd):
        return PosteriorModel("normal", (mean, sd), ParameterSpace(-1.0, 1.0))

    def test_interval_inside_rope(self):
        post = self._post(0.0, 0.0051)  # ci95 ~ [-0.01, 0.01]
        result = rope_decision(post, RegionSet.single(-0.106, 0.106), 0.95)
        assert result.verdict == "accept_a0"
        assert "central credible interval" in result.detail

    def test_interval_outside_rope(self):
        post = self._post(0.25, 0.0255)  # ci95 ~ [0.2, 0.3]
        result = rope_decision(post, RegionSet.single(-0.106, 0.106), 0.95)
        assert result.verdict == "accept_a1"

    def test_interval_straddles_rope(self):
        post = self._post(0.125, 0.0383)  # ci95 ~ [0.05, 0.2]
        result = rope_decision(post, RegionSet.single(-0.106, 0.106), 0.95)
        assert result.verdict == "withhold"

    def test_point_mass_inside_rope(self):
        post = self._post(0.05, 1e-7)
        result = rope_decision(post, RegionSet.single(-0.106, 0.106), 0.95)
        assert result.verdict == "accept_a0"

    def test_multi_interval_rope_rejected(self):
        post = self._post(0.0, 0.1)
        rope = RegionSet((Interval(-0.2, -0.1), Interval(0.1, 0.2)))
        with pytest.raises(ValidationError, match="single interval"):
            rope_decision(post, rope, 0.95)

    def test_empty_rope_rejected(self):
        with pytest.raises(ValidationError):
            rope_decision(self._post(0.0, 0.1), RegionSet(), 0.95)


def _rope_oracle_posteriors():
    """Seeded posteriors of both families: inside the space, 5 to 30 sd
    beyond an end, and nearly point masses."""
    rng = np.random.default_rng(20261018)
    space = ParameterSpace(-0.1, 0.1)
    posts = []
    for _ in range(12):
        mean, sd = rng.uniform(-0.08, 0.08), rng.uniform(0.003, 0.05)
        posts.append(PosteriorModel("normal", (float(mean), float(sd)), space))
        sd = float(rng.uniform(0.002, 0.01))
        end = float(rng.choice([-0.1, 0.1]))
        posts.append(PosteriorModel("normal", (end * (1.0 + rng.uniform(5, 30) * sd / 0.1), sd), space))
        mean, sd = rng.uniform(-0.09, 0.09), 10.0 ** rng.uniform(-9, -6)
        posts.append(PosteriorModel("normal", (float(mean), float(sd)), space))
        n = int(10 ** rng.uniform(1.5, 4))
        k = int(rng.integers(0, n + 1))
        posts.append(PosteriorModel("beta", (1.0 + k, 1.0 + n - k), BIAS_SPACE))
        # Beta(a, b) with its mean 5 to 30 sd beyond an end of [-0.1, 0.1]
        n = float(10 ** rng.uniform(4, 5))
        pi = 0.5 + rng.choice([-1.0, 1.0]) * (0.1 + rng.uniform(5, 30) * 0.5 / math.sqrt(n))
        posts.append(PosteriorModel("beta", (pi * n, (1.0 - pi) * n), space))
        n = float(10 ** rng.uniform(5, 6))
        pi = float(rng.uniform(0.42, 0.58))
        posts.append(PosteriorModel("beta", (pi * n, (1.0 - pi) * n), space))
    return posts


def _credible_interval_rule(ci, rope):
    if ci[0] >= rope[0] and ci[1] <= rope[1]:
        return "accept_a0"
    if ci[1] < rope[0] or ci[0] > rope[1]:
        return "accept_a1"
    return "withhold"


@pytest.mark.parametrize("mass", [0.95, 0.5])
def test_rope_matches_the_credible_interval_rule_on_scipy_quantiles(mass):
    """The ROPE rule reads two tail masses; its verdict is the central
    credible interval's, with the quantiles from SciPy, also for ropes
    whose ends sit 1e-6 (relative) on either side of a quantile."""
    tail = 0.5 * (1.0 - mass)
    verdicts = set()
    for post in _rope_oracle_posteriors():
        p1, p2 = post.params
        dist = stats.norm(p1, p2) if post.family == "normal" else stats.beta(p1, p2)
        shift = post.effect_shift
        lo, hi = post.space.lo - shift, post.space.hi - shift
        ci = tuple(oracles.truncated_ppf(dist, lo, hi, p) + shift for p in (tail, 1.0 - tail))
        assert post.space.lo <= ci[0] < ci[1] <= post.space.hi
        below = [ci[0] - 1e-6 * abs(ci[0]), ci[0] + 1e-6 * abs(ci[0])]
        above = [ci[1] - 1e-6 * abs(ci[1]), ci[1] + 1e-6 * abs(ci[1])]
        ropes = [(a, b) for a in below for b in above]
        ropes += [(post.space.lo, x) for x in below] + [(x, post.space.hi) for x in above]
        for a, b in ropes:
            a, b = max(a, post.space.lo), min(b, post.space.hi)
            if not a < b:  # a nearly point mass: the shift passes the other end
                continue
            want = _credible_interval_rule(ci, (a, b))
            got = rope_decision(post, RegionSet.single(a, b), mass).verdict
            assert got == want, (post, mass, (a, b), ci)
            verdicts.add(got)
    assert verdicts == {"accept_a0", "accept_a1", "withhold"}


def test_rope_verdicts_on_the_coin_loss():
    """The verdict of every k at n = 20, 100 and 1000 on the coin loss, as
    the credible-interval quantiles gave it, in runs over k = 0..n."""
    runs = {
        20: [("accept_a1", 4), ("withhold", 13), ("accept_a1", 4)],
        100: [("accept_a1", 30), ("withhold", 19), ("accept_a0", 3), ("withhold", 19),
              ("accept_a1", 30)],
        1000: [("accept_a1", 364), ("withhold", 61), ("accept_a0", 151), ("withhold", 61),
               ("accept_a1", 364)],
    }
    from relkit.loss import coin_demo_loss

    spec = coin_demo_loss()
    hull = partition(spec).negligible.intervals[0]
    rope = RegionSet.single(hull.lo, hull.hi)
    for n, want in runs.items():
        verdicts = [
            rope_decision(posterior_update(BinomialModel(n=n, k=k), spec.space), rope, 0.95).verdict
            for k in range(n + 1)
        ]
        assert [v for v, count in want for _ in range(count)] == verdicts, n


class TestIntervalBayesFactor:
    def test_no_data_gives_unit_bf(self, coin_pair):
        result = interval_bayes_factor(BinomialModel(n=0, k=0), coin_pair)
        assert result.bayes_factor == pytest.approx(1.0, abs=1e-8)

    def test_all_heads_favors_relevant(self, coin_pair):
        result = interval_bayes_factor(BinomialModel(n=10, k=10), coin_pair)
        assert result.bayes_factor > 1.0
        assert result.verdict == "favors_h1"

    def test_balanced_favors_negligible(self, coin_pair):
        result = interval_bayes_factor(BinomialModel(n=10, k=5), coin_pair)
        assert result.bayes_factor < 1.0
        assert result.verdict == "favors_h0"

    def test_direct_quadrature_oracle(self, coin_pair):
        # uniform prior: m1/m0 = (int_B1 lik / P(B1)) / (int_B0 lik / P(B0)),
        # computed here with scipy's beta integrals on the pi scale
        (h0,) = coin_pair.h0.intervals
        lo, hi = h0.lo + 0.5, h0.hi + 0.5
        k, n = 10, 10

        def lik_integral(a, b):
            # integral of pi^k (1-pi)^(n-k) = B(k+1, n-k+1) * I difference
            from scipy.special import betainc, beta as beta_fn

            total = beta_fn(k + 1, n - k + 1)
            return total * (betainc(k + 1, n - k + 1, b) - betainc(k + 1, n - k + 1, a))

        comb = math.comb(n, k)
        m0 = comb * lik_integral(lo, hi) / (hi - lo)
        m1 = comb * (lik_integral(0.0, lo) + lik_integral(hi, 1.0)) / (1.0 - (hi - lo))
        result = interval_bayes_factor(BinomialModel(n=n, k=k), coin_pair)
        assert result.bayes_factor == pytest.approx(m1 / m0, rel=1e-7)

    def test_posterior_to_prior_odds_identity(self, coin_pair):
        """BF equals the ratio of posterior odds to prior odds of the two
        regions (checked through the closed-form region probabilities)."""
        for k, n, alpha, beta in ((7, 10, 1.0, 1.0), (13, 40, 2.0, 3.0), (0, 5, 1.5, 1.0)):
            model = BinomialModel(n=n, k=k, prior_alpha=alpha, prior_beta=beta)
            bf = interval_bayes_factor(model, coin_pair).bayes_factor
            post = posterior_update(model, BIAS_SPACE)
            prior = posterior_update(
                BinomialModel(n=0, k=0, prior_alpha=alpha, prior_beta=beta), BIAS_SPACE
            )
            post_odds = posterior_region_prob(post, coin_pair.h1) / posterior_region_prob(
                post, coin_pair.h0
            )
            prior_odds = posterior_region_prob(prior, coin_pair.h1) / posterior_region_prob(
                prior, coin_pair.h0
            )
            assert bf == pytest.approx(post_odds / prior_odds, rel=1e-6)

    def test_normal_model_bf(self, coin_pair):
        pair = HypothesisPair(
            h0=RegionSet.single(-0.02, 0.02),
            h1=RegionSet(
                (
                    Interval(-0.1, -0.02, hi_open=True),
                    Interval(0.02, 0.1, lo_open=True),
                )
            ),
        )
        model = NormalKnownVarModel(
            n=22000, ybar=0.0077, sigma=0.2, prior_mean=0.0, prior_sd=0.05
        )
        result = interval_bayes_factor(model, pair)
        assert result.bayes_factor < 1.0  # evidence lands inside the null region

    def test_underflow_gives_zero_and_mirror_inf(self):
        # like analyze request g653: the posterior N(0.143, 0.0093) sits
        # about 69 sd from H1, so H1's posterior mass underflows to 0
        near, far = RegionSet.single(0.0, 0.5), RegionSet.single(-0.8, -0.5)
        model = NormalKnownVarModel(
            n=1000, ybar=0.143, sigma=0.293542, prior_mean=0.0, prior_sd=0.476506
        )
        low = interval_bayes_factor(model, HypothesisPair(h0=near, h1=far))
        assert (low.bayes_factor, low.verdict) == (0.0, "favors_h0")
        high = interval_bayes_factor(model, HypothesisPair(h0=far, h1=near))
        assert (high.bayes_factor, high.verdict) == (math.inf, "favors_h1")

    @pytest.mark.parametrize("bf", [math.nan, -1.0])
    def test_invalid_bayes_factor_rejected(self, bf):
        with pytest.raises(ValidationError, match="Bayes factor"):
            ComparatorResult("x", statistic=0.0, verdict="even", bayes_factor=bf)

    def test_zero_prior_mass_rejected(self):
        pair = HypothesisPair(
            h0=RegionSet.single(4.0, 5.0), h1=RegionSet.single(6.0, 7.0)
        )
        model = NormalKnownVarModel(
            n=5, ybar=0.0, sigma=1.0, prior_mean=0.0, prior_sd=1e-4
        )
        with pytest.raises(ValidationError, match="zero prior mass"):
            interval_bayes_factor(model, pair)


ASPIRIN_PAIR = HypothesisPair(
    h0=RegionSet.single(-0.02, 0.02),
    h1=RegionSet(
        (Interval(-0.1, -0.02, hi_open=True), Interval(0.02, 0.1, lo_open=True))
    ),
)


class TestIntervalBayesFactorOracle:
    @pytest.mark.parametrize(
        "n, k, alpha, beta",
        [
            (10, 10, 1.0, 1.0),
            (20, 3, 2.0, 3.0),
            (300, 150, 1.0, 1.0),
            (1000, 500, 1.0, 1.0),
            (5000, 2500, 1.0, 1.0),
            (2000, 1900, 0.5, 0.5),
            (400, 0, 1.0, 1.0),
        ],
    )
    def test_binomial_against_scipy(self, coin_pair, n, k, alpha, beta):
        model = BinomialModel(n=n, k=k, prior_alpha=alpha, prior_beta=beta)
        post = (alpha + k, beta + n - k)
        want = math.exp(oracles.log_bayes_factor("beta", (alpha, beta), post, coin_pair))
        got = interval_bayes_factor(model, coin_pair).bayes_factor
        assert got == pytest.approx(want, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize(
        "n, ybar, prior_sd",
        [(22000, 0.0077, 0.05), (22000, -0.0077, 0.05), (50, 0.05, 0.05), (2000, 0.1, 1.0)],
    )
    def test_normal_against_scipy(self, n, ybar, prior_sd):
        model = NormalKnownVarModel(
            n=n, ybar=ybar, sigma=0.2, prior_mean=0.0, prior_sd=prior_sd
        )
        post = posterior_update(model, ParameterSpace(-10.0, 10.0)).params
        want = math.exp(oracles.log_bayes_factor("normal", (0.0, prior_sd), post, ASPIRIN_PAIR))
        got = interval_bayes_factor(model, ASPIRIN_PAIR).bayes_factor
        assert got == pytest.approx(want, rel=1e-9, abs=0.0)

    def test_far_tail_value(self):
        # H1 sits about nine posterior sds from ybar; its posterior mass comes
        # from the upper tail, not from one minus a number close to one
        model = NormalKnownVarModel(
            n=22000, ybar=0.0077, sigma=0.2, prior_mean=0.0, prior_sd=0.05
        )
        bf = interval_bayes_factor(model, ASPIRIN_PAIR).bayes_factor
        assert bf == pytest.approx(1.6633e-20, rel=1e-4, abs=0.0)

    def test_both_marginals_vanishing_raises(self):
        pair = HypothesisPair(
            h0=RegionSet.single(-0.1, -0.05), h1=RegionSet.single(0.05, 0.1)
        )
        model = NormalKnownVarModel(n=10, ybar=0.0, sigma=1e-5, prior_mean=0.0, prior_sd=1.0)
        with pytest.raises(NumericalError, match="vanished"):
            interval_bayes_factor(model, pair)
