import math
import random

import pytest
from scipy import special, stats

from relkit.comparators import interval_bayes_factor
from relkit.errors import NumericalError, ValidationError
from relkit.hypotheses import HypothesisPair
from relkit.inference import (
    BinomialModel,
    NormalKnownVarModel,
    PosteriorModel,
    credible_interval,
    normal_cdf,
    posterior_region_prob,
    posterior_summary,
    posterior_update,
    quadrature,
    regularized_incomplete_beta,
)
from relkit.loss import CurveKnots, LossSpec, ParameterSpace
from relkit.regions import Interval, RegionSet
from relkit.simulate import ProcedureSpec, Scenario

import oracles
from conftest import BIAS_SPACE


class TestSpecialFunctions:
    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 8.0, 40.0, 500.0, 5000.0])
    @pytest.mark.parametrize("b", [0.5, 1.0, 3.0, 77.0, 5000.0])
    def test_incomplete_beta_against_scipy(self, a, b):
        for x in (1e-9, 0.01, 0.2, 0.394, 0.5, 0.606, 0.9, 0.999999, 1.0):
            assert regularized_incomplete_beta(a, b, x) == pytest.approx(
                float(special.betainc(a, b, x)), abs=5e-12
            )

    def test_incomplete_beta_edges(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0
        with pytest.raises(ValidationError):
            regularized_incomplete_beta(0.0, 1.0, 0.5)

    @pytest.mark.parametrize("z", [-10.0, -3.2, -1.0, 0.0, 0.5, 2.0, 8.5])
    def test_normal_cdf_against_scipy(self, z):
        assert normal_cdf(z) == pytest.approx(float(stats.norm.cdf(z)), abs=1e-15)


class TestConjugateUpdates:
    @pytest.mark.parametrize(
        "prior,k,n,expected",
        [
            ((1.0, 1.0), 7, 10, (8.0, 4.0)),
            ((1.0, 1.0), 0, 0, (1.0, 1.0)),
            ((2.0, 2.0), 5, 5, (7.0, 2.0)),
        ],
    )
    def test_binomial(self, prior, k, n, expected):
        model = BinomialModel(n=n, k=k, prior_alpha=prior[0], prior_beta=prior[1])
        post = posterior_update(model, BIAS_SPACE)
        assert post.params == expected
        assert post.family == "beta"

    def test_binomial_invalid_counts(self):
        with pytest.raises(ValidationError):
            BinomialModel(n=5, k=6)
        with pytest.raises(ValidationError):
            BinomialModel(n=5, k=-1)
        with pytest.raises(ValidationError):
            BinomialModel(n=5, k=2, prior_alpha=0.0)
        # n and k are counts by a config's rule: ints, not bools, below 2**63
        for n, k in ((10, 2.5), (True, 0), (2**63, 0)):
            with pytest.raises(ValidationError, match="integer"):
                BinomialModel(n=n, k=k)

    def test_normal_update_closed_form(self):
        model = NormalKnownVarModel(n=1, ybar=2.0, sigma=1.0, prior_mean=0.0, prior_sd=10.0)
        post = posterior_update(model, ParameterSpace(-10.0, 10.0))
        mean, sd = post.params
        assert mean == pytest.approx(2.0 / 1.01, abs=1e-12)
        assert round(mean, 4) == 1.9802
        assert sd == pytest.approx(1.01**-0.5, abs=1e-12)
        assert round(sd, 5) == 0.99504

    def test_normal_update_matches_numeric_posterior(self):
        # oracle: integrate prior x likelihood on a grid and compare moments
        model = NormalKnownVarModel(n=4, ybar=0.7, sigma=2.0, prior_mean=-1.0, prior_sd=1.5)
        post = posterior_update(model, ParameterSpace(-10.0, 10.0))

        def unnorm(t):
            return stats.norm.pdf(t, -1.0, 1.5) * stats.norm.pdf(0.7, t, 2.0 / 2.0)

        z = oracles.quad_split(unnorm, -12.0, 12.0)
        mean = oracles.quad_split(lambda t: t * unnorm(t), -12.0, 12.0) / z
        assert post.params[0] == pytest.approx(mean, abs=1e-8)

    def test_normal_data_dominance(self):
        model = NormalKnownVarModel(n=10**6, ybar=3.3, sigma=1.0, prior_mean=0.0, prior_sd=1.0)
        post = posterior_update(model, ParameterSpace(-10.0, 10.0))
        assert abs(post.params[0] - 3.3) < 1e-4

    def test_normal_rejects_no_data_or_flat_prior(self):
        with pytest.raises(ValidationError):
            NormalKnownVarModel(n=0, ybar=0.0, sigma=1.0)
        with pytest.raises(ValidationError):
            NormalKnownVarModel(n=1, ybar=0.0, sigma=1.0, prior_sd=float("inf"))
        for n in (2.5, True):
            with pytest.raises(ValidationError, match="integer"):
                NormalKnownVarModel(n=n, ybar=0.0, sigma=1.0)


class TestRegionProbability:
    def test_uniform_prior_measures_regions(self):
        post = posterior_update(BinomialModel(n=0, k=0), BIAS_SPACE)
        assert posterior_region_prob(post, RegionSet.single(-0.106, 0.106)) == (
            pytest.approx(0.212, abs=1e-12)
        )

    def test_empty_and_full(self):
        post = posterior_update(BinomialModel(n=10, k=7), BIAS_SPACE)
        assert posterior_region_prob(post, RegionSet()) == 0.0
        assert posterior_region_prob(post, RegionSet.single(-0.5, 0.5)) == (
            pytest.approx(1.0, abs=1e-8)
        )

    def test_additivity_over_partition(self):
        post = posterior_update(BinomialModel(n=30, k=11), BIAS_SPACE)
        pieces = [
            RegionSet.single(-0.5, -0.2),
            RegionSet.single(-0.2, 0.05, lo_open=True),
            RegionSet.single(0.05, 0.5, lo_open=True),
        ]
        total = sum(posterior_region_prob(post, rs) for rs in pieces)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_outside_space_rejected(self):
        from relkit.errors import DomainError

        post = posterior_update(BinomialModel(n=10, k=7), BIAS_SPACE)
        with pytest.raises(DomainError):
            posterior_region_prob(post, RegionSet.single(-0.7, 0.0))


class TestCredibleInterval:
    def test_uniform_bias_interval(self):
        post = posterior_update(BinomialModel(n=0, k=0), BIAS_SPACE)
        lo, hi = credible_interval(post, 0.95)
        assert lo == pytest.approx(-0.475, abs=1e-8)
        assert hi == pytest.approx(0.475, abs=1e-8)

    def test_standard_normal_interval(self):
        post = PosteriorModel("normal", (0.0, 1.0), ParameterSpace(-12.0, 12.0))
        lo, hi = credible_interval(post, 0.95)
        assert hi == pytest.approx(1.95996, abs=1e-5)
        assert lo == pytest.approx(-hi, abs=1e-9)

    def test_symmetric_midmass_interval(self):
        post = PosteriorModel("normal", (0.7, 0.4), ParameterSpace(-12.0, 12.0))
        lo, hi = credible_interval(post, 0.5)
        assert (lo + hi) / 2.0 == pytest.approx(0.7, abs=1e-8)

    def test_quantile_cdf_round_trip(self):
        posts = [
            posterior_update(BinomialModel(n=10, k=7), BIAS_SPACE),
            PosteriorModel("normal", (0.01, 0.3), ParameterSpace(-2.0, 2.0)),
        ]
        for post in posts:
            for p in [x / 100 for x in range(1, 100)]:
                assert post.cdf(post.quantile(p)) == pytest.approx(p, abs=1e-8)

    def test_cdf_refuses_nan_in_both_families(self):
        posts = [
            posterior_update(BinomialModel(n=10, k=7), BIAS_SPACE),
            PosteriorModel("normal", (0.01, 0.3), ParameterSpace(-2.0, 2.0)),
        ]
        for post in posts:
            with pytest.raises(ValueError, match="nan") as got:
                post.cdf(math.nan)
            assert type(got.value) is ValueError, post.family

    def test_invalid_mass(self):
        post = posterior_update(BinomialModel(n=0, k=0), BIAS_SPACE)
        with pytest.raises(ValidationError):
            credible_interval(post, 1.0)


class TestTruncation:
    def test_truncated_normal_matches_scipy(self):
        space = ParameterSpace(-0.3, 0.8)
        post = PosteriorModel("normal", (0.1, 0.4), space)
        ref = stats.truncnorm((-0.3 - 0.1) / 0.4, (0.8 - 0.1) / 0.4, loc=0.1, scale=0.4)
        for x in (-0.2, 0.0, 0.3, 0.7):
            assert post.cdf(x) == pytest.approx(float(ref.cdf(x)), abs=1e-10)
        assert posterior_region_prob(post, RegionSet.single(-0.3, 0.8)) == (
            pytest.approx(1.0, abs=1e-12)
        )

    def test_vanishing_mass_raises(self):
        post = PosteriorModel("normal", (0.0, 1e-6), ParameterSpace(1.0, 2.0))
        with pytest.raises(NumericalError):
            post.cdf(1.5)


class TestDensity:
    def _posteriors(self):
        """Random posteriors, a third of them up to 30 sd beyond an end of
        the space with their mass still a normal double. Binomial counts stop
        at 400: the log-density terms grow with the count and cancel, so the
        absolute agreement of any two formulas falls to about 1e-12 at
        n = 1000."""
        rng = random.Random(4242)
        for i in range(400):
            if i % 2:
                lo, hi = -rng.uniform(0.05, 1.0), rng.uniform(0.05, 1.0)
                sd = math.exp(rng.uniform(math.log(1e-3), 0.0))
                side = i % 3
                if side == 0:
                    mean = rng.uniform(lo, hi)
                elif side == 1:
                    mean = hi + rng.uniform(0.0, 30.0) * sd
                else:
                    mean = lo - rng.uniform(0.0, 30.0) * sd
                post = PosteriorModel("normal", (mean, sd), ParameterSpace(lo, hi))
                ref = lambda x, post=post: stats.norm.logpdf(x, *post.params)
            else:
                w = rng.uniform(0.05, 0.5)
                n = rng.choice((10, 100, 400))
                k = (0, n, rng.randint(0, n))[i % 3]
                post = posterior_update(BinomialModel(n=n, k=k), ParameterSpace(-w, w))
                ref = lambda x, post=post: stats.beta.logpdf(x + 0.5, *post.params)
            yield rng, post, ref

    def test_log_pdf_matches_scipy_over_the_mass_of_the_space(self):
        for rng, post, ref in self._posteriors():
            shift = oracles.native_shift(post.family)
            lo, hi = post.space.lo + shift, post.space.hi + shift
            log_mass = oracles.log_mass(post.family, post.params, lo, hi)
            for _ in range(5):
                x = rng.uniform(post.space.lo, post.space.hi)
                assert post.log_pdf(x) == pytest.approx(
                    float(ref(x)) - log_mass, rel=1e-12, abs=1e-12
                ), (post, x)

    def test_pdf_is_zero_outside_the_space(self):
        for _, post, _ in self._posteriors():
            lo, hi = post.space.lo, post.space.hi
            below, above = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
            for x in (lo - 1.0, below, above, hi + 1.0):
                assert post.pdf(x) == 0.0
                assert post.log_pdf(x) == -math.inf

    def test_posterior_pickles_after_density_use(self):
        import pickle

        for _, post, _ in self._posteriors():
            x = 0.5 * (post.space.lo + post.space.hi)
            density = post.pdf(x)
            assert pickle.loads(pickle.dumps(post)).pdf(x) == density

    def test_tails_taken_once_per_point_and_posterior(self, monkeypatch):
        import relkit.inference as inference

        calls = []
        real = inference.regularized_incomplete_beta

        def counting(a, b, x):
            calls.append((a, b, x))
            return real(a, b, x)

        monkeypatch.setattr(inference, "regularized_incomplete_beta", counting)
        post = posterior_update(BinomialModel(n=100, k=63), BIAS_SPACE)
        first = post._tails_at(0.106)
        assert first == inference._beta_tails(post.params, 0.106 + 0.5)
        calls.clear()
        assert post._tails_at(0.106) is first
        assert post._prob(-0.106, 0.106) == post._prob(-0.106, 0.106)
        assert len(calls) == 3  # the tails at -0.106 and at both space ends
        other = posterior_update(BinomialModel(n=100, k=63), BIAS_SPACE)
        assert other == post and other._tails == {}

    def test_beta_normaliser_computed_once_per_posterior(self, monkeypatch):
        import relkit.inference as inference

        calls = []
        real = inference.log_beta
        monkeypatch.setattr(inference, "log_beta", lambda a, b: calls.append(1) or real(a, b))
        for n, k in ((10, 7), (400, 400), (1000, 3)):
            post = posterior_update(BinomialModel(n=n, k=k), ParameterSpace(-0.2, 0.2))
            post.cdf(0.0)  # the mass of the space goes through log_beta too
            calls.clear()
            for i in range(1000):
                post.pdf(-0.2 + 0.4 * i / 999)
            assert len(calls) <= 1


class TestQuadrature:
    def test_constant_and_polynomial(self):
        assert quadrature(lambda t: 1.0, 0.0, 1.0).value == pytest.approx(1.0, abs=1e-14)
        result = quadrature(lambda t: t * t, 0.0, 1.0)
        assert result.value == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert result.converged

    def test_beta_density_normalizes(self):
        post = posterior_update(
            BinomialModel(n=10, k=7, prior_alpha=1, prior_beta=1), BIAS_SPACE
        )
        beta = oracles.conjugate_update("binomial", (1.0, 1.0), 10, 7)
        cuts = oracles.density_splits(*beta, BIAS_SPACE)
        total = oracles.quad_split(post.pdf, -0.5, 0.5, cuts)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_depth_exhaustion_flagged(self):
        result = quadrature(
            lambda t: 1.0 / math.sqrt(abs(t - 0.3) + 1e-300), 0.0, 1.0,
            tol=1e-13, max_depth=6,
        )
        assert not result.converged

    def test_budgets_count_every_sample(self):
        """A depth-limited run samples the whole tree of panels, 3 + 2 *
        (2**(d+1) - 1) points; a run out of budget stops splitting once
        max_evals samples are taken, after the pending right panels of the
        depth-first recursion take their two samples each."""

        def samples(**budget):
            calls = []
            f = lambda t: calls.append(t) or 1.0 / math.sqrt(abs(t - 0.3) + 1e-12)
            assert not quadrature(f, 0.0, 1.0, tol=1e-10, **budget).converged
            return len(calls)

        assert samples(max_depth=4) == 3 + 2 * (2**5 - 1)
        assert samples(max_evals=40) == 53

    def test_empty_and_reversed_ranges(self):
        assert quadrature(lambda t: 5.0, 1.0, 1.0).value == 0.0
        with pytest.raises(ValueError):
            quadrature(lambda t: 1.0, 1.0, 0.0)


def _random_region(rng, lo, hi):
    margin = 0.02 * (hi - lo)
    a = rng.uniform(lo + margin, hi - margin)
    b = rng.uniform(lo + margin, hi - margin)
    if a > b:
        a, b = b, a
    if a == b:
        b = min(hi - margin, a + 0.05)
    return RegionSet((Interval(a, b),))


def test_conjugacy_matches_quadrature_battery():
    """Closed-form region probabilities vs numeric integration of
    prior x likelihood / evidence, both models."""
    rng = random.Random(5150)
    for _ in range(40):
        if rng.random() < 0.5:
            alpha, beta = rng.uniform(0.7, 20.0), rng.uniform(0.7, 20.0)
            n = rng.randint(0, 400)
            k = rng.randint(0, n) if n else 0
            model = BinomialModel(n=n, k=k, prior_alpha=alpha, prior_beta=beta)
            space = BIAS_SPACE
        else:
            prior_mean = rng.uniform(-1.0, 1.0)
            prior_sd = rng.uniform(0.2, 2.0)
            sigma = rng.uniform(0.2, 2.0)
            n = rng.randint(1, 500)
            ybar = rng.uniform(-1.5, 1.5)
            model = NormalKnownVarModel(
                n=n, ybar=ybar, sigma=sigma, prior_mean=prior_mean, prior_sd=prior_sd
            )
            space = ParameterSpace(-5.0, 5.0)
        post = posterior_update(model, space)
        region = _random_region(rng, space.lo, space.hi)
        itv = region.intervals[0]
        assert posterior_region_prob(post, region) == pytest.approx(
            oracles.region_prob_by_quadrature(model, space, itv.lo, itv.hi), abs=1e-6
        )


def test_posterior_summary_fields():
    post = posterior_update(BinomialModel(n=40, k=28), BIAS_SPACE)
    summary = posterior_summary(post)
    # Beta(29, 13) mean on the bias scale
    assert summary["mean"] == pytest.approx(29.0 / 42.0 - 0.5, abs=1e-6)
    assert summary["family"] == "beta"
    assert summary["central_95"][0] < summary["mean"] < summary["central_95"][1]


TAIL_LEVELS = (1e-6, 0.01, 0.025, 0.3, 0.5, 0.7, 0.975, 0.99)


class TestQuantileOracle:
    @pytest.mark.parametrize(
        "mean, sd, lo, hi",
        [
            (0.1, 0.4, -0.3, 0.8),
            (0.0077, 0.00135, -0.1, 0.1),
            (-0.13, 0.001, -0.1, 0.1),
            (0.13, 0.001, -0.1, 0.1),
            (0.5, 0.05, -0.1, 0.1),
        ],
    )
    def test_normal_against_truncnorm(self, mean, sd, lo, hi):
        post = PosteriorModel("normal", (mean, sd), ParameterSpace(lo, hi))
        ref = stats.truncnorm((lo - mean) / sd, (hi - mean) / sd, loc=mean, scale=sd)
        for p in TAIL_LEVELS:
            assert post.quantile(p) == pytest.approx(float(ref.ppf(p)), abs=1e-9)

    @pytest.mark.parametrize(
        "n, k, half",
        [(20, 3, 0.5), (100, 50, 0.5), (1000, 560, 0.5), (200, 0, 0.2), (200, 200, 0.2), (400, 400, 0.15)],
    )
    def test_beta_against_scipy(self, n, k, half):
        post = posterior_update(
            BinomialModel(n=n, k=k), ParameterSpace(-half, half)
        )
        a, b = post.params
        for p in TAIL_LEVELS:
            want = oracles.truncated_ppf(stats.beta(a, b), 0.5 - half, 0.5 + half, p) - 0.5
            assert post.quantile(p) == pytest.approx(want, abs=1e-9)


class TestPosteriorSummaryOracle:
    @pytest.mark.parametrize(
        "mean, sd, lo, hi",
        [(0.1, 0.4, -0.3, 0.8), (0.0077, 0.00135, -0.1, 0.1), (-0.13, 0.001, -0.1, 0.1)],
    )
    def test_normal_against_truncnorm(self, mean, sd, lo, hi):
        post = PosteriorModel("normal", (mean, sd), ParameterSpace(lo, hi))
        ref = stats.truncnorm((lo - mean) / sd, (hi - mean) / sd, loc=mean, scale=sd)
        summary = posterior_summary(post)
        assert summary["mean"] == pytest.approx(float(ref.mean()), rel=1e-9, abs=1e-12)
        assert summary["sd"] == pytest.approx(float(ref.std()), rel=1e-6)

    def test_all_successes_on_narrow_space(self):
        # Beta(401, 1) on [0.35, 0.65]: the density is 401 pi^400, so the
        # truncated moments are ratios of powers of the space ends
        post = posterior_update(
            BinomialModel(n=400, k=400), ParameterSpace(-0.15, 0.15)
        )
        u, v = 0.35, 0.65
        moment = lambda j: (v ** (401 + j) - u ** (401 + j)) / (401 + j)
        mean = moment(1) / moment(0)
        var = moment(2) / moment(0) - mean * mean
        summary = posterior_summary(post)
        assert summary["mean"] == pytest.approx(mean - 0.5, rel=1e-9)
        assert summary["sd"] == pytest.approx(math.sqrt(var), rel=1e-6)

    def test_beta_against_numeric_moments(self):
        from scipy import integrate

        post = posterior_update(
            BinomialModel(n=30, k=21, prior_alpha=2.0, prior_beta=3.0),
            ParameterSpace(-0.3, 0.25),
        )
        dist = stats.beta(*post.params)
        u, v = 0.2, 0.75
        z = dist.cdf(v) - dist.cdf(u)
        mean = integrate.quad(lambda x: x * dist.pdf(x), u, v, epsabs=0, epsrel=1e-13)[0] / z
        var = integrate.quad(
            lambda x: (x - mean) ** 2 * dist.pdf(x), u, v, epsabs=0, epsrel=1e-13
        )[0] / z
        summary = posterior_summary(post)
        assert summary["mean"] == pytest.approx(mean - 0.5, rel=1e-9)
        assert summary["sd"] == pytest.approx(math.sqrt(var), rel=1e-7)


class TestBetaMomentPrecision:
    """Beta moments about the mean keep a concentrated posterior's sd: the
    summary takes them from the tails and the prefactor x^a (1 - x)^b / B(a, b)
    at the ends, with no raw moment E[x^2] to cancel against E[x]^2."""

    def test_concentrated_posterior_near_the_space_end(self):
        # Beta(991, 11) (n = 1000, k = 990) on [-0.3, 0.3]: its mass sits at
        # the space end. The sd is from 50-digit mpmath, split toward 0.8:
        #   mp.dps = 50; f = lambda x: x**990 * (1 - x)**10 / beta(991, 11)
        #   pts = sorted({mpf(0.2)} | {0.8 - mpf(2)**-j for j in range(1, 30)} | {mpf(0.8)})
        #   m = [quad(lambda x: (x - mpf(0.8))**j * f(x), pts) for j in range(3)]
        #   sqrt(m[2] / m[0] - (m[1] / m[0])**2)
        post = posterior_update(BinomialModel(n=1000, k=990), ParameterSpace(-0.3, 0.3))
        assert posterior_summary(post)["sd"] == pytest.approx(8.3890959174834626e-4, rel=1e-9)

    @pytest.mark.parametrize("a, b", [(991, 11), (9001, 1001), (5001, 5001), (100001, 3)])
    def test_untruncated_sd_is_exact(self, a, b):
        summary = posterior_summary(PosteriorModel("beta", (a, b), BIAS_SPACE))
        want = math.sqrt(a * b / ((a + b) ** 2 * (a + b + 1)))
        assert summary["sd"] == pytest.approx(want, rel=1e-11)
        assert summary["mean"] == pytest.approx(a / (a + b) - 0.5, rel=1e-12)

    @pytest.mark.parametrize(
        "a, b, half",
        [
            (991, 11, 0.5),
            (9001, 1001, 0.5),
            (5001, 5001, 0.5),
            (100001, 3, 0.5),
            (9001, 1001, 0.45),
            (5001, 4901, 0.01),
            (60, 40, 0.3),
            (12, 2, 0.3),
            (401, 1, 0.4),
        ],
    )
    def test_mirrored_pairs(self, a, b, half):
        space = ParameterSpace(-half, half)
        one = posterior_summary(PosteriorModel("beta", (a, b), space))
        other = posterior_summary(PosteriorModel("beta", (b, a), space))
        assert one["mean"] == pytest.approx(-other["mean"], rel=1e-12, abs=1e-300)
        assert one["sd"] == pytest.approx(other["sd"], rel=1e-12)


class TestExactBinomialTest:
    """The test takes only the smaller tail, the upper one where 2k >= n."""

    @staticmethod
    def _cases():
        for n in range(301):
            for k in range(n + 1):
                yield n, k
        for n in (999, 1000, 22000, 10**5 + 1):
            ks = set(range(0, n + 1, n // 400)) | {n}
            ks |= {n // 2 + d for d in range(-50, 51)}
            yield from ((n, k) for k in sorted(ks))

    def test_equals_the_two_tail_formula(self):
        import relkit.inference as inference

        for n, k in self._cases():
            got = inference._binomial_point_null(BinomialModel(n=n, k=k))
            want = oracles.two_tail_point_null(n, k, regularized_incomplete_beta)
            assert got == want, (n, k)

    def test_one_incomplete_beta_per_test(self, monkeypatch):
        import relkit.inference as inference

        calls = []
        real = inference.regularized_incomplete_beta

        def counting(a, b, x):
            calls.append((a, b, x))
            return real(a, b, x)

        monkeypatch.setattr(inference, "regularized_incomplete_beta", counting)
        for n, k in ((0, 0), (1, 0), (1, 1), (20, 3), (20, 10), (20, 17), (1001, 500)):
            calls.clear()
            inference._binomial_point_null(BinomialModel(n=n, k=k))
            assert len(calls) <= 1


class TestSupportRule:
    """A family's support is checked by one rule, with one message, by every
    entry point that takes effects: the posterior, the Bayes factor, the
    scenario and the config."""

    MESSAGE = r"map outside the beta support \[0, 1\]; they must lie in \[-0.5, 0.5\]"

    @pytest.mark.parametrize("lo, hi", [(-1.0, 1.0), (-0.6, 0.5), (-0.5, 0.5000001)])
    def test_binomial_entry_points_reject_wide_spaces(self, lo, hi):
        space = ParameterSpace(lo, hi)
        model = BinomialModel(n=20, k=16)
        with pytest.raises(ValidationError, match=self.MESSAGE):
            posterior_update(model, space)
        with pytest.raises(ValidationError, match=self.MESSAGE):
            PosteriorModel("beta", (2.0, 2.0), space)
        pair = HypothesisPair(
            h0=RegionSet.single(lo, 0.0), h1=RegionSet((Interval(0.0, hi, lo_open=True),))
        )
        with pytest.raises(ValidationError, match=self.MESSAGE):
            interval_bayes_factor(model, pair)
        loss = LossSpec(
            space,
            "piecewise_linear",
            CurveKnots((lo, hi), (1.0, 1.0)),
            CurveKnots((lo, hi), (0.0, 2.0)),
        )
        with pytest.raises(ValidationError, match=self.MESSAGE):
            Scenario(
                name="wide",
                family="binomial",
                loss=loss,
                true_effects=(0.0,),
                sample_sizes=(10,),
                replicates=1,
                seed=0,
                procedures=(ProcedureSpec("nhst", {}),),
            )

    def test_whole_bias_range_and_any_normal_space_accepted(self):
        assert posterior_update(BinomialModel(n=20, k=16), BIAS_SPACE).space == BIAS_SPACE
        wide = ParameterSpace(-1e6, 1e6)
        model = NormalKnownVarModel(n=4, ybar=0.1, sigma=1.0)
        assert posterior_update(model, wide).space == wide


class TestTailPosteriors:
    """Posteriors whose mass lies beyond one end of the space: the mass is
    taken from the tail on that side, so each mirrors its partner beyond
    the other end."""

    def _pairs(self):
        space = ParameterSpace(-0.1, 0.1)
        yield (
            PosteriorModel("normal", (-0.13, 0.001), space),
            PosteriorModel("normal", (0.13, 0.001), space),
        )
        space = ParameterSpace(-0.2, 0.2)
        yield (
            posterior_update(BinomialModel(n=200, k=0), space),
            posterior_update(BinomialModel(n=200, k=200), space),
        )

    def test_mirrors_positive_partner(self):
        for low, high in self._pairs():
            for x in (-0.0999, -0.05, 0.0, 0.05, 0.0999):
                assert low.cdf(x) == pytest.approx(1.0 - high.cdf(-x), rel=1e-9, abs=1e-300)
                assert low.pdf(x) == pytest.approx(high.pdf(-x), rel=1e-9, abs=1e-300)
            for p in (0.025, 0.5, 0.975):
                assert low.quantile(p) == pytest.approx(-high.quantile(1.0 - p), abs=1e-12)
            a, b = posterior_summary(low), posterior_summary(high)
            assert a["mean"] == pytest.approx(-b["mean"], rel=1e-9)
            assert a["sd"] == pytest.approx(b["sd"], rel=1e-6)

    def test_region_probabilities_mirror(self):
        for low, high in self._pairs():
            lo, hi = low.space.lo, low.space.hi
            for a, b in ((lo, 0.999 * lo), (0.999 * lo, 0.5 * lo), (0.5 * lo, hi), (0.0, hi)):
                p_low = posterior_region_prob(low, RegionSet.single(a, b))
                p_high = posterior_region_prob(high, RegionSet.single(-b, -a))
                assert p_low == pytest.approx(p_high, rel=1e-9, abs=1e-300)
        # the far end keeps its tiny probability: Beta(1, 201) has upper
        # tail (1 - pi)^201
        low = posterior_update(BinomialModel(n=200, k=0), ParameterSpace(-0.2, 0.2))
        want = (0.4**201 - 0.3**201) / (0.7**201 - 0.3**201)
        got = posterior_region_prob(low, RegionSet.single(0.1, 0.2))
        assert got == pytest.approx(want, rel=1e-9, abs=0.0)
