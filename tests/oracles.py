"""Independent references for the tests, each defined once.

Three kinds of oracle live here:

- **SciPy only.** Truncated masses, quantiles and densities from
  ``scipy.special`` and ``scipy.stats``, the conjugate updates written out,
  expected losses by ``scipy.integrate.quad``, and one verdict per procedure
  (``scipy_verdict``) built from them. They take from relkit only the
  problem they are asked about: the loss (``evaluate_loss``,
  ``breakpoints``), its partition and hypothesis pair, and a procedure's
  parsed settings. No rule, tail, moment or quadrature of relkit enters.
- **Exact rates.** The binomial pmf in log space, the rate of a verdict as
  the sum of pmf(k) over the counts that give it, and the closed forms of
  the normal tests' rates.
- **Brute force through the bound kernel.** ``compile_procedure`` binds one
  procedure alone and evaluates it on a dataset, as a sweep of it alone
  does; ``brute_force_counts`` and ``brute_force_table`` run it on every
  draw, with no verdict map. The sweep's maps are checked against these.
"""

from __future__ import annotations

import math
from collections import Counter

from scipy import integrate, special, stats

from relkit.decisions import EXPECTED_LOSS_TIE_TOL
from relkit.errors import RelkitError
from relkit.hypotheses import derive_hypotheses
from relkit.inference import BinomialDraw, BinomialModel, NormalDraw
from relkit.loss import ACTIONS, breakpoints, evaluate_loss
from relkit.regions import partition, region_hull
from relkit.simulate import (
    ErrorReport,
    RateCell,
    RateTable,
    parse_settings,
    simulate_dataset,
)

# The brute-force verdict of one procedure bound alone, (scenario, proc) ->
# dataset -> verdict. It stays in relkit.simulate while the benchmark's
# reference builder imports it from there; this is the one test module
# that does.
from relkit.simulate import _compile_procedure as compile_procedure

# a beta posterior is on pi, the effect plus this; a normal one on the effect
BETA_SHIFT = 0.5
# the models' priors when a scenario gives none
DEFAULT_PRIORS = {"binomial": (1.0, 1.0), "normal": (0.0, 1.0)}
# a SciPy verdict whose margin is below this is left to rounding
GUARD = 1e-9


# --- integration -------------------------------------------------------------


def quad_split(f, lo: float, hi: float, cuts=()) -> float:
    """The integral of f over [lo, hi] by scipy.integrate.quad, split at the
    cuts that fall strictly inside."""
    points = [lo, *sorted(c for c in set(cuts) if lo < c < hi), hi]
    return sum(
        integrate.quad(f, a, b, epsabs=1e-13, epsrel=1e-12)[0]
        for a, b in zip(points, points[1:])
    )


# --- truncated distributions ------------------------------------------------


def location_scale(family: str, params) -> tuple[float, float]:
    """Mean and sd of Beta(a, b) or Normal(mean, sd), on the native scale."""
    a, b = params
    if family == "beta":
        s = a + b
        return a / s, math.sqrt(a * b / (s * s * (s + 1.0)))
    return a, b


def log_density(family: str, params):
    """x -> the log density of Beta(a, b) or Normal(mean, sd) at x (native
    scale): the formula of SciPy's ``logpdf``, without a frozen
    distribution's overhead."""
    a, b = params
    if family == "beta":
        log_norm = special.betaln(a, b)
        return lambda x: special.xlogy(a - 1.0, x) + special.xlog1py(b - 1.0, -x) - log_norm
    log_norm = math.log(b * math.sqrt(2.0 * math.pi))
    return lambda x: -0.5 * ((x - a) / b) ** 2 - log_norm


def log_mass(family: str, params, lo: float, hi: float) -> float:
    """log of the untruncated mass of [lo, hi] (native scale), from SciPy's
    tails on the side away from the distribution's location, so that a far
    tail keeps its relative precision; -inf where it underflows."""
    a, b = params
    if family == "normal":
        zl, zh = (lo - a) / b, (hi - a) / b
        if zl >= 0.0:  # mirror into the lower tail
            zl, zh = -zh, -zl
        if zh <= 0.0:
            top = special.log_ndtr(zh)
            return top + math.log1p(-math.exp(special.log_ndtr(zl) - top))
        mass = special.ndtr(zh) - special.ndtr(zl)
    elif lo >= a / (a + b):
        mass = special.betaincc(a, b, lo) - special.betaincc(a, b, hi)
    else:
        mass = special.betainc(a, b, hi) - special.betainc(a, b, lo)
    return math.log(mass) if mass > 0.0 else -math.inf


def truncated_ppf(dist, lo: float, hi: float, p: float) -> float:
    """SciPy's quantile of a frozen distribution truncated to [lo, hi]
    (native scale), taken on the side where the truncation's tail masses
    are small."""
    f_lo, f_hi, s_lo, s_hi = dist.cdf(lo), dist.cdf(hi), dist.sf(lo), dist.sf(hi)
    if f_hi <= 0.5:
        return float(dist.ppf(f_lo + p * (f_hi - f_lo)))
    if s_lo <= 0.5:
        return float(dist.isf(s_lo - p * (s_lo - s_hi)))
    return float(dist.ppf(f_lo + p * (1.0 - f_lo - s_hi)))


def native_shift(family: str) -> float:
    """What an effect adds to be on the native scale of Beta or Normal."""
    return BETA_SHIFT if family == "beta" else 0.0


def density_splits(family: str, params, space, spread=(1, 2, 4, 8, 16, 32)):
    """Cut points at the mean of Beta or Normal ``params`` and m sd either
    side of it for m in ``spread``, on the effect scale, inside the space,
    so that quad cannot step over a concentrated density."""
    loc, sd = location_scale(family, params)
    loc -= native_shift(family)
    near = (loc + sign * m * sd for m in (0, *spread) for sign in (-1.0, 1.0))
    return tuple(sorted({x for x in near if space.lo < x < space.hi}))


def posterior_expectation(family: str, params, space, f, cuts=()) -> float:
    """E[f(theta)] under Beta or Normal ``params`` truncated to the space
    (effect scale), by quad_split of f times the density over the mass of
    the space. quad is split at ``cuts`` and at up to 64 sd either side of
    the mean: the skewed tail of Beta(2, 9999) holds 2.6e-5 of its mass
    beyond 8 sd, which one panel to the space end steps over."""
    shift, lo, hi = native_shift(family), space.lo, space.hi
    log_pdf = log_density(family, params)
    log_total = log_mass(family, params, lo + shift, hi + shift)
    near = density_splits(family, params, space, spread=(1, 2, 4, 8, 16, 64))
    return quad_split(
        lambda t: f(t) * math.exp(log_pdf(t + shift) - log_total), lo, hi, (*cuts, *near)
    )


def expected_losses_oracle(post, spec) -> list[float]:
    """E[L(a0)] and E[L(a1)] under a posterior, by ``posterior_expectation``
    of each loss curve split at the loss knots."""
    cuts = breakpoints(spec)
    return [
        posterior_expectation(
            post.family, post.params, post.space, lambda t: evaluate_loss(spec, t, a), cuts
        )
        for a in ACTIONS
    ]


# --- the conjugate update, and prior x likelihood by quadrature ---------------


def conjugate_update(family: str, prior, n: int, statistic: float, sigma=None):
    """The posterior family and parameters of a draw: Beta(alpha + k,
    beta + n - k), or the normal whose precision is the prior's plus
    n / sigma^2."""
    a, b = prior
    if family == "binomial":
        return "beta", (a + statistic, b + n - statistic)
    precision = 1.0 / (b * b) + n / (sigma * sigma)
    mean = (a / (b * b) + n * statistic / (sigma * sigma)) / precision
    return "normal", (mean, precision**-0.5)


def region_prob_by_quadrature(model, space, a: float, b: float) -> float:
    """P(a <= effect <= b | data) under the model's prior truncated to the
    space: the quad_split integral of the prior times the likelihood over
    [a, b] over the one over the space. The conjugate posterior's mean only
    places the cut points."""
    n = model.n
    if isinstance(model, BinomialModel):
        alpha, beta, k = model.prior_alpha, model.prior_beta, model.k

        def log_f(t):
            pi = t + BETA_SHIFT
            if pi <= 0.0 or pi >= 1.0:
                return -math.inf
            return (alpha + k - 1.0) * math.log(pi) + (beta + n - k - 1.0) * math.log1p(-pi)

        posterior = conjugate_update("binomial", (alpha, beta), n, k)
    else:
        mean, sd, ybar = model.prior_mean, model.prior_sd, model.ybar
        se = model.sigma / math.sqrt(n)
        log_f = lambda t: -0.5 * ((t - mean) / sd) ** 2 - 0.5 * ((ybar - t) / se) ** 2
        posterior = conjugate_update("normal", (mean, sd), n, ybar, model.sigma)
    cuts = density_splits(*posterior, space)
    lo, hi = space.lo, space.hi
    # scaled to a peak near 1
    probes = [lo + j * (hi - lo) / 64 for j in range(65)] + list(cuts)
    peak = max(log_f(t) for t in probes)
    integrand = lambda t: math.exp(log_f(t) - peak)
    return quad_split(integrand, a, b, cuts) / quad_split(integrand, lo, hi, cuts)


# --- SciPy-only verdicts ------------------------------------------------------


def two_tail_point_null(n: int, k: int, betainc=special.betainc) -> tuple[float, float]:
    """The exact binomial test of pi = 1/2 from both tails, min(1, 2 min(P(X
    <= k), P(X >= k))), and k: P(X >= k) = I_{1/2}(k, n - k + 1) and P(X <= k)
    = I_{1/2}(n - k, k + 1), by ``betainc``, SciPy's by default."""
    lower = 1.0 if k == n else float(betainc(n - k, k + 1, 0.5))
    upper = 1.0 if k == 0 else float(betainc(k, n - k + 1, 0.5))
    return min(1.0, 2.0 * min(lower, upper)), float(k)


def _log_region(family: str, params, region, shift: float) -> float:
    """log of the untruncated mass of a region's intervals (effect scale)."""
    logs = [log_mass(family, params, i.lo + shift, i.hi + shift) for i in region.intervals]
    return float(special.logsumexp(logs)) if logs else -math.inf


def log_odds(family: str, params, pair) -> float:
    """log P(H1) / P(H0) of a hypothesis pair under the untruncated Beta or
    Normal ``params``."""
    shift = native_shift(family)
    return _log_region(family, params, pair.h1, shift) - _log_region(family, params, pair.h0, shift)


def log_bayes_factor(family: str, prior, post, pair) -> float:
    """log BF_10 of a hypothesis pair: the log posterior odds of H1 over H0
    less the log prior odds."""
    return log_odds(family, post, pair) - log_odds(family, prior, pair)


def _interval(loss, bounds) -> tuple[float, float]:
    if bounds == "partition_hull":
        hull = region_hull(partition(loss).negligible)
        return hull.lo, hull.hi
    return bounds


def _near(x: float, level: float) -> float:
    """How far x lies from a positive level, relative to it."""
    return abs(x - level) / level


def _ratio_verdict(log_odds: float, lo: float, hi: float, verdicts) -> tuple[str, float]:
    """The (high, middle, low) verdict of odds above hi, in [lo, hi] and
    below lo, with its margin."""
    high, middle, low = verdicts
    margin = min(abs(log_odds - math.log(lo)), abs(log_odds - math.log(hi)))
    if log_odds > math.log(hi):
        return high, margin
    return (low if log_odds < math.log(lo) else middle), margin


def _loss_peak(loss) -> float:
    """The largest loss at the space ends and the loss knots."""
    points = (loss.space.lo, loss.space.hi, *breakpoints(loss))
    return max(evaluate_loss(loss, t, a) for t in points for a in ACTIONS)


def scipy_verdict(scenario, proc, n: int, statistic: float) -> tuple[str, float]:
    """The verdict of a procedure on the draw (n, k or ybar) of a scenario,
    by SciPy alone, and its margin: how far the quantity it compares lies
    from its threshold, relative to it (for odds and Bayes factors, in
    log). A margin below GUARD is within rounding of a cut."""
    settings = parse_settings(proc, scenario.family)
    loss, family = scenario.loss, scenario.family
    space = loss.space
    prior = scenario.prior or DEFAULT_PRIORS[family]
    if proc.name == "nhst":
        alpha = settings["alpha"]
        if family == "binomial":
            p = two_tail_point_null(n, statistic)[0]
        else:
            p = 2.0 * special.ndtr(-abs(statistic * math.sqrt(n) / scenario.sigma))
        return ("reject" if p < alpha else "fail_to_reject"), _near(p, alpha)
    if proc.name == "tost":
        alpha, (lo, hi) = settings["alpha"], _interval(loss, settings["bounds"])
        se = scenario.sigma / math.sqrt(n)
        # the larger p of the one-sided z-tests against lo and hi
        p = max(special.ndtr(-(statistic - lo) / se), special.ndtr((statistic - hi) / se))
        return ("equivalent" if p < alpha else "not_equivalent"), _near(p, alpha)
    pair = derive_hypotheses(partition(loss))
    if proc.name == "bayes_factor":
        post_family, post = conjugate_update(family, prior, n, statistic, scenario.sigma)
        threshold = settings["threshold"]
        log_bf = log_bayes_factor(post_family, prior, post, pair)
        return _ratio_verdict(
            log_bf, 1.0 / threshold, threshold, ("favors_h1", "inconclusive", "favors_h0")
        )
    post_family, post = conjugate_update(family, prior, n, statistic, scenario.sigma)
    shift = native_shift(post_family)
    log_total = log_mass(post_family, post, space.lo + shift, space.hi + shift)
    if proc.name == "rope":
        lo, hi = _interval(loss, settings["rope"])
        tail = 0.5 * (1.0 - settings["mass"])
        below = math.exp(log_mass(post_family, post, space.lo + shift, lo + shift) - log_total)
        above = math.exp(log_mass(post_family, post, hi + shift, space.hi + shift) - log_total)
        margin = min(_near(x, level) for x in (below, above) for level in (tail, 1.0 - tail))
        if below <= tail and above <= tail:
            return "accept_a0", margin
        if below > 1.0 - tail or above > 1.0 - tail:
            return "accept_a1", margin
        return "withhold", margin
    if proc.name == "hypothesis_ratio":
        ratio = settings["loss_ratio"]
        log_odds = _log_region(post_family, post, pair.h1, shift) - _log_region(
            post_family, post, pair.h0, shift
        )
        # a scalar ratio gives a0 on a tie; an interval is indeterminate inside
        middle = "a0" if ratio.lo == ratio.hi else "indeterminate"
        return _ratio_verdict(log_odds, ratio.lo, ratio.hi, ("a1", middle, "a0"))
    # expected_loss: a1 where E[L(a1) - L(a0) | y] is below -tol, tol the
    # rule's tie tolerance, a share of the loss's peak
    peak = _loss_peak(loss)
    tol = EXPECTED_LOSS_TIE_TOL * peak
    difference = posterior_expectation(
        post_family,
        post,
        space,
        lambda t: evaluate_loss(loss, t, "a1") - evaluate_loss(loss, t, "a0"),
        breakpoints(loss),
    )
    margin = abs(difference + tol) / peak if peak else math.inf
    return ("a1" if difference < -tol else "a0"), margin


# --- exact rates ---------------------------------------------------------------


def log_binomial_pmf(n: int, k: int, pi: float) -> float:
    """log of the binomial pmf at k, in log space, for 0 < pi < 1."""
    log_choose = math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    return log_choose + k * math.log(pi) + (n - k) * math.log1p(-pi)


def exact_binomial_rates(scenario) -> dict:
    """{(effect, n, procedure): {verdict: rate}} of a binomial scenario, each
    procedure bound alone on every count k from 0 to n, "error" where it
    raises, and a verdict's rate the sum of pmf(k) over its counts."""
    exact = {}
    for proc in scenario.procedures:
        verdict_of = compile_procedure(scenario, proc)
        for n in scenario.sample_sizes:
            verdicts = []
            for k in range(n + 1):
                try:
                    verdicts.append(verdict_of(BinomialDraw(n, k)))
                except RelkitError:
                    verdicts.append("error")
            for effect in scenario.true_effects:
                rates = dict.fromkeys(verdicts, 0.0)
                for k, verdict in enumerate(verdicts):
                    rates[verdict] += math.exp(log_binomial_pmf(n, k, effect + BETA_SHIFT))
                exact[effect, n, proc.name] = rates
    return exact


def normal_upper_z(q: float) -> float:
    """z with standard normal upper tail q, by SciPy's ndtri."""
    return float(-special.ndtri(q))


def nhst_reject_rate(effect: float, se: float, alpha: float) -> float:
    """P(|z| > z_{alpha/2}) for z ~ Normal(effect / se, 1)."""
    two = stats.norm.isf(alpha / 2)
    mean = effect / se
    return stats.norm.sf(two - mean) + stats.norm.cdf(-two - mean)


def tost_equivalent_rate(effect: float, se: float, lo: float, hi: float, alpha: float) -> float:
    """P(lo + z_alpha se < ybar < hi - z_alpha se) for ybar ~ Normal(effect,
    se): the bounds narrowed by the one-sided critical value."""
    one = stats.norm.isf(alpha)
    inside = stats.norm.cdf((hi - effect) / se - one) - stats.norm.cdf((lo - effect) / se + one)
    return max(inside, 0.0)


# --- brute force through the bound kernel ------------------------------------


def draw_of(scenario, n: int, statistic):
    """The dataset of a scenario's family with n and the statistic."""
    if scenario.family == "binomial":
        return BinomialDraw(n, statistic)
    return NormalDraw(n, statistic, scenario.sigma)


def brute_force_counts(scenario, n: int, statistics) -> list:
    """Per procedure, bound alone and run on every draw (n, statistic) in
    the given order: its verdict counts, with "error" for a draw it raised
    on, and the (class, message) of the first error, or None."""
    out = []
    for proc in scenario.procedures:
        verdict, counts, first = compile_procedure(scenario, proc), Counter(), None
        for x in statistics:
            try:
                counts[verdict(draw_of(scenario, n, x))] += 1
            except RelkitError as exc:
                counts["error"] += 1
                first = first or (type(exc), str(exc))
        out.append((counts, first))
    return out


def brute_force_table(scenario) -> RateTable:
    """The rate table, error reports included, of ``brute_force_counts`` on
    every replicate of every cell in replicate order: the sweep without its
    verdict maps."""
    cells, errors = [], []
    reps = scenario.replicates
    for effect in scenario.true_effects:
        for n in scenario.sample_sizes:
            statistics = [simulate_dataset(scenario, effect, n, r)[1] for r in range(reps)]
            for proc, (counts, first) in zip(
                scenario.procedures, brute_force_counts(scenario, n, statistics)
            ):
                freqs = {v: counts[v] / reps for v in sorted(counts)}
                ses = {v: math.sqrt(f * (1.0 - f) / reps) for v, f in freqs.items()}
                cells.append(RateCell(effect, n, proc.name, freqs, ses, reps))
                if first is not None:
                    error_class, message = first
                    errors.append(
                        ErrorReport(
                            effect, n, proc.name, counts["error"], error_class.__name__, message
                        )
                    )
    return RateTable(scenario.name, scenario.seed, reps, tuple(cells), tuple(errors))
