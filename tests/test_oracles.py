"""Each procedure's bound kernel against its verdict by SciPy alone.

``oracles.scipy_verdict`` takes every verdict from SciPy's tails, masses and
quadrature, sharing no rule with relkit. The bound kernel
(``simulate.bind_procedure``, through ``oracles.compile_procedure``) must
give the same verdict on every count k of the binomial scenarios, and on a
dense ybar scan of the normal ones, except within rounding of a cut, where
the two may differ in the last bits of what they compare; those points are
skipped and counted. A rule with one comparison flipped must disagree.
"""

import dataclasses
import math
from collections import Counter

import pytest

import relkit.simulate as sim
from relkit.hypotheses import derive_hypotheses
from relkit.regions import partition

import oracles
from conftest import BENCH_BINOMIAL_PROCEDURES, BENCH_NORMAL_PROCEDURES, shipped_scenario

SCENARIOS = {
    "coin": lambda: shipped_scenario("coin_scenario"),
    "bench_binomial": lambda: shipped_scenario(
        "coin_scenario", procedures=BENCH_BINOMIAL_PROCEDURES
    ),
    "aspirin": lambda: shipped_scenario("aspirin_scenario"),
    "bench_normal": lambda: shipped_scenario(
        "aspirin_scenario", prior=(0.0, 0.05), procedures=BENCH_NORMAL_PROCEDURES
    ),
}
# ybar points of a normal scan, over the space and 6 standard errors past it
SCAN_POINTS = 1001


def _statistics(scenario, n):
    """Every count of a binomial scenario; a ybar scan of a normal one."""
    if scenario.family == "binomial":
        return range(n + 1)
    reach = 6.0 * scenario.sigma / math.sqrt(n)
    lo, hi = scenario.loss.space.lo - reach, scenario.loss.space.hi + reach
    return [lo + (hi - lo) * i / (SCAN_POINTS - 1) for i in range(SCAN_POINTS)]


def _agreement(scenario, n):
    """Per procedure: the statistics where the bound kernel's verdict is not
    SciPy's, how many points lay within GUARD of a cut and were skipped, and
    the verdicts reached."""
    out = {}
    for proc in scenario.procedures:
        kernel = oracles.compile_procedure(scenario, proc)
        mismatches, skipped, reached = [], 0, Counter()
        for x in _statistics(scenario, n):
            want, margin = oracles.scipy_verdict(scenario, proc, n, x)
            if margin < oracles.GUARD:
                skipped += 1
                continue
            got = kernel(oracles.draw_of(scenario, n, x))
            reached[got] += 1
            if got != want:
                mismatches.append((x, got, want))
        out[proc.name] = mismatches, skipped, reached
    return out


CASES = [
    *((name, n) for name in ("coin", "bench_binomial") for n in (20, 100, 1000)),
    *((name, n) for name in ("aspirin", "bench_normal") for n in (50, 22000)),
]


@pytest.mark.parametrize("name, n", CASES, ids=[f"{name}-{n}" for name, n in CASES])
def test_scipy_verdicts_equal_the_bound_kernels(name, n):
    """Every point agrees. No point lies within GUARD of a cut, so none is
    skipped. Each procedure reaches two verdicts or more, except tost at
    n = 50: its 90% interval is wider than the bounds there, so it never
    finds equivalence."""
    scenario = SCENARIOS[name]()
    for proc, (mismatches, skipped, reached) in _agreement(scenario, n).items():
        assert mismatches == [], proc
        assert skipped == 0, proc
        assert len(reached) >= 2 or (proc, n) == ("tost", 50), (proc, reached)


# --- the Bayes factor as a hypothesis-ratio rule -----------------------------

# the hypothesis-ratio verdict each Bayes-factor verdict must equal
AS_RATIO_RULE = {"favors_h1": "a1", "inconclusive": "indeterminate", "favors_h0": "a0"}
# the bench scenarios take the loss and prior of the shipped ones, and the
# test sets the procedures itself, so one scenario per family serves
RULE_CASES = [(name, n) for name, n in CASES if not name.startswith("bench")]


@pytest.mark.parametrize("name, n", RULE_CASES, ids=[f"{name}-{n}" for name, n in RULE_CASES])
def test_bayes_factor_is_the_hypothesis_ratio_rule_at_its_implied_loss_ratio(name, n):
    """BF10 is the posterior odds of H1 over O, their prior odds under the
    model's prior. So the Bayes factor at threshold t favors H1 where the
    posterior odds exceed t O and H0 where they fall below O / t: its bound
    kernel decides as the hypothesis-ratio rule's does at the loss ratio
    [O / t, t O]. Points where BF10 lies within GUARD of t or 1 / t are
    skipped and counted; there are none. Every verdict is reached, but for
    favors_h0 at n = 50. At t = 1 the two differ on an exact tie alone: the
    scalar ratio O gives a0 there, and the Bayes factor inconclusive."""
    scenario = SCENARIOS[name]()
    bench = SCENARIOS["bench_binomial" if scenario.family == "binomial" else "bench_normal"]()
    assert (bench.loss, bench.prior) == (scenario.loss, scenario.prior)
    pair = derive_hypotheses(partition(scenario.loss))
    prior = scenario.prior or oracles.DEFAULT_PRIORS[scenario.family]
    odds = math.exp(oracles.log_odds(sim.FAMILIES[scenario.family].posterior, prior, pair))
    reached, skipped = Counter(), 0
    for t in (3.0, 10.0):
        factor = sim.ProcedureSpec("bayes_factor", {"threshold": t})
        ratio = sim.ProcedureSpec("hypothesis_ratio", {"loss_ratio": [odds / t, t * odds]})
        by_factor, by_ratio = (oracles.compile_procedure(scenario, p) for p in (factor, ratio))
        for x in _statistics(scenario, n):
            if oracles.scipy_verdict(scenario, factor, n, x)[1] < oracles.GUARD:
                skipped += 1
                continue
            draw = oracles.draw_of(scenario, n, x)
            verdict = by_factor(draw)
            assert by_ratio(draw) == AS_RATIO_RULE[verdict], (t, x, verdict)
            reached[verdict] += 1
    assert skipped == 0
    assert set(reached) == set(AS_RATIO_RULE) - ({"favors_h0"} if n == 50 else set())


# --- mutants: each rule with one comparison flipped ---------------------------
#
# Each takes the rule it replaces and returns what that rule returns, with
# the verdict taken by one comparison of the rule turned around.


def _flipped_nhst(rule):
    def nhst(point_null, model, alpha):
        _, p, statistic = rule(point_null, model, alpha)
        return ("reject" if p > alpha else "fail_to_reject"), p, statistic

    return nhst


def _flipped_tost(rule):
    def tost(tails, alpha):
        _, p, statistic = rule(tails, alpha)
        return ("equivalent" if p > alpha else "not_equivalent"), p, statistic

    return tost


def _flipped_rope(rule):
    def rope(post, lo, hi, tail):
        _, below, above = rule(post, lo, hi, tail)
        if below >= tail and above <= tail:
            return "accept_a0", below, above
        if below > 1.0 - tail or above > 1.0 - tail:
            return "accept_a1", below, above
        return "withhold", below, above

    return rope


def _flipped_two_action(rule):
    def two_action(p0, p1, ratio):
        _, odds = rule(p0, p1, ratio)
        if odds < ratio.hi:
            return "a1", odds
        return ("a0" if ratio.is_scalar or odds < ratio.lo else "indeterminate"), odds

    return two_action


def _flipped_expected_loss(rule):
    def expected_loss_verdict(split, coords):
        # E[g | y] above -tol gives a1
        return "a1" if split.g_lo - coords[0] - coords[1] > -split.tol else "a0"

    return expected_loss_verdict


def _flipped_bayes_factor(rule):
    def bayes_factor(post_masses, prior_masses, threshold):
        _, bf = rule(post_masses, prior_masses, threshold)
        if bf < threshold:
            return "favors_h1", bf
        return ("favors_h0" if bf < 1.0 / threshold else "inconclusive"), bf

    return bayes_factor


MUTANTS = {
    "nhst": ("_nhst", _flipped_nhst),
    "tost": ("_tost", _flipped_tost),
    "rope": ("_rope", _flipped_rope),
    "hypothesis_ratio": ("_two_action", _flipped_two_action),
    "expected_loss": ("_expected_loss_verdict", _flipped_expected_loss),
    "bayes_factor": ("_bayes_factor", _flipped_bayes_factor),
}


@pytest.mark.parametrize("procedure", list(MUTANTS))
def test_a_flipped_rule_disagrees_with_its_scipy_verdict(monkeypatch, procedure):
    """The kernels look their rules up as module globals of relkit.simulate
    when they run, so a patched rule reaches them, and the agreement check
    must then report a mismatch."""
    name, n = ("bench_normal", 22000) if procedure == "tost" else ("bench_binomial", 100)
    scenario = SCENARIOS[name]()
    (proc,) = [p for p in scenario.procedures if p.name == procedure]
    scenario = dataclasses.replace(scenario, procedures=(proc,))
    assert _agreement(scenario, n)[procedure][0] == []
    rule, flip = MUTANTS[procedure]
    monkeypatch.setattr(sim, rule, flip(getattr(sim, rule)))
    assert _agreement(scenario, n)[procedure][0] != []
