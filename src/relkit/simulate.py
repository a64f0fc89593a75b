"""Monte-Carlo operating characteristics.

A scenario fixes a sampling model, a loss specification, grids of true
effects and sample sizes, and a list of procedures; the sweep tabulates how
often each procedure returns each verdict. A cell's replicates are drawn
in blocks of ``SWEEP_BLOCK``, each block in one numpy call on a PCG64
generator seeded by (scenario seed, the bit pattern of the true effect, n,
block index) through numpy's SeedSequence, so any single draw can be
reproduced in isolation and results depend neither on execution order nor
on the number of replicates.

The family's row in ``inference.FAMILIES`` draws each block. Each
procedure is bound once per run, in one step: its settings are checked
then, and a setting a check refuses raises there, before any draw; its
region ends are taken then too, and its kernel computes per draw only what
the verdict needs. The full result, which ``compare`` and ``decide``
print, is built only on request.

A verdict depends on the dataset only through one statistic, k or ybar, so
a sweep counts each block of a cell on one ``_VerdictMap`` per (n,
procedure) that the run keeps, which evaluates a procedure only where its
verdict can change (see "certificates", and "seeds" for what the normal
model gives in closed form). The procedures of a draw in a
block share one posterior, built on first use, and with it the tail masses
it has taken.

The shipped scenarios are configs: ``configs/coin_scenario.json``, the
coin-bias demo, and ``configs/aspirin_scenario.json``, a blood-thinner
style trial in which a tiny mean effect at a huge sample size is flagged by
the point-null test while every relevance-aware procedure settles on a0.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
import struct
from collections import Counter
from dataclasses import dataclass, fields, replace
from typing import Callable, Iterable, NamedTuple, Sequence

from . import values
from .comparators import (
    ComparatorResult,
    _bayes_factor,
    _bayes_factor_result,
    _bayes_factor_verdict,
    _nhst,
    _nhst_result,
    _prior_masses,
    _rope,
    _rope_result,
    _rope_verdict,
    _tost,
    _tost_result,
    _tost_tails,
)
from .config import ProcedureSpec, Scenario, _check_effect, parse_settings
from .decisions import (
    DecisionOutcome,
    _expected_loss_outcome,
    _expected_loss_verdict,
    _expected_losses,
    _hypothesis_ends,
    _outcome,
    _split,
    _two_action,
    decide_from_odds,
)
from .errors import RelkitError, ValidationError
from .hypotheses import HypothesisPair, derive_hypotheses
from .inference import (
    FAMILIES,
    BinomialDraw,
    BinomialModel,
    Ends,
    Family,
    NormalDraw,
    NormalKnownVarModel,
    PosteriorModel,
    _normal_upper_z,
    _pair_ends,
    _region_ends,
    _region_masses,
    posterior_update,
)
from .loss import LossSpec, ParameterSpace
from .regions import RegionSet, partition, region_hull

Model = BinomialModel | NormalKnownVarModel
Posterior = Callable[[], PosteriorModel]
Report = Callable[[], ComparatorResult | DecisionOutcome]
# a procedure with its settings bound: (model, posterior) -> (verdict, report,
# the draw's coordinates), for a model of the one prior it was bound to
Kernel = Callable[[Model, Posterior], tuple[str, Report, tuple[float, ...]]]
# a procedure's certificate: a draw's coordinates -> its verdict
Certificate = Callable[[tuple[float, ...]], str]


Dataset = BinomialDraw | NormalDraw


# the replicates of a cell are drawn in blocks of this many, each from one
# generator in one numpy call, so this number is part of the seed derivation;
# a sweep counts a block at a time, so its memory does not grow with them
SWEEP_BLOCK = 512


def _effect_bits(true_effect: float) -> int:
    """The IEEE-754 bit pattern of a true effect as an unsigned int, the
    second word of its cell's SeedSequence entropy."""
    # + 0.0 maps -0.0 to 0.0, so both zeros draw the same stream
    return int.from_bytes(struct.pack("<d", float(true_effect) + 0.0), "little")


def _draw_block(scenario: Scenario, true_effect: float, n: int, block: int, size: int):
    """The statistics, k or ybar, of the first ``size`` replicates of one
    block of a cell, replicates block * SWEEP_BLOCK onward: one numpy call
    on PCG64 seeded by SeedSequence([seed, effect bits, n, block])."""
    # numpy is imported here, not at module level: only simulate draws data,
    # and the other commands start faster without it
    import numpy as np

    entropy = [scenario.seed, _effect_bits(true_effect), n, block]
    rng = np.random.default_rng(np.random.SeedSequence(entropy))
    return FAMILIES[scenario.family].draw(rng, true_effect, n, scenario.sigma, size)


def simulate_dataset(
    scenario: Scenario, true_effect: float, n: int, replicate_index: int
) -> Dataset:
    """Draw one dataset; fully determined by (seed, effect, n, replicate),
    as the README's "Determinism" formula gives it: element r % SWEEP_BLOCK
    of its block's draw, which a sweep takes whole."""
    values.check("n", values.count, n)
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    _check_effect(scenario.loss.space, true_effect)
    # its block index enters a SeedSequence, which takes any such integer
    values.check("replicate_index", values.seed, replicate_index)
    block, i = divmod(replicate_index, SWEEP_BLOCK)
    statistic = _draw_block(scenario, true_effect, n, block, i + 1)[i].item()
    known = (getattr(scenario, key) for key in FAMILIES[scenario.family].known)
    return (BinomialDraw if scenario.family == "binomial" else NormalDraw)(n, statistic, *known)


# --- the procedure table ---------------------------------------------------


def _interval_on(loss: LossSpec, name: str, key: str, bounds) -> tuple[float, float]:
    """(lo, hi), lo < hi, of procedure ``name``'s setting ``key``: as parsed,
    or for "partition_hull" the hull of the loss's negligible region."""
    if bounds != "partition_hull":
        return bounds
    negligible = partition(loss).negligible
    where = f'{name} setting {key}: "partition_hull" needs a negligible region'
    if negligible.is_empty:
        raise ValidationError(
            f"{where}, and this loss has none: a1's loss is below a0's at every effect"
        )
    hull = region_hull(negligible)
    if not hull.lo < hull.hi:
        raise ValidationError(
            f"{where} wider than one point, and this loss's is the single point "
            f"{hull.lo!r}: a1's loss is below a0's at every other effect"
        )
    return hull.lo, hull.hi


def _shared_posterior(model: Model, space: ParameterSpace) -> Posterior:
    """() -> the model's posterior on the space, built on the first call
    through the module global ``posterior_update`` and returned again by
    the later ones. A build that fails is not kept, so each caller sees it
    raise with its own class and message."""
    post = None

    def posterior() -> PosteriorModel:
        nonlocal post
        if post is None:
            post = posterior_update(model, space)
        return post

    return posterior


# --- certificates ----------------------------------------------------------
#
# A sweep sorts a cell's draws by their statistic, k or ybar, and evaluates
# a posterior procedure only where its verdict can change. Both posteriors
# are stochastically increasing in the statistic: the sampling kernel,
# exp(k logit(pi)) or exp(n theta ybar / sigma^2), is totally positive of
# order 2 in (statistic, effect), and a prior or a truncation to the space
# keeps that (Karlin, Total Positivity I, 1968). So a tail mass at a fixed
# point, and the expectation of a non-decreasing function of the effect,
# are monotone in the statistic. A kernel gives a draw's verdict and such
# coordinates, and a certificate maps coordinates to the verdict,
# non-decreasing in every coordinate along one order of the verdicts. The
# draws between two evaluated ones have coordinates inside the box their
# coordinates span; when the verdicts at the box's lowest and highest
# corners agree, every draw inside takes that verdict.
#
# A box misses gaps where a falling coordinate meets a rising one; a verdict
# order, outer verdict first, covers them. A verdict compares E[w | y] with
# 0 for a weight w of the effect (1_H1 - r 1_H0, or g + tol), which changes
# sign in the statistic no more often than w in the effect, and in the same
# order when as often (variation diminishing: Karlin, ibid.; Brown,
# Johnstone & MacGibbon, JASA 76, 1981). So where w's signs read (+, -, +),
# (-, +, -) or less, and for the tests and rope always, each upper set
# {verdict >= v} is an interval: the draws between two evaluated ones of
# verdict v take v if v is the top, or if an evaluated draw ranks above v,
# since the interval {verdict > v} then holds neither end.

# the box between two evaluated draws is widened by this share of each
# coordinate, far above the rounding of the tails and moments, so that a
# draw whose coordinates wobble by a rounding still lies inside it; and a
# hypothesis mass that is a difference of tails rounded to 1, which
# cancels to 0, takes both signs over the box, so its corners disagree
CERTIFICATE_MARGIN = 1e-7


def _box_verdict(cert: Certificate | None, a: tuple | None, b: tuple | None) -> str | None:
    """The verdict of every draw between two evaluated draws whose
    coordinates are a and b, or None when the widened box they span holds
    more than one verdict, or there is no certificate or no coordinates."""
    if cert is None or a is None or b is None:
        return None
    lo = tuple(x - CERTIFICATE_MARGIN * abs(x) for x in map(min, a, b))
    hi = tuple(x + CERTIFICATE_MARGIN * abs(x) for x in map(max, a, b))
    verdict = cert(lo)
    return verdict if cert(hi) == verdict else None


def _odds_cells(ends: tuple[Ends, Ends]) -> tuple[tuple, tuple]:
    """The change points and cells of a hypothesis pair, for a verdict that
    rises with P(H1 | y) and falls with P(H0 | y).

    The pair's ends cut the line into cells, ranked 0 in H0, 2 in H1 and 1
    in neither. At a change point the rank changes, and its coordinate is
    the posterior mass on its higher-ranked side: below it (tail 0) where
    the rank falls, above it (tail 1) where it rises. An H1 cell lies
    between a rise and a fall, so its mass is c_left + c_right - 1, and an
    H0 cell between a fall and a rise, with mass 1 - c_left - c_right: P(H1)
    rises and P(H0) falls with every coordinate. Returns ((point, tail) per
    change point, (region, index of its left change point) per cell)."""
    points = sorted({x for region in ends for itv in region for x in itv})
    ranks = [1]
    for a, b in zip(points, points[1:]):
        # a HypothesisPair's regions are disjoint, so no cell is in both
        mid = 0.5 * (a + b)
        in_h0, in_h1 = (any(lo <= mid <= hi for lo, hi in region) for region in ends)
        ranks.append(0 if in_h0 else 2 if in_h1 else 1)
    ranks.append(1)
    changes: list[tuple[float, int]] = []
    cells: list[tuple[int, int]] = []
    for x, left, right in zip(points, ranks, ranks[1:]):
        if left != right:
            if right != 1:
                cells.append((right // 2, len(changes)))
            changes.append((x, 0 if left > right else 1))
    return tuple(changes), tuple(cells)


def _odds_masses(c: tuple, cells: tuple) -> tuple[float, float]:
    """P(H0 | y) and P(H1 | y) from the coordinates of ``_odds_cells``."""
    p0 = p1 = 0.0
    for region, j in cells:
        if region:
            p1 += c[j] + c[j + 1] - 1.0
        else:
            p0 += 1.0 - c[j] - c[j + 1]
    return p0, p1


def _unimodal(signs: Iterable, order: tuple[str, ...]) -> tuple[str, ...] | None:
    """The verdict order of a weight whose signs left to right, where it is
    not 0, are ``signs``, true for the outer verdict's: ``order`` where they
    read (true, false, true) or less, reversed for (false, true, false), and
    None where they change more often."""
    word = [sign for sign, _ in itertools.groupby(signs)]
    if len(word) > 3:
        return None
    return order if len(word) < 3 or word[0] else order[::-1]


# --- seeds -----------------------------------------------------------------
#
# The normal model knows some of a map's verdict changes in closed form. A
# map that must split a gap between two evaluated verdicts splits it at a
# cut inside it, if a bind step gives one (nhst and tost): it evaluates the
# two statistics a relative CUT_OFFSET either side of the cut, so that each
# side holds one verdict and the order or a box certifies it. They are
# evaluated like draws and carry no weight; a wrong cut costs two kernel
# calls, not a count.
#
# Where a verdict order's top verdict is the inner one, its odds are
# quasi-concave in the posterior mean m: a weight whose signs read (-, +, -)
# changes sign twice at most in m (see "certificates"), so each upper level
# set of the odds is an interval. The odds rules' kernels, hypothesis_ratio
# and bayes_factor, take the untruncated posterior N(m, s), whose sd s does
# not depend on ybar at a given n while m covers the line, so a search over
# m settles whether any ybar takes the top verdict; where none does, the
# verdict below it is the top of the order. The search runs once per map,
# when that would certify a gap.

CUT_OFFSET = 1e-9
# the top-verdict search: its steps at most, and the half-width of the
# bracket it certifies, as a share of the posterior sd
TOP_SEARCH_STEPS = 20
TOP_SEARCH_SPAN = 1.0 / 256.0


def _top_reached(
    cert: Certificate, top: str, look: Callable[[float], tuple], m: float, h: float
) -> bool | None:
    """Whether some posterior mean takes the verdict ``top``, given look: a
    mean -> (the coordinates of that posterior, each monotone in the mean;
    the odds toward top over the odds at which top begins, quasi-concave in
    the mean, as the kernel computes them; a number of the sign of their
    slope), from a start m near their peak and a half-width h.

    Each step looks at p - h and p + h, from p = m. The answer is True once
    a mean looked at takes top. It is False where the odds rise at p - h
    and fall at p + h, and the widened box over [p - h, p + h] names a lower
    verdict: quasi-concave odds that rise at p - h are no higher below it
    than there, and likewise above p + h, which a margin below top's odds
    keeps from rounding. Otherwise p moves to where the slope, interpolated
    between the two, vanishes. It is None where the odds lie within that
    margin, the two slopes are equal, or the steps do not settle."""
    p = m
    for _ in range(TOP_SEARCH_STEPS):
        (c_lo, f_lo, g_lo), (c_hi, f_hi, g_hi) = look(p - h), look(p + h)
        if max(f_lo, f_hi) > 1.0:
            return True
        if g_lo > 0.0 > g_hi:
            if not (f_lo < 1.0 - CERTIFICATE_MARGIN and f_hi < 1.0 - CERTIFICATE_MARGIN):
                return None
            verdict = _box_verdict(cert, c_lo, c_hi)
            return None if verdict is None else verdict == top
        if g_lo == g_hi:
            return None
        p -= h + 2.0 * h * g_lo / (g_hi - g_lo)
    return None


def _cut_inside(cuts: Sequence[float], left: float, right: float) -> tuple | None:
    """The statistics a relative CUT_OFFSET either side of the first cut
    that they leave, distinct, strictly inside (left, right), or None."""
    for cut in cuts:
        offset = CUT_OFFSET * abs(cut)
        if left < cut - offset < cut + offset < right:
            return cut - offset, cut + offset
    return None


class Bound(NamedTuple):
    """A procedure with its settings bound: its kernel, and the sweep's
    certificate of its verdicts and their unimodal order, or None. Where
    the normal model gives them, a model -> the statistics at which the
    verdict changes at its n, where a map splits its gaps (cuts), and a
    model -> whether a statistic at its n takes the order's top verdict,
    None where that is not settled (reaches_top); see "seeds"."""

    kernel: Kernel
    certificate: Certificate
    order: tuple[str, ...] | None
    cuts: Callable[[Model], tuple[float, ...]] | None = None
    reaches_top: Callable[[Model], bool | None] | None = None


# A bind step makes every check that depends only on the settings, the loss,
# the hypothesis pair and the model's prior, which only a Bayes factor reads
# (the other steps take it as *_), and raises what the procedure's public
# function raises on a setting that a check refuses, or, for a
# "partition_hull" the loss cannot give, _interval_on's own error; each
# setting alone is checked by parse_settings. It returns the kernel,
# certificate and verdict order, built on the values it bound. A kernel
# takes the model and a posterior from _shared_posterior (nhst and tost never
# call it), computes what its verdict needs through the rule its public
# function calls, and returns the verdict, report(), which builds the result
# that function returns only when called, and the draw's coordinates, values
# that the verdict computed. A kernel takes a model of the prior it was bound
# to, and no other. The kernels name the rules as module globals, looked up
# at call time, so that patching one here reaches every caller.


def _bind_nhst(s: dict, row: Family, loss: LossSpec, pair: HypothesisPair, *_) -> Bound:
    alpha, point_null = s["alpha"], row.point_null
    # the test takes the tail above the null where its statistic, k or z,
    # reaches the statistic's null mean, n/2 or 0
    half = 0.5 if row.posterior == "beta" else 0.0

    def kernel(model: Model, posterior: Posterior):
        out = verdict, p, statistic = _nhst(point_null, model, alpha)
        # -p on the side of the null whose tail the test took, -1 on the
        # other: p falls with the statistic above the null and rises below
        # it, so the first coordinate rises and the second falls
        return (
            verdict,
            lambda: _nhst_result(row, model, alpha, *out),
            (-p, -1.0) if statistic >= half * model.n else (-1.0, -p),
        )

    # reject where either exceeds -alpha: fail_to_reject < reject
    certificate = lambda c: "reject" if max(c) > -alpha else "fail_to_reject"
    order = ("reject", "fail_to_reject")
    if row.posterior != "normal":
        return Bound(kernel, certificate, order)
    # the z test rejects where |ybar| sqrt(n) / sigma exceeds z(alpha / 2)
    z = _normal_upper_z(alpha / 2.0)

    def cuts(model: Model) -> tuple[float, ...]:
        cut = z * model.sigma / math.sqrt(model.n)
        return -cut, cut

    return Bound(kernel, certificate, order, cuts)


def _bind_tost(s: dict, row: Family, loss: LossSpec, pair: HypothesisPair, *_) -> Bound:
    alpha = s["alpha"]
    lo, hi = _interval_on(loss, "tost", "bounds", s["bounds"])

    def kernel(model: Model, posterior: Posterior):
        tails = _tost_tails(model, lo, hi)
        out = _tost(tails, alpha)
        # -p_lower rises and -p_upper falls with ybar, two erfc and no
        # continued fraction
        return out[0], lambda: _tost_result(lo, hi, alpha, *out), (-tails[1], -tails[3])

    # equivalent where both exceed -alpha: not_equivalent < equivalent
    certificate = lambda c: "equivalent" if min(c) > -alpha else "not_equivalent"
    z = _normal_upper_z(alpha)

    def cuts(model: Model) -> tuple[float, ...]:
        # equivalent where ybar lies inside the bounds narrowed by z(alpha)
        # standard errors, and nowhere where they cross
        se = model.sigma / math.sqrt(model.n)
        first, last = lo + z * se, hi - z * se
        return (first, last) if first < last else ()

    return Bound(kernel, certificate, ("not_equivalent", "equivalent"), cuts)


def _bind_rope(s: dict, row: Family, loss: LossSpec, pair: HypothesisPair, *_) -> Bound:
    lo, hi = _interval_on(loss, "rope", "rope", s["rope"])
    rope, mass = RegionSet.single(lo, hi), s["mass"]
    tail = 0.5 * (1.0 - mass)
    # the public rule takes P(rope | y), which needs the rope in the space
    _region_ends(rope, loss.space)

    def kernel(model: Model, posterior: Posterior):
        post = posterior()
        out = _rope(post, lo, hi, tail)
        return out[0], lambda: _rope_result(post, rope, mass, *out), out[1:]

    # P(theta < lo | y) falls and P(theta > hi | y) rises with the
    # statistic, since the truncated posterior is stochastically increasing
    # in it; the verdict rises with both: accept_a0 < withhold < accept_a1
    certificate = lambda c: _rope_verdict(c[0], c[1], tail)
    return Bound(kernel, certificate, ("accept_a1", "withhold", "accept_a0"))


def _bind_odds(
    row: Family, ends: tuple, decide: Callable, of_odds: Callable, band: tuple, names: tuple
) -> Bound:
    """A rule on the posterior odds of H1, P(H1 | y) / P(H0 | y), from the
    untruncated masses of the pair's regions, whose ends are ``ends``: the
    kernel's decide(p0, p1) -> (verdict, report), and the certificate's
    of_odds(odds) -> the verdict, names[0] above the odds band [lo, hi],
    names[2] below it and names[1] within, up to ties at its edges."""
    changes, cells = _odds_cells(ends)

    def kernel(model: Model, posterior: Posterior):
        tails_at = posterior()._tails_at
        verdict, report = decide(*_region_masses(tails_at, ends))
        # the untruncated tail masses at fixed points, which the masses just
        # took, monotone in the statistic since the posterior is
        # stochastically increasing in it
        return verdict, report, tuple(tails_at(x)[tail] for x, tail in changes)

    def certificate(c: tuple) -> str:
        # the odds rise with every coordinate: H0's verdict < neither's < H1's
        p0, p1 = _odds_masses(c, cells)
        return of_odds(p1 / p0 if p0 > 0.0 else math.inf)

    order = _unimodal([r for r, _ in cells], names)
    # the search's bar: the odds toward the top verdict, P(H0 | y) / P(H1 |
    # y) for names[2], at which it begins, the band's edge (none at odds 0).
    # It takes the odds from each region's masses as the kernel takes them,
    # from the middle of the top's region; an empty region is no verdict's
    toward_h0 = order is not None and order[-1] == names[-1]
    bar = (band[0] and 1.0 / band[0]) if toward_h0 else band[1]
    if row.posterior != "normal" or order is None or not all(ends) or not 0.0 < bar < math.inf:
        return Bound(kernel, certificate, order)
    points = {x for region in ends for itv in region for x in itv}
    inner = ends[0] if toward_h0 else ends[1]
    middle = 0.5 * (inner[0][0] + inner[-1][1])

    def reaches_top(model: Model) -> bool | None:
        sd = row.update(model)[1]

        def look(m: float) -> tuple:
            tails = {x: row.tails((m, sd), x) for x in points}
            # the normal density at each point, up to a constant factor: a
            # region's mass changes with m by the sum over its intervals of
            # the density at the lower end less that at the upper end, over sd
            dens = {x: math.exp(-0.5 * ((x - m) / sd) * ((x - m) / sd)) for x in points}
            post = _region_masses(tails.__getitem__, ends)
            slopes = [sum(dens[lo] - dens[hi] for lo, hi in region) for region in ends]
            (near, far), (d_near, d_far) = (
                (post, slopes) if toward_h0 else (post[::-1], slopes[::-1])
            )
            odds = near / far if far > 0.0 else math.inf if near > 0.0 else 0.0
            coords = tuple(tails[x][tail] for x, tail in changes)
            # the sign of d/dm log(near / far)
            return coords, odds / bar, d_near * far - near * d_far

        return _top_reached(certificate, order[-1], look, middle, sd * TOP_SEARCH_SPAN)

    return Bound(kernel, certificate, order, reaches_top=reaches_top)


def _bind_hypothesis_ratio(s: dict, row: Family, loss: LossSpec, pair: HypothesisPair, *_) -> Bound:
    ratio = s["loss_ratio"]
    ends = _hypothesis_ends(loss.space, pair, s["allow_restricted_space"])

    def decide(p0: float, p1: float):
        decision = _two_action(p0, p1, ratio)
        return decision, lambda: _outcome(decision, p0, p1, ratio.lo, ratio.hi)

    of_odds = lambda odds: decide_from_odds(odds, ratio)
    names = ("a1", "indeterminate", "a0")
    return _bind_odds(row, ends, decide, of_odds, (ratio.lo, ratio.hi), names)


def _bind_expected_loss(
    s: dict, row: Family, loss: LossSpec, pair: HypothesisPair, *_
) -> Bound:
    split = _split(loss)

    def kernel(model: Model, posterior: Posterior):
        # one moments pass: the verdict reads its coordinates as the
        # certificate does; only a beta posterior's report integrates
        post = posterior()
        expected, coords = _expected_losses(post, split)
        verdict = _expected_loss_verdict(split, coords)
        return verdict, lambda: _expected_loss_outcome(post, loss, verdict, expected), coords

    # E[g | y] = g(lo) - c0 - c1 falls with both: a0 < a1
    certificate = lambda c: _expected_loss_verdict(split, c)
    return Bound(kernel, certificate, _unimodal(split.signs, ("a1", "a0")))


def _bind_bayes_factor(
    s: dict, row: Family, loss: LossSpec, pair: HypothesisPair, prior: tuple
) -> Bound:
    threshold = s["threshold"]
    # the prior masses of H0 and H1 under the model's prior, which every
    # model the kernel takes holds
    masses = _prior_masses(row, prior, pair)
    prior_odds = masses[0] / masses[1]

    def decide(p0: float, p1: float):
        out = _bayes_factor((p0, p1), masses, threshold)
        return out[0], lambda: _bayes_factor_result(*out)

    # BF10 is the posterior odds over O, the prior odds of H1, so the rule
    # is the odds rule at the loss ratio [O / t, t O]
    o = 1.0 / prior_odds
    of_odds = lambda odds: _bayes_factor_verdict(odds * prior_odds, threshold)
    names = ("favors_h1", "inconclusive", "favors_h0")
    ends = _pair_ends(pair.h0, pair.h1)
    return _bind_odds(row, ends, decide, of_odds, (o / threshold, threshold * o), names)


# each procedure's bind step (settings, family row, loss, hypothesis pair,
# the model's prior) -> Bound, which raises on a setting it refuses, by the
# names of config.PROCEDURE_SETTINGS; every procedure carries a certificate,
# and nhst and tost take no posterior
PROCEDURES: dict[str, Callable[[dict, Family, LossSpec, HypothesisPair, tuple], Bound]] = {
    "nhst": _bind_nhst,
    "tost": _bind_tost,
    "rope": _bind_rope,
    "hypothesis_ratio": _bind_hypothesis_ratio,
    "expected_loss": _bind_expected_loss,
    "bayes_factor": _bind_bayes_factor,
}


def bind_procedure(
    proc: ProcedureSpec, family: str, loss: LossSpec, pair: HypothesisPair, prior: tuple
) -> Bound:
    """The procedure with its settings bound, for every command, as the
    bind steps above describe. ``prior`` is the model's prior, the last two
    fields of its model: a Bayes factor takes the pair's masses under it
    here, so the kernel takes only models of this prior. A setting that a
    check refuses raises here, with the class and message of the
    procedure's public function."""
    settings = parse_settings(proc, family)
    return PROCEDURES[proc.name](settings, FAMILIES[family], loss, pair, prior)


Outcome = str | RelkitError


def _compile_procedure(
    scenario: Scenario, proc: ProcedureSpec
) -> Callable[[Dataset], str]:
    """Bind one procedure, as a sweep of it alone does, into a dataset ->
    verdict function, with a posterior of its own; an error is raised. A
    draw's model takes the scenario prior, or without one its default."""
    ((kernel, *_),) = _bind_sweep(replace(scenario, procedures=(proc,))).bound
    model_of, prior = FAMILIES[scenario.family].model, scenario.prior or ()

    def verdict(data: Dataset) -> str:
        # a draw holds the model's leading fields, and the prior its last two
        model = model_of(*data, *prior)
        return kernel(model, _shared_posterior(model, scenario.loss.space))[0]

    return verdict


@dataclass(frozen=True)
class RateCell:
    """Verdict frequencies for one (true effect, n, procedure) cell."""

    true_effect: float
    n: int
    procedure: str
    frequencies: dict[str, float]
    std_errors: dict[str, float]
    replicates: int


@dataclass(frozen=True)
class ErrorReport:
    """The "error" verdicts of one (true effect, n, procedure) cell: how
    many replicates erred, and the class and message of the first failure."""

    true_effect: float
    n: int
    procedure: str
    count: int
    error_class: str
    message: str


@dataclass(frozen=True)
class RateTable:
    """Rate cells in grid order (effect, then n, then procedure), plus a
    report for every cell with "error" verdicts; the artifacts hold only
    the cells."""

    scenario: str
    seed: int
    replicates: int
    cells: tuple[RateCell, ...]
    errors: tuple[ErrorReport, ...] = ()


# A binomial cell is certified while n plus the prior's alpha + beta, the
# shape sum of its posteriors, is at most this. In a dense scan the beta
# tails' continued fraction then takes about 200 of its 600 iterations at
# most, so no count between two that succeed raises; tests/test_simulate.py
# pins a cap of 300 there
CERTIFIED_SHAPE_SUM = 2.0**16


class _Sweep(NamedTuple):
    """A scenario's procedures bound once, (n, statistic) -> the model of
    that draw, the space, and the largest n whose cells carry the
    certificates."""

    bound: tuple[Bound, ...]
    model: Callable[[int, float], Model]
    space: ParameterSpace
    certified_to: float


def _bind_sweep(scenario: Scenario) -> _Sweep:
    """The scenario's procedures bound in list order, each refusing a
    setting as it binds. Every draw's model takes the scenario prior, or
    without one the model's default, so that is the prior they bind with."""
    loss, row = scenario.loss, FAMILIES[scenario.family]
    pair = derive_hypotheses(partition(loss))
    prior = scenario.prior or tuple(f.default for f in fields(row.model))[-2:]
    bound = [bind_procedure(p, scenario.family, loss, pair, prior) for p in scenario.procedures]
    # A map evaluates only some draws and never certifies a gap next to a
    # draw whose kernel raised, so a certificate or an order holds where the
    # draws a kernel raises on lie below or above all those it does not raise
    # on. A kernel raises where no float holds a normal posterior mean, which
    # rises with ybar, or where the posterior mass vanishes on the space or
    # (hypothesis_ratio and bayes_factor) on every interval of the pair, which
    # tile the space. The sampling kernel is totally positive of every order,
    # so the mass of an interval exceeds any level on one interval of the
    # statistic, and the draws that raise lie at the ends. The beta tails'
    # continued fraction may fail on inner counts, but not below
    # CERTIFIED_SHAPE_SUM, so a binomial cell above it carries no
    # certificates (ROADMAP item 4)
    certified_to = CERTIFIED_SHAPE_SUM - sum(prior) if row.posterior == "beta" else math.inf
    # a draw holds n, its statistic and the family's known values, the
    # model's leading fields; the prior gives its last two
    given = (*(getattr(scenario, key) for key in row.known), *prior)
    return _Sweep(
        tuple(bound), lambda n, statistic: row.model(n, statistic, *given), loss.space, certified_to
    )


class _VerdictMap:
    """The run's map of one procedure at one n: xs, the statistics
    evaluated so far, sorted; ys, each one's (outcome, coordinates), with
    None for coordinates in a cell without a certificate and for an error;
    top, the highest rank in the verdict order taken so far; and peak, the
    highest rank a statistic can take. In a certified cell, a model of the
    map's n gives the bind step's cuts, and the question whether its top
    verdict is reached (see "seeds")."""

    def __init__(self, bound: Bound, certified: bool, model: Model | None = None) -> None:
        self.kernel = bound.kernel
        self.cert = bound.certificate if certified else None
        order = bound.order if self.cert else None
        self.rank = {v: r for r, v in enumerate(order)} if order else {}
        self.xs: list = []
        self.ys: dict = {}
        self.top = -1
        self.peak = len(self.rank) - 1
        seeded = self.cert is not None and model is not None
        self.cuts = bound.cuts(model) if seeded and bound.cuts else ()
        reaches = seeded and self.rank and bound.reaches_top
        self.reaches_top = functools.partial(bound.reaches_top, model) if reaches else None

    def walk(
        self, distinct: Sequence, cum: Sequence, draw: Callable[[float], tuple[Model, Posterior]]
    ) -> tuple[Counter, dict[float, RelkitError]]:
        """The weight per verdict of a block's sorted distinct statistics,
        whose weights' prefix sums are cum (cum[0] = 0; integers or floats),
        and the error of each draw whose kernel raised, by statistic. draw(x)
        gives the model and posterior of statistic x.

        The block is walked gap by gap of the map. A draw the map holds
        counts its outcome. The draws [a, b) of a gap between two evaluated
        draws of one verdict count cum[b] - cum[a] for it where, in a
        certified cell, the verdict order or else the widened box of its
        ends' coordinates names it (see "certificates"); where neither does,
        and the verdict is the one just below the peak, the map asks once
        whether the peak is reached, and lowers it where it is not (see
        "seeds"). Otherwise, and always where the ends' outcomes differ, the
        gap is split: at a cut inside it, where both ends are verdicts, by
        evaluating the statistics a relative CUT_OFFSET either side of it,
        which count nothing; else at a draw inside it, the block's end
        draw where the gap is a ray past every evaluated draw and else its
        middle draw. An evaluated statistic is entered in the map. A draw
        whose kernel raised keeps its error, which certifies no gap next to
        it."""
        xs, ys, rank, cert, cuts = self.xs, self.ys, self.rank, self.cert, self.cuts
        top, peak = self.top, self.peak
        count, failed = Counter(), {}

        def add(outcome: Outcome, j: int) -> None:
            if isinstance(outcome, RelkitError):
                failed[distinct[j]] = outcome
                outcome = "error"
            count[outcome] += cum[j + 1] - cum[j]

        def evaluate(x) -> Outcome:
            try:
                outcome, _, coords = self.kernel(*draw(x))
                ys[x] = outcome, cert and coords
            except RelkitError as exc:
                # an outcome keeps the error, not the frames of its traceback
                ys[x] = exc.with_traceback(None), None
            bisect.insort(xs, x)
            return ys[x][0]

        # each gap of the map among the block's draws, (left end, right
        # end, a, b), None past the first or last evaluated draw
        todo, a = [], 0
        lo, hi = bisect.bisect_left(xs, distinct[0]), bisect.bisect_right(xs, distinct[-1])
        for g in range(lo, hi + 1):
            right = xs[g] if g < len(xs) else None
            j = bisect.bisect_left(distinct, right, a) if g < hi else len(distinct)
            todo.append((xs[g - 1] if g else None, right, a, j))
            if g < hi and distinct[j] == right:
                add(ys[right][0], j)
                j += 1
            a = j
        while todo:
            left, right, a, b = todo.pop()
            if a == b:
                continue
            # a gap whose ends' outcomes differ, or are errors, is split
            # without a box, which could name one verdict there only by
            # disagreeing with a kernel at an end
            v = left is not None and right is not None and ys[left][0]
            if isinstance(v, str) and v == ys[right][0]:
                r = rank.get(v, -1)
                ordered = r >= 0 and (r == peak or r < top)
                verdict = v if ordered else _box_verdict(cert, ys[left][1], ys[right][1])
                if verdict is None and r == peak - 1 and self.reaches_top:
                    if self.reaches_top() is False:
                        peak, verdict = r, v
                    self.reaches_top = None
                if verdict is not None:
                    count[verdict] += cum[b] - cum[a]
                    continue
            around = None
            if cuts and isinstance(v, str) and isinstance(ys[right][0], str):
                around = _cut_inside(cuts, left, right)
            if around is None:
                j = a if left is None else b - 1 if right is None else (a + b) // 2
                around = (distinct[j],)
            for x in around:
                top = max(top, rank.get(evaluate(x), -1))
                j = bisect.bisect_left(distinct, x, a, b)
                todo.append((left, x, a, j))
                if j < b and distinct[j] == x:  # the draw split at, or one at a cut
                    add(ys[x][0], j)
                    j += 1
                left, a = x, j
            todo.append((left, right, a, b))
        self.top, self.peak = top, peak
        return count, failed


def _tally(
    sweep: _Sweep, n: int, blocks: Iterable[Sequence], maps: dict
) -> tuple[list[Counter], dict[int, RelkitError]]:
    """Each procedure's verdict counts over the statistics of one cell,
    which ``blocks`` gives in replicate order, and the error of its first
    failing replicate, each block walked on the run's ``_VerdictMap`` of
    the procedure at n; ``maps`` holds them by n."""
    # imported here, like numpy: the other commands start faster without it
    from array import array

    if n not in maps:
        # a model of this n, for the maps' seeds: n and a statistic of 0
        model = sweep.model(n, 0)
        maps[n] = [_VerdictMap(b, n <= sweep.certified_to, model) for b in sweep.bound]
    maps = maps[n]
    counts = [Counter() for _ in maps]
    first_error: dict[int, RelkitError] = {}
    for statistics in blocks:
        ordered = sorted(statistics)
        # whether each statistic after the first begins a run of equal ones
        starts = list(map(operator.ne, ordered[1:], ordered))
        distinct = ordered[:1] + list(itertools.compress(ordered[1:], starts))
        # cum[j] counts the draws below distinct[j], and cum[-1] all of them
        cum = array("q", itertools.chain((0,), itertools.compress(range(1, len(ordered)), starts)))
        cum.append(len(ordered))

        @functools.cache
        def draw(x) -> tuple[Model, Posterior]:
            model = sweep.model(n, x)
            return model, _shared_posterior(model, sweep.space)

        for i, held in enumerate(maps):
            count, failed = held.walk(distinct, cum, draw)
            counts[i].update(count)
            if failed and i not in first_error:
                first_error[i] = failed[next(x for x in statistics if x in failed)]
    return counts, first_error


def run_operating_characteristics(scenario: Scenario) -> RateTable:
    """Run every configured procedure on every replicate of every grid cell.

    A setting that a check refuses raises before the first draw.
    Per-replicate procedure failures are tabulated under the verdict
    "error" and never abort the sweep; ``errors`` says what they were.
    Identical scenarios (seed included) produce identical tables.

    A cell's draws are taken in blocks of ``SWEEP_BLOCK`` replicates, one
    ``_draw_block`` call each, and counted on one ``_VerdictMap``
    per (n, procedure) kept for the whole call, which runs a procedure at
    most once per distinct statistic in the call, and only where its
    verdict can change. The maps grow with the draws evaluated, not with
    ``replicates``.
    """
    sweep = _bind_sweep(scenario)
    names = [proc.name for proc in scenario.procedures]
    reps = scenario.replicates
    cells: list[RateCell] = []
    errors: list[ErrorReport] = []
    maps: dict = {}
    for effect in scenario.true_effects:
        for n in scenario.sample_sizes:
            blocks = (
                _draw_block(scenario, effect, n, block, min(SWEEP_BLOCK, reps - start)).tolist()
                for block, start in enumerate(range(0, reps, SWEEP_BLOCK))
            )
            counts, first_error = _tally(sweep, n, blocks, maps)
            for i, name in enumerate(names):
                freqs = {v: counts[i][v] / reps for v in sorted(counts[i])}
                ses = {v: math.sqrt(f * (1.0 - f) / reps) for v, f in freqs.items()}
                cells.append(
                    RateCell(
                        true_effect=effect,
                        n=n,
                        procedure=name,
                        frequencies=freqs,
                        std_errors=ses,
                        replicates=reps,
                    )
                )
                if i in first_error:
                    exc = first_error[i]
                    errors.append(
                        ErrorReport(
                            true_effect=effect,
                            n=n,
                            procedure=name,
                            count=counts[i]["error"],
                            error_class=type(exc).__name__,
                            message=str(exc),
                        )
                    )
    return RateTable(
        scenario=scenario.name,
        seed=scenario.seed,
        replicates=reps,
        cells=tuple(cells),
        errors=tuple(errors),
    )
