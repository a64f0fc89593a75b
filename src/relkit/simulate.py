"""Monte-Carlo operating characteristics.

A scenario fixes a sampling model, a loss specification, grids of true
effects and sample sizes, and a list of procedures; the sweep tabulates how
often each procedure returns each verdict. Datasets are drawn from PCG64
generators seeded per cell and replicate (scenario seed, the bit pattern of
the true effect, n, replicate index) through numpy's SeedSequence hash,
which a sweep takes for a block of replicates at once, so any single draw
can be reproduced in isolation and results do not depend on execution
order.

The family's row in ``inference.FAMILIES`` draws each dataset. Each
procedure is bound once per run, in one step: its settings are checked
then, and a setting a check refuses raises there, before any draw; its
region ends are taken then too, and its kernel computes per draw only what
the verdict needs. The full result, which ``compare`` and ``decide``
print, is built only on request.

A verdict depends on the dataset only through one statistic, k or ybar, so
a sweep draws a cell's replicates in blocks of ``SWEEP_BLOCK`` and sorts
each block's distinct statistics. ``nhst`` and ``tost`` run on every
distinct draw. In the normal family a posterior procedure carries a
certificate, built by the same bind step: coordinates of a draw that are
monotone in the statistic, because both posteriors are stochastically
increasing in it, and a verdict function monotone in the coordinates. The
sweep evaluates the procedure at a block's two end draws and splits a gap
between evaluated draws at its midpoint only while the certificate cannot
name one verdict for every draw inside it. A normal kernel that raises on
a draw of a block raises on one of its end draws (``_bind_sweep``), and
then runs on every distinct draw of that block, as a procedure without a
certificate does. Every binomial procedure runs on every distinct count,
and a run keeps its outcomes per (n, k), since counts repeat. The
procedures of a draw share one posterior, built on first use, and with it
the tail masses it has taken.

The shipped scenarios are configs: ``configs/coin_scenario.json``, the
coin-bias demo, and ``configs/aspirin_scenario.json``, a blood-thinner
style trial in which a tiny mean effect at a huge sample size is flagged by
the point-null test while every relevance-aware procedure settles on a0.
"""

from __future__ import annotations

import functools
import itertools
import math
import struct
from collections import Counter
from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Sequence

from . import values
from .comparators import (
    ComparatorResult,
    Ends,
    _bayes_factor,
    _bayes_factor_result,
    _bayes_factor_verdict,
    _check_alpha,
    _check_threshold,
    _nhst,
    _nhst_result,
    _pair_ends,
    _prior_masses,
    _region_masses,
    _rope,
    _rope_hull,
    _rope_result,
    _rope_verdict,
    _tost,
    _tost_bounds,
    _tost_result,
)
from .decisions import (
    DecisionOutcome,
    LossRatio,
    _coverage_check,
    _expected_loss,
    _expected_loss_outcome,
    _partition_ends,
    _tie_tol,
    _two_action,
    _two_action_outcome,
    decide_from_odds,
)
from .errors import RelkitError, ValidationError
from .hypotheses import HypothesisPair, derive_hypotheses
from .inference import (
    FAMILIES,
    BinomialDraw,
    BinomialModel,
    Family,
    NormalDraw,
    NormalKnownVarModel,
    PosteriorModel,
    _partial_moments,
    _region_ends,
    _region_prob,
    posterior_update,
)
from .loss import LossSpec, ParameterSpace, _about
from .regions import RegionSet, partition, region_hull

if TYPE_CHECKING:
    import numpy as np

Model = BinomialModel | NormalKnownVarModel
Posterior = Callable[[], PosteriorModel]
Report = Callable[[], ComparatorResult | DecisionOutcome]
# a procedure with its settings bound: (model, posterior) -> (verdict, report)
Kernel = Callable[[Model, Posterior], tuple[str, Report]]


@dataclass(frozen=True)
class ProcedureSpec:
    """One procedure with its settings, as a config lists it under
    ``comparators`` or ``scenario.procedures``. ``PROCEDURES`` (and the
    procedure table in the README) names the settings and their defaults;
    they are checked at config load and again when the procedure is bound."""

    name: str
    settings: dict

    def __post_init__(self) -> None:
        if self.name not in PROCEDURES:
            raise ValidationError(
                f"unknown procedure {self.name!r}; expected one of {tuple(PROCEDURES)}"
            )


@dataclass(frozen=True)
class Scenario:
    """Fully specified sweep over true effects and sample sizes.

    ``prior`` is (alpha, beta) for the binomial family and (mean, sd) for
    the normal family; None gives the models' default, Beta(1, 1) or
    Normal(0, 1). ``sigma`` is the known sampling sd of the normal
    family and must be None otherwise.
    """

    name: str
    family: str
    loss: LossSpec
    true_effects: tuple[float, ...]
    sample_sizes: tuple[int, ...]
    replicates: int
    seed: int
    procedures: tuple[ProcedureSpec, ...]
    prior: tuple[float, float] | None = None
    sigma: float | None = None

    def __post_init__(self) -> None:
        row = FAMILIES.get(self.family)
        if row is None:
            raise ValidationError(f"unknown model family {self.family!r}")
        # every family's known values are fields; only this family's are set
        for key in dict.fromkeys(key for other in FAMILIES.values() for key in other.known):
            value = getattr(self, key)
            if key not in row.known:
                if value is not None:
                    raise ValidationError(
                        f"the {self.family} family has no {key}; got {key}={value!r}"
                    )
            elif value is None or not value > 0.0:
                raise ValidationError(f"the {self.family} family needs a positive {key}")
        if self.replicates < 1:
            raise ValidationError(f"replicates must be >= 1, got {self.replicates}")
        if not self.true_effects:
            raise ValidationError("true_effects must be non-empty")
        if not self.sample_sizes or any(n < 1 for n in self.sample_sizes):
            raise ValidationError("sample_sizes must be positive")
        # the rate table names each procedure's cells by its name alone, and
        # each cell by its effect and n; 0.0 == -0.0, and both zeros draw
        # the same stream
        for key, items in (
            ("procedure(s)", [proc.name for proc in self.procedures]),
            ("true effect(s)", self.true_effects),
            ("sample size(s)", self.sample_sizes),
        ):
            duplicates = sorted(item for item, count in Counter(items).items() if count > 1)
            if duplicates:
                raise ValidationError(
                    f"{key} {duplicates} listed more than once; each may appear once"
                )
        space = self.loss.space
        for effect in self.true_effects:
            if not space.contains(effect):
                raise ValidationError(
                    f"true effect {effect} outside the parameter space "
                    f"[{space.lo}, {space.hi}]"
                )
        row.check_support(space.lo, space.hi)


Dataset = BinomialDraw | NormalDraw


# numpy's SeedSequence (NEP 19) hashes its entropy words into a pool of 4
# (mix_entropy), and the pool into the state (generate_state). A word here
# is an int below 2**32 or a uint32 array, one entry per replicate; every
# product is masked to 32 bits, so no numpy scalar appears.
_MASK32 = 0xFFFFFFFF
INIT_A, MULT_A, INIT_B, MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
HASH_BLOCK = 128  # the replicates whose seeds are hashed at once, at most


def _hashmix(value, const: int, mult: int = MULT_A) -> tuple:
    """numpy's hashmix: the hashed word and the next hash constant."""
    value = value ^ const
    const = const * mult & _MASK32
    value = value * const & _MASK32
    return value ^ value >> 16, const


def _absorb(pool: list, const: int, words: Iterable) -> tuple[list, int]:
    """numpy's mix_entropy continued over more words: the first 4 fill the
    pool, which then mixes each entry into the others, and each later word
    is mixed into every entry."""
    pool = list(pool)
    for word in words:
        if len(pool) < 4:
            value, const = _hashmix(word, const)
            pool.append(value)
            mixes = itertools.permutations(range(4), 2) if len(pool) == 4 else ()
        else:
            mixes = ((None, dst) for dst in range(4))
        for src, dst in mixes:
            value, const = _hashmix(word if src is None else pool[src], const)
            mixed = (MIX_MULT_L * pool[dst] & _MASK32) - (MIX_MULT_R * value & _MASK32) & _MASK32
            pool[dst] = mixed ^ mixed >> 16
    return pool, const


def _words(value: int) -> list[int]:
    """The 32-bit words of a non-negative int, least significant first, as
    numpy's SeedSequence splits each int of its entropy (0 is one word)."""
    if value < 0:
        raise ValueError("expected non-negative integer")
    return [value >> shift & _MASK32 for shift in range(0, max(value.bit_length(), 1), 32)]


@functools.cache
def _seed_row() -> type:
    """A numpy ISeedSequence that holds one replicate's state and returns
    it from generate_state, the one call PCG64 makes."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedRow(ISeedSequence):
        def __init__(self, state):
            self.state = state

        def generate_state(self, n_words, dtype=None):
            return self.state

    return SeedRow


def _effect_bits(true_effect: float) -> int:
    """The IEEE-754 bit pattern of a true effect as an unsigned int, the
    second word of its cell's SeedSequence entropy."""
    # + 0.0 maps -0.0 to 0.0, so both zeros draw the same stream
    return int.from_bytes(struct.pack("<d", float(true_effect) + 0.0), "little")


def _cell_rng(
    seed: int, true_effect: float, n: int
) -> Callable[[int, int], Iterator[np.random.Generator]]:
    """(start, stop) -> the generators of replicates start to stop - 1 of
    one cell, yielded one at a time. Replicate r draws from PCG64 seeded by
    SeedSequence([seed, effect bits, n, r]), as ``simulate_dataset`` draws
    it. Its hash is taken here: the cell's words once, as ints, then the
    words of up to ``HASH_BLOCK`` replicates of one word count at once, as
    uint32 arrays. Each replicate's state seeds numpy's own PCG64, so the
    stream is the one SeedSequence gives, bit for bit."""
    # numpy is imported here, not at module level: only simulate draws data,
    # and the other commands start faster without it
    import numpy as np

    words = [*_words(int(seed)), *_words(_effect_bits(true_effect)), *_words(int(n))]
    cell = _absorb([], INIT_A, words)
    seed_row = _seed_row()

    def rngs(start: int, stop: int) -> Iterator[np.random.Generator]:
        while start < stop:
            count = len(_words(start))
            reps = range(start, min(stop, start + HASH_BLOCK, 1 << 32 * count))
            words = [
                np.fromiter((r >> shift & _MASK32 for r in reps), np.uint32, len(reps))
                for shift in range(0, 32 * count, 32)
            ]
            pool = _absorb(*cell, words)[0]
            state, const = [], INIT_B
            for i in range(8):
                value, const = _hashmix(pool[i % 4], const, MULT_B)
                state.append(value)
            # generate_state(4, uint64) pairs the 8 words, low word first
            rows = np.array(state, "<u4").reshape(8, -1).T.copy().view("<u8").astype(np.uint64)
            for row in rows:
                yield np.random.Generator(np.random.PCG64(seed_row(row)))
            start = reps.stop

    return rngs


def simulate_dataset(
    scenario: Scenario, true_effect: float, n: int, replicate_index: int
) -> Dataset:
    """Draw one dataset; fully determined by (seed, effect, n, replicate).
    Its generator is the README's "Determinism" formula, numpy's PCG64
    seeded by SeedSequence([seed, effect bits, n, replicate]); a sweep
    draws the same stream through ``_cell_rng``."""
    import numpy as np

    entropy = [scenario.seed, _effect_bits(true_effect), n, replicate_index]
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
    return FAMILIES[scenario.family].draw(rng, true_effect, n, scenario.sigma)


# --- the procedure table ---------------------------------------------------


def _interval_on(loss: LossSpec, bounds) -> tuple[float, float]:
    """(lo, hi), with "partition_hull" the hull of the negligible region."""
    if bounds == "partition_hull":
        hull = region_hull(partition(loss).negligible)
        return hull.lo, hull.hi
    return bounds


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
# are monotone in the statistic. A certificate maps a draw to such
# coordinates, and its verdict function maps coordinates to the verdict,
# non-decreasing in every coordinate along one order of the verdicts. The
# draws between two evaluated ones have coordinates inside the box their
# coordinates span; when the verdicts at the box's lowest and highest
# corners agree, every draw inside takes that verdict.

# the box between two evaluated draws is widened by this share of each
# coordinate, far above the rounding of the tails and moments, so that a
# draw whose coordinates wobble by a rounding still lies inside it; and a
# hypothesis mass that is a difference of tails rounded to 1, which
# cancels to 0, takes both signs over the box, so its corners disagree
CERTIFICATE_MARGIN = 1e-7


class Certificate(NamedTuple):
    """coords: (model, posterior) -> coordinates, each monotone in the
    statistic; verdict: coordinates -> the procedure's verdict."""

    coords: Callable[[Model, Posterior], tuple[float, ...]]
    verdict: Callable[[tuple[float, ...]], str]


def _box_verdict(cert: Certificate, a: tuple, b: tuple) -> str | None:
    """The verdict of every draw between two evaluated draws whose
    coordinates are a and b, or None when the widened box they span holds
    more than one verdict."""
    lo = tuple(x - CERTIFICATE_MARGIN * abs(x) for x in map(min, a, b))
    hi = tuple(x + CERTIFICATE_MARGIN * abs(x) for x in map(max, a, b))
    verdict = cert.verdict(lo)
    return verdict if cert.verdict(hi) == verdict else None


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


class Bound(NamedTuple):
    """A procedure with its settings bound: its kernel, and the sweep's
    certificate of its verdicts, or None where every distinct draw is
    evaluated."""

    kernel: Kernel
    certificate: Certificate | None = None


# A bind step makes every check that depends only on the settings, the loss,
# the hypothesis pair and the model's prior, which only a Bayes factor
# without a prior of its own reads (the other steps take it as *_), and
# raises what the procedure's public function raises on a setting that a
# check refuses. It returns the procedure's kernel and certificate, both
# built on the values it bound. A kernel takes the model and a posterior
# from _shared_posterior (nhst, tost and a Bayes factor with its own prior
# never call it), computes what its verdict needs through the rule its
# public function calls, and returns the verdict and report(), which builds
# the result that function returns. A kernel takes a model of any prior.
# The kernels name the rules as module globals, looked up at call time, so
# that patching one here reaches every caller.


def _bind_nhst(s: dict, row: Family, loss: LossSpec, pair: HypothesisPair, *_) -> Bound:
    alpha, point_null = s["alpha"], row.point_null
    _check_alpha(alpha)

    def kernel(model: Model, posterior: Posterior):
        out = _nhst(point_null, model, alpha)
        return out[0], lambda: _nhst_result(row, model, alpha, *out)

    return Bound(kernel)


def _bind_tost(s: dict, row: Family, loss: LossSpec, pair: HypothesisPair, *_) -> Bound:
    alpha = s["alpha"]
    lo, hi = _tost_bounds(_interval_on(loss, s["bounds"]), alpha)

    def kernel(model: Model, posterior: Posterior):
        out = _tost(model, lo, hi, alpha)
        return out[0], lambda: _tost_result(lo, hi, alpha, *out)

    return Bound(kernel)


def _bind_rope(s: dict, row: Family, loss: LossSpec, pair: HypothesisPair, *_) -> Bound:
    rope, mass = RegionSet.single(*_interval_on(loss, s["rope"])), s["mass"]
    lo, hi, tail = _rope_hull(rope, mass)
    # the public rule takes P(rope | y), which needs the rope in the space
    _region_ends(rope, loss.space)

    def kernel(model: Model, posterior: Posterior):
        post = posterior()
        out = _rope(post, lo, hi, tail)
        return out[0], lambda: _rope_result(post, rope, mass, tail, *out)

    # P(theta < lo | y) falls and P(theta > hi | y) rises with the
    # statistic, since the truncated posterior is stochastically increasing
    # in it; the verdict rises with both: accept_a0 < withhold < accept_a1
    return Bound(
        kernel,
        Certificate(
            lambda model, posterior: _rope(posterior(), lo, hi, tail)[1:],
            lambda c: _rope_verdict(c[0], c[1], tail),
        ),
    )


def _bind_hypothesis_ratio(
    s: dict, row: Family, loss: LossSpec, pair: HypothesisPair, *_
) -> Bound:
    ratio, space = s["loss_ratio"], loss.space
    _coverage_check(space, pair, s["allow_restricted_space"])
    ends = h0, h1 = _region_ends(pair.h0, space), _region_ends(pair.h1, space)

    def kernel(model: Model, posterior: Posterior):
        post = posterior()
        p0, p1 = _region_prob(post, h0), _region_prob(post, h1)
        decision, odds = _two_action(p0, p1, ratio)
        return decision, lambda: _two_action_outcome(p0, p1, ratio, decision, odds)

    changes, cells = _odds_cells(ends)

    def coords(model: Model, posterior: Posterior) -> tuple[float, ...]:
        # tail masses of the truncated posterior at fixed points: monotone
        # in the statistic, since that posterior is stochastically increasing
        post = posterior()
        return tuple(
            post._prob(space.lo, x) if tail == 0 else post._prob(x, space.hi)
            for x, tail in changes
        )

    def verdict(c: tuple) -> str:
        # the odds rise with every coordinate: a0 < indeterminate < a1
        p0, p1 = _odds_masses(c, cells)
        return decide_from_odds(p1 / p0 if p0 > 0.0 else math.inf, ratio)

    return Bound(kernel, Certificate(coords, verdict))


def _bind_expected_loss(
    s: dict, row: Family, loss: LossSpec, pair: HypothesisPair, *_
) -> Bound:
    # the posterior lies on the loss's space, so the two spaces match
    part_ends, tol = _partition_ends(loss, loss.space), _tie_tol(loss)

    def kernel(model: Model, posterior: Posterior):
        # the verdict is the closed form's; only the report integrates
        post = posterior()
        out = _expected_loss(post, loss)
        return out[0], lambda: _expected_loss_outcome(post, loss, part_ends, *out)

    # g = L(a1) - L(a0) = g(lo) + V+ - V-, its Jordan rise and fall, both
    # non-decreasing in the effect. g is d0 + d1 u + d2 u^2 on a loss panel,
    # u its offset from the panel's start a, and turns at most once there,
    # where its slope d1 + 2 d2 u vanishes; a panel is split at that point,
    # so that g is monotone on each part. Per part: its ends, the panel's
    # pieces, g at its start, whether g rises on it, and V+ and V- at its start
    parts, rise, fall = [], 0.0, 0.0
    for a, b, pieces in loss._panels:
        d0, d1, d2 = (y - x for x, y in zip(*(_about(piece, a) for piece in pieces)))
        turn = a - d1 / (2.0 * d2) if d2 != 0.0 else a
        ends = (a, turn, b) if a < turn < b else (a, b)
        rel = [(x - a) * (d1 + (x - a) * d2) for x in ends]  # g(x) - g(a)
        for lo, hi, rel_lo, rel_hi in zip(ends, ends[1:], rel, rel[1:]):
            step = rel_hi - rel_lo
            parts.append((lo, hi, pieces, d0 + rel_lo, step >= 0.0, rise, fall))
            rise, fall = rise + max(step, 0.0), fall + max(-step, 0.0)
    g_lo = parts[0][3]

    def coords(model: Model, posterior: Posterior) -> tuple[float, float]:
        # -E[V+ | y] and E[V- | y]: means of non-decreasing functions of the
        # effect under a posterior stochastically increasing in the
        # statistic, so monotone in it; from the partial moments the rule takes
        post = posterior()
        loc = post.native_location_scale[0]
        up = down = 0.0
        for a, b, pieces, g_a, rising, rise_a, fall_a in parts:
            origin = min(max(loc, a), b)
            m0, m1, m2 = _partial_moments(post, a, b, origin)
            c0, c1, c2 = (y - x for x, y in zip(*(_about(piece, origin) for piece in pieces)))
            change = (c0 - g_a) * m0 + c1 * m1 + c2 * m2  # E[g - g(a); part]
            up += rise_a * m0 + (change if rising else 0.0)
            down += fall_a * m0 - (0.0 if rising else change)
        total = post._ends[2]
        return -up / total, down / total

    def verdict(c: tuple) -> str:
        # E[g | y] = g(lo) - c0 - c1 falls with both: a0 < a1
        return "a1" if g_lo - c[0] - c[1] < -tol else "a0"

    return Bound(kernel, Certificate(coords, verdict))


def _bind_bayes_factor(
    s: dict, row: Family, loss: LossSpec, pair: HypothesisPair, prior: tuple
) -> Bound:
    threshold, own, ends = s["threshold"], s["prior"], _pair_ends(pair)
    _check_threshold(threshold)
    # evidence: (model, posterior) -> the tails function of the draw's
    # untruncated posterior, and the prior masses of H0 and H1
    if own is not None:
        masses = _prior_masses(row, own, pair)

        def evidence(model: Model, posterior: Posterior):
            # a second conjugate update: the draw's data under this prior
            data = tuple(vars(model).values())[:-2]
            params = row.update(row.model(*data, *own))
            return (lambda t: row.tails(params, t - row.effect_shift)), masses

    else:
        # the prior masses of each model prior seen, those under the model's
        # prior taken, and checked, here: a sweep and a compare have one
        prior_masses = {prior: _prior_masses(row, prior, pair)}

        def evidence(model: Model, posterior: Posterior):
            # the prior's two numbers are the model's last two fields
            params = tuple(vars(model).values())[-2:]
            masses = prior_masses.get(params)
            if masses is None:
                masses = prior_masses[params] = _prior_masses(row, params, pair)
            return posterior()._tails_at, masses

    def kernel(model: Model, posterior: Posterior):
        tails_at, masses = evidence(model, posterior)
        out = _bayes_factor(_region_masses(tails_at, ends), masses, threshold)
        return out[0], lambda: _bayes_factor_result(*out)

    changes, cells = _odds_cells(ends)

    def coords(model: Model, posterior: Posterior) -> tuple[float, ...]:
        # the untruncated tail masses at fixed points, monotone in the
        # statistic since the posterior under either prior is stochastically
        # increasing in it, and last the prior odds P(H0) / P(H1), the same
        # for every draw
        tails_at, (h0_mass, h1_mass) = evidence(model, posterior)
        return (*(tails_at(x)[tail] for x, tail in changes), h0_mass / h1_mass)

    def verdict(c: tuple) -> str:
        # BF10 rises with every coordinate: favors_h0 < inconclusive < favors_h1
        p0, p1 = _odds_masses(c, cells)
        return _bayes_factor_verdict(p1 / p0 * c[-1] if p0 > 0.0 else math.inf, threshold)

    return Bound(kernel, Certificate(coords, verdict))


class Procedure(NamedTuple):
    """One row of the procedure table: each setting's default and parser,
    the model families, and the bind step (settings, family row, loss,
    hypothesis pair, the model's prior) -> Bound, which raises on a setting
    it refuses."""

    settings: dict[str, tuple[object, Callable]]
    families: tuple[str, ...]
    bind: Callable[[dict, Family, LossSpec, HypothesisPair, tuple], Bound]


_BOTH = tuple(FAMILIES)

# nhst and tost take no posterior and cost about a microsecond: they carry
# no certificate and run on every distinct draw
PROCEDURES: dict[str, Procedure] = {
    "nhst": Procedure({"alpha": (0.05, values.probability)}, _BOTH, _bind_nhst),
    "tost": Procedure(
        {
            "alpha": (0.05, values.probability),
            "bounds": ("partition_hull", values.bounds),
        },
        ("normal",),
        _bind_tost,
    ),
    "rope": Procedure(
        {"mass": (0.95, values.probability), "rope": ("partition_hull", values.bounds)},
        _BOTH,
        _bind_rope,
    ),
    "hypothesis_ratio": Procedure(
        {
            "loss_ratio": (LossRatio.scalar(1.0), values.loss_ratio),
            "allow_restricted_space": (False, values.flag),
        },
        _BOTH,
        _bind_hypothesis_ratio,
    ),
    "expected_loss": Procedure({}, _BOTH, _bind_expected_loss),
    "bayes_factor": Procedure(
        # a prior of None is the model's own
        {"prior": (None, values.prior), "threshold": (1.0, values.threshold)},
        _BOTH,
        _bind_bayes_factor,
    ),
}


def parse_settings(proc: ProcedureSpec, family: str | None, section: str | None = None) -> dict:
    """Check a procedure's settings against its table row and return them
    all, defaults filled in. With no family, the family checks are skipped.
    An error names the config ``section`` whose keys are the settings, as
    decide's ``decision`` is, when one is given."""
    row = PROCEDURES[proc.name]
    unknown = sorted(set(proc.settings) - set(row.settings))
    if unknown:
        where = f"procedure {proc.name!r}" + (f" in {section}" if section else "")
        raise ValidationError(f"unknown setting(s) {unknown} for {where}")
    if family is not None and family not in row.families:
        raise ValidationError(f"{proc.name} supports the {row.families} family only")
    parsed = {key: default for key, (default, _) in row.settings.items()}
    for key, value in proc.settings.items():
        _, parse = row.settings[key]
        try:
            parsed[key] = parse(value, family)
        except ValidationError as exc:
            where = f"{section}.{key}" if section else f"{proc.name} setting {key!r}"
            raise ValidationError(f"{where}: {exc}") from None
    return parsed


def bind_procedure(
    proc: ProcedureSpec, family: str, loss: LossSpec, pair: HypothesisPair, prior: tuple
) -> Bound:
    """The procedure with its settings bound, for every command. ``prior``
    is the model's prior, the last two fields of its model: a Bayes factor
    without a prior of its own checks the pair's masses under it here. A
    setting that a check refuses raises here, with the class and message of
    the procedure's public function. The kernel is a (model, posterior) ->
    (verdict, report) function, where posterior() is the model's posterior
    on the loss space, as ``_shared_posterior`` gives it, and report()
    builds what the public function returns; it takes a model of any prior.
    The certificate serves the sweep."""
    settings = parse_settings(proc, family)
    return PROCEDURES[proc.name].bind(settings, FAMILIES[family], loss, pair, prior)


Outcome = str | RelkitError


def _outcome(kernel: Kernel, model: Model, posterior: Posterior) -> Outcome:
    """The kernel's verdict, or the error it raised."""
    try:
        return kernel(model, posterior)[0]
    except RelkitError as exc:
        # an outcome keeps the error, not the frames of its traceback
        return exc.with_traceback(None)


def _compile_procedure(
    scenario: Scenario, proc: ProcedureSpec
) -> Callable[[Dataset], str]:
    """Bind one procedure, as a sweep of it alone does, into a dataset ->
    verdict function, with a posterior of its own; an error is raised. A
    draw's model takes the scenario prior, or without one its default."""
    (kernel,) = _bind_sweep(replace(scenario, procedures=(proc,))).kernels
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


# the draws of a cell are taken and walked in blocks of this many
# replicates, so that a sweep's memory does not grow with its replicates
SWEEP_BLOCK = 512


class _Sweep(NamedTuple):
    """A scenario's procedures bound once: each kernel and certificate,
    and (n, statistic) -> the model of that draw."""

    kernels: tuple[Kernel, ...]
    certificates: tuple[Certificate | None, ...]
    model: Callable[[int, float], Model]
    space: ParameterSpace


def _bind_sweep(scenario: Scenario) -> _Sweep:
    """The scenario's procedures bound in list order, each refusing a
    setting as it binds. Every draw's model takes the scenario prior, or
    without one the model's default, so that is the prior they bind with."""
    loss, row = scenario.loss, FAMILIES[scenario.family]
    pair = derive_hypotheses(partition(loss))
    prior = scenario.prior or tuple(f.default for f in fields(row.model))[-2:]
    bound = [bind_procedure(p, scenario.family, loss, pair, prior) for p in scenario.procedures]
    # A walk evaluates only some draws, so a certificate holds only where a
    # kernel that raises on any draw of a block raises on one of its two end
    # draws, which the walk always evaluates. A normal kernel raises where no
    # float holds the posterior mean, which rises with ybar, or where the
    # posterior mass vanishes on the space or (bayes_factor) on every
    # interval of the pair, which tile the space. The mass of an interval is
    # log-concave in the mean, and the intervals of a tiling meet at their
    # ends, so the draws that raise lie below or above all that do not. The
    # beta tails' continued fraction fails on counts that need not lie so
    # (ROADMAP item 4): the binomial procedures run on every distinct draw.
    certified = row.posterior == "normal"
    # a draw holds n, its statistic and the family's known values, the
    # model's leading fields; the prior gives its last two
    given = (*(getattr(scenario, key) for key in row.known), *prior)
    return _Sweep(
        tuple(b.kernel for b in bound),
        tuple(b.certificate if certified else None for b in bound),
        lambda n, statistic: row.model(n, statistic, *given),
        loss.space,
    )


def _walk(m: int, probe: Callable[[int], tuple[str, tuple]], cert: Certificate) -> list[str]:
    """The verdicts of m draws sorted by their statistic. Both end draws
    are evaluated; a gap between two evaluated draws takes the verdict
    its certificate names, or is split at its midpoint draw."""
    verdicts: list = [None] * m
    coords: list = [None] * m
    for j in sorted({0, m - 1}):
        verdicts[j], coords[j] = probe(j)
    gaps = [(0, m - 1)]
    while gaps:
        lo, hi = gaps.pop()
        if hi - lo < 2:
            continue
        verdict = _box_verdict(cert, coords[lo], coords[hi])
        if verdict is not None:
            verdicts[lo + 1 : hi] = [verdict] * (hi - lo - 1)
        else:
            mid = (lo + hi) // 2
            verdicts[mid], coords[mid] = probe(mid)
            gaps += [(lo, mid), (mid, hi)]
    return verdicts


def _block_outcomes(
    sweep: _Sweep, n: int, distinct: list, memo: dict | None
) -> list[list[Outcome]]:
    """Each procedure's outcome on each distinct statistic of a block,
    sorted. A certified procedure walks them. The others run on every one
    whose outcomes ``memo``, the run's memo of counts, does not hold yet;
    it is None where the statistic is a mean, which does not repeat. A walk
    that raises has met a draw its kernel raises on, which a block's end
    draws show (``_bind_sweep``), and its procedure runs on every distinct
    draw of this block instead. The procedures share one posterior per
    draw."""
    kernels = sweep.kernels
    shared: dict[int, tuple[Model, Posterior]] = {}

    def entry(j: int) -> tuple[Model, Posterior]:
        got = shared.get(j)
        if got is None:
            model = sweep.model(n, distinct[j])
            got = shared[j] = model, _shared_posterior(model, sweep.space)
        return got

    out: list[list[Outcome]] = [[] for _ in kernels]
    for i, (kernel, cert) in enumerate(zip(kernels, sweep.certificates)):
        if cert is None:
            continue

        def probe(j: int) -> tuple[str, tuple]:
            model, posterior = entry(j)
            return kernel(model, posterior)[0], cert.coords(model, posterior)

        try:
            out[i] = _walk(len(distinct), probe, cert)
        except RelkitError:
            pass
    # the procedures without a certificate, and those whose walk raised
    direct = tuple(i for i, walked in enumerate(out) if not walked)
    for j, statistic in enumerate(distinct if direct else ()):
        key = n, statistic, direct
        if memo is not None and key in memo:
            for i, outcome in zip(direct, memo[key]):
                out[i].append(outcome)
            continue
        got = shared.get(j)
        try:
            # the draws no walk evaluated keep no model or posterior
            model = got[0] if got else sweep.model(n, statistic)
        except RelkitError as exc:
            # a draw no model takes (a normal mean that overflowed) fails
            # every procedure alike
            for i in direct:
                out[i].append(exc.with_traceback(None))
        else:
            posterior = got[1] if got else _shared_posterior(model, sweep.space)
            for i in direct:
                out[i].append(_outcome(kernels[i], model, posterior))
        if memo is not None:
            memo[key] = tuple(out[i][-1] for i in direct)
    return out


def _tally(
    sweep: _Sweep, n: int, blocks: Iterable[Sequence], memo: dict | None
) -> tuple[list[Counter], dict[int, RelkitError]]:
    """Each procedure's verdict counts over the statistics of one cell,
    which ``blocks`` gives in replicate order, and the error of its first
    failing replicate; ``memo`` is the run's (``_block_outcomes``)."""
    counts = [Counter() for _ in sweep.kernels]
    first_error: dict[int, RelkitError] = {}
    for statistics in blocks:
        distinct, weight = [], []
        for statistic in sorted(statistics):
            if distinct and statistic == distinct[-1]:
                weight[-1] += 1
            else:
                distinct.append(statistic)
                weight.append(1)
        outcomes = _block_outcomes(sweep, n, distinct, memo)
        for i, per_draw in enumerate(outcomes):
            failed = {}
            for statistic, count, outcome in zip(distinct, weight, per_draw):
                if isinstance(outcome, RelkitError):
                    failed[statistic] = outcome
                    outcome = "error"
                counts[i][outcome] += count
            if failed and i not in first_error:
                first_error[i] = failed[next(x for x in statistics if x in failed)]
    return counts, first_error


def run_operating_characteristics(scenario: Scenario) -> RateTable:
    """Run every configured procedure on every replicate of every grid cell.

    A setting that a check refuses raises before the first draw.
    Per-replicate procedure failures are tabulated under the verdict
    "error" and never abort the sweep; ``errors`` says what they were.
    Identical scenarios (seed included) produce identical tables.

    A cell's draws are taken in blocks of ``SWEEP_BLOCK`` replicates, from
    generators that ``_cell_rng`` seeds ``HASH_BLOCK`` replicates at a time
    and yields one at a time, and sorted by their statistic, k or ybar.
    Each procedure runs at most once per distinct statistic of a block,
    and a certified one only where its certificate cannot name the verdict
    of a gap between two evaluated draws. The procedures of a draw share
    one posterior, built only if one of them needs it. A count repeats, so
    the outcomes of the other procedures on each (n, k) are kept for the
    rest of the call and serve the later blocks and cells at the same n; a
    normal sweep keeps none, and its memory does not grow with
    ``replicates``.
    """
    sweep = _bind_sweep(scenario)
    names = [proc.name for proc in scenario.procedures]
    reps = scenario.replicates
    cells: list[RateCell] = []
    errors: list[ErrorReport] = []
    # imported here, like numpy: the other commands start faster without it
    from array import array

    row, sigma = FAMILIES[scenario.family], scenario.sigma
    # a block's statistics, the field after n, are kept as machine numbers
    typecode = "q" if row.data[0][1] is int else "d"
    memo: dict | None = {} if typecode == "q" else None
    for effect in scenario.true_effects:
        for n in scenario.sample_sizes:
            rngs = _cell_rng(scenario.seed, effect, n)

            def blocks():
                for start in range(0, reps, SWEEP_BLOCK):
                    stop = min(start + SWEEP_BLOCK, reps)
                    draws = (row.draw(rng, effect, n, sigma)[1] for rng in rngs(start, stop))
                    yield array(typecode, draws)

            counts, first_error = _tally(sweep, n, blocks(), memo)
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
