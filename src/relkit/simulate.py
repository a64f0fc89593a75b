"""Monte-Carlo operating characteristics.

A scenario fixes a sampling model, a loss specification, grids of true
effects and sample sizes, and a list of procedures; the sweep tabulates how
often each procedure returns each verdict. Datasets are drawn from PCG64
generators seeded per cell and replicate (scenario seed, the bit pattern of
the true effect, n, replicate index), so any single draw can be reproduced
in isolation and results do not depend on execution order.

The family's row in ``inference.FAMILIES`` draws each dataset. Each
procedure is bound once per run: its settings are checked and its region
ends taken then, and its kernel computes per draw only what the verdict
needs; the full result (``compare``'s row) is built only on request. The
procedures of a replicate share one posterior, built on first use, and
with it the tail masses it has taken at the region ends. A verdict depends
on nothing but the dataset, so where draws repeat (binomial: at most n + 1
distinct k per n) a sweep runs the procedures once per distinct draw and
keeps their outcomes in one memo entry. A normal draw never repeats, so a
normal sweep keeps no memo: it would only grow by one entry per replicate.

The shipped scenarios are configs: ``configs/coin_scenario.json``, the
coin-bias demo, and ``configs/aspirin_scenario.json``, a blood-thinner
style trial in which a tiny mean effect at a huge sample size is flagged by
the point-null test while every relevance-aware procedure settles on a0.
"""

from __future__ import annotations

import math
import struct
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, NamedTuple

from . import values
from .comparators import (
    ComparatorResult,
    _bayes_factor,
    _bayes_factor_result,
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
    _tost,
    _tost_bounds,
    _tost_result,
)
from .decisions import (
    LossRatio,
    _coverage_check,
    _expected_loss,
    _expected_loss_outcome,
    _partition_ends,
    _two_action,
    _two_action_outcome,
)
from .errors import DomainError, RelkitError, ValidationError
from .hypotheses import HypothesisPair, derive_hypotheses
from .inference import (
    FAMILIES,
    BinomialDraw,
    BinomialModel,
    Family,
    NormalDraw,
    NormalKnownVarModel,
    PosteriorModel,
    _region_ends,
    _region_prob,
    posterior_update,
)
from .loss import LossSpec, ParameterSpace
from .regions import RegionSet, partition, region_hull

if TYPE_CHECKING:
    import numpy as np

Model = BinomialModel | NormalKnownVarModel
Posterior = Callable[[], PosteriorModel]
Report = Callable[[], ComparatorResult]
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
        # the rate table names each procedure's cells by its name alone
        names = Counter(proc.name for proc in self.procedures)
        duplicates = sorted(name for name, count in names.items() if count > 1)
        if duplicates:
            raise ValidationError(
                f"procedure(s) {duplicates} listed more than once; each may appear once"
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


def _words(value: int) -> list[int]:
    """The 32-bit words of a non-negative int, least significant first, as
    numpy's SeedSequence splits each int of its entropy (0 is one word)."""
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & 0xFFFFFFFF]
    value >>= 32
    while value:
        words.append(value & 0xFFFFFFFF)
        value >>= 32
    return words


def _cell_rng(seed: int, true_effect: float, n: int) -> Callable[[int], np.random.Generator]:
    """replicate index -> the generator of that replicate in one cell:
    PCG64 seeded by SeedSequence([seed, effect bits, n, replicate]), where
    effect bits is the IEEE-754 bit pattern of the true effect as an
    unsigned int. The words of the entropy are split here once per cell
    and handed to SeedSequence as a uint32 array, the form it reduces a
    list of ints to, so the stream is the one the list gives."""
    # numpy is imported here, not at module level: only simulate draws data,
    # and the other commands start faster without it
    import numpy as np

    # + 0.0 maps -0.0 to 0.0, so both zeros draw the same stream
    effect_bits = int.from_bytes(struct.pack("<d", float(true_effect) + 0.0), "little")
    cell = [*_words(int(seed)), *_words(effect_bits), *_words(int(n))]

    def rng(replicate_index: int) -> np.random.Generator:
        entropy = np.array([*cell, *_words(int(replicate_index))], dtype=np.uint32)
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))

    return rng


def simulate_dataset(
    scenario: Scenario, true_effect: float, n: int, replicate_index: int
) -> Dataset:
    """Draw one dataset; fully determined by (seed, effect, n, replicate)."""
    rng = _cell_rng(scenario.seed, true_effect, n)(replicate_index)
    return FAMILIES[scenario.family].draw(rng, true_effect, n, scenario.sigma)


# --- the procedure table ---------------------------------------------------


def _interval_on(loss: LossSpec, bounds) -> tuple[float, float]:
    """(lo, hi), with "partition_hull" the hull of the negligible region."""
    if bounds == "partition_hull":
        hull = region_hull(partition(loss).negligible)
        return hull.lo, hull.hi
    return bounds


def _decision(procedure: str, statistic: float, outcome) -> ComparatorResult:
    detail = "; ".join(outcome.warnings)
    return ComparatorResult(procedure, statistic, outcome.decision, detail=detail)


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


# A bind step makes every check that depends only on the settings, the loss
# and the hypothesis pair, and returns the procedure's kernel. A kernel
# takes the model and a posterior from _shared_posterior (nhst, tost and a
# Bayes factor with its own prior never call it), computes what its verdict
# needs through the rule its public function calls, and returns the verdict
# and report(), which builds the result that function returns. The kernels
# name the rules as module globals, looked up at call time, so that
# patching one here reaches every caller.


def _raising(exc: RelkitError, first: Kernel | None = None) -> Kernel:
    """The kernel of settings that a check refused at bind: every call
    raises what the public function raises per call, after ``first`` where
    that function does its work before the check."""

    def kernel(model: Model, posterior: Posterior):
        if first is not None:
            first(model, posterior)
        raise type(exc)(*exc.args)

    return kernel


def _bind_nhst(s: dict, row: Family, loss: LossSpec, pair: HypothesisPair) -> Kernel:
    alpha, point_null = s["alpha"], row.point_null
    _check_alpha(alpha)

    def kernel(model: Model, posterior: Posterior):
        out = _nhst(point_null, model, alpha)
        return out[0], lambda: _nhst_result(row, model, alpha, *out)

    return kernel


def _bind_tost(s: dict, row: Family, loss: LossSpec, pair: HypothesisPair) -> Kernel:
    alpha, bounds = s["alpha"], _interval_on(loss, s["bounds"])
    try:
        lo, hi = _tost_bounds(bounds, alpha)
    except ValidationError as exc:
        return _raising(exc)

    def kernel(model: Model, posterior: Posterior):
        out = _tost(model, lo, hi, alpha)
        return out[0], lambda: _tost_result(lo, hi, alpha, *out)

    return kernel


def _bind_rope(s: dict, row: Family, loss: LossSpec, pair: HypothesisPair) -> Kernel:
    rope, mass = RegionSet.single(*_interval_on(loss, s["rope"])), s["mass"]
    lo, hi, tail = _rope_hull(rope, mass)

    def kernel(model: Model, posterior: Posterior):
        post = posterior()
        out = _rope(post, lo, hi, tail)
        return out[0], lambda: _rope_result(post, rope, mass, tail, *out)

    try:
        _region_ends(rope, loss.space)
    except DomainError as exc:
        # the public rule takes P(rope | y) after its verdict
        return _raising(exc, kernel)
    return kernel


def _bind_hypothesis_ratio(
    s: dict, row: Family, loss: LossSpec, pair: HypothesisPair
) -> Kernel:
    ratio = s["loss_ratio"]
    try:
        _coverage_check(loss.space, pair, False)
    except ValidationError as exc:
        # the public rule takes the posterior before this check
        return _raising(exc, lambda model, posterior: posterior())
    h0, h1 = _region_ends(pair.h0, loss.space), _region_ends(pair.h1, loss.space)

    def kernel(model: Model, posterior: Posterior):
        post = posterior()
        p0, p1 = _region_prob(post, h0), _region_prob(post, h1)
        decision, odds = _two_action(p0, p1, ratio)
        return decision, lambda: _decision(
            "bayes_two_action_decision",
            odds,
            _two_action_outcome(p0, p1, ratio, decision, odds),
        )

    return kernel


def _bind_expected_loss(
    s: dict, row: Family, loss: LossSpec, pair: HypothesisPair
) -> Kernel:
    # the posterior lies on the loss's space, so the two spaces match
    part_ends = _partition_ends(loss, loss.space)

    def kernel(model: Model, posterior: Posterior):
        post = posterior()
        decision, expected, warnings = _expected_loss(post, loss)
        return decision, lambda: _decision(
            "expected_loss_decision",
            expected["a1"] - expected["a0"],
            _expected_loss_outcome(post, part_ends, decision, expected, warnings),
        )

    return kernel


def _bind_bayes_factor(
    s: dict, row: Family, loss: LossSpec, pair: HypothesisPair
) -> Kernel:
    threshold, prior, ends = s["threshold"], s["prior"], _pair_ends(pair)
    _check_threshold(threshold)
    if prior is not None:
        try:
            masses = _prior_masses(row, prior, pair)
        except ValidationError as exc:
            return _raising(exc)

        def own_prior(model: Model, posterior: Posterior):
            # a second conjugate update: the draw's data under this prior
            data = tuple(vars(model).values())[:-2]
            params = row.update(row.model(*data, *prior))
            post_masses = _region_masses(
                lambda t: row.tails(params, t - row.effect_shift), ends
            )
            out = _bayes_factor(post_masses, masses, threshold)
            return out[0], lambda: _bayes_factor_result(*out)

        return own_prior
    # the prior masses of each model prior seen: a sweep and a compare have one
    prior_masses: dict[tuple, tuple[float, float]] = {}

    def kernel(model: Model, posterior: Posterior):
        # the prior's two numbers are the model's last two fields
        params = tuple(vars(model).values())[-2:]
        masses = prior_masses.get(params)
        if masses is None:
            masses = prior_masses[params] = _prior_masses(row, params, pair)
        out = _bayes_factor(_region_masses(posterior()._tails_at, ends), masses, threshold)
        return out[0], lambda: _bayes_factor_result(*out)

    return kernel


class Procedure(NamedTuple):
    """One row of the procedure table: each setting's default and parser,
    the model families, and the bind step (settings, family row, loss,
    hypothesis pair) -> kernel."""

    settings: dict[str, tuple[object, Callable]]
    families: tuple[str, ...]
    bind: Callable[[dict, Family, LossSpec, HypothesisPair], Kernel]


_BOTH = tuple(FAMILIES)

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
        {"loss_ratio": (LossRatio.scalar(1.0), values.loss_ratio)},
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


def parse_settings(proc: ProcedureSpec, family: str | None) -> dict:
    """Check a procedure's settings against its table row and return them
    all, defaults filled in. With no family, the family checks are skipped."""
    row = PROCEDURES[proc.name]
    unknown = sorted(set(proc.settings) - set(row.settings))
    if unknown:
        raise ValidationError(f"unknown setting(s) {unknown} for procedure {proc.name!r}")
    if family is not None and family not in row.families:
        raise ValidationError(f"{proc.name} supports the {row.families} family only")
    parsed = {key: default for key, (default, _) in row.settings.items()}
    for key, value in proc.settings.items():
        _, parse = row.settings[key]
        try:
            parsed[key] = parse(value, family)
        except ValidationError as exc:
            raise ValidationError(f"{proc.name} setting {key!r}: {exc}") from None
    return parsed


def bind_procedure(
    proc: ProcedureSpec, family: str, loss: LossSpec, pair: HypothesisPair
) -> Kernel:
    """The procedure with its settings bound: its kernel, a (model,
    posterior) -> (verdict, report) function, where posterior() is the
    model's posterior on the loss space, as ``_shared_posterior`` gives it,
    and report() builds the procedure's full result."""
    settings = parse_settings(proc, family)
    return PROCEDURES[proc.name].bind(settings, FAMILIES[family], loss, pair)


Outcome = str | RelkitError


def _compile_procedures(
    scenario: Scenario, procs: tuple[ProcedureSpec, ...]
) -> Callable[[Dataset], tuple[Outcome, ...]]:
    """Bind procedures into a dataset -> outcomes function: each
    procedure's verdict, or the error it raised. The model of a draw takes
    the scenario prior, or without one the model's default, and the
    procedures share one posterior of it."""
    loss = scenario.loss
    pair = derive_hypotheses(partition(loss))
    kernels = [bind_procedure(proc, scenario.family, loss, pair) for proc in procs]
    model_of = FAMILIES[scenario.family].model
    prior = scenario.prior or ()

    def outcomes(data: Dataset) -> tuple[Outcome, ...]:
        try:
            # a draw holds the model's leading fields, and the prior its last two
            model = model_of(*data, *prior)
        except RelkitError as exc:
            # a draw no model takes (a normal mean that overflowed) fails
            # every procedure alike
            return (exc.with_traceback(None),) * len(kernels)
        posterior = _shared_posterior(model, loss.space)
        out: list[Outcome] = []
        for kernel in kernels:
            try:
                out.append(kernel(model, posterior)[0])
            except RelkitError as exc:
                # an outcome keeps the error, not the frames of its traceback
                out.append(exc.with_traceback(None))
        return tuple(out)

    return outcomes


def _compile_procedure(
    scenario: Scenario, proc: ProcedureSpec
) -> Callable[[Dataset], str]:
    """Bind one procedure into a dataset -> verdict function, with a
    posterior of its own; an error is raised."""
    outcomes = _compile_procedures(scenario, (proc,))

    def verdict(data: Dataset) -> str:
        (outcome,) = outcomes(data)
        if isinstance(outcome, RelkitError):
            raise outcome
        return outcome

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


def run_operating_characteristics(scenario: Scenario) -> RateTable:
    """Run every configured procedure on every replicate of every grid cell.

    Per-replicate procedure failures are tabulated under the verdict
    "error" and never abort the sweep; ``errors`` says what they were.
    Identical scenarios (seed included) produce identical tables.

    The procedures of a replicate share one posterior, built only if one
    of them needs it. Where the family's draws repeat, the outcomes of
    every procedure are memoised for the duration of the call, one entry
    per distinct draw, so each procedure runs once per distinct draw;
    normal draws never repeat and are not memoised. A failure is memoised
    like any verdict and still counts once per replicate.
    """
    outcomes_of = _compile_procedures(scenario, scenario.procedures)
    names = [proc.name for proc in scenario.procedures]
    memoise = FAMILIES[scenario.family].repeats
    memo: dict[Dataset, tuple[Outcome, ...]] = {}
    reps = scenario.replicates
    cells: list[RateCell] = []
    errors: list[ErrorReport] = []
    draw, sigma = FAMILIES[scenario.family].draw, scenario.sigma
    for effect in scenario.true_effects:
        for n in scenario.sample_sizes:
            counts = [Counter() for _ in names]
            first_error: dict[int, RelkitError] = {}
            rng = _cell_rng(scenario.seed, effect, n)
            for r in range(reps):
                data = draw(rng(r), effect, n, sigma)
                outcomes = memo.get(data)
                if outcomes is None:
                    outcomes = outcomes_of(data)
                    if memoise:
                        memo[data] = outcomes
                for i, outcome in enumerate(outcomes):
                    if isinstance(outcome, RelkitError):
                        first_error.setdefault(i, outcome)
                        outcome = "error"
                    counts[i][outcome] += 1
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
