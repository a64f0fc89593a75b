"""Monte-Carlo operating characteristics.

A scenario fixes a sampling model, a loss specification, grids of true
effects and sample sizes, and a list of procedures; the sweep tabulates how
often each procedure returns each verdict. Datasets are drawn from PCG64
generators seeded per cell and replicate (scenario seed, the bit pattern of
the true effect, n, replicate index), so any single draw can be reproduced
in isolation and results do not depend on execution order.

The family's row in ``inference.FAMILIES`` draws each dataset. The
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
    interval_bayes_factor,
    nhst_point_null,
    prior_region_masses,
    rope_decision,
    tost_equivalence,
)
from .decisions import (
    LossRatio,
    bayes_two_action_decision,
    expected_loss_decision,
)
from .errors import RelkitError, ValidationError
from .hypotheses import HypothesisPair, derive_hypotheses
from .inference import (
    FAMILIES,
    BinomialDraw,
    BinomialModel,
    NormalDraw,
    NormalKnownVarModel,
    PosteriorModel,
    posterior_update,
)
from .loss import LossSpec, ParameterSpace
from .regions import RegionSet, partition, region_hull

if TYPE_CHECKING:
    import numpy as np

Model = BinomialModel | NormalKnownVarModel
Posterior = Callable[[], PosteriorModel]
Bound = Callable[[Model, Posterior], ComparatorResult]  # a procedure with its settings


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


def _cell_rng(
    seed: int, true_effect: float, n: int, replicate_index: int
) -> np.random.Generator:
    # numpy is imported here, not at module level: only simulate draws data,
    # and the other commands start faster without it
    import numpy as np

    # + 0.0 maps -0.0 to 0.0, so both zeros draw the same stream
    effect_bits = int.from_bytes(struct.pack("<d", float(true_effect) + 0.0), "little")
    ss = np.random.SeedSequence(
        [int(seed), effect_bits, int(n), int(replicate_index)]
    )
    return np.random.default_rng(ss)


def simulate_dataset(
    scenario: Scenario, true_effect: float, n: int, replicate_index: int
) -> Dataset:
    """Draw one dataset; fully determined by (seed, effect, n, replicate)."""
    rng = _cell_rng(scenario.seed, true_effect, n, replicate_index)
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


# A bound procedure takes the model and a posterior from _shared_posterior;
# nhst, tost and a Bayes factor with its own prior never call it. The bind
# steps name the procedures as module globals, looked up at call time, so
# that patching one here reaches every caller.


def _bind_nhst(s: dict, loss: LossSpec, pair: HypothesisPair):
    return lambda model, posterior: nhst_point_null(model, s["alpha"])


def _bind_tost(s: dict, loss: LossSpec, pair: HypothesisPair):
    bounds = _interval_on(loss, s["bounds"])
    return lambda model, posterior: tost_equivalence(model, bounds, s["alpha"])


def _bind_rope(s: dict, loss: LossSpec, pair: HypothesisPair):
    rope = RegionSet.single(*_interval_on(loss, s["rope"]))
    return lambda model, posterior: rope_decision(posterior(), rope, s["mass"])


def _bind_hypothesis_ratio(s: dict, loss: LossSpec, pair: HypothesisPair):
    def run(model: Model, posterior: Posterior) -> ComparatorResult:
        out = bayes_two_action_decision(posterior(), pair, s["loss_ratio"])
        return _decision("bayes_two_action_decision", out.posterior_odds, out)

    return run


def _bind_expected_loss(s: dict, loss: LossSpec, pair: HypothesisPair):
    def run(model: Model, posterior: Posterior) -> ComparatorResult:
        out = expected_loss_decision(posterior(), loss)
        statistic = out.threshold_hi - out.threshold_lo  # E[L(a1)] - E[L(a0)]
        return _decision("expected_loss_decision", statistic, out)

    return run


def _bind_bayes_factor(s: dict, loss: LossSpec, pair: HypothesisPair):
    if s["prior"] is not None:
        return lambda model, posterior: interval_bayes_factor(
            model, pair, s["prior"], s["threshold"]
        )
    # the prior masses of each model prior seen: a sweep and a compare have one
    prior_masses: dict[tuple, dict[str, float]] = {}

    def run(model: Model, posterior: Posterior) -> ComparatorResult:
        key = (type(model), *tuple(vars(model).values())[-2:])
        if key not in prior_masses:
            prior_masses[key] = prior_region_masses(model, pair)
        return interval_bayes_factor(
            model,
            pair,
            threshold=s["threshold"],
            post=posterior(),
            prior_masses=prior_masses[key],
        )

    return run


class Procedure(NamedTuple):
    """One row of the procedure table: each setting's default and parser,
    the model families, and the bind step (settings, loss, hypothesis pair)
    -> ((model, posterior) -> ComparatorResult)."""

    settings: dict[str, tuple[object, Callable]]
    families: tuple[str, ...]
    bind: Callable[[dict, LossSpec, HypothesisPair], Bound]


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
) -> Bound:
    """The procedure with its settings bound: a (model, posterior) ->
    result function, where posterior() is the model's posterior on the
    loss space, as ``_shared_posterior`` gives it."""
    return PROCEDURES[proc.name].bind(parse_settings(proc, family), loss, pair)


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
    runs = [bind_procedure(proc, scenario.family, loss, pair) for proc in procs]
    model_of = FAMILIES[scenario.family].model
    prior = scenario.prior or ()

    def outcomes(data: Dataset) -> tuple[Outcome, ...]:
        try:
            # a draw holds the model's leading fields, and the prior its last two
            model = model_of(*data, *prior)
        except RelkitError as exc:
            # a draw no model takes (a normal mean that overflowed) fails
            # every procedure alike
            return (exc.with_traceback(None),) * len(runs)
        posterior = _shared_posterior(model, loss.space)
        out: list[Outcome] = []
        for run in runs:
            try:
                out.append(run(model, posterior).verdict)
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
    for effect in scenario.true_effects:
        for n in scenario.sample_sizes:
            counts = [Counter() for _ in names]
            first_error: dict[int, RelkitError] = {}
            for r in range(reps):
                data = simulate_dataset(scenario, effect, n, r)
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
