"""Monte-Carlo operating characteristics.

A scenario fixes a sampling model, a loss specification, grids of true
effects and sample sizes, and a list of procedures; the sweep tabulates how
often each procedure returns each verdict. Datasets are drawn from PCG64
generators seeded per cell and replicate (scenario seed, the bit pattern of
the true effect, n, replicate index), so any single draw can be reproduced
in isolation and results do not depend on execution order.

A verdict depends on nothing but the dataset, so a binomial sweep runs
each procedure once per distinct draw and reuses the verdict when a draw
repeats (there are at most n + 1 distinct k per n). A normal draw never
repeats, so a normal sweep keeps no memo: it would only grow by one entry
per replicate and procedure.

Two scenarios ship with the package: the coin-bias demo and a blood-thinner
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
from .inference import BinomialModel, NormalKnownVarModel, posterior_update
from .loss import CurveKnots, LossSpec, ParameterSpace, coin_demo_loss
from .regions import RegionSet, partition, region_hull

if TYPE_CHECKING:
    import numpy as np

Model = BinomialModel | NormalKnownVarModel


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
    family and ignored otherwise.
    """

    name: str
    family: str
    space: ParameterSpace
    loss: LossSpec
    true_effects: tuple[float, ...]
    sample_sizes: tuple[int, ...]
    replicates: int
    seed: int
    procedures: tuple[ProcedureSpec, ...]
    prior: tuple[float, float] | None = None
    sigma: float | None = None

    def __post_init__(self) -> None:
        if self.family not in ("binomial", "normal"):
            raise ValidationError(f"unknown model family {self.family!r}")
        if self.family == "normal" and (self.sigma is None or not self.sigma > 0.0):
            raise ValidationError("the normal family needs a positive sigma")
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
        for effect in self.true_effects:
            if not self.space.contains(effect):
                raise ValidationError(
                    f"true effect {effect} outside the parameter space "
                    f"[{self.space.lo}, {self.space.hi}]"
                )
        if self.family == "binomial" and not (
            -0.5 <= self.space.lo and self.space.hi <= 0.5
        ):
            raise ValidationError(
                "binomial bias effects live in [-0.5, 0.5]; adjust the space"
            )


class BinomialDraw(NamedTuple):
    n: int
    k: int


class NormalDraw(NamedTuple):
    n: int
    ybar: float
    sigma: float


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
    if scenario.family == "binomial":
        pi = min(max(true_effect + 0.5, 0.0), 1.0)
        return BinomialDraw(n=n, k=int(rng.binomial(n, pi)))
    assert scenario.sigma is not None
    ybar = float(rng.normal(true_effect, scenario.sigma / math.sqrt(n)))
    return NormalDraw(n=n, ybar=ybar, sigma=scenario.sigma)


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


# The bind steps name the procedures as module globals, looked up at call
# time, so that patching one here reaches every caller.


def _bind_nhst(s: dict, loss: LossSpec, pair: HypothesisPair):
    return lambda model: nhst_point_null(model, s["alpha"])


def _bind_tost(s: dict, loss: LossSpec, pair: HypothesisPair):
    bounds = _interval_on(loss, s["bounds"])
    return lambda model: tost_equivalence(model, bounds, s["alpha"])


def _bind_rope(s: dict, loss: LossSpec, pair: HypothesisPair):
    rope = RegionSet.single(*_interval_on(loss, s["rope"]))
    return lambda model: rope_decision(
        posterior_update(model, loss.space), rope, s["mass"]
    )


def _bind_hypothesis_ratio(s: dict, loss: LossSpec, pair: HypothesisPair):
    def run(model: Model) -> ComparatorResult:
        post = posterior_update(model, loss.space)
        out = bayes_two_action_decision(post, pair, s["loss_ratio"])
        return _decision("bayes_two_action_decision", out.posterior_odds, out)

    return run


def _bind_expected_loss(s: dict, loss: LossSpec, pair: HypothesisPair):
    def run(model: Model) -> ComparatorResult:
        out = expected_loss_decision(posterior_update(model, loss.space), loss)
        statistic = out.threshold_hi - out.threshold_lo  # E[L(a1)] - E[L(a0)]
        return _decision("expected_loss_decision", statistic, out)

    return run


def _bind_bayes_factor(s: dict, loss: LossSpec, pair: HypothesisPair):
    return lambda model: interval_bayes_factor(model, pair, s["prior"], s["threshold"])


class Procedure(NamedTuple):
    """One row of the procedure table: each setting's default and parser,
    the model families, and the bind step (settings, loss, hypothesis pair)
    -> (model -> ComparatorResult)."""

    settings: dict[str, tuple[object, Callable]]
    families: tuple[str, ...]
    bind: Callable[[dict, LossSpec, HypothesisPair], Callable[[Model], ComparatorResult]]


_BOTH = ("binomial", "normal")

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
) -> Callable[[Model], ComparatorResult]:
    """The procedure with its settings bound: a model -> result function."""
    return PROCEDURES[proc.name].bind(parse_settings(proc, family), loss, pair)


def _compile_procedure(
    scenario: Scenario, proc: ProcedureSpec
) -> Callable[[Dataset], str]:
    """Bind a procedure into a dataset -> verdict function. The model of a
    draw takes the scenario prior, or without one the model's default."""
    loss = scenario.loss
    run = bind_procedure(proc, scenario.family, loss, derive_hypotheses(partition(loss)))
    model = BinomialModel if scenario.family == "binomial" else NormalKnownVarModel
    prior = scenario.prior or ()
    # a draw holds the model's leading fields, and the prior its last two
    return lambda data: run(model(*data, *prior)).verdict


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

    Binomial verdicts are memoised for the duration of the call, keyed by
    procedure position and draw, so each procedure runs once per distinct
    draw; normal draws never repeat and are not memoised. A failure is
    memoised like any verdict and still counts once per replicate.
    """
    procedures = [
        (proc.name, _compile_procedure(scenario, proc)) for proc in scenario.procedures
    ]
    memoise = scenario.family == "binomial"
    memo: dict[tuple[int, BinomialDraw], str | RelkitError] = {}
    reps = scenario.replicates
    cells: list[RateCell] = []
    errors: list[ErrorReport] = []
    for effect in scenario.true_effects:
        for n in scenario.sample_sizes:
            counts = [Counter() for _ in procedures]
            first_error: dict[int, RelkitError] = {}
            for r in range(reps):
                data = simulate_dataset(scenario, effect, n, r)
                for i, (_, fn) in enumerate(procedures):
                    key = (i, data)
                    outcome = memo.get(key)
                    if outcome is None:
                        try:
                            outcome = fn(data)
                        except RelkitError as exc:
                            # the memo keeps the error, not the frames of its traceback
                            outcome = exc.with_traceback(None)
                        if memoise:
                            memo[key] = outcome
                    if isinstance(outcome, RelkitError):
                        first_error.setdefault(i, outcome)
                        outcome = "error"
                    counts[i][outcome] += 1
            for i, (name, _) in enumerate(procedures):
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


def coin_scenario(
    true_effects: tuple[float, ...] = (-0.3, 0.0, 0.3),
    sample_sizes: tuple[int, ...] = (100,),
    replicates: int = 500,
    seed: int = 20260108,
    procedures: tuple[ProcedureSpec, ...] | None = None,
) -> Scenario:
    """Coin-bias gamble: binomial flips against the built-in demo loss."""
    if procedures is None:
        procedures = (
            ProcedureSpec("nhst", {"alpha": 0.05}),
            ProcedureSpec("rope", {"mass": 0.95}),
            ProcedureSpec("hypothesis_ratio", {"loss_ratio": 1.0}),
        )
    return Scenario(
        name="coin_bias",
        family="binomial",
        space=ParameterSpace(-0.5, 0.5),
        loss=coin_demo_loss(),
        true_effects=true_effects,
        sample_sizes=sample_sizes,
        replicates=replicates,
        seed=seed,
        procedures=procedures,
        prior=(1.0, 1.0),
    )


def aspirin_paradox_loss() -> LossSpec:
    """Risk-difference loss with curves crossing at +/-0.02: acting carries
    a small fixed-shape cost, not acting a cost growing with the effect."""
    space = ParameterSpace(-0.1, 0.1)
    return LossSpec(
        space=space,
        kind="piecewise_linear",
        params_a0=CurveKnots(knots=(-0.1, 0.0, 0.1), values=(0.1, 0.0, 0.1)),
        params_a1=CurveKnots(knots=(-0.1, 0.0, 0.1), values=(0.0, 0.025, 0.0)),
    )


def aspirin_scenario(replicates: int = 500, seed: int = 19880128) -> Scenario:
    """Tiny-but-real mean effect at a huge sample size.

    The true risk difference 0.0077 sits well inside the negligible region
    [-0.02, 0.02], yet at n = 22000 the point-null test rejects almost
    surely. The relevance-aware procedures settle on a0.
    """
    return Scenario(
        name="aspirin_paradox",
        family="normal",
        space=ParameterSpace(-0.1, 0.1),
        loss=aspirin_paradox_loss(),
        true_effects=(0.0077,),
        sample_sizes=(22000,),
        replicates=replicates,
        seed=seed,
        procedures=(
            ProcedureSpec("nhst", {"alpha": 0.05}),
            ProcedureSpec("rope", {"mass": 0.95, "rope": "partition_hull"}),
            ProcedureSpec("hypothesis_ratio", {"loss_ratio": 1.0}),
            ProcedureSpec("tost", {"alpha": 0.05, "bounds": "partition_hull"}),
        ),
        prior=(0.0, 0.05),
        sigma=0.2,
    )
