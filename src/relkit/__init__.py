"""relkit: loss-based practical-relevance analysis.

Formalizes "does this effect matter" as a two-action decision problem: a
loss specification over a bounded effect space induces a partition into
negligible and practically relevant effects, hypotheses can be vetted for
how faithfully they incorporate that partition, and observed data feed
either a hypothesis-odds rule with a (possibly interval-valued) loss ratio
or a full expected-loss decision. Classical baselines (point-null test,
equivalence test, ROPE rule, interval Bayes factor) run side by side, and a
Monte-Carlo harness tabulates everyone's operating characteristics.
"""

from ._version import __version__
from .comparators import (
    ComparatorResult,
    interval_bayes_factor,
    nhst_point_null,
    rope_decision,
    tost_equivalence,
)
from .config import ConfigDocument, load_config, parse_config
from .decisions import (
    DecisionOutcome,
    LossRatio,
    bayes_two_action_decision,
    decide_from_odds,
    expected_loss_decision,
)
from .errors import (
    ConfigError,
    DomainError,
    NumericalError,
    RelkitError,
    ValidationError,
)
from .hypotheses import (
    CheckResult,
    HypothesisPair,
    check_complete,
    check_partial,
    derive_hypotheses,
    restricted_space,
)
from .inference import (
    BinomialModel,
    NormalKnownVarModel,
    PosteriorModel,
    QuadratureResult,
    credible_interval,
    posterior_region_prob,
    posterior_summary,
    posterior_update,
    quadrature,
    regularized_incomplete_beta,
)
from .loss import (
    ActionPair,
    CurveKnots,
    LossSpec,
    ParameterSpace,
    QuadraticParams,
    coin_demo_loss,
    evaluate_loss,
    loss_difference,
)
from .plotting import render_loss_plot
from .regions import (
    Interval,
    RegionSet,
    RelevancePartition,
    is_practically_relevant,
    partition,
    region_contains,
    region_hull,
    region_measure,
    region_union,
)
from .simulate import (
    ProcedureSpec,
    RateCell,
    RateTable,
    Scenario,
    run_operating_characteristics,
    simulate_dataset,
)

__all__ = [
    "__version__",
    "ActionPair",
    "BinomialModel",
    "CheckResult",
    "ComparatorResult",
    "ConfigDocument",
    "ConfigError",
    "CurveKnots",
    "DecisionOutcome",
    "DomainError",
    "HypothesisPair",
    "Interval",
    "LossRatio",
    "LossSpec",
    "NormalKnownVarModel",
    "NumericalError",
    "ParameterSpace",
    "PosteriorModel",
    "ProcedureSpec",
    "QuadraticParams",
    "QuadratureResult",
    "RateCell",
    "RateTable",
    "RegionSet",
    "RelevancePartition",
    "RelkitError",
    "Scenario",
    "ValidationError",
    "bayes_two_action_decision",
    "check_complete",
    "check_partial",
    "coin_demo_loss",
    "credible_interval",
    "decide_from_odds",
    "derive_hypotheses",
    "evaluate_loss",
    "expected_loss_decision",
    "interval_bayes_factor",
    "is_practically_relevant",
    "load_config",
    "loss_difference",
    "nhst_point_null",
    "parse_config",
    "partition",
    "posterior_region_prob",
    "posterior_summary",
    "posterior_update",
    "quadrature",
    "regularized_incomplete_beta",
    "region_contains",
    "region_hull",
    "region_measure",
    "region_union",
    "render_loss_plot",
    "restricted_space",
    "rope_decision",
    "run_operating_characteristics",
    "simulate_dataset",
    "tost_equivalence",
]
