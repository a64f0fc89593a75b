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

import importlib

from ._version import __version__

# each public name, by the module that defines it; a name's module is
# imported on its first use (PEP 562), so that reading a config loads no
# sweep, comparator, decision or plotting code
_EXPORTS = {
    "comparators": (
        "ComparatorResult",
        "interval_bayes_factor",
        "nhst_point_null",
        "rope_decision",
        "tost_equivalence",
    ),
    "config": ("ConfigDocument", "ProcedureSpec", "Scenario", "load_config", "parse_config"),
    "decisions": (
        "DecisionOutcome",
        "bayes_two_action_decision",
        "decide_from_odds",
        "expected_loss_decision",
    ),
    "errors": ("ConfigError", "DomainError", "NumericalError", "RelkitError", "ValidationError"),
    "hypotheses": (
        "CheckResult",
        "HypothesisPair",
        "LossRatio",
        "check_complete",
        "check_partial",
        "derive_hypotheses",
        "restricted_space",
    ),
    "inference": (
        "BinomialModel",
        "NormalKnownVarModel",
        "PosteriorModel",
        "QuadratureResult",
        "credible_interval",
        "posterior_region_prob",
        "posterior_summary",
        "posterior_update",
        "quadrature",
        "regularized_incomplete_beta",
    ),
    "loss": (
        "ActionPair",
        "CurveKnots",
        "LossSpec",
        "ParameterSpace",
        "QuadraticParams",
        "coin_demo_loss",
        "evaluate_loss",
        "loss_difference",
    ),
    "plotting": ("render_loss_plot",),
    "regions": (
        "Interval",
        "RegionSet",
        "RelevancePartition",
        "is_practically_relevant",
        "partition",
        "region_contains",
        "region_hull",
        "region_measure",
        "region_union",
    ),
    "simulate": ("RateCell", "RateTable", "run_operating_characteristics", "simulate_dataset"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *sorted(_MODULE_OF)]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups find it without this call
    return value


def __dir__() -> list[str]:
    return __all__
