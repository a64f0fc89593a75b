"""Strict parsing of the JSON analysis configuration.

A configuration walks the user through the same steps a loss-based analysis
needs on paper: name the two actions, bound the parameter space, describe
the loss information, and only then attach data, hypotheses, decision
settings, comparators, or a simulation scenario. Unknown keys anywhere are
hard errors so that a typo cannot silently change an analysis.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .decisions import LossRatio
from .errors import ConfigError, ValidationError
from .hypotheses import HypothesisPair
from .inference import BinomialModel, NormalKnownVarModel
from .loss import (
    ActionPair,
    CurveKnots,
    LossSpec,
    ParameterSpace,
    QuadraticParams,
)
from .regions import Interval, RegionSet, region_within
from .simulate import (
    PROCEDURES,
    ProcedureSpec,
    Scenario,
    parse_loss_ratio,
    parse_prior,
    parse_settings,
)

SPEC_VERSION = 1

_TOP_KEYS = {
    "spec_version",
    "parameter_space",
    "loss",
    "actions",
    "hypotheses",
    "model",
    "prior",
    "decision",
    "comparators",
    "scenario",
    "output",
    "seed",
}


def _section(raw: dict, name: str) -> dict:
    value = raw[name]
    if not isinstance(value, dict):
        raise ConfigError(f"section {name!r} must be an object")
    return dict(value)


def _finish(leftover: dict, context: str) -> None:
    if leftover:
        raise ConfigError(f"unknown key(s) {sorted(leftover)} in {context}")


def _number(raw: dict, key: str, context: str, default=None):
    if key not in raw:
        if default is None:
            raise ConfigError(f"missing key {key!r} in {context}")
        return default
    value = raw.pop(key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{context}.{key} must be a number")
    return float(value)


def _integer(raw: dict, key: str, context: str, default=None):
    if key not in raw:
        if default is None:
            raise ConfigError(f"missing key {key!r} in {context}")
        return default
    value = raw.pop(key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{context}.{key} must be an integer")
    return value


def _string(raw: dict, key: str, context: str, default=None):
    if key not in raw:
        if default is None:
            raise ConfigError(f"missing key {key!r} in {context}")
        return default
    value = raw.pop(key)
    if not isinstance(value, str):
        raise ConfigError(f"{context}.{key} must be a string")
    return value


def _parse_space(raw: dict) -> ParameterSpace:
    section = _section(raw, "parameter_space")
    lo = _number(section, "lo", "parameter_space")
    hi = _number(section, "hi", "parameter_space")
    _finish(section, "parameter_space")
    return ParameterSpace(lo, hi)


def _parse_curve(obj, context: str) -> CurveKnots | QuadraticParams:
    if not isinstance(obj, dict):
        raise ConfigError(f"{context} must be an object")
    obj = dict(obj)
    if "c" in obj:
        params = QuadraticParams(
            c=_number(obj, "c", context),
            center=_number(obj, "center", context, default=0.0),
            offset=_number(obj, "offset", context, default=0.0),
        )
        _finish(obj, context)
        return params
    knots = obj.pop("knots", None) or obj.pop("grid", None)
    values = obj.pop("values", None)
    _finish(obj, context)
    if knots is None or values is None:
        raise ConfigError(
            f"{context} needs either quadratic coefficients (c, center, offset) "
            "or knots/grid plus values"
        )
    return CurveKnots(knots=tuple(knots), values=tuple(values))


def _parse_loss(raw: dict, space: ParameterSpace) -> LossSpec:
    section = _section(raw, "loss")
    kind = _string(section, "kind", "loss")
    params_a0 = params_a1 = None
    if "params_a0" in section:
        params_a0 = _parse_curve(section.pop("params_a0"), "loss.params_a0")
    if "params_a1" in section:
        params_a1 = _parse_curve(section.pop("params_a1"), "loss.params_a1")
    _finish(section, "loss")
    if kind == "builtin_coin_demo":
        if params_a0 is not None or params_a1 is not None:
            raise ConfigError("builtin_coin_demo takes no loss parameters")
    elif params_a0 is None or params_a1 is None:
        raise ConfigError(f"loss kind {kind!r} needs params_a0 and params_a1")
    try:
        return LossSpec(space=space, kind=kind, params_a0=params_a0, params_a1=params_a1)
    except ValidationError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_actions(raw: dict) -> ActionPair:
    section = _section(raw, "actions")
    pair = ActionPair(
        a0_label=_string(section, "a0_label", "actions"),
        a1_label=_string(section, "a1_label", "actions"),
        a0_description=_string(section, "a0_description", "actions", default=""),
        a1_description=_string(section, "a1_description", "actions", default=""),
    )
    _finish(section, "actions")
    return pair


def _parse_region_items(items, context: str) -> RegionSet:
    if not isinstance(items, list):
        raise ConfigError(f"{context} must be a list of intervals or values")
    intervals = []
    for item in items:
        if isinstance(item, (int, float)) and not isinstance(item, bool):
            intervals.append(Interval(float(item), float(item)))
        elif isinstance(item, list) and len(item) in (2, 4):
            lo, hi = float(item[0]), float(item[1])
            lo_open = bool(item[2]) if len(item) == 4 else False
            hi_open = bool(item[3]) if len(item) == 4 else False
            intervals.append(Interval(lo, hi, lo_open, hi_open))
        else:
            raise ConfigError(
                f"{context} entries must be a number or [lo, hi] or "
                "[lo, hi, lo_open, hi_open]"
            )
    return RegionSet(tuple(intervals))


def _parse_hypotheses(raw: dict) -> HypothesisPair:
    section = _section(raw, "hypotheses")
    h0 = _parse_region_items(section.pop("h0", None), "hypotheses.h0")
    h1 = _parse_region_items(section.pop("h1", None), "hypotheses.h1")
    _finish(section, "hypotheses")
    return HypothesisPair(h0=h0, h1=h1)


def _parsed(parse, value, family: str | None, context: str):
    """A value read by one of the procedure table's parsers."""
    try:
        return parse(value, family)
    except ValidationError as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def _parse_model(raw: dict) -> tuple[BinomialModel | NormalKnownVarModel, str]:
    """The model and its family; without a prior, the model's default."""
    section = _section(raw, "model")
    family = _string(section, "family", "model")
    if family not in ("binomial", "normal"):
        raise ConfigError(f"model.family must be 'binomial' or 'normal', got {family!r}")
    data = section.pop("data", None)
    if not isinstance(data, dict):
        raise ConfigError("model.data must be an object")
    data = dict(data)
    # the prior's two numbers are the model's last two fields
    prior = ()
    if "prior" in section:
        prior = _parsed(parse_prior, section.pop("prior"), family, "model.prior")
    if family == "binomial":
        _finish(section, "model")
        n, k = _integer(data, "n", "model.data"), _integer(data, "k", "model.data")
        model = BinomialModel(n, k, *prior)
    else:
        sigma = _number(section, "sigma", "model")
        _finish(section, "model")
        n, ybar = _integer(data, "n", "model.data"), _number(data, "ybar", "model.data")
        model = NormalKnownVarModel(n, ybar, sigma, *prior)
    _finish(data, "model.data")
    return model, family


@dataclass(frozen=True)
class DecisionSettings:
    rule: str
    loss_ratio: LossRatio | None
    allow_restricted_space: bool = False


def _parse_decision(raw: dict) -> DecisionSettings:
    section = _section(raw, "decision")
    rule = _string(section, "rule", "decision", default="hypothesis_ratio")
    if rule not in ("hypothesis_ratio", "expected_loss"):
        raise ConfigError(
            f"decision.rule must be 'hypothesis_ratio' or 'expected_loss', got {rule!r}"
        )
    ratio = None
    if "loss_ratio" in section:
        if rule == "expected_loss":
            raise ConfigError("decision.loss_ratio is not used by the expected_loss rule")
        ratio = _parsed(
            parse_loss_ratio, section.pop("loss_ratio"), None, "decision.loss_ratio"
        )
    elif rule == "hypothesis_ratio":
        raise ConfigError("decision.loss_ratio is required for the hypothesis_ratio rule")
    allow = bool(section.pop("allow_restricted_space", False))
    _finish(section, "decision")
    return DecisionSettings(rule=rule, loss_ratio=ratio, allow_restricted_space=allow)


def _parse_procedures(
    items, context: str, word: str, family: str | None
) -> tuple[ProcedureSpec, ...]:
    """The ``comparators`` or ``scenario.procedures`` list, checked against
    the procedure table; settings that depend on the model family are
    checked only when the family is known."""
    if not isinstance(items, list) or not items:
        raise ConfigError(f"{context} must be a non-empty list")
    specs = []
    for i, item in enumerate(items):
        if not isinstance(item, dict):
            raise ConfigError(f"{context}[{i}] must be an object")
        item = dict(item)
        name = _string(item, "procedure", f"{context}[{i}]")
        if name not in PROCEDURES:
            raise ConfigError(
                f"unknown {word} {name!r}; expected one of {sorted(PROCEDURES)}"
            )
        spec = ProcedureSpec(name=name, settings=item)
        try:
            parse_settings(spec, family)
        except ValidationError as exc:
            raise ConfigError(f"{context}[{i}]: {exc}") from exc
        specs.append(spec)
    return tuple(specs)


def _parse_scenario(
    raw: dict, space: ParameterSpace, loss: LossSpec, top_seed: int | None
) -> Scenario:
    section = _section(raw, "scenario")
    name = _string(section, "name", "scenario")
    family = _string(section, "family", "scenario")
    if family not in ("binomial", "normal"):
        raise ConfigError(
            f"scenario.family must be 'binomial' or 'normal', got {family!r}"
        )
    effects = section.pop("true_effects", None)
    sizes = section.pop("sample_sizes", None)
    if not isinstance(effects, list) or not isinstance(sizes, list):
        raise ConfigError("scenario needs true_effects and sample_sizes lists")
    replicates = _integer(section, "replicates", "scenario")
    if "seed" in section:
        seed = _integer(section, "seed", "scenario")
        if seed < 0:
            raise ConfigError("scenario.seed must be a non-negative integer")
    else:
        seed = top_seed if top_seed is not None else 0
    sigma = (
        _number(section, "sigma", "scenario") if family == "normal" else None
    )
    prior = None
    if "prior" in section:
        prior = _parsed(parse_prior, section.pop("prior"), family, "scenario.prior")
    procedures_raw = section.pop("procedures", None)
    _finish(section, "scenario")
    procedures = _parse_procedures(
        procedures_raw, "scenario.procedures", "procedure", family
    )
    try:
        return Scenario(
            name=name,
            family=family,
            space=space,
            loss=loss,
            true_effects=tuple(float(e) for e in effects),
            sample_sizes=tuple(int(n) for n in sizes),
            replicates=replicates,
            seed=seed,
            procedures=procedures,
            prior=prior,
            sigma=sigma,
        )
    except ValidationError as exc:
        raise ConfigError(str(exc)) from exc


@dataclass(frozen=True)
class OutputSettings:
    format: str = "json"
    path: str | None = None


def _parse_output(raw: dict) -> OutputSettings:
    section = _section(raw, "output")
    fmt = _string(section, "format", "output", default="json")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"output.format must be 'csv' or 'json', got {fmt!r}")
    path = _string(section, "path", "output", default="")
    _finish(section, "output")
    return OutputSettings(format=fmt, path=path or None)


@dataclass(frozen=True)
class ConfigDocument:
    """Parsed configuration; optional sections are None when absent."""

    space: ParameterSpace
    loss: LossSpec
    actions: ActionPair
    hypotheses: HypothesisPair | None = None
    model: BinomialModel | NormalKnownVarModel | None = None
    decision: DecisionSettings | None = None
    comparators: tuple[ProcedureSpec, ...] | None = None
    scenario: Scenario | None = None
    output: OutputSettings = field(default_factory=OutputSettings)
    seed: int | None = None


def parse_config(raw: dict) -> ConfigDocument:
    """Validate and assemble a configuration from decoded JSON."""
    if not isinstance(raw, dict):
        raise ConfigError("the configuration must be a JSON object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown top-level key(s) {sorted(unknown)}")
    raw = dict(raw)
    version = raw.get("spec_version")
    if version != SPEC_VERSION:
        raise ConfigError(
            f"spec_version must be {SPEC_VERSION}, got {version!r}"
        )
    for key in ("parameter_space", "loss", "actions"):
        if key not in raw:
            raise ConfigError(f"missing required section {key!r}")

    space = _parse_space(raw)
    loss = _parse_loss(raw, space)
    actions = _parse_actions(raw)

    seed = None
    if "seed" in raw:
        value = raw["seed"]
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise ConfigError("seed must be a non-negative integer")
        seed = value

    if "prior" in raw:
        if "model" not in raw:
            raise ConfigError("a top-level prior needs a model section to attach to")
        section = _section(raw, "model")
        if "prior" in section:
            raise ConfigError(
                "prior given both at the top level and inside model; pick one"
            )
        raw["model"] = {**section, "prior": raw["prior"]}
    model = family = None
    if "model" in raw:
        model, family = _parse_model(raw)

    try:
        hypotheses = _parse_hypotheses(raw) if "hypotheses" in raw else None
        if hypotheses is not None:
            for which, region in (("h0", hypotheses.h0), ("h1", hypotheses.h1)):
                if not region_within(region, space):
                    raise ConfigError(
                        f"hypotheses.{which} reaches outside the parameter space "
                        f"[{space.lo}, {space.hi}]"
                    )
        decision = _parse_decision(raw) if "decision" in raw else None
        comparators = (
            _parse_procedures(raw["comparators"], "comparators", "comparator", family)
            if "comparators" in raw
            else None
        )
        scenario = (
            _parse_scenario(raw, space, loss, seed) if "scenario" in raw else None
        )
    except ValidationError as exc:
        raise ConfigError(str(exc)) from exc
    output = _parse_output(raw) if "output" in raw else OutputSettings()

    return ConfigDocument(
        space=space,
        loss=loss,
        actions=actions,
        hypotheses=hypotheses,
        model=model,
        decision=decision,
        comparators=comparators,
        scenario=scenario,
        output=output,
        seed=seed,
    )


def load_config(path: str | Path) -> ConfigDocument:
    """Read and parse a configuration file, raising ConfigError with the
    file position on malformed JSON."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    return parse_config(raw)
