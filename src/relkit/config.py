"""Strict parsing of the JSON analysis configuration.

A configuration walks the user through the same steps a loss-based analysis
needs on paper: name the two actions, bound the parameter space, describe
the loss information, and only then attach data, hypotheses, decision
settings, comparators, or a simulation scenario. Unknown keys anywhere are
hard errors so that a typo cannot silently change an analysis.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from . import values
from .errors import ConfigError, ValidationError
from .hypotheses import HypothesisPair
from .inference import FAMILIES, BinomialModel, NormalKnownVarModel
from .loss import (
    ActionPair,
    CurveKnots,
    LossSpec,
    ParameterSpace,
    QuadraticParams,
)
from .regions import region_within
from .simulate import PROCEDURES, ProcedureSpec, Scenario, parse_settings

SPEC_VERSION = 1

_RULE = values.one_of("hypothesis_ratio", "expected_loss")
# the parser of a model.data value, by the type a family row gives it
_DATA_VALUE = {int: values.count, float: values.number}


def _finish(leftover: dict, context: str) -> None:
    if leftover:
        raise ConfigError(f"unknown key(s) {sorted(leftover)} in {context}")


def _take(section, key: str, context: str, parse, default=...):
    """Pop ``key`` from ``section`` and read it with ``parse(value)``; a
    missing key gives ``default``, and is an error when that is ``...``.
    The error names the key path; the top level's context is ""."""
    if key not in section:
        if default is ...:
            raise ConfigError(f"missing key {key!r} in {context}")
        return default
    try:
        return parse(section.pop(key))
    except ValidationError as exc:
        path = f"{context}.{key}" if context else key
        raise ValidationError(f"{path}: {exc}") from None


def _read(section: dict, key: str, context: str, parse, *args):
    """Pop the object ``key`` from ``section`` and read a copy of it with
    ``parse(obj, *args)``, which must leave no key in it; None when the key
    is absent."""
    if key not in section:
        return None
    path = f"{context}.{key}" if context else key
    obj = section.pop(key)
    if not isinstance(obj, dict):
        raise ConfigError(f"{path} must be an object")
    obj = dict(obj)
    parsed = parse(obj, *args)
    _finish(obj, path)
    return parsed


def _parse_space(section: dict) -> ParameterSpace:
    lo = _take(section, "lo", "parameter_space", values.number)
    hi = _take(section, "hi", "parameter_space", values.number)
    return ParameterSpace(lo, hi)


def _parse_curve(obj: dict, context: str) -> CurveKnots | QuadraticParams:
    if "c" in obj:
        return QuadraticParams(
            c=_take(obj, "c", context, values.number),
            center=_take(obj, "center", context, values.number, 0.0),
            offset=_take(obj, "offset", context, values.number, 0.0),
        )
    if ("knots" in obj) != ("grid" in obj):
        knots = _take(obj, "knots" if "knots" in obj else "grid", context, values.numbers)
        return CurveKnots(knots, _take(obj, "values", context, values.numbers))
    raise ConfigError(
        f"{context} needs either quadratic coefficients (c, center, offset) "
        "or one of knots and grid, plus values"
    )


def _parse_loss(section: dict, space: ParameterSpace) -> LossSpec:
    kind = _take(section, "kind", "loss", values.string)
    params_a0 = _read(section, "params_a0", "loss", _parse_curve, "loss.params_a0")
    params_a1 = _read(section, "params_a1", "loss", _parse_curve, "loss.params_a1")
    if kind == "builtin_coin_demo":
        if params_a0 is not None or params_a1 is not None:
            raise ConfigError("builtin_coin_demo takes no loss parameters")
    elif params_a0 is None or params_a1 is None:
        raise ConfigError(f"loss kind {kind!r} needs params_a0 and params_a1")
    return LossSpec(space=space, kind=kind, params_a0=params_a0, params_a1=params_a1)


def _parse_actions(section: dict) -> ActionPair:
    return ActionPair(
        a0_label=_take(section, "a0_label", "actions", values.string),
        a1_label=_take(section, "a1_label", "actions", values.string),
    )


def _parse_hypotheses(section: dict, space: ParameterSpace) -> HypothesisPair:
    h0 = _take(section, "h0", "hypotheses", values.region)
    pair = HypothesisPair(h0=h0, h1=_take(section, "h1", "hypotheses", values.region))
    for which, region in (("h0", pair.h0), ("h1", pair.h1)):
        if not region_within(region, space):
            raise ConfigError(
                f"hypotheses.{which} reaches outside the parameter space "
                f"[{space.lo}, {space.hi}]"
            )
    return pair


def _parse_model(
    section: dict, space: ParameterSpace
) -> tuple[BinomialModel | NormalKnownVarModel, str]:
    """The model and its family; without a prior, the model's default. The
    effects of the space must map into the family's support."""
    family = _take(section, "family", "model", values.model_family)
    row = FAMILIES[family]
    data = section.pop("data", None)
    if not isinstance(data, dict):
        raise ConfigError("model.data must be an object")
    data = dict(data)
    # the model's fields: n, the data, the known values, the prior's two numbers
    prior = _take(section, "prior", "model", values.prior[family], ())
    n = _take(data, "n", "model.data", values.count)
    known = [_take(section, key, "model", values.number) for key in row.known]
    observed = [_take(data, key, "model.data", _DATA_VALUE[kind]) for key, kind in row.data]
    try:
        model = row.model(n, *observed, *known, *prior)
    except ValidationError as exc:
        raise ValidationError(f"model: {exc}") from None
    _finish(data, "model.data")
    row.check_support(space.lo, space.hi)
    return model, family


def _parse_decision(section: dict, family: str | None) -> ProcedureSpec:
    """decide's rule, a procedure of the table, with the other keys as its
    settings; here the hypothesis-ratio rule has no default loss ratio."""
    rule = _take(section, "rule", "decision", _RULE, "hypothesis_ratio")
    if rule == "hypothesis_ratio" and "loss_ratio" not in section:
        raise ConfigError("missing key 'loss_ratio' in decision")
    spec = ProcedureSpec(name=rule, settings=dict(section))
    section.clear()
    parse_settings(spec, family, "decision")
    return spec


def _parse_procedures(
    items, context: str, word: str, family: str | None
) -> tuple[ProcedureSpec, ...]:
    """The ``comparators`` or ``scenario.procedures`` list, checked against
    the procedure table; whether a procedure supports the model family is
    checked only when the family is known."""
    if not isinstance(items, list) or not items:
        raise ConfigError(f"{context} must be a non-empty list")
    specs = []
    for i, item in enumerate(items):
        if not isinstance(item, dict):
            raise ConfigError(f"{context}[{i}] must be an object")
        item = dict(item)
        name = _take(item, "procedure", f"{context}[{i}]", values.string)
        if name not in PROCEDURES:
            raise ConfigError(
                f"unknown {word} {name!r}; expected one of {sorted(PROCEDURES)}"
            )
        spec = ProcedureSpec(name=name, settings=item)
        try:
            parse_settings(spec, family)
        except ValidationError as exc:
            raise ValidationError(f"{context}[{i}]: {exc}") from None
        specs.append(spec)
    return tuple(specs)


def _parse_scenario(section: dict, loss: LossSpec, seed: int | None) -> Scenario:
    """The sweep, seeded by the top-level seed (0 when it is absent)."""
    name = _take(section, "name", "scenario", values.string)
    family = _take(section, "family", "scenario", values.model_family)
    effects = _take(section, "true_effects", "scenario", values.numbers)
    sizes = _take(section, "sample_sizes", "scenario", values.counts)
    replicates = _take(section, "replicates", "scenario", values.count)
    known = {key: _take(section, key, "scenario", values.number) for key in FAMILIES[family].known}
    prior = _take(section, "prior", "scenario", values.prior[family], None)
    procedures = _parse_procedures(
        section.pop("procedures", None), "scenario.procedures", "procedure", family
    )
    # the support error names the parameter space, not a scenario key
    FAMILIES[family].check_support(loss.space.lo, loss.space.hi)
    try:
        return Scenario(
            name=name,
            family=family,
            loss=loss,
            true_effects=effects,
            sample_sizes=sizes,
            replicates=replicates,
            seed=seed or 0,
            procedures=procedures,
            prior=prior,
            **known,
        )
    except ValidationError as exc:
        raise ValidationError(f"scenario: {exc}") from None


@dataclass(frozen=True)
class ConfigDocument:
    """Parsed configuration; optional sections are None when absent."""

    loss: LossSpec
    actions: ActionPair
    hypotheses: HypothesisPair | None = None
    model: BinomialModel | NormalKnownVarModel | None = None
    decision: ProcedureSpec | None = None
    comparators: tuple[ProcedureSpec, ...] | None = None
    scenario: Scenario | None = None
    seed: int | None = None


def parse_config(raw: dict) -> ConfigDocument:
    """Validate and assemble a configuration from decoded JSON; a malformed
    document raises ConfigError."""
    try:
        return _parse_document(raw)
    except ValidationError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_document(raw: dict) -> ConfigDocument:
    if not isinstance(raw, dict):
        raise ConfigError("the configuration must be a JSON object")
    raw = dict(raw)
    version = _take(raw, "spec_version", "", values.integer, None)
    if version != SPEC_VERSION:
        raise ConfigError(
            f"spec_version must be {SPEC_VERSION}, got {version!r}"
        )
    for key in ("parameter_space", "loss", "actions"):
        if key not in raw:
            raise ConfigError(f"missing required section {key!r}")
    space = _read(raw, "parameter_space", "", _parse_space)
    loss = _read(raw, "loss", "", _parse_loss, space)
    actions = _read(raw, "actions", "", _parse_actions)
    seed = _take(raw, "seed", "", values.seed, None)
    model, family = _read(raw, "model", "", _parse_model, space) or (None, None)
    comparators = (
        _parse_procedures(raw.pop("comparators"), "comparators", "comparator", family)
        if "comparators" in raw
        else None
    )
    cfg = ConfigDocument(
        loss=loss,
        actions=actions,
        hypotheses=_read(raw, "hypotheses", "", _parse_hypotheses, space),
        model=model,
        decision=_read(raw, "decision", "", _parse_decision, family),
        comparators=comparators,
        scenario=_read(raw, "scenario", "", _parse_scenario, loss, seed),
        seed=seed,
    )
    if raw:
        raise ConfigError(f"unknown top-level key(s) {sorted(raw)}")
    return cfg


def load_config(path: str | Path) -> ConfigDocument:
    """Read and parse a configuration file, raising ConfigError naming the
    file when it cannot be read or is not UTF-8, and with the file position
    on malformed JSON."""
    try:
        with open(path, encoding="utf-8") as file:
            text = file.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    return parse_config(raw)
