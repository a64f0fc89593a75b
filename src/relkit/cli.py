"""Command-line front end.

Subcommands: partition | check-hypotheses | decide | compare | simulate |
plot. Every command reads one JSON configuration (see config module) and
writes CSV/JSON artifacts, or prints them to stdout when no output path is
given. Exit codes: 0 = ran to completion (whatever the verdict), 2 =
configuration or input error, 3 = numerical or I/O failure.

Identical configuration plus seed produces byte-identical CSV and JSON
artifacts; SVG output is identical up to its version comment line.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

from ._version import __version__
from .config import ConfigDocument, load_config
from .decisions import bayes_two_action_decision, expected_loss_decision
from .errors import ConfigError, DomainError, NumericalError, RelkitError, ValidationError
from .hypotheses import check_complete, check_partial, derive_hypotheses
from .inference import BinomialModel, posterior_summary, posterior_update
from .plotting import render_loss_plot
from .regions import partition
from .simulate import (
    bind_procedure,
    rate_table_csv,
    rate_table_doc,
    rate_table_text,
    run_operating_characteristics,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC_IO = 3


# each command takes --config and --output, plus only the flags it reads,
# spelled in full: a prefix such as plot --plot would name --plot-grid
_COMMANDS = {
    "partition": ("compute the negligible/relevant partition of the space", ("--format",)),
    "check-hypotheses": ("verify complete/partial incorporation of relevance", ("--format",)),
    "decide": ("run the configured decision rule on the observed data", ("--format",)),
    "compare": ("run the configured baseline procedures on the observed data", ("--format",)),
    "simulate": ("sweep operating characteristics over a scenario", ("--seed",)),
    "plot": ("render the loss curves and regions as SVG", ("--plot-grid",)),
}
_FLAGS = {
    "--format": {"choices": ("csv", "json"), "help": "artifact format"},
    "--seed": {"type": int, "help": "override the configured seed"},
    "--plot-grid": {"type": int, "default": 512, "help": "samples per curve (default 512)"},
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args keeps no
    state between calls."""
    parser = argparse.ArgumentParser(
        prog="relkit",
        description=(
            "Loss-based practical-relevance analysis: partition the effect "
            "space, vet hypotheses, decide, and compare against classical "
            "procedures."
        ),
    )
    parser.add_argument("--version", action="version", version=f"relkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.add_argument("--config", required=True, help="path to the JSON configuration")
        p.add_argument("--output", help="artifact path (stdout when omitted)")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def _json_text(doc: dict) -> str:
    return json.dumps(_json_safe(doc), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8", newline="\n")


def _emit(args, cfg: ConfigDocument, json_doc: dict, csv_text: str | None) -> None:
    fmt = args.format or cfg.output.format
    out = args.output or cfg.output.path
    if fmt == "csv" and csv_text is None:
        raise ConfigError(f"{args.command} has no CSV representation; use json")
    text = csv_text if fmt == "csv" else _json_text(json_doc)
    if out:
        _write(Path(out), text)
    else:
        sys.stdout.write(text)


def _region_rows(part) -> list[tuple]:
    rows = []
    for label, region in (("negligible", part.negligible), ("relevant", part.relevant)):
        for itv in region.intervals:
            rows.append((itv.lo, itv.hi, itv.lo_open, itv.hi_open, label))
    rows.sort(key=lambda r: (r[0], r[1]))
    return rows


def _regions_csv(rows: list[tuple]) -> str:
    lines = ["lo,hi,lo_open,hi_open,label"]
    for lo, hi, lo_open, hi_open, label in rows:
        lines.append(
            f"{lo!r},{hi!r},{str(lo_open).lower()},{str(hi_open).lower()},{label}"
        )
    return "\n".join(lines) + "\n"


def _cmd_partition(args, cfg: ConfigDocument) -> int:
    part = partition(cfg.loss)
    rows = _region_rows(part)
    doc = {
        "command": "partition",
        "spec_version": 1,
        "parameter_space": {"lo": cfg.space.lo, "hi": cfg.space.hi},
        "crossings": list(part.crossings),
        "regions": [
            {
                "lo": lo,
                "hi": hi,
                "lo_open": lo_open,
                "hi_open": hi_open,
                "label": label,
            }
            for lo, hi, lo_open, hi_open, label in rows
        ],
    }
    _emit(args, cfg, doc, _regions_csv(rows))
    return EXIT_OK


def _cmd_check_hypotheses(args, cfg: ConfigDocument) -> int:
    if cfg.hypotheses is None:
        raise ConfigError("check-hypotheses needs a 'hypotheses' section")
    complete = check_complete(cfg.hypotheses, cfg.loss)
    partial = check_partial(cfg.hypotheses, cfg.loss)
    # a failed partial check names the more telling witness: an effect the
    # pair actively misclassifies, not merely one it leaves out
    witness = partial.witness if not partial.ok else complete.witness
    doc = {
        "command": "check_hypotheses",
        "spec_version": 1,
        "complete": complete.ok,
        "partial": partial.ok,
        "witness": witness,
    }
    csv_text = (
        "key,value\n"
        f"complete,{str(complete.ok).lower()}\n"
        f"partial,{str(partial.ok).lower()}\n"
        f"witness,{'' if witness is None else repr(witness)}\n"
    )
    _emit(args, cfg, doc, csv_text)
    return EXIT_OK


def _cmd_decide(args, cfg: ConfigDocument) -> int:
    if cfg.decision is None:
        raise ConfigError("decide needs a 'decision' section")
    if cfg.model is None:
        raise ConfigError("decide needs a 'model' section with data")
    post = posterior_update(cfg.model, cfg.space)
    if cfg.decision.rule == "hypothesis_ratio":
        if cfg.hypotheses is None:
            raise ConfigError(
                "the hypothesis_ratio rule needs a 'hypotheses' section"
            )
        outcome = bayes_two_action_decision(
            post,
            cfg.hypotheses,
            cfg.decision.loss_ratio,
            allow_restricted_space=cfg.decision.allow_restricted_space,
        )
    else:
        outcome = expected_loss_decision(post, cfg.loss)
    label = {
        "a0": cfg.actions.a0_label,
        "a1": cfg.actions.a1_label,
        "indeterminate": "indeterminate",
    }[outcome.decision]
    doc = {
        "command": "decide",
        "spec_version": 1,
        "rule": cfg.decision.rule,
        "decision": outcome.decision,
        "decision_label": label,
        "posterior_h0": outcome.posterior_h0,
        "posterior_h1": outcome.posterior_h1,
        "posterior_odds": outcome.posterior_odds,
        "threshold_lo": outcome.threshold_lo,
        "threshold_hi": outcome.threshold_hi,
        "warnings": list(outcome.warnings),
        "posterior": posterior_summary(post),
    }
    csv_lines = ["key,value"]
    for key in (
        "decision",
        "posterior_h0",
        "posterior_h1",
        "posterior_odds",
        "threshold_lo",
        "threshold_hi",
    ):
        value = doc[key]
        csv_lines.append(f"{key},{value!r}" if isinstance(value, float) else f"{key},{value}")
    _emit(args, cfg, doc, "\n".join(csv_lines) + "\n")
    return EXIT_OK


def _cmd_compare(args, cfg: ConfigDocument) -> int:
    if cfg.comparators is None:
        raise ConfigError("compare needs a 'comparators' section")
    if cfg.model is None:
        raise ConfigError("compare needs a 'model' section with data")
    family = "binomial" if isinstance(cfg.model, BinomialModel) else "normal"
    pair = cfg.hypotheses or derive_hypotheses(partition(cfg.loss))
    results = [
        bind_procedure(spec, family, cfg.loss, pair)(cfg.model)
        for spec in cfg.comparators
    ]
    doc = {
        "command": "compare",
        "spec_version": 1,
        "results": [
            {
                "procedure": r.procedure,
                "statistic": r.statistic,
                "p_value": r.p_value,
                "bayes_factor": r.bayes_factor,
                "verdict": r.verdict,
                "alpha": r.alpha,
                "threshold": r.threshold,
                "detail": r.detail,
            }
            for r in results
        ],
    }
    lines = ["procedure,statistic,p_value,bayes_factor,verdict,alpha,threshold"]
    for r in results:
        cells = [
            r.procedure,
            repr(r.statistic),
            "" if r.p_value is None else repr(r.p_value),
            "" if r.bayes_factor is None else repr(r.bayes_factor),
            r.verdict,
            "" if r.alpha is None else repr(r.alpha),
            "" if r.threshold is None else repr(r.threshold),
        ]
        lines.append(",".join(cells))
    _emit(args, cfg, doc, "\n".join(lines) + "\n")
    return EXIT_OK


def _reject_output_format(cfg: ConfigDocument, command: str, writes: str) -> None:
    if cfg.output.given_format is not None:
        raise ConfigError(f"output.format: {command} always writes {writes}; remove the key")


def _cmd_simulate(args, cfg: ConfigDocument) -> int:
    _reject_output_format(cfg, "simulate", "both CSV and JSON")
    if args.seed is not None and args.seed < 0:
        raise ConfigError("--seed must be non-negative")
    if cfg.scenario is None:
        raise ConfigError("simulate needs a 'scenario' section")
    scenario = cfg.scenario
    if args.seed is not None:
        scenario = dataclasses.replace(scenario, seed=args.seed)
    table = run_operating_characteristics(scenario)
    for report in table.errors:
        print(
            f"relkit: warning: effect {report.true_effect!r}, n {report.n}, "
            f"{report.procedure}: {report.count} of {table.replicates} replicates "
            f"gave \"error\" ({report.error_class}: {report.message})",
            file=sys.stderr,
        )
    doc = {"command": "simulate", "spec_version": 1, **rate_table_doc(table)}
    csv_text = rate_table_csv(table)
    out = args.output or cfg.output.path
    if out:
        base = Path(out)
        _write(base.with_suffix(".csv"), csv_text)
        _write(base.with_suffix(".json"), _json_text(doc))
    sys.stdout.write(rate_table_text(table))
    return EXIT_OK


def _cmd_plot(args, cfg: ConfigDocument) -> int:
    _reject_output_format(cfg, "plot", "SVG")
    part = partition(cfg.loss)
    svg = render_loss_plot(cfg.loss, part, cfg.actions, args.plot_grid)
    out = args.output or cfg.output.path
    if out:
        _write(Path(out), svg)
    else:
        sys.stdout.write(svg)
    return EXIT_OK


_DISPATCH = {
    "partition": _cmd_partition,
    "check-hypotheses": _cmd_check_hypotheses,
    "decide": _cmd_decide,
    "compare": _cmd_compare,
    "simulate": _cmd_simulate,
    "plot": _cmd_plot,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = load_config(args.config)
        return _DISPATCH[args.command](args, cfg)
    except (ConfigError, ValidationError, DomainError, ValueError) as exc:
        print(f"relkit: error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalError, OSError) as exc:
        print(f"relkit: failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC_IO
    except RelkitError as exc:
        print(f"relkit: failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC_IO


if __name__ == "__main__":
    raise SystemExit(main())
