"""Command-line front end.

Subcommands: partition | check-hypotheses | decide | compare | simulate |
plot. Every command reads one JSON configuration (see config module) and
writes CSV/JSON artifacts, or prints them to stdout when no output path is
given. Exit codes: 0 = ran to completion (whatever the verdict), 2 =
configuration or input error, 3 = numerical or I/O failure.

Every artifact format is decided here: CSV cells follow one rule
(``_cell``), and a JSON document carries its result records' fields as they
are. Identical configuration plus seed produces byte-identical CSV and JSON
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
from .errors import ConfigError, DomainError, RelkitError, ValidationError
from .hypotheses import check_complete, check_partial, derive_hypotheses
from .inference import family_of, posterior_summary
from .plotting import render_loss_plot
from .regions import partition
from .simulate import _shared_posterior, bind_procedure, run_operating_characteristics

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC_IO = 3

# samples per plotted curve; the plot area is 656 px wide, and the grid is
# held in memory before anything is written
MAX_PLOT_GRID = 100_000


_FLAGS = {
    "--format": {"choices": ("csv", "json"), "help": "artifact format"},
    "--seed": {"type": int, "help": "override the configured seed"},
    "--plot-grid": {
        "type": int,
        "default": 512,
        "help": f"samples per curve, at most {MAX_PLOT_GRID} (default 512)",
    },
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
    for name, (help_text, flags, _) in _COMMANDS.items():
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


def _deliver(args, cfg: ConfigDocument, text: str, suffix: str = "") -> None:
    """Write ``text`` to --output, else output.path, with its suffix
    replaced by ``suffix`` when one is given; to stdout when neither is set."""
    out = args.output or cfg.output.path
    if out:
        _write(Path(out).with_suffix(suffix) if suffix else Path(out), text)
    else:
        sys.stdout.write(text)


def _cell(value) -> str:
    """The CSV cell of a value: None is empty, a bool true or false, a float
    its repr (round-trip exact), anything else its str."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv(columns: tuple[str, ...], rows) -> str:
    """A header line of ``columns``, then one line per row of values."""
    return "".join(",".join(map(_cell, row)) + "\n" for row in (columns, *rows))


def _emit(args, cfg: ConfigDocument, doc: dict, columns: tuple[str, ...], rows) -> None:
    """Deliver ``doc`` as JSON, or ``rows`` under ``columns`` as CSV."""
    fmt = args.format or cfg.output.format
    _deliver(args, cfg, _csv(columns, rows) if fmt == "csv" else _json_text(doc))


_REGION_COLUMNS = ("lo", "hi", "lo_open", "hi_open", "label")
_COMPARE_COLUMNS = (
    "procedure", "statistic", "p_value", "bayes_factor", "verdict", "alpha", "threshold"
)
_RATE_COLUMNS = (
    "true_effect", "n", "procedure", "verdict", "frequency", "std_error", "replicates"
)


def _cmd_partition(args, cfg: ConfigDocument) -> int:
    part = partition(cfg.loss)
    regions = [
        {**vars(itv), "label": label}
        for label, region in (("negligible", part.negligible), ("relevant", part.relevant))
        for itv in region.intervals
    ]
    regions.sort(key=lambda r: (r["lo"], r["hi"]))
    doc = {
        "command": "partition",
        "spec_version": 1,
        "parameter_space": {"lo": cfg.loss.space.lo, "hi": cfg.loss.space.hi},
        "crossings": list(part.crossings),
        "regions": regions,
    }
    rows = [[r[c] for c in _REGION_COLUMNS] for r in regions]
    _emit(args, cfg, doc, _REGION_COLUMNS, rows)
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
    rows = [(key, doc[key]) for key in ("complete", "partial", "witness")]
    _emit(args, cfg, doc, ("key", "value"), rows)
    return EXIT_OK


def _cmd_decide(args, cfg: ConfigDocument) -> int:
    if cfg.decision is None:
        raise ConfigError("decide needs a 'decision' section")
    if cfg.model is None:
        raise ConfigError("decide needs a 'model' section with data")
    if cfg.decision.name == "hypothesis_ratio" and cfg.hypotheses is None:
        raise ConfigError("the hypothesis_ratio rule needs a 'hypotheses' section")
    pair = cfg.hypotheses or derive_hypotheses(partition(cfg.loss))
    # the rule is bound, and its settings checked, before the posterior is built
    kernel = bind_procedure(cfg.decision, family_of(cfg.model), cfg.loss, pair).kernel
    posterior = _shared_posterior(cfg.model, cfg.loss.space)
    outcome = kernel(cfg.model, posterior)[1]()
    label = {
        "a0": cfg.actions.a0_label,
        "a1": cfg.actions.a1_label,
        "indeterminate": "indeterminate",
    }[outcome.decision]
    doc = {
        "command": "decide",
        "spec_version": 1,
        "rule": cfg.decision.name,
        "decision_label": label,
        "posterior": posterior_summary(posterior()),
        **vars(outcome),
    }
    keys = ("decision", "posterior_h0", "posterior_h1", "posterior_odds",
            "threshold_lo", "threshold_hi")
    rows = [(key, doc[key]) for key in keys]
    _emit(args, cfg, doc, ("key", "value"), rows)
    return EXIT_OK


def _compare_row(name: str, result) -> dict:
    """compare's row of procedure ``name``'s report; a decision rule's row names
    its public function, the statistic it decides on and its warnings."""
    if name == "hypothesis_ratio":
        row = {"procedure": "bayes_two_action_decision", "statistic": result.posterior_odds}
    elif name == "expected_loss":
        statistic = result.threshold_hi - result.threshold_lo
        row = {"procedure": "expected_loss_decision", "statistic": statistic}
    else:
        return vars(result)
    detail = "; ".join(result.warnings)
    return {**dict.fromkeys(_COMPARE_COLUMNS), **row, "verdict": result.decision, "detail": detail}


def _cmd_compare(args, cfg: ConfigDocument) -> int:
    if cfg.comparators is None:
        raise ConfigError("compare needs a 'comparators' section")
    if cfg.model is None:
        raise ConfigError("compare needs a 'model' section with data")
    family = family_of(cfg.model)
    pair = cfg.hypotheses or derive_hypotheses(partition(cfg.loss))
    # every comparator is bound, and its settings checked, before any runs
    kernels = [bind_procedure(spec, family, cfg.loss, pair).kernel for spec in cfg.comparators]
    # the comparators share one posterior, built if one of them needs it
    posterior = _shared_posterior(cfg.model, cfg.loss.space)
    results = [
        _compare_row(spec.name, kernel(cfg.model, posterior)[1]())
        for spec, kernel in zip(cfg.comparators, kernels)
    ]
    doc = {"command": "compare", "spec_version": 1, "results": results}
    rows = [[r[c] for c in _COMPARE_COLUMNS] for r in results]
    _emit(args, cfg, doc, _COMPARE_COLUMNS, rows)
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
    # one row per cell and verdict, in _RATE_COLUMNS order
    rows = [
        (c.true_effect, c.n, c.procedure, verdict, freq, c.std_errors[verdict], c.replicates)
        for c in table.cells
        for verdict, freq in c.frequencies.items()
    ]
    if args.output or cfg.output.path:
        doc = {
            "command": "simulate",
            "spec_version": 1,
            "scenario": table.scenario,
            "seed": table.seed,
            "rng": "pcg64",
            "replicates": table.replicates,
            "cells": [vars(c) for c in table.cells],
        }
        _deliver(args, cfg, _csv(_RATE_COLUMNS, rows), ".csv")
        _deliver(args, cfg, _json_text(doc), ".json")
    # the console table: the same rows, fixed width, without replicates
    lines = [
        f"scenario: {table.scenario} (seed {table.seed})",
        f"{'true_effect':>12} {'n':>8} {'procedure':>18} "
        f"{'verdict':>16} {'rate':>8} {'se':>8}",
    ]
    for effect, n, procedure, verdict, freq, se, _ in rows:
        lines.append(
            f"{effect:>12.6g} {n:>8} {procedure:>18} {verdict:>16} {freq:>8.4f} {se:>8.4f}"
        )
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_plot(args, cfg: ConfigDocument) -> int:
    _reject_output_format(cfg, "plot", "SVG")
    if not 2 <= args.plot_grid <= MAX_PLOT_GRID:
        bound = f"at most {MAX_PLOT_GRID}" if args.plot_grid > 2 else "at least 2"
        raise ConfigError(f"--plot-grid must be {bound}, got {args.plot_grid}")
    part = partition(cfg.loss)
    _deliver(args, cfg, render_loss_plot(cfg.loss, part, cfg.actions, args.plot_grid))
    return EXIT_OK


# one row per command: its help text, the flags it reads beside --config and
# --output, spelled in full (a prefix such as plot --plot would name
# --plot-grid), and its handler
_COMMANDS = {
    "partition": (
        "compute the negligible/relevant partition of the space", ("--format",), _cmd_partition
    ),
    "check-hypotheses": (
        "verify complete/partial incorporation of relevance", ("--format",), _cmd_check_hypotheses
    ),
    "decide": (
        "run the configured decision rule on the observed data", ("--format",), _cmd_decide
    ),
    "compare": (
        "run the configured baseline procedures on the observed data", ("--format",), _cmd_compare
    ),
    "simulate": ("sweep operating characteristics over a scenario", ("--seed",), _cmd_simulate),
    "plot": ("render the loss curves and regions as SVG", ("--plot-grid",), _cmd_plot),
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = load_config(args.config)
        return _COMMANDS[args.command][2](args, cfg)
    except (ConfigError, ValidationError, DomainError, ValueError) as exc:
        print(f"relkit: error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (RelkitError, OSError, ArithmeticError) as exc:
        print(f"relkit: failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC_IO


if __name__ == "__main__":
    raise SystemExit(main())
