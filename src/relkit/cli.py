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

A command imports the modules it runs when it runs: ``simulate`` (and with
it the comparators and decision rules) for decide, compare and simulate,
``plotting`` for plot. So partition and check-hypotheses load neither.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import stat
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

from ._version import __version__
from .config import ConfigDocument, load_config
from .errors import ConfigError, DomainError, RelkitError, ValidationError
from .hypotheses import check_complete, check_partial, derive_hypotheses
from .inference import family_of, posterior_summary
from .regions import partition

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC_IO = 3
ARTIFACT_SPEC_VERSION = 1  # the spec_version every JSON artifact carries


_FLAGS = {
    "--format": {"choices": ("csv", "json"), "help": "artifact format"},
    "--seed": {"type": int, "help": "override the configured seed"},
}


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's own parser, built once per
    process; parse_args keeps no state between calls."""
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
    return parser, sub.choices


def _json(value, indent: str) -> str:
    """``value`` as JSON, its lines after the first starting with ``indent``
    (a newline and spaces)."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, float):
        return float.__repr__(value) if math.isfinite(value) else "null"
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        # a key that is not a str fails the sort or the escape with TypeError
        items = [f"{encode_basestring_ascii(k)}: {_json(value[k], inner)}" for k in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join([_json(v, inner) for v in value]) + indent + "]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_text(doc: dict) -> str:
    """``doc`` as the text ``json.dumps(doc, indent=2, sort_keys=True)``
    gives, with every non-finite float written as null."""
    return _json(doc, "\n") + "\n"


def _write(*artifacts: tuple[Path, str]) -> None:
    """Write each (path, text) pair as UTF-8, opening every path before
    writing any, so a path that cannot be opened rewrites no file and
    leaves none that this call created."""
    # Rewritten in place and then cut to length, not truncated first: ext4
    # flushes a truncated file that is written again on close (auto_da_alloc),
    # at many times the cost of the write. Not atomic: a reader during the
    # write, or a crash, can see new bytes over old ones.
    flags = os.O_WRONLY | getattr(os, "O_BINARY", 0)
    fds, made = [], []
    try:
        for path, _ in artifacts:
            try:  # an existing file takes this one open
                fds.append(os.open(path, flags))
            except FileNotFoundError:
                try:
                    fds.append(os.open(path, flags | os.O_CREAT | os.O_EXCL, 0o666))
                    made.append(path)
                except FileExistsError:  # a dangling symlink, or a file made meanwhile
                    fds.append(os.open(path, flags | os.O_CREAT, 0o666))
        for fd, (_, text) in zip(fds, artifacts):
            data, done = memoryview(text.encode("utf-8")), 0
            try:  # a write that raises still cuts, so no old tail follows the new bytes
                while done < len(data):
                    done += os.write(fd, data[done:])
            finally:
                if stat.S_ISREG(os.fstat(fd).st_mode):
                    os.ftruncate(fd, done)
    finally:
        for fd in fds:
            os.close(fd)
        if len(fds) < len(artifacts):  # an open failed
            for path in made:
                os.unlink(path)


def _deliver(args, text: str) -> None:
    """Write ``text`` to --output, else to stdout."""
    if args.output:
        _write((Path(args.output), text))
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


def _emit(args, doc: dict, columns: tuple[str, ...], rows) -> None:
    """Deliver ``doc`` as JSON, or ``rows`` under ``columns`` as CSV."""
    _deliver(args, _csv(columns, rows) if args.format == "csv" else _json_text(doc))


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
        "spec_version": ARTIFACT_SPEC_VERSION,
        "parameter_space": {"lo": cfg.loss.space.lo, "hi": cfg.loss.space.hi},
        "crossings": list(part.crossings),
        "regions": regions,
    }
    rows = [[r[c] for c in _REGION_COLUMNS] for r in regions]
    _emit(args, doc, _REGION_COLUMNS, rows)
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
        "spec_version": ARTIFACT_SPEC_VERSION,
        "complete": complete.ok,
        "partial": partial.ok,
        "witness": witness,
    }
    rows = [(key, doc[key]) for key in ("complete", "partial", "witness")]
    _emit(args, doc, ("key", "value"), rows)
    return EXIT_OK


def _bind_and_run(cfg: ConfigDocument, specs) -> tuple:
    """The model's posterior, shared and built on first use, and each
    procedure's report on it. Every procedure is bound, and its settings
    checked (a Bayes factor's prior masses too), before any runs."""
    from .simulate import _shared_posterior, bind_procedure

    pair = cfg.hypotheses or derive_hypotheses(partition(cfg.loss))
    prior = tuple(vars(cfg.model).values())[-2:]  # the model's last two fields
    family = family_of(cfg.model)
    kernels = [bind_procedure(s, family, cfg.loss, pair, prior).kernel for s in specs]
    posterior = _shared_posterior(cfg.model, cfg.loss.space)
    return posterior, [kernel(cfg.model, posterior)[1]() for kernel in kernels]


def _cmd_decide(args, cfg: ConfigDocument) -> int:
    if cfg.decision is None:
        raise ConfigError("decide needs a 'decision' section")
    if cfg.model is None:
        raise ConfigError("decide needs a 'model' section with data")
    if cfg.decision.name == "hypothesis_ratio" and cfg.hypotheses is None:
        raise ConfigError("the hypothesis_ratio rule needs a 'hypotheses' section")
    posterior, (outcome,) = _bind_and_run(cfg, (cfg.decision,))
    label = {
        "a0": cfg.actions.a0_label,
        "a1": cfg.actions.a1_label,
        "indeterminate": "indeterminate",
    }[outcome.decision]
    doc = {
        "command": "decide",
        "spec_version": ARTIFACT_SPEC_VERSION,
        "rule": cfg.decision.name,
        "decision_label": label,
        "posterior": posterior_summary(posterior()),
        **vars(outcome),
    }
    keys = ("decision", "posterior_h0", "posterior_h1", "posterior_odds",
            "threshold_lo", "threshold_hi")
    rows = [(key, doc[key]) for key in keys]
    _emit(args, doc, ("key", "value"), rows)
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
    _, reports = _bind_and_run(cfg, cfg.comparators)
    results = [_compare_row(s.name, report) for s, report in zip(cfg.comparators, reports)]
    doc = {"command": "compare", "spec_version": ARTIFACT_SPEC_VERSION, "results": results}
    rows = [[r[c] for c in _COMPARE_COLUMNS] for r in results]
    _emit(args, doc, _COMPARE_COLUMNS, rows)
    return EXIT_OK


def _cmd_simulate(args, cfg: ConfigDocument) -> int:
    if args.seed is not None and args.seed < 0:
        raise ConfigError("--seed must be non-negative")
    if cfg.scenario is None:
        raise ConfigError("simulate needs a 'scenario' section")
    from .simulate import run_operating_characteristics

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
    if out := args.output:
        doc = {
            "command": "simulate",
            "spec_version": ARTIFACT_SPEC_VERSION,
            "scenario": table.scenario,
            "seed": table.seed,
            "rng": "pcg64",
            "replicates": table.replicates,
            "cells": [vars(c) for c in table.cells],
        }
        csv_path, json_path = (Path(out).with_suffix(suffix) for suffix in (".csv", ".json"))
        _write((csv_path, _csv(_RATE_COLUMNS, rows)), (json_path, _json_text(doc)))
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
    from .plotting import render_loss_plot

    _deliver(args, render_loss_plot(cfg.loss, partition(cfg.loss), cfg.actions))
    return EXIT_OK


# one row per command: its help text, the flags it reads beside --config and
# --output, spelled in full (a prefix such as decide --form would name
# --format), and its handler
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
    "plot": ("render the loss curves and regions as SVG", (), _cmd_plot),
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser, commands = _parser()
    try:  # a command line parsed once, by its command's own parser when it names one
        if argv and argv[0] in commands:
            args = commands[argv[0]].parse_args(argv[1:], argparse.Namespace(command=argv[0]))
        else:
            args = parser.parse_args(argv)
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
