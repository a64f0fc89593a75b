"""Per-layer tracing of relkit from outside the package.

``install()`` wraps the public functions of every relkit module, and the
``cdf``/``quantile``/``pdf``/``log_pdf`` methods of ``PosteriorModel``, at
every binding site: a name imported with ``from .x import y`` into another
module, or re-exported by the package, is replaced as well. Heavy functions
record spans (name, start, end, parent span, request id); cheap functions
that run thousands of times per request only bump counters, keyed by the
span they ran in. Spans stay in memory until ``dump()``.

Counting those cheap calls costs more than the calls themselves, so the
benchmark traces twice: once with spans only (``install(counters=False)``,
which leaves the cheap functions unwrapped), for the timings, and once with
counters as well, for the counts.

``layer_metrics()`` turns a dump into the per-layer metrics of the benchmark.
Nothing here changes what relkit computes; the benchmark checks that by
comparing the artifacts of a traced and an untraced run byte for byte.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import defaultdict

LAYERS = (
    "config",
    "loss",
    "regions",
    "hypotheses",
    "inference",
    "decisions",
    "comparators",
    "simulate",
    "cli",
    "plotting",
)

# Called many times per request: counted, not timed.
COUNT_ONLY = frozenset(
    {
        "loss.coin_demo_loss",
        "loss.evaluate_loss",
        "loss.loss_difference",
        "loss.difference_fn",
        "loss.breakpoints",
        "regions.region_contains",
        "regions.region_measure",
        "regions.region_hull",
        "regions.region_union",
        "regions.region_within",
        "regions.is_practically_relevant",
        "hypotheses.derive_hypotheses",
        "hypotheses.restricted_space",
        "inference.log_beta",
        "inference.regularized_incomplete_beta",
        "inference.beta_log_pdf",
        "inference.normal_cdf",
        "inference.normal_log_pdf",
        "inference.concentration_splits",
        "inference.cdf",
        "inference.pdf",
        "inference.log_pdf",
        "decisions.decide_from_odds",
    }
)

POSTERIOR_METHODS = {"cdf": "inference.cdf", "quantile": "inference.quantile",
                     "pdf": "inference.pdf", "log_pdf": "inference.log_pdf"}

# The call in a simulate replicate that ends each procedure's verdict; a
# posterior update just before it belongs to the same verdict.
VERDICT_CALLS = {
    "comparators.nhst_point_null": "nhst",
    "comparators.tost_equivalence": "tost",
    "comparators.rope_decision": "rope",
    "decisions.bayes_two_action_decision": "hypothesis_ratio",
    "decisions.expected_loss_decision": "expected_loss",
    "comparators.interval_bayes_factor": "bayes_factor",
}
PROCEDURES = ("nhst", "tost", "rope", "hypothesis_ratio", "expected_loss", "bayes_factor")
CLI_COMMANDS = ("partition", "check-hypotheses", "decide", "compare", "simulate", "plot")

# A counter's key is its name's code times KEY_BASE plus the code of the
# span name it ran in, so that counting formats no string.
KEY_BASE = 1 << 20


class Tracer:
    """Span and counter store for one process.

    Spans live in flat arrays of numbers, which the garbage collector never
    scans, so a long trace does not slow the code under test."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.codes: dict[str, int] = {}
        self.parent = array("l")
        self.req = array("l")
        self.name = array("l")
        self.tag = array("l")
        self.t0 = array("d")
        self.t1 = array("d")
        self.failed = array("b")
        self.stack: list[int] = []
        self.stack_codes: list[int] = [self.code("")]
        self.counters: defaultdict[int, int] = defaultdict(int)
        self.request = -1
        self.requests = 0
        self.draw_sweep = array("l")
        self.draw_n = array("d")
        self.draw_x = array("d")
        self.seen_specs: set = set()

    def code(self, text: str) -> int:
        if text not in self.codes:
            self.codes[text] = len(self.names)
            self.names.append(text)
        return self.codes[text]

    def new_request(self) -> None:
        self.request = self.requests
        self.requests += 1

    def count(self, name: str, n: int = 1) -> None:
        self.counters[self.code(name) * KEY_BASE + self.stack_codes[-1]] += n

    def dump(self) -> dict:
        return {
            "names": self.names,
            "spans": [
                list(col) for col in (
                    self.parent, self.req, self.name, self.tag, self.t0, self.t1, self.failed
                )
            ],
            "counters": {
                f"{self.names[key // KEY_BASE]}|{self.names[key % KEY_BASE]}": n
                for key, n in self.counters.items()
            },
            "draws": [list(self.draw_sweep), list(self.draw_n), list(self.draw_x)],
        }


def _span(tracer: Tracer, fn, name: str, tag=None, after=None):
    stack, stack_codes, clock = tracer.stack, tracer.stack_codes, time.perf_counter
    code = tracer.code(name)
    empty = tracer.code("")

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if name == "simulate.simulate_dataset":
            tracer.new_request()
        sid = len(tracer.t0)
        parent = stack[-1] if stack else -1
        label = tracer.code(tag(args, kwargs)) if tag else empty
        tracer.parent.append(parent)
        tracer.req.append(tracer.request)
        tracer.name.append(code)
        tracer.tag.append(label)
        tracer.t0.append(0.0)
        tracer.t1.append(0.0)
        tracer.failed.append(1)
        stack.append(sid)
        stack_codes.append(code)
        t0 = clock()
        try:
            result = fn(*args, **kwargs)
            tracer.failed[sid] = 0
        finally:
            t1 = clock()
            stack.pop()
            stack_codes.pop()
            tracer.t0[sid] = t0
            tracer.t1[sid] = t1
        if after is not None:
            after(result, parent)
        return result

    return wrapper


def _counted(tracer: Tracer, fn, name: str):
    counters, stack_codes, key = tracer.counters, tracer.stack_codes, tracer.code(name) * KEY_BASE

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counters[key + stack_codes[-1]] += 1
        return fn(*args, **kwargs)

    return wrapper


def _quadrature(tracer: Tracer, fn):
    counters, stack_codes = tracer.counters, tracer.stack_codes
    evals = tracer.code("inference.quadrature.evals") * KEY_BASE

    @functools.wraps(fn)
    def wrapper(f, *args, **kwargs):
        tracer.count("inference.quadrature")

        def integrand(t):
            counters[evals + stack_codes[-1]] += 1
            return f(t)

        result = fn(integrand, *args, **kwargs)
        if not result.converged:
            tracer.count("inference.quadrature.unconverged")
        return result

    return wrapper


def _make_wrapper(tracer: Tracer, fn, name: str, counters: bool):
    if name == "inference.quadrature" or name in COUNT_ONLY:
        if not counters:
            return fn
        return _quadrature(tracer, fn) if name == "inference.quadrature" else _counted(tracer, fn, name)
    tag = after = None
    if name == "regions.partition":
        def tag(args, kwargs):
            spec = args[0] if args else kwargs["spec"]
            if spec in tracer.seen_specs:
                return "warm"
            tracer.seen_specs.add(spec)
            return "cold"
    elif name == "cli.main":
        def tag(args, kwargs):
            argv = args[0] if args else kwargs.get("argv")
            return argv[0] if argv else ""
    elif name in ("decisions.bayes_two_action_decision", "decisions.expected_loss_decision"):
        def after(result, parent):
            if result.warnings:
                tracer.count("decisions.warnings", len(result.warnings))
    elif name == "simulate.simulate_dataset":
        def after(result, parent):
            tracer.draw_sweep.append(parent)
            tracer.draw_n.append(result[0])
            tracer.draw_x.append(result[1])
    return _span(tracer, fn, name, tag, after)


def install(package: str = "relkit", counters: bool = True) -> Tracer:
    """Wrap every public function of the package's layer modules and patch
    every module attribute that refers to one of them. Without ``counters``
    only the span functions are wrapped."""
    tracer = Tracer()
    modules = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
    wrapped: dict[int, object] = {}
    for layer, module in modules.items():
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != module.__name__:
                continue
            wrapper = _make_wrapper(tracer, obj, f"{layer}.{attr}", counters)
            if wrapper is not obj:
                wrapped[id(obj)] = wrapper
    posterior = modules["inference"].PosteriorModel
    for method, name in POSTERIOR_METHODS.items():
        setattr(posterior, method, _make_wrapper(tracer, getattr(posterior, method), name, counters))
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for attr, obj in list(vars(module).items()):
            if id(obj) in wrapped and inspect.isfunction(obj):
                setattr(module, attr, wrapped[id(obj)])
    return tracer


# --- report ----------------------------------------------------------------


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def layer_metrics(dump: dict, counted: dict, commands: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one workload prefix: times from ``dump``, a pass
    traced with spans only, counts from ``counted``, a pass of the same
    requests traced with counters. Counts and self times are per request:
    per simulate replicate on the sweeps, per command on analyze. Durations
    are means per call."""
    names = dump["names"]
    parents, reqs, codes, tags, starts, ends, fails = dump["spans"]
    spans = [
        (sid, parents[sid], reqs[sid], names[codes[sid]], names[tags[sid]], starts[sid], ends[sid], fails[sid])
        for sid in range(len(starts))
    ]
    counters: dict[str, int] = counted["counters"]
    draw_sweep, draw_n, draw_x = dump["draws"]
    requests = len(draw_sweep) or commands
    per_req = 1.0 / max(requests, 1)

    child_time: dict[int, float] = {}
    by_name: dict[str, list] = {}
    for sid, parent, req, name, tag, t0, t1, failed in spans:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
        by_name.setdefault(name, []).append((sid, parent, tag, t1 - t0))

    def durations(name: str, tag: str | None = None) -> list[float]:
        return [d for _, _, t, d in by_name.get(name, []) if tag is None or t == tag]

    def count(name: str, within: str | None = None) -> int:
        total = 0
        for key, n in counters.items():
            cname, _, parent = key.partition("|")
            if cname == name and (within is None or parent == within):
                total += n
        return total

    m: dict[str, tuple[float, str]] = {}
    self_time = {layer: 0.0 for layer in LAYERS}
    cli_self: dict[str, list[float]] = {c: [] for c in CLI_COMMANDS}
    for sid, parent, req, name, tag, t0, t1, failed in spans:
        own = (t1 - t0) - child_time.get(sid, 0.0)
        self_time[name.split(".", 1)[0]] += own
        if name == "cli.main" and tag in cli_self:
            cli_self[tag].append(own)
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = (1e3 * self_time[layer] * per_req, "ms")

    ms = lambda name, tag=None: (1e3 * _mean(durations(name, tag)), "ms")
    us = lambda name, tag=None: (1e6 * _mean(durations(name, tag)), "us")
    m["config.load_config.ms"] = ms("config.load_config")
    m["loss.validate_loss_spec.ms"] = ms("loss.validate_loss_spec")
    m["loss.validate_loss_spec.calls"] = (len(durations("loss.validate_loss_spec")) * per_req, "count")
    cold, warm = durations("regions.partition", "cold"), durations("regions.partition", "warm")
    m["regions.partition.cold_ms"] = ms("regions.partition", "cold")
    m["regions.partition.warm_us"] = us("regions.partition", "warm")
    m["regions.partition.cold_share"] = (len(cold) / max(len(cold) + len(warm), 1), "ratio")
    m["hypotheses.check_complete.ms"] = ms("hypotheses.check_complete")
    m["hypotheses.check_partial.ms"] = ms("hypotheses.check_partial")
    quantile_code = counted["names"].index("inference.quantile")
    quantiles = sum(1 for c in counted["spans"][2] if c == quantile_code)
    m["inference.quantile.us"] = us("inference.quantile")
    m["inference.quantile.cdf_calls"] = (
        count("inference.cdf", "inference.quantile") / max(quantiles, 1), "count")
    m["inference.cdf.calls"] = (count("inference.cdf") * per_req, "count")
    m["inference.regularized_incomplete_beta.calls"] = (
        count("inference.regularized_incomplete_beta") * per_req, "count")
    m["inference.quadrature.calls"] = (count("inference.quadrature") * per_req, "count")
    m["inference.quadrature.evals"] = (count("inference.quadrature.evals") * per_req, "count")
    m["inference.quadrature.unconverged"] = (
        count("inference.quadrature.unconverged") * per_req, "count")
    m["inference.posterior_summary.ms"] = ms("inference.posterior_summary")
    m["inference.posterior_region_prob.us"] = us("inference.posterior_region_prob")
    m["decisions.bayes_two_action_decision.us"] = us("decisions.bayes_two_action_decision")
    m["decisions.expected_loss_decision.ms"] = ms("decisions.expected_loss_decision")
    m["decisions.warnings"] = (count("decisions.warnings") * per_req, "count")
    m["comparators.nhst_point_null.us"] = us("comparators.nhst_point_null")
    m["comparators.tost_equivalence.us"] = us("comparators.tost_equivalence")
    m["comparators.rope_decision.ms"] = ms("comparators.rope_decision")
    m["comparators.interval_bayes_factor.ms"] = ms("comparators.interval_bayes_factor")

    # verdict time per procedure: the top-level calls of one replicate
    sweeps = {sid for sid, *_ in by_name.get("simulate.run_operating_characteristics", [])}
    verdict: dict[str, list[float]] = {p: [] for p in PROCEDURES}
    pending = 0.0
    for sid, parent, req, name, tag, t0, t1, failed in spans:
        if parent not in sweeps:
            continue
        if name.startswith("inference.posterior_update"):
            pending = 0.0 if failed else pending + (t1 - t0)
        elif name in VERDICT_CALLS:
            verdict[VERDICT_CALLS[name]].append(pending + (t1 - t0))
            pending = 0.0
    for proc in PROCEDURES:
        m[f"simulate.verdict_ms.{proc}"] = (1e3 * _mean(verdict[proc]), "ms")
    m["simulate.simulate_dataset.us"] = us("simulate.simulate_dataset")
    draws: dict[int, list] = {}
    for sweep, n, x in zip(draw_sweep, draw_n, draw_x):
        draws.setdefault(sweep, []).append((n, x))
    ratios = [len(set(d)) / len(d) for d in draws.values()]
    m["simulate.distinct_input_ratio"] = (_mean(ratios), "ratio")
    for command in CLI_COMMANDS:
        m[f"cli.{command}.self_ms"] = (1e3 * _mean(cli_self[command]), "ms")
    m["plotting.render_loss_plot.ms"] = ms("plotting.render_loss_plot")
    return m
