"""relkit benchmark: one seeded workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 30 --trace 0

Run from the root of a relkit source tree (``src/relkit`` and ``configs/``).
Workloads are described in ``workloads.py`` and perfbench/README.md.

--trace 0  generates the workload from the seed, then sends the workload's
           CLI requests one after another (closed loop, one client) to
           ``relkit.cli.main`` in a worker process for ``--seconds``, with
           set-up samples in fresh interpreters spread over that time, and
           checks every output.
--trace 1  runs a fixed prefix of the same requests three times in fresh
           workers: plain, with spans on every relkit layer wrapped from
           outside (tracing.py; the timings), and with counters as well (the
           counts). It checks all three, requires byte-identical artifacts,
           and reports per-layer metrics and the tracing overhead.

A report goes to stdout; its last line is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is nonzero when an
output check fails or the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 20
# A fresh interpreter calibrates, imports relkit and loads the config,
# calibrates again, and prints its clock at start, before the import and
# after the load, and the median calibration time (worker.py).
SETUP_CODE = (
    "import sys, time; started = time.perf_counter(); sys.path.insert(0, sys.argv[3]); "
    "from calibration import calibrate; sys.path.pop(0); "
    "cal = [calibrate() for _ in range(3)]; loading = time.perf_counter(); "
    "sys.path.insert(0, sys.argv[1]); import relkit; relkit.load_config(sys.argv[2]); "
    "loaded = time.perf_counter(); cal = sorted(cal + [calibrate() for _ in range(3)]); "
    "print(started, loading, loaded, 0.5 * (cal[2] + cal[3]))"
)
# setup_s is set-up time in seconds at the machine speed at which one
# calibration takes CAL_REF_MS.
CAL_REF_MS = 10.0
TRACE_SWEEP_COMMANDS = 21
TRACE_ANALYZE_REQUESTS = 300
WORKER_GRACE_S = 140

ANALYZE_COMMANDS = {
    "partition": "partition_ms.p50",
    "check-hypotheses": "check_ms.p50",
    "decide": "decide_ms.p50",
    "compare": "compare_ms.p50",
    "plot": "plot_ms.p50",
}


class BenchError(Exception):
    """The benchmark itself cannot run (as opposed to a wrong output)."""


# --- helpers ---------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(values: list[float]) -> tuple[float, float, int] | None:
    """The highest of p99.9/p99/p95/p90/p75/p50 with at least ten samples
    beyond it: (q, value, samples beyond), or None."""
    for q in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        beyond = len(values) - math.ceil(q / 100.0 * len(values))
        if beyond >= 10:
            return q, percentile(values, q), beyond
    return None


def run_worker(root: Path, run_dir: Path, name: str, requests: list[dict],
               seconds: float | None, trace: str | None,
               setup: dict | None = None) -> tuple[list[dict], dict]:
    job = {"src": str(root / "src"), "requests": requests, "seconds": seconds, "trace": trace,
           "setup": setup}
    job_path = run_dir / f"{name}.job.json"
    result_path = run_dir / f"{name}.result.jsonl"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    timeout = (seconds or 0) + WORKER_GRACE_S + (20 if setup else 0)
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(job_path), str(result_path)],
        cwd=root, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker {name} failed: {proc.stderr.strip()[-2000:]}")
    records, summary = [], None
    with open(result_path, encoding="utf-8") as fh:
        for line in fh:
            item = json.loads(line)
            if item.get("summary"):
                summary = item
            else:
                records.append(item)
    if summary is None:
        raise BenchError(f"worker {name} wrote no summary")
    return records, summary


# --- requests --------------------------------------------------------------


def sweep_requests(run_dir: Path, stream: list[dict]) -> list[dict]:
    base = run_dir / "out" / "sweep"
    return [
        {
            "argv": ["simulate", "--config", entry["config"], "--output", str(base), "--seed", str(entry["seed"])],
            "outputs": [str(base.with_suffix(".csv")), str(base.with_suffix(".json"))],
        }
        for entry in stream
    ]


def aspirin_request(root: Path, run_dir: Path) -> dict:
    base = run_dir / "out" / "aspirin"
    return {
        "argv": ["simulate", "--config", str(root / "configs" / "aspirin_scenario.json"),
                 "--output", str(base)],
        "outputs": [str(base.with_suffix(".json"))],
        "timed": False,
        "role": "aspirin",
    }


def analyze_requests(run_dir: Path, stream: list[dict], ref: dict) -> list[dict]:
    """CLI requests of the analyze stream. A request that exits nonzero at
    the reference commit (every k = 0 tail request, and the pool requests
    g653 and g2663) is a known failure: it is sent in its place in every run
    and checked, but untimed and outside the time budget, so every run sends
    all of them and no timed request is expected to fail."""
    out = run_dir / "out"
    requests = []
    for entry in stream:
        path = out / ("plot.svg" if entry["command"] == "plot" else f"{entry['command']}.json")
        request = {
            "argv": [entry["command"], "--config", entry["config"], "--output", str(path)],
            "outputs": [str(path)],
        }
        if ref[entry["ref"]]["rc"] != 0:
            request.update(timed=False, role="known_failure")
        requests.append(request)
    return requests


# --- checks ----------------------------------------------------------------


def check_sweep_records(workload: str, records: list[dict]) -> tuple[list[str], list[dict], int, int]:
    """Errors, simulate documents, verdicts attempted and "error" verdicts."""
    errors, docs = [], []
    attempted = failed = 0
    for r in records:
        if not r["timed"]:
            continue
        if r["rc"] != 0:
            errors.append(f"simulate exited {r['rc']}: {r['stderr'].strip()[-300:]}")
            continue
        doc = json.loads(next(v for k, v in r["artifacts"].items() if k.endswith(".json")))
        docs.append(doc)
        for cell in doc["cells"]:
            attempted += cell["replicates"]
            failed += round(cell["frequencies"].get("error", 0.0) * cell["replicates"])
    if docs:
        problem = checks.check_sweep(checks.load_sweep_reference(workload), docs)
        if problem:
            errors.append(problem)
    return errors, docs, attempted, failed


def check_analyze_records(records: list[dict], stream: list[dict], ref: dict) -> tuple[list[str], int, int]:
    """Errors, timed commands attempted and their nonzero exits. Untimed
    known failures are checked too, but not counted."""
    errors = []
    failed = 0
    outputs: dict[int, str] = {}
    for r in records:
        entry = stream[r["n"]]
        want = ref[entry["ref"]]
        text = next(iter(r["artifacts"].values()), None)
        if r["rc"] != 0:
            failed += r["timed"]
        else:
            outputs[r["n"]] = text
        where = f"request {r['n']} ({entry['ref']}, {entry['command']})"
        if want["rc"] != 0:
            # a failure recorded at the reference commit (the tail pairs and
            # two Bayes-factor underflows) may persist or be fixed; a fixed
            # k = 0 tail request must mirror its k = n partner (below)
            if r["rc"] not in (want["rc"], 0):
                errors.append(f"{where}: exit {r['rc']}, reference {want['rc']} or 0")
            continue
        if r["rc"] != 0:
            errors.append(f"{where}: exit {r['rc']} ({r['stderr'].strip()[-200:]}), reference 0")
            continue
        problem = checks.compare_summary(checks.summarize(entry["command"], text), want["summary"])
        if problem is None and entry["command"] == "check-hypotheses" and entry["kind"] == "generated":
            cfg = json.loads(Path(entry["config"]).read_text(encoding="utf-8"))
            problem = checks.check_witness(cfg, json.loads(text))
        if problem is None and entry["kind"] == "shipped":
            problem = checks.check_shipped(entry["command"], entry["name"], text)
        if problem:
            errors.append(f"{where}: {problem}")
    for r in records:
        entry = stream[r["n"]]
        if entry["kind"] != "tail_low" or r["rc"] != 0:
            continue
        partner = next(
            (m for m in (r["n"] - 1, r["n"] + 1)
             if m in outputs and stream[m]["kind"] == "tail_high" and stream[m]["pair"] == entry["pair"]),
            None,
        )
        if partner is not None:
            problem = checks.check_mirror(entry["command"], outputs[r["n"]], outputs[partner])
            if problem:
                errors.append(f"request {r['n']} ({entry['ref']}): {problem}")
    return errors, sum(r["timed"] for r in records), failed


def check_records(workload: str, records: list[dict], stream) -> tuple[list[str], int, int, list[dict]]:
    if workload == "analyze":
        errors, attempted, failed = check_analyze_records(records, stream, checks.load_analyze_reference()["requests"])
        return errors, attempted, failed, []
    errors, docs, attempted, failed = check_sweep_records(workload, records)
    for r in records:
        if r["role"] == "aspirin":
            if r["rc"] != 0:
                errors.append(f"aspirin simulate exited {r['rc']}")
            else:
                problem = checks.check_aspirin(json.loads(next(iter(r["artifacts"].values()))))
                if problem:
                    errors.append(problem)
    return errors, attempted, failed, docs


# --- runs ------------------------------------------------------------------


def end_to_end(args, root: Path, run_dir: Path, setup_config: Path, requests: list[dict], stream):
    probe = {
        "argv": [sys.executable, "-c", SETUP_CODE, str(root / "src"), str(setup_config), str(HERE)],
        "samples": SETUP_SAMPLES,
    }
    records, summary = run_worker(root, run_dir, "measure", requests, args.seconds, None, probe)
    setup = summary["setup"]
    errors, attempted, failed, docs = check_records(args.workload, records, stream)
    timed = [r for r in records if r["timed"]]
    if not timed:
        raise BenchError("no request finished")
    ms = [r["ms"] for r in timed]
    cost = [r["ms"] / r["cal_ms"] for r in timed]
    metrics = {
        "setup_s": (CAL_REF_MS * statistics.median(x["s"] / x["cal_ms"] for x in setup), "s"),
        "cmd_cost.p50": (statistics.median(cost), "cal"),
        "peak_rss_mb": (summary["peak_rss_kb"] / 1024.0, "MB"),
    }
    n = f"(n={len(ms)})"
    report = [
        f"workload {args.workload}, seed {args.seed}, {args.seconds} s, closed loop, one client",
        f"  setup_s           {metrics['setup_s'][0]:.4f} s    (median of {len(setup)} fresh interpreters, "
        f"at {CAL_REF_MS:g} ms per cal)",
        f"  setup_wall_s      {statistics.median(x['s'] for x in setup):.4f} s    (raw wall time, same samples)",
        f"  cmd_cost.p50      {metrics['cmd_cost.p50'][0]:.4f} cal  {n}",
        f"  peak_rss_mb       {metrics['peak_rss_mb'][0]:.2f} MB   (worker process)",
        f"  failed_ratio      {failed / max(attempted, 1):.4f}  ({failed} of {attempted} "
        + ("verdicts were \"error\")" if docs else "timed commands exited nonzero)"),
        f"  cal_ms.p50        {statistics.median(r['cal_ms'] for r in timed):.3f} ms   (calibration, one cal)",
        f"  cmd_ms.p50        {statistics.median(ms):.3f} ms   {n}",
        f"  cmds_per_s        {len(ms) / (sum(ms) / 1e3):.3f} 1/s  {n}",
    ]
    known = [r for r in records if r["role"] == "known_failure"]
    if known:
        report.append(
            f"  known_failures    {sum(r['rc'] != 0 for r in known)} of {len(known)} exited nonzero "
            "(untimed requests that fail at the reference commit)"
        )
    tail = tail_percentile(ms)
    if tail:
        report.append(f"  cmd_ms.p{tail[0]:g}        {tail[1]:.3f} ms   {n}, {tail[2]} beyond")
    else:
        report.append(f"  cmd_ms tail       n/a {n}: no percentile has ten samples beyond it")
    if docs:
        evals = [
            sum(c["replicates"] for c in d["cells"]) / (r["ms"] / 1e3)
            for d, r in zip(docs, (r for r in timed if r["rc"] == 0))
        ]
        report.append(f"  evals_per_s       {statistics.median(evals):.1f} 1/s  (median of {len(evals)} simulate runs)")
    else:
        for command, name in ANALYZE_COMMANDS.items():
            values = [r for r in timed if stream[r["n"]]["command"] == command]
            if values:
                report.append(
                    f"  {name:<17} {statistics.median(r['ms'] for r in values):.3f} ms   "
                    f"{statistics.median(r['ms'] / r['cal_ms'] for r in values):.4f} cal  (n={len(values)})"
                )
    return errors, attempted, failed, metrics, report


def per_layer(args, root: Path, run_dir: Path, requests: list[dict], stream, manifest):
    if args.workload == "analyze":
        prefix = requests[:TRACE_ANALYZE_REQUESTS]
    else:
        prefix = requests[:TRACE_SWEEP_COMMANDS]
    plain, _ = run_worker(root, run_dir, "plain", prefix, None, None)
    traced, summary = run_worker(root, run_dir, "spans", prefix, None, "spans")
    counted, counted_summary = run_worker(root, run_dir, "counters", prefix, None, "counters")
    errors, _, _, _ = check_records(args.workload, plain, stream)
    traced_errors, attempted, failed, docs = check_records(args.workload, traced, stream)
    errors += [f"traced: {e}" for e in traced_errors]
    errors += [f"counted: {e}" for e in check_records(args.workload, counted, stream)[0]]
    for other in (traced, counted):
        for a, b in zip(plain, other):
            if a["rc"] != b["rc"] or a["artifacts"] != b["artifacts"]:
                errors.append(f"request {a['n']}: traced artifacts differ from the plain run")
    dump = summary["trace"]
    metrics = tracing.layer_metrics(dump, counted_summary["trace"], commands=len(traced))
    metrics["simulate.error_verdicts"] = (float(failed) if docs else 0.0, "count")
    metrics["cli.nonzero_exits"] = (float(sum(r["rc"] != 0 for r in traced)), "count")
    speedup = 0.0
    if args.workload == "sweep_normal":
        base = run_dir / "out" / "grid"
        probe = {
            "argv": ["simulate", "--config", manifest["grid_config"], "--output", str(base)],
            "outputs": [str(base.with_suffix(".csv")), str(base.with_suffix(".json"))],
        }
        threads2 = dict(probe, argv=probe["argv"] + ["--threads", "2"])
        pair, _ = run_worker(root, run_dir, "threads", [probe, threads2], None, None)
        if pair[0]["rc"] == 0 and pair[1]["rc"] == 0:
            speedup = pair[0]["ms"] / pair[1]["ms"]
            if pair[0]["artifacts"] != pair[1]["artifacts"]:
                errors.append("threads=2 artifacts differ from threads=1")
    metrics["simulate.speedup_threads2"] = (speedup, "x")
    def overhead(records: list[dict]) -> float:
        cost = [r["ms"] / r["cal_ms"] for r in records]
        plain_cost = [r["ms"] / r["cal_ms"] for r in plain]
        if args.workload == "analyze":
            return statistics.median(cost) / statistics.median(plain_cost) - 1.0
        return sum(cost) / sum(plain_cost) - 1.0

    metrics["trace.overhead_pct"] = (100.0 * overhead(traced), "%")
    report = [
        f"workload {args.workload}, seed {args.seed}: traced prefix of {len(traced)} commands",
        f"  tracing overhead {100 * overhead(traced):.1f}% with spans (the timings), "
        f"{100 * overhead(counted):.1f}% with counters (the counts) "
        + ("(cmd_cost.p50)" if args.workload == "analyze" else "(total command cost)"),
        f"  spans {len(dump['spans'][0])}, requests {len(dump['draws'][0]) or len(traced)}",
    ]
    report += [f"  {name:<45} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    return errors, attempted, failed, metrics, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="relkit benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "relkit" / "__init__.py").is_file() or not (root / "configs").is_dir():
        print("perfbench: run from the root of a relkit source tree (src/relkit, configs/)", file=sys.stderr)
        return 2
    run_dir = root / ".perfbench_run" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "out").mkdir(parents=True)
    try:
        manifest = workloads.write_workload(args.workload, args.seed, run_dir / "inputs", root / "configs")
        stream = manifest["requests"]
        setup_config = Path(stream[0]["config"])
        if args.workload == "analyze":
            requests = analyze_requests(run_dir, stream, checks.load_analyze_reference()["requests"])
        else:
            requests = sweep_requests(run_dir, stream)
            if args.workload == "sweep_normal" and not args.trace:
                requests.append(aspirin_request(root, run_dir))
        if args.trace:
            errors, attempted, failed, metrics, report = per_layer(args, root, run_dir, requests, stream, manifest)
        else:
            errors, attempted, failed, metrics, report = end_to_end(args, root, run_dir, setup_config, requests, stream)
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for line in report:
        print(line)
    for e in errors[:20]:
        print(f"CHECK FAILED: {e}")
    if len(errors) > 20:
        print(f"CHECK FAILED: ... {len(errors) - 20} more")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    if not errors:
        shutil.rmtree(run_dir, ignore_errors=True)
    return 0 if not errors else 1


if __name__ == "__main__":
    raise SystemExit(main())
