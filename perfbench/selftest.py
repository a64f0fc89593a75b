"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Run from the root of a relkit source tree. Checks that every workload emits
exactly the end-to-end metrics (``--trace 0``) and per-layer metrics
(``--trace 1``) that BENCHMARK.json lists, each with its unit, that a
deliberately wrong reference makes the output checks fail, and that the
sweep check catches a verdict table with one boundary moved by a few k.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent


def _bench(workload: str, trace: int, seconds: float = 1.0) -> tuple[int, dict, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(["--workload", workload, "--seed", "3", "--seconds", str(seconds),
                       "--trace", str(trace)])
    text = out.getvalue()
    lines = text.strip().splitlines()
    return rc, json.loads(lines[-1]) if lines else {}, text


def _expect(cond: bool, message: str, failures: list[str]) -> None:
    print(("ok   " if cond else "FAIL ") + message)
    if not cond:
        failures.append(message)


def _shifted_boundary(failures: list[str]) -> None:
    """Three simulate runs of the boundary cell (effect 0.106, n = 100) pass
    the sweep check against the true verdict table, and fail it against a
    table whose a0/a1 boundary of expected_loss at n = 100 sits 4 k lower,
    which moves about a quarter of the cell's verdicts."""
    run_dir = ROOT / ".perfbench_run" / "selftest-shift"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "out").mkdir(parents=True)
    manifest = workloads.write_workload("sweep_binomial", 3, run_dir / "inputs", ROOT / "configs")
    scenario = workloads.SWEEP_SCENARIOS["sweep_binomial"]
    cells = [(e, n) for e in scenario["true_effects"] for n in scenario["sample_sizes"]]
    cell = cells.index((0.106, 100))
    config = next(e["config"] for e in manifest["requests"] if e["cell"] == cell)
    stream = [{"config": config, "seed": seed} for seed in (11, 12, 13)]
    records, _ = run.run_worker(ROOT, run_dir, "shift", run.sweep_requests(run_dir, stream), None, None)
    errors, docs, _, _ = run.check_sweep_records("sweep_binomial", records)
    _expect(not errors and len(docs) == 3, "boundary cell passes the sweep check", failures)
    ref = copy.deepcopy(checks.load_sweep_reference("sweep_binomial"))
    table = ref["tables"]["100"]["expected_loss"]
    assert [v for v, _ in table] == ["a1", "a0", "a1"], table
    table[1][1] -= 4
    table[2][1] += 4
    problem = checks.check_sweep(ref, docs)
    print(f"     shifted table: {problem}")
    _expect(problem is not None, "a table with one boundary moved by 4 k fails the sweep check", failures)
    shutil.rmtree(run_dir, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    run.SETUP_SAMPLES = 2
    run.TRACE_SWEEP_COMMANDS = 1
    run.TRACE_ANALYZE_REQUESTS = 40
    failures: list[str] = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            rc, result, text = _bench(workload, trace)
            got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
            _expect(rc == 0 and result.get("correct") is True,
                    f"{workload} --trace {trace} passes its checks", failures)
            _expect(got == want[trace], f"{workload} --trace {trace} emits the listed metrics with units", failures)
            if got != want[trace]:
                print(f"     missing {sorted(set(want[trace]) - set(got))}, extra {sorted(set(got) - set(want[trace]))}")
            _expect(isinstance(result.get("attempted"), int) and result.get("attempted", 0) >= 1
                    and isinstance(result.get("failed"), int),
                    f"{workload} --trace {trace} reports attempted and failed counts", failures)
            if rc != 0:
                print(text[-3000:])

    # a wrong reference must fail the run
    original_analyze = checks.load_analyze_reference
    original_sweep = checks.load_sweep_reference

    def wrong_analyze():
        ref = copy.deepcopy(original_analyze())
        for item in ref["requests"].values():
            if "summary" in item:
                item["summary"]["labels"][0] = "wrong"
        return ref

    def wrong_sweep(workload):
        ref = copy.deepcopy(original_sweep(workload))
        for tables in ref["tables"].values():
            for table in tables.values():
                if isinstance(table, dict):
                    table["verdicts"] = ["wrong"] * len(table["verdicts"])
                else:
                    for run_ in table:
                        run_[0] = "wrong"
        return ref

    _shifted_boundary(failures)
    checks.load_analyze_reference = wrong_analyze
    checks.load_sweep_reference = wrong_sweep
    try:
        for workload in ("analyze", "sweep_binomial"):
            rc, result, _ = _bench(workload, 0)
            _expect(rc != 0 and result.get("correct") is False,
                    f"{workload} with a wrong reference fails its checks", failures)
    finally:
        checks.load_analyze_reference = original_analyze
        checks.load_sweep_reference = original_sweep
    print("selftest " + ("passed" if not failures else f"FAILED ({len(failures)})"))
    return 0 if not failures else 1


if __name__ == "__main__":
    raise SystemExit(main())
