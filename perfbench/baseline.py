"""Measure a baseline: every workload over several seeds, plus one traced run.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

Run from the root of a relkit source tree. For each workload and seed it
runs ``run.py --trace 0`` for BENCHMARK.json's run_seconds, then
``run.py --trace 1`` once. It writes the median, the quartiles and the
quartile spread (as a share of the median) of every end-to-end metric, the
per-layer metrics of the traced run, and an environment block.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stdout[-3000:]}\n{proc.stderr[-3000:]}")
    return json.loads(lines[-1])


def _environment() -> dict:
    import numpy

    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    seeds = _seeds(args.seeds)
    result = {"environment": _environment(), "run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in seeds:
            runs.append(_run(workload, seed, spec["run_seconds"], 0))
            print(workload, seed, json.dumps(runs[-1]["metrics"]), flush=True)
        summary = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
            summary[metric["name"]] = {
                "unit": metric["unit"],
                "median": statistics.median(values),
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / statistics.median(values),
                "bound": metric["bound"],
                "values": values,
            }
        traced = _run(workload, seeds[0], spec["run_seconds"], 1)
        result["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": summary,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "distinct_input_ratio": traced["metrics"]["simulate.distinct_input_ratio"]["value"],
        }
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    for workload, data in result["workloads"].items():
        for name, s in data["end_to_end"].items():
            flag = "" if s["spread"] < s["bound"] / 3 else "  <-- spread above bound/3"
            print(f"{workload:15} {name:12} median {s['median']:.4f} spread {s['spread']:.4f} bound {s['bound']}{flag}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
