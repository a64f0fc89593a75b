"""Record the benchmark's reference outputs from the current source tree.

    python3 perfbench/make_reference.py

Writes perfbench/reference/:
  sweep_binomial.json, sweep_normal.json
      the verdict each procedure gives on every possible sweep input: runs of
      verdicts over k = 0..n (binomial), or the ybar points where the verdict
      changes (normal, found on a grid of se/40 within 9 se of every true
      effect and refined by bisection). The run checks its frequencies
      against the exact probabilities these imply.
  analyze.json.gz
      exit code and output summary of every pooled analyze request, every
      mirrored tail request and every shipped-config request.

Run it only when a change to the program is meant to change these outputs,
and say so in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from relkit import cli  # noqa: E402
from relkit.config import load_config  # noqa: E402
from relkit.errors import RelkitError  # noqa: E402
from relkit.simulate import BinomialDraw, NormalDraw, _compile_procedure  # noqa: E402


def _verdict(fn, data) -> str:
    try:
        return fn(data)
    except RelkitError:
        return "error"


def sweep_reference(workload: str, tmp: Path) -> dict:
    path = tmp / f"{workload}.json"
    path.write_text(json.dumps(workloads.sweep_config(workload, 0)), encoding="utf-8")
    scenario = load_config(path).scenario
    ref = {
        "family": scenario.family,
        "sigma": scenario.sigma,
        "true_effects": list(scenario.true_effects),
        "sample_sizes": list(scenario.sample_sizes),
        "procedures": [p.name for p in scenario.procedures],
        "tables": {},
    }
    # the dataset -> verdict functions simulate itself runs per replicate
    fns = {p.name: _compile_procedure(scenario, p) for p in scenario.procedures}
    for n in scenario.sample_sizes:
        tables = ref["tables"][str(n)] = {}
        for name, fn in fns.items():
            if scenario.family == "binomial":
                runs: list[list] = []
                for k in range(n + 1):
                    v = _verdict(fn, BinomialDraw(n=n, k=k))
                    if runs and runs[-1][0] == v:
                        runs[-1][1] += 1
                    else:
                        runs.append([v, 1])
                tables[name] = runs
                continue
            se = scenario.sigma / math.sqrt(n)
            at = lambda y: _verdict(fn, NormalDraw(n=n, ybar=y, sigma=scenario.sigma))
            lo = min(scenario.true_effects) - 9.0 * se
            steps = int((max(scenario.true_effects) - min(scenario.true_effects) + 18.0 * se) / (se / 40.0)) + 1
            ys = [lo + i * se / 40.0 for i in range(steps + 1)]
            verdicts, cuts = [at(ys[0])], []
            prev_y = ys[0]
            for y in ys[1:]:
                v = at(y)
                if v != verdicts[-1]:
                    a, b = prev_y, y
                    while b - a > 1e-13 * max(1.0, abs(b)):
                        mid = 0.5 * (a + b)
                        if at(mid) == verdicts[-1]:
                            a = mid
                        else:
                            b = mid
                    cuts.append(b)
                    verdicts.append(v)
                prev_y = y
            tables[name] = {"cuts": cuts, "verdicts": verdicts}
    return ref


def _run(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, err.getvalue()


def _record(command: str, cfg: dict, tmp: Path) -> dict:
    cfg_path = tmp / "request.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp / ("out.svg" if command == "plot" else "out.json")
    rc, err = _run([command, "--config", str(cfg_path), "--output", str(out)])
    if rc != 0:
        return {"rc": rc, "stderr": err.strip()}
    return {"rc": 0, "summary": checks.summarize(command, out.read_text(encoding="utf-8"))}


def analyze_reference(tmp: Path) -> dict:
    ref: dict[str, dict] = {}
    for i in range(workloads.POOL_SIZE):
        command, cfg = workloads.pool_request(i)
        ref[f"g{i}"] = _record(command, cfg, tmp)
        if ref[f"g{i}"]["rc"] != 0:
            print(f"pool request {i} ({command}) fails: {ref[f'g{i}']}", flush=True)
    for j in range(workloads.TAIL_PAIRS):
        command, low, high = workloads.tail_pair(j)
        ref[f"t{j}-"] = _record(command, low, tmp)
        ref[f"t{j}+"] = _record(command, high, tmp)
    for command, name in workloads.SHIPPED:
        cfg = json.loads((ROOT / "configs" / f"{name}.json").read_text(encoding="utf-8"))
        ref[f"s:{command}:{name}"] = _record(command, cfg, tmp)
    return ref


def main() -> int:
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    ).stdout.strip()
    out_dir = HERE / "reference"
    out_dir.mkdir(exist_ok=True)
    tmp = ROOT / ".perfbench_run" / "make_reference"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        for workload in ("sweep_binomial", "sweep_normal"):
            ref = {"commit": commit, **sweep_reference(workload, tmp)}
            (out_dir / f"{workload}.json").write_text(json.dumps(ref) + "\n", encoding="utf-8")
            print(f"wrote {workload}.json", flush=True)
        ref = {"commit": commit, "requests": analyze_reference(tmp)}
    finally:
        shutil.rmtree(tmp)
    with gzip.GzipFile(out_dir / "analyze.json.gz", "wb", mtime=0) as fh:
        fh.write((json.dumps(ref, separators=(",", ":")) + "\n").encode("utf-8"))
    print("wrote analyze.json.gz")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
