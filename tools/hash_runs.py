"""Two SHA-256 digests over a fixed set of relkit runs, to check that a
change leaves every output byte as it was: one over the ``simulate`` runs
and one over all the others, so that a change to the simulated stream can
show that it moved no other output.

    python3 tools/hash_runs.py SRC_DIR

imports relkit from SRC_DIR (the ``src`` directory of any checkout) and
runs each command in-process through ``relkit.cli.main``, in a scratch
directory and with relative paths, so that no output names where it ran.
Each digest covers, per run, its arguments, exit code, stdout, stderr and
the artifacts it wrote. The runs:

- both benchmark grids, whole and one cell at a time, at seeds 1-3;
- the first 400 commands of both seed-3 benchmark streams;
- both shipped scenarios;
- the ``sweep_normal`` grid at 10^4 replicates;
- the grid on which the tests compare the normal seeds with brute force
  (``tests/test_simulate.py``), effects -0.025 to 0.05 at n = 50 to 22000
  with nhst, tost and one bayes_factor threshold of 1, 3 and 10 a run, at
  10^4 replicates;
- the ``sweep_binomial`` procedures at 24 replicates and n = 2^16 - 2,
  the largest n whose cells carry certificates, 2^16 - 1 and 2^17;
- every request of the ``analyze`` pool, and both requests of every
  mirrored tail pair;
- the plot of the shipped ``coin_partition.json``;
- command lines the argument parser refuses or answers alone: a flag each
  command does not read, no command, an unknown command, and ``--version``.
  Their usage text is wrapped at 80 columns, whatever the terminal.
- ``compare`` and ``simulate`` with ``rope`` and with ``tost`` on the
  aspirin space, where ``"partition_hull"`` is refused: on a loss with no
  negligible region, and on one whose negligible region is the point 0.

The workloads come from ``perfbench/workloads.py`` and the shipped
configs from ``configs/``, both of the checkout this script lies in. Print
the digests for two source trees and compare: equal digests mean equal
bytes. The set takes 9–12 s on one core of a 2-core Xeon VM. With relkit
0.1.0 it prints ``26f49dd3…`` over 900 simulate runs and ``f236911d…``
over 4718 other runs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STREAM_COMMANDS = 400
SEEDS = (1, 2, 3)


def _runs(workloads) -> dict[str, list[tuple[list[str], list[str]]]]:
    """(argv, artifact paths) of every run, by digest, configs written to the
    current directory on the way."""
    runs = {"simulate": [], "other": []}

    def simulate(config: str, *flags: str) -> None:
        argv = ["simulate", "--config", config, "--output", "out", *flags]
        runs["simulate"].append((argv, ["out.csv", "out.json"]))

    for workload in ("sweep_binomial", "sweep_normal"):
        for seed in SEEDS:
            out = Path(f"{workload}-{seed}")
            manifest = workloads.write_workload(workload, seed, out, ROOT / "configs")
            cells = sorted(str(path) for path in out.glob("cell*.json"))
            for config in (manifest["grid_config"], *cells):
                simulate(config)
            if seed == 3:
                for entry in manifest["requests"][:STREAM_COMMANDS]:
                    simulate(entry["config"], "--seed", str(entry["seed"]))
    for name in ("coin_scenario", "aspirin_scenario"):
        shipped = Path(f"{name}.json")
        shipped.write_bytes((ROOT / "configs" / shipped).read_bytes())
        simulate(str(shipped))
    large = workloads.sweep_config("sweep_normal", 3)
    large["scenario"]["replicates"] = 10_000
    Path("normal_large.json").write_text(json.dumps(large), encoding="utf-8")
    simulate("normal_large.json")
    for threshold in (1.0, 3.0, 10.0):
        seeded = workloads.sweep_config(
            "sweep_normal", 3, (-0.025, 0.0, 0.02, 0.05), (50, 200, 2000, 22000)
        )
        seeded["scenario"]["replicates"] = 10_000
        seeded["scenario"]["procedures"] = [
            {"procedure": "nhst", "alpha": 0.05},
            {"procedure": "tost", "alpha": 0.05, "bounds": [-0.03, 0.03]},
            {"procedure": "bayes_factor", "threshold": threshold},
        ]
        Path(f"normal_seeded_{threshold:g}.json").write_text(json.dumps(seeded), encoding="utf-8")
        simulate(f"normal_seeded_{threshold:g}.json")
    bound = workloads.sweep_config("sweep_binomial", 3, (0.0, 0.106), (2**16 - 2, 2**16 - 1, 2**17))
    bound["scenario"]["replicates"] = 24
    Path("binomial_bound.json").write_text(json.dumps(bound), encoding="utf-8")
    simulate("binomial_bound.json")
    requests = [workloads.pool_request(i) for i in range(workloads.POOL_SIZE)]
    for j in range(workloads.TAIL_PAIRS):
        command, low, high = workloads.tail_pair(j)
        requests += [(command, low), (command, high)]
    for i, (command, cfg) in enumerate(requests):
        config = f"analyze{i:05d}.json"
        Path(config).write_text(json.dumps(cfg), encoding="utf-8")
        out = "out.svg" if command == "plot" else "out.json"
        runs["other"].append(([command, "--config", config, "--output", out], [out]))
    shipped = Path("coin_partition.json")
    shipped.write_bytes((ROOT / "configs" / shipped).read_bytes())
    runs["other"].append((["plot", "--config", str(shipped), "--output", "out.svg"], ["out.svg"]))
    for command in ("partition", "check-hypotheses", "decide", "compare", "simulate", "plot"):
        unread = ["--seed", "5"] if command == "plot" else ["--plot-grid", "3"]
        runs["other"].append(([command, "--config", "coin_scenario.json", *unread], []))
    for argv in ([], ["frobnicate", "--config", "coin_scenario.json"], ["--version"]):
        runs["other"].append((argv, []))
    # a1's loss 0 everywhere: no negligible region, or the point 0, where the
    # two losses tie; both refuse "partition_hull"
    aspirin = json.loads((ROOT / "configs" / "aspirin_scenario.json").read_text(encoding="utf-8"))
    knots = [-0.1, 0.0, 0.1]
    for region, a0 in (("empty", [0.5, 0.1, 0.5]), ("point", [0.1, 0.0, 0.1])):
        for procedure in ("rope", "tost"):
            doc = {
                **aspirin,
                "loss": {
                    "kind": "piecewise_linear",
                    "params_a0": {"knots": knots, "values": a0},
                    "params_a1": {"knots": knots, "values": [0.0, 0.0, 0.0]},
                },
                "model": {"family": "normal", "sigma": 0.2, "data": {"n": 22000, "ybar": 0.0077}},
                "comparators": [{"procedure": procedure}],
                "scenario": {**aspirin["scenario"], "procedures": [{"procedure": procedure}]},
            }
            config = f"hull_{region}_{procedure}.json"
            Path(config).write_text(json.dumps(doc), encoding="utf-8")
            compare_argv = ["compare", "--config", config, "--output", "out.json"]
            runs["other"].append((compare_argv, ["out.json"]))
            simulate_argv = ["simulate", "--config", config, "--output", "out"]
            runs["other"].append((simulate_argv, ["out.csv", "out.json"]))
    return runs


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(argv[0]).resolve()))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import relkit.cli
    import workloads

    digests = {"simulate": hashlib.sha256(), "other": hashlib.sha256()}
    sizes = dict.fromkeys(digests, 0)
    home = os.getcwd()
    os.environ["COLUMNS"] = "80"  # the width argparse wraps its usage text to
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        for kind, runs in _runs(workloads).items():
            for argv_, artifacts in runs:
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    rc = relkit.cli.main(argv_)
                written = {}
                for path in artifacts:
                    if os.path.exists(path):
                        written[path] = Path(path).read_text(encoding="utf-8")
                        os.remove(path)
                record = [argv_, rc, stdout.getvalue(), stderr.getvalue(), written]
                digests[kind].update(json.dumps(record).encode() + b"\n")
                sizes[kind] += 1
        os.chdir(home)
    for kind, digest in digests.items():
        print(f"{digest.hexdigest()}  {sizes[kind]} {kind} runs")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
