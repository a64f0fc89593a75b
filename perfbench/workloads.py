"""Seeded workload generator for the relkit benchmark.

Every workload is written as ordinary relkit configuration JSON, so the
program under test receives only generated inputs through its normal config
path. The same seed always gives the same files.

    python3 perfbench/workloads.py --workload analyze --seed 7 --out /tmp/wl

writes the configs of one workload plus ``manifest.json``, which records why
the workload was chosen, its request stream and, for ``analyze``, the share
of the stream that is mirrored out-of-space requests.

Only ``random.Random.random()`` is used for randomness: its stream is stable
across Python versions, which keeps the recorded references valid.
"""

from __future__ import annotations

import argparse
import json
import math
import random
from pathlib import Path

WHY = {
    "sweep_binomial": (
        "Binomial sweep with the coin loss: time goes to the incomplete-beta "
        "continued fraction, CDF bisection in quantiles and quadrature, and "
        "(n, k) inputs repeat, so a per-sweep verdict memo and exact mode act "
        "here."
    ),
    "sweep_normal": (
        "Normal sweep with the aspirin loss and all six procedures (the only "
        "workload running tost): the CDF is cheap, so quadrature dominates, "
        "and ybar is continuous, so no input repeats and a memo must show no "
        "change."
    ),
    "analyze": (
        "Stream of partition, check-hypotheses, decide (both rules), compare "
        "and plot requests, each on a fresh random loss so partition runs "
        "cold, plus the shipped coin configs and mirrored out-of-space pairs "
        "that keep the tail-posterior defect visible."
    ),
}

WORKLOADS = tuple(WHY)

# --- sweeps ---------------------------------------------------------------

COIN_BASE = {
    "spec_version": 1,
    "parameter_space": {"lo": -0.5, "hi": 0.5},
    "actions": {"a0_label": "do_not_accuse", "a1_label": "accuse"},
    "loss": {"kind": "builtin_coin_demo"},
}

ASPIRIN_BASE = {
    "spec_version": 1,
    "parameter_space": {"lo": -0.1, "hi": 0.1},
    "actions": {"a0_label": "do_not_recommend", "a1_label": "recommend"},
    "loss": {
        "kind": "piecewise_linear",
        "params_a0": {"knots": [-0.1, 0.0, 0.1], "values": [0.1, 0.0, 0.1]},
        "params_a1": {"knots": [-0.1, 0.0, 0.1], "values": [0.0, 0.025, 0.0]},
    },
}

# Effects span negligible, boundary (+-0.106) and relevant biases. Each
# simulate command of a sweep workload runs one cell (true effect, n) of the
# grid with the given replicates: a command lasts a few tenths of a second,
# short enough for the worker's calibration to track the machine's speed.
SWEEP_SCENARIOS = {
    "sweep_binomial": {
        "name": "bench_binomial",
        "family": "binomial",
        "true_effects": [-0.3, -0.106, -0.05, 0.0, 0.05, 0.106, 0.3],
        "sample_sizes": [20, 100, 1000],
        "replicates": 48,
        "prior": {"alpha": 1, "beta": 1},
        "procedures": [
            {"procedure": "nhst", "alpha": 0.05},
            {"procedure": "rope", "mass": 0.95, "rope": "partition_hull"},
            {"procedure": "hypothesis_ratio", "loss_ratio": [0.5, 2.0]},
            {"procedure": "expected_loss"},
            {"procedure": "bayes_factor", "threshold": 3.0},
        ],
    },
    "sweep_normal": {
        "name": "bench_normal",
        "family": "normal",
        "sigma": 0.2,
        "true_effects": [0.0, 0.0077, 0.02, 0.05],
        "sample_sizes": [50, 22000],
        "replicates": 100,
        "prior": {"mean": 0.0, "sd": 0.05},
        "procedures": [
            {"procedure": "nhst", "alpha": 0.05},
            {"procedure": "tost", "alpha": 0.05, "bounds": "partition_hull"},
            {"procedure": "rope", "mass": 0.95, "rope": "partition_hull"},
            {"procedure": "hypothesis_ratio", "loss_ratio": 1.0},
            {"procedure": "expected_loss"},
            {"procedure": "bayes_factor", "threshold": 3.0},
        ],
    },
}


SWEEP_MAX_COMMANDS = 2000


def sweep_config(workload: str, seed: int, effects=None, sizes=None) -> dict:
    """The workload's scenario config, over the whole grid or a part of it."""
    base = COIN_BASE if workload == "sweep_binomial" else ASPIRIN_BASE
    scenario = dict(SWEEP_SCENARIOS[workload])
    if effects is not None:
        scenario["true_effects"] = list(effects)
    if sizes is not None:
        scenario["sample_sizes"] = list(sizes)
    return {**base, "seed": seed, "scenario": scenario}


def sweep_stream(workload: str, seed: int) -> list[dict]:
    """The sweep's simulate commands: every cell once per round, rounds in
    seeded order, each command with a fresh scenario seed, so no state
    carried between commands can help."""
    scenario = SWEEP_SCENARIOS[workload]
    cells = [(e, n) for e in scenario["true_effects"] for n in scenario["sample_sizes"]]
    rng = random.Random(seed)
    stream: list[dict] = []
    while len(stream) < SWEEP_MAX_COMMANDS:
        order = list(range(len(cells)))
        rng.shuffle(order)
        for c in order:
            stream.append({"cell": c, "seed": int(rng.random() * 2**53)})
    return stream[:SWEEP_MAX_COMMANDS]


# --- analyze --------------------------------------------------------------

# The generated part of the stream is drawn without replacement from a pool
# of POOL_SIZE requests whose outputs are recorded in reference/analyze.json.gz;
# the seed chooses the order. TAIL_PAIRS mirrored pairs exist likewise.
POOL_SIZE = 4500
TAIL_PAIRS = 100
POOL_SALT = 0x5EED_0001
TAIL_SALT = 0x5EED_0002

# Per block of BLOCK requests: generated, shipped and tail (one mirrored pair).
BLOCK = 50
BLOCK_SHIPPED = 3
BLOCK_TAIL = 2
BLOCK_GENERATED = BLOCK - BLOCK_SHIPPED - BLOCK_TAIL
TAIL_SHARE = BLOCK_TAIL / BLOCK
SHIPPED_SHARE = BLOCK_SHIPPED / BLOCK

SHIPPED = (
    ("partition", "coin_partition"),
    ("check-hypotheses", "coin_check_hypotheses"),
    ("check-hypotheses", "coin_check_partial_only"),
    ("decide", "coin_decide"),
    ("compare", "coin_compare"),
    ("plot", "coin_partition"),
)

POOL_COMMANDS = ("partition", "check-hypotheses", "decide", "compare", "plot")


def _u(rng: random.Random, a: float, b: float) -> float:
    return a + (b - a) * rng.random()


def _pick(rng: random.Random, seq):
    return seq[int(rng.random() * len(seq))]


def _r(x: float) -> float:
    return float(f"{x:.6g}")


def _gauss(rng: random.Random) -> float:
    u1 = 1.0 - rng.random()
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * rng.random())


def _knots(rng: random.Random, lo: float, hi: float, must: float) -> list[float]:
    inner = {_r(_u(rng, lo, hi)) for _ in range(1 + int(rng.random() * 4))}
    inner.add(must)
    return [lo, *sorted(x for x in inner if lo < x < hi), hi]


def _random_loss(rng: random.Random, lo: float, hi: float) -> tuple[dict, float, float, float]:
    """A loss whose curves cross on both sides of a centre c: a0 is smallest
    at c and a1 below a0 at both ends, so both regions are non-empty.
    Returns the loss section, c and the two approximate crossing distances."""
    c = _r(_u(rng, -0.2, 0.2) * min(-lo, hi))
    s0 = _u(rng, 0.5, 5.0)
    kind = _pick(rng, ("piecewise_linear", "table", "quadratic"))
    if kind == "quadratic":
        d = _u(rng, 0.15, 0.8) * min(c - lo, hi - c)
        c1 = _u(rng, -0.3, 0.5) * s0
        o1 = (s0 - c1) * d * d
        if c1 < 0 and o1 + c1 * max(c - lo, hi - c) ** 2 < 0:
            c1 = 0.0
            o1 = s0 * d * d
        loss = {
            "kind": "quadratic",
            "params_a0": {"c": _r(s0), "center": c, "offset": 0.0},
            "params_a1": {"c": _r(c1), "center": c, "offset": _r(o1)},
        }
        return loss, c, d, d
    key = "knots" if kind == "piecewise_linear" else "grid"
    k0 = _knots(rng, lo, hi, c)
    v0 = [
        _r(s0 * abs(t - c) * (1.0 if t in (lo, hi) else _u(rng, 0.9, 1.1)))
        for t in k0
    ]
    h = _u(rng, 0.3, 1.5) * s0 * min(c - lo, hi - c)
    y_lo = _u(rng, 0.0, 0.6) * s0 * (c - lo)
    y_hi = _u(rng, 0.0, 0.6) * s0 * (hi - c)

    def a1_line(t: float) -> float:
        if t <= c:
            return y_lo + (h - y_lo) * (t - lo) / (c - lo)
        return h + (y_hi - h) * (t - c) / (hi - c)

    k1 = _knots(rng, lo, hi, c)
    v1 = [
        _r(a1_line(t) * (1.0 if t in (lo, hi, c) else _u(rng, 0.9, 1.1)))
        for t in k1
    ]
    loss = {
        "kind": kind,
        "params_a0": {key: k0, "values": v0},
        "params_a1": {key: k1, "values": v1},
    }
    # crossing of the two straight-line envelopes on each side
    d_left = (h * (c - lo)) / (s0 * (c - lo) + h - y_lo) if h > y_lo else 0.5 * (c - lo)
    d_right = (h * (hi - c)) / (s0 * (hi - c) + h - y_hi) if h > y_hi else 0.5 * (hi - c)
    return loss, c, d_left, d_right


def _hypotheses(rng, lo, hi, c, d_left, d_right, covering: bool) -> dict:
    if not covering and rng.random() < 0.25:
        # singletons: incorporate relevance only partially
        return {"h0": [c], "h1": [_r(lo + _u(rng, 0.0, 0.1) * (c - lo))]}
    exact = rng.random() < 0.4
    a = c - d_left * (1.0 if exact else _u(rng, 0.7, 1.3))
    b = c + d_right * (1.0 if exact else _u(rng, 0.7, 1.3))
    span = hi - lo
    a = _r(min(max(a, lo + 0.01 * span), c - 0.001 * span))
    b = _r(max(min(b, hi - 0.01 * span), c + 0.001 * span))
    return {
        "h0": [[a, b, False, False]],
        "h1": [[lo, a, False, True], [b, hi, True, False]],
    }


def _model(rng, family: str, lo: float, hi: float) -> dict:
    effect = _u(rng, lo, hi) * 0.6
    if family == "binomial":
        n = _pick(rng, (20, 50, 100, 400))
        pi = 0.5 + effect
        k = sum(rng.random() < pi for _ in range(n))
        alpha, beta = _pick(rng, ((1, 1), (2, 2), (0.5, 0.5), (2, 1)))
        return {
            "family": "binomial",
            "data": {"n": n, "k": k},
            "prior": {"alpha": alpha, "beta": beta},
        }
    span = hi - lo
    sigma = _r(_u(rng, 0.1, 1.0) * span)
    n = _pick(rng, (10, 100, 1000))
    ybar = _r(effect + _gauss(rng) * sigma / math.sqrt(n))
    return {
        "family": "normal",
        "sigma": sigma,
        "data": {"n": n, "ybar": ybar},
        "prior": {"mean": 0.0, "sd": _r(_u(rng, 0.2, 1.0) * span)},
    }


def pool_request(i: int) -> tuple[str, dict]:
    """Generated analyze request i of the pool: (command, config)."""
    rng = random.Random(POOL_SALT * 1_000_003 + i)
    command = POOL_COMMANDS[i % len(POOL_COMMANDS)]
    family = "binomial" if rng.random() < 0.5 else "normal"
    top = 0.5 if family == "binomial" else 1.0
    lo, hi = _r(-_u(rng, 0.15, 1.0) * top), _r(_u(rng, 0.15, 1.0) * top)
    loss, c, d_left, d_right = _random_loss(rng, lo, hi)
    cfg = {
        "spec_version": 1,
        "parameter_space": {"lo": lo, "hi": hi},
        "actions": {"a0_label": "hold", "a1_label": "act"},
        "loss": loss,
    }
    if command == "check-hypotheses":
        cfg["hypotheses"] = _hypotheses(rng, lo, hi, c, d_left, d_right, False)
    elif command == "decide":
        cfg["model"] = _model(rng, family, lo, hi)
        if (i // len(POOL_COMMANDS)) % 2 == 0:
            cfg["hypotheses"] = _hypotheses(rng, lo, hi, c, d_left, d_right, True)
            x = _r(_u(rng, 0.2, 5.0))
            ratio = x if rng.random() < 0.5 else [x, _r(x * _u(rng, 1.5, 4.0))]
            cfg["decision"] = {"rule": "hypothesis_ratio", "loss_ratio": ratio}
        else:
            cfg["decision"] = {"rule": "expected_loss"}
    elif command == "compare":
        cfg["model"] = _model(rng, family, lo, hi)
        comparators = [
            {"procedure": "nhst", "alpha": _pick(rng, (0.01, 0.05, 0.1))},
            {"procedure": "rope", "mass": _pick(rng, (0.9, 0.95)), "rope": "partition_hull"},
            {"procedure": "bayes_factor"},
        ]
        if family == "normal":
            comparators.append({"procedure": "tost", "alpha": 0.05, "bounds": "partition_hull"})
        cfg["comparators"] = comparators
        if rng.random() < 0.5:
            cfg["hypotheses"] = _hypotheses(rng, lo, hi, c, d_left, d_right, True)
    return command, cfg


def tail_pair(j: int) -> tuple[str, dict, dict]:
    """Mirrored pair j: binomial data far outside a narrowed, symmetric
    effect space, once with k = 0 and once with k = n. Returns
    (command, config with k=0, config with k=n)."""
    rng = random.Random(TAIL_SALT * 1_000_003 + j)
    w = _pick(rng, (0.1, 0.15, 0.2))
    n = _pick(rng, (200, 400))
    h = _r(_u(rng, 0.2, 0.5) * w)
    cfg = {
        "spec_version": 1,
        "parameter_space": {"lo": -w, "hi": w},
        "actions": {"a0_label": "hold", "a1_label": "act"},
        "loss": {
            "kind": "piecewise_linear",
            "params_a0": {"knots": [-w, 0.0, w], "values": [w, 0.0, w]},
            "params_a1": {"knots": [-w, 0.0, w], "values": [0.0, h, 0.0]},
        },
    }
    variant = j % 3
    if variant == 0:
        command = "decide"
        cfg["decision"] = {"rule": "expected_loss"}
    elif variant == 1:
        command = "decide"
        b = _r(_u(rng, 0.3, 0.7) * w)
        cfg["hypotheses"] = {
            "h0": [[-b, b, False, False]],
            "h1": [[-w, -b, False, True], [b, w, True, False]],
        }
        cfg["decision"] = {"rule": "hypothesis_ratio", "loss_ratio": 1.0}
    else:
        command = "compare"
        cfg["comparators"] = [
            {"procedure": "nhst", "alpha": 0.05},
            {"procedure": "rope", "mass": 0.95, "rope": "partition_hull"},
            {"procedure": "bayes_factor"},
        ]
    low = {**cfg, "model": {"family": "binomial", "data": {"n": n, "k": 0}}}
    high = {**cfg, "model": {"family": "binomial", "data": {"n": n, "k": n}}}
    return command, low, high


def analyze_stream(seed: int) -> list[dict]:
    """The analyze request stream for a seed: blocks of BLOCK requests with
    BLOCK_GENERATED pool requests, BLOCK_SHIPPED shipped-config requests and
    one mirrored tail pair, in seeded order. Each entry names its reference
    key; generated entries never repeat within a stream."""
    rng = random.Random(seed)
    order = list(range(POOL_SIZE))
    rng.shuffle(order)
    tails = list(range(TAIL_PAIRS))
    rng.shuffle(tails)
    stream: list[dict] = []
    shipped_next = int(rng.random() * len(SHIPPED))
    for block in range(POOL_SIZE // BLOCK_GENERATED):
        items: list[list[dict]] = []
        for i in order[block * BLOCK_GENERATED:(block + 1) * BLOCK_GENERATED]:
            items.append([{"kind": "generated", "ref": f"g{i}", "pool": i}])
        for _ in range(BLOCK_SHIPPED):
            command, name = SHIPPED[shipped_next % len(SHIPPED)]
            shipped_next += 1
            items.append([{"kind": "shipped", "ref": f"s:{command}:{name}", "command": command, "name": name}])
        j = tails[block % TAIL_PAIRS]
        pair = [
            {"kind": "tail_low", "ref": f"t{j}-", "pair": j},
            {"kind": "tail_high", "ref": f"t{j}+", "pair": j},
        ]
        if rng.random() < 0.5:
            pair.reverse()
        items.append(pair)
        rng.shuffle(items)
        stream.extend(entry for group in items for entry in group)
    return stream


def request_config(entry: dict, configs_dir: Path) -> tuple[str, dict]:
    """(command, config) of a stream entry."""
    kind = entry["kind"]
    if kind == "generated":
        return pool_request(entry["pool"])
    if kind == "shipped":
        path = configs_dir / f"{entry['name']}.json"
        return entry["command"], json.loads(path.read_text(encoding="utf-8"))
    command, low, high = tail_pair(entry["pair"])
    return command, low if kind == "tail_low" else high


def write_workload(workload: str, seed: int, out: Path, configs_dir: Path) -> dict:
    """Write the workload's configs under ``out`` and return its manifest."""
    out.mkdir(parents=True, exist_ok=True)
    manifest = {"workload": workload, "seed": seed, "why": WHY[workload]}
    if workload in SWEEP_SCENARIOS:
        scenario = SWEEP_SCENARIOS[workload]
        grid = out / "grid.json"
        grid.write_text(json.dumps(sweep_config(workload, seed), indent=1), encoding="utf-8")
        manifest["grid_config"] = str(grid)
        paths = []
        for effect in scenario["true_effects"]:
            for n in scenario["sample_sizes"]:
                path = out / f"cell{len(paths):02d}.json"
                path.write_text(json.dumps(sweep_config(workload, seed, [effect], [n])), encoding="utf-8")
                paths.append(str(path))
        stream = sweep_stream(workload, seed)
        for entry in stream:
            entry["config"] = paths[entry["cell"]]
        manifest["requests"] = stream
    else:
        stream = analyze_stream(seed)
        for n, entry in enumerate(stream):
            command, cfg = request_config(entry, configs_dir)
            path = out / f"r{n:05d}.json"
            path.write_text(json.dumps(cfg), encoding="utf-8")
            entry["command"] = command
            entry["config"] = str(path)
        manifest["requests"] = stream
        manifest["tail_share"] = TAIL_SHARE
        manifest["shipped_share"] = SHIPPED_SHARE
        manifest["tail_note"] = (
            "mirrored pairs: binomial k=0 and k=n far outside a narrowed "
            "symmetric effect space, sent back to back"
        )
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    return manifest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the configs")
    parser.add_argument("--configs", default="configs", help="shipped configs directory")
    args = parser.parse_args(argv)
    manifest = write_workload(args.workload, args.seed, Path(args.out), Path(args.configs))
    print(json.dumps({k: v for k, v in manifest.items() if k != "requests"}, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
