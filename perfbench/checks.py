"""Output checks of the relkit benchmark.

Every artifact is reduced to a summary of labels (compared exactly) and
numbers (compared within a tolerance that admits the ~1e-6 relative shifts a
closed form may bring). Summaries recorded at the reference commit live in
``perfbench/reference/``. Sweep frequencies are compared with the exact
verdict probabilities implied by the reference verdict tables.
"""

from __future__ import annotations

import bisect
import gzip
import hashlib
import json
import math
import re
from pathlib import Path

REF_DIR = Path(__file__).resolve().parent / "reference"

REL_TOL = 1e-4
ABS_TOL = 1e-6
HUGE = 1e6  # odds or Bayes factors beyond this only need to agree in side
# A pooled verdict count fails when it lies in a tail of its exact binomial
# distribution of probability below TAIL_P. A run compares about 250 counts,
# so a correct program fails a run by chance about once in 20000 runs.
TAIL_P = 1e-7
SVG_BUCKETS = 8
ROOT_TOL = 1e-9

_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?")


# --- summaries -------------------------------------------------------------


def _svg_summary(text: str) -> tuple[list, list]:
    body = "\n".join(l for l in text.splitlines() if not l.startswith("<!-- relkit "))
    numbers = [float(x) for x in _NUMBER.findall(body)]
    skeleton = _NUMBER.sub("#", body)
    buckets = [0.0] * SVG_BUCKETS
    for i, x in enumerate(numbers):
        buckets[i % SVG_BUCKETS] += x
    size = [len(range(b, len(numbers), SVG_BUCKETS)) for b in range(SVG_BUCKETS)]
    labels = [hashlib.sha256(skeleton.encode()).hexdigest()[:16], len(numbers)]
    return labels, [[v, "svg", n] for v, n in zip(buckets, size)]


def summarize(command: str, text: str) -> dict:
    """Labels and numbers of one command's artifact."""
    if command == "plot":
        labels, nums = _svg_summary(text)
        return {"labels": labels, "nums": nums}
    doc = json.loads(text)
    labels: list = [doc["command"]]
    nums: list = []
    x = lambda v, kind="x": nums.append([v, kind])
    if command == "partition":
        labels.append(len(doc["crossings"]))
        for c in doc["crossings"]:
            x(c)
        for r in doc["regions"]:
            labels += [r["label"], r["lo_open"], r["hi_open"]]
            x(r["lo"])
            x(r["hi"])
    elif command == "check-hypotheses":
        labels += [doc["complete"], doc["partial"], doc["witness"] is None]
    elif command == "decide":
        labels += [doc["rule"], doc["decision"], doc["decision_label"]]
        x(doc["posterior_h0"])
        x(doc["posterior_h1"])
        x(doc["posterior_odds"], "ratio")
        x(doc["threshold_lo"])
        x(doc["threshold_hi"])
        post = doc["posterior"]
        labels.append(post["family"])
        for v in [*post["params"], post["mean"], post["sd"], *post["central_95"]]:
            x(v)
    elif command == "compare":
        for r in doc["results"]:
            labels += [r["procedure"], r["verdict"], r["p_value"] is None, r["bayes_factor"] is None]
            bf = r["procedure"] == "interval_bayes_factor"
            x(r["statistic"], "ratio" if bf else "x")
            for key in ("p_value", "alpha", "threshold"):
                if r[key] is not None:
                    x(r[key])
            if r["bayes_factor"] is not None:
                x(r["bayes_factor"], "ratio")
    else:
        raise ValueError(f"no summary for command {command!r}")
    return {"labels": labels, "nums": nums}


def _close(a, b, kind: str, size: int = 0) -> bool:
    if kind == "ratio":
        # None encodes an infinite ratio
        a = math.inf if a is None else a
        b = math.inf if b is None else b
        if min(a, b) > HUGE or max(a, b) < 1.0 / HUGE:
            return True
    if a is None or b is None:
        return a is b
    if kind == "svg":
        # every printed coordinate may move by one unit in its last place
        return abs(a - b) <= 0.01 * size + 1e-6
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + ABS_TOL


def compare_summary(got: dict, want: dict) -> str | None:
    """None when the summaries agree, else the first difference."""
    if got["labels"] != want["labels"]:
        return f"labels {got['labels']} != reference {want['labels']}"
    if len(got["nums"]) != len(want["nums"]):
        return f"{len(got['nums'])} numbers, reference has {len(want['nums'])}"
    for i, (g, w) in enumerate(zip(got["nums"], want["nums"])):
        if not _close(g[0], w[0], w[1], w[2] if len(w) > 2 else 0):
            return f"number {i}: {g[0]!r} vs reference {w[0]!r}"
    return None


def load_analyze_reference() -> dict:
    with gzip.open(REF_DIR / "analyze.json.gz", "rt", encoding="utf-8") as fh:
        return json.load(fh)


# --- semantic checks without a reference -----------------------------------


def _curve(params: dict, kind: str, t: float) -> float:
    if kind == "quadratic":
        return params["c"] * (t - params.get("center", 0.0)) ** 2 + params.get("offset", 0.0)
    knots = params.get("knots") or params.get("grid")
    values = params["values"]
    i = bisect.bisect_left(knots, t)
    if i < len(knots) and knots[i] == t:
        return values[i]
    if i == 0:
        return values[0]
    w = (t - knots[i - 1]) / (knots[i] - knots[i - 1])
    return values[i - 1] + w * (values[i] - values[i - 1])


def loss_delta(cfg: dict, t: float) -> float:
    """L(t, a1) - L(t, a0) for a generated configuration."""
    loss = cfg["loss"]
    if loss["kind"] == "builtin_coin_demo":
        k = 0.106 / (0.5 - 0.106)
        return k * (0.5 - abs(t)) - abs(t)
    return _curve(loss["params_a1"], loss["kind"], t) - _curve(loss["params_a0"], loss["kind"], t)


def _contains(items: list, t: float) -> bool:
    for item in items:
        if isinstance(item, (int, float)):
            if t == item:
                return True
            continue
        lo, hi = item[0], item[1]
        lo_open = len(item) == 4 and item[2]
        hi_open = len(item) == 4 and item[3]
        if (lo < t or (lo == t and not lo_open)) and (t < hi or (t == hi and not hi_open)):
            return True
    return False


def check_witness(cfg: dict, doc: dict) -> str | None:
    """A failed check must name an effect that really violates it."""
    witness = doc["witness"]
    if doc["complete"] and doc["partial"]:
        return None if witness is None else f"witness {witness} for a passing check"
    if witness is None:
        return "failed check without a witness"
    space = cfg["parameter_space"]
    if not space["lo"] <= witness <= space["hi"]:
        return f"witness {witness} outside the space"
    delta = loss_delta(cfg, witness)
    if abs(delta) <= 1e-12:
        return None  # a tie: either side of the crossing
    relevant = delta < 0.0
    h0, h1 = cfg["hypotheses"]["h0"], cfg["hypotheses"]["h1"]
    if not doc["partial"]:
        bad = _contains(h0, witness) if relevant else _contains(h1, witness)
    else:
        bad = not _contains(h1, witness) if relevant else not _contains(h0, witness)
    return None if bad else f"witness {witness} does not violate the check"


def check_mirror(command: str, low: str, high: str) -> str | None:
    """The k=0 answer of a mirrored pair must mirror the k=n answer."""
    a, b = json.loads(low), json.loads(high)
    if command == "decide":
        if a["decision"] != b["decision"]:
            return f"mirrored decisions differ: {a['decision']} vs {b['decision']}"
        pairs = [
            (a["posterior_h0"], b["posterior_h0"], "x"),
            (a["posterior_h1"], b["posterior_h1"], "x"),
            (a["posterior_odds"], b["posterior_odds"], "ratio"),
            (a["posterior"]["mean"], -b["posterior"]["mean"], "x"),
            (a["posterior"]["sd"], b["posterior"]["sd"], "x"),
        ]
    else:
        if [r["verdict"] for r in a["results"]] != [r["verdict"] for r in b["results"]]:
            return "mirrored comparator verdicts differ"
        pairs = []
        for ra, rb in zip(a["results"], b["results"]):
            if ra["p_value"] is not None:
                pairs.append((ra["p_value"], rb["p_value"], "x"))
            if ra["bayes_factor"] is not None:
                pairs.append((ra["bayes_factor"], rb["bayes_factor"], "ratio"))
    for i, (x, y, kind) in enumerate(pairs):
        if not _close(x, y, kind):
            return f"mirrored value {i}: {x!r} vs {y!r}"
    return None


# --- shipped configs -------------------------------------------------------


def check_shipped(command: str, name: str, text: str) -> str | None:
    """The published results of the shipped coin configs."""
    if command == "plot":
        return None
    doc = json.loads(text)
    if command == "partition" and name == "coin_partition":
        got = doc["crossings"]
        if len(got) != 2 or abs(got[0] + 0.106) > ROOT_TOL or abs(got[1] - 0.106) > ROOT_TOL:
            return f"coin crossings {got} are not +-0.106"
    if name == "coin_check_hypotheses" and not (doc["complete"] and doc["partial"]):
        return "coin_check_hypotheses must be complete and partial"
    if name == "coin_check_partial_only" and (doc["complete"] or not doc["partial"]):
        return "coin_check_partial_only must be partial only"
    if name == "coin_decide" and doc["decision"] != "a1":
        return f"coin_decide gave {doc['decision']}, expected a1"
    return None


def check_aspirin(doc: dict) -> str | None:
    """configs/aspirin_scenario.json: nhst rejects, the relevance-aware
    procedures settle on a0, each in at least 90% of replicates."""
    want = {
        "nhst": "reject",
        "rope": "accept_a0",
        "hypothesis_ratio": "a0",
        "tost": "equivalent",
    }
    for cell in doc["cells"]:
        verdict = want.get(cell["procedure"])
        if verdict is not None and cell["frequencies"].get(verdict, 0.0) < 0.9:
            return f"aspirin {cell['procedure']}: {verdict} rate {cell['frequencies']}"
    if {c["procedure"] for c in doc["cells"]} != set(want):
        return "aspirin scenario is missing procedures"
    return None


# --- sweeps ----------------------------------------------------------------


def load_sweep_reference(workload: str) -> dict:
    return json.loads((REF_DIR / f"{workload}.json").read_text(encoding="utf-8"))


def _binom_pmf(n: int, k: int, p: float) -> float:
    if p <= 0.0:
        return 1.0 if k == 0 else 0.0
    if p >= 1.0:
        return 1.0 if k == n else 0.0
    return math.exp(
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        + k * math.log(p) + (n - k) * math.log1p(-p)
    )


def _phi(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def exact_probabilities(ref: dict, effect: float, n: int, procedure: str) -> dict[str, float]:
    """Verdict probabilities of one sweep cell, from the verdict table.

    Binomial tables give runs of verdicts over k = 0..n; normal tables give
    ybar change points and the verdict between consecutive ones."""
    table = ref["tables"][str(n)][procedure]
    probs: dict[str, float] = {}
    if ref["family"] == "binomial":
        pi = min(max(effect + 0.5, 0.0), 1.0)
        k = 0
        for verdict, run in table:
            mass = sum(_binom_pmf(n, j, pi) for j in range(k, k + run))
            probs[verdict] = probs.get(verdict, 0.0) + mass
            k += run
        return probs
    se = ref["sigma"] / math.sqrt(n)
    cuts = [-math.inf, *table["cuts"], math.inf]
    for verdict, lo, hi in zip(table["verdicts"], cuts[:-1], cuts[1:]):
        mass = _phi((hi - effect) / se) - _phi((lo - effect) / se)
        probs[verdict] = probs.get(verdict, 0.0) + mass
    return probs


def _binom_tail(total: int, p: float, count: int) -> float:
    """P(X >= count) when count is above the mean of X ~ Bin(total, p),
    P(X <= count) when it is below, 1.0 at the mean. From ``count`` outwards
    the terms never grow, so the sum stops once they no longer matter."""
    if p <= 0.0 or p >= 1.0:
        return 1.0 if count == round(p * total) else 0.0
    if count == total * p:
        return 1.0
    step = 1 if count > total * p else -1
    tail, j = 0.0, count
    while 0 <= j <= total:
        term = _binom_pmf(total, j, p)
        tail += term
        if term == 0.0 or term < 1e-17 * tail:
            break
        j += step
    return tail


def check_sweep(ref: dict, docs: list[dict]) -> str | None:
    """Each cell's frequencies sum to 1 in every simulate run, every run has
    all procedures for each of its cells, and each verdict's count pooled
    over the run's commands is not in a tail of probability below TAIL_P of
    its exact binomial distribution (replicates are independent: every
    command has a fresh seed)."""
    if not docs:
        return "no simulate output"
    grid = {(e, n) for e in ref["true_effects"] for n in ref["sample_sizes"]}
    pooled: dict[tuple, dict[str, int]] = {}
    total: dict[tuple, int] = {}
    for doc in docs:
        procs: dict[tuple, list[str]] = {}
        for cell in doc["cells"]:
            procs.setdefault((cell["true_effect"], cell["n"]), []).append(cell["procedure"])
        for key, names in procs.items():
            if key not in grid or sorted(names) != sorted(ref["procedures"]):
                return f"simulate cell {key} has procedures {names}, expected {ref['procedures']}"
        for cell in doc["cells"]:
            freq_sum = sum(cell["frequencies"].values())
            if abs(freq_sum - 1.0) > 1e-12:
                return f"frequencies of {cell['procedure']} at n={cell['n']} sum to {freq_sum!r}"
            key = (cell["true_effect"], cell["n"], cell["procedure"])
            acc = pooled.setdefault(key, {})
            for verdict, f in cell["frequencies"].items():
                acc[verdict] = acc.get(verdict, 0) + round(f * cell["replicates"])
            total[key] = total.get(key, 0) + cell["replicates"]
    for key, counts in sorted(pooled.items()):
        effect, n, proc = key
        probs = exact_probabilities(ref, effect, n, proc)
        for verdict in sorted(set(probs) | set(counts)):
            p = min(max(probs.get(verdict, 0.0), 0.0), 1.0)
            count = counts.get(verdict, 0)
            tail = _binom_tail(total[key], p, count)
            if tail < TAIL_P:
                return (
                    f"{proc} at effect {effect}, n={n}: {verdict} in {count} of "
                    f"{total[key]} replicates, exact rate {p:.4f} (tail {tail:.2g})"
                )
    return None
