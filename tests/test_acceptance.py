"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance and threshold is fixed here, not configurable.
"""

import json
import math
import random
import time
from contextlib import contextmanager

from relkit.cli import main as cli_main
from relkit.decisions import LossRatio, bayes_two_action_decision, decide_from_odds
from relkit.hypotheses import (
    HypothesisPair,
    check_complete,
    check_partial,
    derive_hypotheses,
)
from relkit.inference import (
    BinomialModel,
    NormalKnownVarModel,
    PosteriorModel,
    posterior_region_prob,
    posterior_update,
)
from relkit.loss import ParameterSpace
from relkit.regions import (
    Interval,
    RegionSet,
    is_practically_relevant,
    partition,
    region_contains,
)
from relkit.simulate import ProcedureSpec, run_operating_characteristics

import oracles
from conftest import BIAS_SPACE, CONFIG_DIR, random_loss_spec, shipped_scenario


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {label}: FAIL")
        raise
    print(f"[acceptance] {label}: PASS")


def test_c1_coin_partition_reproduction(coin_spec):
    with criterion("C1 coin partition reproduction"):
        start = time.perf_counter()
        part = partition(coin_spec)
        elapsed = time.perf_counter() - start

        assert len(part.crossings) == 2
        assert abs(part.crossings[0] + 0.106) <= 1e-6
        assert abs(part.crossings[1] - 0.106) <= 1e-6

        (neg,) = part.negligible.intervals
        assert abs(neg.lo + 0.106) <= 1e-6 and abs(neg.hi - 0.106) <= 1e-6
        assert not neg.lo_open and not neg.hi_open

        left, right = part.relevant.intervals
        assert (left.lo, left.lo_open) == (-0.5, False)
        assert abs(left.hi + 0.106) <= 1e-6 and left.hi_open
        assert abs(right.lo - 0.106) <= 1e-6 and right.lo_open
        assert (right.hi, right.hi_open) == (0.5, False)

        assert elapsed < 1.0, f"partition took {elapsed:.3f}s"


def test_c2_definition_2_verdicts(coin_spec):
    with criterion("C2 complete/partial verdicts"):
        start = time.perf_counter()
        published = HypothesisPair(
            h0=RegionSet.single(-0.106, 0.106),
            h1=RegionSet(
                (
                    Interval(-0.5, -0.106, hi_open=True),
                    Interval(0.106, 0.5, lo_open=True),
                )
            ),
        )
        singletons = HypothesisPair(h0=RegionSet.point(0.0), h1=RegionSet.point(0.3))

        assert check_complete(published, coin_spec).ok
        assert check_partial(published, coin_spec).ok
        assert not check_complete(singletons, coin_spec).ok
        assert check_partial(singletons, coin_spec).ok
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"verdicts took {elapsed:.3f}s"


def _shrunk_pair(part, margin):
    def shrink(region):
        kept = []
        for itv in region.intervals:
            lo, hi = itv.lo + margin, itv.hi - margin
            if lo < hi:
                kept.append(Interval(lo, hi))
        return RegionSet(tuple(kept))

    return HypothesisPair(h0=shrink(part.negligible), h1=shrink(part.relevant))


def test_c3_complete_implies_partial_battery():
    with criterion("C3 implication property over 1000+ instances"):
        rng = random.Random(160493)
        instances = 0
        partial_not_complete = 0
        while instances < 1000:
            spec = random_loss_spec(rng)
            part = partition(spec)
            pairs = [derive_hypotheses(part), _shrunk_pair(part, margin=0.03)]
            if not part.negligible.is_empty and not part.relevant.is_empty:
                pairs.append(HypothesisPair(h0=part.relevant, h1=part.negligible))
            for pair in pairs:
                complete_ok, _ = check_complete(pair, spec)
                partial_ok, _ = check_partial(pair, spec)
                instances += 1
                assert not (complete_ok and not partial_ok), (
                    "counterexample: complete pair failing the partial check"
                )
                if partial_ok and not complete_ok:
                    partial_not_complete += 1
        assert instances >= 1000
        assert partial_not_complete >= 1


def test_c4_partition_oracle_equivalence():
    with criterion("C4 partition agrees with the pointwise rule (100 specs)"):
        start = time.perf_counter()
        rng = random.Random(271828)
        tol = 1e-9
        for _ in range(100):
            spec = random_loss_spec(rng)
            part = partition(spec)
            for _ in range(10_000):
                theta = rng.uniform(spec.space.lo, spec.space.hi)
                if any(abs(theta - c) <= tol for c in part.crossings):
                    continue
                in_rel = region_contains(part.relevant, theta)
                in_neg = region_contains(part.negligible, theta)
                assert in_rel != in_neg, f"not a partition at {theta}"
                assert in_rel == is_practically_relevant(spec, theta), (
                    f"oracle disagreement at {theta}"
                )
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"oracle sweep took {elapsed:.1f}s"


def _binomial_triple(rng):
    alpha, beta = rng.uniform(0.7, 25.0), rng.uniform(0.7, 25.0)
    n = rng.randint(0, 300)
    k = rng.randint(0, n) if n else 0
    return BinomialModel(n=n, k=k, prior_alpha=alpha, prior_beta=beta), BIAS_SPACE


def _normal_triple(rng):
    prior_mean, prior_sd = rng.uniform(-1.0, 1.0), rng.uniform(0.2, 2.0)
    sigma, n = rng.uniform(0.2, 2.0), rng.randint(1, 400)
    ybar = rng.uniform(-1.5, 1.5)
    model = NormalKnownVarModel(
        n=n, ybar=ybar, sigma=sigma, prior_mean=prior_mean, prior_sd=prior_sd
    )
    return model, ParameterSpace(-5.0, 5.0)


def test_c5_conjugacy_matches_quadrature():
    with criterion("C5 closed-form region probabilities vs quadrature (200 triples)"):
        rng = random.Random(66260)
        for i in range(200):
            model, space = _binomial_triple(rng) if i % 2 == 0 else _normal_triple(rng)
            lo, hi = space.lo, space.hi
            margin = 0.02 * (hi - lo)
            a = rng.uniform(lo + margin, hi - margin)
            b = rng.uniform(lo + margin, hi - margin)
            if a > b:
                a, b = b, a
            if a == b:
                b = min(hi - margin, a + 0.01)
            region = RegionSet((Interval(a, b),))

            want = oracles.region_prob_by_quadrature(model, space, a, b)
            closed = posterior_region_prob(posterior_update(model, space), region)
            assert abs(closed - want) <= 1e-6, (
                f"triple {i}: closed {closed} vs quadrature {want}"
            )


def test_c6_decision_rule_properties():
    with criterion("C6 decision-rule properties over 1000+ instances"):
        rng = random.Random(35360)

        for _ in range(1000):
            odds = rng.lognormvariate(0.0, 2.0)
            ladder = sorted(rng.lognormvariate(0.0, 2.0) for _ in range(5))
            previous = None
            for ratio in ladder:
                decision = decide_from_odds(odds, LossRatio.scalar(ratio))
                if previous == "a0":
                    assert decision == "a0", "monotonicity violated"
                previous = decision
            r = rng.lognormvariate(0.0, 2.0)
            assert decide_from_odds(odds, LossRatio(r, r)) == decide_from_odds(
                odds, LossRatio.scalar(r)
            ), "degenerate interval differed from the scalar rule"

        space = ParameterSpace(-2.0, 2.0)
        pair = HypothesisPair(
            h0=RegionSet.single(-2.0, 0.0),
            h1=RegionSet.single(0.0, 2.0, lo_open=True),
        )
        inconsistencies = 0
        for _ in range(1000):
            post = PosteriorModel(
                "normal", (rng.uniform(-1.5, 1.5), rng.uniform(0.1, 1.0)), space
            )
            lo = rng.lognormvariate(0.0, 1.0)
            hi = lo * (1.0 + rng.random() * 3.0)
            interval = bayes_two_action_decision(post, pair, LossRatio(lo, hi))
            at_lo, at_hi = (
                bayes_two_action_decision(post, pair, LossRatio.scalar(r)).decision
                for r in (lo, hi)
            )
            want = at_lo if at_lo == at_hi else "indeterminate"
            inconsistencies += interval.decision != want
        assert inconsistencies == 0


def test_c7_aspirin_paradox_at_desk_scale():
    with criterion("C7 aspirin paradox thresholds (500 replicates)"):
        start = time.perf_counter()
        table = run_operating_characteristics(
            shipped_scenario("aspirin_scenario", replicates=500)
        )
        elapsed = time.perf_counter() - start

        rates = {
            (cell.procedure, verdict): freq
            for cell in table.cells
            for verdict, freq in cell.frequencies.items()
        }
        assert rates.get(("nhst", "reject"), 0.0) >= 0.8
        assert rates.get(("rope", "accept_a0"), 0.0) >= 0.95
        assert rates.get(("hypothesis_ratio", "a0"), 0.0) >= 0.95
        assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"


def test_c8_exact_test_validity_at_the_null():
    with criterion("C8 exact-test rejection rate at b=0 (2000 replicates)"):
        scenario = shipped_scenario(
            "coin_scenario",
            true_effects=(0.0,),
            sample_sizes=(100,),
            replicates=2000,
            procedures=(ProcedureSpec("nhst", {"alpha": 0.05}),),
        )
        table = run_operating_characteristics(scenario)
        (cell,) = [c for c in table.cells if c.procedure == "nhst"]
        rate = cell.frequencies.get("reject", 0.0)
        bound = 0.05 + 3.0 * math.sqrt(0.05 * 0.95 / 2000)
        assert rate <= bound, f"rejection rate {rate} above {bound}"


def test_c9_rerun_determinism(tmp_path, capsys):
    with criterion("C9 byte-identical artifacts on re-run"):
        runs = {}
        for tag in ("first", "second"):
            out_dir = tmp_path / tag
            out_dir.mkdir()
            jobs = [
                (
                    ["partition", "--config", str(CONFIG_DIR / "coin_partition.json"),
                     "--output", str(out_dir / "partition.json")],
                    [out_dir / "partition.json"],
                ),
                (
                    ["partition", "--config", str(CONFIG_DIR / "coin_partition.json"),
                     "--format", "csv", "--output", str(out_dir / "partition.csv")],
                    [out_dir / "partition.csv"],
                ),
                (
                    ["check-hypotheses",
                     "--config", str(CONFIG_DIR / "coin_check_hypotheses.json"),
                     "--output", str(out_dir / "verdicts.json")],
                    [out_dir / "verdicts.json"],
                ),
                (
                    ["simulate", "--config", str(CONFIG_DIR / "aspirin_scenario.json"),
                     "--output", str(out_dir / "rates.csv")],
                    [out_dir / "rates.csv", out_dir / "rates.json"],
                ),
            ]
            artifacts = []
            for argv, outputs in jobs:
                assert cli_main(argv) == 0
                artifacts.extend(path.read_bytes() for path in outputs)
            runs[tag] = artifacts
            capsys.readouterr()
        assert runs["first"] == runs["second"]

        verdicts = json.loads((tmp_path / "first" / "verdicts.json").read_text())
        assert verdicts["complete"] is True and verdicts["partial"] is True
