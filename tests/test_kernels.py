"""The bound procedures of `simulate`, `compare` and `decide`.

A bind step checks the settings once and returns a kernel, (model,
posterior) -> (verdict, report). The kernel runs the same private rule as
the procedure's public function, and report() builds the result that
function gives, so a kernel's verdict and report must equal the public
result field by field, and a kernel must raise what the function raises.
A setting that a check refuses raises at bind, with the function's class
and message, and `compare`, `decide` and `simulate` exit 2 on it.
The sweep takes the SeedSequence hash of a cell's replicates a block at a
time; each replicate's stream must be the one the list of its words seeds.
"""

import json
import math
import random
import struct

import numpy as np
import pytest

import relkit.simulate as sim
from relkit.cli import main
from relkit.comparators import (
    ComparatorResult,
    interval_bayes_factor,
    nhst_point_null,
    rope_decision,
    tost_equivalence,
)
from relkit.decisions import (
    DecisionOutcome,
    LossRatio,
    bayes_two_action_decision,
    expected_loss_decision,
)
from relkit.config import load_config
from relkit.errors import NumericalError, RelkitError
from relkit.hypotheses import derive_hypotheses
from relkit.inference import BinomialModel, NormalKnownVarModel, posterior_update
from relkit.loss import CurveKnots, LossSpec, ParameterSpace, coin_demo_loss
from relkit.regions import RegionSet, partition, region_hull

from conftest import CONFIG_DIR, shipped_scenario


def _loss(lo, hi):
    """A piecewise-linear V-shaped loss on [lo, hi]: negligible near 0."""
    knots = (lo, 0.0, hi)
    return LossSpec(
        space=ParameterSpace(lo, hi),
        kind="piecewise_linear",
        params_a0=CurveKnots(knots=knots, values=(abs(lo), 0.0, hi)),
        params_a1=CurveKnots(knots=knots, values=(0.0, 0.25 * hi, 0.0)),
    )


def _outcome(fn):
    """fn()'s value, or the class and message of the RelkitError it raised."""
    try:
        return fn()
    except RelkitError as exc:
        return type(exc), str(exc)


def _public(name, settings, model, post, loss, pair):
    """The public function of procedure ``name`` on one model: a
    ComparatorResult, or a decision rule's DecisionOutcome."""
    if name == "nhst":
        return nhst_point_null(model, settings["alpha"])
    if name == "tost":
        return tost_equivalence(model, settings["bounds"], settings["alpha"])
    if name == "rope":
        return rope_decision(post(), RegionSet.single(*settings["rope"]), settings["mass"])
    if name == "hypothesis_ratio":
        return bayes_two_action_decision(post(), pair, settings["loss_ratio"])
    if name == "expected_loss":
        return expected_loss_decision(post(), loss)
    if settings["prior"] is not None:
        return interval_bayes_factor(model, pair, settings["prior"], settings["threshold"])
    return interval_bayes_factor(model, pair, threshold=settings["threshold"])


def _settings(name, loss, family):
    """Settings off the defaults, as the public functions take them."""
    hull = region_hull(partition(loss).negligible)
    prior = (2.0, 3.0) if family == "binomial" else (0.01, 0.03)
    return {
        "nhst": {"alpha": 0.01},
        "tost": {"alpha": 0.1, "bounds": (hull.lo, hull.hi)},
        "rope": {"mass": 0.9, "rope": (hull.lo, hull.hi)},
        "hypothesis_ratio": {"loss_ratio": LossRatio(0.5, 2.0)},
        "expected_loss": {},
        "bayes_factor_own": {"prior": None, "threshold": 3.0},
        "bayes_factor_prior": {"prior": prior, "threshold": 3.0},
    }[name]


def _config_settings(name, settings, family):
    """The same settings as a config writes them."""
    out = {}
    for key, value in settings.items():
        if isinstance(value, LossRatio):
            value = [value.lo, value.hi]
        elif key == "prior" and value is not None:
            keys = ("alpha", "beta") if family == "binomial" else ("mean", "sd")
            value = dict(zip(keys, value))
        elif isinstance(value, tuple):
            value = list(value)
        if value is not None:
            out[key] = value
    return out


def _models(family, space, rng):
    """Seeded models: posteriors inside the space, 5 to 30 sd beyond an
    end, and near-point masses."""
    lo, hi = space.lo, space.hi
    if family == "binomial":
        for n in (20, 100, 1000, 10**5):
            for _ in range(4):
                yield BinomialModel(n=n, k=rng.randrange(n + 1))
        for _ in range(8):
            n = rng.choice((400, 1000, 5000))
            end, sign = rng.choice(((lo, -1.0), (hi, 1.0)))
            mean = 0.5 + end + sign * rng.uniform(5.0, 30.0) * math.sqrt(0.25 / n)
            k = min(max(round(mean * n), 0), n)
            yield BinomialModel(n=n, k=k)
        for _ in range(4):
            k = round(10**6 * rng.uniform(0.45, 0.55))
            yield BinomialModel(n=10**6, k=k, prior_alpha=2.0, prior_beta=2.0)
        return
    for n in (50, 22000):
        for scale in (0.05, 0.05, 1.0, 1.0):
            ybar = scale * rng.uniform(lo, hi)
            yield NormalKnownVarModel(n=n, ybar=ybar, sigma=0.2, prior_mean=0.0, prior_sd=0.05)
    for _ in range(8):
        n = rng.choice((400, 22000))
        end, sign = rng.choice(((lo, -1.0), (hi, 1.0)))
        ybar = end + sign * rng.uniform(5.0, 30.0) * 0.2 / math.sqrt(n)
        yield NormalKnownVarModel(n=n, ybar=ybar, sigma=0.2, prior_mean=0.0, prior_sd=0.5)
    for _ in range(4):
        yield NormalKnownVarModel(
            n=10**12, ybar=rng.uniform(lo, hi), sigma=0.2, prior_mean=0.0, prior_sd=0.05
        )


PROCEDURE_CASES = [
    "nhst", "tost", "rope", "hypothesis_ratio", "expected_loss",
    "bayes_factor_own", "bayes_factor_prior",
]
LOSSES = {
    "binomial": {"coin": coin_demo_loss, "narrow": lambda: _loss(-0.2, 0.2)},
    "normal": {"aspirin": lambda: _loss(-0.1, 0.1), "wide": lambda: _loss(-0.3, 0.3)},
}


@pytest.mark.parametrize(
    "family, loss_name, case",
    [
        (family, name, case)
        for family, losses in LOSSES.items()
        for name in losses
        for case in PROCEDURE_CASES
        if family == "normal" or case != "tost"  # tost takes the normal model only
    ],
)
def test_kernel_matches_the_public_function(family, loss_name, case):
    loss = LOSSES[family][loss_name]()
    pair = derive_hypotheses(partition(loss))
    settings = _settings(case, loss, family)
    name = "bayes_factor" if case.startswith("bayes_factor") else case
    proc = sim.ProcedureSpec(name, _config_settings(name, settings, family))
    kernel = sim.bind_procedure(proc, family, loss, pair).kernel
    rng = random.Random(f"{family}-{loss_name}-{case}")
    seen = set()
    for model in _models(family, loss.space, rng):
        want = _outcome(
            lambda: _public(
                name, settings, model, lambda: posterior_update(model, loss.space), loss, pair
            )
        )
        posterior = sim._shared_posterior(model, loss.space)

        def run():
            verdict, report = kernel(model, posterior)
            return verdict, report()

        got = _outcome(run)
        if isinstance(want, (ComparatorResult, DecisionOutcome)):
            verdict = want.verdict if isinstance(want, ComparatorResult) else want.decision
            assert got == (verdict, want), (model, got, want)
            seen.add(verdict)
        else:
            assert got == want, model
            seen.add(want[0])
    # the models reach more than one outcome
    assert len(seen) > 1, seen


def test_detail_texts_of_the_tests():
    """The detail each test's result carries, built only in a report."""
    assert nhst_point_null(BinomialModel(n=20, k=14), 0.05).detail == (
        "exact binomial test of pi=0.5 with k=14, n=20"
    )
    normal = NormalKnownVarModel(n=100, ybar=0.05, sigma=0.2)
    assert nhst_point_null(normal, 0.05).detail == "z-test of a zero mean, z=2.5"
    assert tost_equivalence(normal, (-0.02, 0.02), 0.05).detail == (
        "one-sided z-tests against bounds (-0.02, 0.02)"
    )


ASPIRIN_KNOTS = [-0.1, 0.0, 0.1]

# The settings that a check refuses, each as (the config's loss section, or
# None for the aspirin loss; the procedure entry; the hypotheses section, or
# None for the partition's pair; (model, posterior, pair) -> the public
# function's call on those settings, which raises).
REFUSED = {
    # a1 never loses to a0 and ties it only at 0: the negligible region is
    # the single point 0, so its hull is degenerate
    "tost_on_a_single_point_hull": (
        {
            "kind": "piecewise_linear",
            "params_a0": {"knots": ASPIRIN_KNOTS, "values": [0.1, 0.0, 0.1]},
            "params_a1": {"knots": ASPIRIN_KNOTS, "values": [0.0, 0.0, 0.0]},
        },
        {"procedure": "tost"},
        None,
        lambda model, post, pair: tost_equivalence(model, (0.0, 0.0), 0.05),
    ),
    "rope_outside_the_space": (
        None,
        {"procedure": "rope", "rope": [-0.5, 0.05]},
        None,
        lambda model, post, pair: rope_decision(post, RegionSet.single(-0.5, 0.05), 0.95),
    ),
    "pair_not_covering_the_space": (
        None,
        {"procedure": "hypothesis_ratio"},
        {"h0": [[-0.02, 0.02, False, False]], "h1": [[0.05, 0.1, False, False]]},
        lambda model, post, pair: bayes_two_action_decision(post, pair, LossRatio.scalar(1.0)),
    ),
    # H1 lies 200 prior sd from the prior mean, where its mass is 0
    "bayes_factor_prior_without_h1_mass": (
        None,
        {"procedure": "bayes_factor", "prior": {"mean": 0.0, "sd": 1e-4}},
        None,
        lambda model, post, pair: interval_bayes_factor(model, pair, (0.0, 1e-4)),
    ),
}


def _aspirin_doc(case):
    """The aspirin scenario config with the case's loss and hypotheses, a
    model section, and the case's procedure in both lists."""
    loss, entry, hypotheses, _ = REFUSED[case]
    doc = json.loads((CONFIG_DIR / "aspirin_scenario.json").read_text(encoding="utf-8"))
    doc["loss"] = loss or doc["loss"]
    if hypotheses is not None:
        doc["hypotheses"] = hypotheses
    doc["model"] = {
        "family": "normal",
        "sigma": 0.2,
        "data": {"n": 22000, "ybar": 0.0077},
        "prior": {"mean": 0.0, "sd": 0.05},
    }
    # compare runs a posterior procedure first
    doc["comparators"] = [{"procedure": "expected_loss"}, entry]
    doc["scenario"].update(replicates=3, procedures=[{"procedure": "nhst"}, entry])
    return doc


def _refusal(case, tmp_path):
    """(config path, the class and message the public function raises)."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_aspirin_doc(case)), encoding="utf-8")
    cfg = load_config(path)
    pair = cfg.hypotheses or derive_hypotheses(partition(cfg.loss))
    with pytest.raises(RelkitError) as want:
        REFUSED[case][3](cfg.model, posterior_update(cfg.model, cfg.loss.space), pair)
    return str(path), (type(want.value), str(want.value))


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_refused_setting_raises_at_bind_what_the_function_raises(case, tmp_path):
    path, want = _refusal(case, tmp_path)
    cfg = load_config(path)
    pair = cfg.hypotheses or derive_hypotheses(partition(cfg.loss))
    with pytest.raises(RelkitError) as got:
        sim.bind_procedure(cfg.comparators[1], "normal", cfg.loss, pair)
    assert (type(got.value), str(got.value)) == want


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_compare_refuses_the_setting_before_any_posterior(case, tmp_path, capsys, monkeypatch):
    path, (_, message) = _refusal(case, tmp_path)

    def failing(model, space):
        raise NumericalError("no posterior")

    # a posterior built before the check, for this comparator or the one
    # listed before it, would exit 3 with its own error
    monkeypatch.setattr(sim, "posterior_update", failing)
    code = main(["compare", "--config", path])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert message in err


def test_decide_refuses_the_setting_before_any_posterior(tmp_path, capsys, monkeypatch):
    path, (_, message) = _refusal("pair_not_covering_the_space", tmp_path)
    doc = json.loads((tmp_path / "cfg.json").read_text(encoding="utf-8"))
    doc["decision"] = {"rule": "hypothesis_ratio", "loss_ratio": 1.0}
    (tmp_path / "cfg.json").write_text(json.dumps(doc), encoding="utf-8")

    def failing(model, space):
        raise NumericalError("no posterior")

    monkeypatch.setattr(sim, "posterior_update", failing)
    code = main(["decide", "--config", path])
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", f"relkit: error: {message}\n")


# simulate always takes the partition's pair, which covers the space
@pytest.mark.parametrize("case", sorted(c for c in REFUSED if REFUSED[c][2] is None))
def test_simulate_refuses_the_setting_and_writes_nothing(case, tmp_path, capsys):
    path, (_, message) = _refusal(case, tmp_path)
    before = sorted(tmp_path.iterdir())
    code = main(["simulate", "--config", path, "--output", str(tmp_path / "rates.csv")])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert message in err
    assert sorted(tmp_path.iterdir()) == before


def test_simulate_refuses_a_scenario_prior_without_mass_before_any_draw(
    tmp_path, capsys, monkeypatch
):
    # a Bayes factor without a prior of its own takes the scenario's, which
    # here gives H1 no mass: refused as the same prior given as its own is
    doc = json.loads((CONFIG_DIR / "aspirin_scenario.json").read_text(encoding="utf-8"))
    doc["scenario"].update(
        prior={"mean": 0.0, "sd": 1e-4},
        procedures=[{"procedure": "nhst"}, {"procedure": "bayes_factor"}],
    )
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    cfg = load_config(path)
    pair = derive_hypotheses(partition(cfg.loss))
    with pytest.raises(RelkitError) as want:
        interval_bayes_factor(NormalKnownVarModel(22000, 0.0077, 0.2, 0.0, 1e-4), pair)

    def drawing(*args):
        raise AssertionError("a replicate was drawn")

    monkeypatch.setattr(sim, "_cell_rng", drawing)
    with pytest.raises(RelkitError) as got:
        sim.run_operating_characteristics(cfg.scenario)
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))
    before = sorted(tmp_path.iterdir())
    code = main(["simulate", "--config", str(path), "--output", str(tmp_path / "rates.csv")])
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", f"relkit: error: {want.value}\n")
    assert sorted(tmp_path.iterdir()) == before


def test_sweep_reports_are_not_built(monkeypatch):
    """A sweep keeps only the verdict: no report is called."""
    scenario = shipped_scenario("aspirin_scenario", replicates=5)
    table = sim.run_operating_characteristics(scenario)
    calls = []
    bind = sim.bind_procedure

    def counting(proc, family, loss, pair):
        bound = bind(proc, family, loss, pair)

        def counted(model, posterior):
            verdict, report = bound.kernel(model, posterior)
            return verdict, lambda: calls.append(proc.name) or report()

        return bound._replace(kernel=counted)

    monkeypatch.setattr(sim, "bind_procedure", counting)
    assert sim.run_operating_characteristics(scenario) == table
    assert calls == []


def _bits(effect):
    return int.from_bytes(struct.pack("<d", effect + 0.0), "little")


@pytest.mark.parametrize(
    "seed, effect, n, replicate",
    [
        (0, 0.0, 1, 0),
        (19880128, 0.0077, 22000, 499),
        (2**64, 0.3, 25, 3),
        (2**64 + 2**32 + 7, -0.106, 1000, 47),
        (3 * 2**100 + 1, -0.0, 100, 2**32),
        (2**53, 5e-324, 2**63 - 1, 2**40 + 3),
        (12345, -0.5, 2**32, 0),
    ],
)
def test_cell_stream_is_the_seed_sequence_of_the_listed_words(seed, effect, n, replicate):
    want = np.random.default_rng(np.random.SeedSequence([seed, _bits(effect), n, replicate]))
    # the replicate inside a block of the sweep's hash, not at its start
    start = max(0, replicate - 2)
    got = list(sim._cell_rng(seed, effect, n)(start, replicate + 3))[replicate - start]
    assert got.bit_generator.state == want.bit_generator.state
    assert got.integers(0, 2**63, 16).tolist() == want.integers(0, 2**63, 16).tolist()
    assert got.normal(effect, 0.2, 4).tolist() == want.normal(effect, 0.2, 4).tolist()


def _scan_cells():
    """Seeded (seed, effect, n, start, stop) cells: a seed of every width
    from 1 to 130 bits, effects and sizes at their edges, and blocks of
    replicates near 0, across 2**32 (the replicate's second word), from
    above 2**64 (its third) and anywhere below 2**64, some of a single
    replicate and some longer than the hash block."""
    rnd = random.Random(18)
    for width in range(1, 131):
        seed = rnd.getrandbits(width) | 1 << (width - 1)
        effect = rnd.choice([0.0, -0.0, 5e-324, rnd.uniform(-0.5, 0.5)])
        n = rnd.choice([1, 2**32, 2**63 - 1, rnd.randrange(1, 2**40)])
        length = rnd.randrange(129, 300) if width % 10 == 0 else rnd.randrange(1, 40)
        start = [
            rnd.randrange(1000),
            2**32 - rnd.randrange(1, 30),
            2**64 + rnd.randrange(2**33),
            rnd.randrange(2**64),
        ][width % 4]
        if width % 4 == 1:
            length = max(length, 2**32 - start + 1)
        yield seed, effect, n, start, start + length


def test_block_streams_match_the_seed_sequence_over_a_seeded_scan():
    cells = list(_scan_cells())
    assert {seed.bit_length() for seed, *_ in cells} == set(range(1, 131))
    effects = {(effect, math.copysign(1.0, effect)) for _, effect, *_ in cells}
    assert {(0.0, 1.0), (0.0, -1.0), (5e-324, 1.0)} <= effects
    assert {1, 2**32, 2**63 - 1} <= {n for _, _, n, *_ in cells}
    assert any(start < 2**32 < stop for *_, start, stop in cells)
    assert any(start > 2**64 for *_, start, _ in cells)
    # a replicate alone is hashed in ints, a longer block in arrays
    assert any(stop - start == 1 for *_, start, stop in cells)
    assert any(stop - start > sim.HASH_BLOCK for *_, start, stop in cells)
    cases = 0
    for seed, effect, n, start, stop in cells:
        got = sim._cell_rng(seed, effect, n)(start, stop)
        for r, rng in zip(range(start, stop), got, strict=True):
            want = np.random.default_rng(np.random.SeedSequence([seed, _bits(effect), n, r]))
            assert rng.bit_generator.state == want.bit_generator.state, (seed, effect, n, r)
            cases += 1
    assert cases >= 2000


def test_negative_zero_draws_the_zero_stream():
    a = [rng.integers(0, 2**63, 4).tolist() for rng in sim._cell_rng(7, -0.0, 10)(0, 5)]
    assert a == [rng.integers(0, 2**63, 4).tolist() for rng in sim._cell_rng(7, 0.0, 10)(0, 5)]


def test_negative_seed_is_refused_as_numpy_refuses_it():
    with pytest.raises(ValueError) as want:
        np.random.SeedSequence([-1, 0, 1, 0])
    with pytest.raises(ValueError) as got:
        next(sim._cell_rng(-1, 0.0, 1)(0, 1))
    assert str(got.value) == str(want.value)


def test_dataset_of_one_replicate_matches_the_sweep_draw():
    scenario = shipped_scenario("aspirin_scenario", replicates=4)
    rng = np.random.default_rng(np.random.SeedSequence([scenario.seed, _bits(0.0077), 22000, 2]))
    ybar = float(rng.normal(0.0077, 0.2 / math.sqrt(22000)))
    assert sim.simulate_dataset(scenario, 0.0077, 22000, 2) == sim.NormalDraw(22000, ybar, 0.2)
