"""The bound procedures of `simulate`, `compare` and `decide`.

A bind step checks the settings once and returns a kernel, (model,
posterior) -> (verdict, report, coords), for models of the prior it was
bound to. The kernel runs the same private rule as the procedure's public
function, and report() builds the result that function gives, so a
kernel's verdict and report must equal the public result field by field,
and a kernel must raise what the function raises.
A setting that a check refuses raises at bind, with the function's class
and message, and `compare`, `decide` and `simulate` exit 2 on it.
The sweep draws a cell's replicates a block at a time, each block in one
numpy call; each replicate must be the one the README's formula gives in
plain numpy.
"""

import dataclasses
import json
import math
import random
import struct

import numpy as np
import pytest

import relkit.cli as cli
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
    return interval_bayes_factor(model, pair, threshold=settings["threshold"])


def _settings(name, loss):
    """Settings off the defaults, as the public functions take them."""
    hull = region_hull(partition(loss).negligible)
    return {
        "nhst": {"alpha": 0.01},
        "tost": {"alpha": 0.1, "bounds": (hull.lo, hull.hi)},
        "rope": {"mass": 0.9, "rope": (hull.lo, hull.hi)},
        "hypothesis_ratio": {"loss_ratio": LossRatio(0.5, 2.0)},
        "expected_loss": {},
        "bayes_factor_own": {"threshold": 3.0},
    }[name]


def _config_settings(settings):
    """The same settings as a config writes them."""
    out = {}
    for key, value in settings.items():
        if isinstance(value, LossRatio):
            value = [value.lo, value.hi]
        elif isinstance(value, tuple):
            value = list(value)
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
    "nhst", "tost", "rope", "hypothesis_ratio", "expected_loss", "bayes_factor_own",
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
    settings = _settings(case, loss)
    name = "bayes_factor" if case.startswith("bayes_factor") else case
    proc = sim.ProcedureSpec(name, _config_settings(settings))
    rng = random.Random(f"{family}-{loss_name}-{case}")
    models = list(_models(family, loss.space, rng))
    # one kernel per model prior, bound under it as every command binds:
    # the list holds models of several priors
    priors = {tuple(vars(model).values())[-2:] for model in models}
    assert len(priors) > 1
    kernels = {
        prior: sim.bind_procedure(proc, family, loss, pair, prior).kernel for prior in priors
    }
    seen = set()
    for model in models:
        kernel = kernels[tuple(vars(model).values())[-2:]]
        want = _outcome(
            lambda: _public(
                name, settings, model, lambda: posterior_update(model, loss.space), loss, pair
            )
        )
        posterior = sim._shared_posterior(model, loss.space)

        def run():
            verdict, report, _ = kernel(model, posterior)
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
# None for the partition's pair; the prior of the model and the scenario, or
# None for Normal(0, 0.05); (model, posterior, pair) -> the public function's
# call on those settings, which raises).
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
        None,
        lambda model, post, pair: tost_equivalence(model, (0.0, 0.0), 0.05),
    ),
    "rope_outside_the_space": (
        None,
        {"procedure": "rope", "rope": [-0.5, 0.05]},
        None,
        None,
        lambda model, post, pair: rope_decision(post, RegionSet.single(-0.5, 0.05), 0.95),
    ),
    "pair_not_covering_the_space": (
        None,
        {"procedure": "hypothesis_ratio"},
        {"h0": [[-0.02, 0.02, False, False]], "h1": [[0.05, 0.1, False, False]]},
        None,
        lambda model, post, pair: bayes_two_action_decision(post, pair, LossRatio.scalar(1.0)),
    ),
    # H1 lies 200 prior sd from the prior mean, where its mass is 0
    "bayes_factor_prior_without_h1_mass": (
        None,
        {"procedure": "bayes_factor"},
        None,
        {"mean": 0.0, "sd": 1e-4},
        lambda model, post, pair: interval_bayes_factor(model, pair),
    ),
}


def _aspirin_doc(case):
    """The aspirin scenario config with the case's loss and hypotheses, a
    model section, and the case's procedure in both lists."""
    loss, entry, hypotheses, prior, _ = REFUSED[case]
    prior = prior or {"mean": 0.0, "sd": 0.05}
    doc = json.loads((CONFIG_DIR / "aspirin_scenario.json").read_text(encoding="utf-8"))
    doc["loss"] = loss or doc["loss"]
    if hypotheses is not None:
        doc["hypotheses"] = hypotheses
    doc["model"] = {
        "family": "normal",
        "sigma": 0.2,
        "data": {"n": 22000, "ybar": 0.0077},
        "prior": prior,
    }
    # compare runs a posterior procedure first
    doc["comparators"] = [{"procedure": "expected_loss"}, entry]
    doc["scenario"].update(replicates=3, prior=prior, procedures=[{"procedure": "nhst"}, entry])
    return doc


def _refusal(case, tmp_path):
    """(config path, the class and message the public function raises)."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_aspirin_doc(case)), encoding="utf-8")
    cfg = load_config(path)
    pair = cfg.hypotheses or derive_hypotheses(partition(cfg.loss))
    with pytest.raises(RelkitError) as want:
        REFUSED[case][4](cfg.model, posterior_update(cfg.model, cfg.loss.space), pair)
    return str(path), (type(want.value), str(want.value))


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_refused_setting_raises_at_bind_what_the_function_raises(case, tmp_path):
    path, want = _refusal(case, tmp_path)
    cfg = load_config(path)
    pair = cfg.hypotheses or derive_hypotheses(partition(cfg.loss))
    with pytest.raises(RelkitError) as got:
        prior = tuple(vars(cfg.model).values())[-2:]
        sim.bind_procedure(cfg.comparators[1], "normal", cfg.loss, pair, prior)
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
    # the Bayes factor takes the scenario's prior, which here gives H1 no
    # mass: refused before the first draw
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

    monkeypatch.setattr(sim, "_draw_block", drawing)
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

    def counting(proc, family, loss, pair, prior):
        bound = bind(proc, family, loss, pair, prior)

        def counted(model, posterior):
            verdict, report, coords = bound.kernel(model, posterior)
            return verdict, lambda: calls.append(proc.name) or report(), coords

        return bound._replace(kernel=counted)

    monkeypatch.setattr(sim, "bind_procedure", counting)
    assert sim.run_operating_characteristics(scenario) == table
    assert calls == []


def test_a_bound_kernel_takes_only_models_of_its_bound_prior(monkeypatch, tmp_path, capsys):
    """compare, decide and simulate on every shipped config: each model a
    kernel takes holds the prior the kernel was bound to, so a Bayes factor
    takes its prior masses once, at bind."""
    seen = []
    bind = sim.bind_procedure

    def recording(proc, family, loss, pair, prior):
        bound = bind(proc, family, loss, pair, prior)

        def kernel(model, posterior):
            seen.append((proc.name, prior, tuple(vars(model).values())[-2:]))
            return bound.kernel(model, posterior)

        return bound._replace(kernel=kernel)

    monkeypatch.setattr(sim, "bind_procedure", recording)
    monkeypatch.setattr(cli, "bind_procedure", recording)
    commands = []
    for path in sorted(CONFIG_DIR.glob("*.json")):
        cfg = load_config(path)
        for command, section in (
            ("compare", cfg.comparators),
            ("decide", cfg.decision),
            ("simulate", cfg.scenario),
        ):
            if section is not None:
                out = ["--output", str(tmp_path / path.stem)] if command == "simulate" else []
                assert main([command, "--config", str(path), *out]) == 0, path
                commands.append(command)
    capsys.readouterr()
    assert sorted(commands) == ["compare", "decide", "simulate", "simulate"]
    assert {name for name, _, _ in seen} == set(sim.PROCEDURES) - {"expected_loss"}
    assert all(bound == got for _, bound, got in seen)


# the block size of the README's seed formula, and so part of it
BLOCK = 512


def _bits(effect):
    return int.from_bytes(struct.pack("<d", effect + 0.0), "little")


def _scenario(family, seed, effect, n):
    """A one-cell scenario of the family: the coin scenario or the aspirin
    one, whose sigma is 0.2."""
    name = "coin_scenario" if family == "binomial" else "aspirin_scenario"
    return shipped_scenario(name, seed=seed, true_effects=(effect,), sample_sizes=(n,))


def _numpy_block(scenario, effect, n, block, size=BLOCK):
    """A block of a cell's statistics by the README's formula, in plain
    numpy: replicate r is element r % 512 of block r // 512."""
    rng = np.random.default_rng(np.random.SeedSequence([scenario.seed, _bits(effect), n, block]))
    if scenario.family == "binomial":
        return rng.binomial(n, min(max(effect + 0.5, 0.0), 1.0), size)
    return rng.normal(effect, scenario.sigma / math.sqrt(n), size)


def _sweep_draws(scenario):
    """The statistics a sweep of a one-cell scenario draws, in replicate
    order, as the blocks it counts give them."""
    drawn, tally = [], sim._tally

    def recording(sweep, n, blocks, maps):
        blocks = list(blocks)
        drawn.extend(x for block in blocks for x in block)
        return tally(sweep, n, blocks, maps)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "_tally", recording)
        sim.run_operating_characteristics(scenario)
    return drawn


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
    block, i = divmod(replicate, BLOCK)
    for family in ("binomial", "normal"):
        # the aspirin space is [-0.1, 0.1]
        scenario = _scenario(family, seed, effect if family == "binomial" else effect / 5, n)
        e = scenario.true_effects[0]
        want = _numpy_block(scenario, e, n, block)
        # the whole block, a block cut after the replicate and the replicate alone
        for size in (BLOCK, i + 1):
            got = sim._draw_block(scenario, e, n, block, size)
            assert got.tolist() == want[:size].tolist(), (family, size)
        statistic = want[i].item()  # a Python int or float
        if family == "binomial":
            dataset = sim.BinomialDraw(n, statistic)
        else:
            dataset = sim.NormalDraw(n, statistic, 0.2)
        draw = sim.simulate_dataset(scenario, e, n, replicate)
        assert draw == dataset and type(draw) is type(dataset)
        assert type(draw[1]) is type(statistic)


def _scan_cells():
    """Seeded (family, seed, effect, n, start, stop) cells: a seed of every
    width from 1 to 130 bits, effects and sizes at their edges, and runs of
    replicates near 0, across 2**32, from above 2**64 and anywhere below
    2**64, some of a single replicate and some across a block boundary."""
    rnd = random.Random(18)
    for width in range(1, 131):
        seed = rnd.getrandbits(width) | 1 << (width - 1)
        effect = rnd.choice([0.0, -0.0, 5e-324, rnd.uniform(-0.1, 0.1)])
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
        yield ("binomial", "normal")[width % 2], seed, effect, n, start, start + length


def test_block_streams_match_the_seed_sequence_over_a_seeded_scan():
    cells = list(_scan_cells())
    assert {seed.bit_length() for _, seed, *_ in cells} == set(range(1, 131))
    effects = {(effect, math.copysign(1.0, effect)) for _, _, effect, *_ in cells}
    assert {(0.0, 1.0), (0.0, -1.0), (5e-324, 1.0)} <= effects
    assert {1, 2**32, 2**63 - 1} <= {n for *_, n, _, _ in cells}
    assert any(start < 2**32 < stop for *_, start, stop in cells)
    assert any(start > 2**64 for *_, start, _ in cells)
    # a replicate alone, and runs across the end of a block
    assert any(stop - start == 1 for *_, start, stop in cells)
    block = BLOCK
    assert any(start // block < (stop - 1) // block for *_, start, stop in cells)
    cases = 0
    for family, seed, effect, n, start, stop in cells:
        scenario = _scenario(family, seed, effect, n)
        ends = {start // block, (stop - 1) // block}
        blocks = {b: _numpy_block(scenario, effect, n, b).tolist() for b in ends}
        for r in range(start, stop):
            want = blocks[r // block][r % block]
            assert sim.simulate_dataset(scenario, effect, n, r)[1] == want, (seed, effect, n, r)
            cases += 1
        for b, want in blocks.items():
            assert sim._draw_block(scenario, effect, n, b, block).tolist() == want
    assert cases >= 2000


@pytest.mark.parametrize("family", ["binomial", "normal"])
def test_a_sweep_draws_the_block_formula_and_a_prefix_of_more_replicates(family):
    """A sweep draws replicate r as element r % 512 of block r // 512, so a
    cell's first draws do not depend on the replicates asked for, across
    the block boundary (replicates 511, 512 and 513) too."""
    scenario = _scenario(family, 7, 0.05, 100)
    longest = _sweep_draws(dataclasses.replace(scenario, replicates=1500))
    assert longest[:512] == _numpy_block(scenario, 0.05, 100, 0).tolist()
    assert longest[512:1024] == _numpy_block(scenario, 0.05, 100, 1).tolist()
    assert longest[1024:] == _numpy_block(scenario, 0.05, 100, 2, 1500 - 1024).tolist()
    for reps in (1, 100, 512, 513):
        got = _sweep_draws(dataclasses.replace(scenario, replicates=reps))
        assert got == longest[:reps], reps
    for r in (0, 511, 512, 513, 1499):
        assert sim.simulate_dataset(scenario, 0.05, 100, r)[1] == longest[r], r


@pytest.mark.parametrize(
    "family, args",
    [
        ("normal", (0.0077, 0.2 / math.sqrt(22000))),
        ("binomial", (100, 0.394)),
        ("binomial", (20, 0.95)),
        ("binomial", (2**63 - 1, 0.5)),
        ("binomial", (5, 0.0)),
    ],
    ids=["normal", "binomial", "binomial-near-1", "binomial-largest-n", "binomial-0"],
)
def test_numpy_draws_a_prefix_of_a_block_as_scalar_calls_do(family, args):
    """The numpy property the formula rests on: m draws in one call are the
    first m of 512 in one call, and the draws of m scalar calls."""
    rng = lambda: np.random.default_rng(np.random.SeedSequence([3, 1, 2, 0]))
    draw = lambda gen, *size: getattr(gen, family)(*args, *size)
    whole = draw(rng(), 512).tolist()
    for m in (1, 2, 100, 511, 512):
        assert draw(rng(), m).tolist() == whole[:m], m
    gen = rng()
    assert [draw(gen) for _ in range(512)] == whole


def test_negative_zero_draws_the_zero_stream():
    for family in ("binomial", "normal"):
        a, b = _scenario(family, 7, -0.0, 10), _scenario(family, 7, 0.0, 10)
        zeros = [sim._draw_block(s, s.true_effects[0], 10, 0, 5).tolist() for s in (a, b)]
        assert zeros[0] == zeros[1]
        assert sim.simulate_dataset(a, -0.0, 10, 600) == sim.simulate_dataset(b, 0.0, 10, 600)


def test_negative_seed_is_refused_as_numpy_refuses_it():
    with pytest.raises(ValueError) as want:
        np.random.SeedSequence([-1, 0, 1, 0])
    with pytest.raises(ValueError) as got:
        sim._draw_block(_scenario("binomial", -1, 0.0, 1), 0.0, 1, 0, 1)
    assert str(got.value) == str(want.value)


def test_dataset_of_one_replicate_matches_the_sweep_draw():
    scenario = shipped_scenario("aspirin_scenario", replicates=4)
    rng = np.random.default_rng(np.random.SeedSequence([scenario.seed, _bits(0.0077), 22000, 0]))
    ybar = rng.normal(0.0077, 0.2 / math.sqrt(22000), 512)[2].item()
    assert sim.simulate_dataset(scenario, 0.0077, 22000, 2) == sim.NormalDraw(22000, ybar, 0.2)
    assert _sweep_draws(scenario)[2] == ybar
