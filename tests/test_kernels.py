"""The bound procedures of `simulate` and `compare`.

A bind step checks the settings once and returns a kernel, (model,
posterior) -> (verdict, report). The kernel runs the same private rule as
the procedure's public function, and report() builds the result that
function gives, so a kernel's verdict and report must equal the public
result field by field, and a kernel must raise what the function raises.
The sweep draws each replicate from a generator whose seed words are split
once per cell; its stream must be the one the list of those words seeds.
"""

import math
import random
import struct

import numpy as np
import pytest

import relkit.simulate as sim
from relkit.comparators import (
    ComparatorResult,
    interval_bayes_factor,
    nhst_point_null,
    rope_decision,
    tost_equivalence,
)
from relkit.decisions import LossRatio, bayes_two_action_decision, expected_loss_decision
from relkit.errors import DomainError, NumericalError, RelkitError, ValidationError
from relkit.hypotheses import HypothesisPair, derive_hypotheses
from relkit.inference import BinomialModel, NormalKnownVarModel, posterior_update
from relkit.loss import CurveKnots, LossSpec, ParameterSpace, coin_demo_loss
from relkit.regions import RegionSet, partition, region_hull

from conftest import shipped_scenario


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


def _as_result(procedure, statistic, outcome):
    """The row a decision rule's outcome gives in compare."""
    detail = "; ".join(outcome.warnings)
    return ComparatorResult(procedure, statistic, outcome.decision, detail=detail)


def _public(name, settings, model, post, loss, pair):
    """The public function of procedure ``name`` on one model, as a
    ComparatorResult."""
    if name == "nhst":
        return nhst_point_null(model, settings["alpha"])
    if name == "tost":
        return tost_equivalence(model, settings["bounds"], settings["alpha"])
    if name == "rope":
        return rope_decision(post(), RegionSet.single(*settings["rope"]), settings["mass"])
    if name == "hypothesis_ratio":
        out = bayes_two_action_decision(post(), pair, settings["loss_ratio"])
        return _as_result("bayes_two_action_decision", out.posterior_odds, out)
    if name == "expected_loss":
        out = expected_loss_decision(post(), loss)
        return _as_result("expected_loss_decision", out.threshold_hi - out.threshold_lo, out)
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
    kernel = sim.bind_procedure(proc, family, loss, pair)
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
        if isinstance(want, ComparatorResult):
            assert got == (want.verdict, want), (model, got, want)
            seen.add(want.verdict)
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


def _vee_with_a_point_negligible():
    """a1 never loses to a0 and ties it only at 0: the negligible region is
    the single point 0, so its hull is degenerate."""
    knots = (-0.1, 0.0, 0.1)
    return LossSpec(
        space=ParameterSpace(-0.1, 0.1),
        kind="piecewise_linear",
        params_a0=CurveKnots(knots=knots, values=(0.1, 0.0, 0.1)),
        params_a1=CurveKnots(knots=knots, values=(0.0, 0.0, 0.0)),
    )


def test_refused_settings_raise_per_draw_what_the_function_raises():
    """tost on a degenerate partition hull is refused at bind, and each draw
    still gets the function's error as its outcome; the sweep does not
    abort."""
    loss = _vee_with_a_point_negligible()
    assert partition(loss).negligible == RegionSet.point(0.0)
    scenario = shipped_scenario(
        "aspirin_scenario",
        loss=loss,
        replicates=3,
        procedures=(sim.ProcedureSpec("tost", {}), sim.ProcedureSpec("nhst", {})),
    )
    model = NormalKnownVarModel(n=22000, ybar=0.0077, sigma=0.2)
    with pytest.raises(ValidationError) as want:
        tost_equivalence(model, (0.0, 0.0), 0.05)
    table = sim.run_operating_characteristics(scenario)
    (report,) = table.errors
    assert (report.procedure, report.count) == ("tost", 3)
    assert (report.error_class, report.message) == ("ValidationError", str(want.value))


def test_rope_outside_the_space_raises_after_its_verdict():
    """P(rope | y) is undefined for a rope reaching outside the space; the
    public rule raises DomainError after computing its verdict, so a
    posterior whose mass vanishes raises NumericalError first."""
    loss = _loss(-0.1, 0.1)
    pair = derive_hypotheses(partition(loss))
    proc = sim.ProcedureSpec("rope", {"rope": [-0.5, 0.05]})
    kernel = sim.bind_procedure(proc, "normal", loss, pair)
    rope = RegionSet.single(-0.5, 0.05)
    for ybar, error in ((0.01, DomainError), (0.194, NumericalError)):
        model = NormalKnownVarModel(n=22000, ybar=ybar, sigma=0.2)
        with pytest.raises(error) as want:
            rope_decision(posterior_update(model, loss.space), rope, 0.95)
        with pytest.raises(error) as got:
            kernel(model, sim._shared_posterior(model, loss.space))
        assert str(got.value) == str(want.value)


def test_uncovering_pair_raises_after_the_posterior():
    """The coverage check is made at bind; the kernel still builds the
    posterior first, as the public rule does, so a posterior that fails
    raises its own error."""
    loss = _loss(-0.1, 0.1)
    pair = HypothesisPair(h0=RegionSet.single(-0.02, 0.02), h1=RegionSet.single(0.05, 0.1))
    kernel = sim.bind_procedure(sim.ProcedureSpec("hypothesis_ratio", {}), "normal", loss, pair)
    model = NormalKnownVarModel(n=22000, ybar=0.0077, sigma=0.2)
    post = posterior_update(model, loss.space)
    with pytest.raises(ValidationError) as want:
        bayes_two_action_decision(post, pair, LossRatio.scalar(1.0))
    with pytest.raises(ValidationError) as got:
        kernel(model, lambda: post)
    assert str(got.value) == str(want.value)

    def failing():
        raise NumericalError("no posterior")

    with pytest.raises(NumericalError, match="no posterior"):
        kernel(model, failing)


def test_sweep_reports_are_not_built(monkeypatch):
    """A sweep keeps only the verdict: no report is called."""
    scenario = shipped_scenario("aspirin_scenario", replicates=5)
    table = sim.run_operating_characteristics(scenario)
    calls = []
    bind = sim.bind_procedure

    def counting(proc, family, loss, pair):
        kernel = bind(proc, family, loss, pair)

        def counted(model, posterior):
            verdict, report = kernel(model, posterior)
            return verdict, lambda: calls.append(proc.name) or report()

        return counted

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
    got = sim._cell_rng(seed, effect, n)(replicate)
    assert got.bit_generator.state == want.bit_generator.state
    assert got.integers(0, 2**63, 16).tolist() == want.integers(0, 2**63, 16).tolist()
    assert got.normal(effect, 0.2, 4).tolist() == want.normal(effect, 0.2, 4).tolist()


def test_negative_zero_draws_the_zero_stream():
    a = sim._cell_rng(7, -0.0, 10)(3).integers(0, 2**63, 4).tolist()
    assert a == sim._cell_rng(7, 0.0, 10)(3).integers(0, 2**63, 4).tolist()


def test_negative_seed_is_refused_as_numpy_refuses_it():
    with pytest.raises(ValueError) as want:
        np.random.SeedSequence([-1, 0, 1, 0])
    with pytest.raises(ValueError) as got:
        sim._cell_rng(-1, 0.0, 1)(0)
    assert str(got.value) == str(want.value)


def test_dataset_of_one_replicate_matches_the_sweep_draw():
    scenario = shipped_scenario("aspirin_scenario", replicates=4)
    rng = np.random.default_rng(np.random.SeedSequence([scenario.seed, _bits(0.0077), 22000, 2]))
    ybar = float(rng.normal(0.0077, 0.2 / math.sqrt(22000)))
    assert sim.simulate_dataset(scenario, 0.0077, 22000, 2) == sim.NormalDraw(22000, ybar, 0.2)
