import dataclasses
import math
import re
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import relkit.simulate as sim
from relkit import decisions, inference
from relkit.config import load_config
from relkit.errors import NumericalError, RelkitError, ValidationError
from relkit.simulate import (
    ProcedureSpec,
    RateCell,
    RateTable,
    Scenario,
    run_operating_characteristics,
    simulate_dataset,
)
from relkit.loss import CurveKnots, LossSpec, ParameterSpace, QuadraticParams, coin_demo_loss

from conftest import CONFIG_DIR, quadratic_pair_spec, shipped_scenario

ASPIRIN_LOSS = load_config(CONFIG_DIR / "aspirin_scenario.json").loss


def tiny_coin(replicates=3, procedures=None, **kw):
    return shipped_scenario(
        "coin_scenario",
        true_effects=(0.0, 0.3),
        sample_sizes=(25,),
        replicates=replicates,
        procedures=procedures
        or (
            ProcedureSpec("nhst", {"alpha": 0.05}),
            ProcedureSpec("hypothesis_ratio", {"loss_ratio": 1.0}),
        ),
        **kw,
    )


class TestSimulateDataset:
    def test_deterministic_per_replicate(self):
        scenario = tiny_coin()
        first = simulate_dataset(scenario, 0.0, 25, 3)
        again = simulate_dataset(scenario, 0.0, 25, 3)
        other = simulate_dataset(scenario, 0.0, 25, 4)
        assert first == again
        # -0.0 is the same effect as 0.0 and draws the same stream
        assert simulate_dataset(scenario, -0.0, 25, 3) == first
        assert first != other or True  # replicates may collide by chance

    def test_degenerate_probability(self):
        scenario = shipped_scenario(
            "coin_scenario", true_effects=(0.5,), sample_sizes=(40,), replicates=1
        )
        draw = simulate_dataset(scenario, 0.5, 40, 0)
        assert draw.k == 40

    def test_normal_mean_concentrates(self):
        scenario = shipped_scenario("aspirin_scenario", replicates=1)
        draws = [
            simulate_dataset(scenario, 0.0077, 22000, r).ybar for r in range(200)
        ]
        se = 0.2 / math.sqrt(22000)
        sample_mean = sum(draws) / len(draws)
        assert abs(sample_mean - 0.0077) < 4.0 * se / math.sqrt(len(draws))

    def test_effect_outside_space_rejected(self):
        with pytest.raises(ValidationError):
            shipped_scenario("coin_scenario", true_effects=(0.7,))


class TestScenarioValidation:
    def test_unknown_procedure(self):
        with pytest.raises(ValidationError, match="unknown procedure"):
            ProcedureSpec("anova", {})

    def test_unknown_setting(self):
        scenario = tiny_coin(procedures=(ProcedureSpec("nhst", {"alpa": 0.05}),))
        with pytest.raises(ValidationError, match="unknown setting"):
            run_operating_characteristics(scenario)

    def test_normal_needs_sigma(self):
        with pytest.raises(ValidationError, match="sigma"):
            Scenario(
                name="x",
                family="normal",
                loss=coin_demo_loss(),
                true_effects=(0.0,),
                sample_sizes=(10,),
                replicates=1,
                seed=0,
                procedures=(ProcedureSpec("nhst", {}),),
            )

    @pytest.mark.parametrize("sigma", [-3.0, 0.2])
    def test_binomial_takes_no_sigma(self, sigma):
        # a known value the family does not have is rejected, not ignored
        with pytest.raises(ValidationError, match="the binomial family has no sigma"):
            shipped_scenario("coin_scenario", sigma=sigma)
        aspirin = shipped_scenario(
            "aspirin_scenario", true_effects=(0.0077,), sample_sizes=(50,), replicates=2
        )
        assert len(run_operating_characteristics(aspirin).cells) == len(aspirin.procedures)

    def test_space_comes_from_the_loss(self):
        # a scenario once carried its own space, which could disagree with
        # the loss's and turn every rope verdict into "error"
        fields = dict(
            name="x",
            family="normal",
            loss=ASPIRIN_LOSS,
            true_effects=(0.5,),
            sample_sizes=(10,),
            replicates=1,
            seed=0,
            procedures=(ProcedureSpec("rope", {}),),
            sigma=0.2,
        )
        with pytest.raises(TypeError, match="space"):
            Scenario(space=ParameterSpace(-1, 1), **fields)
        with pytest.raises(ValidationError, match=r"parameter space \[-0.1, 0.1\]"):
            Scenario(**fields)

    def test_duplicate_procedure_names_rejected(self):
        # two nhst entries used to share one counter, so frequencies reached 2
        with pytest.raises(ValidationError, match="'nhst'"):
            tiny_coin(
                procedures=(
                    ProcedureSpec("nhst", {"alpha": 0.05}),
                    ProcedureSpec("rope", {}),
                    ProcedureSpec("nhst", {"alpha": 0.01}),
                )
            )

    @pytest.mark.parametrize(
        "grid, shown",
        [
            ({"true_effects": (0.0, 0.3, 0.0)}, "true effect(s) [0.0]"),
            ({"true_effects": (-0.0, 0.0)}, "true effect(s) [-0.0]"),
            ({"sample_sizes": (25, 40, 25, 40)}, "sample size(s) [25, 40]"),
        ],
    )
    def test_repeated_grid_values_rejected(self, grid, shown):
        # a repeated grid value used to run its cell twice
        with pytest.raises(ValidationError, match=re.escape(shown)):
            shipped_scenario("coin_scenario", **grid)

    def test_tost_rejected_for_binomial(self):
        scenario = tiny_coin(procedures=(ProcedureSpec("tost", {}),))
        with pytest.raises(ValidationError, match="normal"):
            run_operating_characteristics(scenario)


class TestRateTable:
    def test_frequencies_sum_to_one(self):
        table = run_operating_characteristics(tiny_coin(replicates=40))
        for cell in table.cells:
            assert sum(cell.frequencies.values()) == pytest.approx(1.0, abs=1e-12)
            for verdict, freq in cell.frequencies.items():
                se = cell.std_errors[verdict]
                assert se == pytest.approx(
                    math.sqrt(freq * (1 - freq) / cell.replicates), abs=1e-15
                )

    def test_single_replicate_gives_indicator_rates(self):
        table = run_operating_characteristics(tiny_coin(replicates=1))
        for cell in table.cells:
            assert all(f in (0.0, 1.0) for f in cell.frequencies.values())

    def test_reproducibility_bitwise(self):
        a = run_operating_characteristics(tiny_coin(replicates=25))
        b = run_operating_characteristics(tiny_coin(replicates=25))
        assert a == b

    def test_cell_recomputable_in_isolation(self):
        """Any one cell recomputed by hand from the public pieces matches
        the sweep exactly (counter-based seeding)."""
        scenario = tiny_coin(replicates=30)
        table = run_operating_characteristics(scenario)
        cell = next(
            c for c in table.cells if c.procedure == "nhst" and c.true_effect == 0.3
        )
        from relkit.comparators import nhst_point_null
        from relkit.inference import BinomialModel

        counts = Counter()
        for r in range(scenario.replicates):
            draw = simulate_dataset(scenario, 0.3, 25, r)
            counts[
                nhst_point_null(BinomialModel(n=draw.n, k=draw.k), 0.05).verdict
            ] += 1
        assert {v: c / 30 for v, c in sorted(counts.items())} == cell.frequencies

    def test_procedure_errors_recorded_not_raised(self, monkeypatch):
        scenario = tiny_coin(replicates=4)

        def explode(point_null, model, alpha):
            raise ValidationError("boom")

        # the rule the nhst kernel calls
        monkeypatch.setattr(sim, "_nhst", explode)
        table = run_operating_characteristics(scenario)
        nhst_cells = [c for c in table.cells if c.procedure == "nhst"]
        assert nhst_cells
        for cell in nhst_cells:
            assert cell.frequencies == {"error": 1.0}

    def test_draw_no_model_takes_is_an_error_verdict(self):
        # at sigma 1e308 and n = 1 a normal mean overflows to +-inf in a few
        # percent of the draws, and the model rejects it
        scenario = shipped_scenario(
            "aspirin_scenario",
            sigma=1e308,
            sample_sizes=(1,),
            replicates=40,
            procedures=(ProcedureSpec("nhst", {}),),
        )
        table = run_operating_characteristics(scenario)
        (report,) = table.errors
        assert 0 < report.count < 40
        assert report.error_class == "ValidationError"
        assert report.message.startswith("ybar must be finite")

    def test_error_verdicts_reported_per_cell(self, monkeypatch):
        # rope fails on every replicate, and the memoised failure still
        # counts once per replicate; the patch reaches the rule its kernel
        # calls
        def explode(post, lo, hi, tail):
            raise ValidationError("rope exploded")

        monkeypatch.setattr(sim, "_rope", explode)
        scenario = tiny_coin(replicates=6, procedures=(ProcedureSpec("rope", {}),))
        table = run_operating_characteristics(scenario)
        assert all(c.frequencies == {"error": 1.0} for c in table.cells)
        assert [(e.true_effect, e.n, e.procedure) for e in table.errors] == [
            (0.0, 25, "rope"),
            (0.3, 25, "rope"),
        ]
        for report in table.errors:
            assert report.count == 6
            assert report.error_class == "ValidationError"
            assert report.message == "rope exploded"

    def test_missing_prior_is_the_default_prior(self):
        names = ("nhst", "rope", "hypothesis_ratio", "expected_loss", "bayes_factor")
        procedures = tuple(ProcedureSpec(name, {}) for name in names)
        explicit = tiny_coin(replicates=8, procedures=procedures)
        assert explicit.prior == (1.0, 1.0)
        table = run_operating_characteristics(dataclasses.replace(explicit, prior=None))
        assert not table.errors
        assert table == run_operating_characteristics(explicit)


class TestShippedScenarios:
    def test_aspirin_paradox_rates(self):
        """The headline contradiction: the point-null test rejects while the
        relevance-aware procedures all settle on no-action."""
        table = run_operating_characteristics(
            shipped_scenario("aspirin_scenario", replicates=120)
        )
        rates = {
            (c.procedure, verdict): freq
            for c in table.cells
            for verdict, freq in c.frequencies.items()
        }
        assert rates[("nhst", "reject")] >= 0.8
        assert rates[("rope", "accept_a0")] >= 0.95
        assert rates[("hypothesis_ratio", "a0")] >= 0.95
        assert rates[("tost", "equivalent")] >= 0.95

    def test_coin_decision_coherence(self):
        """Interior effects at n = 10^4: decisions lock onto their regions."""
        scenario = shipped_scenario(
            "coin_scenario",
            true_effects=(-0.3, 0.0, 0.3),
            sample_sizes=(10_000,),
            replicates=150,
            procedures=(
                ProcedureSpec("hypothesis_ratio", {"loss_ratio": 1.0}),
                ProcedureSpec("expected_loss", {}),
            ),
        )
        table = run_operating_characteristics(scenario)
        for cell in table.cells:
            want = "a0" if cell.true_effect == 0.0 else "a1"
            assert cell.frequencies.get(want, 0.0) >= 0.99, (
                cell.procedure,
                cell.true_effect,
            )

    def test_bayes_factor_procedure_runs(self):
        scenario = tiny_coin(
            replicates=3,
            procedures=(ProcedureSpec("bayes_factor", {"threshold": 3.0}),),
        )
        table = run_operating_characteristics(scenario)
        verdicts = set()
        for cell in table.cells:
            verdicts.update(cell.frequencies)
        assert verdicts <= {"favors_h0", "favors_h1", "inconclusive"}


def _by_cell(monkeypatch, calls):
    """Patch the sweep's tally of one cell to note where each cell starts in
    the list ``calls``; returns () -> one Counter of ``calls`` per cell."""
    starts = []
    tally = sim._tally

    def per_cell(sweep, n, blocks, memo):
        starts.append(len(calls))
        return tally(sweep, n, blocks, memo)

    monkeypatch.setattr(sim, "_tally", per_cell)
    return lambda: [Counter(calls[a:b]) for a, b in zip(starts, [*starts[1:], len(calls)])]


def _counting_bind(monkeypatch):
    """Patch the sweep's bind step so every verdict call is counted by
    (procedure, model); returns () -> the counts of each cell, and the
    unpatched compiler of one procedure."""
    calls = []
    bind = sim.bind_procedure

    def counting(proc, family, loss, pair, prior):
        bound = bind(proc, family, loss, pair, prior)

        def counted(model, posterior):
            calls.append((proc.name, model))
            return bound.kernel(model, posterior)

        return bound._replace(kernel=counted)

    monkeypatch.setattr(sim, "bind_procedure", counting)
    return _by_cell(monkeypatch, calls), sim._compile_procedure


def _direct_table(scenario, compile_procedure):
    """The rate table from one verdict per replicate, without a memo."""
    cells = []
    for effect in scenario.true_effects:
        for n in scenario.sample_sizes:
            draws = [
                simulate_dataset(scenario, effect, n, r)
                for r in range(scenario.replicates)
            ]
            for proc in scenario.procedures:
                fn = compile_procedure(scenario, proc)
                counts = Counter(fn(data) for data in draws)
                freqs = {
                    v: counts[v] / scenario.replicates for v in sorted(counts)
                }
                cells.append(
                    RateCell(
                        true_effect=effect,
                        n=n,
                        procedure=proc.name,
                        frequencies=freqs,
                        std_errors={
                            v: math.sqrt(f * (1.0 - f) / scenario.replicates)
                            for v, f in freqs.items()
                        },
                        replicates=scenario.replicates,
                    )
                )
    return RateTable(
        scenario=scenario.name,
        seed=scenario.seed,
        replicates=scenario.replicates,
        cells=tuple(cells),
    )


def _normal_scenario():
    scenario = load_config(CONFIG_DIR / "aspirin_scenario.json").scenario
    return dataclasses.replace(
        scenario,
        true_effects=(0.0, 0.0077),
        sample_sizes=(50, 22000),
        replicates=30,
        procedures=scenario.procedures
        + (ProcedureSpec("expected_loss", {}), ProcedureSpec("bayes_factor", {})),
    )


def _grid_size(scenario):
    return len(scenario.true_effects) * len(scenario.sample_sizes)


class TestVerdictMemo:
    @pytest.mark.parametrize(
        "make_scenario",
        [
            lambda: load_config(CONFIG_DIR / "coin_scenario.json").scenario,
            _normal_scenario,
        ],
        ids=["coin_config", "normal"],
    )
    def test_one_call_per_distinct_dataset(self, monkeypatch, make_scenario):
        scenario = make_scenario()
        by_cell, compile_procedure = _counting_bind(monkeypatch)
        table = run_operating_characteristics(scenario)
        cells = by_cell()
        assert len(cells) == _grid_size(scenario)
        # at most one call per procedure and distinct draw of a cell
        assert all(cell and max(cell.values()) == 1 for cell in cells)
        called = {name for cell in cells for name, _ in cell}
        assert called == {proc.name for proc in scenario.procedures}
        assert table == _direct_table(scenario, compile_procedure)

    def test_binomial_memo_saves_most_calls(self, monkeypatch):
        # the coin config draws 1500 datasets per procedure from few counts
        scenario = load_config(CONFIG_DIR / "coin_scenario.json").scenario
        by_cell, _ = _counting_bind(monkeypatch)
        run_operating_characteristics(scenario)
        rope = [c for cell in by_cell() for (name, _), c in cell.items() if name == "rope"]
        assert max(rope) == 1
        assert sum(rope) <= 101 * len(scenario.sample_sizes)

    def test_memo_does_not_outlive_a_call(self, monkeypatch):
        scenario = tiny_coin(replicates=20)
        by_cell, _ = _counting_bind(monkeypatch)
        run_operating_characteristics(scenario)
        first = by_cell()
        assert all(max(cell.values()) == 1 for cell in first)
        run_operating_characteristics(scenario)
        assert by_cell()[len(first) :] == first

    def test_memo_serves_later_blocks_and_cells(self, monkeypatch):
        # cells of many blocks at one n: a binomial procedure runs once per
        # count in the whole run, whichever block or cell drew it first
        monkeypatch.setattr(sim, "SWEEP_BLOCK", 16)
        procedures = tuple(ProcedureSpec(name, {}) for name in ("nhst", "expected_loss", "rope"))
        scenario = tiny_coin(replicates=200, procedures=procedures)
        by_cell, compile_procedure = _counting_bind(monkeypatch)
        table = run_operating_characteristics(scenario)
        calls = sum(by_cell(), Counter())
        assert max(calls.values()) == 1
        drawn = [
            {simulate_dataset(scenario, effect, 25, r).k for r in range(200)}
            for effect in scenario.true_effects
        ]
        # both cells drew some counts, and each was evaluated once
        assert drawn[0] & drawn[1]
        assert len(calls) == len(drawn[0] | drawn[1]) * len(procedures)
        assert table == _direct_table(scenario, compile_procedure)

    def test_continued_fractions_per_distinct_count(self, monkeypatch):
        # a grid shaped like the benchmark's binomial sweep: the tails the
        # posterior caches serve the moments of the expected-loss panels, so
        # a count costs the test's one tail plus the tails at the cut points
        calls, counts = [], set()
        cont_frac, update = inference._beta_cont_frac, sim.posterior_update

        def counting_cont_frac(a, b, x):
            calls.append((a, b, x))
            return cont_frac(a, b, x)

        def counting_update(model, space):
            counts.add((model.n, model.k))
            return update(model, space)

        monkeypatch.setattr(inference, "_beta_cont_frac", counting_cont_frac)
        monkeypatch.setattr(sim, "posterior_update", counting_update)
        procedures = (
            ProcedureSpec("nhst", {"alpha": 0.05}),
            ProcedureSpec("rope", {"mass": 0.95, "rope": "partition_hull"}),
            ProcedureSpec("hypothesis_ratio", {"loss_ratio": [0.5, 2.0]}),
            ProcedureSpec("expected_loss", {}),
            ProcedureSpec("bayes_factor", {"threshold": 3.0}),
        )
        scenario = shipped_scenario(
            "coin_scenario",
            true_effects=(-0.3, -0.106, -0.05, 0.0, 0.05, 0.106, 0.3),
            sample_sizes=(20, 100, 1000),
            replicates=48,
            procedures=procedures,
        )
        run_operating_characteristics(scenario)
        assert len(counts) > 100
        assert len(calls) <= 5 * len(counts)

    def test_normal_sweep_memory_does_not_grow_with_replicates(self):
        # a normal draw never repeats, so memoising its verdicts would only
        # add one entry per replicate and procedure
        base = dataclasses.replace(
            load_config(CONFIG_DIR / "aspirin_scenario.json").scenario,
            procedures=(ProcedureSpec("nhst", {"alpha": 0.05}),),
        )

        def peak(replicates):
            tracemalloc.start()
            try:
                run_operating_characteristics(dataclasses.replace(base, replicates=replicates))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(100)  # lazy imports and caches
        assert peak(1100) - peak(100) < 50_000


POSTERIOR_PROCEDURES = tuple(
    ProcedureSpec(name, {})
    for name in ("rope", "hypothesis_ratio", "expected_loss", "bayes_factor")
)


def _counting_updates(monkeypatch):
    """Patch the module global the bind steps build posteriors through;
    returns the list of models it was called with."""
    models = []
    update = sim.posterior_update

    def counting(model, space):
        models.append(model)
        return update(model, space)

    monkeypatch.setattr(sim, "posterior_update", counting)
    return models


class TestSharedPosterior:
    def test_one_posterior_per_draw(self, monkeypatch):
        scenario = shipped_scenario(
            "coin_scenario",
            true_effects=(0.0,),
            sample_sizes=(25,),
            replicates=1,
            procedures=POSTERIOR_PROCEDURES,
        )
        models = _counting_updates(monkeypatch)
        run_operating_characteristics(scenario)
        assert len(models) == 1

    def test_one_posterior_per_distinct_draw(self, monkeypatch):
        scenario = tiny_coin(replicates=40, procedures=POSTERIOR_PROCEDURES)
        by_cell = _by_cell(monkeypatch, _counting_updates(monkeypatch))
        run_operating_characteristics(scenario)
        # at most one posterior per distinct draw of a cell
        cells = by_cell()
        assert len(cells) == _grid_size(scenario)
        assert all(cell and max(cell.values()) == 1 for cell in cells)

    def test_bench_cell_builds_few_posteriors(self, monkeypatch):
        # the cell of the benchmark's normal sweep at effect 0.05, n = 22000:
        # every procedure's verdict is certified between a few draws
        bench = dataclasses.replace(
            _bench_normal(), true_effects=(0.05,), sample_sizes=(22000,), replicates=100
        )
        models = _counting_updates(monkeypatch)
        table = run_operating_characteristics(bench)
        assert len(models) <= 40
        assert not table.errors

    def test_no_posterior_without_a_posterior_procedure(self, monkeypatch):
        scenario = shipped_scenario(
            "aspirin_scenario",
            replicates=5,
            procedures=(
                ProcedureSpec("nhst", {}),
                ProcedureSpec("tost", {}),
                ProcedureSpec("bayes_factor", {"prior": {"mean": 0.0, "sd": 0.1}}),
            ),
        )
        models = _counting_updates(monkeypatch)
        run_operating_characteristics(scenario)
        assert models == []

    def test_shared_outcomes_match_each_procedure_alone(self):
        """A posterior that vanishes on the space: the sweep, whose
        procedures share one posterior per draw, gives each procedure the
        verdict, or the error class and message, that it gives alone."""
        procs = tuple(ProcedureSpec(name, {}) for name in sim.PROCEDURES)
        scenario = shipped_scenario("aspirin_scenario", procedures=procs)
        draw = sim.NormalDraw(n=22000, ybar=0.194, sigma=0.2)
        counts, first_error = sim._tally(
            sim._bind_sweep(scenario), draw.n, [[draw.ybar]], None
        )
        got = [
            (type(first_error[i]), str(first_error[i])) if i in first_error else counts[i]
            for i in range(len(procs))
        ]

        def alone(proc):
            try:
                return Counter([sim._compile_procedure(scenario, proc)(draw)])
            except RelkitError as exc:
                return type(exc), str(exc)

        assert got == [alone(proc) for proc in procs]
        vanished = "posterior mass vanishes on the parameter space [-0.1, 0.1]"
        # rope, hypothesis_ratio and expected_loss
        assert got[2:5] == [(NumericalError, vanished)] * 3


# --- the certified sweep against direct evaluation ------------------------

BENCH_PROCEDURES = (
    ProcedureSpec("nhst", {"alpha": 0.05}),
    ProcedureSpec("tost", {"alpha": 0.05, "bounds": "partition_hull"}),
    ProcedureSpec("rope", {"mass": 0.95, "rope": "partition_hull"}),
    ProcedureSpec("hypothesis_ratio", {"loss_ratio": 1.0}),
    ProcedureSpec("expected_loss", {}),
    ProcedureSpec("bayes_factor", {"threshold": 3.0}),
)


def _bench_normal(**changes):
    """The scenario of the benchmark's normal sweep: the aspirin loss with
    all six procedures and a Normal(0, 0.05) prior."""
    changes = {"prior": (0.0, 0.05), "procedures": BENCH_PROCEDURES, **changes}
    return shipped_scenario("aspirin_scenario", **changes)


def _direct_run(scenario):
    """The rate table, error reports included, from each procedure alone on
    every replicate in replicate order: the sweep without certificates."""
    cells, errors = [], []
    reps = scenario.replicates
    for effect in scenario.true_effects:
        for n in scenario.sample_sizes:
            draws = [simulate_dataset(scenario, effect, n, r) for r in range(reps)]
            for proc in scenario.procedures:
                verdict = sim._compile_procedure(scenario, proc)
                counts, first = _direct_counts(verdict, draws)
                freqs = {v: counts[v] / reps for v in sorted(counts)}
                ses = {v: math.sqrt(f * (1.0 - f) / reps) for v, f in freqs.items()}
                cells.append(RateCell(effect, n, proc.name, freqs, ses, reps))
                if first is not None:
                    errors.append(
                        sim.ErrorReport(
                            effect, n, proc.name, counts["error"], type(first).__name__, str(first)
                        )
                    )
    return RateTable(scenario.name, scenario.seed, reps, tuple(cells), tuple(errors))


def _direct_counts(verdict, draws):
    """Verdict counts over the draws, and the first error in their order."""
    counts, first = Counter(), None
    for data in draws:
        try:
            counts[verdict(data)] += 1
        except RelkitError as exc:
            counts["error"] += 1
            first = first or exc
    return counts, first


def _result(run, scenario):
    try:
        return run(scenario)
    except RelkitError as exc:
        return type(exc), str(exc)


def _grid_in(lo, hi, steps=1000):
    """Points of [lo, hi] on a grid of the given number of steps."""
    return st.integers(0, steps).map(lambda i: hi if i == steps else lo + (hi - lo) * i / steps)


@st.composite
def _losses(draw, lo, hi):
    space = ParameterSpace(lo, hi)
    kind = draw(st.sampled_from(["piecewise_linear", "table", "quadratic"]))
    if kind == "quadratic":
        params = [
            QuadraticParams(
                c=draw(st.floats(0.0, 3.0)),
                center=draw(_grid_in(lo, hi)),
                offset=draw(st.floats(0.0, 0.5)),
            )
            for _ in range(2)
        ]
    else:
        params = []
        for _ in range(2):
            if kind == "table":
                size = draw(st.integers(4, 12))
                knots = [*(lo + (hi - lo) * i / (size - 1) for i in range(size - 1)), hi]
            else:
                inner = draw(st.lists(_grid_in(lo, hi), max_size=4, unique=True))
                knots = [lo, *sorted(x for x in inner if lo < x < hi), hi]
            values = draw(st.lists(st.floats(0.0, 1.0), min_size=len(knots), max_size=len(knots)))
            params.append(CurveKnots(knots=tuple(knots), values=tuple(values)))
    return LossSpec(space, kind, *params)


@st.composite
def _procedures(draw, family, lo, hi):
    def interval():
        a, b = sorted(draw(st.lists(_grid_in(lo, hi), min_size=2, max_size=2, unique=True)))
        return [a, b]

    if family == "binomial":
        own_prior = {"alpha": draw(st.floats(0.5, 5.0)), "beta": draw(st.floats(0.5, 5.0))}
    else:
        own_prior = {"mean": draw(st.floats(-0.3, 0.3)), "sd": draw(st.floats(0.01, 2.0))}
    menu = {
        "nhst": lambda: {"alpha": draw(st.floats(0.01, 0.2))},
        "tost": lambda: {
            "alpha": draw(st.floats(0.01, 0.2)),
            "bounds": draw(st.sampled_from(["partition_hull", interval()])),
        },
        "rope": lambda: {
            "mass": draw(st.sampled_from([0.5, 0.9, 0.95, 0.999999])),
            "rope": draw(st.sampled_from(["partition_hull", interval()])),
        },
        "hypothesis_ratio": lambda: {
            "loss_ratio": draw(st.sampled_from([1.0, 0.2, 5.0, [0.5, 2.0], [1.0, 9.0]]))
        },
        "expected_loss": lambda: {},
        "bayes_factor": lambda: {
            "threshold": draw(st.sampled_from([1.0, 3.0, 10.0])),
            **draw(st.sampled_from([{}, {"prior": own_prior}])),
        },
    }
    if family == "binomial":
        del menu["tost"]
    names = draw(st.lists(st.sampled_from(sorted(menu)), min_size=1, max_size=4, unique=True))
    return tuple(ProcedureSpec(name, menu[name]()) for name in names)


@st.composite
def _scenarios(draw):
    family = draw(st.sampled_from(["binomial", "normal"]))
    if family == "binomial":
        lo, hi = draw(st.sampled_from([(-0.5, 0.5), (-0.3, 0.4)]))
        prior = draw(st.sampled_from([None, (1.0, 1.0), (3.0, 0.7)]))
        sizes = draw(st.lists(st.integers(1, 300), min_size=1, max_size=2, unique=True))
        sigma = None
    else:
        lo, hi = draw(st.sampled_from([(-0.1, 0.1), (-1.0, 2.0)]))
        prior = draw(st.sampled_from([None, (0.0, 0.05), (0.3, 1.0)]))
        sizes = draw(st.lists(st.integers(1, 30000), min_size=1, max_size=2, unique=True))
        sigma = draw(st.sampled_from([0.2, 1.5]))
    return Scenario(
        name="property",
        family=family,
        loss=draw(_losses(lo, hi)),
        true_effects=tuple(draw(st.lists(_grid_in(lo, hi), min_size=1, max_size=2, unique=True))),
        sample_sizes=tuple(sizes),
        replicates=draw(st.integers(1, 60)),
        seed=draw(st.integers(0, 2**32)),
        procedures=draw(_procedures(family, lo, hi)),
        prior=prior,
        sigma=sigma,
    )


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(_scenarios())
def test_certified_sweep_equals_direct_sweep(scenario):
    """Verdict counts and error reports of every cell equal those of each
    procedure evaluated on every replicate."""
    assert _result(run_operating_characteristics, scenario) == _result(_direct_run, scenario)


def _block_counts(scenario, n, statistics):
    """Per procedure, the sweep's counts over one block of statistics and
    the (class, message) of its first error."""
    counts, first_error = sim._tally(
        sim._bind_sweep(scenario), n, [statistics], None
    )
    return [
        (counts[i], (type(first_error[i]), str(first_error[i])) if i in first_error else None)
        for i in range(len(scenario.procedures))
    ]


def _direct_block_counts(scenario, n, statistics):
    draws = [_draw_of(scenario, n, x) for x in statistics]
    out = []
    for proc in scenario.procedures:
        counts, first = _direct_counts(sim._compile_procedure(scenario, proc), draws)
        out.append((counts, (type(first), str(first)) if first is not None else None))
    return out


def _draw_of(scenario, n, statistic):
    if scenario.family == "binomial":
        return sim.BinomialDraw(n, statistic)
    return sim.NormalDraw(n, statistic, scenario.sigma)


def _cuts(verdict_at, lo, hi, steps=400):
    """Every change of verdict_at on a grid of [lo, hi], bisected until the
    two sides are adjacent floats."""
    grid = [lo + (hi - lo) * i / steps for i in range(steps + 1)]
    cuts = []
    for a, b in zip(grid, grid[1:]):
        va = verdict_at(a)
        if verdict_at(b) == va:
            continue
        while math.nextafter(a, b) < b:
            mid = 0.5 * (a + b)
            if mid in (a, b):
                break
            if verdict_at(mid) == va:
                a = mid
            else:
                b = mid
        cuts.append(b)
    return cuts


def _bowl():
    """A normal sweep whose loss difference theta^2 - 0.04 turns inside its
    one panel: expected_loss says a1 on (-0.2, 0.2) and a0 outside."""
    return _bench_normal(
        loss=quadratic_pair_spec(),
        true_effects=(0.0,),
        sample_sizes=(400,),
        procedures=(ProcedureSpec("expected_loss", {}),),
    )


class TestCertifiedBlocks:
    """Hand-built blocks of draws, walked by the sweep and compared with
    each procedure evaluated directly on every draw."""

    @pytest.mark.parametrize(
        "loss, n",
        [("aspirin", 50), ("aspirin", 22000), ("bowl", 50), ("bowl", 400), ("bowl", 22000)],
        ids=["50", "22000", "bowl-50", "bowl-400", "bowl-22000"],
    )
    def test_normal_draws_next_to_each_cut(self, loss, n):
        se = 0.2 / math.sqrt(n)
        if loss == "aspirin":
            scenario, lo, hi = _bench_normal(sample_sizes=(n,)), -6 * se, 0.1 + 6 * se
        else:
            # expected_loss alone, on a panel split where its difference turns
            scenario, lo, hi = dataclasses.replace(_bowl(), sample_sizes=(n,)), -0.5, 0.5
        statistics = []
        for proc in scenario.procedures:
            verdict = sim._compile_procedure(scenario, proc)
            cuts = _cuts(lambda x: verdict(sim.NormalDraw(n, x, 0.2)), lo, hi)
            # tost never finds equivalence at n = 50
            assert cuts or proc.name == "tost", proc.name
            for cut in cuts:
                statistics += [cut + k * 1e-13 for k in range(-9, 10)]
        # spread over the whole range too, in an unsorted replicate order
        statistics += [lo + (hi - lo) * ((7 * i) % 101) / 100 for i in range(101)]
        assert _block_counts(scenario, n, statistics) == _direct_block_counts(
            scenario, n, statistics
        )

    @pytest.mark.parametrize("n", [20, 100, 1000])
    def test_binomial_counts_on_both_sides_of_each_cut(self, n):
        scenario = shipped_scenario(
            "coin_scenario",
            procedures=(
                ProcedureSpec("nhst", {}),
                ProcedureSpec("rope", {}),
                ProcedureSpec("hypothesis_ratio", {"loss_ratio": [0.5, 2.0]}),
                ProcedureSpec("bayes_factor", {"threshold": 3.0, "prior": {"alpha": 2, "beta": 5}}),
            ),
        )
        statistics = []
        for proc in scenario.procedures:
            verdict = sim._compile_procedure(scenario, proc)
            verdicts = [verdict(sim.BinomialDraw(n, k)) for k in range(n + 1)]
            cuts = [k for k in range(1, n + 1) if verdicts[k] != verdicts[k - 1]]
            assert cuts, proc.name
            statistics += [k for cut in cuts for k in (cut - 1, cut, cut, cut - 1)]
        statistics += [0, n, n // 3, n // 2]
        assert _block_counts(scenario, n, statistics) == _direct_block_counts(
            scenario, n, statistics
        )

    def test_expected_loss_turning_inside_a_panel(self):
        # a0 at both ends and a1 between them: a box spanned by the ends
        # alone must not name a verdict
        scenario = _bowl()
        statistics = [-0.45 + 0.9 * ((7 * i) % 61) / 60 for i in range(61)]
        got = _block_counts(scenario, 400, statistics)
        assert got == _direct_block_counts(scenario, 400, statistics)
        assert set(got[0][0]) == {"a0", "a1"}

    def test_vanishing_posterior_errors_as_direct(self):
        # ybar = 0.194 at n = 22000 puts the posterior about 38 sd beyond
        # the space [-0.1, 0.1], where its mass vanishes; the procedures
        # that truncate to the space raise there
        scenario = _bench_normal()
        statistics = [0.01, 0.194, -0.003, 0.16, 0.09, 0.3, 0.05, 0.1948, 0.0]
        got = _block_counts(scenario, 22000, statistics)
        assert got == _direct_block_counts(scenario, 22000, statistics)
        vanished = (NumericalError, "posterior mass vanishes on the parameter space [-0.1, 0.1]")
        assert [first for _, first in got[2:5]] == [vanished] * 3

    def test_first_failing_replicate_in_replicate_order(self, monkeypatch):
        # a posterior build that fails with the draw in its message: the
        # report names the draw of the first failing replicate, not the
        # first failing draw in the order of the statistic
        update = sim.posterior_update

        def failing(model, space):
            if model.ybar > 0.03:
                raise NumericalError(f"no posterior at ybar={model.ybar}")
            return update(model, space)

        monkeypatch.setattr(sim, "posterior_update", failing)
        scenario = _bench_normal()
        statistics = [0.0, 0.07, 0.01, 0.04, 0.09, -0.02, 0.035]
        got = _block_counts(scenario, 22000, statistics)
        assert got == _direct_block_counts(scenario, 22000, statistics)
        assert got[2][1] == (NumericalError, "no posterior at ybar=0.07")

    def test_sweep_with_vanishing_posteriors_matches_direct(self):
        # a prior mean that puts the posteriors of effect 0.1 about 37 sd
        # beyond the space: some draws' posteriors vanish there, others not
        w = (22000 / 0.04) / (22000 / 0.04 + 1 / 0.05**2)
        sd = (22000 / 0.04 + 1 / 0.05**2) ** -0.5
        prior_mean = (0.1 + 37.5 * sd - w * 0.1) / (1.0 - w)
        # that prior gives the pair no mass, so the Bayes factor, which is
        # refused under it, takes a prior of its own
        own = ProcedureSpec(
            "bayes_factor", {"threshold": 3.0, "prior": {"mean": 0.0, "sd": 0.05}}
        )
        scenario = _bench_normal(
            prior=(prior_mean, 0.05),
            true_effects=(0.1, 0.0),
            replicates=60,
            procedures=(*BENCH_PROCEDURES[:-1], own),
        )
        refused = dataclasses.replace(scenario, procedures=BENCH_PROCEDURES)
        with pytest.raises(ValidationError, match="zero prior mass"):
            run_operating_characteristics(refused)
        table = run_operating_characteristics(scenario)
        assert table == _direct_run(scenario)
        assert any(0 < report.count < 60 for report in table.errors)


    def test_rounded_tails_do_not_certify_a_gap(self):
        # A prior mean that puts every posterior about 20 sd beyond the
        # space [0, 1], whose upper half is H0. The untruncated tails at the
        # change points 0 and 1 round to 1, so P(H0 | y) and P(H1 | y), as
        # sums of the coordinates, cancel to 0, and a box without a margin
        # would give every draw BF10 = inf. The kernel takes the masses
        # without that cancellation and favors H0.
        space = ParameterSpace(0.0, 1.0)
        loss = LossSpec(
            space,
            "piecewise_linear",
            CurveKnots(knots=(0.0, 1.0), values=(1.0, 0.0)),
            CurveKnots(knots=(0.0, 1.0), values=(0.5, 0.5)),
        )
        scenario = Scenario(
            name="far_beyond",
            family="normal",
            loss=loss,
            true_effects=(1.0,),
            sample_sizes=(100,),
            replicates=60,
            seed=5,
            procedures=(ProcedureSpec("bayes_factor", {"threshold": 3.0}),),
            prior=(3.83, 0.1),
            sigma=1.0,
        )
        sweep = sim._bind_sweep(scenario)
        (cert,) = sweep.certificates
        model = sweep.model(100, 1.0)
        coords = cert.coords(model, sim._shared_posterior(model, space))
        pair = sim.derive_hypotheses(sim.partition(loss))
        _, cells = sim._odds_cells(sim._pair_ends(pair))
        assert sim._odds_masses(coords, cells) == (0.0, 0.0)
        table = run_operating_characteristics(scenario)
        assert table == _direct_run(scenario)
        assert table.cells[0].frequencies["favors_h0"] > 0.9

    def test_only_the_block_with_a_raising_draw_runs_directly(self, monkeypatch):
        # rope raises on every draw of the second of three blocks: that
        # block runs on each of its draws, and the other two are walked
        monkeypatch.setattr(sim, "SWEEP_BLOCK", 16)
        scenario = _bench_normal(
            true_effects=(0.05,),
            sample_sizes=(22000,),
            replicates=48,
            procedures=(ProcedureSpec("rope", {}),),
        )
        blocks = [
            {simulate_dataset(scenario, 0.05, 22000, r).ybar for r in range(start, start + 16)}
            for start in (0, 16, 32)
        ]
        bind = sim.bind_procedure

        def raising(proc, family, loss, pair, prior):
            bound = bind(proc, family, loss, pair, prior)

            def kernel(model, posterior):
                if model.ybar in blocks[1]:
                    raise NumericalError(f"no verdict at ybar={model.ybar}")
                return bound.kernel(model, posterior)

            return bound._replace(kernel=kernel)

        monkeypatch.setattr(sim, "bind_procedure", raising)
        by_cell, _ = _counting_bind(monkeypatch)
        table = run_operating_characteristics(scenario)
        (calls,) = by_cell()
        per_block = [
            sum(count for (_, model), count in calls.items() if model.ybar in block)
            for block in blocks
        ]
        assert table == _direct_run(scenario)
        (report,) = table.errors
        assert report.count == 16
        # each distinct draw of the raising block, and few of the others
        assert all(len(block) == 16 for block in blocks)
        assert per_block[1] >= 16
        assert per_block[0] < 16 and per_block[2] < 16

    def test_binomial_rule_raising_on_inner_counts(self, monkeypatch):
        # rope says accept_a1 on every count from 20 to 25 of 25, and here
        # raises on 22 and 23 alone: a walk that evaluated only the ends
        # would miss the errors, so a binomial procedure runs on every count
        rope = sim._rope

        def failing(post, lo, hi, tail):
            if post.params[0] in (23.0, 24.0):  # k = 22 and 23 under Beta(1, 1)
                raise NumericalError(f"no tail at alpha={post.params[0]}")
            return rope(post, lo, hi, tail)

        monkeypatch.setattr(sim, "_rope", failing)
        scenario = tiny_coin(procedures=(ProcedureSpec("rope", {}),))
        statistics = [25, 21, 22, 20, 23, 24, 22]
        got = _block_counts(scenario, 25, statistics)
        assert got == _direct_block_counts(scenario, 25, statistics)
        assert got[0][0] == Counter(accept_a1=4, error=3)


def test_binomial_sweep_has_no_certificates():
    # the beta tails' continued fraction may fail on inner counts alone
    procedures = tuple(ProcedureSpec(name, {}) for name in sim.PROCEDURES if name != "tost")
    coin = shipped_scenario("coin_scenario", procedures=procedures)
    assert sim._bind_sweep(coin).certificates == (None,) * len(procedures)


def test_every_normal_posterior_procedure_carries_a_certificate():
    # the aspirin loss is piecewise linear; L(a1) - L(a0) = theta^2 - 0.04
    # of the bowl turns at 0, inside its one panel, which is split there;
    # with equal curvatures the quadratic difference is linear
    normal = _bench_normal()
    space = ParameterSpace(-0.5, 0.5)
    linear = LossSpec(
        space,
        "quadratic",
        QuadraticParams(c=1.0, center=0.1),
        QuadraticParams(c=1.0, center=-0.2, offset=0.01),
    )
    normal_linear = dataclasses.replace(normal, loss=linear, true_effects=(0.0,))
    bowl = dataclasses.replace(_bowl(), procedures=BENCH_PROCEDURES)
    for scenario in (normal, bowl, normal_linear):
        certificates = sim._bind_sweep(scenario).certificates
        certified = [cert is not None for cert in certificates]
        assert certified == [proc.name not in ("nhst", "tost") for proc in BENCH_PROCEDURES]
    alone = (ProcedureSpec("expected_loss", {}),)
    (certificate,) = sim._bind_sweep(dataclasses.replace(normal, procedures=alone)).certificates
    assert certificate is not None
    assert sim._bind_sweep(_bowl()).certificates[0] is not None
    normal_linear = dataclasses.replace(normal_linear, procedures=alone)
    assert sim._bind_sweep(normal_linear).certificates[0] is not None


def test_quadratic_loss_sweep_walks_expected_loss(monkeypatch):
    """A sweep of a loss whose difference turns inside its panel gives the
    direct counts and evaluates expected_loss on a few draws only."""
    scenario = dataclasses.replace(
        _bowl(), true_effects=(0.0, 0.1, 0.2), sample_sizes=(50, 400, 22000), replicates=200
    )
    want = _direct_run(scenario)
    by_cell, _ = _counting_bind(monkeypatch)
    assert run_operating_characteristics(scenario) == want
    calls = sum(sum(cell.values()) for cell in by_cell())
    draws = len(scenario.true_effects) * len(scenario.sample_sizes) * scenario.replicates
    assert calls < draws / 10


def test_binomial_sweep_never_integrates(monkeypatch):
    """A binomial sweep takes the expected-loss verdict from the closed form
    and builds no report, so it runs no quadrature: the shipped coin
    scenario, with and without expected_loss, and a grid shaped like the
    benchmark's binomial sweep give the direct counts without it."""

    def refuse(*args, **kwargs):
        raise AssertionError("a binomial sweep must not integrate numerically")

    monkeypatch.setattr(inference, "quadrature", refuse)
    monkeypatch.setattr(decisions, "quadrature", refuse)
    coin = shipped_scenario("coin_scenario")
    bench = dataclasses.replace(
        coin,
        true_effects=(-0.3, -0.106, -0.05, 0.0, 0.05, 0.106, 0.3),
        sample_sizes=(20, 100, 1000),
        replicates=48,
        procedures=(
            ProcedureSpec("nhst", {"alpha": 0.05}),
            ProcedureSpec("rope", {"mass": 0.95, "rope": "partition_hull"}),
            ProcedureSpec("hypothesis_ratio", {"loss_ratio": [0.5, 2.0]}),
            ProcedureSpec("expected_loss", {}),
            ProcedureSpec("bayes_factor", {"threshold": 3.0}),
        ),
    )
    with_expected_loss = (*coin.procedures, ProcedureSpec("expected_loss", {}))
    for scenario in (coin, dataclasses.replace(coin, procedures=with_expected_loss), bench):
        assert run_operating_characteristics(scenario) == _direct_run(scenario)
