import dataclasses
import math
import tracemalloc
from collections import Counter

import pytest

import relkit.simulate as sim
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
from relkit.loss import ParameterSpace, coin_demo_loss

from conftest import CONFIG_DIR, shipped_scenario

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


def _counting_bind(monkeypatch):
    """Patch the sweep's bind step so every verdict call is counted by
    (procedure, model); returns the counter and the unpatched compiler of
    one procedure."""
    calls = Counter()
    bind = sim.bind_procedure

    def counting(proc, family, loss, pair):
        run = bind(proc, family, loss, pair)

        def counted(model, posterior):
            calls[(proc.name, model)] += 1
            return run(model, posterior)

        return counted

    monkeypatch.setattr(sim, "bind_procedure", counting)
    return calls, sim._compile_procedure


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
        calls, compile_procedure = _counting_bind(monkeypatch)
        table = run_operating_characteristics(scenario)
        assert calls and max(calls.values()) == 1
        draws = {
            simulate_dataset(scenario, e, n, r)
            for e in scenario.true_effects
            for n in scenario.sample_sizes
            for r in range(scenario.replicates)
        }
        assert len(calls) == len(draws) * len(scenario.procedures)
        assert table == _direct_table(scenario, compile_procedure)

    def test_binomial_memo_saves_most_calls(self, monkeypatch):
        # the coin config draws 1500 datasets per procedure from few counts
        scenario = load_config(CONFIG_DIR / "coin_scenario.json").scenario
        calls, _ = _counting_bind(monkeypatch)
        run_operating_characteristics(scenario)
        rope_calls = sum(c for (name, _), c in calls.items() if name == "rope")
        assert rope_calls <= 101 * len(scenario.sample_sizes)

    def test_memo_does_not_outlive_a_call(self, monkeypatch):
        scenario = tiny_coin(replicates=20)
        calls, _ = _counting_bind(monkeypatch)
        run_operating_characteristics(scenario)
        first = sum(calls.values())
        run_operating_characteristics(scenario)
        assert sum(calls.values()) == 2 * first

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
        models = _counting_updates(monkeypatch)
        run_operating_characteristics(scenario)
        draws = {
            simulate_dataset(scenario, e, n, r)
            for e in scenario.true_effects
            for n in scenario.sample_sizes
            for r in range(scenario.replicates)
        }
        assert len(models) == len(set(models)) == len(draws)

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
        """A posterior that vanishes on the space: each procedure gives the
        verdict, or the error class and message, that it gives alone."""
        procs = tuple(ProcedureSpec(name, {}) for name in sim.PROCEDURES)
        scenario = shipped_scenario("aspirin_scenario", procedures=procs)
        draw = sim.NormalDraw(n=22000, ybar=0.194, sigma=0.2)
        shared = sim._compile_procedures(scenario, procs)(draw)

        def alone(proc):
            try:
                return sim._compile_procedure(scenario, proc)(draw)
            except RelkitError as exc:
                return type(exc), str(exc)

        got = [
            (type(out), str(out)) if isinstance(out, RelkitError) else out
            for out in shared
        ]
        assert got == [alone(proc) for proc in procs]
        vanished = "posterior mass vanishes on the parameter space [-0.1, 0.1]"
        # rope, hypothesis_ratio and expected_loss
        assert got[2:5] == [(NumericalError, vanished)] * 3
