import dataclasses
import functools
import itertools
import math
import random
import re
import tracemalloc
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

import relkit.simulate as sim
from relkit import decisions, inference
from relkit.config import load_config
from relkit.errors import NumericalError, RelkitError, ValidationError
from relkit.simulate import ProcedureSpec, Scenario, run_operating_characteristics, simulate_dataset
from relkit.hypotheses import HypothesisPair
from relkit.loss import CurveKnots, LossSpec, ParameterSpace, QuadraticParams, coin_demo_loss
from relkit.regions import Interval, RegionSet, partition, region_hull

import oracles
from conftest import (
    BENCH_BINOMIAL_PROCEDURES,
    BENCH_NORMAL_PROCEDURES,
    CONFIG_DIR,
    quadratic_pair_spec,
    random_loss_spec,
    shipped_scenario,
)

ASPIRIN_LOSS = load_config(CONFIG_DIR / "aspirin_scenario.json").loss
# the hypothesis-ratio rule where the masses of H0 and H1 both underflow
DEGENERATE = (
    NumericalError, "degenerate evidence: both hypothesis regions have zero posterior probability"
)


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
        # a single draw is refused as the scenario refuses the effect
        for name, effect, space in (
            ("coin_scenario", 0.9, "[-0.5, 0.5]"),
            ("coin_scenario", math.nan, "[-0.5, 0.5]"),
            ("aspirin_scenario", math.nan, "[-0.1, 0.1]"),
        ):
            message = f"true effect {effect} outside the parameter space {space}"
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                simulate_dataset(shipped_scenario(name), effect, 5, 1)

    @pytest.mark.parametrize(
        "n, index, message",
        [
            (20, -1, "replicate_index: must be a non-negative integer, got -1"),
            (20, 2.5, "replicate_index: must be an integer, got 2.5"),
            (20.0, 1, "n: must be an integer, got 20.0"),
            (2**63, 1, "n: must be an integer in [0, 2**63), got 9223372036854775808"),
            (0, 1, "n must be >= 1, got 0"),
        ],
        ids=["index-negative", "index-float", "n-float", "n-2^63", "n-0"],
    )
    def test_counts_follow_the_config_rule(self, n, index, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            simulate_dataset(tiny_coin(), 0.0, n, index)


class TestScenarioValidation:
    @pytest.mark.parametrize(
        "changes, message",
        [
            (
                {"sample_sizes": (20, 2**63)},
                "sample_sizes: item 1: must be an integer in [0, 2**63), got 9223372036854775808",
            ),
            ({"sample_sizes": (20.5,)}, "sample_sizes: item 0: must be an integer, got 20.5"),
            ({"replicates": 2.5}, "replicates: must be an integer, got 2.5"),
            ({"replicates": True}, "replicates: must be an integer, got True"),
        ],
        ids=["n-2^63", "n-float", "replicates-float", "replicates-bool"],
    )
    def test_counts_follow_the_config_rule(self, changes, message):
        """The library refuses the counts the config refuses, with a
        ValidationError before any draw, not numpy's error after binding."""
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            shipped_scenario("coin_scenario", **changes)

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"true_effects": ("0.1",)}, "true_effects: item 0: must be a finite number, got '0.1'"),
            ({"true_effects": (None,)}, "true_effects: item 0: must be a finite number, got None"),
            ({"true_effects": (True,)}, "true_effects: item 0: must be a finite number, got True"),
            ({"name": 5}, "name: must be a string, got 5"),
        ],
        ids=["effect-string", "effect-none", "effect-bool", "name-int"],
    )
    def test_name_and_effects_follow_the_config_rule(self, changes, message):
        """The library refuses the name and effects the config refuses: a
        string or None effect once raised a bare TypeError, True was refused
        as an effect outside the space, and a numeric name was kept."""
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            shipped_scenario("coin_scenario", **changes)

    def test_unknown_procedure(self):
        with pytest.raises(ValidationError, match="unknown procedure"):
            ProcedureSpec("anova", {})

    def test_settings_must_be_a_dict(self):
        with pytest.raises(ValidationError, match="^nhst settings must be a dict, got None$"):
            ProcedureSpec("nhst", None)

    def test_name_must_be_a_string(self):
        # a list once raised TypeError: unhashable type: 'list'
        with pytest.raises(ValidationError, match=r"^name: must be a string, got \['nhst'\]$"):
            ProcedureSpec(["nhst"], {})

    def test_procedures_must_be_non_empty(self):
        # once accepted, and swept into a rate table with no cells; the
        # config refuses an empty list
        with pytest.raises(ValidationError, match="^procedures must be a non-empty list$"):
            shipped_scenario("coin_scenario", procedures=())

    def test_each_procedure_must_be_a_procedure_spec(self):
        # a bare name once raised AttributeError: 'str' object has no attribute 'name'
        message = "^procedures\\[0\\] must be a ProcedureSpec, got 'nhst'$"
        with pytest.raises(ValidationError, match=message):
            shipped_scenario("coin_scenario", procedures=("nhst",))

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

    @pytest.mark.parametrize(
        "name, changes",
        [
            ("coin_scenario", {"prior": (-1.0, 1.0)}),
            ("coin_scenario", {"prior": (1.0, math.inf)}),
            ("coin_scenario", {"prior": (math.nan, 1.0)}),
            ("coin_scenario", {"prior": (1.0,)}),
            ("aspirin_scenario", {"prior": (0.0, -0.05)}),
            ("aspirin_scenario", {"prior": (math.inf, 0.05)}),
            ("aspirin_scenario", {"sigma": math.inf}),
        ],
    )
    def test_improper_or_non_finite_values_refused_before_any_draw(self, name, changes):
        # each once built a scenario whose every cell read {"error": 1.0}
        with pytest.raises(ValidationError, match="improper or non-finite|positive finite sigma"):
            shipped_scenario(name, **changes)

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
        # rope fails on every replicate, and a failure the map keeps still
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

    def per_cell(sweep, n, blocks, maps):
        starts.append(len(calls))
        return tally(sweep, n, blocks, maps)

    monkeypatch.setattr(sim, "_tally", per_cell)
    return lambda: [Counter(calls[a:b]) for a, b in zip(starts, [*starts[1:], len(calls)])]


def _counting_bind(monkeypatch):
    """Patch the sweep's bind step so every verdict call is counted by
    (procedure, model); returns () -> the counts of each cell."""
    calls = []
    bind = sim.bind_procedure

    def counting(proc, family, loss, pair, prior):
        bound = bind(proc, family, loss, pair, prior)

        def counted(model, posterior):
            calls.append((proc.name, model))
            return bound.kernel(model, posterior)

        return bound._replace(kernel=counted)

    monkeypatch.setattr(sim, "bind_procedure", counting)
    return _by_cell(monkeypatch, calls)


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
        by_cell = _counting_bind(monkeypatch)
        table = run_operating_characteristics(scenario)
        cells = by_cell()
        assert len(cells) == _grid_size(scenario)
        # at most one call per procedure and distinct draw of a cell
        assert all(cell and max(cell.values()) == 1 for cell in cells)
        called = {name for cell in cells for name, _ in cell}
        assert called == {proc.name for proc in scenario.procedures}
        assert table == oracles.brute_force_table(scenario)

    def test_binomial_memo_saves_most_calls(self, monkeypatch):
        # the coin config draws 1500 datasets per procedure from few counts
        scenario = load_config(CONFIG_DIR / "coin_scenario.json").scenario
        by_cell = _counting_bind(monkeypatch)
        run_operating_characteristics(scenario)
        rope = [c for cell in by_cell() for (name, _), c in cell.items() if name == "rope"]
        assert max(rope) == 1
        assert sum(rope) <= 101 * len(scenario.sample_sizes)

    def test_memo_does_not_outlive_a_call(self, monkeypatch):
        scenario = tiny_coin(replicates=20)
        by_cell = _counting_bind(monkeypatch)
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
        by_cell = _counting_bind(monkeypatch)
        table = run_operating_characteristics(scenario)
        calls = sum(by_cell(), Counter())
        assert max(calls.values()) == 1
        drawn = [
            {simulate_dataset(scenario, effect, 25, r).k for r in range(200)}
            for effect in scenario.true_effects
        ]
        # both cells drew some counts, and each was evaluated at most once;
        # a count whose verdict a certificate names is not evaluated at all
        assert drawn[0] & drawn[1]
        assert len(calls) <= len(drawn[0] | drawn[1]) * len(procedures)
        assert table == oracles.brute_force_table(scenario)

    def test_continued_fractions_per_distinct_count(self, monkeypatch):
        # a grid shaped like the benchmark's binomial sweep: the tails the
        # posterior caches serve the moments of the expected-loss panels, so
        # an evaluated count costs the test's one tail plus the tails at the
        # cut points, and the certificates leave most counts unevaluated
        calls = []
        cont_frac = inference._beta_cont_frac

        def counting_cont_frac(a, b, x):
            calls.append((a, b, x))
            return cont_frac(a, b, x)

        monkeypatch.setattr(inference, "_beta_cont_frac", counting_cont_frac)
        scenario = _bench_binomial(true_effects=BENCH_BINOMIAL_EFFECTS)
        run_operating_characteristics(scenario)
        counts = {
            (n, simulate_dataset(scenario, effect, n, r).k)
            for effect in scenario.true_effects
            for n in scenario.sample_sizes
            for r in range(scenario.replicates)
        }
        assert len(counts) > 100
        assert len(calls) <= 5 * len(counts)
        assert len(calls) < 700

    def test_normal_sweep_memory_does_not_grow_with_replicates(self):
        # a normal draw never repeats, and the maps hold only the draws
        # evaluated, while the draws stay in blocks
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
            procedures=(ProcedureSpec("nhst", {}), ProcedureSpec("tost", {})),
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
            sim._bind_sweep(scenario), draw.n, [[draw.ybar]], {}
        )
        got = [
            (type(first_error[i]), str(first_error[i])) if i in first_error else counts[i]
            for i in range(len(procs))
        ]

        def alone(proc):
            try:
                return Counter([oracles.compile_procedure(scenario, proc)(draw)])
            except RelkitError as exc:
                return type(exc), str(exc)

        assert got == [alone(proc) for proc in procs]
        vanished = (NumericalError, "posterior mass vanishes on the parameter space [-0.1, 0.1]")
        # rope and expected_loss truncate to the space; hypothesis_ratio
        # takes the untruncated masses of H0 and H1, which both underflow
        assert got[2:5] == [vanished, DEGENERATE, vanished]

    def test_far_out_posterior_takes_the_odds_of_its_masses(self):
        """N(0.194, 0.00245) on [-0.1, 0.1], about 38 sd beyond it: the
        space's mass is subnormal, so rope, which truncates to the space,
        raises, while the hypothesis-ratio rule and the Bayes factor take the
        odds of the untruncated masses of H0 and H1, of which only H1's is
        not 0."""
        scenario = _bench_normal()
        space, prior = scenario.loss.space, scenario.prior
        # n = 6648 and the prior N(0, 0.05) give the posterior sd 0.00245,
        # and this ybar its mean 0.194
        model = inference.NormalKnownVarModel(6648, 0.194 * 166600 / 166200, 0.2, *prior)
        posterior = sim._shared_posterior(model, space)
        assert posterior().params == pytest.approx((0.194, 0.00245), rel=1e-4)
        pair = sim.derive_hypotheses(sim.partition(scenario.loss))

        def run(name):
            bound = sim.bind_procedure(ProcedureSpec(name, {}), "normal", scenario.loss, pair, prior)
            verdict, report, _ = bound.kernel(model, posterior)
            return verdict, report()

        verdict, outcome = run("hypothesis_ratio")
        assert (verdict, outcome.decision, outcome.posterior_h1) == ("a1", "a1", 1.0)
        ratio = decisions.LossRatio.scalar(1.0)
        assert decisions.bayes_two_action_decision(posterior(), pair, ratio) == outcome
        assert run("bayes_factor")[0] == "favors_h1"
        with pytest.raises(NumericalError, match="posterior mass vanishes"):
            run("rope")


# --- the certified sweep against direct evaluation ------------------------

def _bench_normal(**changes):
    """The scenario of the benchmark's normal sweep: the aspirin loss with
    all six procedures and a Normal(0, 0.05) prior."""
    changes = {"prior": (0.0, 0.05), "procedures": BENCH_NORMAL_PROCEDURES, **changes}
    return shipped_scenario("aspirin_scenario", **changes)


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
        "bayes_factor": lambda: {"threshold": draw(st.sampled_from([1.0, 3.0, 10.0]))},
    }
    if family == "binomial":
        del menu["tost"]
    names = draw(st.lists(st.sampled_from(sorted(menu)), min_size=1, max_size=5, unique=True))
    return tuple(ProcedureSpec(name, menu[name]()) for name in names)


@st.composite
def _scenarios(draw):
    family = draw(st.sampled_from(["binomial", "normal"]))
    if family == "binomial":
        lo, hi = draw(st.sampled_from([(-0.5, 0.5), (-0.3, 0.4), (-0.2, 0.2)]))
        prior = draw(st.sampled_from([None, (1.0, 1.0), (3.0, 0.7), (0.5, 0.5), (3.0, 7.0)]))
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


BENCH_BINOMIAL_EFFECTS = (-0.3, -0.106, -0.05, 0.0, 0.05, 0.106, 0.3)


def _bench_binomial(**changes):
    """The coin scenario with the procedures of the benchmark's binomial
    sweep, on a part of its grid."""
    changes = {
        "true_effects": (-0.106, 0.0, 0.3),
        "sample_sizes": (20, 100, 1000),
        "replicates": 48,
        "procedures": BENCH_BINOMIAL_PROCEDURES,
        **changes,
    }
    return shipped_scenario("coin_scenario", **changes)


def _narrow_loss(half):
    """A loss on [-half, half] shaped like the aspirin loss: a0 costs
    |theta|, a1 costs half/4 at 0 and nothing at either end."""
    space = ParameterSpace(-half, half)
    knots = (-half, 0.0, half)
    return LossSpec(
        space,
        "piecewise_linear",
        CurveKnots(knots=knots, values=(half, 0.0, half)),
        CurveKnots(knots=knots, values=(0.0, half / 4, 0.0)),
    )


# the cells next to the bound on the shape sum: n = 2^16 - 2 is certified
# under the Beta(1, 1) prior and n = 2^16 - 1 not; under a Beta(3, 7) prior,
# n = 2^16 - 10 and 2^16 - 9
AT_THE_BOUND = (
    _bench_binomial(true_effects=(0.0, 0.106), sample_sizes=(2**16 - 2, 2**16 - 1), replicates=24),
    _bench_binomial(
        true_effects=(0.0, 0.106),
        sample_sizes=(2**16 - 10, 2**16 - 9),
        replicates=24,
        prior=(3.0, 7.0),
    ),
)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(_scenarios())
@example(_bench_binomial(prior=(3.0, 7.0)))
@example(
    _bench_binomial(
        loss=_narrow_loss(0.2), true_effects=(-0.15, 0.0, 0.1), prior=(0.5, 0.5)
    )
)
@example(_bench_binomial(loss=quadratic_pair_spec(), true_effects=(-0.3, 0.1, 0.2)))
@example(AT_THE_BOUND[0])
@example(AT_THE_BOUND[1])
def test_certified_sweep_equals_direct_sweep(scenario):
    """Verdict counts and error reports of every cell equal those of each
    procedure evaluated on every replicate."""
    got = _result(run_operating_characteristics, scenario)
    assert got == _result(oracles.brute_force_table, scenario)


@pytest.mark.parametrize("scenario", AT_THE_BOUND, ids=["prior", "beta-3-7-prior"])
def test_cell_over_the_bound_runs_on_every_distinct_count(monkeypatch, scenario):
    by_cell = _counting_bind(monkeypatch)
    run_operating_characteristics(scenario)
    calls = sum(by_cell(), Counter())
    under, over = scenario.sample_sizes
    for n in (under, over):
        drawn = {
            simulate_dataset(scenario, effect, n, r).k
            for effect in scenario.true_effects
            for r in range(scenario.replicates)
        }
        for proc in scenario.procedures:
            evaluated = {model.k for (name, model) in calls if name == proc.name and model.n == n}
            if n == over:
                assert evaluated == drawn, proc.name
            else:
                assert len(evaluated) < len(drawn), proc.name
    assert max(calls.values()) == 1


@pytest.mark.parametrize("n", [20, 100, 1000])
def test_verdict_map_walks_exact_binomial_weights(n):
    """A map walks float weights as it walks replicate counts: one block of
    every count k, weighted by the binomial pmf at a true effect, gives each
    procedure's exact rates, the sums of pmf(k) over the counts of each
    verdict, which sum to 1. One map per procedure serves every effect, as
    in a run; it evaluates a count at most once, and at n = 1000 fewer
    counts than there are."""
    scenario = shipped_scenario("coin_scenario")
    sweep = sim._bind_sweep(scenario)
    counts = list(range(n + 1))
    maps = [sim._VerdictMap(bound, n <= sweep.certified_to) for bound in sweep.bound]
    exact = [
        [oracles.compile_procedure(scenario, proc)(sim.BinomialDraw(n, k)) for k in counts]
        for proc in scenario.procedures
    ]
    evaluated = [[] for _ in maps]

    def drawing(calls):
        def draw(k):
            calls.append(k)
            model = sweep.model(n, k)
            return model, sim._shared_posterior(model, sweep.space)

        return draw

    for effect in scenario.true_effects:
        pmf = stats.binom.pmf(counts, n, effect + 0.5)
        cum = [0.0, *itertools.accumulate(pmf)]
        for verdict_map, verdicts, calls in zip(maps, exact, evaluated):
            rates, failed = verdict_map.walk(counts, cum, drawing(calls))
            want = Counter()
            for verdict, p in zip(verdicts, pmf):
                want[verdict] += p
            assert not failed
            assert set(rates) <= set(want)
            assert all(abs(rates[v] - want[v]) <= 1e-12 for v in want), (effect, rates, want)
            assert abs(sum(rates.values()) - 1.0) <= 1e-12
    for calls in evaluated:
        assert len(set(calls)) == len(calls)
        if n == 1000:
            assert len(calls) < n + 1


def _block_counts(scenario, n, statistics):
    """Per procedure, the sweep's counts over one block of statistics and
    the (class, message) of its first error."""
    counts, first_error = sim._tally(sim._bind_sweep(scenario), n, [statistics], {})
    return [
        (counts[i], (type(first_error[i]), str(first_error[i])) if i in first_error else None)
        for i in range(len(scenario.procedures))
    ]


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
    """Hand-built blocks of draws, placed in the sweep's maps and compared
    with each procedure evaluated directly on every draw."""

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
            verdict = oracles.compile_procedure(scenario, proc)
            cuts = _cuts(lambda x: verdict(sim.NormalDraw(n, x, 0.2)), lo, hi)
            # tost never finds equivalence at n = 50
            assert cuts or proc.name == "tost", proc.name
            for cut in cuts:
                statistics += [cut + k * 1e-13 for k in range(-9, 10)]
        # spread over the whole range too, in an unsorted replicate order
        statistics += [lo + (hi - lo) * ((7 * i) % 101) / 100 for i in range(101)]
        assert _block_counts(scenario, n, statistics) == oracles.brute_force_counts(
            scenario, n, statistics
        )

    @pytest.mark.parametrize("n", [20, 100, 1000])
    def test_binomial_counts_on_both_sides_of_each_cut(self, n):
        scenario = shipped_scenario(
            "coin_scenario",
            prior=(2.0, 5.0),
            procedures=(
                ProcedureSpec("nhst", {}),
                ProcedureSpec("rope", {}),
                ProcedureSpec("hypothesis_ratio", {"loss_ratio": [0.5, 2.0]}),
                ProcedureSpec("bayes_factor", {"threshold": 3.0}),
            ),
        )
        statistics = []
        for proc in scenario.procedures:
            verdict = oracles.compile_procedure(scenario, proc)
            verdicts = [verdict(sim.BinomialDraw(n, k)) for k in range(n + 1)]
            cuts = [k for k in range(1, n + 1) if verdicts[k] != verdicts[k - 1]]
            assert cuts, proc.name
            statistics += [k for cut in cuts for k in (cut - 1, cut, cut, cut - 1)]
        statistics += [0, n, n // 3, n // 2]
        assert _block_counts(scenario, n, statistics) == oracles.brute_force_counts(
            scenario, n, statistics
        )

    def test_expected_loss_turning_inside_a_panel(self):
        # a0 at both ends and a1 between them: a box spanned by the ends
        # alone must not name a verdict
        scenario = _bowl()
        statistics = [-0.45 + 0.9 * ((7 * i) % 61) / 60 for i in range(61)]
        got = _block_counts(scenario, 400, statistics)
        assert got == oracles.brute_force_counts(scenario, 400, statistics)
        assert set(got[0][0]) == {"a0", "a1"}

    def test_vanishing_posterior_errors_as_direct(self):
        # ybar = 0.194 at n = 22000 puts the posterior about 70 sd beyond
        # the space [-0.1, 0.1], where its mass vanishes; the procedures
        # that truncate to the space raise there, and hypothesis_ratio,
        # whose untruncated masses of H0 and H1 both underflow
        scenario = _bench_normal()
        statistics = [0.01, 0.194, -0.003, 0.16, 0.09, 0.3, 0.05, 0.1948, 0.0]
        got = _block_counts(scenario, 22000, statistics)
        assert got == oracles.brute_force_counts(scenario, 22000, statistics)
        vanished = (NumericalError, "posterior mass vanishes on the parameter space [-0.1, 0.1]")
        assert [first for _, first in got[2:5]] == [vanished, DEGENERATE, vanished]

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
        assert got == oracles.brute_force_counts(scenario, 22000, statistics)
        assert got[2][1] == (NumericalError, "no posterior at ybar=0.07")

    def test_sweep_with_vanishing_posteriors_matches_direct(self):
        # a prior mean that puts the posteriors of effect 0.1 about 37 sd
        # beyond the space: some draws' posteriors vanish there, others not
        w = (22000 / 0.04) / (22000 / 0.04 + 1 / 0.05**2)
        sd = (22000 / 0.04 + 1 / 0.05**2) ** -0.5
        prior_mean = (0.1 + 37.5 * sd - w * 0.1) / (1.0 - w)
        # that prior gives the pair no mass, so the Bayes factor is refused
        # under it, and the sweep runs without it
        scenario = _bench_normal(
            prior=(prior_mean, 0.05),
            true_effects=(0.1, 0.0),
            replicates=60,
            procedures=BENCH_NORMAL_PROCEDURES[:-1],
        )
        refused = dataclasses.replace(scenario, procedures=BENCH_NORMAL_PROCEDURES)
        with pytest.raises(ValidationError, match="zero prior mass"):
            run_operating_characteristics(refused)
        table = run_operating_characteristics(scenario)
        assert table == oracles.brute_force_table(scenario)
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
        ((kernel, *_),) = sweep.bound
        model = sweep.model(100, 1.0)
        coords = kernel(model, sim._shared_posterior(model, space))[2]()
        pair = sim.derive_hypotheses(sim.partition(loss))
        _, cells = sim._odds_cells(sim._pair_ends(pair))
        assert sim._odds_masses(coords, cells) == (0.0, 0.0)
        table = run_operating_characteristics(scenario)
        assert table == oracles.brute_force_table(scenario)
        assert table.cells[0].frequencies["favors_h0"] > 0.9

    def test_draws_raising_past_an_end_are_each_evaluated(self, monkeypatch):
        # rope raises on the 16 highest of 48 draws, a ray past the draws it
        # does not raise on, as where a posterior's mass vanishes: each
        # raising draw is evaluated once, in whichever of the three blocks
        # it lies, and few of the others
        monkeypatch.setattr(sim, "SWEEP_BLOCK", 16)
        scenario = _bench_normal(
            true_effects=(0.05,),
            sample_sizes=(22000,),
            replicates=48,
            procedures=(ProcedureSpec("rope", {}),),
        )
        draws = [simulate_dataset(scenario, 0.05, 22000, r).ybar for r in range(48)]
        raising = set(sorted(draws)[32:])
        bind = sim.bind_procedure

        def raising_bind(proc, family, loss, pair, prior):
            bound = bind(proc, family, loss, pair, prior)

            def kernel(model, posterior):
                if model.ybar in raising:
                    raise NumericalError(f"no verdict at ybar={model.ybar}")
                return bound.kernel(model, posterior)

            return bound._replace(kernel=kernel)

        monkeypatch.setattr(sim, "bind_procedure", raising_bind)
        by_cell = _counting_bind(monkeypatch)
        table = run_operating_characteristics(scenario)
        (calls,) = by_cell()
        assert table == oracles.brute_force_table(scenario)
        (report,) = table.errors
        assert report.count == 16
        assert all(raising & set(draws[start : start + 16]) for start in (0, 16, 32))
        evaluated = {model.ybar for _, model in calls}
        assert max(calls.values()) == 1
        assert raising <= evaluated
        assert len(evaluated - raising) < 16

    def test_binomial_rule_raising_on_inner_counts(self, monkeypatch):
        # rope says accept_a1 on every count from 20 to 25 of 25, and here
        # raises on 22 and 23 alone: a map that evaluated only the ends
        # would miss the errors, so a binomial cell above the bound, where
        # the continued fraction may fail so, runs on every count
        monkeypatch.setattr(sim, "CERTIFIED_SHAPE_SUM", 26.0)
        rope = sim._rope

        def failing(post, lo, hi, tail):
            if post.params[0] in (23.0, 24.0):  # k = 22 and 23 under Beta(1, 1)
                raise NumericalError(f"no tail at alpha={post.params[0]}")
            return rope(post, lo, hi, tail)

        monkeypatch.setattr(sim, "_rope", failing)
        scenario = tiny_coin(procedures=(ProcedureSpec("rope", {}),))
        statistics = [25, 21, 22, 20, 23, 24, 22]
        got = _block_counts(scenario, 25, statistics)
        assert got == oracles.brute_force_counts(scenario, 25, statistics)
        assert got[0][0] == Counter(accept_a1=4, error=3)


def test_binomial_cells_carry_certificates_under_the_bound():
    # a cell is certified while n plus the prior's alpha + beta is at most
    # 2^16: above it the beta tails' continued fraction may fail on inner
    # counts alone
    procedures = tuple(ProcedureSpec(name, {}) for name in sim.PROCEDURES if name != "tost")
    for prior, largest in (
        ((1.0, 1.0), 2**16 - 2),
        ((0.5, 0.5), 2**16 - 1),
        ((3.0, 7.0), 2**16 - 10),
        ((30.0, 20.0), 2**16 - 50),
    ):
        coin = shipped_scenario("coin_scenario", prior=prior, procedures=procedures)
        sweep = sim._bind_sweep(coin)
        assert None not in [bound.certificate for bound in sweep.bound]
        for n in (1, 1000, largest):
            assert n <= sweep.certified_to
        for n in (largest + 1, 10**6):
            assert n > sweep.certified_to


def test_every_normal_posterior_procedure_carries_a_certificate():
    # nhst and tost too, at every n; the aspirin loss is piecewise linear; L(a1) - L(a0) = theta^2 - 0.04
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
    bowl = dataclasses.replace(_bowl(), procedures=BENCH_NORMAL_PROCEDURES)
    for scenario in (normal, bowl, normal_linear):
        sweep = sim._bind_sweep(scenario)
        assert None not in [bound.certificate for bound in sweep.bound]
        assert 10**9 <= sweep.certified_to
    alone = (ProcedureSpec("expected_loss", {}),)
    (bound,) = sim._bind_sweep(dataclasses.replace(normal, procedures=alone)).bound
    assert bound.certificate is not None
    assert sim._bind_sweep(_bowl()).bound[0].certificate is not None
    normal_linear = dataclasses.replace(normal_linear, procedures=alone)
    assert sim._bind_sweep(normal_linear).bound[0].certificate is not None


def _assert_box_verdicts(scenario, n, statistics):
    """Over the sorted statistics of one procedure's draws: the verdict of
    each draw's own coordinates is its kernel's, and the widened box of two
    draws up to 2^9 apart names no verdict that a draw between them lacks;
    some boxes that hold one verdict name it."""
    sweep = sim._bind_sweep(scenario)
    ((kernel, cert, *_),) = sweep.bound
    assert n <= sweep.certified_to
    verdicts, coords = [], []
    for x in statistics:
        model = sweep.model(n, x)
        verdict, _, draw_coords = kernel(model, sim._shared_posterior(model, sweep.space))
        verdicts.append(verdict)
        coords.append(draw_coords())
    assert [cert(c) for c in coords] == verdicts
    named = 0
    for i in range(len(coords)):
        for j in (i + 2**e for e in range(10)):
            if j < len(coords) and (box := sim._box_verdict(cert, coords[i], coords[j])):
                assert set(verdicts[i : j + 1]) == {box}
                named += 1
    assert named > 0
    return verdicts


@pytest.mark.parametrize("prior", [(1.0, 1.0), (0.5, 0.5), (3.0, 7.0)])
@pytest.mark.parametrize("n", [20, 100, 1000])
def test_nhst_certificate_names_the_exact_tests_verdicts(n, prior):
    scenario = shipped_scenario(
        "coin_scenario", prior=prior, procedures=(ProcedureSpec("nhst", {}),)
    )
    verdicts = _assert_box_verdicts(scenario, n, range(n + 1))
    # reject on both sides of the null, and not at its middle
    assert verdicts[0] == verdicts[-1] == "reject" != verdicts[n // 2]


@pytest.mark.parametrize("name", ["nhst", "tost"])
@pytest.mark.parametrize("n", [50, 22000])
def test_normal_test_certificates_name_the_tests_verdicts(name, n):
    # a dense ybar scan: nhst's z over [-6, 6] and tost's beyond both bounds
    scenario = _bench_normal(procedures=(ProcedureSpec(name, {}),))
    se = 0.2 / math.sqrt(n)
    lo, hi = (-6 * se, 6 * se) if name == "nhst" else (-0.02 - 6 * se, 0.02 + 6 * se)
    verdicts = _assert_box_verdicts(scenario, n, [lo + (hi - lo) * i / 2000 for i in range(2001)])
    assert len(set(verdicts)) == 2 or (name, n) == ("tost", 50)


BOX_SCENARIOS = {
    "coin": lambda: shipped_scenario("coin_scenario"),
    "bench_binomial": lambda: _bench_binomial(),
    "aspirin": lambda: shipped_scenario("aspirin_scenario"),
    "bench_normal": lambda: _bench_normal(),
}
POSTERIOR_BOX_CASES = [
    (name, proc, n)
    for name, scenario in BOX_SCENARIOS.items()
    for proc in scenario().procedures
    if proc.name in ("rope", "hypothesis_ratio", "expected_loss", "bayes_factor")
    for n in ((20, 100, 1000) if scenario().family == "binomial" else (50, 22000))
]


@pytest.mark.parametrize(
    "name, proc, n",
    POSTERIOR_BOX_CASES,
    ids=[f"{name}-{proc.name}-{n}" for name, proc, n in POSTERIOR_BOX_CASES],
)
def test_posterior_certificates_name_the_kernels_verdicts(name, proc, n):
    # every count, or a dense ybar scan over the space and 6 standard
    # errors past it: the expected-loss kernel reads its verdict from the
    # coordinates it returns, and the other kernels from tail masses
    scenario = dataclasses.replace(BOX_SCENARIOS[name](), procedures=(proc,))
    if scenario.family == "binomial":
        statistics = range(n + 1)
    else:
        reach = 6.0 * scenario.sigma / math.sqrt(n)
        lo, hi = scenario.loss.space.lo - reach, scenario.loss.space.hi + reach
        statistics = [lo + (hi - lo) * i / 2000 for i in range(2001)]
    _assert_box_verdicts(scenario, n, statistics)


def test_continued_fraction_stays_inside_half_its_cap_under_the_bound(monkeypatch):
    """The bound on a certified cell's shape sum: at half the continued
    fraction's iteration cap, no tail a sweep takes raises, at every count
    of the shape sums 2^4 to 2^10 and within 8 counts of each switch point
    of the sums 2^11 to 2^16, where the fraction converges slowest; the
    exact test's tails at x = 1/2 likewise."""
    monkeypatch.setattr(inference, "_CF_MAX_ITER", 300)
    assert sim.CERTIFIED_SHAPE_SUM == 2**16
    cuts = [*(i / 61 for i in range(1, 61)), 1e-4, 9e-4, 1 - 9e-4, 1 - 1e-4]
    for power in range(4, 17):
        total = 2.0**power
        for a0, b0 in [(1.0, 1.0), (0.5, 0.5), (3.0, 7.0)]:
            n = int(total - a0 - b0)
            for x in cuts:
                # the tails switch sides where x (a + b + 2) = a + 1, a = k + a0
                switch = x * (total + 2.0) - 1.0 - a0
                near = range(max(0, math.ceil(switch) - 8), min(n, math.floor(switch) + 8) + 1)
                for k in range(n + 1) if power <= 10 else near:
                    inference._beta_tails((k + a0, n - k + b0), x)
            middle = range(n + 1) if power <= 10 else range(n // 2 - 8, n // 2 + 9)
            for k in middle:
                inference._binomial_point_null(sim.BinomialModel(n, k))


def test_each_statistic_is_evaluated_once_per_run(monkeypatch):
    # blocks of 16 over the benchmark's binomial grid: each (n, k) is
    # evaluated at most once per procedure in the whole run
    monkeypatch.setattr(sim, "SWEEP_BLOCK", 16)
    scenario = _bench_binomial(true_effects=BENCH_BINOMIAL_EFFECTS)
    by_cell = _counting_bind(monkeypatch)
    table = run_operating_characteristics(scenario)
    assert max(sum(by_cell(), Counter()).values()) == 1
    assert table == oracles.brute_force_table(scenario)


BENCH_NORMAL_GRID = {
    "true_effects": (0.0, 0.0077, 0.02, 0.05),
    "sample_sizes": (50, 22000),
    "replicates": 100,
}


@pytest.mark.parametrize(
    "scenario",
    [
        _bench_normal(**BENCH_NORMAL_GRID),
        _bench_binomial(true_effects=BENCH_BINOMIAL_EFFECTS),
    ],
    ids=["normal", "binomial"],
)
def test_each_probed_draw_evaluates_its_rule_once(monkeypatch, scenario):
    """A probed draw's verdict and coordinates come from one evaluation of
    its rule: one _rope and one _tost_tails per kernel call."""
    evaluations = Counter()
    for rule, name in ((sim._rope, "rope"), (sim._tost_tails, "tost")):

        def counted(*args, rule=rule, name=name):
            evaluations[name] += 1
            return rule(*args)

        monkeypatch.setattr(sim, rule.__name__, counted)
    by_cell = _counting_bind(monkeypatch)
    run_operating_characteristics(scenario)
    kernel_calls = Counter()
    for (name, _), count in sum(by_cell(), Counter()).items():
        kernel_calls[name] += count
    counted = {p.name for p in scenario.procedures} & {"rope", "tost"}
    assert all(kernel_calls[name] > 0 for name in counted)
    assert evaluations == Counter({name: kernel_calls[name] for name in counted})


def test_normal_bench_grid_takes_few_kernel_calls(monkeypatch):
    # the benchmark's normal grid at 10^4 replicates: 80,000 draws per
    # procedure, of which the maps evaluate a few hundred
    by_cell = _counting_bind(monkeypatch)
    table = run_operating_characteristics(
        _bench_normal(
            true_effects=(0.0, 0.0077, 0.02, 0.05), sample_sizes=(50, 22000), replicates=10_000
        )
    )
    assert not table.errors
    assert sum(sum(cell.values()) for cell in by_cell()) <= 2000


def test_quadratic_loss_sweep_walks_expected_loss(monkeypatch):
    """A sweep of a loss whose difference turns inside its panel gives the
    direct counts and evaluates expected_loss on a few draws only."""
    scenario = dataclasses.replace(
        _bowl(), true_effects=(0.0, 0.1, 0.2), sample_sizes=(50, 400, 22000), replicates=200
    )
    want = oracles.brute_force_table(scenario)
    by_cell = _counting_bind(monkeypatch)
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
        assert run_operating_characteristics(scenario) == oracles.brute_force_table(scenario)


# --- the verdict orders against dense scans ---------------------------------


def _scan_procedures(family):
    """Every procedure, with the settings of the shipped and benchmark
    scenarios."""
    tost = (ProcedureSpec("tost", {"alpha": 0.05, "bounds": "partition_hull"}),)
    return (
        ProcedureSpec("nhst", {"alpha": 0.05}),
        *(tost if family == "normal" else ()),
        ProcedureSpec("rope", {"mass": 0.95, "rope": "partition_hull"}),
        ProcedureSpec("hypothesis_ratio", {"loss_ratio": 1.0}),
        ProcedureSpec("hypothesis_ratio", {"loss_ratio": [0.5, 2.0]}),
        ProcedureSpec("expected_loss", {}),
        ProcedureSpec("bayes_factor", {"threshold": 3.0}),
    )


def _scan_losses(shipped):
    """The shipped loss, the narrow and quadratic ones of the sweep tests,
    and random losses."""
    rng = random.Random(25)
    losses = {"shipped": shipped, "narrow": _narrow_loss(0.2), "quadratic": quadratic_pair_spec()}
    return {**losses, **{f"random{i}": random_loss_spec(rng) for i in range(4)}}


def _is_unimodal(verdicts, order):
    """Whether every upper set of the order, outer verdict first, is one run
    of the sequence: no verdict ranks below both one before it and one after."""
    ranks = [order.index(v) for v in verdicts]
    before = itertools.accumulate(ranks, max)
    after = list(itertools.accumulate(reversed(ranks), max))[::-1]
    return all(rank >= min(b, a) for rank, b, a in zip(ranks, before, after))


@pytest.mark.parametrize(
    "family, n",
    [("binomial", 20), ("binomial", 100), ("binomial", 1000), ("normal", 50), ("normal", 22000)],
)
def test_bound_verdict_orders_hold_on_dense_scans(family, n):
    """Wherever a bind step names a verdict order, the verdicts over every
    count, or over a ybar grid dense around every cut, are unimodal in it:
    each upper set of the order is an interval of the statistic. The
    shipped, narrow and quadratic losses name an order for every procedure."""
    base = shipped_scenario("coin_scenario" if family == "binomial" else "aspirin_scenario")
    named = Counter()
    for loss_name, loss in _scan_losses(base.loss).items():
        for proc in _scan_procedures(family):
            scenario = dataclasses.replace(base, loss=loss, true_effects=(0.0,), procedures=(proc,))
            try:
                (order,) = [bound.order for bound in sim._bind_sweep(scenario).bound]
            except ValidationError:
                continue  # a setting this loss refuses, as a partition hull it lacks
            assert order is not None or loss_name.startswith("random"), (loss_name, proc)
            if order is None:
                continue
            verdict = oracles.compile_procedure(scenario, proc)

            def verdict_at(x):
                try:
                    return verdict(oracles.draw_of(scenario, n, x))
                except RelkitError:
                    return None

            if family == "binomial":
                statistics = range(n + 1)
            else:
                se = scenario.sigma / math.sqrt(n)
                lo, hi = loss.space.lo - 6 * se, loss.space.hi + 6 * se
                statistics = [lo + (hi - lo) * i / 1000 for i in range(1001)]
                for cut in _cuts(verdict_at, lo, hi, steps=1000):
                    statistics += [cut + k * 1e-13 for k in range(-9, 10)]
                statistics.sort()
            # a draw whose posterior vanishes raises; those lie at the ends
            verdicts = [v for v in map(verdict_at, statistics) if v is not None]
            assert _is_unimodal(verdicts, order), (loss_name, proc, order)
            named[proc.name] += len(set(verdicts)) > 1
    # every procedure changes its verdict along some scan, tost at n = 22000
    assert set(named) == {p.name for p in _scan_procedures(family)}
    assert all(named.values()) or (family, n) == ("normal", 50)


def test_a_weight_changing_sign_three_times_names_no_order():
    # H0 H1 H0 H1 from left to right: H0's two intervals, and H1's, make the
    # odds weight 1_H1 - r 1_H0 change sign three times; with H1 between
    # the two intervals of H0 it changes twice, and a1 is the inner verdict
    space = ParameterSpace(-0.5, 0.5)
    loss = quadratic_pair_spec()
    interleaved = HypothesisPair(
        RegionSet((Interval(-0.5, -0.25), Interval(0.0, 0.25))),
        RegionSet((Interval(-0.25, 0.0, True, True), Interval(0.25, 0.5, True, False))),
    )
    flanked = HypothesisPair(
        RegionSet((Interval(-0.5, -0.25), Interval(0.0, 0.5))),
        RegionSet((Interval(-0.25, 0.0, True, True),)),
    )
    # a1 costs 0.5 less, then more, less, more and less than a0 at the knots
    wavy = LossSpec(
        space,
        "piecewise_linear",
        CurveKnots(knots=(-0.5, 0.5), values=(0.5, 0.5)),
        CurveKnots(knots=(-0.5, -0.25, 0.0, 0.25, 0.5), values=(0.0, 1.0, 0.0, 1.0, 0.0)),
    )
    for family, prior in (("binomial", (1.0, 1.0)), ("normal", (0.0, 0.05))):
        for name, inner in (("hypothesis_ratio", "a1"), ("bayes_factor", "favors_h1")):
            proc = ProcedureSpec(name, {})
            assert sim.bind_procedure(proc, family, loss, interleaved, prior).order is None
            assert sim.bind_procedure(proc, family, loss, flanked, prior).order[-1] == inner
        pair = sim.derive_hypotheses(sim.partition(wavy))
        expected_loss = ProcedureSpec("expected_loss", {})
        assert sim.bind_procedure(expected_loss, family, wavy, pair, prior).order is None


def _cell_frequencies(*tables):
    return {
        (cell.true_effect, cell.n, cell.procedure): cell.frequencies
        for table in tables
        for cell in table.cells
    }


@pytest.mark.parametrize(
    "scenario",
    [
        *(_bench_normal(**BENCH_NORMAL_GRID, seed=seed) for seed in (1, 2, 3)),
        *(
            _bench_binomial(true_effects=BENCH_BINOMIAL_EFFECTS, replicates=48, seed=seed)
            for seed in (1, 2, 3)
        ),
        _bench_binomial(loss=quadratic_pair_spec(), true_effects=(-0.3, 0.1, 0.2)),
    ],
    ids=[*(f"{kind}-{seed}" for kind in ("normal", "binomial") for seed in (1, 2, 3)), "quadratic"],
)
def test_counts_do_not_depend_on_evaluation_order(scenario):
    """The verdict order certifies a gap from the draws a map already holds,
    so the draws a run evaluates depend on the cells it ran before; the
    counts do not: the whole grid, one cell per run and the grid listed in
    reverse give the same counts and error reports."""
    run = lambda **changes: run_operating_characteristics(dataclasses.replace(scenario, **changes))
    whole = run()
    per_cell = [
        run(true_effects=(effect,), sample_sizes=(n,))
        for effect in scenario.true_effects
        for n in scenario.sample_sizes
    ]
    reverse = run(
        true_effects=scenario.true_effects[::-1], sample_sizes=scenario.sample_sizes[::-1]
    )
    assert _cell_frequencies(whole) == _cell_frequencies(*per_cell) == _cell_frequencies(reverse)
    errors = [set(table.errors) for table in (whole, reverse)]
    assert errors[0] == errors[1] == {report for table in per_cell for report in table.errors}


ORACLE_REPLICATES = 10_000
ORACLE_TAIL = 1e-7


def _assert_counts_within_tails(table, exact):
    """Each verdict count of each cell lies inside the central interval of
    Binomial(replicates, exact rate) that leaves ORACLE_TAIL in each tail;
    ``exact`` maps (effect, n, procedure) to {verdict: rate}. A verdict of
    rate 0 is never counted, and one of rate 1 always."""
    reps = table.replicates
    assert reps == ORACLE_REPLICATES and len(table.cells) == len(exact)
    for cell in table.cells:
        rates = exact[cell.true_effect, cell.n, cell.procedure]
        assert set(cell.frequencies) <= {v for v, rate in rates.items() if rate > 0.0}, cell
        for verdict, rate in rates.items():
            count = round(cell.frequencies.get(verdict, 0.0) * reps)
            lo = stats.binom.ppf(ORACLE_TAIL, reps, rate)
            hi = stats.binom.isf(ORACLE_TAIL, reps, rate)
            assert lo <= count <= hi, (cell.true_effect, cell.n, cell.procedure, verdict, rate)


def test_binomial_bench_counts_lie_within_exact_binomial_tails():
    """An oracle independent of the stream: on the benchmark's binomial grid
    at 10^4 replicates, each count lies within ORACLE_TAIL of the exact
    rate, the sum of pmf(k) over the counts k of the verdict, each verdict
    from the procedure compiled alone."""
    scenario = _bench_binomial(
        true_effects=BENCH_BINOMIAL_EFFECTS,
        sample_sizes=(20, 100, 1000),
        replicates=ORACLE_REPLICATES,
        seed=3,
    )
    exact = oracles.exact_binomial_rates(scenario)
    _assert_counts_within_tails(run_operating_characteristics(scenario), exact)


def test_coin_counts_lie_within_exact_binomial_tails():
    """The same oracle on the shipped coin scenario, its three effects and
    procedures at n = 100, with its own seed."""
    scenario = shipped_scenario("coin_scenario", replicates=ORACLE_REPLICATES)
    exact = oracles.exact_binomial_rates(scenario)
    _assert_counts_within_tails(run_operating_characteristics(scenario), exact)


def test_normal_bench_tests_lie_within_tails_of_their_closed_forms():
    """The same oracle for nhst and tost on the benchmark's normal grid,
    whose rates have closed forms: with z = ybar sqrt(n) / sigma, nhst
    rejects where |z| exceeds the two-sided critical value, and tost finds
    equivalence where ybar lies inside the bounds narrowed by the one-sided
    critical value times the standard error."""
    alpha = 0.05
    procs = (ProcedureSpec("nhst", {"alpha": alpha}), ProcedureSpec("tost", {"alpha": alpha}))
    scenario = _bench_normal(
        **{**BENCH_NORMAL_GRID, "replicates": ORACLE_REPLICATES}, procedures=procs, seed=3
    )
    hull = region_hull(partition(scenario.loss).negligible)
    exact = {}
    for effect in scenario.true_effects:
        for n in scenario.sample_sizes:
            se = scenario.sigma / math.sqrt(n)
            reject = oracles.nhst_reject_rate(effect, se, alpha)
            equivalent = oracles.tost_equivalent_rate(effect, se, hull.lo, hull.hi, alpha)
            exact[effect, n, "nhst"] = {"reject": reject, "fail_to_reject": 1.0 - reject}
            exact[effect, n, "tost"] = {
                "equivalent": equivalent,
                "not_equivalent": 1.0 - equivalent,
            }
    _assert_counts_within_tails(run_operating_characteristics(scenario), exact)


# kernel calls per procedure on the benchmark's normal grid, one cell per run
# at 100 replicates and seeds 1-3, as the benchmark sends it. With the box
# certificates alone they were nhst 208, tost 83, rope 120, hypothesis_ratio
# 319, expected_loss 402 and bayes_factor 407 (1,539 in all); with the
# verdict orders too, but without the normal seeds, nhst 208, tost 83 and
# bayes_factor 399 (1,258 in all)
NORMAL_BENCH_CELL_CALLS = {
    "nhst": 98,
    "tost": 69,
    "rope": 120,
    "hypothesis_ratio": 214,
    "expected_loss": 234,
    "bayes_factor": 170,
}
BOX_ONLY_CELL_CALLS = {"nhst": 208, "tost": 83, "rope": 120, "bayes_factor": 407}


def test_normal_bench_cells_take_the_pinned_kernel_calls(monkeypatch):
    by_cell = _counting_bind(monkeypatch)
    for seed in (1, 2, 3):
        for effect in BENCH_NORMAL_GRID["true_effects"]:
            for n in BENCH_NORMAL_GRID["sample_sizes"]:
                cell = {**BENCH_NORMAL_GRID, "true_effects": (effect,), "sample_sizes": (n,)}
                run_operating_characteristics(_bench_normal(**cell, seed=seed))
    calls = Counter()
    for (name, _), count in sum(by_cell(), Counter()).items():
        calls[name] += count
    assert sum(calls.values()) <= 1.05 * sum(NORMAL_BENCH_CELL_CALLS.values())
    for name, count in NORMAL_BENCH_CELL_CALLS.items():
        assert calls[name] <= 1.05 * count, name
    for name, count in BOX_ONLY_CELL_CALLS.items():
        assert calls[name] <= count, name


# a normal grid that takes both seeds: bounds (-0.03, 0.03) leave tost no
# equivalent ybar at n = 50, where bayes_factor reaches no favors_h0 either,
# and both verdicts exist at every larger n; the first effect puts the
# evaluated draws of n = 200 on both sides of favors_h0 before any draw
# inside it
SEEDED_GRID = {
    "true_effects": (-0.025, 0.0, 0.02, 0.05),
    "sample_sizes": (50, 200, 2000, 22000),
    "replicates": 2000,
    "seed": 3,
}


def _seeded_grid(threshold):
    procs = (
        ProcedureSpec("nhst", {"alpha": 0.05}),
        ProcedureSpec("tost", {"alpha": 0.05, "bounds": [-0.03, 0.03]}),
        ProcedureSpec("bayes_factor", {"threshold": threshold}),
    )
    return _bench_normal(**SEEDED_GRID, procedures=procs)


@functools.cache
def _seeded_grid_oracle(threshold):
    return oracles.brute_force_table(_seeded_grid(threshold))


def _binding(monkeypatch, change):
    """Patch the sweep's bind step so that each bound procedure passes
    through change(name, bound)."""
    bind = sim.bind_procedure
    monkeypatch.setattr(
        sim, "bind_procedure", lambda proc, *rest: change(proc.name, bind(proc, *rest))
    )


@pytest.mark.parametrize("threshold", [1.0, 3.0, 10.0])
def test_seeded_normal_maps_count_as_brute_force(monkeypatch, threshold):
    """The normal seeds change where a map evaluates, never a count: the
    grid's tables equal the brute-force ones. Both seeds act: the maps
    evaluate statistics that are no draw, next to the tests' cuts, and the
    search for favors_h0 settles it out of reach at n = 50 alone."""
    scenario, want = _seeded_grid(threshold), _seeded_grid_oracle(threshold)
    answers = []

    def recording(name, bound):
        reaches = bound.reaches_top
        if reaches is None:
            return bound

        def recorded(model):
            answers.append((model.n, reaches(model)))
            return answers[-1][1]

        return bound._replace(reaches_top=recorded)

    _binding(monkeypatch, recording)
    by_cell = _counting_bind(monkeypatch)
    assert run_operating_characteristics(scenario) == want
    reps, size = scenario.replicates, sim.SWEEP_BLOCK
    every_draw = {
        x
        for effect in scenario.true_effects
        for n in scenario.sample_sizes
        for block, start in enumerate(range(0, reps, size))
        for x in sim._draw_block(scenario, effect, n, block, min(size, reps - start)).tolist()
    }
    evaluated = {(name, model.ybar) for cell in by_cell() for name, model in cell}
    assert {name for name, ybar in evaluated if ybar not in every_draw} == {"nhst", "tost"}
    assert all(reached is (n > 50) for n, reached in answers)
    assert (50, False) in answers or threshold == 1.0


def test_an_unreachable_top_verdict_is_reached_by_no_mean_of_a_dense_scan():
    """The search for the top verdict of bayes_factor, and of
    hypothesis_ratio at an interval loss ratio, on random losses, priors,
    sigmas, sample sizes, thresholds and ratios of the normal family: where
    it finds the top out of reach, the kernel gives it at no posterior mean
    of a scan of 2001 means over the space widened by 4 posterior sds; and
    for each procedure it finds the top out of reach on some scenarios, and
    reached on others."""
    rng = random.Random(34)
    row, answers = inference.FAMILIES["normal"], Counter()
    for _ in range(300):
        if rng.random() < 0.5:
            lo = rng.choice([0.03, 0.1, 0.3, 1.0])
            ratio = [lo, lo * rng.choice([3.0, 10.0, 30.0])]
            proc = ProcedureSpec("hypothesis_ratio", {"loss_ratio": ratio})
        else:
            proc = ProcedureSpec("bayes_factor", {"threshold": rng.choice([3.0, 10.0, 30.0])})
        scenario = dataclasses.replace(
            _bench_normal(),
            loss=random_loss_spec(rng),
            sample_sizes=(rng.choice([2, 5, 20, 50]),),
            prior=(rng.uniform(-0.3, 0.3), rng.choice([0.05, 0.2, 1.0])),
            sigma=rng.choice([0.2, 1.0]),
            procedures=(proc,),
        )
        try:
            sweep = sim._bind_sweep(scenario)
        except ValidationError:
            continue  # a loss whose pair has no prior mass in a region
        (bound,) = sweep.bound
        (n,) = scenario.sample_sizes
        reached = bound.reaches_top and bound.reaches_top(sweep.model(n, 0))
        answers[proc.name, reached] += 1
        if reached is not False:
            continue
        # ybar -> posterior mean is linear; scan the means
        (m0, s), (m1, _) = row.update(sweep.model(n, 0)), row.update(sweep.model(n, 1))
        space = scenario.loss.space
        for i in range(2001):
            m = space.lo - 4 * s + (space.hi - space.lo + 8 * s) * i / 2000
            model = sweep.model(n, (m - m0) / (m1 - m0))
            try:
                verdict = bound.kernel(model, sim._shared_posterior(model, space))[0]
            except RelkitError:
                continue
            assert verdict != bound.order[-1], (scenario, m)
    for name in ("hypothesis_ratio", "bayes_factor"):
        assert answers[name, False] >= 5 and answers[name, True] >= 5, answers


def test_an_interval_ratio_hypothesis_ratio_sweep_counts_as_brute_force(monkeypatch):
    """hypothesis_ratio at the loss ratio [0.3, 3] on the seeded grid takes
    the top-verdict search: it finds a0 out of reach at n = 50 and reached
    at n = 200. Its table equals the brute-force one, at fewer kernel calls
    than the same sweep takes without the search."""
    proc = ProcedureSpec("hypothesis_ratio", {"loss_ratio": [0.3, 3.0]})
    scenario = _bench_normal(**SEEDED_GRID, procedures=(proc,))
    want = oracles.brute_force_table(scenario)
    answers = []

    def recording(name, bound):
        def recorded(model):
            answers.append((model.n, bound.reaches_top(model)))
            return answers[-1][1]

        return bound._replace(reaches_top=recorded)

    def calls(change):
        with monkeypatch.context() as patch:
            _binding(patch, change)
            by_cell = _counting_bind(patch)
            assert run_operating_characteristics(scenario) == want
            return sum(sum(cell.values()) for cell in by_cell())

    searched = calls(recording)
    assert answers == [(50, False), (200, True)]
    assert searched < calls(lambda name, bound: bound._replace(reaches_top=None))


def test_hypothesis_ratio_binds_and_sweeps_a_loss_without_a_negligible_region():
    """Where a1's loss lies below a0's at every effect, H0 is empty and
    takes no posterior mass: hypothesis_ratio at an interval ratio binds
    without a top-verdict search, and every draw takes a1."""
    space = ASPIRIN_LOSS.space
    knots = (space.lo, space.hi)
    a0, a1 = CurveKnots(knots, (0.5, 0.5)), CurveKnots(knots, (0.0, 0.0))
    loss = LossSpec(space, "piecewise_linear", a0, a1)
    proc = ProcedureSpec("hypothesis_ratio", {"loss_ratio": [0.5, 2.0]})
    scenario = _bench_normal(loss=loss, procedures=(proc,), sample_sizes=(5, 50), replicates=200)
    (bound,) = sim._bind_sweep(scenario).bound
    assert partition(loss).negligible.is_empty and bound.reaches_top is None
    table = run_operating_characteristics(scenario)
    assert table == oracles.brute_force_table(scenario)
    assert all(cell.frequencies == {"a1": 1.0} for cell in table.cells)


def test_a_wrong_cut_costs_calls_not_counts(monkeypatch):
    """With cuts half a standard error off the tests' own, the maps split
    their gaps elsewhere: the counts stay the brute-force ones, at another
    number of kernel calls."""
    scenario, want = _seeded_grid(3.0), _seeded_grid_oracle(3.0)

    def calls():
        by_cell = _counting_bind(monkeypatch)
        table = run_operating_characteristics(scenario)
        return table, sum(sum(cell.values()) for cell in by_cell())

    table, right = calls()

    def shifted(name, bound):
        if bound.cuts is None:
            return bound
        off = lambda model: 0.5 * model.sigma / math.sqrt(model.n)
        return bound._replace(cuts=lambda model: [c + off(model) for c in bound.cuts(model)])

    _binding(monkeypatch, shifted)
    wrong_table, wrong = calls()
    assert table == wrong_table == want
    assert wrong != right


def test_a_top_verdict_dropped_where_it_is_reached_breaks_the_counts(monkeypatch):
    """The brute-force comparison sees a map that drops favors_h0 where it
    is reached: the same grid with the search's answer forced to "out of
    reach" at every n of favors_h0 miscounts the n = 200 cells, where a gap
    between two inconclusive draws holds favors_h0 draws. At n = 22000 the
    inconclusive band is about 1.4 standard errors wide, so no such gap
    arises there, and the forced answer changes no count."""
    want = _seeded_grid_oracle(10.0)
    forced = lambda name, bound: bound._replace(reaches_top=bound.reaches_top and (lambda m: False))
    _binding(monkeypatch, forced)
    got = run_operating_characteristics(_seeded_grid(10.0))
    wrong = {(cell.true_effect, cell.n) for cell, right in zip(got.cells, want.cells) if cell != right}
    assert wrong and {n for _, n in wrong} == {200}


def _counting_corners(monkeypatch):
    """Patch the sweep's bind step and its box check. Returns Counters of
    the coordinates taken per procedure and per (run, procedure, model), of
    the boxes between two evaluated draws checked per procedure and of the
    verdicts of each such box's two ends, a () -> None that starts the next
    run, and a Counter per procedure of the other boxes, which a search for
    the top verdict checks over posterior means, not draws."""
    coords, per_draw, boxes, ends, runs = Counter(), Counter(), Counter(), Counter(), [0]
    probes = Counter()
    names, verdicts = {}, {}
    bind, box = sim.bind_procedure, sim._box_verdict

    def counting(proc, family, loss, pair, prior):
        bound = bind(proc, family, loss, pair, prior)
        names[id(bound.certificate)] = proc.name

        def kernel(model, posterior):
            verdict, report, draw_coords = bound.kernel(model, posterior)

            def counted():
                coords[proc.name] += 1
                per_draw[runs[0], proc.name, model] += 1
                c = draw_coords()
                verdicts[id(c)] = c, verdict  # keeps c, and so its id
                return c

            return verdict, report, counted

        return bound._replace(kernel=kernel)

    def counted_box(cert, a, b):
        # a live draw's coordinates are kept in verdicts, so no other live
        # tuple has their id
        if id(a) in verdicts and id(b) in verdicts:
            boxes[names[id(cert)]] += 1
            ends[verdicts[id(a)][1], verdicts[id(b)][1]] += 1
        else:
            probes[names[id(cert)]] += 1
        return box(cert, a, b)

    monkeypatch.setattr(sim, "bind_procedure", counting)
    monkeypatch.setattr(sim, "_box_verdict", counted_box)
    return coords, per_draw, boxes, ends, lambda: runs.__setitem__(0, runs[0] + 1), probes


# coordinates taken and boxes between evaluated draws checked per procedure
# on the same cells. Taken at every kernel call, the coordinates would be the
# 905 calls above. On the per-replicate streams of relkit before blocks were
# drawn whole, that was 1,261 and boxing every gap between two evaluated
# draws took 1,257 boxes; taken for a box only, 524 and 630. Before the
# normal seeds, bayes_factor took 263 and 387. Its search for the top
# verdict, once per n = 50 cell, checks one box over posterior means, pinned
# last
NORMAL_BENCH_CELL_COORDS = {
    "nhst": 38,
    "tost": 45,
    "rope": 73,
    "hypothesis_ratio": 41,
    "expected_loss": 87,
    "bayes_factor": 63,
}
NORMAL_BENCH_CELL_BOXES = {
    "nhst": 19,
    "tost": 45,
    "rope": 63,
    "hypothesis_ratio": 40,
    "expected_loss": 118,
    "bayes_factor": 47,
}
NORMAL_BENCH_CELL_PROBE_BOXES = {"bayes_factor": 12}


def test_normal_bench_cells_take_coordinates_only_for_a_box(monkeypatch):
    """A draw's coordinates are taken only when a box between two draws of
    one verdict needs them, at most once per run."""
    coords, per_draw, boxes, _, next_run, probes = _counting_corners(monkeypatch)
    for seed in (1, 2, 3):
        for effect in BENCH_NORMAL_GRID["true_effects"]:
            for n in BENCH_NORMAL_GRID["sample_sizes"]:
                next_run()
                cell = {**BENCH_NORMAL_GRID, "true_effects": (effect,), "sample_sizes": (n,)}
                run_operating_characteristics(_bench_normal(**cell, seed=seed))
    assert max(per_draw.values()) == 1
    assert set(probes) == set(NORMAL_BENCH_CELL_PROBE_BOXES)
    for got, pinned in (
        (coords, NORMAL_BENCH_CELL_COORDS),
        (boxes, NORMAL_BENCH_CELL_BOXES),
        (probes, NORMAL_BENCH_CELL_PROBE_BOXES),
    ):
        assert sum(got.values()) <= 1.05 * sum(pinned.values())
        for name, count in pinned.items():
            assert got[name] <= 1.05 * count, name


@pytest.mark.parametrize(
    "scenario",
    [
        _bench_normal(**BENCH_NORMAL_GRID, seed=3),
        _bench_binomial(true_effects=BENCH_BINOMIAL_EFFECTS, seed=3),
    ],
    ids=["normal", "binomial"],
)
def test_a_box_only_spans_draws_of_one_verdict(monkeypatch, scenario):
    # a gap whose ends' verdicts differ is split without a box; the search
    # for a top verdict boxes posterior means, not draws, and is not counted
    ends = _counting_corners(monkeypatch)[3]
    run_operating_characteristics(scenario)
    assert ends and all(v == w for v, w in ends)


def test_coordinates_that_raise_leave_their_gaps_uncertified(monkeypatch):
    """A draw whose coords() raises NumericalError, which the sweep sees
    when a box first needs it, certifies no gap next to it. Without a
    verdict order, and with every draw of the n = 50 cells raising, those
    cells evaluate each draw that a run without a certificate evaluates,
    and every cell counts as that run does."""
    scenario = _bench_normal(**BENCH_NORMAL_GRID, seed=3, procedures=(BENCH_NORMAL_PROCEDURES[3],))
    bind = sim.bind_procedure

    def run(certified):
        def raising(proc, family, loss, pair, prior):
            bound = bind(proc, family, loss, pair, prior)

            def kernel(model, posterior):
                verdict, report, coords = bound.kernel(model, posterior)

                def fails():
                    raise NumericalError(f"no coordinates at ybar={model.ybar}")

                return verdict, report, fails if model.n == 50 else coords

            return bound._replace(
                kernel=kernel, certificate=bound.certificate if certified else None, order=None
            )

        with monkeypatch.context() as patch:
            patch.setattr(sim, "bind_procedure", raising)
            by_cell = _counting_bind(patch)
            table = run_operating_characteristics(scenario)
            return table, [sum(cell.values()) for cell in by_cell()]

    (table, calls), (plain, plain_calls) = run(True), run(False)
    assert table == plain
    cells = [(e, n) for e in scenario.true_effects for n in scenario.sample_sizes]
    for (_, n), got, every in zip(cells, calls, plain_calls):
        assert got == every if n == 50 else got < every, n
