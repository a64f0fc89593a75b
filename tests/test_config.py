import contextlib
import io
import json
import math
import re

import pytest

from relkit.cli import main
from relkit.config import load_config, parse_config
from relkit.errors import ConfigError
from relkit.inference import BinomialModel, NormalKnownVarModel
from relkit.loss import CurveKnots, QuadraticParams
from relkit.simulate import parse_settings


def minimal(**extra):
    doc = {
        "spec_version": 1,
        "parameter_space": {"lo": -0.5, "hi": 0.5},
        "actions": {"a0_label": "hold", "a1_label": "act"},
        "loss": {"kind": "builtin_coin_demo"},
    }
    doc.update(extra)
    return doc


class TestTopLevel:
    def test_minimal_document(self):
        cfg = parse_config(minimal())
        assert cfg.loss.space.lo == -0.5
        assert cfg.loss.kind == "builtin_coin_demo"
        assert cfg.actions.a1_label == "act"

    def test_unknown_top_key(self):
        with pytest.raises(ConfigError, match="unknown top-level"):
            parse_config(minimal(extra_knob=1))

    def test_missing_required_section(self):
        doc = minimal()
        del doc["loss"]
        with pytest.raises(ConfigError, match="loss"):
            parse_config(doc)

    @pytest.mark.parametrize("version", [None, 0, 2, "1"])
    def test_spec_version_enforced(self, version):
        doc = minimal()
        doc["spec_version"] = version
        with pytest.raises(ConfigError, match="spec_version"):
            parse_config(doc)

    def test_seed_validation(self):
        # a seed is parsed and checked without a scenario to take it
        assert parse_config(minimal(seed=7)).scenario is None
        with pytest.raises(ConfigError, match="seed"):
            parse_config(minimal(seed=-1))


class TestLossSection:
    def test_quadratic_params(self):
        doc = minimal(
            loss={
                "kind": "quadratic",
                "params_a0": {"c": 0.0, "offset": 0.04},
                "params_a1": {"c": 1.0},
            }
        )
        cfg = parse_config(doc)
        assert isinstance(cfg.loss.params_a0, QuadraticParams)
        assert cfg.loss.params_a0.offset == 0.04

    def test_piecewise_params(self):
        doc = minimal(
            loss={
                "kind": "piecewise_linear",
                "params_a0": {"knots": [-0.5, 0.5], "values": [0.0, 1.0]},
                "params_a1": {"knots": [-0.5, 0.5], "values": [1.0, 0.0]},
            }
        )
        cfg = parse_config(doc)
        assert isinstance(cfg.loss.params_a0, CurveKnots)

    def test_table_uses_grid_key(self):
        doc = minimal(
            loss={
                "kind": "table",
                "params_a0": {"grid": [-0.5, 0.5], "values": [0.0, 1.0]},
                "params_a1": {"grid": [-0.5, 0.5], "values": [1.0, 0.0]},
            }
        )
        assert isinstance(parse_config(doc).loss.params_a0, CurveKnots)

    def test_unknown_loss_key(self):
        doc = minimal(loss={"kind": "builtin_coin_demo", "mystery": True})
        with pytest.raises(ConfigError, match="mystery"):
            parse_config(doc)

    def test_missing_curve_params(self):
        doc = minimal(loss={"kind": "quadratic", "params_a0": {"c": 1.0}})
        with pytest.raises(ConfigError, match="params_a1"):
            parse_config(doc)


class TestHypothesesSection:
    def test_intervals_and_singletons(self):
        doc = minimal(hypotheses={"h0": [0], "h1": [[0.2, 0.4, False, False]]})
        cfg = parse_config(doc)
        assert cfg.hypotheses.h0.intervals[0].lo == 0.0
        assert cfg.hypotheses.h0.intervals[0].hi == 0.0
        assert cfg.hypotheses.h1.intervals[0].hi == 0.4

    def test_two_element_interval_defaults_closed(self):
        doc = minimal(hypotheses={"h0": [[-0.1, 0.1]], "h1": [0.3]})
        itv = parse_config(doc).hypotheses.h0.intervals[0]
        assert not itv.lo_open and not itv.hi_open

    def test_overlap_rejected(self):
        doc = minimal(hypotheses={"h0": [[-0.2, 0.2]], "h1": [[0.1, 0.4]]})
        with pytest.raises(ConfigError, match="overlap"):
            parse_config(doc)

    def test_outside_space_rejected(self):
        doc = minimal(hypotheses={"h0": [[-0.2, 0.2]], "h1": [[0.6, 0.8]]})
        with pytest.raises(ConfigError, match="outside"):
            parse_config(doc)


class TestModelSection:
    def test_binomial_with_prior(self):
        doc = minimal(
            model={
                "family": "binomial",
                "data": {"n": 10, "k": 7},
                "prior": {"alpha": 2, "beta": 3},
            }
        )
        model = parse_config(doc).model
        assert isinstance(model, BinomialModel)
        assert (model.prior_alpha, model.prior_beta) == (2.0, 3.0)

    def test_normal_model(self):
        doc = minimal(
            model={
                "family": "normal",
                "sigma": 0.2,
                "data": {"n": 22000, "ybar": 0.0077},
                "prior": {"mean": 0.0, "sd": 0.05},
            }
        )
        model = parse_config(doc).model
        assert isinstance(model, NormalKnownVarModel)
        assert model.sigma == 0.2

    def test_duplicate_prior_rejected(self):
        doc = minimal(
            model={
                "family": "binomial",
                "data": {"n": 10, "k": 7},
                "prior": {"alpha": 1, "beta": 1},
            },
            prior={"alpha": 4, "beta": 4},
        )
        with pytest.raises(ConfigError, match="prior"):
            parse_config(doc)

    @pytest.mark.parametrize(
        "model",
        [None, {"family": "binomial", "data": {"n": 10, "k": 7}}],
        ids=["no-model", "with-model"],
    )
    def test_top_level_prior_exits_2(self, tmp_path, model):
        # the prior belongs to the model section; there is no second spelling
        doc = {**_decision_doc(), "prior": {"alpha": 4, "beta": 4}}
        if model is not None:
            doc["model"] = model
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        code, err = _run(["decide", "--config", str(cfg)])
        assert (code, err) == (2, "relkit: error: unknown top-level key(s) ['prior']\n")


class TestDecisionSection:
    def test_scalar_and_interval_ratio(self):
        cfg = parse_config(minimal(decision={"rule": "hypothesis_ratio", "loss_ratio": 2}))
        assert parse_settings(cfg.decision, None)["loss_ratio"].is_scalar
        cfg = parse_config(
            minimal(decision={"rule": "hypothesis_ratio", "loss_ratio": [1, 3]})
        )
        ratio = parse_settings(cfg.decision, None)["loss_ratio"]
        assert (ratio.lo, ratio.hi) == (1.0, 3.0)

    def test_ratio_required_for_hypothesis_rule(self):
        with pytest.raises(ConfigError, match="loss_ratio"):
            parse_config(minimal(decision={"rule": "hypothesis_ratio"}))

    def test_ratio_rejected_for_expected_loss(self):
        with pytest.raises(ConfigError, match="expected_loss"):
            parse_config(minimal(decision={"rule": "expected_loss", "loss_ratio": 1}))

    def test_unknown_rule(self):
        with pytest.raises(ConfigError, match="rule"):
            parse_config(minimal(decision={"rule": "minimax"}))


class TestComparatorsSection:
    def test_known_procedures(self):
        doc = minimal(
            comparators=[
                {"procedure": "nhst", "alpha": 0.01},
                {"procedure": "rope", "mass": 0.9, "rope": "partition_hull"},
            ]
        )
        cfg = parse_config(doc)
        assert [c.name for c in cfg.comparators] == ["nhst", "rope"]

    def test_unknown_procedure(self):
        with pytest.raises(ConfigError, match="unknown comparator"):
            parse_config(minimal(comparators=[{"procedure": "anova"}]))

    def test_unknown_setting(self):
        with pytest.raises(ConfigError, match="power"):
            parse_config(minimal(comparators=[{"procedure": "nhst", "power": 0.8}]))


class TestScenarioSection:
    def scenario_doc(self, **extra):
        scenario = {
            "name": "demo",
            "family": "binomial",
            "true_effects": [0.0, 0.3],
            "sample_sizes": [50],
            "replicates": 5,
            "prior": {"alpha": 1, "beta": 1},
            "procedures": [{"procedure": "nhst", "alpha": 0.05}],
        }
        scenario.update(extra)
        return minimal(scenario=scenario, seed=11)

    def test_scenario_parses_and_inherits_seed(self):
        doc = self.scenario_doc()
        cfg = parse_config(doc)
        assert cfg.scenario.seed == 11
        assert cfg.scenario.true_effects == (0.0, 0.3)
        del doc["seed"]
        assert parse_config(doc).scenario.seed == 0

    def test_scenario_negative_seed_rejected(self):
        doc = self.scenario_doc()
        doc["seed"] = -5
        with pytest.raises(ConfigError, match="^seed: "):
            parse_config(doc)

    def test_unknown_procedure_rejected(self):
        doc = self.scenario_doc(procedures=[{"procedure": "magic"}])
        with pytest.raises(ConfigError, match="unknown procedure"):
            parse_config(doc)

    def test_effect_outside_space_rejected(self):
        doc = self.scenario_doc(true_effects=[0.9])
        with pytest.raises(ConfigError, match="outside"):
            parse_config(doc)


# --- values: one parser per kind of value, and the key path in every error --


def _scenario_doc(**extra):
    scenario = {
        "name": "demo",
        "family": "binomial",
        "true_effects": [0.0],
        "sample_sizes": [50],
        "replicates": 2,
        "procedures": [{"procedure": "nhst"}],
    }
    scenario.update(extra)
    return minimal(scenario=scenario)


def _curves(a0):
    return minimal(
        loss={
            "kind": "piecewise_linear",
            "params_a0": a0,
            "params_a1": {"knots": [-0.5, 0.5], "values": [1.0, 0.0]},
        }
    )


def _decision_doc(**extra):
    return minimal(
        hypotheses={
            "h0": [[-0.1, 0.1]],
            "h1": [[-0.5, -0.1, False, True], [0.1, 0.5, True, False]],
        },
        decision={"rule": "hypothesis_ratio", "loss_ratio": 1.0, **extra},
    )


# each of these used to load, its value read as something else
COERCIONS = {
    "version true": ({**minimal(), "spec_version": True}, "spec_version"),
    "size 2.7": (_scenario_doc(sample_sizes=[2.7]), "scenario.sample_sizes"),
    "size string": (_scenario_doc(sample_sizes=["50"]), "scenario.sample_sizes"),
    "size bool": (_scenario_doc(sample_sizes=[True]), "scenario.sample_sizes"),
    "open flag string": (
        minimal(hypotheses={"h0": [[-0.1, 0.1, "false", False]], "h1": [0.3]}),
        "hypotheses.h0",
    ),
    "end strings": (
        minimal(hypotheses={"h0": [["-0.1", "0.1"]], "h1": [0.3]}),
        "hypotheses.h0",
    ),
    "flag string": (
        _decision_doc(allow_restricted_space="no"),
        "decision.allow_restricted_space",
    ),
    "knot strings": (
        _curves({"knots": ["-0.5", "0.5"], "values": [0.0, 1.0]}),
        "loss.params_a0.knots",
    ),
    "values string": (
        _curves({"knots": [-0.5, 0.0, 0.5], "values": "123"}),
        "loss.params_a0.values",
    ),
    "knots and grid": (
        _curves({"knots": [], "grid": [-0.5, 0.5], "values": [0.0, 1.0]}),
        "loss.params_a0",
    ),
}


@pytest.mark.parametrize("doc, path", COERCIONS.values(), ids=COERCIONS.keys())
def test_no_silent_coercion(doc, path):
    with pytest.raises(ConfigError, match=re.escape(path)):
        parse_config(doc)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.mark.parametrize("n", [10**30, 10**400])
def test_counts_of_2_to_the_63_or_more_exit_2(tmp_path, n):
    docs = {
        "model.data.n": (
            "decide",
            {**_decision_doc(), "model": {"family": "binomial", "data": {"n": n, "k": 1}}},
        ),
        "scenario.sample_sizes": ("simulate", _scenario_doc(sample_sizes=[n])),
    }
    for path, (command, doc) in docs.items():
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        code, err = _run([command, "--config", str(cfg)])
        assert code == 2 and path in err, (path, code, err)


# the Scenario and model constructors' and the prior parser's own messages,
# behind the section they checked; a constructor called directly keeps its
# message as it is
CONSTRUCTOR_ERRORS = {
    "replicates": (
        "simulate", _scenario_doc(replicates=0), "scenario: replicates must be >= 1, got 0"
    ),
    "sizes": (
        "simulate", _scenario_doc(sample_sizes=[0]), "scenario: sample_sizes must be positive"
    ),
    "no sizes": (
        "simulate", _scenario_doc(sample_sizes=[]), "scenario: sample_sizes must be non-empty"
    ),
    "effects": (
        "simulate", _scenario_doc(true_effects=[]), "scenario: true_effects must be non-empty"
    ),
    "effect outside": (
        "simulate",
        _scenario_doc(true_effects=[0.7]),
        "scenario: true effect 0.7 outside the parameter space [-0.5, 0.5]",
    ),
    "repeated size": (
        "simulate",
        _scenario_doc(sample_sizes=[5, 5]),
        "scenario: sample size(s) [5] listed more than once; each may appear once",
    ),
    "sigma": (
        "simulate",
        _scenario_doc(family="normal", sigma=0),
        "scenario: the normal family needs a positive finite sigma",
    ),
    "prior not an object": (
        "decide",
        {
            **_decision_doc(),
            "model": {"family": "binomial", "data": {"n": 5, "k": 2}, "prior": [1, 2]},
        },
        "model.prior: must be an object with keys ('alpha', 'beta'), got [1, 2]",
    ),
    "improper prior": (
        "simulate",
        _scenario_doc(family="normal", sigma=1, prior={"mean": 0, "sd": 0}),
        "scenario.prior: must be a proper prior, got {'mean': 0, 'sd': 0}",
    ),
    "k above n": (
        "decide",
        {**_decision_doc(), "model": {"family": "binomial", "data": {"n": 5, "k": 7}}},
        "model: need 0 <= k <= n, got k=7, n=5",
    ),
}


@pytest.mark.parametrize(
    "command, doc, message", CONSTRUCTOR_ERRORS.values(), ids=CONSTRUCTOR_ERRORS.keys()
)
def test_constructor_errors_name_their_section(command, doc, message, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    assert _run([command, "--config", str(cfg)]) == (2, f"relkit: error: {message}\n")


def test_largest_count_runs(tmp_path):
    n = 2**63 - 1
    doc = _scenario_doc(sample_sizes=[n])
    doc["model"] = {"family": "binomial", "data": {"n": n, "k": 1}}
    assert parse_config(doc).model.n == n
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    assert _run(["simulate", "--config", str(cfg)])[0] == 0


@pytest.mark.parametrize(
    "doc",
    [
        minimal(model={"family": "binomial", "data": {"n": 10, "k": -1}}),
        minimal(model={"family": "normal", "sigma": math.inf, "data": {"n": 1, "ybar": 0}}),
        minimal(model={"family": "normal", "sigma": 1, "data": {"n": 1, "ybar": math.nan}}),
        minimal(actions={"a0_label": "", "a1_label": "act"}),
    ],
)
def test_malformed_document_raises_config_error(doc):
    with pytest.raises(ConfigError):
        parse_config(doc)


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(minimal(seed=3)), encoding="utf-8")
    assert load_config(path) == parse_config(minimal(seed=3))
    # a seed no scenario takes is still checked
    path.write_text(json.dumps(minimal(seed=-1)), encoding="utf-8")
    with contextlib.redirect_stderr(io.StringIO()) as err:
        assert main(["partition", "--config", str(path)]) == 2
    assert "seed" in err.getvalue()


def test_load_config_bad_json_mentions_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"spec_version": 1,,}', encoding="utf-8")
    with pytest.raises(ConfigError, match="line"):
        load_config(path)


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        load_config("/nonexistent/nope.json")
