"""The procedure table: one set of procedures, settings and defaults for
`compare`, `simulate` and config validation.

`compare` on a config holding one dataset must print the verdict that
`simulate` gives the same dataset; malformed settings must exit 2 from
either command, never with a traceback.
"""

import contextlib
import copy
import dataclasses
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import relkit.simulate as sim
from relkit.cli import main
from relkit.comparators import interval_bayes_factor
from relkit.config import load_config
from relkit.decisions import (
    LossRatio,
    bayes_two_action_decision,
    expected_loss_decision,
)
from relkit.errors import ValidationError
from relkit.hypotheses import derive_hypotheses
from relkit.inference import BinomialModel, posterior_update
from relkit.regions import partition
from relkit.simulate import PROCEDURES, BinomialDraw, NormalDraw, ProcedureSpec

import oracles

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
COIN_COMPARE = json.loads((CONFIG_DIR / "coin_compare.json").read_text())
SCENARIO_CONFIGS = {
    "binomial": CONFIG_DIR / "coin_scenario.json",
    "normal": CONFIG_DIR / "aspirin_scenario.json",
}
SCENARIOS = {f: json.loads(path.read_text()) for f, path in SCENARIO_CONFIGS.items()}

# every procedure with settings other than its defaults where it has any
ALL_PROCEDURES = [
    {"procedure": "nhst", "alpha": 0.01},
    {"procedure": "tost", "alpha": 0.1, "bounds": "partition_hull"},
    {"procedure": "rope", "mass": 0.9, "rope": "partition_hull"},
    {"procedure": "hypothesis_ratio", "loss_ratio": [0.5, 2.0]},
    {"procedure": "expected_loss"},
    {"procedure": "bayes_factor", "threshold": 3.0},
]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _compare_doc(family, data, comparators):
    """A compare config on the scenario's loss, prior and sigma."""
    doc = copy.deepcopy(SCENARIOS[family])
    scenario = doc.pop("scenario")
    doc.pop("seed")
    model = {"family": family, "data": data, "prior": scenario["prior"]}
    if family == "normal":
        model["sigma"] = scenario["sigma"]
    doc["model"] = model
    doc["comparators"] = comparators
    return doc


def _simulate_doc(family, procedures):
    doc = copy.deepcopy(SCENARIOS[family])
    doc["scenario"].update(
        true_effects=[0.01], sample_sizes=[20], replicates=2, procedures=procedures
    )
    return doc


def _compare_rows(tmp_path, doc):
    path = tmp_path / "compare.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = _run(["compare", "--config", str(path)])
    assert code == 0, err
    return json.loads(out)["results"]


def _datasets():
    """(family, dataset, model data) triples: every k at n = 20 on the coin
    loss, and normal draws on both sides of the aspirin loss's crossings."""
    for k in range(21):
        yield "binomial", BinomialDraw(n=20, k=k), {"n": 20, "k": k}
    for n, ybar in ((50, -0.04), (50, 0.0), (200, 0.015), (22000, 0.0077), (400, 0.06)):
        yield "normal", NormalDraw(n=n, ybar=ybar, sigma=0.2), {"n": n, "ybar": ybar}


def test_compare_and_simulate_agree(tmp_path):
    compiled = {}
    for family, path in SCENARIO_CONFIGS.items():
        scenario = load_config(path).scenario
        procs = [
            p for p in ALL_PROCEDURES if family == "normal" or p["procedure"] != "tost"
        ]
        specs = tuple(
            ProcedureSpec(p["procedure"], {k: v for k, v in p.items() if k != "procedure"})
            for p in procs
        )
        scenario = dataclasses.replace(scenario, procedures=specs)
        compiled[family] = (procs, [oracles.compile_procedure(scenario, s) for s in specs])
    checked = set()
    for family, data, model_data in _datasets():
        procs, fns = compiled[family]
        rows = _compare_rows(tmp_path, _compare_doc(family, model_data, procs))
        printed = [r["verdict"] for r in rows]
        assert printed == [fn(data) for fn in fns], (family, data)
        checked.update((family, p["procedure"], v) for p, v in zip(procs, printed))
    # the datasets reach more than one verdict of every procedure
    for name in PROCEDURES:
        for family in SCENARIOS:
            if family == "binomial" and name == "tost":
                continue
            assert len({v for f, p, v in checked if (f, p) == (family, name)}) > 1, (
                family,
                name,
            )


class TestBayesFactorThreshold:
    def _compare(self, tmp_path, comparator):
        doc = dict(COIN_COMPARE, comparators=[comparator])
        path = tmp_path / "bf.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return _run(["compare", "--config", str(path)])

    def test_compare_honours_threshold(self, tmp_path):
        code, out, _ = self._compare(tmp_path, {"procedure": "bayes_factor"})
        (row,) = json.loads(out)["results"]
        assert code == 0 and row["verdict"] == "favors_h1"
        bf = row["bayes_factor"]
        assert 6.0 < bf < 6.5
        cases = ((1000, "inconclusive"), (bf, "inconclusive"), (6.0, "favors_h1"))
        for threshold, verdict in cases:
            code, out, _ = self._compare(
                tmp_path, {"procedure": "bayes_factor", "threshold": threshold}
            )
            (row,) = json.loads(out)["results"]
            assert (code, row["verdict"]) == (0, verdict), threshold
            # the row keeps its threshold field empty
            assert row["threshold"] is None

    def test_even_evidence_is_inconclusive(self):
        part = partition(load_config(CONFIG_DIR / "coin_compare.json").loss)
        result = interval_bayes_factor(BinomialModel(n=0, k=0), derive_hypotheses(part))
        assert (result.bayes_factor, result.verdict) == (1.0, "inconclusive")

    @pytest.mark.parametrize("threshold", [0.999, 0.5, 0, -3, "inf", "nan", "3", True])
    def test_threshold_below_one_or_not_finite_exits_2(self, tmp_path, threshold):
        value = float(threshold) if threshold in ("inf", "nan") else threshold
        code, _, err = self._compare(
            tmp_path, {"procedure": "bayes_factor", "threshold": value}
        )
        assert code == 2
        assert "bayes_factor" in err and "'threshold'" in err

    @pytest.mark.parametrize("threshold", [0.5, math.inf, math.nan])
    def test_library_rejects_threshold(self, threshold):
        part = partition(load_config(CONFIG_DIR / "coin_compare.json").loss)
        with pytest.raises(ValidationError, match="threshold"):
            interval_bayes_factor(
                BinomialModel(n=20, k=16), derive_hypotheses(part), threshold=threshold
            )


def test_decision_rules_in_compare(tmp_path):
    doc = dict(
        COIN_COMPARE,
        comparators=[
            {"procedure": "hypothesis_ratio", "loss_ratio": 2.0},
            {"procedure": "expected_loss"},
        ],
    )
    ratio, loss = _compare_rows(tmp_path, doc)
    cfg = load_config(CONFIG_DIR / "coin_compare.json")
    post = posterior_update(cfg.model, cfg.loss.space)
    pair = derive_hypotheses(partition(cfg.loss))
    odds = bayes_two_action_decision(post, pair, LossRatio.scalar(2.0))
    assert ratio["procedure"] == "bayes_two_action_decision"
    assert ratio["verdict"] == odds.decision
    assert ratio["statistic"] == odds.posterior_odds
    assert ratio["detail"] == "; ".join(odds.warnings)
    outcome = expected_loss_decision(post, cfg.loss)
    assert loss["procedure"] == "expected_loss_decision"
    assert loss["verdict"] == outcome.decision
    assert loss["statistic"] == outcome.threshold_hi - outcome.threshold_lo


DATA = {"binomial": {"n": 20, "k": 14}, "normal": {"n": 20, "ybar": 0.01}}

MALFORMED = [
    ("normal", "tost", "bounds", [0.1]),
    ("normal", "tost", "bounds", [0.05, -0.05]),
    ("normal", "tost", "bounds", ["a", 0.1]),
    ("binomial", "rope", "rope", "hull"),
    ("binomial", "rope", "rope", [float("nan"), 0.1]),
    # bayes_factor takes the model's prior: a prior setting, of any form, is unknown
    ("normal", "bayes_factor", "prior", {"alpha": 2, "beta": 2}),
    ("binomial", "bayes_factor", "prior", {"mean": 0, "sd": 1}),
    ("binomial", "bayes_factor", "prior", {"alpha": 2}),
    ("binomial", "bayes_factor", "prior", {"alpha": -1, "beta": 2}),
    ("normal", "bayes_factor", "prior", {"mean": 0, "sd": 0}),
    ("binomial", "rope", "mass", "0.9"),
    ("binomial", "rope", "mass", 1.5),
    ("binomial", "nhst", "alpha", True),
    ("binomial", "nhst", "alpha", 10**400),
    ("binomial", "hypothesis_ratio", "loss_ratio", [1, 2, 3]),
    ("binomial", "hypothesis_ratio", "loss_ratio", [2, 1]),
    ("binomial", "hypothesis_ratio", "loss_ratio", "1"),
]


@pytest.mark.parametrize("family, name, key, value", MALFORMED)
@pytest.mark.parametrize("command", ["compare", "simulate"])
def test_malformed_setting_exits_2(tmp_path, command, family, name, key, value):
    proc = {"procedure": name, key: value}
    if command == "compare":
        doc = _compare_doc(family, DATA[family], [proc])
    else:
        doc = _simulate_doc(family, [proc])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = _run([command, "--config", str(path)])
    assert code == 2
    assert name in err and repr(key) in err, err


@pytest.mark.parametrize("command", ["compare", "simulate"])
def test_a_bayes_factor_prior_setting_exits_2(tmp_path, command):
    """The Bayes factor takes the model's prior, or the scenario's; a prior
    of its own is an unknown setting, even the one those hold."""
    entry = {"procedure": "bayes_factor", "prior": {"alpha": 1, "beta": 1}}
    if command == "compare":
        doc, where = copy.deepcopy(COIN_COMPARE), "comparators[2]"
        doc["comparators"][2] = entry
    else:
        doc, where = copy.deepcopy(SCENARIOS["binomial"]), "scenario.procedures[3]"
        doc["scenario"]["procedures"].append(entry)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    message = f"{where}: unknown setting(s) ['prior'] for procedure 'bayes_factor'"
    assert _run([command, "--config", str(path)]) == (2, "", f"relkit: error: {message}\n")


def test_procedure_spec_checked_when_bound():
    scenario = load_config(CONFIG_DIR / "coin_scenario.json").scenario
    bad = ProcedureSpec("rope", {"mass": "0.9"})
    with pytest.raises(ValidationError, match="rope setting 'mass'"):
        sim.run_operating_characteristics(
            dataclasses.replace(scenario, procedures=(bad,))
        )


# --- every settings dict exits 0, 2 or 3 ------------------------------------

_number = st.one_of(
    st.integers(-3, 3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.05, 0.5, 0.9, 1.0, 3.0]),
)
_value = st.one_of(
    st.none(),
    st.booleans(),
    _number,
    st.sampled_from(["partition_hull", "0.9", ""]),
    st.lists(st.one_of(_number, st.text(max_size=1)), max_size=3),
    st.dictionaries(
        st.sampled_from(["alpha", "beta", "mean", "sd", "k"]), _number, max_size=3
    ),
)


@st.composite
def _procedures(draw):
    name = draw(st.sampled_from(sorted(PROCEDURES)))
    keys = sorted(PROCEDURES[name].settings) + ["power"]
    settings = draw(st.dictionaries(st.sampled_from(keys), _value, max_size=3))
    return {"procedure": name, **settings}


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(family=st.sampled_from(["binomial", "normal"]), proc=_procedures())
def test_any_settings_exit_0_2_or_3(family, proc):
    docs = {
        "compare": _compare_doc(family, DATA[family], [proc]),
        "simulate": _simulate_doc(family, [proc]),
    }
    with tempfile.TemporaryDirectory() as tmp:
        for command, doc in docs.items():
            path = Path(tmp) / f"{command}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            code, _, err = _run([command, "--config", str(path)])
            assert code in (0, 2, 3), (command, code, err)
