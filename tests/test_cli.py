import argparse
import contextlib
import copy
import csv
import hashlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import relkit
import relkit.cli
import relkit.simulate
from relkit.cli import main
from relkit.config import load_config
from relkit.errors import ValidationError
from relkit.inference import BinomialModel, posterior_update
from relkit.loss import QuadraticParams

from conftest import random_loss_spec
from oracles import expected_losses_oracle

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    return str(path)


def coin_doc(**extra):
    doc = {
        "spec_version": 1,
        "parameter_space": {"lo": -0.5, "hi": 0.5},
        "actions": {"a0_label": "do_not_accuse", "a1_label": "accuse"},
        "loss": {"kind": "builtin_coin_demo"},
    }
    doc.update(extra)
    return doc


# the grids of the benchmark's two sweep workloads, copied here so that a
# change to the benchmark does not move these tests
BENCH_GRIDS = {
    "binomial": coin_doc(
        scenario={
            "name": "bench_binomial",
            "family": "binomial",
            "true_effects": [-0.3, -0.106, -0.05, 0.0, 0.05, 0.106, 0.3],
            "sample_sizes": [20, 100, 1000],
            "replicates": 48,
            "prior": {"alpha": 1, "beta": 1},
            "procedures": [
                {"procedure": "nhst", "alpha": 0.05},
                {"procedure": "rope", "mass": 0.95, "rope": "partition_hull"},
                {"procedure": "hypothesis_ratio", "loss_ratio": [0.5, 2.0]},
                {"procedure": "expected_loss"},
                {"procedure": "bayes_factor", "threshold": 3.0},
            ],
        }
    ),
    "normal": {
        "spec_version": 1,
        "parameter_space": {"lo": -0.1, "hi": 0.1},
        "actions": {"a0_label": "do_not_recommend", "a1_label": "recommend"},
        "loss": {
            "kind": "piecewise_linear",
            "params_a0": {"knots": [-0.1, 0.0, 0.1], "values": [0.1, 0.0, 0.1]},
            "params_a1": {"knots": [-0.1, 0.0, 0.1], "values": [0.0, 0.025, 0.0]},
        },
        "scenario": {
            "name": "bench_normal",
            "family": "normal",
            "sigma": 0.2,
            "true_effects": [0.0, 0.0077, 0.02, 0.05],
            "sample_sizes": [50, 22000],
            "replicates": 100,
            "prior": {"mean": 0.0, "sd": 0.05},
            "procedures": [
                {"procedure": "nhst", "alpha": 0.05},
                {"procedure": "tost", "alpha": 0.05, "bounds": "partition_hull"},
                {"procedure": "rope", "mass": 0.95, "rope": "partition_hull"},
                {"procedure": "hypothesis_ratio", "loss_ratio": 1.0},
                {"procedure": "expected_loss"},
                {"procedure": "bayes_factor", "threshold": 3.0},
            ],
        },
    },
}


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPartitionCommand:
    def test_coin_csv_rows(self, tmp_path, capsys):
        cfg = write_config(tmp_path, coin_doc())
        code, out, _ = run_cli(["partition", "--config", cfg, "--format", "csv"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["label"] for r in rows] == ["relevant", "negligible", "relevant"]
        assert float(rows[0]["lo"]) == -0.5
        assert float(rows[1]["lo"]) == pytest.approx(-0.106, abs=1e-6)
        assert float(rows[1]["hi"]) == pytest.approx(0.106, abs=1e-6)
        assert rows[1]["lo_open"] == "false" and rows[1]["hi_open"] == "false"
        assert rows[0]["hi_open"] == "true"
        assert rows[2]["lo_open"] == "true"

    def test_equal_losses_single_row(self, tmp_path, capsys):
        doc = coin_doc(
            loss={
                "kind": "piecewise_linear",
                "params_a0": {"knots": [-0.5, 0.5], "values": [1.0, 1.0]},
                "params_a1": {"knots": [-0.5, 0.5], "values": [1.0, 1.0]},
            }
        )
        cfg = write_config(tmp_path, doc)
        code, out, _ = run_cli(["partition", "--config", cfg, "--format", "csv"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        assert rows[0]["label"] == "negligible"

    def test_missing_loss_names_key(self, tmp_path, capsys):
        doc = coin_doc()
        del doc["loss"]
        cfg = write_config(tmp_path, doc)
        code, _, err = run_cli(["partition", "--config", cfg], capsys)
        assert code == 2
        assert "loss" in err

    def test_coin_demo_off_its_space_reported_once(self, tmp_path, capsys):
        doc = json.loads((CONFIG_DIR / "coin_partition.json").read_text(encoding="utf-8"))
        doc["parameter_space"]["lo"] = -0.4
        code, out, err = run_cli(["partition", "--config", write_config(tmp_path, doc)], capsys)
        assert (code, out) == (2, "")
        assert err == (
            "relkit: error: invalid loss specification:\n"
            "builtin_coin_demo requires the parameter space [-0.5, 0.5]\n"
        )

    def test_json_document(self, tmp_path, capsys):
        cfg = write_config(tmp_path, coin_doc())
        code, out, _ = run_cli(["partition", "--config", cfg], capsys)
        doc = json.loads(out)
        assert doc["command"] == "partition"
        assert len(doc["crossings"]) == 2
        assert len(doc["regions"]) == 3


class TestCheckHypothesesCommand:
    def test_published_pair_verdicts(self, tmp_path, capsys):
        doc = coin_doc(
            hypotheses={
                "h0": [[-0.106, 0.106, False, False]],
                "h1": [[-0.5, -0.106, False, True], [0.106, 0.5, True, False]],
            }
        )
        cfg = write_config(tmp_path, doc)
        code, out, _ = run_cli(["check-hypotheses", "--config", cfg], capsys)
        assert code == 0
        verdict = json.loads(out)
        assert verdict["complete"] is True
        assert verdict["partial"] is True
        assert verdict["witness"] is None

    def test_singleton_pair_partial_only(self, tmp_path, capsys):
        doc = coin_doc(hypotheses={"h0": [0], "h1": [0.3]})
        cfg = write_config(tmp_path, doc)
        code, out, _ = run_cli(["check-hypotheses", "--config", cfg], capsys)
        assert code == 0
        verdict = json.loads(out)
        assert verdict["complete"] is False
        assert verdict["partial"] is True
        assert isinstance(verdict["witness"], float)

    def test_zero_in_h1_fails_partial(self, tmp_path, capsys):
        doc = coin_doc(hypotheses={"h0": [0.05], "h1": [0]})
        cfg = write_config(tmp_path, doc)
        code, out, _ = run_cli(["check-hypotheses", "--config", cfg], capsys)
        assert code == 0
        verdict = json.loads(out)
        assert verdict["partial"] is False
        assert verdict["witness"] == 0.0

    def test_overlapping_regions_exit_2(self, tmp_path, capsys):
        doc = coin_doc(hypotheses={"h0": [[-0.2, 0.2]], "h1": [[0.1, 0.3]]})
        cfg = write_config(tmp_path, doc)
        code, _, err = run_cli(["check-hypotheses", "--config", cfg], capsys)
        assert code == 2
        assert "overlap" in err


class TestDecideCommand:
    def decide_doc(self, n, k, ratio):
        return coin_doc(
            model={
                "family": "binomial",
                "data": {"n": n, "k": k},
                "prior": {"alpha": 1, "beta": 1},
            },
            hypotheses={
                "h0": [[-0.106, 0.106, False, False]],
                "h1": [[-0.5, -0.106, False, True], [0.106, 0.5, True, False]],
            },
            decision={"rule": "hypothesis_ratio", "loss_ratio": ratio},
        )

    def test_overwhelming_evidence_decides_a1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.decide_doc(20, 20, 1.0))
        code, out, _ = run_cli(["decide", "--config", cfg], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["decision"] == "a1"
        assert doc["decision_label"] == "accuse"
        assert doc["posterior_h1"] > 0.999

    def test_balanced_data_decides_a0(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.decide_doc(10, 5, 1.0))
        code, out, _ = run_cli(["decide", "--config", cfg], capsys)
        assert code == 0
        assert json.loads(out)["decision"] == "a0"

    def test_wide_interval_is_indeterminate_with_exit_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.decide_doc(10, 5, [0.01, 100]))
        code, out, _ = run_cli(["decide", "--config", cfg], capsys)
        assert code == 0
        assert json.loads(out)["decision"] == "indeterminate"

    def test_expected_loss_rule(self, tmp_path, capsys):
        doc = coin_doc(
            model={
                "family": "binomial",
                "data": {"n": 40, "k": 20},
                "prior": {"alpha": 1, "beta": 1},
            },
            decision={"rule": "expected_loss"},
        )
        cfg = write_config(tmp_path, doc)
        code, out, _ = run_cli(["decide", "--config", cfg], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["decision"] in ("a0", "a1")
        assert doc["threshold_lo"] > 0.0  # expected losses ride along

    @pytest.mark.parametrize("rule", ["hypothesis_ratio", "expected_loss"])
    def test_rule_builds_one_posterior_through_the_procedure_table(
        self, rule, tmp_path, capsys, monkeypatch
    ):
        doc = self.decide_doc(40, 30, 1.0)
        if rule == "expected_loss":
            doc["decision"] = {"rule": rule}
        models = []
        update = relkit.simulate.posterior_update

        def counting(model, space):
            models.append(model)
            return update(model, space)

        monkeypatch.setattr(relkit.simulate, "posterior_update", counting)
        code, out, _ = run_cli(["decide", "--config", write_config(tmp_path, doc)], capsys)
        assert code == 0
        assert json.loads(out)["rule"] == rule
        assert len(models) == 1

    def test_restricted_space_pair_needs_the_setting(self, tmp_path, capsys):
        doc = self.decide_doc(40, 30, 1.0)
        doc["hypotheses"] = {"h0": [[-0.05, 0.05, False, False]], "h1": [[0.2, 0.5, False, False]]}
        code, out, err = run_cli(["decide", "--config", write_config(tmp_path, doc)], capsys)
        assert (code, out) == (2, "")
        assert '"allow_restricted_space": true' in err
        doc["decision"]["allow_restricted_space"] = True
        code, out, _ = run_cli(["decide", "--config", write_config(tmp_path, doc)], capsys)
        assert code == 0
        # renormalized over the union of the pair
        got = json.loads(out)
        assert got["posterior_h0"] + got["posterior_h1"] == pytest.approx(1.0)
        assert got["decision"] == "a1"

    def test_expected_loss_takes_no_restricted_space_setting(self, tmp_path, capsys):
        doc = self.decide_doc(40, 30, 1.0)
        doc["decision"] = {"rule": "expected_loss", "allow_restricted_space": True}
        code, out, err = run_cli(["decide", "--config", write_config(tmp_path, doc)], capsys)
        assert (code, out) == (2, "")
        assert err == (
            "relkit: error: unknown setting(s) ['allow_restricted_space'] "
            "for procedure 'expected_loss' in decision\n"
        )


class TestCompareCommand:
    def test_restricted_space_pair_needs_the_setting(self, tmp_path, capsys):
        doc = json.loads((CONFIG_DIR / "coin_compare.json").read_text(encoding="utf-8"))
        doc["hypotheses"] = {"h0": [[-0.05, 0.05, False, False]], "h1": [[0.2, 0.5, False, False]]}
        doc["comparators"] = [{"procedure": "hypothesis_ratio"}]
        code, out, err = run_cli(["compare", "--config", write_config(tmp_path, doc)], capsys)
        assert (code, out) == (2, "")
        assert '"allow_restricted_space": true' in err
        doc["comparators"][0]["allow_restricted_space"] = True
        code, out, _ = run_cli(["compare", "--config", write_config(tmp_path, doc)], capsys)
        assert code == 0
        (row,) = json.loads(out)["results"]
        assert row["procedure"] == "bayes_two_action_decision"
        assert row["verdict"] == "a1"

    def test_csv_one_row_per_procedure(self, tmp_path, capsys):
        doc = coin_doc(
            model={
                "family": "binomial",
                "data": {"n": 20, "k": 16},
                "prior": {"alpha": 1, "beta": 1},
            },
            comparators=[
                {"procedure": "nhst", "alpha": 0.05},
                {"procedure": "rope", "mass": 0.95, "rope": "partition_hull"},
                {"procedure": "bayes_factor"},
            ],
        )
        cfg = write_config(tmp_path, doc)
        code, out, _ = run_cli(["compare", "--config", cfg, "--format", "csv"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["procedure"] for r in rows] == [
            "nhst_point_null",
            "rope_decision",
            "interval_bayes_factor",
        ]
        assert rows[0]["verdict"] == "reject"
        assert float(rows[2]["bayes_factor"]) > 1.0

    def test_tost_on_normal_model(self, tmp_path, capsys):
        doc = coin_doc(
            parameter_space={"lo": -0.1, "hi": 0.1},
            loss={
                "kind": "piecewise_linear",
                "params_a0": {"knots": [-0.1, 0.0, 0.1], "values": [0.1, 0.0, 0.1]},
                "params_a1": {"knots": [-0.1, 0.0, 0.1], "values": [0.0, 0.025, 0.0]},
            },
            model={
                "family": "normal",
                "sigma": 0.2,
                "data": {"n": 22000, "ybar": 0.0077},
                "prior": {"mean": 0.0, "sd": 0.05},
            },
            comparators=[
                {"procedure": "nhst", "alpha": 0.05},
                {"procedure": "tost", "alpha": 0.05, "bounds": "partition_hull"},
                {"procedure": "rope", "mass": 0.95, "rope": "partition_hull"},
            ],
        )
        cfg = write_config(tmp_path, doc)
        code, out, _ = run_cli(["compare", "--config", cfg], capsys)
        assert code == 0
        results = {r["procedure"]: r for r in json.loads(out)["results"]}
        # the contradiction in one table: significant yet negligible
        assert results["nhst_point_null"]["verdict"] == "reject"
        assert results["tost_equivalence"]["verdict"] == "equivalent"
        assert results["rope_decision"]["verdict"] == "accept_a0"

    @pytest.mark.parametrize("first", ["rope", "bayes_factor"])
    def test_bayes_factor_model_prior_is_checked_at_bind(self, first, tmp_path, capsys):
        # Beta(1e6, 1e6) gives the relevant region |b| > 0.075 no float mass,
        # and k = n = 1e18 puts the posterior far beyond the space, where
        # rope's posterior mass vanishes: the Bayes factor's refusal under
        # the model's prior comes first, in either comparator order
        doc = coin_doc(
            parameter_space={"lo": -0.3, "hi": 0.3},
            loss={
                "kind": "piecewise_linear",
                "params_a0": {"knots": [-0.3, 0.0, 0.3], "values": [0.3, 0.0, 0.3]},
                "params_a1": {"knots": [-0.3, 0.0, 0.3], "values": [0.0, 0.1, 0.0]},
            },
            model={
                "family": "binomial",
                "data": {"n": 10**18, "k": 10**18},
                "prior": {"alpha": 1e6, "beta": 1e6},
            },
        )
        names = [first, *({"rope", "bayes_factor"} - {first})]
        doc["comparators"] = [{"procedure": name} for name in names]
        code, out, err = run_cli(["compare", "--config", write_config(tmp_path, doc)], capsys)
        message = "h1 has zero prior mass under the given prior"
        assert (code, out, err) == (2, "", f"relkit: error: {message}\n")

    def test_comparators_share_one_posterior(self, tmp_path, capsys, monkeypatch):
        doc = json.loads((CONFIG_DIR / "coin_compare.json").read_text(encoding="utf-8"))
        doc["comparators"] += [
            {"procedure": "hypothesis_ratio"},
            {"procedure": "expected_loss"},
        ]
        models = []
        update = relkit.simulate.posterior_update

        def counting(model, space):
            models.append(model)
            return update(model, space)

        monkeypatch.setattr(relkit.simulate, "posterior_update", counting)
        code, out, _ = run_cli(["compare", "--config", write_config(tmp_path, doc)], capsys)
        assert code == 0
        assert len(json.loads(out)["results"]) == 5
        assert len(models) == 1


class TestExpectedLossVerdicts:
    MODELS = {
        "binomial": [
            {"family": "binomial", "data": {"n": n, "k": k}} for n, k in ((30, 8), (30, 22), (400, 230))
        ],
        "normal": [
            {
                "family": "normal",
                "sigma": 1.0,
                "data": {"n": 50, "ybar": ybar},
                "prior": {"mean": 0.0, "sd": 0.5},
            }
            for ybar in (-0.3, 0.0, 0.3)
        ],
    }
    SCENARIOS = {
        "binomial": {"true_effects": [-0.2, 0.0, 0.2], "sample_sizes": [30, 400]},
        "normal": {
            "sigma": 1.0,
            "true_effects": [-0.3, 0.0, 0.3],
            "sample_sizes": [50],
            "prior": {"mean": 0.0, "sd": 0.5},
        },
    }

    @staticmethod
    def loss_doc(spec, scale):
        """The config loss section of ``spec`` with every loss value times scale."""

        def curve(params):
            if isinstance(params, QuadraticParams):
                c, offset = params.c * scale, params.offset * scale
                return {"c": c, "center": params.center, "offset": offset}
            return {"knots": list(params.knots), "values": [v * scale for v in params.values]}

        return {"kind": spec.kind, "params_a0": curve(spec.params_a0), "params_a1": curve(spec.params_a1)}

    def verdicts(self, family, spec, scale, tmp_path, capsys):
        """The expected-loss verdicts of decide and compare on each model,
        and simulate's console table, for ``spec`` times ``scale``."""
        doc = {
            "spec_version": 1,
            "parameter_space": {"lo": -0.5, "hi": 0.5},
            "actions": {"a0_label": "a0", "a1_label": "a1"},
            "loss": self.loss_doc(spec, scale),
            "decision": {"rule": "expected_loss"},
            "comparators": [{"procedure": "expected_loss"}],
            "seed": 7,
            "scenario": {
                "name": "scaled",
                "family": family,
                "replicates": 30,
                "procedures": [{"procedure": "expected_loss"}],
                **self.SCENARIOS[family],
            },
        }
        got = []
        for model in self.MODELS[family]:
            cfg = write_config(tmp_path, {**doc, "model": model})
            got.append(json.loads(run_cli(["decide", "--config", cfg], capsys)[1])["decision"])
            results = json.loads(run_cli(["compare", "--config", cfg], capsys)[1])["results"]
            got.append(results[0]["verdict"])
        code, out, _ = run_cli(["simulate", "--config", write_config(tmp_path, doc)], capsys)
        assert code == 0
        return got, out

    @pytest.mark.parametrize("family", ["binomial", "normal"])
    def test_verdicts_do_not_depend_on_the_loss_scale(self, family, tmp_path, capsys):
        """The tie tolerance is a share of the loss's peak, so a loss times a
        constant takes the same verdicts in decide, compare and simulate."""
        rng = random.Random(2121)
        seen = set()
        for _ in range(4):
            spec = random_loss_spec(rng)
            want = self.verdicts(family, spec, 1.0, tmp_path, capsys)
            seen.update(want[0])
            for scale in (1e-12, 1e-6, 1e3, 1e6):
                assert self.verdicts(family, spec, scale, tmp_path, capsys) == want, scale
        assert seen == {"a0", "a1"}

    def test_misranking_quadrature_picks_no_action(self, tmp_path, capsys):
        """n = k = 400 on [-0.15, 0.15]: the quadrature behind the printed
        E[L(a1)] misses the posterior's mass at the space end and ranks a1
        first; the closed form, which agrees with the SciPy oracle, decides
        a0, and the warning says that the printed values rank against it."""
        knots = [-0.15, 0.0, 0.15]
        doc = {
            "spec_version": 1,
            "parameter_space": {"lo": -0.15, "hi": 0.15},
            "actions": {"a0_label": "a0", "a1_label": "a1"},
            "loss": {
                "kind": "piecewise_linear",
                "params_a0": {"knots": knots, "values": [1e-4, 0.0, 1e-4]},
                "params_a1": {"knots": knots, "values": [0.0, 0.05, 0.0]},
            },
            "model": {"family": "binomial", "data": {"n": 400, "k": 400}},
            "decision": {"rule": "expected_loss"},
            "comparators": [{"procedure": "expected_loss"}],
        }
        cfg = write_config(tmp_path, doc)
        code, out, _ = run_cli(["decide", "--config", cfg], capsys)
        assert code == 0
        got = json.loads(out)
        assert got["decision"] == "a0"
        assert got["threshold_hi"] < 1e-10 < got["threshold_lo"]  # the quadrature's values
        (warning,) = got["warnings"]
        assert warning.startswith("the quadrature's expected losses rank the actions against the decision")
        spec = load_config(cfg).loss
        e0, e1 = expected_losses_oracle(posterior_update(BinomialModel(n=400, k=400), spec.space), spec)
        assert e1 == pytest.approx(5.39e-4, rel=1e-3)
        assert warning.endswith(f"E[L(a0)] = {e0:.6g} and E[L(a1)] = {e1:.6g}")
        code, out, _ = run_cli(["compare", "--config", cfg], capsys)
        assert code == 0
        (row,) = json.loads(out)["results"]
        assert (row["verdict"], row["detail"]) == ("a0", warning)


class TestSimulateCommand:
    def scenario_doc(self, replicates=2):
        return coin_doc(
            seed=1234,
            scenario={
                "name": "tiny",
                "family": "binomial",
                "true_effects": [0.0, 0.3],
                "sample_sizes": [30],
                "replicates": replicates,
                "prior": {"alpha": 1, "beta": 1},
                "procedures": [
                    {"procedure": "nhst", "alpha": 0.05},
                    {"procedure": "hypothesis_ratio", "loss_ratio": 1.0},
                ],
            },
        )

    def test_writes_csv_and_json(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.scenario_doc())
        out_base = tmp_path / "rates.csv"
        code, out, _ = run_cli(
            ["simulate", "--config", cfg, "--output", str(out_base)], capsys
        )
        assert code == 0
        assert (tmp_path / "rates.csv").exists()
        assert (tmp_path / "rates.json").exists()
        assert "procedure" in out  # console table printed
        rows = list(csv.DictReader(io.StringIO((tmp_path / "rates.csv").read_text())))
        assert all(float(r["frequency"]) in (0.0, 0.5, 1.0) for r in rows)

    def test_restricted_space_setting_changes_no_sweep(self, tmp_path, capsys):
        # a sweep takes the partition's pair, which covers the space
        runs = []
        for allow in (None, True, False):
            doc = self.scenario_doc(replicates=25)
            if allow is not None:
                doc["scenario"]["procedures"][1]["allow_restricted_space"] = allow
            out = tmp_path / f"{allow}.csv"
            code, table, _ = run_cli(
                ["simulate", "--config", write_config(tmp_path, doc), "--output", str(out)],
                capsys,
            )
            assert code == 0
            runs.append((table, out.read_bytes(), out.with_suffix(".json").read_bytes()))
        assert runs[0] == runs[1] == runs[2]

    def test_unknown_procedure_exit_2(self, tmp_path, capsys):
        doc = self.scenario_doc()
        doc["scenario"]["procedures"].append({"procedure": "wizardry"})
        cfg = write_config(tmp_path, doc)
        code, _, err = run_cli(["simulate", "--config", cfg], capsys)
        assert code == 2
        assert "wizardry" in err

    def test_byte_identical_reruns(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.scenario_doc(replicates=25))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        code_a, table_a, _ = run_cli(["simulate", "--config", cfg, "--output", str(a)], capsys)
        code_b, table_b, _ = run_cli(["simulate", "--config", cfg, "--output", str(b)], capsys)
        assert code_a == code_b == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert table_a == table_b

    @pytest.mark.parametrize(
        "name, seed, csv_sha, json_sha",
        [
            ("coin_scenario", 1,
             "f2f81e7d8a0176b504c176af1f631d7df777eefbb905fe4674aea46499370486",
             "827c8526814bc9dc4462affcf7d418ceccedee7c79f58e5da1b5875655485424"),
            ("coin_scenario", 7,
             "9f19d6d37ad3cfb440d3d60f896950afb9a5ee2035eda05bafd8d6ad86fccdde",
             "9918a21e2336169890e4a3d672eb9f569290314dd6420f666158725e03f926eb"),
            ("aspirin_scenario", 1,
             "468b32d4f959b84794ec49e2399d2982f92fdb46824559b8b24b5763ed327cff",
             "956ce2a63af9ca36b1d84b71586ee3d4f94ce7a61db87e0d245e877b725d7f78"),
            ("aspirin_scenario", 7,
             "468b32d4f959b84794ec49e2399d2982f92fdb46824559b8b24b5763ed327cff",
             "c4cb508ce87bcdea2ef43a5bcf300f5114247941eece940f3ac62482bab66d03"),
        ],
    )
    def test_shipped_scenario_artifacts_are_fixed(
        self, name, seed, csv_sha, json_sha, tmp_path, capsys
    ):
        """The SHA-256 of each artifact of a shipped scenario, as recorded
        when each block of 512 replicates came to be drawn in one numpy
        call: a change to how verdicts are computed leaves every byte
        alone. The aspirin rates are 0 and 1, so no stream moved them."""
        out = tmp_path / "out"
        argv = ["simulate", "--config", str(CONFIG_DIR / f"{name}.json"), "--seed", str(seed)]
        code, _, _ = run_cli([*argv, "--output", str(out)], capsys)
        assert code == 0
        digests = [
            hashlib.sha256((tmp_path / f"out{ext}").read_bytes()).hexdigest()
            for ext in (".csv", ".json")
        ]
        assert digests == [csv_sha, json_sha]

    @pytest.mark.parametrize(
        "grid, seed, csv_sha, json_sha",
        [
            ("binomial", 1,
             "26274a59f9b1fbe509d6e823271bab77c673d746a4d0e99ac655c3457b41b4b2",
             "2dab6e9617f230cbba59bf29e333d222c9c4abd0d94ee7c1eeb5363e0fd6edc5"),
            ("binomial", 2,
             "90a1f18c5a7601c10a96da5e186fe02c086f9e81af9923679392171f52b3c102",
             "207f59d8a7b661283fdd07bdf6991038875fa1136a17c3a18cea51daff621902"),
            ("binomial", 3,
             "463d78b3afc1151ff02c1840618f6bb56986d1af8c6d9151aff5b18b3c1b1ab6",
             "a2597ff42104039a04b03e60862c2bafe4823f1b4641d9cae7731393f46dc327"),
            ("normal", 1,
             "83ad79fd5f5131e013f8eaa065915a12966f9e4f05b39221feb0c43e6bfaed41",
             "1b1f9e7a64939be2b964cf9f41350e95113509f5626b551beb654273d57e3d30"),
            ("normal", 2,
             "d119daf6b751884757ba30713e000c5f71e1409db75c065809c7d97bda99e09b",
             "dcab0779afb099105a43bebefa82fe8793eed85b3dd28127f088f82d34b20cfa"),
            ("normal", 3,
             "72fdfba11c0991d0d4b4575277e709e7bd1f9cfcdc03a1601ec9111a396c6846",
             "64726937c69da3b5a2b0c5b775f0944611ceb2fe1202a9dbf6d8d45adbf27f52"),
        ],
    )
    def test_bench_grid_artifacts_are_fixed(
        self, grid, seed, csv_sha, json_sha, tmp_path, capsys
    ):
        """The SHA-256 of each artifact of a benchmark sweep grid, as
        recorded when each block of 512 replicates came to be drawn in one
        numpy call: which draws a sweep evaluates leaves every byte
        alone."""
        cfg = write_config(tmp_path, {**BENCH_GRIDS[grid], "seed": seed})
        out = tmp_path / "out"
        code, _, _ = run_cli(["simulate", "--config", cfg, "--output", str(out)], capsys)
        assert code == 0
        digests = [
            hashlib.sha256((tmp_path / f"out{ext}").read_bytes()).hexdigest()
            for ext in (".csv", ".json")
        ]
        assert digests == [csv_sha, json_sha]

    def test_console_table_fixed_width(self, tmp_path, capsys):
        """stdout holds the CSV's rows at fixed width, without replicates."""
        cfg = write_config(tmp_path, self.scenario_doc(replicates=2))
        out_base = tmp_path / "rates.csv"
        code, out, _ = run_cli(["simulate", "--config", cfg, "--output", str(out_base)], capsys)
        assert code == 0
        title, header, *lines = out.splitlines()
        assert title == "scenario: tiny (seed 1234)"
        assert header.split() == ["true_effect", "n", "procedure", "verdict", "rate", "se"]
        rows = list(csv.DictReader(io.StringIO(out_base.read_text())))
        assert len(lines) == len(rows) > 0
        for line, row in zip(lines, rows):
            assert len(line) == len(header) == 75
            effect, n, procedure, verdict, rate, se = line.split()
            assert float(effect) == float(row["true_effect"]) and n == row["n"]
            assert (procedure, verdict) == (row["procedure"], row["verdict"])
            assert rate == f"{float(row['frequency']):.4f}"
            assert se == f"{float(row['std_error']):.4f}"

    def test_seed_flag_changes_draws(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.scenario_doc(replicates=40))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(["simulate", "--config", cfg, "--output", str(a), "--seed", "1"], capsys)
        run_cli(["simulate", "--config", cfg, "--output", str(b), "--seed", "2"], capsys)
        assert a.read_bytes() != b.read_bytes()

    def test_negative_seed_flag_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.scenario_doc())
        code, _, err = run_cli(["simulate", "--config", cfg, "--seed", "-1"], capsys)
        assert code == 2
        assert "--seed must be non-negative" in err

    def test_calls_in_one_process_share_no_state(self, tmp_path, capsys):
        # the parser is built once per process; a flag given to one call
        # must not carry over to the next
        cfg = write_config(tmp_path, self.scenario_doc(replicates=40))
        doc = self.scenario_doc(replicates=40)
        doc["seed"] = 7
        cfg7 = write_config(tmp_path, doc, name="seed7.json")
        flagged, plain, configured = (tmp_path / f"{n}.csv" for n in "abc")
        run_cli(["simulate", "--config", cfg, "--output", str(flagged), "--seed", "7"], capsys)
        run_cli(["simulate", "--config", cfg, "--output", str(plain)], capsys)
        run_cli(["simulate", "--config", cfg7, "--output", str(configured)], capsys)
        assert flagged.read_bytes() == configured.read_bytes()
        assert plain.read_bytes() != flagged.read_bytes()
        fresh = tmp_path / "fresh.csv"
        subprocess.run(
            [sys.executable, "-m", "relkit", "simulate", "--config", cfg, "--output", str(fresh)],
            check=True,
            capture_output=True,
        )
        assert plain.read_bytes() == fresh.read_bytes()

    def test_threads_flag_removed(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.scenario_doc(replicates=3))
        code, _, err = run_cli(["simulate", "--config", cfg, "--threads", "2"], capsys)
        assert code == 2
        assert "--threads" in err

    def test_duplicate_procedure_exit_2(self, tmp_path, capsys):
        doc = self.scenario_doc()
        doc["scenario"]["procedures"].append({"procedure": "nhst", "alpha": 0.01})
        cfg = write_config(tmp_path, doc)
        code, _, err = run_cli(["simulate", "--config", cfg], capsys)
        assert code == 2
        assert "'nhst'" in err and "more than once" in err

    @pytest.mark.parametrize(
        "grid, shown",
        [
            ({"true_effects": [0.0, 0.0, -0.0], "sample_sizes": [10, 10]}, "[0.0]"),
            ({"true_effects": [0.0, -0.0]}, "[0.0]"),
            ({"sample_sizes": [10, 20, 10]}, "[10]"),
        ],
    )
    def test_repeated_grid_value_exit_2(self, tmp_path, capsys, grid, shown):
        # a repeated effect or n would run one cell twice and print rows no
        # reader can tell apart; 0.0 and -0.0 draw the same stream
        doc = self.scenario_doc()
        doc["scenario"].update(grid)
        cfg = write_config(tmp_path, doc)
        code, out, err = run_cli(["simulate", "--config", cfg], capsys)
        assert code == 2 and out == ""
        assert shown in err and "more than once" in err

    def test_error_verdicts_reported_on_stderr(self, tmp_path, capsys, monkeypatch):
        # rope fails on every replicate: the patch reaches the rule its
        # kernel calls
        def explode(post, lo, hi, tail):
            raise ValidationError("rope exploded")

        monkeypatch.setattr(relkit.simulate, "_rope", explode)
        doc = self.scenario_doc(replicates=5)
        doc["scenario"]["procedures"] = [
            {"procedure": "nhst", "alpha": 0.05},
            {"procedure": "rope", "mass": 0.95},
        ]
        cfg = write_config(tmp_path, doc)
        out_base = tmp_path / "rates.csv"
        code, _, err = run_cli(
            ["simulate", "--config", cfg, "--output", str(out_base)], capsys
        )
        assert code == 0
        lines = err.splitlines()
        assert len(lines) == 2  # one per (cell, procedure) with errors
        for line, effect in zip(lines, ("0.0", "0.3")):
            assert f"effect {effect}, n 30, rope: 5 of 5 replicates" in line
            assert "ValidationError: rope exploded" in line
        rows = list(csv.DictReader(io.StringIO(out_base.read_text())))
        rope = [(r["verdict"], r["frequency"]) for r in rows if r["procedure"] == "rope"]
        assert rope == [("error", "1.0"), ("error", "1.0")]


def _aspirin_doc():
    return json.loads((CONFIG_DIR / "aspirin_scenario.json").read_text(encoding="utf-8"))


ALL_SIX = ("nhst", "tost", "rope", "hypothesis_ratio", "expected_loss", "bayes_factor")
# values the config accepts whose squares leave the float range
EXTREME_NORMAL = [("prior", 1e-200), ("prior", 1e200), ("sigma", 1e308), ("sigma", 1e-170)]


def _extreme_normal_doc(key, value):
    doc = _aspirin_doc()
    if key == "prior":
        doc["scenario"]["prior"]["sd"] = value
    else:
        doc["scenario"]["sigma"] = value
    return doc


class TestExtremeNormalScales:
    """The normal update squares the prior sd and sigma; a config value whose
    square overflows or underflows still gives a posterior, or a RelkitError
    naming the values, never a bare ArithmeticError."""

    @pytest.mark.parametrize("key, value", EXTREME_NORMAL)
    def test_simulate_runs(self, key, value, tmp_path, capsys):
        doc = _extreme_normal_doc(key, value)
        names = ALL_SIX
        if key == "prior":
            # a prior sd of 1e-200 gives H1 no mass and one of 1e200 gives H0
            # none: bayes_factor, which takes the scenario's prior, is refused
            doc["scenario"].update(replicates=8, procedures=[{"procedure": "bayes_factor"}])
            code, out, err = run_cli(["simulate", "--config", write_config(tmp_path, doc)], capsys)
            assert (code, out) == (2, "")
            assert err.endswith(" has zero prior mass under the given prior\n"), err
            names = tuple(name for name in ALL_SIX if name != "bayes_factor")
        doc["scenario"].update(replicates=8, procedures=[{"procedure": name} for name in names])
        code, out, err = run_cli(["simulate", "--config", write_config(tmp_path, doc)], capsys)
        assert code == 0, err
        assert "failure" not in err
        for line in err.splitlines():
            # a procedure that fails names a relkit error and its cause
            assert "ValidationError: " in line or "NumericalError: " in line, line
        procedures = {line.split()[2] for line in out.splitlines()[2:]}
        assert procedures == set(names)

    @pytest.mark.parametrize("rule", ["hypothesis_ratio", "expected_loss"])
    @pytest.mark.parametrize("key, value", EXTREME_NORMAL)
    def test_decide_runs(self, key, value, rule, tmp_path, capsys):
        doc = _extreme_normal_doc(key, value)
        scenario = doc.pop("scenario")
        doc.pop("seed")
        doc["model"] = {
            "family": "normal",
            "sigma": scenario["sigma"],
            "prior": scenario["prior"],
            "data": {"n": 22000, "ybar": 0.0077},
        }
        doc["hypotheses"] = {
            "h0": [[-0.02, 0.02]],
            "h1": [[-0.1, -0.02, False, True], [0.02, 0.1, True, False]],
        }
        doc["decision"] = {"rule": rule}
        if rule == "hypothesis_ratio":
            doc["decision"]["loss_ratio"] = 1.0
        code, out, err = run_cli(["decide", "--config", write_config(tmp_path, doc)], capsys)
        assert code == 0, err
        summary = json.loads(out)["posterior"]
        mean, sd = summary["params"]
        assert math.isfinite(mean) and 0.0 < sd < math.inf
        if key == "sigma" and value > 1.0:
            return  # the posterior is the prior, whose sd the space truncates
        # the space lies over 40 sd from the mean and truncates no digit
        assert min(mean + 0.1, 0.1 - mean) > 40.0 * sd
        assert summary["sd"] == pytest.approx(sd, rel=1e-12, abs=0.0)

    def test_unrepresentable_posterior_names_the_values(self, tmp_path, capsys):
        # the posterior sd sigma / sqrt(n) underflows to 0
        doc = _extreme_normal_doc("sigma", 5e-324)
        scenario = doc.pop("scenario")
        doc.pop("seed")
        doc["model"] = {
            "family": "normal",
            "sigma": scenario["sigma"],
            "data": {"n": 22000, "ybar": 0.0077},
        }
        doc["decision"] = {"rule": "expected_loss"}
        code, _, err = run_cli(["decide", "--config", write_config(tmp_path, doc)], capsys)
        assert code == 3
        assert err.startswith("relkit: failure: the normal posterior of ybar=0.0077, n=22000, ")
        assert "sigma=5e-324" in err and "not representable" in err


class TestPlotCommand:
    def _svg_root(self, text):
        lines = [
            l
            for l in text.splitlines()
            if not l.startswith("<?") and not l.startswith("<!--")
        ]
        return ET.fromstring("\n".join(lines))

    def test_valid_xml_with_labels_and_markers(self, tmp_path, capsys):
        cfg = write_config(tmp_path, coin_doc())
        code, out, _ = run_cli(["plot", "--config", cfg], capsys)
        assert code == 0
        root = self._svg_root(out)
        texts = [el.text for el in root.iter() if el.tag.endswith("text")]
        assert "do_not_accuse" in texts and "accuse" in texts
        assert "-0.106" in texts and "0.106" in texts
        polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(polylines) == 2

    def test_equal_losses_no_markers(self, tmp_path, capsys):
        doc = coin_doc(
            loss={
                "kind": "piecewise_linear",
                "params_a0": {"knots": [-0.5, 0.5], "values": [0.3, 0.3]},
                "params_a1": {"knots": [-0.5, 0.5], "values": [0.3, 0.3]},
            }
        )
        cfg = write_config(tmp_path, doc)
        code, out, _ = run_cli(["plot", "--config", cfg], capsys)
        root = self._svg_root(out)
        crossing_lines = [
            el for el in root.iter() if el.get("class") == "crossing"
        ]
        assert code == 0 and not crossing_lines

    def test_unwritable_output_exit_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, coin_doc())
        code, _, err = run_cli(
            ["plot", "--config", cfg, "--output", "/nonexistent/dir/x.svg"], capsys
        )
        assert code == 3

    def test_svg_identical_up_to_version_comment(self, tmp_path, capsys):
        cfg = write_config(tmp_path, coin_doc())
        _, first, _ = run_cli(["plot", "--config", cfg], capsys)
        _, second, _ = run_cli(["plot", "--config", cfg], capsys)
        strip = lambda text: [l for l in text.splitlines() if not l.startswith("<!--")]
        assert strip(first) == strip(second)


class TestExitCodeMatrix:
    def test_missing_config_file(self, capsys):
        code, _, _ = run_cli(["partition", "--config", "/nonexistent.json"], capsys)
        assert code == 2

    def test_config_that_is_not_utf8_names_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.json"
        cfg.write_bytes(b'{"spec_version": 1, "x": "\xe9"}')
        code, out, err = run_cli(["partition", "--config", str(cfg)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"relkit: error: cannot read config {cfg}: 'utf-8' codec"), err

    def test_bad_subcommand(self, capsys):
        assert run_cli(["explode", "--config", "x"], capsys)[0] == 2

    def test_partition_output_determinism(self, tmp_path, capsys):
        cfg = write_config(tmp_path, coin_doc())
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(["partition", "--config", cfg, "--output", str(a)], capsys)
        run_cli(["partition", "--config", cfg, "--output", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_arithmetic_failure_exit_3(self, tmp_path, capsys):
        """At n = 10**18 the incomplete beta's prefactor overflows; the
        NumericalError naming its shapes and point is a numerical failure,
        reported without a traceback."""
        doc = json.loads((CONFIG_DIR / "coin_decide.json").read_text(encoding="utf-8"))
        doc["model"]["data"] = {"n": 10**18, "k": 5 * 10**17}
        cfg = write_config(tmp_path, doc)
        code, out, err = run_cli(["decide", "--config", cfg], capsys)
        assert (code, out) == (3, "")
        assert err.startswith("relkit: failure: incomplete beta prefactor overflows (a=")
        assert "Traceback" not in err

    def test_overflowing_replicates_do_not_abort_a_sweep(self, tmp_path, capsys):
        """The same overflow in a sweep is an "error" verdict of the
        replicates it hits, tabulated and named on stderr; the sweep runs on."""
        doc = json.loads((CONFIG_DIR / "coin_scenario.json").read_text(encoding="utf-8"))
        doc["scenario"].update(sample_sizes=[10**18], replicates=20)
        cfg = write_config(tmp_path, doc)
        code, out, err = run_cli(["simulate", "--config", cfg], capsys)
        assert code == 0, err
        assert "failure" not in err and err
        for line in err.splitlines():
            assert "NumericalError: incomplete beta prefactor overflows" in line, line
        names = {proc["procedure"] for proc in doc["scenario"]["procedures"]}
        rows = [line.split() for line in out.splitlines()[2:]]
        for effect in doc["scenario"]["true_effects"]:
            assert {row[2] for row in rows if float(row[0]) == effect} == names


# --- artifact files: rewritten in place, cut to length ----------------------

# each command on its shipped config, with the files its --output names
ARTIFACT_RUNS = {
    "partition": (["partition", "--config", "coin_partition.json"], ("out",)),
    "check-hypotheses": (
        ["check-hypotheses", "--config", "coin_check_hypotheses.json"], ("out",)
    ),
    "decide": (["decide", "--config", "coin_decide.json"], ("out",)),
    "compare-csv": (["compare", "--config", "coin_compare.json", "--format", "csv"], ("out",)),
    "compare-json": (
        ["compare", "--config", "coin_compare.json", "--format", "json"], ("out",)
    ),
    "plot": (["plot", "--config", "coin_partition.json"], ("out",)),
    "simulate": (["simulate", "--config", "coin_scenario.json"], ("out.csv", "out.json")),
}


def run_artifact(name, out, capsys):
    argv, _ = ARTIFACT_RUNS[name]
    argv = [str(CONFIG_DIR / a) if a.endswith(".json") else a for a in argv]
    return run_cli([*argv, "--output", str(out)], capsys)


class TestArtifactFiles:
    @pytest.mark.parametrize("name", sorted(ARTIFACT_RUNS))
    def test_old_content_leaves_no_trace(self, name, tmp_path, capsys):
        """Into a fresh path, over a longer file and over a shorter one, a
        command writes the same bytes."""
        files = ARTIFACT_RUNS[name][1]
        got = {}
        for case, old in (("fresh", None), ("longer", b"x" * 200_000), ("shorter", b"x\n")):
            (tmp_path / case).mkdir()
            if old is not None:
                for file in files:
                    (tmp_path / case / file).write_bytes(old)
            code, _, err = run_artifact(name, tmp_path / case / "out", capsys)
            assert (code, err) == (0, "")
            got[case] = [(tmp_path / case / file).read_bytes() for file in files]
        assert got["longer"] == got["shorter"] == got["fresh"]
        assert all(got["fresh"])

    def test_file_mode_links_and_symlinks_are_kept(self, tmp_path, capsys):
        fresh = tmp_path / "fresh"
        run_artifact("partition", fresh, capsys)
        out, link = tmp_path / "out", tmp_path / "link"
        out.write_bytes(b"old\n" * 1000)
        out.chmod(0o600)
        os.link(out, link)
        inode = out.stat().st_ino
        assert run_artifact("partition", out, capsys)[0] == 0
        assert out.stat().st_ino == inode
        assert out.stat().st_mode & 0o777 == 0o600
        assert out.read_bytes() == link.read_bytes() == fresh.read_bytes()
        target, symlink = tmp_path / "target", tmp_path / "symlink"
        target.write_bytes(b"old\n" * 1000)
        symlink.symlink_to(target)
        assert run_artifact("partition", symlink, capsys)[0] == 0
        assert symlink.is_symlink() and os.readlink(symlink) == str(target)
        assert target.read_bytes() == fresh.read_bytes()
        # a dangling symlink keeps its link, and its target is created
        target, symlink = tmp_path / "new_target", tmp_path / "dangling"
        symlink.symlink_to(target)
        assert run_artifact("partition", symlink, capsys)[0] == 0
        assert symlink.is_symlink() and os.readlink(symlink) == str(target)
        assert target.read_bytes() == fresh.read_bytes()

    @pytest.mark.parametrize("name", ["decide", "plot"])
    def test_output_to_a_device(self, name, capsys):
        code, out, err = run_artifact(name, os.devnull, capsys)
        assert (code, out, err) == (0, "", "")

    def test_failed_write_leaves_no_old_tail(self, tmp_path, capsys, monkeypatch):
        """A write that fails part-way exits 3 with the file cut to the new
        bytes written, and closes the file."""
        fresh, out = tmp_path / "fresh", tmp_path / "out"
        run_artifact("plot", fresh, capsys)
        want = fresh.read_bytes()
        out.write_bytes(b"x" * (2 * len(want)))
        real_open, real_write, opened, calls = os.open, os.write, [], []

        def recording_open(*args, **kwargs):
            opened.append(real_open(*args, **kwargs))
            return opened[-1]

        def failing_write(fd, data):
            calls.append(fd)
            if len(calls) > 1:
                raise OSError(28, "No space left on device")
            return real_write(fd, data[: len(data) // 2])

        monkeypatch.setattr(os, "open", recording_open)
        monkeypatch.setattr(os, "write", failing_write)
        code, _, err = run_artifact("plot", out, capsys)
        monkeypatch.undo()
        assert code == 3
        assert err == "relkit: failure: [Errno 28] No space left on device\n"
        assert out.read_bytes() == want[: len(want) // 2]
        assert len(opened) == 1
        with pytest.raises(OSError):
            os.fstat(opened[0])

    def test_simulate_opens_both_files_before_writing(self, tmp_path, capsys):
        """A JSON path that cannot be opened exits 3 and leaves the CSV
        as it was, and creates none where there was none."""
        for old_csv in (b"old,rates\n", None):
            where = tmp_path / ("csv" if old_csv else "no-csv")
            (where / "out.json").mkdir(parents=True)
            if old_csv:
                (where / "out.csv").write_bytes(old_csv)
            code, _, err = run_artifact("simulate", where / "out", capsys)
            assert code == 3
            assert err.startswith("relkit: failure: ") and "out.json" in err
            if old_csv:
                assert (where / "out.csv").read_bytes() == old_csv
            else:
                assert [path.name for path in where.iterdir()] == ["out.json"]


def test_shipped_configs_parse_and_run(capsys):
    for name, command in (
        ("coin_partition.json", "partition"),
        ("coin_check_hypotheses.json", "check-hypotheses"),
        ("coin_check_partial_only.json", "check-hypotheses"),
        ("coin_decide.json", "decide"),
        ("coin_compare.json", "compare"),
    ):
        code, out, err = run_cli([command, "--config", str(CONFIG_DIR / name)], capsys)
        assert code == 0, (name, err)


# --- one value of a shipped config replaced: every command exits 0, 2 or 3 --


def _shipped(path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    if "scenario" in doc:
        doc["scenario"]["replicates"] = 2  # for speed only
    return doc


SHIPPED = {path.name: _shipped(path) for path in sorted(CONFIG_DIR.glob("*.json"))}
ODD_VALUES = [
    -(10**400), 10**400, True, "x", "0.1", {}, [1], None,
    math.nan, math.inf, -math.inf, 2.5,
]
COMMANDS = ["partition", "check-hypotheses", "decide", "compare", "simulate", "plot"]


# --- every command rejects an invalid loss at config load -----------------


def _bad_losses(space):
    """Three losses on the space that define no decision problem."""
    lo, hi = space["lo"], space["hi"]
    mid = 0.5 * (lo + hi)
    negative = {"knots": [lo, mid, hi], "values": [1.0, -0.2, 1.0]}
    good = {"knots": [lo, mid, hi], "values": [0.0, 1.0, 0.0]}
    return {
        "negative_knot": {"kind": "piecewise_linear", "params_a0": negative, "params_a1": good},
        "unsorted_knots": {
            "kind": "piecewise_linear",
            "params_a0": {"knots": [hi, mid, lo], "values": negative["values"]},
            "params_a1": good,
        },
        "negative_parabola": {
            "kind": "quadratic", "params_a0": {"c": -1.0}, "params_a1": {"c": 1.0}
        },
    }


# a compare that reads no loss: its own hypotheses, and no rope or tost
LOSS_FREE_COMPARE = {
    **SHIPPED["coin_decide.json"],
    "comparators": [{"procedure": "nhst"}, {"procedure": "bayes_factor"}],
}
del LOSS_FREE_COMPARE["decision"]


@pytest.mark.parametrize("bad", ["negative_knot", "unsorted_knots", "negative_parabola"])
@pytest.mark.parametrize("name", [*SHIPPED, "loss_free_compare"])
def test_every_command_rejects_an_invalid_loss(name, bad, tmp_path, capsys):
    doc = copy.deepcopy(SHIPPED.get(name, LOSS_FREE_COMPARE))
    doc["loss"] = _bad_losses(doc["parameter_space"])[bad]
    cfg = write_config(tmp_path, doc)
    for command in COMMANDS:
        code, out, err = run_cli([command, "--config", cfg], capsys)
        assert (code, out) == (2, ""), (command, err)
        assert err.startswith("relkit: error: invalid loss specification:\n"), (command, err)


# --- every command takes exactly the flags it reads ------------------------

SHIPPED_FOR = {
    "partition": "coin_partition.json",
    "check-hypotheses": "coin_check_hypotheses.json",
    "decide": "coin_decide.json",
    "compare": "coin_compare.json",
    "simulate": "coin_scenario.json",
    "plot": "coin_partition.json",
}
FLAG_VALUES = {"--output": ["out.x"], "--format": ["csv"], "--seed": ["5"], "--plot": [],
               "--plot-grid": ["64"]}
HONOURED = (
    {("--output", command) for command in COMMANDS}
    | {("--format", command) for command in ("partition", "check-hypotheses", "decide", "compare")}
    | {("--seed", "simulate")}
)


@pytest.mark.parametrize("flag", list(FLAG_VALUES))
@pytest.mark.parametrize("command", COMMANDS)
def test_command_takes_only_the_flags_it_reads(command, flag, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, SHIPPED[SHIPPED_FOR[command]])
    given = [flag, *FLAG_VALUES[flag]]
    code, _, err = run_cli([command, "--config", cfg, *given], capsys)
    if (flag, command) in HONOURED:
        assert code == 0, err
        if flag == "--output":
            assert list(tmp_path.glob("out.*")), "no artifact written"
    else:
        assert code == 2
        # the command's own parser reports it, under that command's name
        assert f"relkit {command}: error: unrecognized arguments: {' '.join(given)}" in err


def _honoured_flag_sets(command):
    """Every subset of the flags ``command`` reads, each flag with its value."""
    flags = [flag for flag in FLAG_VALUES if (flag, command) in HONOURED]
    return [
        [word for flag in subset for word in (flag, *FLAG_VALUES[flag])]
        for size in range(len(flags) + 1)
        for subset in itertools.combinations(flags, size)
    ]


@pytest.mark.parametrize("command", COMMANDS)
def test_command_parser_reads_a_line_as_the_top_level_parser_does(command):
    parser, commands = relkit.cli._parser()
    for given in _honoured_flag_sets(command):
        rest = ["--config", "c.json", *given]
        own = commands[command].parse_args(rest, argparse.Namespace(command=command))
        assert vars(own) == vars(parser.parse_args([command, *rest])), given


@pytest.mark.parametrize(
    "argv, code, out, err",
    [
        (["--version"], 0, f"relkit {relkit.__version__}\n", ""),
        ([], 2, "", "relkit: error: the following arguments are required: command\n"),
        (["frobnicate", "--config", "x"], 2, "", "invalid choice: 'frobnicate'"),
        (["decide", "-h"], 0, "usage: relkit decide [-h] --config CONFIG", ""),
    ],
)
def test_version_help_and_refused_lines_behave_as_before(argv, code, out, err, capsys):
    got_code, got_out, got_err = run_cli(argv, capsys)
    assert got_code == code
    assert out in got_out and (got_out == "") == (out == "")
    assert err in got_err and (got_err == "") == (err == "")
    if code == 2:  # a line naming no command is refused by the top-level parser
        assert got_err.startswith("usage: relkit [-h] [--version]\n")


@pytest.mark.parametrize("command", COMMANDS)
def test_every_command_refuses_an_output_section(command, tmp_path, capsys, monkeypatch):
    """--output and --format are the only places for the artifact's path and
    format; a config has no output section."""
    monkeypatch.chdir(tmp_path)
    doc = copy.deepcopy(SHIPPED[SHIPPED_FOR[command]])
    doc["output"] = {"path": "out.x"}
    code, out, err = run_cli([command, "--config", write_config(tmp_path, doc)], capsys)
    assert (code, out, err) == (2, "", "relkit: error: unknown top-level key(s) ['output']\n")
    assert not list(tmp_path.glob("out.*"))


def test_simulate_refuses_a_scenario_seed(tmp_path, capsys):
    """The seed is the top-level seed, or --seed; the scenario has none."""
    doc = copy.deepcopy(SHIPPED["coin_scenario.json"])
    doc["scenario"]["seed"] = 5
    code, out, err = run_cli(["simulate", "--config", write_config(tmp_path, doc)], capsys)
    assert (code, out, err) == (2, "", "relkit: error: unknown key(s) ['seed'] in scenario\n")


def wide_binomial_doc(section):
    """A config on [-1, 1], wider than the binomial bias range [-0.5, 0.5],
    with a binomial ``model`` or ``scenario`` and every other section a
    command reads, so that only the support rule can stop it."""
    doc = {
        "spec_version": 1,
        "parameter_space": {"lo": -1.0, "hi": 1.0},
        "actions": {"a0_label": "hold", "a1_label": "act"},
        "loss": {
            "kind": "piecewise_linear",
            "params_a0": {"knots": [-1.0, 0.0, 1.0], "values": [1.0, 0.0, 1.0]},
            "params_a1": {"knots": [-1.0, 0.0, 1.0], "values": [0.0, 0.2, 0.0]},
        },
        "hypotheses": {
            "h0": [[-0.1, 0.1]],
            "h1": [[-1.0, -0.1, False, True], [0.1, 1.0, True, False]],
        },
        "decision": {"rule": "expected_loss"},
    }
    if section == "model":
        doc["model"] = {"family": "binomial", "data": {"n": 20, "k": 16}}
        doc["comparators"] = [{"procedure": "nhst"}, {"procedure": "bayes_factor"}]
    else:
        doc["scenario"] = {
            "name": "wide",
            "family": "binomial",
            "true_effects": [0.0],
            "sample_sizes": [20],
            "replicates": 2,
            "procedures": [{"procedure": "nhst"}, {"procedure": "bayes_factor"}],
        }
    return doc


@pytest.mark.parametrize("section", ["model", "scenario"])
@pytest.mark.parametrize("command", list(relkit.cli._COMMANDS))
def test_binomial_space_beyond_the_support_exits_2(command, section, tmp_path, capsys):
    # nhst and bayes_factor once ran here and clamped the regions, rope and
    # decide exited with another message, and partition and plot ran
    cfg = write_config(tmp_path, wide_binomial_doc(section))
    code, out, err = run_cli([command, "--config", cfg], capsys)
    assert code == 2
    assert out == ""
    assert err == (
        "relkit: error: effects in [-1.0, 1.0] map outside the beta support [0, 1]; "
        "they must lie in [-0.5, 0.5]\n"
    )


@pytest.mark.parametrize("which", ["h0", "h1"])
@pytest.mark.parametrize("command", ["check-hypotheses", "decide", "compare"])
def test_empty_hypothesis_region_exits_2(command, which, tmp_path, capsys):
    doc = copy.deepcopy(SHIPPED[SHIPPED_FOR[command]])
    doc["hypotheses"] = copy.deepcopy(SHIPPED["coin_check_hypotheses.json"]["hypotheses"])
    doc["hypotheses"][which] = []
    code, _, err = run_cli([command, "--config", write_config(tmp_path, doc)], capsys)
    assert code == 2
    assert f"hypotheses.{which}:" in err


def _no_negligible_doc(command, procedure):
    """A config whose a1 loss is 0 on the whole space while a0's is
    positive, so its partition has no negligible region, and whose one
    procedure takes its interval from "partition_hull"."""
    if command == "compare" and procedure == "rope":
        doc = copy.deepcopy(SHIPPED["coin_compare.json"])
        knots = [-0.5, 0.0, 0.5]
        doc["comparators"] = [{"procedure": "rope"}]
    else:
        doc, knots = _aspirin_doc(), [-0.1, 0.0, 0.1]
        if command == "compare":
            scenario = doc.pop("scenario")
            doc.pop("seed")
            doc["model"] = {
                "family": "normal",
                "sigma": scenario["sigma"],
                "data": {"n": 22000, "ybar": 0.0077},
            }
            doc["comparators"] = [{"procedure": procedure}]
        else:
            doc["scenario"]["procedures"] = [{"procedure": procedure}]
    doc["loss"] = {
        "kind": "piecewise_linear",
        "params_a0": {"knots": knots, "values": [0.5, 0.1, 0.5]},
        "params_a1": {"knots": knots[::2], "values": [0.0, 0.0]},
    }
    return doc


@pytest.mark.parametrize("procedure, key", [("rope", "rope"), ("tost", "bounds")])
@pytest.mark.parametrize("command", ["compare", "simulate"])
def test_partition_hull_of_a_loss_without_a_negligible_region_exits_2(
    command, procedure, key, tmp_path, capsys
):
    # the hull of the empty negligible region once exited with a message
    # that named neither the procedure nor its setting
    cfg = write_config(tmp_path, _no_negligible_doc(command, procedure))
    argv = [command, "--config", cfg]
    if command == "simulate":
        argv += ["--output", str(tmp_path / "rates")]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err == (
        f'relkit: error: {procedure} setting {key}: "partition_hull" needs a negligible '
        "region, and this loss has none: a1's loss is below a0's at every effect\n"
    )


def _places(node, prefix=()):
    """The key path of every leaf and every list item below ``node``."""
    items = enumerate(node) if isinstance(node, list) else node.items()
    for key, value in items:
        path = prefix + (key,)
        if isinstance(node, list) or not isinstance(value, (dict, list)):
            yield path
        if isinstance(value, (dict, list)):
            yield from _places(value, path)


PLACES = [(name, path) for name, doc in SHIPPED.items() for path in _places(doc)]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@example(place=("coin_partition.json", ("parameter_space", "lo")), value=-(10**400))
@example(place=("coin_check_hypotheses.json", ("hypotheses", "h0", 0, 0)), value={})
@given(place=st.sampled_from(PLACES), value=st.sampled_from(ODD_VALUES))
def test_any_one_value_exits_0_2_or_3(place, value):
    name, path = place
    doc = copy.deepcopy(SHIPPED[name])
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / name
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        for command in COMMANDS:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([command, "--config", str(cfg)])
            assert code in (0, 2, 3), (command, code, err.getvalue())


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "relkit", "--version"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "relkit" in result.stdout


def test_partition_does_not_import_numpy():
    # only simulate draws data; the other commands start without numpy
    src = str(Path(__file__).resolve().parent.parent / "src")
    runs = [
        ("partition", str(CONFIG_DIR / "coin_partition.json")),
        ("compare", str(CONFIG_DIR / "coin_compare.json")),
    ]
    script = (
        "import sys\n"
        "from relkit.cli import main\n"
        f"for command, path in {runs!r}:\n"
        "    assert main([command, '--config', path]) == 0, command\n"
        "    assert 'numpy' not in sys.modules, (command, 'numpy imported')\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("key", ["a0_description", "a1_description"])
def test_removed_action_description_keys_exit_2(key, tmp_path, capsys):
    doc = coin_doc()
    doc["actions"][key] = "free text"
    code, out, err = run_cli(["partition", "--config", write_config(tmp_path, doc)], capsys)
    assert (code, out) == (2, "")
    assert key in err and "actions" in err


# --- the CSV and JSON artifacts carry the same values -----------------------

CSV_HEADER = {
    "partition": "lo,hi,lo_open,hi_open,label",
    "check-hypotheses": "key,value",
    "decide": "key,value",
    "compare": "procedure,statistic,p_value,bayes_factor,verdict,alpha,threshold",
    "simulate": "true_effect,n,procedure,verdict,frequency,std_error,replicates",
}
JSON_KEYS = {
    "partition": {"command", "spec_version", "parameter_space", "crossings", "regions"},
    "check-hypotheses": {"command", "spec_version", "complete", "partial", "witness"},
    "decide": {
        "command", "spec_version", "rule", "decision", "decision_label", "posterior_h0",
        "posterior_h1", "posterior_odds", "threshold_lo", "threshold_hi", "warnings",
        "posterior",
    },
    "compare": {"command", "spec_version", "results"},
    "simulate": {"command", "spec_version", "scenario", "seed", "rng", "replicates", "cells"},
}
KEY_ROWS = {
    "check-hypotheses": ["complete", "partial", "witness"],
    "decide": [
        "decision", "posterior_h0", "posterior_h1", "posterior_odds", "threshold_lo",
        "threshold_hi",
    ],
}
ROW_KEYS = {
    "partition": {"lo", "hi", "lo_open", "hi_open", "label"},
    "compare": {
        "procedure", "statistic", "p_value", "bayes_factor", "verdict", "alpha", "threshold",
        "detail",
    },
    "simulate": {"true_effect", "n", "procedure", "frequencies", "std_errors", "replicates"},
}


def assert_cell_agrees(cell, value):
    """A CSV cell against the JSON value of the same field."""
    if isinstance(value, bool):
        assert cell == ("true" if value else "false")
    elif value is None:  # null in JSON: absent, or a non-finite float
        assert cell in ("", "inf", "-inf")
    elif isinstance(value, (int, float)):
        assert float(cell) == value
    else:
        assert cell == value


def csv_rows(text, command):
    header, *lines = text.splitlines()
    assert header == CSV_HEADER[command]
    return list(csv.reader(lines))


@pytest.mark.parametrize("command", ["partition", "check-hypotheses", "decide", "compare"])
@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_csv_and_json_agree(name, command, tmp_path, capsys):
    cfg = write_config(tmp_path, SHIPPED[name])
    code, csv_text, err = run_cli([command, "--config", cfg, "--format", "csv"], capsys)
    json_code, json_text, json_err = run_cli([command, "--config", cfg, "--format", "json"],
                                             capsys)
    assert (json_code, json_err) == (code, err)
    if code != 0:  # the config lacks a section the command needs
        assert csv_text == json_text == ""
        return
    doc = json.loads(json_text)
    assert set(doc) == JSON_KEYS[command]
    rows = csv_rows(csv_text, command)
    if command in KEY_ROWS:
        assert [key for key, _ in rows] == KEY_ROWS[command]
        for key, cell in rows:
            assert_cell_agrees(cell, doc[key])
        return
    records = doc["regions" if command == "partition" else "results"]
    columns = CSV_HEADER[command].split(",")
    assert len(rows) == len(records) > 0
    for row, record in zip(rows, records):
        assert set(record) == ROW_KEYS[command]
        for column, cell in zip(columns, row, strict=True):
            assert_cell_agrees(cell, record[column])


@pytest.mark.parametrize("name", ["coin_scenario.json", "aspirin_scenario.json"])
def test_simulate_csv_and_json_agree(name, tmp_path, capsys):
    cfg = write_config(tmp_path, SHIPPED[name])
    code, _, err = run_cli(["simulate", "--config", cfg, "--output", str(tmp_path / "r.csv")],
                           capsys)
    assert code == 0, err
    doc = json.loads((tmp_path / "r.json").read_text())
    assert set(doc) == JSON_KEYS["simulate"]
    rows = iter(csv_rows((tmp_path / "r.csv").read_text(), "simulate"))
    for cell in doc["cells"]:
        assert set(cell) == ROW_KEYS["simulate"]
        for verdict, freq in cell["frequencies"].items():
            row = next(rows)
            want = (cell["true_effect"], cell["n"], cell["procedure"], verdict, freq,
                    cell["std_errors"][verdict], cell["replicates"])
            for got, value in zip(row, want, strict=True):
                assert_cell_agrees(got, value)
    assert next(rows, None) is None


# --- the JSON writer matches json.dumps -------------------------------------


def nonfinite_to_none(value):
    """``value`` with every non-finite float made None, as the artifacts write it."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: nonfinite_to_none(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [nonfinite_to_none(v) for v in value]
    return value


JSON_TEXT = st.text(
    st.characters() | st.sampled_from('"\\\x00\x08\x1f\x7f\xe9 \U0001f600'), max_size=8
)
JSON_FLOATS = st.floats() | st.sampled_from(
    [0.0, -0.0, 5e-324, 1e16, sys.float_info.max, math.nan, math.inf, -math.inf]
)
JSON_LEAVES = (
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | JSON_FLOATS | JSON_TEXT
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(JSON_TEXT, inner, max_size=4)
    ),
    max_leaves=24,
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@example(doc={"a\"\\\n\xe9\U0001f600": [True, False, None, 1, (), {}, []]})
@example(doc={"x": [-0.0, 5e-324, 1e16, sys.float_info.max, math.nan, -math.inf, 2**70]})
@given(doc=st.dictionaries(JSON_TEXT, JSON_VALUES, max_size=5))
def test_json_writer_matches_json_dumps(doc):
    want = json.dumps(nonfinite_to_none(doc), indent=2, sort_keys=True, allow_nan=False)
    assert relkit.cli._json_text(doc) == want + "\n"


@pytest.mark.parametrize("doc", [{"a": {1, 2}}, {"a": [frozenset()]}, {1: "a"}, {"a": {2: 0}}])
def test_json_writer_refuses_what_json_cannot_hold(doc):
    with pytest.raises(TypeError):
        relkit.cli._json_text(doc)
