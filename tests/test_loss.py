import json
import math

import pytest

import relkit.loss
from relkit.cli import main
from relkit.errors import DomainError, ValidationError
from relkit.simulate import run_operating_characteristics
from relkit.loss import (
    ActionPair,
    CurveKnots,
    LossSpec,
    ParameterSpace,
    QuadraticParams,
    breakpoints,
    coin_demo_loss,
    evaluate_loss,
    loss_difference,
    sample_grid,
)

from conftest import CONFIG_DIR, equal_losses_spec, quadratic_pair_spec, shipped_scenario

# Demo construction: a1's curve is k * (0.5 - |b|) with k solved from the
# crossing |b| = k * (0.5 - |b|) at b = 0.106, so L(0, a1) = 0.5 * k.
COIN_A1_AT_ZERO = 0.5 * (0.106 / 0.394)


class TestParameterSpace:
    @pytest.mark.parametrize("lo,hi", [(0.5, -0.5), (0.0, 0.0), (float("nan"), 1.0)])
    def test_rejects_bad_bounds(self, lo, hi):
        with pytest.raises(ValidationError):
            ParameterSpace(lo, hi)


class TestActionPair:
    @pytest.mark.parametrize("a0,a1", [("", "x"), ("x", "x")])
    def test_rejects_bad_labels(self, a0, a1):
        with pytest.raises(ValidationError):
            ActionPair(a0, a1)


class TestEvaluateLoss:
    def test_coin_demo_at_zero(self, coin_spec):
        assert evaluate_loss(coin_spec, 0.0, "a0") == 0.0
        a1 = evaluate_loss(coin_spec, 0.0, "a1")
        assert a1 == pytest.approx(COIN_A1_AT_ZERO, abs=1e-15)
        assert round(a1, 5) == 0.13452

    def test_quadratic_example(self, unit_space):
        spec = LossSpec(
            space=unit_space,
            kind="quadratic",
            params_a0=QuadraticParams(c=1.0, center=0.0),
            params_a1=QuadraticParams(c=1.0, center=0.0),
        )
        assert evaluate_loss(spec, 0.2, "a0") == pytest.approx(0.04, abs=1e-15)

    def test_outside_space_names_bounds(self, coin_spec):
        with pytest.raises(DomainError, match=r"\[-0\.5, 0\.5\]"):
            evaluate_loss(coin_spec, 0.7, "a0")

    def test_non_finite_coefficient(self, unit_space):
        with pytest.raises(ValidationError, match=r"non-finite coefficient a0\.c=inf"):
            LossSpec(
                space=unit_space,
                kind="quadratic",
                params_a0=QuadraticParams(c=float("inf")),
                params_a1=QuadraticParams(c=1.0),
            )

    def test_unknown_action(self, coin_spec):
        with pytest.raises(ValueError):
            evaluate_loss(coin_spec, 0.0, "a2")

    def test_determinism(self, coin_spec):
        values = {evaluate_loss(coin_spec, 0.37, "a1") for _ in range(10)}
        assert len(values) == 1

    def test_demo_requires_demo_space(self):
        with pytest.raises(ValidationError, match="requires the parameter space"):
            LossSpec(space=ParameterSpace(-1.0, 1.0), kind="builtin_coin_demo")


class TestLossDifference:
    def test_coin_demo_at_zero(self, coin_spec):
        assert loss_difference(coin_spec, 0.0) == pytest.approx(
            COIN_A1_AT_ZERO, abs=1e-15
        )

    @pytest.mark.parametrize("theta", [0.106, -0.106])
    def test_coin_demo_crossings(self, coin_spec, theta):
        assert abs(loss_difference(coin_spec, theta)) <= 1e-9

    def test_equal_curves_tie_everywhere(self):
        spec = equal_losses_spec()
        for theta in sample_grid(spec.space, 64):
            assert loss_difference(spec, theta) == 0.0

    def test_positive_scaling_preserves_preference_sign(self, coin_spec):
        unscaled = quadratic_pair_spec()
        for c in (0.5, 3.0, 17.0):
            scaled = LossSpec(
                space=unscaled.space,
                kind="quadratic",
                params_a0=QuadraticParams(c=0.0, offset=c * 0.04),
                params_a1=QuadraticParams(c=c, center=0.0, offset=0.0),
            )
            for theta in sample_grid(unscaled.space, 257):
                base = loss_difference(unscaled, theta)
                assert math.copysign(1, base) == math.copysign(
                    1, loss_difference(scaled, theta)
                ) or base == loss_difference(scaled, theta) == 0.0


class TestInterpolation:
    def test_exact_at_grid_points(self, unit_space):
        knots = (-0.5, -0.1234, 0.0, 0.371, 0.5)
        values = (0.77, 0.123456789, 0.5, 0.998, 0.01)
        curve = CurveKnots(knots=knots, values=values)
        spec = LossSpec(
            space=unit_space, kind="table", params_a0=curve, params_a1=curve
        )
        for x, v in zip(knots, values):
            assert evaluate_loss(spec, x, "a0") == v

    def test_linear_between_points(self, unit_space):
        curve = CurveKnots(knots=(-0.5, 0.5), values=(0.0, 1.0))
        spec = LossSpec(
            space=unit_space, kind="table", params_a0=curve, params_a1=curve
        )
        assert evaluate_loss(spec, 0.0, "a0") == pytest.approx(0.5, abs=1e-15)
        assert evaluate_loss(spec, 0.25, "a1") == pytest.approx(0.75, abs=1e-15)


class TestValidateLossSpec:
    """A LossSpec is checked when it is built: an invalid loss raises one
    ValidationError that lists every issue."""

    def test_coin_demo_clean(self):
        assert coin_demo_loss().kind == "builtin_coin_demo"

    def test_negative_parabola_reported(self, unit_space):
        for a0 in (
            QuadraticParams(c=-1.0),
            # a dip below zero far narrower than any grid spacing
            QuadraticParams(c=1e6, center=0.0001234, offset=-1e-12),
        ):
            with pytest.raises(ValidationError, match="negative loss"):
                LossSpec(
                    space=unit_space,
                    kind="quadratic",
                    params_a0=a0,
                    params_a1=QuadraticParams(c=1.0),
                )

    def test_unsorted_grid_reported(self, unit_space):
        curve = CurveKnots(knots=(-0.5, 0.3, 0.1, 0.5), values=(0, 0, 0, 0))
        with pytest.raises(ValidationError, match="grid not increasing"):
            LossSpec(space=unit_space, kind="table", params_a0=curve, params_a1=curve)

    def test_grid_coverage_reported(self, unit_space):
        curve = CurveKnots(knots=(-0.4, 0.5), values=(0.0, 1.0))
        with pytest.raises(ValidationError, match="does not cover"):
            LossSpec(space=unit_space, kind="table", params_a0=curve, params_a1=curve)

    def test_both_curves_reported_in_one_message(self, unit_space):
        with pytest.raises(ValidationError) as info:
            LossSpec(
                space=unit_space,
                kind="piecewise_linear",
                params_a0=CurveKnots(knots=(-0.5, 0.3, 0.1, 0.5), values=(0, 0, 0, 0)),
                params_a1=CurveKnots(knots=(-0.4, 0.5), values=(0.0, 1.0)),
            )
        assert str(info.value) == (
            "invalid loss specification:\n"
            "a0: grid not increasing\n"
            "a1: grid [-0.4, 0.5] does not cover the parameter space [-0.5, 0.5]"
        )
        with pytest.raises(ValidationError) as info:
            LossSpec(
                space=unit_space,
                kind="quadratic",
                params_a0=QuadraticParams(c=1.0, offset=-0.1),
                params_a1=QuadraticParams(c=-1.0),
            )
        message = str(info.value)
        assert "negative loss at theta=0.0 for a0" in message
        assert "negative loss at theta=-0.5 for a1" in message

    def test_compiled_fields_stay_out_of_equality_and_repr(self, unit_space):
        def spec():
            curve = CurveKnots(knots=(-0.5, 0.0, 0.5), values=(1.0, 0.0, 1.0))
            return LossSpec(unit_space, "piecewise_linear", curve, curve)

        assert spec() == spec() and hash(spec()) == hash(spec())
        assert "_curves" not in repr(spec()) and "_panels" not in repr(spec())

    def test_nonnegativity_on_grid(self, coin_spec):
        grid = sample_grid(coin_spec.space, 4096, include=breakpoints(coin_spec))
        for action in ("a0", "a1"):
            assert all(evaluate_loss(coin_spec, t, action) >= 0.0 for t in grid)


def test_each_curve_compiles_once_per_command(monkeypatch, tmp_path, capsys):
    """The loss is compiled when the config is loaded, once per action, and
    every later use reads the compiled curves from the spec."""
    calls = []
    compile_curve = relkit.loss._compile

    def counting(spec, action):
        calls.append(action)
        return compile_curve(spec, action)

    monkeypatch.setattr(relkit.loss, "_compile", counting)
    scenario = shipped_scenario(
        "aspirin_scenario", true_effects=(0.0, 0.0077), sample_sizes=(50,), replicates=3
    )
    run_operating_characteristics(scenario)
    assert calls == ["a0", "a1"]

    calls.clear()
    doc = json.loads((CONFIG_DIR / "coin_decide.json").read_text(encoding="utf-8"))
    doc["decision"] = {"rule": "expected_loss"}
    path = tmp_path / "decide.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["decide", "--config", str(path)]) == 0
    assert '"rule": "expected_loss"' in capsys.readouterr().out
    assert calls == ["a0", "a1"]


def test_breakpoints():
    assert breakpoints(coin_demo_loss()) == (0.0,)
    assert breakpoints(quadratic_pair_spec()) == ()


def test_sample_grid_contains_endpoints_and_extras(unit_space):
    grid = sample_grid(unit_space, 33, include=(0.123,))
    assert grid[0] == -0.5 and grid[-1] == 0.5
    assert 0.123 in grid
    assert grid == sorted(set(grid))
