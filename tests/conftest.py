import dataclasses
import random
from pathlib import Path

import pytest

from relkit.config import load_config
from relkit.loss import (
    CurveKnots,
    LossSpec,
    ParameterSpace,
    QuadraticParams,
    coin_demo_loss,
)
from relkit.simulate import ProcedureSpec


# the binomial model's whole effect range, the bias b = pi - 0.5
BIAS_SPACE = ParameterSpace(-0.5, 0.5)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# the procedures of the benchmark's two sweeps
BENCH_NORMAL_PROCEDURES = (
    ProcedureSpec("nhst", {"alpha": 0.05}),
    ProcedureSpec("tost", {"alpha": 0.05, "bounds": "partition_hull"}),
    ProcedureSpec("rope", {"mass": 0.95, "rope": "partition_hull"}),
    ProcedureSpec("hypothesis_ratio", {"loss_ratio": 1.0}),
    ProcedureSpec("expected_loss", {}),
    ProcedureSpec("bayes_factor", {"threshold": 3.0}),
)
BENCH_BINOMIAL_PROCEDURES = (
    ProcedureSpec("nhst", {"alpha": 0.05}),
    ProcedureSpec("rope", {"mass": 0.95, "rope": "partition_hull"}),
    ProcedureSpec("hypothesis_ratio", {"loss_ratio": [0.5, 2.0]}),
    ProcedureSpec("expected_loss", {}),
    ProcedureSpec("bayes_factor", {"threshold": 3.0}),
)


def shipped_scenario(name: str, /, **changes):
    """The scenario of ``configs/<name>.json``, with the given fields
    replaced (a smaller grid, fewer replicates, other procedures)."""
    scenario = load_config(CONFIG_DIR / f"{name}.json").scenario
    return dataclasses.replace(scenario, **changes)


@pytest.fixture(scope="session")
def coin_spec():
    return coin_demo_loss()


@pytest.fixture()
def unit_space():
    return ParameterSpace(-0.5, 0.5)


def equal_losses_spec():
    """Both actions carry the same curve; every effect is a tie."""
    space = ParameterSpace(-0.5, 0.5)
    curve = CurveKnots(knots=(-0.5, 0.5), values=(1.0, 1.0))
    return LossSpec(space=space, kind="piecewise_linear", params_a0=curve, params_a1=curve)


def quadratic_pair_spec():
    """Loss difference theta^2 - 0.04: relevant inside (-0.2, 0.2)."""
    space = ParameterSpace(-0.5, 0.5)
    return LossSpec(
        space=space,
        kind="quadratic",
        params_a0=QuadraticParams(c=0.0, center=0.0, offset=0.04),
        params_a1=QuadraticParams(c=1.0, center=0.0, offset=0.0),
    )


def a0_always_better_spec():
    """a1 loss uniformly above a0: the whole space is negligible."""
    space = ParameterSpace(-0.5, 0.5)
    return LossSpec(
        space=space,
        kind="piecewise_linear",
        params_a0=CurveKnots(knots=(-0.5, 0.5), values=(0.1, 0.1)),
        params_a1=CurveKnots(knots=(-0.5, 0.5), values=(0.7, 0.9)),
    )


def random_loss_spec(rng: random.Random) -> LossSpec:
    """A random well-formed loss spec across all three writable families."""
    space = ParameterSpace(-0.5, 0.5)
    kind = rng.choice(["piecewise_linear", "quadratic", "table"])
    if kind == "quadratic":
        params = []
        for _ in range(2):
            params.append(
                QuadraticParams(
                    c=rng.uniform(0.0, 3.0),
                    center=rng.uniform(-0.4, 0.4),
                    offset=rng.uniform(0.0, 0.5),
                )
            )
        return LossSpec(space=space, kind=kind, params_a0=params[0], params_a1=params[1])
    curves = []
    for _ in range(2):
        n_knots = rng.randint(2, 7)
        interior = sorted(rng.uniform(-0.49, 0.49) for _ in range(n_knots - 2))
        knots = (-0.5, *interior, 0.5)
        values = tuple(rng.uniform(0.0, 1.0) for _ in knots)
        curves.append(CurveKnots(knots=knots, values=values))
    return LossSpec(space=space, kind=kind, params_a0=curves[0], params_a1=curves[1])
