import dataclasses
import math
import random
from pathlib import Path

import pytest
from scipy import integrate, special, stats

from relkit.config import load_config
from relkit.loss import (
    CurveKnots,
    LossSpec,
    ParameterSpace,
    QuadraticParams,
    breakpoints,
    coin_demo_loss,
    evaluate_loss,
)


# the binomial model's whole effect range, the bias b = pi - 0.5
BIAS_SPACE = ParameterSpace(-0.5, 0.5)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def shipped_scenario(name: str, **changes):
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


def quad_split(f, lo: float, hi: float, cuts=()) -> float:
    """The integral of f over [lo, hi] by scipy.integrate.quad, split at the
    cuts that fall strictly inside."""
    points = [lo, *sorted(c for c in set(cuts) if lo < c < hi), hi]
    return sum(
        integrate.quad(f, a, b, epsabs=1e-13, epsrel=1e-12)[0]
        for a, b in zip(points, points[1:])
    )


def expected_losses_oracle(post, spec: LossSpec) -> list[float]:
    """E[L(a0)] and E[L(a1)] by scipy.integrate.quad of the loss times the
    SciPy density truncated to the space. The log density is the formula of
    SciPy's ``logpdf``, called without the frozen distribution's overhead.
    quad is split at the loss knots and up to 64 sd either side of the mean:
    the skewed tail of Beta(2, 9999) holds 2.6e-5 of its mass beyond 8 sd,
    which one panel to the space end steps over."""
    lo, hi = post.space.lo, post.space.hi
    a, b = post.params
    if post.family == "beta":
        dist = stats.beta(a, b, loc=post.effect_shift)
        shift, log_norm = post.effect_shift, special.betaln(a, b)

        def log_pdf(t):
            x = t - shift
            return special.xlogy(a - 1.0, x) + special.xlog1py(b - 1.0, -x) - log_norm

    else:
        dist = stats.norm(a, b)
        log_norm = math.log(b * math.sqrt(2.0 * math.pi))

        def log_pdf(t):
            z = (t - a) / b
            return -0.5 * z * z - log_norm

    if dist.cdf(hi) <= 0.5:
        log_mass = math.log(dist.cdf(hi) - dist.cdf(lo))
    else:
        log_mass = math.log(dist.sf(lo) - dist.sf(hi))
    loc, sd = post.native_location_scale
    near = (loc + m * sd for m in (-64, -16, -8, -4, -2, -1, 0, 1, 2, 4, 8, 16, 64))
    points = sorted({*breakpoints(spec), *(x for x in near if lo < x < hi)})
    return [
        integrate.quad(
            lambda t: evaluate_loss(spec, t, action) * math.exp(log_pdf(t) - log_mass),
            lo, hi, points=points, epsabs=1e-13, epsrel=1e-12, limit=500,
        )[0]
        for action in ("a0", "a1")
    ]


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
