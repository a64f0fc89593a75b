"""Loss functions over a bounded one-dimensional effect parameter.

A loss specification assigns every effect value ``theta`` in a closed
interval a nonnegative badness for each of two actions: ``a0`` is the action
that is appropriate when the effect is absent, ``a1`` the one that is
appropriate when the effect matters. Every loss kind compiles to one exact
representation, a piecewise polynomial of degree <= 2, from which
evaluation, validation, the relevance partition, the hypothesis checks and
the expected-loss integrand are all derived.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Iterable

from .errors import DomainError, ValidationError

ACTIONS = ("a0", "a1")

LOSS_KINDS = ("piecewise_linear", "quadratic", "table", "builtin_coin_demo")

# Built-in coin-bias demo: L(b, a0) = |b| and L(b, a1) = k * (0.5 - |b|),
# with k chosen so that both curves cross exactly at b = -0.106 and b = 0.106.
COIN_SPACE = (-0.5, 0.5)
COIN_CROSSING = 0.106
COIN_A1_SLOPE = COIN_CROSSING / (0.5 - COIN_CROSSING)


@dataclass(frozen=True)
class ParameterSpace:
    """Closed, bounded interval of admissible effect values."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        lo, hi = float(self.lo), float(self.hi)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValidationError("parameter space bounds must be finite")
        if not lo < hi:
            raise ValidationError(f"parameter space needs lo < hi, got [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def span(self) -> float:
        return self.hi - self.lo

    def contains(self, theta: float) -> bool:
        return self.lo <= theta <= self.hi


@dataclass(frozen=True)
class ActionPair:
    """The two actions of the decision problem.

    By convention ``a0`` is the action that is appropriate if the effect is
    absent. The labels name the actions in decisions and plots.
    """

    a0_label: str
    a1_label: str

    def __post_init__(self) -> None:
        if not self.a0_label or not self.a1_label:
            raise ValidationError("action labels must be non-empty")
        if self.a0_label == self.a1_label:
            raise ValidationError("action labels must be distinct")


@dataclass(frozen=True)
class QuadraticParams:
    """Loss curve c * (theta - center)**2 + offset."""

    c: float
    center: float = 0.0
    offset: float = 0.0


@dataclass(frozen=True)
class CurveKnots:
    """Piecewise-linear curve through the points (knots[i], values[i])."""

    knots: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "knots", tuple(float(x) for x in self.knots))
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))


LossParams = QuadraticParams | CurveKnots | None


@dataclass(frozen=True)
class LossSpec:
    """Declarative description of both loss curves over a parameter space.

    ``params_a0``/``params_a1`` are ``QuadraticParams`` for the quadratic
    kind, ``CurveKnots`` for the piecewise_linear and table kinds, and None
    for the built-in demo. Construction compiles both curves and checks
    them: first the structure of each curve (sorted, finite knots covering
    the space; finite coefficients), then, if both compile, finite and
    nonnegative values where a polynomial of degree <= 2 takes its minimum:
    at both space ends and at every piece origin inside the space (each
    knot, and a quadratic's vertex), whose declared value is read directly.
    An invalid loss raises one ValidationError listing every issue, so a
    LossSpec that exists defines a decision problem.
    """

    space: ParameterSpace
    kind: str
    params_a0: LossParams = None
    params_a1: LossParams = None
    # the compiled curve of each action, and the panels (lo, hi, the piece
    # of each action) between the space ends and the breakpoints
    _curves: tuple[Curve, Curve] = field(init=False, repr=False, compare=False)
    _panels: tuple = field(init=False, repr=False, compare=False)
    # the largest value the checks read, which is the largest loss on the
    # space: a curve of pieces of degree <= 2 peaks at a space end or a piece
    # origin (a knot, or a concave quadratic's vertex); it scales the
    # expected-loss rule's tie tolerance
    _peak: float = field(init=False, repr=False, compare=False)
    # the relevance partition, set by regions.partition on first use
    _partition: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in LOSS_KINDS:
            raise ValidationError(
                f"unknown loss kind {self.kind!r}; expected one of {LOSS_KINDS}"
            )
        issues: list[str] = []
        curves = []
        peak = 0.0
        lo, hi = self.space.lo, self.space.hi
        if self.kind == "builtin_coin_demo" and (lo, hi) != COIN_SPACE:
            # both demo curves are fixed, so their space is checked once
            issues.append("builtin_coin_demo requires the parameter space [-0.5, 0.5]")
        else:
            for action in ACTIONS:
                try:
                    curves.append(_compile(self, action))
                except ValidationError as exc:
                    issues.append(str(exc))
        if not issues:
            for action, curve in zip(ACTIONS, curves):
                values = {t: _value(curve, t) for t in (lo, hi)}
                values.update((o, c0) for o, c0, _, _ in curve[1] if lo < o < hi)
                for t, v in sorted(values.items()):
                    if not math.isfinite(v):
                        issues.append(f"non-finite loss at theta={t} for {action}")
                    elif v < 0.0:
                        issues.append(f"negative loss at theta={t} for {action}")
                    else:
                        peak = max(peak, v)
        if issues:
            raise ValidationError("invalid loss specification:\n" + "\n".join(issues))
        inner = sorted({x for starts, _ in curves for x in starts if lo < x < hi})
        points = [lo, *inner, hi]
        panels = tuple(
            (a, b, (_piece_at(curves[0], a), _piece_at(curves[1], a)))
            for a, b in zip(points, points[1:])
        )
        object.__setattr__(self, "_curves", tuple(curves))
        object.__setattr__(self, "_panels", panels)
        object.__setattr__(self, "_peak", peak)


def coin_demo_loss() -> LossSpec:
    """The shipped coin-bias demo loss on the bias space [-0.5, 0.5]."""
    return LossSpec(space=ParameterSpace(*COIN_SPACE), kind="builtin_coin_demo")


def _check_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValidationError(f"non-finite coefficient {name}={value}")
    return value


# One polynomial piece of a loss curve: (origin, c0, c1, c2) stands for
# c0 + c1 * u + c2 * u**2 with u = theta - origin, and c0 is the declared loss
# at the origin (a knot, or a quadratic's vertex).
Piece = tuple[float, float, float, float]
Curve = tuple[tuple[float, ...], tuple[Piece, ...]]


def _compile(spec: LossSpec, action: str) -> Curve:
    """Check one loss curve's structure and compile it to sorted piece
    starts and pieces."""
    params = spec.params_a0 if action == "a0" else spec.params_a1

    if spec.kind == "builtin_coin_demo":
        # the space is checked once, by LossSpec
        if action == "a0":
            return (-0.5, 0.0), ((0.0, 0.0, -1.0, 0.0), (0.0, 0.0, 1.0, 0.0))
        k = COIN_A1_SLOPE
        return (-0.5, 0.0), ((0.0, 0.5 * k, k, 0.0), (0.0, 0.5 * k, -k, 0.0))

    if spec.kind == "quadratic":
        if not isinstance(params, QuadraticParams):
            raise ValidationError(f"{action}: quadratic loss needs QuadraticParams")
        c = _check_finite(f"{action}.c", params.c)
        center = _check_finite(f"{action}.center", params.center)
        offset = _check_finite(f"{action}.offset", params.offset)
        return (spec.space.lo,), ((center, offset, 0.0, c),)

    # piecewise_linear and table: one linear piece per knot interval
    if not isinstance(params, CurveKnots):
        raise ValidationError(f"{action}: {spec.kind} loss needs CurveKnots")
    knots, values = params.knots, params.values
    if len(knots) < 2:
        raise ValidationError(f"{action}: grid needs at least 2 points")
    if len(values) != len(knots):
        raise ValidationError(
            f"{action}: {len(knots)} grid points but {len(values)} values"
        )
    for x in knots:
        _check_finite(f"{action}.knot", x)
    for v in values:
        _check_finite(f"{action}.value", v)
    if any(knots[i] >= knots[i + 1] for i in range(len(knots) - 1)):
        raise ValidationError(f"{action}: grid not increasing")
    if knots[0] > spec.space.lo or knots[-1] < spec.space.hi:
        raise ValidationError(
            f"{action}: grid [{knots[0]}, {knots[-1]}] does not cover the "
            f"parameter space [{spec.space.lo}, {spec.space.hi}]"
        )
    pieces = [
        (x0, v0, (v1 - v0) / (x1 - x0), 0.0)
        for x0, x1, v0, v1 in zip(knots, knots[1:], values, values[1:])
    ]
    # a constant terminal piece returns the last declared value exactly
    pieces.append((knots[-1], values[-1], 0.0, 0.0))
    return knots, tuple(pieces)


def _piece_at(curve: Curve, theta: float) -> Piece:
    """The piece holding theta (the first piece also extends to its left)."""
    starts, pieces = curve
    return pieces[bisect_right(starts, theta, 1) - 1]


def _about(piece: Piece, origin: float) -> tuple[float, float, float]:
    """The piece's polynomial re-expanded about another origin: the
    coefficients of c0 + c1 * u + c2 * u**2 with u = theta - origin."""
    o, c0, c1, c2 = piece
    d = origin - o
    return c0 + d * (c1 + d * c2), c1 + 2.0 * c2 * d, c2


def _value(curve: Curve, theta: float) -> float:
    origin, c0, c1, c2 = _piece_at(curve, theta)
    u = theta - origin
    return c0 + u * (c1 + u * c2)


def evaluate_loss(spec: LossSpec, theta: float, action: str) -> float:
    """Evaluate L(theta, action); DomainError if theta is outside the space."""
    if action not in ACTIONS:
        raise ValueError(f"action must be one of {ACTIONS}, got {action!r}")
    t = float(theta)
    if not spec.space.contains(t):
        raise DomainError(
            f"theta={t} outside the parameter space [{spec.space.lo}, {spec.space.hi}]"
        )
    return _value(spec._curves[ACTIONS.index(action)], t)


def loss_difference(spec: LossSpec, theta: float) -> float:
    """L(theta, a1) - L(theta, a0); negative means a1 is preferred."""
    return evaluate_loss(spec, theta, "a1") - evaluate_loss(spec, theta, "a0")


def difference_fn(spec: LossSpec) -> Callable[[float], float]:
    """Compiled theta -> L(theta, a1) - L(theta, a0), for hot loops."""
    c0, c1 = spec._curves
    return lambda t: _value(c1, t) - _value(c0, t)


def breakpoints(spec: LossSpec) -> tuple[float, ...]:
    """Piece starts of either curve strictly inside the space (knots, demo apex)."""
    return tuple(a for a, _, _ in spec._panels[1:])


def sample_grid(
    space: ParameterSpace, n: int, include: Iterable[float] = ()
) -> list[float]:
    """Uniform grid of n points over the space, both endpoints included,
    merged with any extra points that fall strictly inside."""
    if n < 2:
        raise ValueError(f"grid needs at least 2 points, got {n}")
    span = space.span
    pts = {space.lo + (i / (n - 1)) * span for i in range(1, n - 1)}
    pts.add(space.lo)
    pts.add(space.hi)
    for x in include:
        if space.lo <= x <= space.hi:
            pts.add(float(x))
    return sorted(pts)
