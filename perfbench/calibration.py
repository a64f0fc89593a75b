"""The benchmark's unit of machine speed.

``calibrate()`` runs a fixed amount of pure-Python work and returns its
wall time in ms. Dividing a measured time by a calibration time taken just
before and after it gives a cost in ``cal`` that the speed of a shared
machine, which drifts by tens of percent within seconds, largely cancels
out of. The module imports only ``math`` and ``time``, so a fresh
interpreter can calibrate before it imports relkit without importing any
module relkit needs.
"""

from __future__ import annotations

import math
import time


def _simpson(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    flm, frm = f(0.5 * (a + m)), f(0.5 * (m + b))
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if depth > 12 or abs(left + right - whole) <= 15.0 * tol:
        return left + right
    return (_simpson(f, a, m, fa, flm, fm, left, 0.5 * tol, depth + 1)
            + _simpson(f, m, b, fm, frm, fb, right, 0.5 * tol, depth + 1))


def _cont_frac(a, b, x):
    c, d = 1.0, 1.0 / (1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, 200):
        num = m * (b - m) * x / ((a - 1.0 + 2 * m) * (a + 2 * m))
        d = 1.0 / (1.0 + num * d)
        c = 1.0 + num / c
        h *= d * c
        num = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 1.0 + 2 * m))
        d = 1.0 / (1.0 + num * d)
        c = 1.0 + num / c
        h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def calibrate() -> float:
    """Fixed work shaped like relkit's hot paths (recursive quadrature of a
    closure, a continued fraction, small dicts formatted as text); returns
    its time in ms."""
    t0 = time.perf_counter()
    total = 0.0
    for r in range(20):
        a, b = 2.0 + r % 7, 3.0 + r % 5
        f = lambda x, a=a, b=b: math.exp(-0.5 * (x - a) ** 2 / b)
        total += _simpson(f, -10.0, 10.0, f(-10.0), f(0.0), f(10.0), 0.0, 1e-9, 0)
        total += _cont_frac(a, b, 0.3)
        total += len(repr({"a": a, "b": [b, total]}))
    return 1e3 * (time.perf_counter() - t0)
