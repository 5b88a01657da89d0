"""Small shared helpers: scalar minimization by Brent's method."""

from __future__ import annotations

import math
import sys
from typing import Callable

_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0
_SQRT_EPS = math.sqrt(sys.float_info.epsilon)


def golden_section_minimize(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    xtol: float = 1e-10,
    max_iter: int = 400,
) -> tuple[float, float]:
    """Minimize a unimodal scalar function on [lo, hi] by Brent's method.

    Golden-section steps, replaced by the vertex of the parabola through the
    three best points wherever that step is safe (R. P. Brent, *Algorithms
    for Minimization without Derivatives*, 1973, ch. 5; scipy's ``fminbound``).
    Stops once the bracket lies within 2 tol of the best point x, tol =
    sqrt(eps) |x| + ``xtol`` / 3; returns ``(x, f(x))`` of the best point
    evaluated, with no extra call.
    """
    a, b = float(lo), float(hi)
    if not b > a:
        raise ValueError("empty bracket")
    # x the best point, w the second best, v the previous w
    x = w = v = a + _GOLDEN * (b - a)
    fx = fw = fv = f(x)
    step = last = 0.0  # the step taken and the one before it
    for _ in range(max_iter):
        mid = 0.5 * (a + b)
        tol = _SQRT_EPS * abs(x) + xtol / 3.0
        if abs(x - mid) <= 2.0 * tol - 0.5 * (b - a):
            break
        parabolic = False
        if abs(last) > tol:
            # the parabola through x, w and v has its vertex at x + p / q
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            p = -p if q > 0.0 else p
            q = abs(q)
            # accept a step shorter than half the one before last, inside (a, b)
            parabolic = abs(p) < abs(0.5 * q * last) and q * (a - x) < p < q * (b - x)
            last = step
            if parabolic:
                step = p / q
                if x + step - a < 2.0 * tol or b - (x + step) < 2.0 * tol:
                    step = tol if mid >= x else -tol
        if not parabolic:
            last = (a if x >= mid else b) - x
            step = _GOLDEN * last
        u = x + (step if abs(step) >= tol else (tol if step >= 0.0 else -tol))
        fu = f(u)
        if fu <= fx:
            a, b = (x, b) if u >= x else (a, x)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return x, fx
