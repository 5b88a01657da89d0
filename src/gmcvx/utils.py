"""Small shared helpers: scalar minimization."""

from __future__ import annotations

import math
from typing import Callable

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_minimize(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    xtol: float = 1e-10,
    max_iter: int = 400,
) -> tuple[float, float]:
    """Minimize a unimodal scalar function on [lo, hi].

    Returns ``(x, f(x))`` at the final bracket midpoint. Derivative free,
    linear convergence; ``xtol`` is an absolute bracket width.
    """
    a, b = float(lo), float(hi)
    if not b > a:
        raise ValueError("empty bracket")
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if b - a <= xtol:
            break
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def refine_minimizer_by_slope(
    f: Callable[[float], float],
    x0: float,
    span: float = 1e-5,
    fd_step: float = 1e-5,
    xtol: float = 1e-12,
    max_widen: int = 60,
) -> float:
    """Polish a smooth scalar minimizer past the value-flatness limit.

    Golden section is limited to about sqrt(eps) accuracy because function
    values flatten near the optimum; bisecting the sign of a central
    difference recovers the extra digits. ``x0`` must be close to the
    minimizer; the bracket is widened until the slope changes sign.
    """

    def slope(x: float) -> float:
        return f(x + fd_step) - f(x - fd_step)

    a, b = x0 - span, x0 + span
    sa, sb = slope(a), slope(b)
    widen = 0
    while sa * sb > 0 and widen < max_widen:
        a -= span
        b += span
        span *= 2.0
        sa, sb = slope(a), slope(b)
        widen += 1
    if sa * sb > 0:
        return x0
    while b - a > xtol:
        mid = 0.5 * (a + b)
        sm = slope(mid)
        if sm == 0.0:
            return mid
        if sa * sm < 0:
            b = mid
        else:
            a, sa = mid, sm
    return 0.5 * (a + b)

