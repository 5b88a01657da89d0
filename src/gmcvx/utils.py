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
