"""Two-parameter region maps and boundary thresholds for checker verdicts.

A sweep evaluates selected checkers over a rectangular parameter grid,
one cell after another in row order, and writes the region as
deterministic CSV (``param1,param2,checker,status,margin``, shortest
round-trip floats, LF endings). Every checker goes through
:func:`gmcvx.conditions.run_checker`, so a cell's verdict is exactly the
direct call's; the directional search runs once per cell and is shared
with the coupling checkers. What every cell of a grid shares with its
neighbours (the validated components and what follows from them alone,
the angular grids and the random starts) is computed by the first cell
that needs it and kept for the others, bit for bit
(:func:`gmcvx.matcore.last_value`), so a cell computes what its target
changes. Cells whose template produces a non-PSD target covariance
cannot carry a Gaussian law at all and are reported as
failing with the offending eigenvalue as margin; any other
:class:`~gmcvx.conditions.InvalidProblem` from the template propagates
out of :func:`run_sweep` (``gmcvx sweep`` exits 65).

:func:`boundary_bisect` locates a verdict flip along one scalar parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .conditions import (
    CHECKERS,
    MixtureProblem,
    SearchConfig,
    Status,
    TargetNotPSD,
    check_inegsqrt,
    run_checker,
)


MAX_CELLS = 1_000_000  # grid size bound, checked before any cell is built
_ROUNDING = 1e-9  # steps by which (stop - start) / step may fall short of a whole number


class BracketNotSeparating(RuntimeError):
    """Both bracket ends give the same verdict."""


@dataclass(frozen=True)
class Axis:
    """The values start, start + step, ... up to stop, which is included when
    (stop - start) / step is a whole number to within :data:`_ROUNDING`."""

    name: str
    start: float
    stop: float
    step: float

    def __post_init__(self):
        if not (self.step > 0 and np.isfinite([self.start, self.stop, self.step]).all()):
            raise ValueError("axis needs finite bounds and a positive step")
        if self.stop < self.start:
            raise ValueError(f"axis {self.name!r} has max {self.stop!r} below min {self.start!r}")
        spans = (self.stop - self.start) / self.step
        if not (math.isfinite(spans) and spans < MAX_CELLS):  # so that count() is an int in range
            raise ValueError(f"axis {self.name!r} has more than {MAX_CELLS} values")

    def count(self) -> int:
        return math.floor((self.stop - self.start) / self.step + _ROUNDING) + 1

    def values(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.count())


@dataclass
class SweepSpec:
    """Problem template over two axes plus the checkers to run."""

    template: Callable[[float, float], MixtureProblem]
    axis1: Axis
    axis2: Axis
    checkers: tuple[str, ...] = ("inegsqrt",)
    seed: int = 0

    def __post_init__(self):
        for name in self.checkers:
            if name not in CHECKERS:
                raise ValueError(f"unknown checker {name!r}")
        if self.axis1.count() * self.axis2.count() > MAX_CELLS:
            raise ValueError(f"the grid has more than {MAX_CELLS} cells")


@dataclass(frozen=True)
class RegionCell:
    v1: float
    v2: float
    checker: str
    status: str
    margin: float


def _evaluate_cell(spec: SweepSpec, v1: float, v2: float, search_cfg) -> list[RegionCell]:
    try:
        prob = spec.template(v1, v2)
    except TargetNotPSD as exc:
        # no Gaussian law carries this target covariance: every condition fails
        return [
            RegionCell(v1, v2, name, Status.FAILS.value, float(exc.lmin)) for name in spec.checkers
        ]
    cells = []
    v5 = None
    if any(name in ("inegsqrt", "inecov", "inecovf") for name in spec.checkers):
        v5 = check_inegsqrt(prob, search_cfg)
    for name in spec.checkers:
        verdict = run_checker(name, prob, search_cfg, spec.seed, inegsqrt_verdict=v5)
        cells.append(RegionCell(v1, v2, name, verdict.status.value, float(verdict.margin)))
    return cells


def run_sweep(
    spec: SweepSpec,
    search_cfg: SearchConfig | None = None,
    *,
    engine_cfg=None,  # ignored: kept for callers that still pass it
) -> list[RegionCell]:
    """Evaluate the grid cell by cell, ordered by (row, col)."""
    return [
        cell
        for v1 in spec.axis1.values()
        for v2 in spec.axis2.values()
        for cell in _evaluate_cell(spec, v1, v2, search_cfg)
    ]


def write_region_csv(cells: list[RegionCell], path) -> None:
    """Deterministic CSV: identical spec and seed give identical bytes."""
    lines = ["param1,param2,checker,status,margin"]
    for cell in cells:
        lines.append(
            f"{float(cell.v1)!r},{float(cell.v2)!r},{cell.checker},{cell.status},{float(cell.margin)!r}"
        )
    data = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(data)


def boundary_bisect(
    template: Callable[[float], MixtureProblem],
    checker,
    lo: float,
    hi: float,
    xtol: float = 1e-4,
    seed: int = 0,
    search_cfg: SearchConfig | None = None,
) -> float:
    """Bisect a scalar parameter for the point where a verdict flips.

    ``checker`` is a registered name or a callable mapping a problem to a
    :class:`Verdict`. The caller asserts the verdict is monotone on the
    bracket; ends must disagree (Unknown at an end raises
    :class:`BracketNotSeparating`). The bracket halves until it is at most
    ``xtol`` >= 0 wide or its ends are adjacent floats, with no float between.
    A bracket that is not finite with ``lo < hi`` raises ``ValueError``.
    """
    if not callable(checker) and checker not in CHECKERS:
        raise ValueError(f"unknown checker {checker!r}")
    if not xtol >= 0.0:  # also rejects NaN
        raise ValueError(f"xtol must be nonnegative, got {xtol!r}")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"bracket must be finite with lo < hi, got [{lo!r}, {hi!r}]")

    def status_at(value: float) -> Status:
        prob = template(value)
        if callable(checker):
            return checker(prob).status
        return run_checker(checker, prob, search_cfg, seed).status

    s_lo = status_at(lo)
    s_hi = status_at(hi)
    if s_lo == s_hi or Status.UNKNOWN in (s_lo, s_hi):
        raise BracketNotSeparating(f"verdicts at bracket ends: {s_lo.value}, {s_hi.value}")
    a, b = float(lo), float(hi)
    mid = 0.5 * (a + b)
    while b - a > xtol and a < mid < b:
        if status_at(mid) == s_lo:
            a = mid
        else:
            b = mid
        mid = 0.5 * (a + b)
    return mid
