import math

import numpy as np
import pytest

import families as fam
from families import LIGHT
from gmcvx import conditions as C
from gmcvx import psdfeas
from gmcvx import sweep as S


def test_axis_values_inclusive():
    ax = S.Axis("a", 0.0, 1.0, 0.25)
    assert np.allclose(ax.values(), [0.0, 0.25, 0.5, 0.75, 1.0])


def test_axis_rejects_bad_step():
    with pytest.raises(ValueError):
        S.Axis("a", 0.0, 1.0, -0.1)


def test_axis_ends_at_or_below_max():
    # a span of 3.6 steps gives four values, not a fifth at 0.4 beyond max
    assert np.array_equal(S.Axis("a", 0.0, 0.36, 0.1).values(), 0.1 * np.arange(4))
    for stop in (0.3, 0.349, 0.35, 0.36, 0.399):
        assert S.Axis("a", 0.0, stop, 0.1).values()[-1] <= stop + 1e-12
    assert S.Axis("a", 0.0, 0.4, 0.1).count() == 5  # a whole span keeps max
    assert S.Axis("a", 1.0, 1.0, 0.1).count() == 1


def test_axis_rejects_max_below_min():
    with pytest.raises(ValueError, match="below min"):
        S.Axis("a", 1.0, 0.5, 0.1)


def test_grid_counts_unchanged():
    # criterion 2's grid, the grid of scripts/verdict_digest.py and every
    # 3 x 3 tile of the region benchmark, whose spans fall just short of or
    # just past a whole number of steps
    assert (S.Axis("a", 0.0, 6.0, 0.05).count(), S.Axis("b", -6.0, 6.0, 0.05).count()) == (121, 241)
    assert (S.Axis("a", 0.0, 6.0, 0.25).count(), S.Axis("b", -6.0, 6.0, 0.25).count()) == (25, 49)
    step = 0.05
    last = 2 * step
    for a0 in np.arange(121 - 2) * step:
        assert S.Axis("a", a0, a0 + last, step).count() == 3
    for b0 in -6.0 + np.arange(241 - 2) * step:
        assert S.Axis("b", b0, b0 + last, step).count() == 3


def test_single_cell_sweep_matches_direct_call():
    spec = S.SweepSpec(
        fam.axis_swap_problem,
        S.Axis("a", 5.0, 5.0, 1.0),
        S.Axis("b", 0.5, 0.5, 1.0),
        ("inegsqrt",),
    )
    cells = S.run_sweep(spec, search_cfg=LIGHT)
    assert len(cells) == 1
    direct = C.check_inegsqrt(fam.axis_swap_problem(5.0, 0.5), LIGHT)
    assert cells[0].status == direct.status.value
    assert cells[0].margin == pytest.approx(direct.margin, abs=1e-9)


def test_non_psd_target_cells_fail():
    spec = S.SweepSpec(
        fam.axis_swap_problem,
        S.Axis("a", 0.5, 0.5, 1.0),
        S.Axis("b", 2.0, 2.0, 1.0),
        ("inegsqrt", "inecov"),
    )
    cells = S.run_sweep(spec, search_cfg=LIGHT)
    assert all(c.status == "fails" for c in cells)
    assert all(c.margin < 0 for c in cells)


def test_rows_ordered_and_deterministic(tmp_path):
    spec = S.SweepSpec(
        fam.axis_swap_problem,
        S.Axis("a", 4.0, 5.0, 0.5),
        S.Axis("b", -0.5, 0.5, 0.5),
        ("inegsqrt", "inecov"),
        seed=3,
    )
    cells = S.run_sweep(spec, search_cfg=LIGHT)
    keys = [(c.v1, c.v2) for c in cells]
    assert keys == sorted(keys, key=lambda t: (t[0], t[1]))

    p1 = tmp_path / "one.csv"
    p2 = tmp_path / "two.csv"
    S.write_region_csv(cells, p1)
    S.write_region_csv(S.run_sweep(spec, search_cfg=LIGHT), p2)
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header == "param1,param2,checker,status,margin"


def test_sweep_cells_equal_direct_checker_calls():
    # a = 0.5, b = 2 is a non-PSD target; the rest straddle the region boundary
    spec = S.SweepSpec(
        fam.axis_swap_problem,
        S.Axis("a", 0.5, 5.5, 2.5),
        S.Axis("b", -1.0, 2.0, 1.5),
        C.CHECKERS,
        seed=2,
    )
    cells = S.run_sweep(spec, search_cfg=LIGHT)
    assert len(cells) == 3 * 3 * len(C.CHECKERS)
    assert any(c.v1 == 0.5 and c.v2 == 2.0 for c in cells)
    for cell in cells:
        try:
            prob = fam.axis_swap_problem(cell.v1, cell.v2)
        except C.InvalidProblem as exc:
            assert (cell.status, cell.margin) == ("fails", exc.lmin)
            continue
        verdict = C.decide(prob, (cell.checker,), LIGHT, spec.seed)[cell.checker]
        assert (cell.status, cell.margin) == (verdict.status.value, float(verdict.margin))
        named = {
            "inegsqrt": lambda: C.check_inegsqrt(prob, LIGHT),
            "inecov": lambda: C.check_inecov(prob, LIGHT, seed=spec.seed),
            "inecovf": lambda: C.check_inecovf(prob, LIGHT, seed=spec.seed),
            "correl": lambda: C.find_correl_certificate(prob, seed=spec.seed),
            "dominates": lambda: C.check_dominated_by_single(prob),
        }[cell.checker]()
        assert (named.status, named.margin) == (verdict.status, verdict.margin)


def test_cell_repeating_a_checker_writes_one_row_per_entry_and_solves_once(monkeypatch):
    # n = 2: inecov and inecovf are one pairwise coupling program, decided once per cell
    solves = []
    solve = psdfeas.solve
    monkeypatch.setattr(psdfeas, "solve", lambda task, candidates=(): solves.append(task.cone) or solve(task, candidates))
    spec = S.SweepSpec(
        fam.axis_swap_problem, S.Axis("a", 5.0, 5.5, 0.5), S.Axis("b", 0.5, 0.5, 1.0), ("inecov", "inecovf", "inecov")
    )
    cells = S.run_sweep(spec, search_cfg=LIGHT)
    assert [cell.checker for cell in cells] == ["inecov", "inecovf", "inecov"] * 2
    assert solves == [psdfeas.PAIRWISE] * 2
    for first, second, third in zip(cells[::3], cells[1::3], cells[2::3]):
        assert (first.status, first.margin) == (second.status, second.margin) == (third.status, third.margin)


def test_holds_interval_contiguous_in_b():
    a = 4.5
    spec = S.SweepSpec(
        fam.axis_swap_problem,
        S.Axis("a", a, a, 1.0),
        S.Axis("b", -3.0, 3.0, 0.1),
        ("inegsqrt",),
    )
    cells = S.run_sweep(spec, search_cfg=LIGHT)
    flags = [c.status == "holds" for c in cells]
    first = flags.index(True)
    last = len(flags) - 1 - flags[::-1].index(True)
    assert all(flags[first : last + 1])
    # symmetric around b = 0
    assert flags == flags[::-1]


def test_three_diag_family_pairwise_region():
    x_lo = 2.0 ** 1.25 / (1.0 + math.sqrt(2.0))
    spec = S.SweepSpec(
        lambda a, x: fam.three_diag_problem(fam.three_diag_target(a, x)),
        S.Axis("a", 17.0 / 3.0, 3.0 + 2.0 * math.sqrt(2.0), (3.0 + 2.0 * math.sqrt(2.0) - 17.0 / 3.0) / 4.0),
        S.Axis("x", x_lo, 1.0, (1.0 - x_lo) / 3.0),
        ("inecovf",),
    )
    cells = S.run_sweep(spec)
    assert all(c.status == "holds" for c in cells), [
        (c.v1, c.v2, c.status) for c in cells if c.status != "holds"
    ]


def test_boundary_bisect_directional_threshold():
    a_star = S.boundary_bisect(
        lambda a: fam.axis_swap_problem(a, 0.0), "inegsqrt", 5.5, 6.1, xtol=1e-5,
        search_cfg=LIGHT,
    )
    assert a_star == pytest.approx(3.0 + 2.0 * math.sqrt(2.0), abs=1e-3)


def test_boundary_bisect_scalar_family():
    def scalar(sig):
        return C.MixtureProblem(
            p=[0.3, 0.7], covs=np.array([[[1.0]], [[4.0]]]), target=np.array([[sig**2]])
        )

    expected = 0.3 * 1.0 + 0.7 * 2.0
    thr = S.boundary_bisect(scalar, "inegsqrt", 1.0, 2.5, xtol=1e-7)
    assert thr == pytest.approx(expected, abs=1e-6)


def test_boundary_bisect_requires_separation():
    with pytest.raises(S.BracketNotSeparating):
        S.boundary_bisect(
            lambda a: fam.axis_swap_problem(a, 0.0), "inegsqrt", 1.0, 2.0, search_cfg=LIGHT
        )


def test_boundary_bisect_callable_checker():
    thr = S.boundary_bisect(
        lambda s: fam.three_diag_problem(np.diag([s, s])),
        lambda prob: C.check_correl_with(prob, np.eye(2)),
        10.0,
        13.0,
        xtol=1e-5,
    )
    assert thr == pytest.approx(6.0 + 4.0 * math.sqrt(2.0), abs=1e-3)


@pytest.mark.parametrize("xtol", [0.0, 1e-17])
def test_boundary_bisect_ends_at_adjacent_floats(xtol):
    flip = 5.0 + 1.0 / 3.0
    calls = []

    def checker(value):
        calls.append(value)
        assert len(calls) <= 60  # the midpoint of adjacent floats is one of them: stop there
        return C.Verdict(C.Status.HOLDS if value < flip else C.Status.FAILS, 0.0)

    thr = S.boundary_bisect(lambda value: value, checker, 5.0, 6.0, xtol=xtol)
    assert abs(thr - flip) <= np.spacing(thr)


@pytest.mark.parametrize("xtol", [-1e-6, math.nan])
def test_boundary_bisect_rejects_a_negative_or_nan_xtol(xtol):
    calls = []
    with pytest.raises(ValueError, match="xtol"):
        S.boundary_bisect(lambda value: value, lambda v: calls.append(v), 5.0, 6.0, xtol=xtol)
    assert calls == []  # rejected before the checker runs


@pytest.mark.parametrize("lo, hi", [(6.0, 5.0), (5.0, 5.0), (math.nan, 6.0), (5.0, math.inf), (-math.inf, math.inf)])
def test_boundary_bisect_rejects_a_reversed_empty_or_unbounded_bracket(lo, hi):
    calls = []

    def checker(value):
        calls.append(value)
        return C.Verdict(C.Status.HOLDS if value < 5.3 else C.Status.FAILS, 0.0)

    with pytest.raises(ValueError, match="bracket"):
        S.boundary_bisect(lambda value: value, checker, lo, hi)
    assert calls == []  # rejected before the checker runs
