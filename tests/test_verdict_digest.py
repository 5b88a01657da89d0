import importlib.util
import math
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "verdict_digest.py"
spec = importlib.util.spec_from_file_location("verdict_digest", SCRIPT)
verdict_digest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(verdict_digest)


def test_drift_counts_status_changes_and_missing_records():
    old = [["0", "inegsqrt", "holds", 1.0], ["0", "inecov", "holds", 0.5], ["1", "inegsqrt", "fails", -1.0]]
    same, moved = verdict_digest.drift_lines("chain", old, [[*rec] for rec in old])
    assert moved == 0 and "status_mismatches=0 max_abs_dmargin=0.000e+00 at=-" in same[0]
    new = [["0", "inegsqrt", "fails", -2e-9], ["1", "inegsqrt", "fails", -1.0]]
    lines, moved = verdict_digest.drift_lines("chain", old, new)
    # one status change, and the inecov record the new run no longer has
    assert moved == 2
    assert lines[-2:] == ["chain inegsqrt 0 holds→fails", "chain inecov 0 holds→-"]


def test_drift_counts_moved_margins():
    old = [["0", "inecovf", "holds", 1.0], ["1", "inecovf", "holds", 0.5], ["2", "inecovf", "unknown", -math.inf]]
    new = [["0", "inecovf", "holds", 0.75], ["1", "inecovf", "holds", 0.5 + 1e-16], ["2", "inecovf", "unknown", -math.inf]]
    old.append(["0", "inecov", "holds", 0.25])
    new.append(["0", "inecov", "holds", 0.25])
    lines, moved = verdict_digest.drift_lines("chain", old, new)
    assert moved == 0
    # the largest move is at seed 0; an ulp counts as a move, equal infinities do not
    assert lines == [
        "drift chain inecov records=1 status_mismatches=0 max_abs_dmargin=0.000e+00 at=- margins_moved=0",
        "drift chain inecovf records=3 status_mismatches=0 max_abs_dmargin=2.500e-01 at=0 margins_moved=2",
    ]


def test_recheck_counts_the_coupling_holds_that_revalidate():
    from families import axis_swap_problem

    from gmcvx import conditions as C

    probs = [axis_swap_problem(5.0, 0.5), axis_swap_problem(6.1, 0.0)]
    pairs = [(prob, verdict_digest.standalone(prob, C.SearchConfig(), 0)) for prob in probs]
    assert [rec["inecov"].holds for _, rec in pairs] == [True, False]
    assert verdict_digest.recheck_lines("demo", pairs) == [
        "recheck demo inecov holds=1 revalidated=1",
        "recheck demo inecovf holds=1 revalidated=1",
    ]
