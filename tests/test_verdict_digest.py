import importlib.util
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
