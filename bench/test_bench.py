"""Tests of the benchmark itself: ``python -m pytest bench/test_bench.py``.

Short runs on shrunken rounds check that every metric is reported with its
unit; tampered outputs check that the correctness checks bite.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def small(monkeypatch):
    """Rounds of a few ops so each workload runs in seconds."""
    monkeypatch.setattr(run, "TAIL_BEYOND", 0)
    monkeypatch.setattr(run, "MIN_ROUNDS", 1)
    monkeypatch.setattr(run, "SETUP_REPEATS", 2)
    monkeypatch.setattr(workloads.Region, "MAKEUP", dict.fromkeys(workloads.Region.MAKEUP, 1))
    monkeypatch.setattr(workloads.Chain, "MEMBERS", 12)
    monkeypatch.setattr(workloads.Cli, "SESSIONS", workloads.Cli.SESSIONS[:2] + workloads.Cli.SESSIONS[4:5])
    monkeypatch.setattr(workloads.Cli, "SAMPLES", 4000)


def result_of(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(argv) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["region", "chain", "cli"])
@pytest.mark.parametrize("trace", [0, 1])
def test_short_run_reports_every_metric(small, workload, trace):
    result = result_of(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in result["metrics"].items()}
    if trace:
        entry = {"region": "sweep.cells", "chain": "conditions.implication_chain_report.self_s",
                 "cli": "cli.main.calls"}[workload]
        assert result["metrics"][entry]["value"] > 0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def tampered_rounds(small_workload: str, tamper) -> run.Rounds:
    workdir = BENCH / "out" / "work-test"
    wl = workloads.make(small_workload, workdir)
    gm, items, *_ = run.setup(wl, 5, workdir)
    original = wl.op
    wl.op = lambda item: tamper(item, original(item))
    rounds = run.Rounds(wl, items)
    rounds.run(0.0, 0)
    return rounds


def test_flipped_verdict_fails_the_op(small):
    def flip(item, cells):
        for cell in cells:
            if cell.checker == "inegsqrt":
                object.__setattr__(cell, "status", "fails" if cell.status == "holds" else "holds")
        return cells

    rounds = tampered_rounds("region", flip)
    assert rounds.failed == len(rounds.items)


def test_corrupted_certificate_fails_the_op(small):
    holding = []

    def corrupt(item, report):
        if report.inecov.holds:
            holding.append(item)
            report.inecov.witness.gamma[0, 0] += 1.0
        return report

    rounds = tampered_rounds("chain", corrupt)
    assert holding and rounds.failed == len(holding)


def test_wrong_exit_code_fails_the_op(small):
    rounds = tampered_rounds("cli", lambda item, out: ((out[0] + 1) % 3,) + out[1:])
    assert rounds.failed == len(rounds.items)


def test_every_traced_function_is_wrapped():
    run.Gmcvx()
    restore, missing = tracing.instrument(tracing.Tracer())
    restore()
    assert missing == []


def test_missing_traced_function_makes_the_run_incorrect(small, monkeypatch):
    monkeypatch.setattr(tracing, "TRACED", tracing.TRACED + [("psdfeas.gone", "psdfeas", "gone", None, None, None)])
    result = result_of(["--workload", "chain", "--seed", "3", "--seconds", "0", "--trace", "1"])
    assert result["correct"] is False and result["failed"] == 0
