"""The benchmark's workloads still run against the package.

``bench/test_bench.py`` lies outside the test paths, so a change to a call
the benchmark makes (``EngineConfig(max_iter=...)``,
``SearchConfig(alpha_points=...)``, ``run_sweep(engine_cfg=...)``,
``implication_chain_report(engine_cfg=...)``, a CLI option) would go
unseen until the benchmark runs. Here ``bench/fresh_setup.py`` and
``bench/workloads.py`` are loaded from the files as they are, and the first
op of each workload must pass the workload's own check.
"""

import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["region", "chain", "cli"])
def test_first_op_passes_its_check(monkeypatch, tmp_path, name):
    monkeypatch.syspath_prepend(str(BENCH))  # workloads.py imports the benchmark's oracle.py
    workload = load("workloads").make(name, tmp_path / "work")
    items = workload.build(load("fresh_setup").Gmcvx(), 3)
    workload.prepare(items[0])
    assert workload.check(items[0], workload.op(items[0])) == []
