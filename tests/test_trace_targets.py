"""Every function the benchmark's tracer wraps still exists.

``bench/run.py --trace 1`` replaces each target of ``TRACED`` in
``bench/tracing.py``; a rename in gmcvx would leave a probe pointing at
nothing. The table is loaded from the file as it is, without changes.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def traced_table() -> list:
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("entry", traced_table(), ids=lambda entry: entry[0])
def test_trace_target_resolves(entry):
    _, module, attr, method, _, _ = entry
    target = getattr(importlib.import_module(f"gmcvx.{module}"), attr)
    if method is not None:
        target = getattr(target, method)
    assert callable(target)
