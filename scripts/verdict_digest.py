#!/usr/bin/env python3
"""Print SHA-256 digests of two fixed verdict sets, to show a change kept them.

* ``region``: the sweep CSV of the axis-swap family for a in [0, 6],
  b in [-6, 6], step 0.25, all five checkers, under criterion 2's search
  settings and 300-iteration engine cap;
* ``chain``: ``implication_chain_report(...).as_dict()`` for
  ``random_chain_problem(0..99)`` under criterion 6's settings
  (1500-iteration engine cap, 6000 Monte Carlo samples, seed = index),
  serialised as sorted-key JSON.

The search settings are imported from ``tests/test_acceptance.py``; the
engine caps and sample count are the literals its criteria 2 and 6 pass.
Run it on two checkouts and compare the output lines. Takes a few minutes.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from families import axis_swap_problem, random_chain_problem  # noqa: E402
from test_acceptance import LIGHT, MID  # noqa: E402

from gmcvx import conditions as C  # noqa: E402
from gmcvx import psdfeas  # noqa: E402
from gmcvx import sweep as S  # noqa: E402


def region_digest() -> str:
    spec = S.SweepSpec(
        axis_swap_problem, S.Axis("a", 0.0, 6.0, 0.25), S.Axis("b", -6.0, 6.0, 0.25), C.CHECKERS
    )
    cells = S.run_sweep(spec, search_cfg=LIGHT, engine_cfg=psdfeas.EngineConfig(max_iter=300))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "region.csv"
        S.write_region_csv(cells, path)
        return hashlib.sha256(path.read_bytes()).hexdigest()


def chain_digest() -> str:
    engine_cfg = psdfeas.EngineConfig(max_iter=1500)
    reports = [
        C.implication_chain_report(
            random_chain_problem(seed), search_cfg=MID, engine_cfg=engine_cfg, mc_samples=6000, seed=seed
        ).as_dict()
        for seed in range(100)
    ]
    return hashlib.sha256(json.dumps(reports, sort_keys=True).encode("utf-8")).hexdigest()


def main() -> int:
    print(f"region {region_digest()}")
    print(f"chain {chain_digest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
