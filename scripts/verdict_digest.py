#!/usr/bin/env python3
"""Print SHA-256 digests of three fixed verdict sets, to show a change kept them.

* ``region``: the sweep CSV of the axis-swap family for a in [0, 6],
  b in [-6, 6], step 0.25, all five checkers, under criterion 2's search
  settings and 300-iteration engine cap;
* ``chain``: ``implication_chain_report(...).as_dict()`` for
  ``random_chain_problem(0..99)`` under criterion 6's settings
  (1500-iteration engine cap, 6000 Monte Carlo samples, seed = index),
  serialised as sorted-key JSON;
* ``defaults``: all five checkers through ``run_checker`` on
  ``random_chain_problem(0..29)`` with the CLI's settings,
  ``SearchConfig(seed=s)`` and ``EngineConfig()`` (seed s = index),
  serialised as sorted-key JSON.

Each line gives the set's name, the digest of its full record (statuses
and margins) and the digest of its statuses alone. The search settings of
the first two sets are imported from ``tests/test_acceptance.py``; the
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


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def json_digests(records: list[dict]) -> tuple[str, str]:
    """Digests of ``[{name: {"status", "margin"}}]`` and of its statuses alone."""
    statuses = [{name: v["status"] for name, v in rec.items()} for rec in records]
    return sha(json.dumps(records, sort_keys=True)), sha(json.dumps(statuses, sort_keys=True))


def region_digests() -> tuple[str, str]:
    spec = S.SweepSpec(
        axis_swap_problem, S.Axis("a", 0.0, 6.0, 0.25), S.Axis("b", -6.0, 6.0, 0.25), C.CHECKERS
    )
    cells = S.run_sweep(spec, search_cfg=LIGHT, engine_cfg=psdfeas.EngineConfig(max_iter=300))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "region.csv"
        S.write_region_csv(cells, path)
        csv = path.read_bytes().decode("utf-8")
    # the margin is the last CSV column
    statuses = "".join(line.rsplit(",", 1)[0] + "\n" for line in csv.splitlines())
    return sha(csv), sha(statuses)


def chain_digests() -> tuple[str, str]:
    engine_cfg = psdfeas.EngineConfig(max_iter=1500)
    reports = [
        C.implication_chain_report(
            random_chain_problem(seed), search_cfg=MID, engine_cfg=engine_cfg, mc_samples=6000, seed=seed
        ).as_dict()
        for seed in range(100)
    ]
    return json_digests(reports)


def defaults_digests() -> tuple[str, str]:
    records = []
    for seed in range(30):
        prob = random_chain_problem(seed)
        verdicts = {
            name: C.run_checker(name, prob, C.SearchConfig(seed=seed), psdfeas.EngineConfig(), seed)
            for name in C.CHECKERS
        }
        records.append({name: {"status": v.status.value, "margin": float(v.margin)} for name, v in verdicts.items()})
    return json_digests(records)


def main() -> int:
    for name, digests in (("region", region_digests), ("chain", chain_digests), ("defaults", defaults_digests)):
        print(name, *digests(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
