"""Compare two sets of benchmark run records.

    python3 bench/compare.py BASE_DIR_OR_FILES... --against NEW_DIR_OR_FILES...

Each side is a list of ``record-*.json`` files written by ``bench/run.py``
(directories are searched for them). For every workload and end-to-end
metric it prints each side's median and quartile spread (as a share of
the median), the change of the medians, and whether the change exceeds the
bound fixed in ``BENCHMARK.json`` in the metric's worse direction. Verdict
counts that differ between records of the same workload and seed are
listed, because a speedup that changes a verdict is not a like-for-like
comparison.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths: list[str]) -> list[dict]:
    records = []
    for name in paths:
        path = Path(name)
        files = sorted(path.glob("record-*-trace0.json")) if path.is_dir() else [path]
        records += [json.loads(f.read_text(encoding="utf-8")) for f in files]
    return [r for r in records if r.get("trace") == 0]


def spread(values: list[float]) -> tuple[float, float]:
    """Median and interquartile range as a share of the median."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / med if med else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", nargs="+")
    parser.add_argument("--against", nargs="+", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    base, new = load(args.base), load(args.against)
    worse = 0
    print(f"{'workload':8} {'metric':12} {'base':>12} {'iqr':>6} {'new':>12} {'iqr':>6} {'change':>8} {'bound':>6}")
    for workload in sorted({r["workload"] for r in base} & {r["workload"] for r in new}):
        b = [r for r in base if r["workload"] == workload]
        n = [r for r in new if r["workload"] == workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            mb, sb = spread([r["metrics"][name] for r in b])
            mn, sn = spread([r["metrics"][name] for r in n])
            change = (mn - mb) / mb if mb else 0.0
            loss = change if metric["better"] == "lower" else -change
            flag = "WORSE" if loss > metric["bound"] else ""
            worse += bool(flag)
            print(f"{workload:8} {name:12} {mb:12.4g} {sb:6.1%} {mn:12.4g} {sn:6.1%} {change:+8.1%} "
                  f"{metric['bound']:6.0%} {flag}")
        by_seed = {r["seed"]: r["verdicts"] for r in b}
        for r in n:
            if r["seed"] in by_seed and by_seed[r["seed"]] != r["verdicts"]:
                print(f"{workload:8} seed {r['seed']}: verdicts {by_seed[r['seed']]} -> {r['verdicts']}")
    print(f"{len(base)} base records, {len(new)} new records, {worse} metrics worse than their bound")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
