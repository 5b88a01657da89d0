#!/usr/bin/env python3
"""Map checker verdicts for the axis-swap pair family over (a, b).

The mixture has equal weights and component covariances diag(8, 4) and
diag(4, 8); targets are [[a, b], [b, a]]. Writes the region CSV and prints
a coarse ASCII picture plus counts per verdict.
"""

import argparse
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from families import LIGHT, axis_swap_problem
from gmcvx.sweep import Axis, SweepSpec, run_sweep, write_region_csv


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--step", type=float, default=0.1)
    ap.add_argument("--checkers", default="inegsqrt,inecov")
    ap.add_argument("--out", default="region_map.csv")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    spec = SweepSpec(
        axis_swap_problem,
        Axis("a", 0.0, 6.0, args.step),
        Axis("b", -6.0, 6.0, args.step),
        tuple(args.checkers.split(",")),
        seed=args.seed,
    )
    cells = run_sweep(spec, search_cfg=LIGHT)
    write_region_csv(cells, args.out)

    counts = Counter((c.checker, c.status) for c in cells)
    for key in sorted(counts):
        print(f"{key[0]:>10s} {key[1]:>8s}: {counts[key]}")

    first = spec.checkers[0]
    rows = {}
    for c in cells:
        if c.checker == first:
            rows.setdefault(c.v2, {})[c.v1] = c.status
    bs = sorted(rows, reverse=True)[:: max(1, int(0.25 / args.step))]
    a_vals = sorted({c.v1 for c in cells})[:: max(1, int(0.25 / args.step))]
    print(f"\n{first} region ('#' holds, '.' fails, '?' unknown):")
    for b in bs:
        line = "".join(
            {"holds": "#", "fails": ".", "unknown": "?"}[rows[b][a]] for a in a_vals
        )
        print(f"b={b:+5.2f} {line}")
    print(f"\nwrote {len(cells)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
