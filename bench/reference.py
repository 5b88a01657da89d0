"""Full-size reference timings through the benchmark's own ops and checks.

    python3 bench/reference.py

Times, once each, the whole 29,161-cell criterion-2 grid as one
``sweep.run_sweep`` call and the 500 problems of the criterion-6 chain
(the exact problems of the acceptance test, drawn from
``gmcvx.rng.CounterRng(k, stream=73)``, unrotated, checker seed k), in
wall seconds (``seconds``) and raw CPU seconds (``cpu_s``); unlike the
benchmark's runs, these are not brought to the reference speed. Every
output goes through the same checks as the workloads. Writes
``bench/out/reference.json`` and prints it.
"""

from __future__ import annotations

import json
import sys
import time

import run


def main() -> int:
    for var in run.THREAD_VARS:
        run.os.environ[var] = "1"
    run.os.environ.pop("GMCVX_THREADS", None)
    sys.path.insert(0, str(run.ROOT / "src"))

    import numpy as np

    import workloads

    gm = run.Gmcvx()
    out = {"machine": run.machine(), "nproc": run.os.cpu_count(), "python": sys.version.split()[0],
           "numpy": np.__version__, "blas": run.blas_info(np), "git_sha": run.git_sha(),
           "source_digest": run.source_digest()}

    region = workloads.Region()
    region.build(gm, 0)
    spec = region.sweep.SweepSpec(
        region.template, region.sweep.Axis("a", 0.0, 6.0, region.STEP),
        region.sweep.Axis("b", -6.0, 6.0, region.STEP), ("inegsqrt", "inecov"),
    )
    rounds = run.Rounds(region, [spec])
    rounds.run(0.0, 0)
    out["criterion2_grid"] = {"cells": 29161, "seconds": rounds.wall[0], "cpu_s": rounds.latencies[0],
                              "failed": rounds.failed,
                              "errors": rounds.errors, "verdicts": rounds.verdict_counts()}

    chain = workloads.Chain()
    chain.build(gm, 0)
    items = []
    for k in range(500):
        source = gm.rng.CounterRng(k, stream=73)
        member = workloads.chain_family_member(source.uniforms, source.normal_matrix)
        d, n = member["target"].shape[0], len(member["p"])
        items.append(chain.present(gm, member, np.eye(d), np.arange(n), k))
    rounds = run.Rounds(chain, items)
    start = time.perf_counter()
    rounds.run(0.0, 0)
    out["criterion6_chain"] = {"problems": 500, "seconds": sum(rounds.wall), "cpu_s": sum(rounds.latencies),
                               "wall_with_checks_s": time.perf_counter() - start, "failed": rounds.failed,
                               "errors": rounds.errors, "verdicts": rounds.verdict_counts()}

    run.OUT_DIR.mkdir(exist_ok=True)
    (run.OUT_DIR / "reference.json").write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
