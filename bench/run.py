"""Benchmark entry point.

    python3 bench/run.py --workload {region,chain,cli} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; gmcvx is imported from ``src/``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``. The line before it is the run record, which is also saved
under ``bench/out/``. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from fresh_setup import Gmcvx

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 7
TAIL_BEYOND = 10  # ops a run has beyond its tail percentile, at the least
MIN_ROUNDS = 3  # so that an item's median latency over the rounds drops an outlier


def setup(workload, seed: int, workdir: Path):
    """Time SETUP_REPEATS set-ups, each in a fresh interpreter; then import
    gmcvx here and build the inputs the timed rounds use.

    Returns the set-up times at the reference speed (see ``speed.py``) and
    the raw ones."""
    import speed  # imports numpy, which must load after main() pins BLAS threads

    times, raw = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "fresh_setup.py"), workload.name, str(seed), str(workdir)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        setup_s, probe_s = (float(x) for x in proc.stdout.split()[-2:])
        raw.append(setup_s)
        times.append(setup_s * speed.REFERENCE_S / probe_s)
    gm = Gmcvx()
    items = workload.build(gm, seed)
    return gm, items, times, raw


class Rounds:
    """Timed whole rounds of a workload with per-op correctness checks.

    An op's raw time is the CPU time the process spends in it. The process
    is single-threaded, so this is its wall time less the time the CPU was
    taken away from it, by other processes or, on a virtual machine, by the
    host (steal time is not charged to the process). A speed probe runs
    before each op, untimed by the op; :meth:`scaled` turns raw times into
    times at the reference speed. Wall times are kept for the run record.
    """

    def __init__(self, workload, items, first: list | None = None):
        self.workload = workload
        self.items = items
        self.latencies: list[float] = []
        self.wall: list[float] = []
        self.probes: list[float] = []
        # verdicts of the first round, which every later round must repeat
        self.first: list = first if first is not None else []
        self.failed = 0
        self.errors: list[str] = []
        self.rounds = 0
        self.bytes_written = 0

    def run(self, seconds: float, min_ops: int, tracer=None) -> None:
        """Whole rounds until ``seconds`` have passed and ``min_ops`` ops ran."""
        import speed

        wl = self.workload
        clock = time.perf_counter
        start = clock()
        first_op = len(self.latencies)
        while len(self.latencies) == first_op or clock() - start < seconds \
                or len(self.latencies) - first_op < min_ops:
            for k, item in enumerate(self.items):
                wl.prepare(item)
                self.probes.append(speed.probe())
                if tracer is not None:
                    tracer.op_id = len(self.latencies)
                t0, c0 = clock(), time.process_time()
                try:
                    out = wl.op(item)
                    err = None
                except Exception as exc:  # an op that raises counts as failed
                    out, err = None, f"{type(exc).__name__}: {exc}"
                self.latencies.append(time.process_time() - c0)
                self.wall.append(clock() - t0)
                errors = [err] if err else wl.check(item, out)
                if err is None and hasattr(wl, "bytes_written"):
                    self.bytes_written += wl.bytes_written(item, out)
                verdicts = wl.verdicts(item, out) if err is None else []
                if len(self.first) <= k:
                    self.first.append(verdicts)
                elif verdicts != self.first[k]:
                    errors.append(f"verdicts {verdicts} differ from the first round's {self.first[k]}")
                if errors:
                    self.failed += 1
                    if len(self.errors) < 20:
                        self.errors.append(f"op {k}: " + "; ".join(errors))
            self.rounds += 1

    def round_time(self) -> float:
        return sum(self.latencies) / self.rounds

    def scaled(self) -> list[float]:
        """Op times at the reference speed (``speed.scale``)."""
        import speed

        return speed.scale(self.latencies, self.probes)

    def verdict_counts(self) -> dict:
        counts: dict = {}
        for verdicts in self.first:
            for checker, status in verdicts:
                counts.setdefault(checker, {}).setdefault(status, 0)
                counts[checker][status] += 1
        return counts


def percentile(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def min_ops(workload, round_ops: int) -> int:
    """Ops a run needs: MIN_ROUNDS rounds, and TAIL_BEYOND ops beyond its
    tail percentile."""
    return max(MIN_ROUNDS * round_ops, math.ceil(TAIL_BEYOND * 100.0 / (100.0 - workload.tail_pct)))


def item_medians(lat: list[float], n: int) -> list[float]:
    """Each op's latency replaced by the median latency of the same item (the
    same op of the round) over the run's rounds."""
    per_item = [statistics.median(lat[k::n]) for k in range(n)]
    return [per_item[i % n] for i in range(len(lat))]


def end_to_end(workload, rounds: Rounds, setup_times: list[float], lat: list[float]) -> dict:
    counts = rounds.verdict_counts()
    decided = sum(
        n for checker in workload.decided_checkers for status, n in counts.get(checker, {}).items()
        if status in ("holds", "fails")
    )
    smooth = item_medians(lat, len(rounds.items))
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": 1000.0 * statistics.median(smooth),
        "op_tail_ms": 1000.0 * percentile(smooth, workload.tail_pct),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "decided": decided,
    }


def per_layer(tracer, traced: Rounds, untraced_round_s: float) -> dict:
    per = traced.rounds
    out = tracer.layer_metrics(per)
    iterations = out.get("psdfeas.solve.iterations", 0.0)
    loop_s = out.get("psdfeas.solve.s", 0.0) - out.get("psdfeas.default_candidates.s", 0.0) \
        - out.get("psdfeas.warm_start_from.s", 0.0)
    out["psdfeas.solve.us_per_iter"] = 1e6 * loop_s / iterations if iterations else 0.0
    out["cli.bytes_written"] = traced.bytes_written / per
    traced_round_s = traced.round_time()
    out["trace.overhead_s"] = traced_round_s - untraced_round_s
    out["trace.overhead_pct"] = 100.0 * (traced_round_s - untraced_round_s) / untraced_round_s
    out["trace.spans"] = len(tracer.span_start) / per
    return out


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gmcvx").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.exists():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.exists():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"node": platform.node(), "arch": platform.machine(), "cpu": cpu, "system": platform.platform()}


def blas_info(np) -> dict:
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        return {k: {"name": v.get("name"), "version": v.get("version")} for k, v in deps.items()}
    except (TypeError, AttributeError):
        return {}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=["region", "chain", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("GMCVX_THREADS", None)
    if not (ROOT / "src" / "gmcvx" / "__init__.py").is_file():
        print(f"error: no gmcvx sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"error: {spec_path} is missing", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))

    t0 = time.perf_counter()
    import numpy as np
    numpy_import_s = time.perf_counter() - t0

    import speed
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT_DIR / f"work-{tag}"
    workload = workloads.make(args.workload, workdir)
    gm, items, setup_times, setup_raw = setup(workload, args.seed, workdir)
    if not Path(gm.conditions.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: gmcvx was imported from {gm.conditions.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.trace:
        import tracing

        # untraced and traced rounds alternate, so that drift in machine
        # speed falls on both sides of the overhead
        untraced = Rounds(workload, items)
        timed = Rounds(workload, items, first=untraced.first)
        tracer = tracing.Tracer()
        start = time.perf_counter()
        while timed.rounds == 0 or time.perf_counter() - start < args.seconds:
            untraced.run(0.0, 0)
            restore, untraced_names = tracing.instrument(tracer)
            try:
                timed.run(0.0, 0, tracer=tracer)
            finally:
                restore()
        layer = per_layer(tracer, timed, untraced.round_time())
        tracer.write(OUT_DIR / f"spans-{tag}.npz")
        attempted = len(untraced.latencies) + len(timed.latencies)
        failed = untraced.failed + timed.failed
        errors = untraced.errors + timed.errors
        raw_values = {}
        if untraced_names:
            # a probe that finds nothing to wrap would read 0, which looks
            # like a gain; the run is not correct until tracing.py follows
            errors.append("traced functions not found: " + ", ".join(untraced_names))
        wanted = spec["per_layer"]
        values = {m["name"]: layer.get(m["name"], 0.0) for m in wanted}
    else:
        timed = Rounds(workload, items)
        timed.run(args.seconds, min_ops(workload, len(items)))
        attempted, failed, errors = len(timed.latencies), timed.failed, timed.errors
        untraced_names = []
        wanted = spec["end_to_end"]
        e2e = end_to_end(workload, timed, setup_times, timed.scaled())
        values = {m["name"]: e2e[m["name"]] for m in wanted}
        raw = end_to_end(workload, timed, setup_raw, timed.latencies)
        raw_values = {name: raw[name] for name in ("setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms")}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "machine": machine(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_info(np),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS + ("GMCVX_THREADS",)},
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "numpy_import_s": numpy_import_s,
        "setup_s_each": setup_times,
        "setup_s_raw_each": setup_raw,
        "ops_per_round": len(items),
        "rounds": timed.rounds,
        "tail_percentile": workload.tail_pct,
        "verdicts": timed.verdict_counts(),
        "errors": errors,
        "untraced_names": untraced_names,
        "metrics": values,
        "raw_metrics": raw_values,
        "op_cpu_s": sum(timed.latencies),
        "op_wall_s": sum(timed.wall),
        "probe_s_median": statistics.median(timed.probes),
    }
    (OUT_DIR / f"record-{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if args.workload == "cli":
        import shutil

        shutil.rmtree(OUT_DIR / f"work-{tag}", ignore_errors=True)
    units = {m["name"]: m["unit"] for m in wanted}
    result = {
        "correct": failed == 0 and not untraced_names,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
