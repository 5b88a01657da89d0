"""A fixed probe of the machine's speed, timed beside the ops.

A shared virtual machine does not hold its speed: while the host runs
other work on the same core, every op takes up to twice the CPU time, for
seconds or minutes, whatever the program does. The probe is a fixed piece
of work of the same kind as gmcvx's hot loops (small symmetric
eigendecompositions, the ufunc calls around them and interpreted Python),
so it slows down with the ops. Times are scaled by ``REFERENCE_S`` over
the probe time, so that they read as on the reference machine at its full
speed; the raw times stay in the run record. The probe calls no gmcvx
code, so a change to gmcvx moves scaled and raw times alike.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# the unit of speed: about the probe's median CPU time on the reference
# machine of bench/README.md (2-vCPU x86-64 VM, Python 3.11, numpy 2.4, one
# BLAS thread) at its full speed
REFERENCE_S = 1.0e-3

WINDOW = 11  # an op is scaled by the median probe of the WINDOW ops around it

_rng = np.random.default_rng(20241010)
_w = _rng.standard_normal((24, 3, 3))
MATRICES = _w @ _w.transpose(0, 2, 1) + 0.1 * np.eye(3)
SPD4 = np.eye(4) + 0.1 * np.outer(np.arange(4.0), np.arange(4.0))


def probe() -> float:
    """CPU seconds of one pass of the fixed work: small symmetric
    eigenproblems and the ufunc calls around them, then an interpreted
    loop."""
    start = time.process_time()
    acc = 0.0
    for m in MATRICES:
        w, v = np.linalg.eigh(m)
        r = (v * np.maximum(w, 0.0)) @ v.T
        r = 0.5 * (r + r.T)
        acc += float(np.trace(r))
    for _ in range(60):
        acc += float(np.linalg.eigvalsh(SPD4)[0])
    for k in range(4000):
        acc += (k * k % 7) * 1e-9
    elapsed = time.process_time() - start
    if not acc > 0.0:
        raise RuntimeError("speed probe lost its work")
    return elapsed


def probe_median(repeats: int) -> float:
    """Median of ``repeats`` probes, after two untimed warm-up passes."""
    probe()
    probe()
    return statistics.median(probe() for _ in range(repeats))


def scale(times: list[float], probes: list[float]) -> list[float]:
    """``times[i]`` at the reference speed, by the median of the probes
    taken before the WINDOW ops around op ``i``."""
    half = WINDOW // 2
    return [t * REFERENCE_S / statistics.median(probes[max(0, i - half):i + half + 1])
            for i, t in enumerate(times)]
