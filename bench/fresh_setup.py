"""One set-up of a workload in a fresh interpreter.

    python3 bench/fresh_setup.py WORKLOAD SEED WORKDIR

Prints the CPU seconds it takes to import gmcvx and to build the
workload's inputs from SEED (CPU time, as for the ops in ``run.py``), and
then the median time of the speed probe of ``speed.py`` in the same
interpreter, by which ``run.py`` scales the set-up time.
Before the clock starts only Python's own start-up modules and numpy are
loaded, so the time covers every module gmcvx pulls in beyond those
(``argparse``, ``hashlib``, ``dataclasses``, ``json``, ``logging`` and so
on). The benchmark's own modules and its seed-independent tables are
loaded between the import and the build, off the clock.
``run.py`` takes ``setup_s`` as the median of several of these.
"""

import importlib
import os
import sys
import time

PROBES = 31
MODULES = ("gmcvx", "gmcvx.conditions", "gmcvx.psdfeas", "gmcvx.sweep", "gmcvx.cli", "gmcvx.coupling",
           "gmcvx.cxverify", "gmcvx.matcore", "gmcvx.rng", "gmcvx.utils")


class Gmcvx:
    """The imported package modules, by short name."""

    def __init__(self):
        for name in MODULES:
            setattr(self, name.rpartition(".")[2], importlib.import_module(name))


def main(argv) -> int:
    name, seed, workdir = argv[0], int(argv[1]), argv[2]
    bench = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(bench), "src"))
    import numpy  # noqa: F401  # imported before the clock, as in run.py

    start = time.process_time()
    gm = Gmcvx()
    import_s = time.process_time() - start

    import workloads

    workload = workloads.make(name, workloads.Path(workdir))
    if name == "region":
        workload.origins()
    start = time.process_time()
    workload.build(gm, seed)
    build_s = time.process_time() - start
    import speed

    print(import_s + build_s, speed.probe_median(PROBES))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
