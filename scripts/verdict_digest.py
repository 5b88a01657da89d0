#!/usr/bin/env python3
"""Print SHA-256 digests of three fixed verdict sets, to show a change kept them.

* ``region``: the sweep CSV of the axis-swap family for a in [0, 6],
  b in [-6, 6], step 0.25, all five checkers, under criterion 2's search
  settings;
* ``chain``: ``implication_chain_report(...).as_dict()`` for
  ``random_chain_problem(0..99)`` under criterion 6's settings
  (6000 Monte Carlo samples, seed = index), serialised as sorted-key JSON;
* ``defaults``: all five checkers, each decided alone (``decide`` with one
  name, as ``gmcvx check`` does) on ``random_chain_problem(0..29)`` with the
  CLI's settings, ``SearchConfig()`` and seed = index, serialised as
  sorted-key JSON. When ``SearchConfig`` still had a seed of its own, this
  set gave it the same value as ``decide``'s, so both digests stayed
  byte-identical when that field was removed.

Each line gives the set's name, the digest of its full record (statuses
and margins) and the digest of its statuses alone. A coupling verdict
holds exactly when its Gamma passes ``validate_gamma_witness`` at
``EPS_ENGINE``, so for the ``defaults`` set and, with ``--boundary``, for
both boundary sets, one ``recheck SET CHECKER holds=H revalidated=K`` line
per coupling checker (inecov, and inecovf re-checked on the pairwise cone)
counts its Holds and how many of them pass; K should equal H. The search
settings of the first two sets are ``LIGHT`` and ``MID`` from
``tests/families.py``, which criteria 2 and 6 of
``tests/test_acceptance.py`` use; the sample count is the literal
criterion 6 passes.
Run it on two checkouts and compare the output lines.

A scale check follows: the ``defaults`` set recomputed with the target
and every component multiplied by 4**-20 and by 4**20. Each ``scale``
line gives the status digest, which should equal the ``defaults`` one,
and ``exact=K/150``, the number of margins equal to the unit-scale margin
times the exact power: 2**k for std-unit margins (``inegsqrt``, and a
coupling verdict refuted by it), 4**k for all others. Takes about 3 s
on a 2-CPU x86-64 virtual machine.

A full digest changes with any margin, however small the change. To see
how large it is, save one checkout's records with ``--dump FILE`` and run
the other with ``--compare FILE``: for each set and checker it prints the
number of records, the status mismatches, the largest |margin change| and
the record it is on (the seed for ``chain`` and ``defaults``, the ``a,b``
cell for ``region``; ``-`` when no margin moved) and ``margins_moved``, the
number of records whose margin changed at all, then one line per status
change, ``set checker record old→new``. With ``--compare`` the script exits
1 when any status changed or a record is missing on either side, else 0::

    python3 scripts/verdict_digest.py --dump before.json        # on the old checkout
    python3 scripts/verdict_digest.py --compare before.json     # on the new one

With ``--boundary`` the script prints the two boundary sets alone, the
problems near the directional boundary where the coupling checks leave
most of their ``unknown`` verdicts: ``boundary`` is
``boundary_problems(0..29, (1e-2, 1e-3))`` from ``tests/families.py``
(three components, 30 bisection steps) and ``boundary-n2`` the same with
``n=2``, all five checkers, each decided alone, with ``SearchConfig()`` and
seed = index. Each set gives its two digests as above, then one line per
ε and checker with the count of each status. ``--dump`` and ``--compare``
work on them as on the other sets, their records keyed ``seed,ε``. Takes
about 15 s on a 2-CPU x86-64 virtual machine.
"""

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from families import LIGHT, MID, axis_swap_problem, boundary_problems, random_chain_problem  # noqa: E402

from gmcvx import conditions as C  # noqa: E402
from gmcvx import matcore  # noqa: E402
from gmcvx import sweep as S  # noqa: E402

BOUNDARY_EPS = (1e-2, 1e-3)


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def json_digests(records: list[dict]) -> tuple[str, str, list]:
    """Digests of ``[{name: {"status", "margin"}}]``, of its statuses alone, and its flat records."""
    statuses = [{name: v["status"] for name, v in rec.items()} for rec in records]
    flat = [[str(i), name, v["status"], v["margin"]] for i, rec in enumerate(records) for name, v in rec.items()]
    return sha(json.dumps(records, sort_keys=True)), sha(json.dumps(statuses, sort_keys=True)), flat


def region_digests() -> tuple[str, str, list]:
    spec = S.SweepSpec(
        axis_swap_problem, S.Axis("a", 0.0, 6.0, 0.25), S.Axis("b", -6.0, 6.0, 0.25), C.CHECKERS
    )
    cells = S.run_sweep(spec, search_cfg=LIGHT)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "region.csv"
        S.write_region_csv(cells, path)
        csv = path.read_bytes().decode("utf-8")
    # the margin is the last CSV column
    statuses = "".join(line.rsplit(",", 1)[0] + "\n" for line in csv.splitlines())
    flat = []
    for line in csv.splitlines()[1:]:
        a, b, checker, status, margin = line.split(",")
        flat.append([f"{a},{b}", checker, status, float(margin)])
    return sha(csv), sha(statuses), flat


def chain_digests() -> tuple[str, str, list]:
    reports = [
        C.implication_chain_report(random_chain_problem(seed), search_cfg=MID, mc_samples=6000, seed=seed).as_dict()
        for seed in range(100)
    ]
    return json_digests(reports)


def standalone(prob: C.MixtureProblem, cfg: C.SearchConfig, seed: int) -> dict:
    """Every checker's verdict on ``prob``, each decided alone."""
    return {name: C.decide(prob, (name,), cfg, seed)[name] for name in C.CHECKERS}


def defaults_verdicts(power: int = 0) -> list[dict]:
    """The ``defaults`` verdicts with the target and components scaled by 4**power."""
    out = []
    for seed in range(30):
        prob = random_chain_problem(seed)
        prob = C.MixtureProblem(p=prob.p, covs=prob.covs * 4.0**power, target=prob.target * 4.0**power)
        out.append(standalone(prob, C.SearchConfig(), seed))
    return out


def boundary_verdicts(n: int) -> tuple[dict, list]:
    """The verdicts of a boundary set of ``n``-component problems: for each ε, one record of every
    checker per seed; and every (problem, record) pair."""
    verdicts = {eps: [] for eps in BOUNDARY_EPS}
    pairs = []
    for seed in range(30):
        for eps, prob in zip(BOUNDARY_EPS, boundary_problems(seed, BOUNDARY_EPS, n=n)):
            verdicts[eps].append(standalone(prob, C.SearchConfig(), seed))
            pairs.append((prob, verdicts[eps][-1]))
    return verdicts, pairs


def boundary_digests(verdicts: dict) -> tuple[str, str, list]:
    """A boundary set's two digests and its flat records, keyed ``seed,ε``."""
    full, status, _ = json_digests([rec for eps in BOUNDARY_EPS for rec in records_of(verdicts[eps])])
    flat = [
        [f"{seed},{eps:g}", name, v.status.value, float(v.margin)]
        for eps in BOUNDARY_EPS
        for seed, rec in enumerate(verdicts[eps])
        for name, v in rec.items()
    ]
    return full, status, flat


def boundary_counts(set_name: str, verdicts: dict) -> list[str]:
    """One line per ε and checker with the count of each status."""
    lines = []
    for eps, recs in verdicts.items():
        for name in C.CHECKERS:
            counts = {s.value: sum(rec[name].status is s for rec in recs) for s in C.Status}
            lines.append(f"{set_name} eps={eps:g} {name} " + " ".join(f"{k}={n}" for k, n in counts.items() if n))
    return lines


def recheck_lines(set_name: str, pairs: list) -> list[str]:
    """One line per coupling checker of the (problem, record) ``pairs``: its Holds, and how many of
    their Gammas pass ``validate_gamma_witness`` at ``EPS_ENGINE`` (pairwise for inecovf)."""
    lines = []
    for name, pairwise in (("inecov", False), ("inecovf", True)):
        holds = [(prob, rec[name].witness) for prob, rec in pairs if rec[name].holds]
        ok = sum(C.validate_gamma_witness(prob, w, matcore.EPS_ENGINE, pairwise=pairwise)["ok"] for prob, w in holds)
        lines.append(f"recheck {set_name} {name} holds={len(holds)} revalidated={ok}")
    return lines


def records_of(verdicts: list[dict]) -> list[dict]:
    return [
        {name: {"status": v.status.value, "margin": float(v.margin)} for name, v in rec.items()} for rec in verdicts
    ]


def scale_line(power: int, unit: list[dict]) -> str:
    """Status digest of the ``defaults`` set at scale 4**power and how many margins scaled exactly."""
    verdicts = defaults_verdicts(power)
    exact = total = 0
    for rec, rec_unit in zip(verdicts, unit):
        for name, v in rec.items():
            std_unit = name == "inegsqrt" or v.diagnostics.get("refuted_by") == "inegsqrt"
            exact += v.margin == rec_unit[name].margin * (2.0 if std_unit else 4.0) ** power
            total += 1
    _, status, _ = json_digests(records_of(verdicts))
    return f"scale 4**{power} {status} exact={exact}/{total}"


def drift_lines(name: str, old: list, new: list) -> tuple[list[str], int]:
    """Per checker: records, status mismatches and the largest |margin change| of ``new`` against ``old``,
    with its key, and the number of records whose margin moved at all; then one ``set checker record old→new``
    line per status change (``-`` for a missing record). Returns the lines and the number of status changes."""
    before = {(key, checker): (status, margin) for key, checker, status, margin in old}
    stats: dict[str, list] = {}
    changes = []
    for key, checker, status, margin in new:
        row = stats.setdefault(checker, [0, 0, 0.0, "-", 0])
        row[0] += 1
        old_status, old_margin = before.pop((key, checker), ("-", margin))
        if old_status != status:
            row[1] += 1
            changes.append(f"{name} {checker} {key} {old_status}→{status}")
        moved = old_margin != margin  # equal infinities differ by nothing
        row[4] += moved
        change = abs(margin - old_margin) if moved else 0.0
        if change > row[2]:
            row[2:4] = change, key
    for (key, checker), (status, _) in before.items():  # records the new run no longer has
        stats.setdefault(checker, [0, 0, 0.0, "-", 0])[1] += 1
        changes.append(f"{name} {checker} {key} {status}→-")
    return [
        f"drift {name} {checker} records={n} status_mismatches={bad} max_abs_dmargin={worst:.3e} at={where}"
        f" margins_moved={moved}"
        for checker, (n, bad, worst, where, moved) in sorted(stats.items())
    ] + changes, len(changes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--dump", metavar="FILE", help="write every (key, checker, status, margin) as JSON")
    parser.add_argument("--compare", metavar="FILE", help="report drift against a file written by --dump")
    parser.add_argument("--boundary", action="store_true", help="print the boundary set alone")
    args = parser.parse_args(argv)
    saved = json.loads(Path(args.compare).read_text()) if args.compare else {}
    dump = {}
    status_changes = 0
    if args.boundary:
        boundary = {"boundary": boundary_verdicts(3), "boundary-n2": boundary_verdicts(2)}
        sets = {name: lambda v=v: boundary_digests(v) for name, (v, _) in boundary.items()}
    else:
        unit = defaults_verdicts()
        sets = {"region": region_digests, "chain": chain_digests, "defaults": lambda: json_digests(records_of(unit))}
    for name, digests in sets.items():
        full, status, records = digests()
        print(name, full, status, flush=True)
        dump[name] = records
        if name in saved:
            lines, changes = drift_lines(name, saved[name], records)
            status_changes += changes
            print("\n".join(lines), flush=True)
    if args.boundary:
        for name, (verdicts, pairs) in boundary.items():
            print("\n".join(boundary_counts(name, verdicts) + recheck_lines(name, pairs)), flush=True)
    else:
        print("\n".join(recheck_lines("defaults", list(zip(map(random_chain_problem, range(30)), unit)))), flush=True)
        for power in (-20, 20):
            print(scale_line(power, unit), flush=True)
    if args.dump:
        Path(args.dump).write_text(json.dumps(dump))
    return 1 if status_changes else 0


if __name__ == "__main__":
    sys.exit(main())
