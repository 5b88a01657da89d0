"""The three benchmark workloads: inputs from a seed, the timed op, its checks.

Each workload builds one round of ops from the seed in :meth:`build`; the
harness times :meth:`op` on every item of the round, repeats whole rounds,
and hands every output to :meth:`check`, which compares it with
:mod:`oracle` or with a property the method must have. :meth:`verdicts`
lists the ``(checker, status)`` pairs an output carries.

Ops look their entry point up on the module at call time, because a traced
run replaces module attributes with wrappers.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

import oracle

# ---------------------------------------------------------------------------
# region: tiles of the criterion-2 axis-swap grid
# ---------------------------------------------------------------------------


class Region:
    """One op is one ``sweep.run_sweep`` call on a 3 x 3 tile of the grid
    a in [0, 6], b in [-6, 6], step 0.05 (121 x 241 = 29,161 cells).

    Cell costs are far from uniform: where a < |b| the target is not PSD
    and a cell fails at once, cells outside the analytic region cost about
    half of those inside it, and each kind covers about a quarter to a half
    of the grid. Tiles placed in proportion to area would put the median op
    on a cusp between kinds, and it would jump between seeds. So a round
    has a fixed make-up by tile kind (:data:`MAKEUP`), weighted toward the
    inside of the region, which takes most of the time of a full map: with
    at least twice as many inside tiles as others, the median op lands
    where inside tiles' costs are flat, above their cheapest quarter.
    Within each kind the possible origins, in (a, b) order, are cut into
    that many equal groups and the seed places one tile uniformly in each,
    so every round spans the grid.
    """

    name = "region"
    # tile costs are flat, so the tail is the spread of the dearest tiles;
    # the 90th percentile has five of a round's 50 beyond it, the 95th two
    tail_pct = 90.0
    decided_checkers = ("inegsqrt", "inecov")
    STEP = 0.05
    A_CELLS, B_CELLS = 121, 241
    TILE = 3
    # tiles wholly inside the region, wholly outside it with a PSD target,
    # across its boundary, across the line a = |b|, wholly in a < |b|
    MAKEUP = {"inside": 38, "outside": 5, "boundary": 3, "diagonal": 2, "non_psd": 2}

    def build(self, gm, seed: int) -> list:
        rng = np.random.default_rng([seed, 2])
        self.search = gm.conditions.SearchConfig(
            iters=30, random_starts=8, grid_points=360, alpha_points=120, ascent_iters=0
        )
        self.engine = gm.psdfeas.EngineConfig(max_iter=300)
        self.sweep = gm.sweep
        covs = np.stack([np.diag([8.0, 4.0]), np.diag([4.0, 8.0])])
        mixture = gm.conditions.MixtureProblem

        def template(a: float, b: float):
            return mixture(p=[0.5, 0.5], covs=covs, target=np.array([[a, b], [b, a]]))

        self.template = template
        items = []
        last = (self.TILE - 1) * self.STEP
        origins = self.origins()
        for kind, count in self.MAKEUP.items():
            for group in np.array_split(origins[kind], count):
                ia, ib = group[int(rng.integers(len(group)))]
                a0, b0 = ia * self.STEP, -6.0 + ib * self.STEP
                items.append(
                    self.sweep.SweepSpec(
                        template,
                        self.sweep.Axis("a", a0, a0 + last, self.STEP),
                        self.sweep.Axis("b", b0, b0 + last, self.STEP),
                        ("inegsqrt", "inecov"),
                    )
                )
        return items

    @classmethod
    @functools.cache
    def origins(cls) -> dict:
        """Tile origins (a index, b index) by kind, in (a, b) order.

        The table does not depend on the seed; it is built once per process
        so that ``setup_s`` times gmcvx rather than the benchmark.
        """
        a = np.arange(cls.A_CELLS) * cls.STEP
        b = -6.0 + np.arange(cls.B_CELLS) * cls.STEP
        # cell classes: 0 target not PSD, 1 outside the region, 2 inside
        psd = np.abs(b)[None, :] <= a[:, None] + 1e-9
        inside = np.array([[oracle.axis_swap_holds(x, y) for y in b] for x in a])
        cls_ = np.where(psd, np.where(inside, 2, 1), 0)
        t = cls.TILE
        ia, ib = np.meshgrid(np.arange(cls.A_CELLS - t + 1), np.arange(cls.B_CELLS - t + 1), indexing="ij")
        windows = np.stack([cls_[ia + di, ib + dj] for di in range(t) for dj in range(t)])
        lo, hi = windows.min(axis=0).ravel(), windows.max(axis=0).ravel()
        both = np.column_stack([ia.ravel(), ib.ravel()])
        return {
            "inside": both[lo == 2],
            "outside": both[(lo == 1) & (hi == 1)],
            "boundary": both[(lo == 1) & (hi == 2)],
            "diagonal": both[(lo == 0) & (hi > 0)],
            "non_psd": both[hi == 0],
        }

    def prepare(self, item) -> None:
        pass

    def op(self, item):
        return self.sweep.run_sweep(item, search_cfg=self.search, engine_cfg=self.engine)

    def verdicts(self, item, out) -> list:
        return [(cell.checker, cell.status) for cell in out]

    def check(self, item, out) -> list[str]:
        table: dict = {}
        for cell in out:
            table.setdefault((cell.v1, cell.v2), {})[cell.checker] = cell
        errors = []
        cells = len(item.axis1.values()) * len(item.axis2.values())
        if len(table) != cells or any(len(row) != 2 for row in table.values()):
            return [f"tile returned {len(out)} results for {len(table)} cells"]
        h = self.STEP
        for (a, b), row in table.items():
            g, c = row["inegsqrt"], row["inecov"]
            where = f"cell a={a:.2f} b={b:.2f}"
            if a < abs(b) - 1e-9:
                for cell in (g, c):
                    if cell.status != "fails" or abs(cell.margin - (a - abs(b))) > 1e-9 * (1.0 + abs(a) + abs(b)):
                        errors.append(f"{where}: {cell.checker} gave {cell.status} {cell.margin!r} for a non-PSD target")
                continue
            expected = oracle.axis_swap_holds(a, b)
            one_side = all(
                oracle.axis_swap_holds(a + da, b + db) == expected for da in (-h, 0.0, h) for db in (-h, 0.0, h)
            )
            if one_side and (g.status == "holds") != expected:
                errors.append(f"{where}: inegsqrt {g.status}, analytic region says {expected}")
            if expected and g.margin > 0.02 and c.status != "holds":
                errors.append(f"{where}: inecov {c.status} inside the region (inegsqrt margin {g.margin:.3g})")
            if c.status == "holds" and g.status != "holds":
                errors.append(f"{where}: inecov holds but inegsqrt {g.status}")
        return errors


# ---------------------------------------------------------------------------
# chain: the criterion-6 problem family through the implication chain
# ---------------------------------------------------------------------------


def chain_family_member(uniforms, normal_matrix) -> dict:
    """One problem of the criterion-6 family from a stream of uniforms and
    normals: d in {1, 2, 3}, n in {2, 3}, some rank-deficient components and
    four target modes (0: shrunk anchor, 1: anchor plus a small PSD term,
    2: inflated anchor, 3: at least six times the anchor plus a multiple of
    I), where the anchor is sum_i p_i^2 S_i."""

    def random_psd(d: int, rank: int) -> np.ndarray:
        w = normal_matrix(d, max(rank, 1))
        mat = w @ w.T
        return 0.5 * (mat + mat.T)

    u = uniforms(6)
    d = 1 + int(u[0] * 3)
    n = 2 + int(u[1] * 2)
    raw = uniforms(n) + 0.15
    p = raw / raw.sum()
    covs = np.stack([random_psd(d, d if u[2] < 0.6 or i == 0 else max(1, d - 1)) for i in range(n)])
    anchor = np.einsum("i,ikl->kl", p**2, covs)
    mode = 0 if u[4] < 0.35 else 1 if u[4] < 0.6 else 2 if u[4] < 0.8 else 3
    if mode == 0:
        target = (0.2 + 0.7 * u[5]) * anchor
    elif mode == 1:
        target = anchor + random_psd(d, d) * 0.05
    elif mode == 2:
        target = anchor * (1.0 + 2.0 * u[5])
    else:
        target = (6.0 + 94.0 * u[5]) * anchor + np.eye(d) * covs[0].max()
    return {"p": p, "covs": covs, "target": 0.5 * (target + target.T), "mode": mode}


def haar_orthogonal(rng: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


class Chain:
    """One op is one ``conditions.implication_chain_report`` call with the
    criterion-6 settings on one of the first 100 members of the family.

    The members are fixed; the seed draws for each one a Haar-random
    orthogonal change of basis, applied to every covariance, an order of
    the components and the checker seed. Verdicts do not depend on the
    basis or the order, and neither does the Dykstra iteration count, so
    every seed does the same amount of work on different numbers. Drawing
    the members per seed instead would let the number of stalled solves
    (about 6% of problems, 30% of the time) move ops_per_s between seeds.
    """

    name = "chain"
    tail_pct = 95.0
    decided_checkers = ("correl", "inecov", "inecovf", "inegsqrt")
    MEMBERS = 100
    FAMILY_SEED = 6

    def build(self, gm, seed: int) -> list:
        self.search = gm.conditions.SearchConfig(iters=80, random_starts=24)
        self.engine = gm.psdfeas.EngineConfig(max_iter=1500)
        self.conditions = gm.conditions
        items = []
        for k in range(self.MEMBERS):
            fam = np.random.default_rng([self.FAMILY_SEED, k])
            member = chain_family_member(fam.random, lambda rows, cols: fam.standard_normal((rows, cols)))
            rng = np.random.default_rng([seed, k, 6])
            d, n = member["target"].shape[0], len(member["p"])
            q, order = haar_orthogonal(rng, d), rng.permutation(n)
            items.append(self.present(gm, member, q, order, int(rng.integers(0, 2**31 - 1))))
        return items

    @staticmethod
    def present(gm, member: dict, q: np.ndarray, order: np.ndarray, seed: int) -> dict:
        """Change basis and component order; build the program's problem."""
        covs = np.einsum("ij,njk,lk->nil", q, member["covs"][order], q)
        covs = 0.5 * (covs + covs.transpose(0, 2, 1))
        target = q @ member["target"] @ q.T
        target = 0.5 * (target + target.T)
        p = member["p"][order]
        prob = gm.conditions.MixtureProblem(p=p, covs=covs, target=target)
        return {"prob": prob, "p": p, "covs": covs, "target": target, "mode": member["mode"], "seed": seed}

    def prepare(self, item) -> None:
        pass

    def op(self, item):
        return self.conditions.implication_chain_report(
            item["prob"], search_cfg=self.search, engine_cfg=self.engine, mc_samples=6000, seed=item["seed"]
        )

    def verdicts(self, item, out) -> list:
        return [(name, row["status"]) for name, row in out.as_dict().items()]

    def check(self, item, out) -> list[str]:
        p, covs, target = item["p"], item["covs"], item["target"]
        verdicts = {"correl": out.correl, "inecov": out.inecov, "inecovf": out.inecovf, "inegsqrt": out.inegsqrt}
        status = {name: v.status.value for name, v in verdicts.items()}
        errors = []
        for name, v in verdicts.items():
            if status[name] == "holds" and name in ("inecov", "inecovf"):
                errors += [f"{name} certificate: {e}" for e in oracle.gamma_certificate_errors(
                    p, covs, target, v.witness.gamma, pairwise=name == "inecovf")]
            elif status[name] == "holds" and name == "correl":
                errors += [f"correl certificate: {e}" for e in oracle.correl_certificate_errors(
                    p, covs, target, v.witness.m, v.witness.corr, v.witness.comp_scales)]
            elif status[name] == "fails" and isinstance(v.witness, np.ndarray):
                slack = oracle.directional_slack(p, covs, target, v.witness)
                if not slack < 0.0:
                    errors.append(f"{name} failure direction has slack {slack!r}")
            elif status[name] == "fails" and isinstance(v.witness, tuple) and v.witness[0] == "dual":
                bound = oracle.pair_refutation_bound(p, covs, target, v.witness[1])
                if not bound < 0.0:
                    errors.append(f"{name} refutation functional has bound {bound!r}")
        if item["mode"] == 0 and status["inecov"] != "holds":
            errors.append(f"target below sum p_i^2 S_i but inecov {status['inecov']}")
        if item["mode"] == 3 and status["inegsqrt"] != "fails":
            errors.append(f"target above 6 sum p_i^2 S_i + cI but inegsqrt {status['inegsqrt']}")
        if target.shape[0] == 1:
            exact = float(p @ np.sqrt(np.maximum(covs[:, 0, 0], 0.0)) - math.sqrt(max(target[0, 0], 0.0)))
            margin = out.inegsqrt.margin
            scale = 1.0 + math.sqrt(max(float(np.abs(covs).max()), float(target[0, 0])))
            if abs(margin - exact) > 1e-9 * scale:
                errors.append(f"d = 1 margin {margin!r}, closed form {exact!r}")
            elif abs(exact) > 1e-6 * scale and status["inegsqrt"] != ("holds" if exact > 0 else "fails"):
                errors.append(f"d = 1 margin {exact!r} but inegsqrt {status['inegsqrt']}")
        return errors


# ---------------------------------------------------------------------------
# cli: single-problem user sessions through gmcvx.cli.main
# ---------------------------------------------------------------------------


class Cli:
    """One op is one in-process ``gmcvx.cli.main`` call.

    A round is six sessions over two-component problem documents; each
    session runs ``check`` for inegsqrt, correl, inecov and inecovf with
    ``--emit-certificate``, then ``couple`` from the inecov certificate
    when there is one, then ``mcverify``. Session kinds are fixed per slot
    so every seed runs the same commands: targets built below
    sum_ij p_i p_j Gamma0_ij for a random PSD Gamma0 (inecov holds, the
    coupling is sampled), one target above six times sum_i p_i^2 S_i plus
    a multiple of I (everything fails), d from 1 to 3, and centered
    nonzero means in two sessions.
    """

    name = "cli"
    tail_pct = 95.0
    decided_checkers = ("inegsqrt", "correl", "inecov", "inecovf")
    # three d = 3 couplings, the slowest calls, put the 95th percentile
    # inside their cluster rather than on the edge to the next
    SESSIONS = ((1, "below", False), (3, "below", False), (2, "below", True),
                (3, "below", True), (2, "above", False), (3, "below", False))
    SAMPLES = 20000

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def build(self, gm, seed: int) -> list:
        self.cli = gm.cli
        if self.workdir.exists():
            shutil.rmtree(self.workdir)
        self.workdir.mkdir(parents=True)
        items = []
        for s, (d, kind, with_means) in enumerate(self.SESSIONS):
            rng = np.random.default_rng([seed, s, 7])
            doc = self.problem_doc(rng, d, kind, with_means)
            base = self.workdir / f"s{s}"
            problem = {"p": np.array(doc["p"]), "covs": np.array([c["cov"] for c in doc["components"]]),
                       "target": np.array(doc["target"]), "means": np.array([c["mean"] for c in doc["components"]]),
                       "kind": kind}
            path = Path(f"{base}.json")
            path.write_text(json.dumps(doc), encoding="utf-8")
            cmd_seed = str(int(rng.integers(0, 2**31 - 1)))
            for cond in self.decided_checkers:
                cert = f"{base}-{cond}.cert.json"
                items.append({"kind": "check", "condition": cond, "out": cert, "problem": problem,
                              "argv": ["check", "--condition", cond, "--input", str(path), "--seed", cmd_seed,
                                       "--emit-certificate", cert]})
            if kind == "below":
                csv = f"{base}.csv"
                items.append({"kind": "couple", "out": csv, "problem": problem,
                              "argv": ["couple", "--input", str(path), "--gamma", f"{base}-inecov.cert.json",
                                       "--samples", str(self.SAMPLES), "--seed", cmd_seed, "--out", csv]})
            items.append({"kind": "mcverify", "out": None, "problem": problem,
                          "argv": ["mcverify", "--input", str(path), "--samples", str(self.SAMPLES),
                                   "--seed", cmd_seed]})
        return items

    @staticmethod
    def problem_doc(rng: np.random.Generator, d: int, kind: str, with_means: bool) -> dict:
        p1 = float(rng.uniform(0.25, 0.75))
        p = np.array([p1, 1.0 - p1])
        w = rng.standard_normal((2 * d, 2 * d))
        gamma0 = w @ w.T / d + 0.05 * np.eye(2 * d)
        covs = [gamma0[:d, :d], gamma0[d:, d:]]
        if kind == "below":
            mixed = np.einsum("i,j,ikjl->kl", p, p, gamma0.reshape(2, d, 2, d))
            target = float(rng.uniform(0.5, 0.9)) * mixed
        else:
            anchor = p[0] ** 2 * covs[0] + p[1] ** 2 * covs[1]
            target = 6.0 * anchor + 0.1 * float(np.trace(anchor)) / d * np.eye(d)
        means = np.zeros((2, d))
        if with_means:
            means[0] = rng.standard_normal(d)
            means[1] = -p[0] * means[0] / p[1]

        def sym(a):
            return (0.5 * (a + a.T)).tolist()

        return {"d": d, "n": 2, "p": p.tolist(), "target": sym(target),
                "components": [{"cov": sym(c), "mean": m.tolist()} for c, m in zip(covs, means)]}

    def prepare(self, item) -> None:
        if item["out"] is not None:
            Path(item["out"]).unlink(missing_ok=True)

    def op(self, item):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = self.cli.main(list(item["argv"]))
        return code, stdout.getvalue(), stderr.getvalue()

    def bytes_written(self, item, out) -> int:
        size = len(out[1].encode("utf-8"))
        if item["out"] is not None and Path(item["out"]).exists():
            size += Path(item["out"]).stat().st_size
        return size

    def verdicts(self, item, out) -> list:
        if item["kind"] != "check":
            return [(item["kind"], str(out[0]))]
        try:
            return [(item["condition"], json.loads(out[1])["status"])]
        except (ValueError, KeyError, TypeError):
            return [(item["condition"], "no-report")]

    def check(self, item, out) -> list[str]:
        code, stdout, stderr = out
        if item["kind"] == "couple":
            return self.check_couple(item, code, stdout)
        try:
            report = json.loads(stdout)
        except ValueError:
            return [f"{item['argv'][0]} printed no JSON report (exit {code}): {stderr.strip()[:200]}"]
        status = report.get("status")
        expected_code = {"holds": 0, "fails": 1, "unknown": 2}.get(status)
        if code != expected_code:
            return [f"exit code {code} with status {status!r}"]
        if item["kind"] == "mcverify":
            return []
        problem = item["problem"]
        errors = []
        cert = Path(item["out"])
        if status == "holds" and item["condition"] != "inegsqrt":
            if not cert.exists():
                return [f"{item['condition']} holds but no certificate was written"]
            doc = json.loads(cert.read_text(encoding="utf-8"))
            if doc.get("kind") == "gamma":
                errors += oracle.gamma_certificate_errors(problem["p"], problem["covs"], problem["target"],
                                                          doc["gamma"], pairwise=item["condition"] == "inecovf")
            else:
                errors += oracle.correl_certificate_errors(problem["p"], problem["covs"], problem["target"],
                                                           doc["m"], doc["corr"], doc["comp_scales"])
        if status == "fails" and item["condition"] == "inegsqrt":
            xi = (report.get("witness") or {}).get("xi")
            if xi is None or not oracle.directional_slack(problem["p"], problem["covs"], problem["target"], xi) < 0:
                errors.append("inegsqrt failure direction does not give negative slack")
        if problem["kind"] == "below" and item["condition"] == "inecov" and status != "holds":
            errors.append(f"target below sum p_i p_j Gamma0_ij but inecov {status}")
        if problem["kind"] == "above" and item["condition"] == "inegsqrt" and status != "fails":
            errors.append(f"target above 6 sum p_i^2 S_i + cI but inegsqrt {status}")
        if problem["covs"].shape[1] == 1 and item["condition"] == "inegsqrt":
            p, covs, target = problem["p"], problem["covs"], problem["target"]
            exact = float(p @ np.sqrt(covs[:, 0, 0]) - math.sqrt(target[0, 0]))
            if abs(report["margin"] - exact) > 1e-9 * (1.0 + abs(exact) + float(np.abs(covs).max())):
                errors.append(f"d = 1 margin {report['margin']!r}, closed form {exact!r}")
        return errors

    def check_couple(self, item, code: int, stdout: str) -> list[str]:
        if code != 0:
            return [f"couple exited {code}"]
        path = Path(item["out"])
        if not path.exists():
            return ["couple wrote no CSV"]
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        problem = item["problem"]
        d = problem["covs"].shape[1]
        if data.shape != (self.SAMPLES, 2 * d + 1) or len(header) != 2 * d + 1:
            return [f"couple CSV has shape {data.shape}, expected {(self.SAMPLES, 2 * d + 1)}"]
        xs, ys = data[:, :d], data[:, d + 1:]
        errors = []
        mix = oracle.mixture_covariance(problem["p"], problem["covs"], problem["means"])
        centred = ys - ys.mean(axis=0)
        root_n = math.sqrt(self.SAMPLES)
        for k in range(d):
            for l in range(k, d):
                prod = centred[:, k] * centred[:, l]
                se = prod.std(ddof=1) / root_n
                if abs(prod.mean() - mix[k, l]) > 4.0 * se:
                    errors.append(f"cov(y)[{k},{l}] = {prod.mean():.4g}, mixture {mix[k, l]:.4g}, se {se:.2g}")
        resid = ys - xs
        se = resid.std(axis=0, ddof=1) / root_n
        for k in range(d):
            if abs(resid[:, k].mean()) > 4.0 * se[k]:
                errors.append(f"martingale residual {resid[:, k].mean():.3g} in coordinate {k}, se {se[k]:.2g}")
        return errors


def make(name: str, workdir: Path):
    if name == "region":
        return Region()
    if name == "chain":
        return Chain()
    if name == "cli":
        return Cli(workdir)
    raise ValueError(f"unknown workload {name!r}")
