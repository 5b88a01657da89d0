"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

import families as fam
from families import LIGHT, MID, refine_minimizer_by_slope
from gmcvx import conditions as C
from gmcvx import coupling, cxverify, matcore, psdfeas
from gmcvx import sweep as S
from gmcvx.rng import CounterRng
from gmcvx.utils import golden_section_minimize

SQRT2 = math.sqrt(2.0)


@contextmanager
def criterion(num, description, budget_s):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {description}")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < budget_s, f"criterion {num} took {elapsed:.1f}s, budget {budget_s}s"
    print(f"[PASS] criterion {num}: {description} ({elapsed:.1f}s)")


def test_criterion_01_scalar_equivalence():
    with criterion(1, "d=1 equivalence of the directional and coupling checks", 10.0):
        disagreements = 0
        skipped = 0
        for seed in range(1000):
            prob, margin = fam.random_scalar_problem(seed)
            if abs(margin) <= 1e-9:
                skipped += 1
                continue
            expected = C.Status.HOLDS if margin > 0 else C.Status.FAILS
            v5 = C.check_inegsqrt(prob)
            v3 = C.check_inecov(prob, inegsqrt_verdict=v5)
            if v5.status is not expected or v3.status is not expected:
                disagreements += 1
        assert disagreements == 0
        assert skipped < 50


def test_criterion_02_region_grid():
    with criterion(2, "directional region grid matches the analytic description", 300.0):
        step = 0.05
        spec = S.SweepSpec(
            fam.axis_swap_problem,
            S.Axis("a", 0.0, 6.0, step),
            S.Axis("b", -6.0, 6.0, step),
            ("inegsqrt", "inecov"),
        )
        cells = S.run_sweep(spec, search_cfg=LIGHT)
        table = {}
        for cell in cells:
            table.setdefault((cell.v1, cell.v2), {})[cell.checker] = cell
        mismatches = []
        inecov_misses = []
        checked = 0
        for (a, b), row in table.items():
            expected = fam.axis_swap_region(a, b)
            near_boundary = any(
                fam.axis_swap_region(a + da, b + db) != expected
                for da in (-step, 0.0, step)
                for db in (-step, 0.0, step)
            )
            if near_boundary:
                continue
            checked += 1
            got = row["inegsqrt"].status == "holds"
            if got != expected:
                mismatches.append((a, b, row["inegsqrt"].status))
            if expected and row["inegsqrt"].margin > 0.02:
                cov_cell = row["inecov"]
                if cov_cell.status != "holds" or cov_cell.margin <= 0.02:
                    inecov_misses.append((a, b, cov_cell.status, cov_cell.margin))
        assert checked > 25000
        assert not mismatches, mismatches[:10]
        assert not inecov_misses, inecov_misses[:10]


def test_criterion_03_bisection_thresholds():
    with criterion(3, "bisection thresholds on the two reference axes", 30.0):
        a_star = S.boundary_bisect(
            lambda a: fam.axis_swap_problem(a, 0.0), "inegsqrt", 5.5, 6.0,
            xtol=1e-4, search_cfg=LIGHT,
        )
        assert abs(a_star - (3.0 + 2.0 * SQRT2)) <= 1e-3, a_star

        s_star = S.boundary_bisect(
            lambda s: fam.three_diag_problem(np.diag([s, s])),
            lambda prob: C.check_correl_with(prob, np.eye(2)),
            10.0, 13.0, xtol=1e-4,
        )
        assert abs(s_star - (6.0 + 4.0 * SQRT2)) <= 1e-3, s_star


def test_criterion_04_separation_of_conditions():
    with criterion(4, "coupling holds while no shared-correlation basis exists", 30.0):
        prob = fam.rank_deficient_pair(0.0)

        # the reference witness validates
        assert C.validate_gamma_witness(prob, fam.RANK_DEFICIENT_GAMMA, tol=1e-9)["ok"]

        # the engine finds its own witness from canonical candidates
        task = psdfeas.FeasibilityTask(prob, psdfeas.FULL)
        out = psdfeas.solve(task)
        assert out.feasible
        assert psdfeas.validate_gamma(task, out.gamma, 1e-7)["ok"]
        assert C.check_inecov(prob).holds

        # identity and the triangular families all fail
        assert C.check_correl_with(prob, np.eye(2)).fails
        for x in np.linspace(-5.0, 5.0, 25):
            assert C.check_correl_with(prob, np.array([[1.0, x], [0.0, 1.0]])).fails
            assert C.check_correl_with(prob, np.array([[0.0, 1.0], [1.0, x]])).fails

        # 200 random candidate bases all fail
        rng = CounterRng(404)
        tested = 0
        while tested < 200:
            m = rng.normal_matrix(2, 2)
            if np.linalg.cond(m) > 1e12:
                continue
            assert C.check_correl_with(prob, m).fails
            tested += 1

        assert C.find_correl_certificate(prob).status is C.Status.UNKNOWN


def test_criterion_05_pairwise_versus_full_gap():
    with criterion(5, "pairwise-valid coupling with a negative full spectrum", 10.0):
        prob = fam.three_diag_problem(np.eye(2))
        gamma = fam.three_diag_gamma(17.0 / 3.0, 1.0)
        check = C.validate_gamma_witness(prob, gamma, matcore.EPS_ENGINE, pairwise=True)
        assert check["ok"], check
        ok, lmin = matcore.is_psd(gamma, prob.var_scale())
        assert not ok
        assert abs(lmin - (-2.58)) <= 0.02, lmin

        for a in np.linspace(17.0 / 3.0, 3.0 + 2.0 * SQRT2, 20):
            g = fam.three_diag_gamma(a, fam.curve_x(a))
            ok, lmin = matcore.is_psd(g, prob.var_scale(), 1e-8)
            assert ok, (a, lmin)


def test_criterion_06_chain_soundness():
    with criterion(6, "implication chain sound on 500 random problems", 300.0):
        statuses = {"holds": 0, "fails": 0, "unknown": 0}
        correl_unknown = 0
        for seed in range(500):
            prob = fam.random_chain_problem(seed)
            report = C.implication_chain_report(prob, search_cfg=MID, mc_samples=6000, seed=seed)
            statuses[report.inecov.status.value] += 1
            correl_unknown += report.correl.status is C.Status.UNKNOWN
        # sanity: the generator must exercise every branch; inecov decides
        # nearly every problem, so the unknown branch is counted on correl
        assert statuses["holds"] > 20 and statuses["fails"] > 20, statuses
        assert correl_unknown > 20, correl_unknown
        # the orthogonal-factor ascent leaves at most one inecov undecided
        assert statuses["unknown"] <= 1, statuses


def test_criterion_07_reverse_dominance():
    with criterion(7, "reverse dominance equals componentwise comparison", 60.0):
        for seed in range(500):
            rng = CounterRng(seed, stream=97)
            u = rng.uniforms(3)
            d = 1 + int(u[0] * 3)
            n = 2 + int(u[1] * 2)
            covs = np.stack([fam.random_psd(rng.spawn(i), d) for i in range(n)])
            if u[2] < 0.5:
                target = matcore.symmetrize(sum(covs) + 0.05 * np.eye(d))
            else:
                target = fam.random_psd(rng.spawn(9), d)
            prob = C.MixtureProblem(p=np.full(n, 1.0 / n), covs=covs, target=target)
            direct = all(matcore.is_psd(target - cov, prob.var_scale())[0] for cov in covs)
            verdict = C.check_dominated_by_single(prob)
            assert verdict.holds == direct
            moment = cxverify.test_mixture_dominated(prob)
            assert moment.status == verdict.status
            if moment.fails:
                w = moment.witness
                lam, xi = w["lam"], w["xi"]
                log_lhs = 0.5 * lam * lam * float(xi @ target @ xi)
                shifted = [
                    math.log(p) + 0.5 * lam * lam * float(xi @ cov @ xi) - log_lhs
                    for p, cov in zip(prob.p, covs)
                ]
                top = max(shifted)
                log_rhs = log_lhs + top + math.log(sum(math.exp(v - top) for v in shifted))
                assert log_rhs > log_lhs


def _martingale_checks(prob, gamma, seed, n_samples=100000):
    kernel = coupling.build_kernel(prob, gamma)
    rng = CounterRng(seed)
    xs, _, ys = coupling.sample_batch(kernel, n_samples, rng)
    mix_cov = prob.mixture_covariance()
    cov_y = np.cov(ys.T, ddof=1)
    d = prob.d
    for k in range(d):
        for l in range(d):
            se = math.sqrt((mix_cov[k, k] * mix_cov[l, l] + mix_cov[k, l] ** 2) / n_samples)
            assert abs(cov_y[k, l] - mix_cov[k, l]) <= 4.0 * max(se, 1e-12), (k, l)
    resid = ys - xs
    tests = [xs[:, k] for k in range(d)]
    tests += [xs[:, k] * xs[:, l] for k in range(d) for l in range(k, d)]
    for g in tests:
        for j in range(d):
            stat = resid[:, j] * g
            se = stat.std(ddof=1) / math.sqrt(n_samples)
            assert abs(stat.mean()) <= 4.0 * max(se, 1e-12)


def test_criterion_08_martingale_coupling():
    with criterion(8, "mean-preserving coupling reproduces the mixture", 120.0):
        _martingale_checks(fam.rank_deficient_pair(0.0), fam.RANK_DEFICIENT_GAMMA, seed=808)

        prob = fam.axis_swap_problem(5.0, 0.5)
        verdict = C.check_inecov(prob)
        assert verdict.holds
        _martingale_checks(prob, verdict.witness, seed=809)


def test_criterion_09_orthogonal_factor_reconstruction():
    with criterion(9, "orthogonal factors recovered from coupling witnesses", 60.0):
        for seed in range(100):
            rng = CounterRng(seed, stream=101)
            u = rng.uniforms(2)
            n = 2 + int(u[0] * 2)
            d = 2 + int(u[1] * 2)
            g = rng.normal_matrix(n * d, n * d)
            gamma0 = matcore.symmetrize(g @ g.T) + 0.05 * np.eye(n * d)
            covs = np.stack([gamma0[i * d : (i + 1) * d, i * d : (i + 1) * d] for i in range(n)])
            p = np.full(n, 1.0 / n)
            target = 0.85 * psdfeas.mix_compress(gamma0, p, d)
            prob = C.MixtureProblem(p=p, covs=covs, target=target)
            factors, verdict = C.orthogonal_factors_from_gamma(prob, gamma0)
            for o in factors:
                assert matcore.fro_norm(o @ o.T - np.eye(n * d)) <= 1e-8
            assert verdict.holds
            assert verdict.margin >= -1e-7 * (1.0 + prob.var_scale())


def test_criterion_10_exponential_tilt_minimizer():
    with criterion(10, "exponential tilt minimized at the closed-form point", 5.0):
        rng = CounterRng(1010)
        for _ in range(100):
            u = rng.uniforms(5)
            lam = (0.5 + 3.0 * u[0]) * (1.0 if u[4] < 0.5 else -1.0)
            p1 = 0.1 + 0.8 * u[1]
            s1 = 0.2 + 1.8 * u[2]
            s2 = 0.2 + 1.8 * u[3]

            def f(x):
                return cxverify.exp_tilt_mixture_value(x, lam, p1, s1, s2)

            x0, _ = golden_section_minimize(f, -60.0, 60.0, xtol=1e-9)
            x_num = refine_minimizer_by_slope(f, x0)
            x_exact = cxverify.exp_tilt_minimizer(lam, p1, s1, s2)
            assert abs(x_num - x_exact) <= 1e-8, (lam, p1, s1, s2, x_num, x_exact)
