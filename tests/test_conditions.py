import math

import numpy as np
import pytest

import families as fam
from gmcvx import conditions as C
from gmcvx import matcore, psdfeas
from gmcvx.rng import CounterRng
from gmcvx.utils import golden_section_minimize

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# problem validation
# ---------------------------------------------------------------------------


def test_problem_rejects_bad_weights():
    with pytest.raises(C.InvalidProblem):
        C.MixtureProblem(p=[0.5, 0.4], covs=np.stack([np.eye(1), np.eye(1)]), target=np.eye(1))
    with pytest.raises(C.InvalidProblem):
        C.MixtureProblem(p=[1.2, -0.2], covs=np.stack([np.eye(1), np.eye(1)]), target=np.eye(1))
    with pytest.raises(C.InvalidProblem):  # NaN passes every comparison-based test
        C.MixtureProblem(p=[math.nan, math.nan], covs=np.stack([np.eye(1), np.eye(1)]), target=np.eye(1))


def test_problem_rejects_non_psd():
    with pytest.raises(C.TargetNotPSD) as info:
        fam.axis_swap_problem(1.0, 2.0)  # off-diagonal exceeds the diagonal
    assert info.value.lmin == pytest.approx(-1.0)
    with pytest.raises(C.InvalidProblem):
        C.MixtureProblem(
            p=[0.5, 0.5],
            covs=np.stack([np.diag([1.0, -0.5]), np.eye(2)]),
            target=np.eye(2),
        )


@pytest.mark.parametrize(
    "target",
    [[[1.0, 0.0], [math.nan, 1.0]], [[1.0, 1e-9], [0.0, 1.0]]],  # the second is asymmetric beyond 1e-12
    ids=["nan-target", "asymmetric-target"],
)
def test_problem_rejects_non_finite_and_asymmetric_matrices(target):
    with pytest.raises(C.InvalidProblem):
        C.MixtureProblem(p=[0.5, 0.5], covs=np.stack([np.eye(2), np.eye(2)]), target=target)


def test_problem_rejects_single_component():
    with pytest.raises(C.InvalidProblem):
        C.MixtureProblem(p=[1.0], covs=np.eye(1).reshape(1, 1, 1), target=np.eye(1))


@pytest.mark.parametrize(
    "means", [[[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]], ids=["d-by-n", "flat"]
)
def test_problem_rejects_means_of_the_wrong_shape(means):
    # n = 3, d = 2: six numbers in another shape are not read as the (n, d) means
    with pytest.raises(C.InvalidProblem):
        C.MixtureProblem(p=[0.2, 0.3, 0.5], covs=np.stack([np.eye(2)] * 3), target=np.eye(2), means=means)


@pytest.mark.parametrize(
    "field, value",
    [
        ("means", [[0.0, 0.0], [0.0]]),
        ("means", [["a", 0.0], [0.0, 0.0]]),
        ("p", ["a", 0.5]),
        ("p", [[0.5], [0.25, 0.25]]),
        ("covs", [[[1.0, "a"], [0.0, 1.0]], np.eye(2)]),
        ("covs", [[[1.0, 0.0], [0.0]], np.eye(2)]),
        ("covs", [{"a": 1.0}, np.eye(2)]),
        ("target", [["a", 0.0], [0.0, 1.0]]),
        ("target", [[1.0, 0.0], [0.0]]),
    ],
    ids=[
        "ragged-means", "text-in-means", "text-in-p", "ragged-p", "text-in-covs", "ragged-covs", "dict-in-covs",
        "text-in-target", "ragged-target",
    ],
)
def test_problem_rejects_entries_that_are_not_numbers(field, value):
    # numpy's own ValueError or TypeError does not leak: the contract is InvalidProblem
    args = {"p": [0.5, 0.5], "covs": np.stack([np.eye(2), np.eye(2)]), "target": 0.5 * np.eye(2), field: value}
    with pytest.raises(C.InvalidProblem, match="not an array of numbers"):
        C.MixtureProblem(**args)


# ---------------------------------------------------------------------------
# directional condition
# ---------------------------------------------------------------------------


def test_inegsqrt_axis_swap_examples():
    assert C.check_inegsqrt(fam.axis_swap_problem(5.0, 0.5)).holds
    inner = C.check_inegsqrt(fam.axis_swap_problem(5.0, 1.5))
    assert inner.fails
    assert C.h_margin(fam.axis_swap_problem(5.0, 1.5), inner.witness) < -1e-9


def test_inegsqrt_equal_components_margin_zero():
    sigma = np.array([[2.0, 0.3], [0.3, 1.0]])
    prob = C.MixtureProblem(p=[0.3, 0.7], covs=np.stack([sigma, sigma]), target=sigma)
    v = C.check_inegsqrt(prob)
    assert v.holds
    assert abs(v.margin) < 1e-9
    assert v.diagnostics.get("boundary")


def test_inegsqrt_scalar_boundary_case():
    prob = C.MixtureProblem(
        p=[0.5, 0.5], covs=np.array([[[1.0]], [[9.0]]]), target=np.array([[4.0]])
    )
    v = C.check_inegsqrt(prob)
    assert v.holds
    assert v.margin == pytest.approx(0.0, abs=1e-14)


def test_inegsqrt_witness_reverifies():
    for seed in range(25):
        prob = fam.random_chain_problem(seed)
        v = C.check_inegsqrt(prob)
        if v.fails:
            assert C.h_margin(prob, v.witness) < 0


def test_inegsqrt_congruence_invariance():
    rng = CounterRng(77)
    checked = 0
    for seed in range(40):
        prob = fam.random_chain_problem(seed)
        v = C.check_inegsqrt(prob)
        if abs(v.margin) < 1e-3 * (1.0 + prob.std_scale()):
            continue  # skip the boundary band
        m = rng.normal_matrix(prob.d, prob.d) + 2.0 * np.eye(prob.d)
        if abs(np.linalg.det(m)) < 0.1:
            continue
        moved = C.MixtureProblem(
            p=prob.p,
            covs=np.stack([m @ c @ m.T for c in prob.covs]),
            target=m @ prob.target @ m.T,
        )
        assert C.check_inegsqrt(moved).status == v.status
        checked += 1
    assert checked >= 20


def test_d2_closed_form_objectives_match_numpy():
    # h on the circle, with rank-1 components and targets
    rng = CounterRng(606)
    for trial in range(60):
        n = 2 + trial % 2
        ranks = [2] * (n + 1)
        ranks[trial % (n + 1)] = 1 if trial % 3 else 2
        scale = 10.0 ** (4.0 * rng.uniforms(1)[0] - 2.0)
        mats = [scale * fam.random_psd(rng, 2, r) for r in ranks]
        raw = rng.uniforms(n) + 0.2
        prob = C.MixtureProblem(p=raw / raw.sum(), covs=np.stack(mats[:n]), target=mats[n])
        h_of = C._h_on_circle(prob)
        for theta in np.pi * rng.uniforms(8):
            ref = C.h_margin(prob, [math.cos(theta), math.sin(theta)])
            assert abs(h_of(theta) - ref) <= 1e-12 * (1.0 + prob.std_scale())


@pytest.mark.parametrize("seed", range(12))
def test_eigvector_starts_match_per_matrix_eigh(seed):
    # the batched eigh gives the rows one eigh per symmetrised matrix gives
    prob = fam.random_chain_problem(seed) if seed % 2 else fam.axis_swap_problem(0.5 + 0.4 * seed, 0.3 - 0.1 * seed)
    ref = np.vstack([np.linalg.eigh(matcore.symmetrize(m))[1].T for m in [prob.target, *prob.covs]])
    assert np.array_equal(C._eigvector_starts(prob), ref)


def test_subgradient_loop_runs_only_without_the_d2_grid(monkeypatch):
    # the n = 2 alpha scan guards the descent and runs exactly where it does
    calls = []
    scans = []
    real = C._h_and_grad
    real_scan = C._alpha_scan
    monkeypatch.setattr(C, "_h_and_grad", lambda prob, xis: calls.append(1) or real(prob, xis))
    monkeypatch.setattr(C, "_alpha_scan", lambda prob, cfg: scans.append(1) or real_scan(prob, cfg))
    prob2 = fam.axis_swap_problem(5.0, 0.5)
    prob3 = C.MixtureProblem(
        p=[0.5, 0.5], covs=np.stack([np.diag([3.0, 2.0, 1.0]), np.diag([1.0, 2.0, 3.0])]), target=np.eye(3)
    )
    assert C.check_inegsqrt(prob2, C.SearchConfig(iters=30)).holds
    assert calls == [] and scans == []
    assert C.check_inegsqrt(prob2, C.SearchConfig(iters=30, grid_points=0)).holds
    assert len(calls) == 30 and len(scans) == 1
    calls.clear()
    scans.clear()
    assert C.check_inegsqrt(prob3, C.SearchConfig(iters=30)).holds
    assert len(calls) == 30 and len(scans) == 1


def reference_h_and_grad(prob, xis):
    """h and its subgradient with one einsum for the components and one for the target."""
    prods_c = np.einsum("kij,mj->kmi", prob.covs, xis)
    root_c = np.sqrt(np.clip(np.einsum("kmi,mi->km", prods_c, xis), 0.0, None))
    prod_t = xis @ prob.target
    root_t = np.sqrt(np.clip(np.einsum("mi,mi->m", prod_t, xis), 0.0, None))
    inv_c = np.where(root_c > 0.0, 1.0 / np.where(root_c > 0.0, root_c, 1.0), 0.0)
    inv_t = np.where(root_t > 0.0, 1.0 / np.where(root_t > 0.0, root_t, 1.0), 0.0)
    grad = np.einsum("k,km,kmi->mi", prob.p, inv_c, prods_c) - prod_t * inv_t[:, None]
    return prob.p @ root_c - root_t, grad


def forms(prob, xis):
    """Every x' S_k x, the target's last, as rows over k."""
    return np.einsum("kij,mi,mj->km", np.concatenate([prob.covs, prob.target[None]]), xis, xis)


def test_stacked_step_matches_the_einsum_reference_on_chain_problems():
    # away from the kinks (every form above 1e-12 sigma^2) h and the subgradient
    # agree to 1e-12 (1 + sigma); where a form is zero up to rounding (a start in
    # a singular component's null space) sqrt turns that rounding into about
    # 1e-8 sigma, so h agrees to sqrt(eps) sigma and the subgradient there, at a
    # kink, is not compared
    smooth_rows = kink_rows = 0
    for seed in range(100):
        prob = fam.random_chain_problem(seed)
        if prob.d < 2:
            continue
        xis = C._normalize_rows(np.vstack([C._eigvector_starts(prob), C._random_starts(seed, 24, prob.d)]))
        h, grad = C._h_and_grad(prob, xis)
        ref_h, ref_grad = reference_h_and_grad(prob, xis)
        smooth = forms(prob, xis).min(axis=0) >= 1e-12 * prob.var_scale()
        tol = 1e-12 * (1.0 + prob.std_scale())
        assert np.all(np.abs(h - ref_h)[smooth] <= tol), seed
        assert np.all(np.abs(grad - ref_grad)[smooth] <= tol), seed
        assert np.all(np.abs(h - ref_h)[~smooth] <= 16.0 * math.sqrt(np.finfo(float).eps) * prob.std_scale()), seed
        smooth_rows += int(smooth.sum())
        kink_rows += int((~smooth).sum())
    assert smooth_rows > 10 * kink_rows > 0


@pytest.mark.parametrize("d", [2, 3, 4])
def test_stacked_step_drops_zero_forms(d):
    # components of rank 1 and d - 1 along the axes and a rank-1 target: at an
    # axis direction some forms are exactly 0 and add nothing to h or the subgradient
    low = np.diag([1.0] + [0.0] * (d - 1))
    high = np.diag([0.0] + [2.0 + k for k in range(d - 1)])
    prob = C.MixtureProblem(p=[0.3, 0.7], covs=np.stack([low, high]), target=np.diag([0.0] * (d - 1) + [1.5]))
    xis = np.vstack([np.eye(d), C._normalize_rows(CounterRng(40 + d).normal_matrix(16, d))])
    h, grad = C._h_and_grad(prob, xis)
    ref_h, ref_grad = reference_h_and_grad(prob, xis)
    assert np.all(np.abs(h - ref_h) <= 1e-12 * (1.0 + prob.std_scale()))
    assert np.all(np.abs(grad - ref_grad) <= 1e-12 * (1.0 + prob.std_scale()))
    assert np.count_nonzero(forms(prob, np.eye(d)) == 0.0) == 2 * d - 1
    for k in range(d):
        h_k, grad_k = 0.0, np.zeros(d)
        for weight, s in zip([*prob.p, -1.0], [*prob.covs, prob.target]):
            if s[k, k] > 0.0:  # the nonzero forms alone
                h_k += weight * math.sqrt(s[k, k])
                grad_k += weight * s[k] / math.sqrt(s[k, k])
        assert h[k] == pytest.approx(h_k, rel=0.0, abs=1e-15)
        assert np.allclose(grad[k], grad_k, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("power", [-20, 20])
def test_stacked_step_scales_exactly(power):
    # covariances times 4**k give h and the subgradient times 2**k, bit for bit
    for seed in range(100):
        prob = fam.random_chain_problem(seed)
        if prob.d < 2:
            continue
        scaled = C.MixtureProblem(p=prob.p, covs=prob.covs * 4.0**power, target=prob.target * 4.0**power)
        xis = C._normalize_rows(C._random_starts(seed, 24, prob.d))
        h, grad = C._h_and_grad(prob, xis)
        h_s, grad_s = C._h_and_grad(scaled, xis)
        assert np.array_equal(h_s, h * 2.0**power) and np.array_equal(grad_s, grad * 2.0**power), seed


def reference_normalize_rows(x):
    norms = np.linalg.norm(x, axis=1)
    norms = np.where(norms > 0.0, norms, 1.0)
    return x / norms[:, None]


def reference_unit_tangents(grad, x, floor):
    tangent = grad - np.sum(grad * x, axis=1)[:, None] * x
    norms = np.linalg.norm(tangent, axis=1)
    return np.where(norms[:, None] > floor, tangent / np.where(norms > floor, norms, 1.0)[:, None], 0.0)


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("d", [2, 3, 5])
def test_lean_loop_arithmetic_matches_norm_and_where_bit_for_bit(d):
    rng = CounterRng(90 + d)
    x = rng.normal_matrix(40, d) * 10.0 ** (6.0 * rng.uniforms(40)[:, None] - 3.0)
    x[::7] = 0.0  # zero rows stay zero
    x[3] = 1e-200  # squares underflow: a norm of 0, so the row is kept as it is
    x.flags.writeable = False  # last_value keeps its arrays read-only
    unit = C._normalize_rows(x)
    assert same_bits(unit, reference_normalize_rows(x))
    assert not np.any(unit[::7]) and np.array_equal(unit[3], x[3])
    grad = rng.normal_matrix(40, d)
    grad[5] = 3.0 * unit[5]  # radial: its tangent is (about) zero, below the floor
    grad[::9] = 0.0
    for floor in (0.0, 1e-12, 1e-6):
        dirs = C._unit_tangents(grad, unit, floor)
        assert same_bits(dirs, reference_unit_tangents(grad, unit, floor))
    assert not np.any(C._unit_tangents(grad, unit, 1e-6)[[0, 5, 9]])


@pytest.mark.parametrize("a, b, minima", [(4.0, 1.0, 1), (5.0, -3.0, 1), (4.0, 0.25, 2), (4.0, 0.0, 2)])
def test_d2_search_refines_once_per_grid_minimum(monkeypatch, a, b, minima):
    # the three best grid points are a minimum and its neighbours or two
    # minima; a neighbour's bracket would repeat the minimum's
    centers = []
    real = C.golden_section_minimize
    count = fam.LIGHT.grid_points
    width = math.pi / count

    def recording(f, lo, hi, **kwargs):
        centers.append(round((lo + width) / width))  # the grid index of the bracket's middle
        return real(f, lo, hi, **kwargs)

    monkeypatch.setattr(C, "golden_section_minimize", recording)
    prob = fam.axis_swap_problem(a, b)
    C.check_inegsqrt(prob, fam.LIGHT)
    hs = C.h_values(prob, C._half_circle(count)[1])
    grid_minima = [i for i in range(count) if hs[i] < hs[i - 1] and hs[i] < hs[(i + 1) % count]]
    assert len(grid_minima) == minima
    assert sorted(centers) == grid_minima
    assert all((i - j) % count not in (1, count - 1) for i in centers for j in centers)


def test_d2_margin_matches_dense_brute_force():
    # n = 2 and 3, scales 1e-2..1e2, rank-1 components in two thirds of the problems
    rng = CounterRng(2024)
    grid = np.linspace(0.0, np.pi, 4000, endpoint=False)
    circle = np.column_stack([np.cos(grid), np.sin(grid)])
    width = grid[1]
    signs = set()
    for trial in range(200):
        n = 2 + trial % 2
        ranks = [2] * n
        for i in range(trial % 3):
            ranks[(trial + i) % n] = 1
        scale = 10.0 ** (4.0 * rng.uniforms(1)[0] - 2.0)
        covs = np.stack([scale * fam.random_psd(rng, 2, r) for r in ranks])
        raw = rng.uniforms(n) + 0.2
        p = raw / raw.sum()
        target = (0.2 + 1.2 * rng.uniforms(1)[0]) * np.einsum("i,ikl->kl", p, covs)
        if trial % 5 == 0:
            target = target + 0.3 * scale * fam.random_psd(rng, 2, 1)
        prob = C.MixtureProblem(p=p, covs=covs, target=0.5 * (target + target.T))

        def h_at(theta):
            return C.h_margin(prob, [math.cos(theta), math.sin(theta)])

        hs = C.h_values(prob, circle)
        brute = float(hs.min())
        for idx in np.argsort(hs)[:5]:
            brute = min(brute, golden_section_minimize(h_at, grid[idx] - width, grid[idx] + width, xtol=1e-13)[1])

        v = C.check_inegsqrt(prob)
        assert abs(v.margin - brute) <= 1e-8 * (1.0 + prob.std_scale()), trial
        if abs(brute) > 1e-6:
            assert v.status == (C.Status.FAILS if brute < 0 else C.Status.HOLDS), trial
            signs.add(brute > 0)
    assert signs == {True, False}


# ---------------------------------------------------------------------------
# coupling condition
# ---------------------------------------------------------------------------


def test_inecov_rank_deficient_pair_holds_and_witness_validates():
    prob = fam.rank_deficient_pair(0.0)
    v = C.check_inecov(prob)
    assert v.holds
    assert C.validate_gamma_witness(prob, v.witness)["ok"]
    # the reference witness validates too
    assert C.validate_gamma_witness(prob, fam.RANK_DEFICIENT_GAMMA)["ok"]


def test_inecov_axis_swap_boundary_and_equal_blocks():
    v = C.check_inecov(fam.axis_swap_problem(17.0 / 3.0, 1.0 / 3.0))
    assert v.holds

    sigma = np.array([[1.5, 0.4], [0.4, 1.0]])
    prob = C.MixtureProblem(p=[0.25, 0.75], covs=np.stack([sigma, sigma]), target=sigma)
    v = C.check_inecov(prob)
    assert v.holds
    w = v.witness
    for i in range(2):
        for j in range(2):
            assert np.allclose(w.block(i, j), sigma, atol=1e-7)


def test_inecov_fails_through_directional_refutation():
    prob = fam.axis_swap_problem(5.9, 0.0)
    v = C.check_inecov(prob)
    assert v.fails
    assert v.diagnostics["refuted_by"] == "inegsqrt"
    assert C.h_margin(prob, v.witness) < 0


def test_inecov_convexity_of_witnesses():
    prob_a = fam.axis_swap_problem(5.0, 0.8)
    prob_b = fam.axis_swap_problem(4.0, -1.5)
    va, vb = C.check_inecov(prob_a), C.check_inecov(prob_b)
    assert va.holds and vb.holds
    mid = C.MixtureProblem(
        p=prob_a.p,
        covs=prob_a.covs,
        target=0.5 * (prob_a.target + prob_b.target),
    )
    avg = 0.5 * (va.witness.gamma + vb.witness.gamma)
    assert C.validate_gamma_witness(mid, avg)["ok"]


def test_contraction_dual_refutes_outside_point():
    prob = fam.axis_swap_problem(6.1, 0.0)
    task = psdfeas.FeasibilityTask(prob, psdfeas.PAIRWISE, ascent_iters=150)
    val, ks, y, evals = task.ascent
    assert val < -1e-6 and evals == 150  # no start clears the tolerance, so the loop takes every step
    assert y is not None
    assert psdfeas.dual_refutation_value(task, y) < 0


def test_inecovf_reports_the_pair_ascent_evaluations():
    # outside the pairwise region: past inegsqrt, the ascent runs all its
    # evaluations and its tail refutes; inside, a start clears the tolerance at once
    prob = fam.axis_swap_problem(6.1, 0.0)
    v = C.check_inecovf(prob, inegsqrt_verdict=C.Verdict(C.Status.UNKNOWN, 0.0))
    assert v.fails and v.witness[0] == "dual"
    assert v.diagnostics["pair_ascent_evals"] == C.SearchConfig().ascent_iters
    assert C.check_inecovf(fam.axis_swap_problem(5.0, 0.5)).diagnostics["pair_ascent_evals"] == 1
    # d = 1 has a closed form and no loop
    v = C.check_inecov(fam.random_chain_problem(3))
    assert v.holds and "pair_ascent_margin" in v.diagnostics and "pair_ascent_evals" not in v.diagnostics


def test_pair_ascent_holds_validate_with_a_positive_margin():
    # the contraction ascent stops once a start's slack clears the engine
    # tolerance: each n = 2 Holds keeps a validated witness whose margin is that slack
    decided = []
    for seed in range(200):
        prob = fam.random_chain_problem(seed)
        if prob.n != 2:
            continue
        v = C.check_inecov(prob, fam.MID, seed=seed)
        if not v.holds:
            continue
        decided.append(seed)
        check = C.validate_gamma_witness(prob, v.witness)
        assert check["ok"] and check["lmin_slack"] == v.margin, seed
        assert v.margin > matcore.EPS_ENGINE * prob.var_scale(), seed
    assert len(decided) >= 40


def test_n2_d2_check_scores_each_warm_start_once(monkeypatch):
    # the contraction coupling comes once, from the default candidates
    scored, counts = [], []
    real_score, real_warm = psdfeas._score_candidates, psdfeas.warm_start_from

    def warm(task, candidates):
        before = len(scored)
        out = real_warm(task, candidates)
        counts.append(len(scored) - before)
        return out

    monkeypatch.setattr(psdfeas, "warm_start_from", warm)
    monkeypatch.setattr(
        psdfeas, "_score_candidates", lambda task, cands: scored.extend(cands) or real_score(task, cands)
    )
    assert C.check_inecov(fam.axis_swap_problem(5.0, 0.5)).holds
    assert counts == [4]


@pytest.mark.parametrize("ascent_iters", [0, 200])
def test_coupling_check_runs_one_ascent(monkeypatch, ascent_iters):
    # the margin, the warm starts and the dual bound share the task's ascent
    tasks = []
    real = psdfeas.contraction_ascent
    monkeypatch.setattr(
        psdfeas, "contraction_ascent", lambda task, *args, **kwargs: tasks.append(task) or real(task, *args, **kwargs)
    )
    v = C.check_inecov(fam.axis_swap_problem(5.0, 0.5), search_cfg=C.SearchConfig(ascent_iters=ascent_iters))
    assert v.holds
    assert len(tasks) == 1 and tasks[0].ascent_iters == ascent_iters


@pytest.mark.parametrize("seed", [32, 38, 75, 98, 121])
def test_inecov_n3_stalls_decided_by_factor_ascent(seed):
    # n = 3 full-cone problems where no default candidate is feasible but
    # the orthogonal-factor coupling is
    prob = fam.random_chain_problem(seed)
    assert prob.n == 3
    v = C.check_inecov(prob, fam.MID, seed=seed)
    assert v.holds
    assert C.validate_gamma_witness(prob, v.witness)["ok"]


def test_inecov_seed_77_stays_undecided():
    # inecovf and inegsqrt hold here, but no full coupling is known to exist;
    # no start of the factor ascent clears the tolerance, so it takes every step
    prob = fam.random_chain_problem(77)
    v = C.check_inecov(prob, fam.MID, seed=77)
    assert not v.holds
    assert v.diagnostics["factor_ascent_evals"] == fam.MID.ascent_iters + 1


def test_inecov_reports_the_factor_ascent_evaluations():
    # seed 32: a start clears the tolerance after a few steps
    v = C.check_inecov(fam.random_chain_problem(32), fam.MID, seed=32)
    assert v.holds and 1 < v.diagnostics["factor_ascent_evals"] < 10
    assert "factor_ascent_evals" not in C.check_inecov(fam.axis_swap_problem(5.0, 0.5)).diagnostics  # n = 2


def test_factor_ascent_holds_validate_with_a_positive_margin():
    # the ascent stops once a start's slack clears the engine tolerance: each
    # n = 3 Holds it decides keeps a validated witness whose margin is that slack
    decided = []
    for seed in range(200):
        prob = fam.random_chain_problem(seed)
        if prob.n != 3:
            continue
        v = C.check_inecov(prob, fam.MID, seed=seed)
        if not v.holds or "factor_ascent_evals" not in v.diagnostics:
            continue
        decided.append(seed)
        check = C.validate_gamma_witness(prob, v.witness)
        assert check["ok"] and check["lmin_slack"] == v.margin, seed
        assert v.margin > matcore.EPS_ENGINE * prob.var_scale(), seed
    assert len(decided) >= 10


def test_factor_ascent_runs_only_for_an_infeasible_n3_full_cone(monkeypatch):
    calls = []
    real = psdfeas.factor_ascent
    monkeypatch.setattr(psdfeas, "factor_ascent", lambda task: calls.append(task) or real(task))
    assert C.check_inecov(fam.axis_swap_problem(5.0, 0.5)).holds  # n = 2
    assert C.check_inecov(fam.three_diag_problem(np.eye(2))).holds  # a default candidate is feasible
    assert C.check_inecovf(fam.random_chain_problem(32), fam.MID, seed=32).holds  # pairwise
    assert calls == []
    assert C.check_inecov(fam.random_chain_problem(32), fam.MID, seed=32).holds
    assert len(calls) == 1 and calls[0].cone == psdfeas.FULL


# ---------------------------------------------------------------------------
# pairwise relaxation
# ---------------------------------------------------------------------------


def test_inecovf_three_diag_gamma_pairwise_but_not_full():
    prob = fam.three_diag_problem(np.eye(2))
    gamma = fam.three_diag_gamma(17.0 / 3.0, 1.0)
    blocks = C.validate_pairwise_blocks(prob, gamma)
    assert all(ok for ok, _ in blocks.values())
    ok, lmin = matcore.is_psd(gamma, prob.var_scale())
    assert not ok
    assert lmin == pytest.approx(-2.58, abs=0.02)


def test_inecovf_matches_inecov_for_two_components():
    for (a, b) in [(5.0, 0.5), (2.0, 1.0), (5.9, 0.0)]:
        prob = fam.axis_swap_problem(a, b)
        assert C.check_inecovf(prob).status == C.check_inecov(prob).status


def test_inecovf_three_diag_family_holds():
    target = fam.three_diag_target(5.7, 0.99)
    prob = fam.three_diag_problem(target)
    v = C.check_inecovf(prob)
    assert v.holds
    blocks = C.validate_pairwise_blocks(prob, v.witness, tol=1e-7)
    assert all(ok for ok, _ in blocks.values())


def test_inecovf_equal_components():
    sigma = np.array([[1.0, 0.2], [0.2, 0.7]])
    prob = C.MixtureProblem(p=[0.4, 0.3, 0.3], covs=np.stack([sigma] * 3), target=sigma)
    assert C.check_inecovf(prob).holds


# ---------------------------------------------------------------------------
# shared-correlation condition
# ---------------------------------------------------------------------------


def test_correl_three_diag_threshold_certificate():
    prob = fam.three_diag_problem(np.diag([11.0, 11.0]))
    v = C.check_correl_with(prob, np.eye(2))
    assert v.holds
    cert = v.witness
    assert np.allclose(cert.corr, np.eye(2))
    assert np.allclose(cert.mix_scale, (2.0 + SQRT2) * np.ones(2))
    check = C.validate_correl_certificate(prob, cert)
    assert check["ok"], check
    # weighted stack reproduces the combined scale matrix exactly
    stacked = cert.stacked.reshape(3, 2, 2)
    assert np.array_equal(
        sum(p * s for p, s in zip(prob.p, stacked)), np.diag(cert.mix_scale)
    )

    beyond = fam.three_diag_problem(np.diag([12.0, 12.0]))
    assert C.check_correl_with(beyond, np.eye(2)).fails


def test_correl_rank_deficient_pair_fails_and_unknown():
    prob = fam.rank_deficient_pair(0.0)
    v = C.check_correl_with(prob, np.eye(2))
    assert v.fails
    assert v.witness[0] == "dcd_deficit"
    assert C.find_correl_certificate(prob).status is C.Status.UNKNOWN


def test_correl_equal_components_identity():
    sigma = np.array([[2.0, 0.5], [0.5, 1.0]])
    prob = C.MixtureProblem(p=[0.6, 0.4], covs=np.stack([sigma, sigma]), target=sigma)
    assert C.check_correl_with(prob, np.eye(2)).holds


def test_correl_rejects_singular_basis():
    prob = fam.axis_swap_problem(2.0, 0.0)
    with pytest.raises(C.SingularM):
        C.check_correl_with(prob, np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_find_correl_colinear_margin_zero():
    base = np.array([[2.0, 1.0], [1.0, 1.0]])
    prob = C.MixtureProblem(
        p=[0.5, 0.5],
        covs=np.stack([2.0 * base, 8.0 * base]),
        target=4.5 * base,
    )
    v = C.find_correl_certificate(prob)
    assert v.holds
    assert v.diagnostics["generator"] == "identity"
    assert v.diagnostics["colinear_components"]
    assert abs(v.margin) < 1e-9
    # the saturated target shares the correlation of the corrected-diagonal
    # target, which the checker reports
    assert v.diagnostics["sigma_hat_associated"]


def test_correl_sigma_hat_association_flag():
    # diagonal triple: zero off-diagonals match the corrected target exactly
    v = C.check_correl_with(fam.three_diag_problem(np.diag([11.0, 11.0])), np.eye(2))
    assert v.diagnostics["sigma_hat_associated"]
    # interior axis-swap point: the dominating scale matrix is strictly
    # larger than the target's diagonal, so the association fails
    v = C.check_correl_with(fam.axis_swap_problem(2.0, 1.0), np.eye(2))
    assert v.holds
    assert not v.diagnostics["sigma_hat_associated"]


def test_find_correl_commuting_generator():
    rot = np.array([[math.cos(0.7), -math.sin(0.7)], [math.sin(0.7), math.cos(0.7)]])
    covs = np.stack([rot @ np.diag([3.0, 1.0]) @ rot.T, rot @ np.diag([1.0, 4.0]) @ rot.T])
    target = rot @ np.diag([1.2, 1.5]) @ rot.T
    prob = C.MixtureProblem(p=[0.5, 0.5], covs=covs, target=target)
    v = C.find_correl_certificate(prob)
    assert v.holds
    assert v.diagnostics["generator"] in ("commuting", "identity")
    assert C.validate_correl_certificate(prob, v.witness)["ok"]


def test_find_correl_orthogonal_product_generator():
    lam1, lam2, p1 = 3.0, 5.0, 0.4
    rot = np.array([[math.cos(0.3), -math.sin(0.3)], [math.sin(0.3), math.cos(0.3)]])
    covs = np.stack(
        [rot @ np.diag([lam1, 0.0]) @ rot.T, rot @ np.diag([0.0, lam2]) @ rot.T]
    )
    cross = 0.5 * p1 * (1 - p1) * math.sqrt(lam1 * lam2)
    target_diag = np.array([[p1**2 * lam1, cross], [cross, (1 - p1) ** 2 * lam2]])
    prob = C.MixtureProblem(p=[p1, 1 - p1], covs=covs, target=rot @ target_diag @ rot.T)
    v = C.find_correl_certificate(prob)
    assert v.holds
    assert v.diagnostics["generator"] == "orthogonal_product"
    assert C.validate_correl_certificate(prob, v.witness)["ok"]


def test_correl_diagonal_rescaling_invariance():
    prob = fam.three_diag_problem(np.diag([11.0, 11.0]))
    base = C.check_correl_with(prob, np.eye(2))
    assert base.holds
    rng = CounterRng(5)
    for _ in range(5):
        lam = np.diag(np.where(rng.uniforms(2) > 0.5, 1.0, -1.0) * (0.5 + rng.uniforms(2)))
        moved = C.check_correl_with(prob, lam @ np.eye(2))
        assert moved.holds
        signs = np.sign(np.diag(lam))
        expected = np.outer(signs, signs) * base.witness.corr
        assert np.allclose(moved.witness.corr, expected, atol=1e-8)


def test_certificate_to_gamma_validates():
    prob = fam.three_diag_problem(np.diag([11.0, 11.0]))
    cert = C.check_correl_with(prob, np.eye(2)).witness
    gamma = C.certificate_to_gamma(prob, cert)
    assert C.validate_gamma_witness(prob, gamma, tol=1e-7)["ok"]


NEAR_SINGULAR_M = np.array(
    [[0.9310937580378829, 0.3647799524958746], [0.9310937657842657, 0.3647799327233817]]
)


def test_correl_near_singular_basis_fails_on_its_induced_coupling():
    # cond(M) is about 9.4e7: in the M basis every correlation is about 1 and
    # the gap is tight, but the induced coupling has lambda_min -52.8
    prob = fam.random_chain_problem(77)
    v = C.check_correl_with(prob, NEAR_SINGULAR_M)
    assert v.fails
    kind, witness = v.witness
    assert kind == "induced_gamma_invalid"
    check = C.validate_gamma_witness(prob, witness)
    assert not check["ok"] and check["lmin_gamma"] < -50.0
    assert v.margin == check["lmin_gamma"]


def test_correl_validator_checks_the_induced_coupling(monkeypatch):
    # the certificate the M-basis tests accept for the basis above, caught
    # where check_correl_with hands it to certificate_to_gamma
    prob = fam.random_chain_problem(77)
    certs = []
    real = C.certificate_to_gamma
    monkeypatch.setattr(C, "certificate_to_gamma", lambda prob, cert: certs.append(cert) or real(prob, cert))
    assert C.check_correl_with(prob, NEAR_SINGULAR_M).fails
    check = C.validate_correl_certificate(prob, certs[0])
    assert check["association_err"] <= 1e-7 * prob.var_scale() and check["lmin_gap"] >= 0.0
    assert not check["ok"]
    assert check["induced_lmin_gamma"] < -50.0
    # an exactly singular basis is rejected, not raised on
    certs[0].m = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert not C.validate_correl_certificate(prob, certs[0])["ok"]


def test_find_correl_user_supplied_basis():
    prob = fam.rank_deficient_pair(0.0)
    # any user basis still fails here, but the generator must try them
    v = C.find_correl_certificate(prob, extra_m=[np.array([[1.0, 0.5], [0.0, 1.0]])])
    assert v.status is C.Status.UNKNOWN
    tried = [name for name, *_ in v.diagnostics["tried"]]
    assert "user_0" in tried


# ---------------------------------------------------------------------------
# reverse dominance
# ---------------------------------------------------------------------------


def test_dominated_by_single_examples():
    sigma = np.array([[2.0, 0.1], [0.1, 1.0]])
    prob = C.MixtureProblem(p=[0.5, 0.5], covs=np.stack([sigma, sigma]), target=sigma)
    assert C.check_dominated_by_single(prob).holds

    prob = C.MixtureProblem(
        p=[0.5, 0.5],
        covs=np.stack([np.eye(2), np.diag([1.0, 3.0])]),
        target=2.0 * np.eye(2),
    )
    v = C.check_dominated_by_single(prob)
    assert v.fails
    idx, xi = v.witness
    assert idx == 1
    assert abs(abs(xi[1]) - 1.0) < 1e-12

    prob = C.MixtureProblem(
        p=[0.5, 0.5], covs=np.array([[[1.0]], [[4.0]]]), target=np.array([[4.0]])
    )
    assert C.check_dominated_by_single(prob).holds


def reference_dominated_by_single(prob):
    """:func:`conditions.check_dominated_by_single` as one ``is_psd`` and one ``eigh`` per component."""
    worst_lmin, worst, all_ok = np.inf, None, True
    for i, cov in enumerate(prob.covs):
        ok, lmin = matcore.is_psd(prob.target - cov, prob.var_scale())
        if lmin < worst_lmin:
            worst_lmin = lmin
            worst = (i, np.linalg.eigh(matcore.symmetrize(prob.target - cov))[1][:, 0])
        all_ok = all_ok and ok
    return (C.Status.HOLDS, worst_lmin, None) if all_ok else (C.Status.FAILS, worst_lmin, worst)


def test_dominance_spectrum_gives_the_per_component_bits():
    problems = [fam.random_chain_problem(seed) for seed in range(30)]
    problems += [fam.axis_swap_problem(a, b) for a in (3.0, 5.0, 9.0) for b in (-2.0, 0.0, 1.5)]
    for prob in problems:
        assert C.dominance_spectrum(prob)[1] == [matcore.is_psd(prob.target - c, prob.var_scale())[1] for c in prob.covs]
        v = C.check_dominated_by_single(prob)
        status, margin, witness = reference_dominated_by_single(prob)
        assert (v.status, v.margin) == (status, margin)
        if witness is not None:
            assert v.witness[0] == witness[0] and np.array_equal(v.witness[1], witness[1])


def test_dominated_by_single_rejects_nonzero_means():
    prob = C.MixtureProblem(
        p=[0.5, 0.5],
        covs=np.stack([np.eye(1), np.eye(1)]),
        target=np.eye(1),
        means=np.array([[1.0], [-1.0]]),
    )
    with pytest.raises(C.NonCenteredMeans):
        C.check_dominated_by_single(prob)


# ---------------------------------------------------------------------------
# explicit pair block
# ---------------------------------------------------------------------------


def test_n2_theta_reference_block():
    a = 17.0 / 3.0
    prob = fam.axis_swap_problem(a, 1.0 / 3.0)
    v = C.check_n2_theta(prob, fam.pair_theta(a))
    assert v.holds


def test_n2_theta_zero_block_and_violation():
    sigma = np.array([[1.0, 0.0], [0.0, 1.0]])
    prob = C.MixtureProblem(
        p=[0.5, 0.5], covs=np.stack([sigma, sigma]), target=0.5 * sigma
    )
    assert C.check_n2_theta(prob, np.zeros((2, 2))).holds

    big = 10.0 * np.eye(2)  # (e1' Theta e1)^2 far beyond the product bound
    v = C.check_n2_theta(prob, big)
    assert v.fails
    assert v.witness[0] == "pair_block"


def test_n2_theta_dimension_errors():
    prob = fam.three_diag_problem(np.eye(2))
    with pytest.raises(C.DimensionMismatch):
        C.check_n2_theta(prob, np.zeros((2, 2)))
    with pytest.raises(C.DimensionMismatch):
        C.check_n2_theta(fam.axis_swap_problem(2.0, 0.0), np.zeros((3, 3)))


# ---------------------------------------------------------------------------
# orthogonal factors
# ---------------------------------------------------------------------------


def test_orthogonal_factors_equal_blocks_identity():
    sigma = np.array([[2.0, 0.5], [0.5, 1.5]])
    prob = C.MixtureProblem(p=[0.5, 0.5], covs=np.stack([sigma, sigma]), target=sigma)
    gamma = np.block([[sigma, sigma], [sigma, sigma]])
    factors, verdict = C.orthogonal_factors_from_gamma(prob, gamma)
    assert verdict.holds
    for o in factors:
        assert matcore.fro_norm(o @ o.T - np.eye(4)) <= 1e-8


def test_orthogonal_factors_rank_deficient_witness():
    prob = fam.rank_deficient_pair(0.0)
    factors, verdict = C.orthogonal_factors_from_gamma(prob, fam.RANK_DEFICIENT_GAMMA)
    assert verdict.holds
    assert verdict.diagnostics["ortho_defect"] <= 1e-8


def test_orthogonal_factors_rejects_small_q():
    prob = fam.rank_deficient_pair(0.0)
    with pytest.raises(C.DimensionMismatch):
        C.orthogonal_factors_from_gamma(prob, fam.RANK_DEFICIENT_GAMMA, q=3)


# ---------------------------------------------------------------------------
# implication chain
# ---------------------------------------------------------------------------


def test_chain_separation_problem():
    report = C.implication_chain_report(fam.rank_deficient_pair(0.0), mc_samples=10000)
    assert report.correl.status is C.Status.UNKNOWN
    assert report.inecov.holds
    assert report.inecovf.holds
    assert report.inegsqrt.holds


def test_chain_interior_point_all_holds():
    report = C.implication_chain_report(fam.axis_swap_problem(2.0, 1.0), mc_samples=10000)
    assert report.correl.holds
    assert report.inecov.holds
    assert report.inecovf.holds
    assert report.inegsqrt.holds
    assert report.order_evidence.holds


def assert_chain_reuses_inecov_holds(monkeypatch, prob, seed=0):
    def unexpected(*args, **kwargs):
        raise AssertionError("inecovf decided again after inecov held")

    monkeypatch.setattr(C, "check_inecovf", unexpected)
    report = C.implication_chain_report(prob, mc_samples=2000, seed=seed)
    assert report.inecov.holds
    assert report.inecovf is report.inecov
    # inecov's full-cone witness is a pairwise one: each pair block interlaces the whole
    assert C.validate_gamma_witness(prob, report.inecovf.witness, pairwise=True)["ok"]
    assert all(ok for ok, _ in C.validate_pairwise_blocks(prob, report.inecovf.witness).values())


def test_chain_two_components_decides_coupling_once(monkeypatch):
    assert_chain_reuses_inecov_holds(monkeypatch, fam.axis_swap_problem(2.0, 1.0))


def test_chain_three_components_reuse_an_inecov_holds(monkeypatch):
    prob = fam.random_chain_problem(38)
    assert (prob.n, prob.d) == (3, 2)
    assert_chain_reuses_inecov_holds(monkeypatch, prob, seed=38)


@pytest.mark.parametrize("seed", [2, 77])  # n = 3: inecov fails (by inegsqrt); inecov unknown
def test_chain_decides_inecovf_when_inecov_does_not_hold(monkeypatch, seed):
    calls = []
    check_inecovf = C.check_inecovf

    def counted(*args, **kwargs):
        calls.append(seed)
        return check_inecovf(*args, **kwargs)

    monkeypatch.setattr(C, "check_inecovf", counted)
    prob = fam.random_chain_problem(seed)
    report = C.implication_chain_report(prob, mc_samples=2000, seed=seed)
    assert prob.n == 3 and not report.inecov.holds
    assert calls == [seed]
    assert report.inecovf is not report.inecov
    assert report.inecovf.status == (C.Status.FAILS if seed == 2 else C.Status.HOLDS)


def test_chain_scaled_up_target_all_fail():
    base = fam.axis_swap_problem(2.0, 1.0)
    prob = C.MixtureProblem(p=base.p, covs=base.covs, target=100.0 * base.target)
    report = C.implication_chain_report(prob, mc_samples=10000)
    assert report.inegsqrt.fails
    assert report.inecov.fails
    assert report.inecovf.fails
    assert report.order_evidence.fails
