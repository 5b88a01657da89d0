import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from families import (
    axis_swap_problem,
    clear_shared_caches,
    random_chain_problem,
    random_psd,
    rank_deficient_pair,
    RANK_DEFICIENT_GAMMA,
)
from gmcvx import matcore, psdfeas
from gmcvx.conditions import MixtureProblem
from gmcvx.rng import CounterRng
from gmcvx.utils import golden_section_minimize


def random_instance(seed, n, d, shrink=0.9, cone=psdfeas.FULL):
    """Feasible-by-construction task: blocks of a random PSD coupling."""
    rng = CounterRng(seed)
    g = rng.normal_matrix(n * d, n * d)
    gamma0 = matcore.symmetrize(g @ g.T)
    covs = np.stack([gamma0[i * d : (i + 1) * d, i * d : (i + 1) * d] for i in range(n)])
    p = np.full(n, 1.0 / n)
    target = shrink * psdfeas.mix_compress(gamma0, p, d)
    return psdfeas.FeasibilityTask(MixtureProblem(p, covs, target), cone), gamma0


def test_all_blocks_equal_target_feasible_fast():
    sigma = np.array([[2.0, 0.5], [0.5, 1.0]])
    task = psdfeas.FeasibilityTask(MixtureProblem([0.5, 0.5], np.stack([sigma, sigma]), sigma), psdfeas.FULL)
    out = psdfeas.solve(task)
    assert out.feasible
    assert out.iterations <= 5


def test_rank_deficient_pair_instance_feasible():
    prob = rank_deficient_pair(0.0)
    task = psdfeas.FeasibilityTask(prob, psdfeas.FULL)
    out = psdfeas.solve(task)
    assert out.feasible
    check = psdfeas.validate_gamma(task, out.gamma, 1e-7)
    assert check["ok"], check
    # the stored witness also validates but the engine found its own
    assert psdfeas.validate_gamma(task, RANK_DEFICIENT_GAMMA, 1e-9)["ok"]


def test_exterior_point_hits_iteration_cap_with_residual():
    # an n = 3 full-cone problem that no construction makes feasible: solve
    # takes no iteration past its warm start and reports the residual there
    prob = random_chain_problem(77)
    task = psdfeas.FeasibilityTask(prob, psdfeas.FULL)
    assert task.n == 3
    out = psdfeas.solve(task)
    assert out.status == psdfeas.NO_FEASIBLE_CANDIDATE and out.iterations == 0
    assert min(out.check["lmin_gamma"], out.check["lmin_slack"]) < -1e-3
    assert np.array_equal(out.gamma, psdfeas.warm_start_from(task, psdfeas.default_candidates(task))[0])


def test_n2_exterior_point_returns_the_warm_start():
    # with n = 2 the contraction coupling decides: solve returns its warm start
    prob = axis_swap_problem(6.0, 0.0)
    task = psdfeas.FeasibilityTask(prob, psdfeas.FULL)
    out = psdfeas.solve(task)
    assert out.status == psdfeas.NO_FEASIBLE_CANDIDATE and out.iterations == 0
    assert min(out.check["lmin_gamma"], out.check["lmin_slack"]) < -1e-3
    assert np.array_equal(out.gamma, psdfeas.warm_start_from(task, psdfeas.default_candidates(task))[0])


@pytest.mark.parametrize("seed, d", [(60, 1), (61, 2), (62, 3)])
def test_n2_task_takes_the_pairwise_cone_whose_one_block_is_gamma(seed, d):
    task, gamma0 = random_instance(seed, 2, d)
    assert task.cone == psdfeas.PAIRWISE
    assert psdfeas.FeasibilityTask(random_chain_problem(77), psdfeas.FULL).cone == psdfeas.FULL  # n = 3
    # the one pair block is the whole Gamma, so its lambda_min has the bits of Gamma's
    indefinite = gamma0 - 2.0 * np.eye(2 * d) * float(np.trace(gamma0))
    rows = task.pair_rows[0]
    assert np.array_equal(indefinite[rows[:, None], rows], indefinite)
    lmin_gamma, _ = psdfeas._lmins(task, indefinite[None], np.eye(d)[None])
    assert lmin_gamma[0] == np.linalg.eigvalsh(indefinite)[0]


@pytest.mark.parametrize("cone", [psdfeas.FULL, psdfeas.PAIRWISE])
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7])
def test_oracle_cross_check_random_instances(seed, cone):
    # every n = 2 task takes the pairwise cone, so the full cone runs at n = 3
    n = 3 if cone == psdfeas.FULL else 2
    task, _ = random_instance(seed, n=n, d=2, shrink=0.85, cone=cone)
    assert task.cone == cone
    out = psdfeas.solve(task)
    assert out.feasible, out.check
    assert psdfeas.validate_gamma(task, out.gamma, 1e-7)["ok"]


def rotation_parts(w, a, b, count=128):
    """:func:`psdfeas._rotation_parts_2d` of the one pair term ``w (a K b + sym)``."""
    return psdfeas._rotation_parts_2d((np.array([w]), a[None], b[None]), count)


def rotation_coeffs(c0, w, a, b, branch):
    """``(z, P, Q)`` of the pair term ``w (a K b + sym)`` on ``c0``, as :func:`psdfeas._rotation_grid_2d` reads them."""
    (z00, _), (z01, z11) = c0.tolist()
    pq = rotation_parts(w, a, b)[0][0 if branch == 1.0 else 1].tolist()
    return (z00, z01, z11), pq[:3], pq[3:]


def rotation_grid(c0, w, a, b, count):
    """:func:`psdfeas._rotation_grid_2d` of the one pair term ``w (a K b + sym)``."""
    return psdfeas._rotation_grid_2d(c0, rotation_parts(w, a, b, count), count)


def test_rotation_objective_matches_eigvalsh():
    # closed-form lambda_min of the rotated slack against the matrix it stands for
    rng = CounterRng(607)
    for trial in range(40):
        a = random_psd(rng, 2, 1 + trial % 2)
        b = random_psd(rng, 2, 1 + (trial // 2) % 2)
        g = 10.0 ** (4.0 * rng.uniforms(1)[0] - 2.0) * rng.normal_matrix(2, 2)
        c0, w = g + g.T, float(rng.uniforms(1)[0])
        for branch in (1.0, -1.0):
            neg_lmin = psdfeas._rotation_neg_lmin_2d(rotation_coeffs(c0, w, a, b, branch))
            for phi in 2.0 * np.pi * rng.uniforms(6):
                c, s = np.cos(phi), np.sin(phi)
                t = a @ np.array([[c, -s * branch], [s, c * branch]]) @ b
                slack = c0 + w * (t + t.T)
                ref = np.linalg.eigvalsh(slack)[0]
                assert abs(-neg_lmin(phi) - ref) <= 1e-12 * (1.0 + np.abs(slack).max())


def reference_rotation_grid(c0, w, a, b, count):
    """:func:`psdfeas._rotation_grid_2d` with its grid as a (count, 2, 2)
    stack of slacks, built by ``einsum`` and scored by ``eigvalsh``. Returns
    ``(value, K)`` and the golden-section bracket of each branch."""
    phis = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
    c, s = np.cos(phis), np.sin(phis)
    width = 2.0 * np.pi / count
    best, brackets = (-np.inf, None), []
    for branch in (1.0, -1.0):
        ks = np.stack([np.stack([c, -s * branch], -1), np.stack([s, c * branch], -1)], -2)
        t = np.einsum("ij,mjk,kl->mil", a, ks, b)
        idx = int(np.argmax(np.linalg.eigvalsh(c0[None] + w * (t + np.transpose(t, (0, 2, 1))))[:, 0]))
        brackets.append((phis[idx] - width, phis[idx] + width))
        phi_best, negval = golden_section_minimize(
            psdfeas._rotation_neg_lmin_2d(rotation_coeffs(c0, w, a, b, branch)),
            phis[idx] - width,
            phis[idx] + width,
            xtol=1e-12,
        )
        if -negval > best[0]:
            best = (-negval, np.array([[math.cos(phi_best), -math.sin(phi_best) * branch],
                                       [math.sin(phi_best), math.cos(phi_best) * branch]]))
    return best, brackets


@pytest.mark.parametrize("count", [256, 128])
def test_rotation_grid_matches_eigvalsh_grid(monkeypatch, count):
    # same grid argmax (hence the same golden-section brackets) and the same
    # (value, K) bits as the eigvalsh grid, on random pair terms
    brackets = []
    real = psdfeas.golden_section_minimize

    def recording(f, lo, hi, **kwargs):
        brackets.append((lo, hi))
        return real(f, lo, hi, **kwargs)

    monkeypatch.setattr(psdfeas, "golden_section_minimize", recording)
    rng = CounterRng(911 + count)
    for trial in range(150):
        a = random_psd(rng, 2, 1 + trial % 2)
        b = random_psd(rng, 2, 1 + (trial // 2) % 2)
        g = 10.0 ** (4.0 * rng.uniforms(1)[0] - 2.0) * rng.normal_matrix(2, 2)
        c0, w = matcore.symmetrize(g + g.T), float(rng.uniforms(1)[0])
        val, k = rotation_grid(c0, w, a, b, count)
        (ref_val, ref_k), ref_brackets = reference_rotation_grid(c0, w, a, b, count)
        assert brackets[-2:] == ref_brackets
        assert val == ref_val and np.array_equal(k, ref_k)


@pytest.mark.parametrize("seed", [6, 48, 87])
def test_pairwise_solve_is_feasible_at_the_warm_start(seed):
    # n = 3 pairwise problems made feasible at the warm start by the
    # contraction coupling, one of the default candidates
    prob = random_chain_problem(seed)
    task = psdfeas.FeasibilityTask(prob, psdfeas.PAIRWISE)
    assert task.n == 3
    out = psdfeas.solve(task)
    assert out.feasible and out.iterations == 0
    assert psdfeas.validate_gamma(task, out.gamma, matcore.EPS_ENGINE)["ok"]


def test_warm_start_prefers_feasible_candidate():
    prob = rank_deficient_pair(0.0)
    task = psdfeas.FeasibilityTask(prob, psdfeas.FULL)
    start, check = psdfeas.warm_start_from(task, [np.zeros((4, 4)), RANK_DEFICIENT_GAMMA])
    assert np.allclose(start, RANK_DEFICIENT_GAMMA) and check["ok"]


def test_warm_start_dominated_target_uses_shared_blocks():
    # target below every component: off-diagonal blocks equal to the target
    sigma = np.array([[1.0, 0.2], [0.2, 0.8]])
    covs = np.stack([sigma + np.eye(2), sigma + 2.0 * np.eye(2)])
    task = psdfeas.FeasibilityTask(MixtureProblem([0.4, 0.6], covs, sigma), psdfeas.FULL)
    cands = psdfeas.default_candidates(task)
    shared = cands[1]
    assert np.allclose(shared[0:2, 2:4], sigma)
    slack = psdfeas.mix_compress(shared, task.p, 2) - task.target
    assert matcore.is_psd(shared, task.scale)[0] and matcore.is_psd(slack, task.scale)[0]
    out = psdfeas.solve(task)
    assert out.feasible and out.iterations == 0


def test_first_default_candidate_is_block_diagonal():
    task, _ = random_instance(40, n=2, d=2)
    first = psdfeas.default_candidates(task)[0]
    assert np.abs(first[0:2, 2:4]).max() == 0.0 and np.abs(first[2:4, 0:2]).max() == 0.0


def reference_warm_key(task, cand):
    """Pinned Gamma and warm-start key of one candidate: how far it misses the
    acceptance test, max(0, -lambda_min of Gamma or of each pair block, -lambda_min
    of the slack), from one ``eigvalsh`` per matrix, and the slack's smallest eigenvalue."""
    pinned = psdfeas.pin_blocks(matcore.symmetrize(cand), task.blocks)
    slack = psdfeas.mix_compress(pinned, task.p, task.d) - task.target

    def lmin(a):
        return float(np.linalg.eigvalsh(a)[0])

    if task.cone == psdfeas.FULL:
        parts = [pinned]
    else:
        d = task.d
        rows = [[*range(i * d, (i + 1) * d), *range(j * d, (j + 1) * d)] for i, j in task.pairs]
        parts = [pinned[np.ix_(r, r)] for r in rows]
    short = max([0.0, *(-lmin(part) for part in parts), -lmin(slack)])
    return pinned, (short if short > matcore.EPS_ROUND * task.scale else 0.0, -lmin(slack))


def reference_warm_start(task, candidates):
    """:func:`psdfeas.warm_start_from` scoring one candidate at a time."""
    nd = task.n * task.d
    best, best_key = None, None

    def score(cand):
        nonlocal best, best_key
        cand = np.asarray(cand, dtype=float)
        if cand.shape != (nd, nd):
            return
        pinned, key = reference_warm_key(task, cand)
        if best_key is None or key < best_key:
            best, best_key = pinned, key

    for cand in candidates:
        score(cand)
    if task.cone == psdfeas.FULL and task.n >= 3 and (best_key is None or best_key[0] > matcore.EPS_ENGINE * task.scale):
        score(task.factor_ascent[1])
    return best


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from([3, 4]),
    st.sampled_from([1, 2, 3]),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_pairwise_shortfall_is_at_most_the_full_one(seed, n, d, slack_size):
    # a pair block is a principal submatrix, so by Cauchy interlacing its
    # smallest eigenvalue is at least Gamma's: it misses the acceptance test
    # by no more than Gamma does; Gamma need not be PSD and the slack is shared
    rng = CounterRng(seed)
    gamma = matcore.symmetrize(rng.normal_matrix(n * d, n * d))
    slack = slack_size * matcore.symmetrize(rng.normal_matrix(d, d))
    prob = MixtureProblem(np.full(n, 1.0 / n), np.stack([np.eye(d)] * n), np.eye(d))
    full, pairwise = (
        max(0.0, *(-float(lmin[0]) for lmin in psdfeas._lmins(psdfeas.FeasibilityTask(prob, cone), gamma[None], slack[None])))
        for cone in (psdfeas.FULL, psdfeas.PAIRWISE)
    )
    assert pairwise <= full + 1e-12 * matcore.fro_norm(gamma)


@pytest.mark.parametrize("cone", [psdfeas.FULL, psdfeas.PAIRWISE])
@pytest.mark.parametrize("seed, n, d", [(50, 2, 2), (51, 2, 3), (52, 3, 2), (53, 3, 3)])
def test_batched_warm_start_matches_per_candidate_loop(seed, n, d, cone):
    # random, feasible, default, repeated and wrong-shape candidates
    task, gamma0 = random_instance(seed, n, d, cone=cone)
    # full at n = 2 deliberately runs the override: the task scores on the pairwise cone
    assert task.cone == (psdfeas.PAIRWISE if n == 2 else cone)
    rng = CounterRng(seed, stream=5)
    nd = n * d
    noise = [matcore.symmetrize(rng.normal_matrix(nd, nd)) for _ in range(3)]
    defaults = psdfeas.default_candidates(task)
    cands = [*noise, defaults[0], gamma0, np.zeros((nd + 1, nd + 1)), *defaults, gamma0.copy(), noise[1]]
    start, check = psdfeas.warm_start_from(task, cands)
    assert np.array_equal(start, reference_warm_start(task, cands))
    # the report solve() reads has the bits of validating the start on its own
    assert check == psdfeas.validate_gamma(task, start, matcore.EPS_ENGINE)
    for subset in (noise, noise[::-1], defaults):
        assert np.array_equal(psdfeas.warm_start_from(task, subset)[0], reference_warm_start(task, subset))
    # and each candidate's key has the bits of its own scoring, also where
    # overshot off-diagonal blocks make the pair blocks indefinite
    overshoot = [psdfeas.pin_blocks(t * gamma0, task.blocks) for t in (1.2, 1.6, 2.5)]
    stack = [*noise, gamma0, *overshoot, *defaults]
    for (key, pinned, _), cand in zip(psdfeas._score_candidates(task, stack), stack):
        ref_pinned, ref_key = reference_warm_key(task, cand)
        assert key == ref_key and np.array_equal(pinned, ref_pinned)


def test_batched_warm_start_matches_per_candidate_loop_with_factor_ascent():
    # no default candidate is feasible, so the factor coupling is scored last and wins
    prob = random_chain_problem(32)
    task = psdfeas.FeasibilityTask(prob, psdfeas.FULL, seed=32, ascent_iters=200)
    cands = psdfeas.default_candidates(task)
    start, check = psdfeas.warm_start_from(task, cands)
    assert "factor_ascent" in vars(task)
    assert check == psdfeas.validate_gamma(task, start, matcore.EPS_ENGINE)
    assert np.array_equal(start, reference_warm_start(task, cands))
    assert np.array_equal(start, psdfeas.pin_blocks(matcore.symmetrize(task.factor_ascent[1]), task.blocks))


def test_contraction_candidate_closes_pair_slack():
    # n = 2, d = 2 with a nonsingular first block: the contraction candidate
    # (last) makes the weighted block sum as large as the analytic two-sided bound
    prob = axis_swap_problem(3.0 + 2.0 * np.sqrt(2.0) - 1e-9, 0.0)
    task = psdfeas.FeasibilityTask(prob, psdfeas.FULL)
    cand = psdfeas.default_candidates(task)[-1]
    mix = psdfeas.mix_compress(cand, task.p, 2)
    assert np.allclose(mix, (3.0 + 2.0 * np.sqrt(2.0)) * np.eye(2), atol=1e-9)


def test_task_roots_computed_once_per_task(monkeypatch):
    clear_shared_caches()
    calls = []
    real = matcore.sqrt_psd
    monkeypatch.setattr(matcore, "sqrt_psd", lambda a: calls.append(1) or real(a))
    # a full-cone solve with n = 3, d = 2 never needs the roots
    task3, _ = random_instance(7, n=3, d=2)
    assert psdfeas.solve(task3).feasible
    assert calls == [] and "roots" not in vars(task3)

    # the contraction ascent, its Gamma, the warm starts and the dual bound
    # share the two block roots
    prob = axis_swap_problem(6.1, 0.0)
    task = psdfeas.FeasibilityTask(prob, psdfeas.FULL, ascent_iters=20)
    _, ks, y, _ = task.ascent
    psdfeas.gamma_from_contractions(task, ks)
    psdfeas.default_candidates(task)
    psdfeas.dual_refutation_value(task, y)
    assert len(calls) == 2
    for root, block in zip(task.roots, task.blocks):
        assert np.allclose(root @ root, block, atol=1e-12)
    assert np.array_equal(task.offset, matcore.symmetrize(np.einsum("i,ikl->kl", task.p**2, task.blocks) - task.target))
    # a task of another problem with the same components computes none again
    other = psdfeas.FeasibilityTask(MixtureProblem(prob.p, axis_swap_problem(5.0, 0.5).covs, np.eye(2)), psdfeas.FULL)
    psdfeas.default_candidates(other)
    assert len(calls) == 2 and other.roots is task.roots



def reference_ascent(task):
    """:func:`psdfeas.contraction_ascent` as a plain loop, one start after
    another and one pair at a time: each start runs all its evaluations,
    then every start is cut at the first evaluation at which any start's
    value is at least ``-EPS_ENGINE * scale``, where the slack passes the
    re-check. Returns ``(value, contractions, tail average, evaluations)``,
    the tail average None from that value up, and the step at which each
    start stopped."""
    weights, roots_i, roots_j = task.root_pairs
    pairs = list(zip(weights.tolist(), roots_i, roots_j))
    c0, d, iters = task.offset, task.d, task.ascent_iters

    def slack(ks):
        h = c0.copy()
        for (w, a, b), k in zip(pairs, ks):
            t = a @ k @ b
            h += w * (t + t.T)
        return h

    rng = CounterRng(task.seed, stream=29)
    start_sets = [[np.zeros((d, d)) for _ in pairs], [np.eye(d) for _ in pairs]]
    if d == 2 and len(pairs) == 1:
        start_sets.append([rotation_grid(c0, *pairs[0], 256)[1]])
    rand = []
    for _ in pairs:
        u, _, vt = np.linalg.svd(rng.normal_matrix(d, d))
        rand.append(u @ vt)
    start_sets.append(rand)

    runs, stops = [], []  # per start, the value, contractions and bottom eigenvector of each evaluation
    for ks in start_sets:
        run = []
        stops.append(iters)
        for it in range(1, iters + 1):
            w, q = np.linalg.eigh(slack(ks))
            vec = q[:, 0]
            run.append((float(w[0]), [k.copy() for k in ks], vec))
            grads = [2.0 * wij * np.outer(a @ vec, b @ vec) for wij, a, b in pairs]
            gnorm = math.sqrt(sum(float(np.sum(g * g)) for g in grads))
            if gnorm == 0.0:
                stops[-1] = it
                break
            step = 0.5 / math.sqrt(it)
            stepped = []
            for k, g in zip(ks, grads):
                k = k + step * g / gnorm
                u, s, vt = np.linalg.svd(k)
                stepped.append(k if s[0] <= 1.0 else (u * np.minimum(s, 1.0)) @ vt)
            ks = stepped
        runs.append(run)
    stop = -matcore.EPS_ENGINE * task.scale
    cleared = [k + 1 for run in runs for k, (val, _, _) in enumerate(run) if val >= stop]
    evals = min(cleared) if cleared else max(len(run) for run in runs)

    best_val, best_ks, tail = -np.inf, None, []
    for run in runs:
        for k, (val, ks, vec) in enumerate(run[:evals]):
            if val > best_val:
                best_val, best_ks = val, ks
            if k >= iters - 25:
                tail.append(np.outer(vec, vec))
    if d == 2 and len(pairs) > 1:
        polished = psdfeas._coordinate_rotation_polish(c0, task.root_pairs, best_ks, task.scale)
        val = float(np.linalg.eigvalsh(slack(polished))[0])
        if val > best_val:
            best_val, best_ks = val, polished
    y = None
    if best_val < stop:
        y = matcore.symmetrize(sum(tail) / len(tail))
        y = y / float(np.trace(y))
    return best_val, np.array(best_ks), y, evals, stops


# a target scale (shrink) at which no start of the contraction ascent clears
# the tolerance in 80 steps on the instances of the per-start comparison
NO_PAIR_START_CLEARS = 2.0


@pytest.mark.parametrize(
    "n, d, cone", [(2, 3, psdfeas.FULL), (3, 2, psdfeas.PAIRWISE), (3, 3, psdfeas.PAIRWISE)]
)
def test_batched_ascent_matches_per_start_loop(n, d, cone):
    task, _ = random_instance(40 + n + d, n=n, d=d, shrink=NO_PAIR_START_CLEARS, cone=cone)
    task = dataclasses.replace(task, seed=5, ascent_iters=80)
    val, ks, y, evals = task.ascent
    ref_val, ref_ks, ref_y, ref_evals, _ = reference_ascent(task)
    assert val == ref_val and evals == ref_evals == 80
    assert np.array_equal(ks, ref_ks)
    assert np.array_equal(y, ref_y)


@pytest.mark.parametrize(
    "seed, n, cone, shrink, expected", [(49, 2, psdfeas.FULL, 1.12, 5), (46, 3, psdfeas.PAIRWISE, 1.44, 6)]
)
def test_contraction_ascent_stops_once_a_start_clears_the_tolerance(seed, n, cone, shrink, expected):
    # d = 3, so no rotation polish follows the loop
    task, _ = random_instance(seed, n=n, d=3, shrink=shrink, cone=cone)
    task = dataclasses.replace(task, seed=5, ascent_iters=80)
    val, ks, y, evals = task.ascent
    ref_val, ref_ks, ref_y, ref_evals, _ = reference_ascent(task)
    assert val == ref_val and evals == ref_evals == expected
    assert np.array_equal(ks, ref_ks)
    assert y is None and ref_y is None  # a stopped ascent keeps no tail
    assert reference_batched_contraction_ascent(task)[3] == expected
    # no start passed the re-check before the last evaluation, which did
    stop = -matcore.EPS_ENGINE * task.scale
    assert dataclasses.replace(task, ascent_iters=evals - 1).ascent[0] < stop <= val
    check = psdfeas.validate_gamma(task, task.ascent_gamma, 1e-12)
    assert check["ok"] and abs(check["lmin_slack"] - val) <= 1e-12 * task.scale


def test_contraction_ascent_without_a_clearing_start_runs_as_without_the_stop(monkeypatch):
    # outside the pairwise region no start clears the tolerance, so the loop
    # takes every step with the bits of a loop that has no stop value, and
    # its tail still refutes
    task = psdfeas.FeasibilityTask(axis_swap_problem(6.1, 0.0), psdfeas.PAIRWISE, ascent_iters=200)
    val, ks, y, evals = psdfeas.contraction_ascent(task)
    real = psdfeas._batched_ascent

    def unstopped_loop(xs, best, steps, evaluate, supergradient, retract, stop):
        return real(xs, best, steps, evaluate, supergradient, retract, math.inf)

    monkeypatch.setattr(psdfeas, "_batched_ascent", unstopped_loop)
    unstopped = psdfeas.contraction_ascent(task)
    assert evals == unstopped[3] == 200
    assert val == unstopped[0] and np.array_equal(ks, unstopped[1]) and np.array_equal(y, unstopped[2])
    assert psdfeas.dual_refutation_value(task, y) < -matcore.EPS_ENGINE * task.scale


def test_batched_ascent_stops_a_start_whose_supergradient_vanishes():
    # component 0 has root diag(1, 1, 0) and the slack at K = 0 is diagonal
    # with its smallest entry last: the zero start's bottom eigenvector is
    # e3, which that root maps to 0, while the other starts keep stepping;
    # component 1 is large enough that the target stays PSD
    p = np.array([0.4, 0.6])
    g = CounterRng(41).normal_matrix(3, 3)
    blocks = np.stack([np.diag([1.0, 1.0, 0.0]), 10.0 * matcore.symmetrize(g @ g.T)])
    pinned = np.einsum("i,ikl->kl", p**2, blocks)
    prob = MixtureProblem(p, blocks, pinned - np.diag([1.0, 2.0, -5.0]))
    task = psdfeas.FeasibilityTask(prob, psdfeas.PAIRWISE, seed=3, ascent_iters=60)
    assert np.count_nonzero(task.offset - np.diag(np.diag(task.offset))) == 0
    val, ks, y, evals = task.ascent
    ref_val, ref_ks, ref_y, ref_evals, stops = reference_ascent(task)
    assert stops == [1, 60, 60] and evals == ref_evals == 60
    assert val == ref_val
    assert np.array_equal(ks, ref_ks)
    assert np.array_equal(y, ref_y)


def test_batched_ascent_keeps_the_first_start_on_a_tie():
    # a zero block makes every pair term and supergradient vanish: all starts
    # tie on the value of c0, and the zero start, which comes first, wins
    blocks = np.stack([np.diag([1.0, 2.0, 3.0]), np.zeros((3, 3))])
    prob = MixtureProblem([0.5, 0.5], blocks, np.eye(3))
    task = psdfeas.FeasibilityTask(prob, psdfeas.PAIRWISE, seed=3, ascent_iters=10)
    val, ks, y, evals = task.ascent
    ref_val, ref_ks, ref_y, ref_evals, stops = reference_ascent(task)
    assert stops == [1, 1, 1] and evals == ref_evals == 1
    assert np.array_equal(ks, np.zeros((1, 3, 3)))
    assert val == ref_val
    assert np.array_equal(ks, ref_ks)
    assert np.array_equal(y, ref_y)


def reference_factor_ascent(task):
    """:func:`psdfeas.factor_ascent` as a plain loop, one start after another
    and one component at a time: each start runs all its steps, then every
    start is cut at the first evaluation at which any start's value is at
    least ``-EPS_ENGINE * scale``. Returns ``(value, Gamma, evaluations)``."""
    n, d, iters = task.n, task.d, task.ascent_iters
    nd = n * d
    roots = [np.asarray(r) for r in task.roots]
    weighted = [p * r for p, r in zip(task.p.tolist(), roots)]

    def polar(a):
        u, _, vt = np.linalg.svd(a, full_matrices=False)
        return u @ vt

    draws = CounterRng(task.seed, stream=31).normal_matrix(3 * nd, nd)
    start_sets = [[np.eye(d, nd) for _ in range(n)]]
    for s in range(3):
        start_sets.append([polar(draws[(s * n + i) * d : (s * n + i + 1) * d]) for i in range(n)])

    runs = []  # per start, the value and factors of each evaluation
    for os_ in start_sets:
        run = []
        for it in range(iters + 1):
            m = weighted[0] @ os_[0]
            for i in range(1, n):
                m = m + weighted[i] @ os_[i]
            w, q = np.linalg.eigh(m @ m.T - task.target)
            run.append((float(w[0]), [o.copy() for o in os_]))
            if it == iters:
                break
            vec, mv = q[:, 0], m.T @ q[:, 0]
            grads = [2.0 * np.outer(wr @ vec, mv) for wr in weighted]
            gnorm = math.sqrt(sum(float(np.sum(g * g)) for g in grads))
            if gnorm == 0.0:
                break
            step = 0.5 / math.sqrt(it + 1)
            os_ = [polar(o + step * g / gnorm) for o, g in zip(os_, grads)]
        runs.append(run)
    stop = -matcore.EPS_ENGINE * task.scale
    cleared = [k + 1 for run in runs for k, (val, _) in enumerate(run) if val >= stop]
    evals = min(cleared) if cleared else max(len(run) for run in runs)

    best_val, best_os = -np.inf, None
    for run in runs:
        for val, os_ in run[:evals]:
            if val > best_val:
                best_val, best_os = val, os_
    stacked = np.vstack([r @ o for r, o in zip(roots, best_os)])
    return best_val, stacked @ stacked.T, evals


# per d, a target scale (shrink) at which no start clears the tolerance in
# 60 steps, and one at which a start clears it after a few steps
NO_START_CLEARS = {2: 2.5, 3: 2.0}
CLEARS_AFTER_STEPS = {2: (2.2, 5), 3: (1.9, 6)}


@pytest.mark.parametrize("d", [2, 3])
def test_batched_factor_ascent_matches_per_start_loop(d):
    task, _ = random_instance(50 + d, n=3, d=d, shrink=NO_START_CLEARS[d])
    task = dataclasses.replace(task, seed=7, ascent_iters=60)
    val, gamma, evals = task.factor_ascent
    ref_val, ref_gamma, ref_evals = reference_factor_ascent(task)
    assert val == ref_val and evals == ref_evals == 61
    assert np.array_equal(gamma, ref_gamma)
    # the steps gain over the starts, and Gamma is PSD with the pinned blocks
    assert val > dataclasses.replace(task, ascent_iters=0).factor_ascent[0]
    check, tol = psdfeas.validate_gamma(task, gamma, 1e-12), 1e-12 * task.scale
    assert check["block_err"] <= tol and check["lmin_gamma"] >= -tol
    assert abs(check["lmin_slack"] - val) <= tol


@pytest.mark.parametrize("d", [2, 3])
def test_factor_ascent_stops_once_a_start_clears_the_tolerance(d):
    shrink, expected = CLEARS_AFTER_STEPS[d]
    task, _ = random_instance(50 + d, n=3, d=d, shrink=shrink)
    task = dataclasses.replace(task, seed=7, ascent_iters=60)
    val, gamma, evals = task.factor_ascent
    ref_val, ref_gamma, ref_evals = reference_factor_ascent(task)
    assert val == ref_val and evals == ref_evals == expected
    assert np.array_equal(gamma, ref_gamma)
    # no start passed the re-check before the last evaluation, which did
    stop = -matcore.EPS_ENGINE * task.scale
    assert dataclasses.replace(task, ascent_iters=evals - 2).factor_ascent[0] < stop <= val
    check = psdfeas.validate_gamma(task, gamma, 1e-12)
    assert check["ok"] and abs(check["lmin_slack"] - val) <= 1e-12 * task.scale


def test_factor_ascent_without_a_clearing_start_runs_as_without_the_stop(monkeypatch):
    # seed 77: no start clears the tolerance, so the loop takes every step,
    # with the bits of a loop that has no stop value
    task = psdfeas.FeasibilityTask(random_chain_problem(77), psdfeas.FULL, seed=77, ascent_iters=200)
    val, gamma, evals = psdfeas.factor_ascent(task)
    real = psdfeas._batched_ascent

    def unstopped_loop(xs, best, steps, evaluate, supergradient, retract, stop):
        return real(xs, best, steps, evaluate, supergradient, retract, math.inf)

    monkeypatch.setattr(psdfeas, "_batched_ascent", unstopped_loop)
    unstopped = psdfeas.factor_ascent(task)
    assert evals == unstopped[2] == 201
    assert val == unstopped[0] and np.array_equal(gamma, unstopped[1])


def reference_batched_contraction_ascent(task):
    """:func:`psdfeas.contraction_ascent` with its own batched loop:
    ``task.ascent_iters`` eigh evaluations from -inf, the first scoring the
    starts, each followed by a step (the last one never scored), ending
    after the first evaluation at which a start's value is at least
    ``-EPS_ENGINE * scale``, and then with no tail average; with no
    iterations the starts are scored by ``eigvalsh``. Returns ``(value,
    contractions, tail average, evaluations)``."""
    pairs = task.root_pairs
    weights, roots_i, roots_j = pairs
    n_pairs, c0, d, iters = len(weights), task.offset, task.d, task.ascent_iters

    def values_of(ks):
        return np.linalg.eigvalsh(psdfeas.assemble_contraction_slack(c0, pairs, ks))[..., 0]

    rng = CounterRng(task.seed, stream=29)
    starts = [np.zeros((n_pairs, d, d)), np.broadcast_to(np.eye(d), (n_pairs, d, d))]
    if d == 2 and n_pairs == 1:
        _, k_grid = rotation_grid(c0, weights[0], roots_i[0], roots_j[0], 256)
        starts.append(k_grid[None])
    draws = np.array([rng.normal_matrix(d, d) for _ in range(n_pairs)]).reshape(n_pairs, d, d)
    u, _, vt = np.linalg.svd(draws)
    starts.append(u @ vt)

    ks = np.stack(starts)
    best_val = np.full(len(starts), -np.inf) if iters else values_of(ks)
    best_ks = ks.copy()
    tails = [[] for _ in starts]
    live = np.arange(len(starts))
    grad_weights = (2.0 * weights)[:, None, None]
    stop, evals = -matcore.EPS_ENGINE * task.scale, 0
    for it in range(1, iters + 1):
        evals = it
        cur = ks[live]
        w, q = np.linalg.eigh(psdfeas.assemble_contraction_slack(c0, pairs, cur))
        vals, vecs = w[:, 0], q[:, :, 0]
        better = vals > best_val[live]
        best_val[live[better]] = vals[better]
        best_ks[live[better]] = cur[better]
        if it > iters - 25:
            for start, y in zip(live, vecs[:, :, None] * vecs[:, None, :]):
                tails[start].append(y)
        if vals.max() >= stop:
            break
        cols = vecs[:, None, :, None]
        grads = grad_weights * ((roots_i @ cols) * np.swapaxes(roots_j @ cols, -1, -2))
        sq = np.sum((grads * grads).reshape(live.size, n_pairs, d * d), axis=-1)
        gsq = np.zeros(live.size)
        for idx in range(n_pairs):
            gsq += sq[:, idx]
        gnorm = np.sqrt(gsq)
        moving = gnorm != 0.0
        live = live[moving]
        if live.size == 0:
            break
        step = 0.5 / math.sqrt(it)
        ks[live] = psdfeas.clip_operator_ball(cur[moving] + step * grads[moving] / gnorm[moving, None, None, None])
    i = int(np.argmax(best_val))
    best, best_ks = float(best_val[i]), best_ks[i]
    if d == 2 and n_pairs > 1:
        polished = psdfeas._coordinate_rotation_polish(c0, pairs, best_ks, task.scale)
        val = float(values_of(polished))
        if val > best:
            best, best_ks = val, polished
    y_avg = None
    tail = [y for ys in tails for y in ys]
    if tail and best < stop:
        y_avg = matcore.symmetrize(sum(tail) / len(tail))
        y_avg = y_avg / float(np.trace(y_avg))
    return best, best_ks, y_avg, evals


def reference_batched_factor_ascent(task):
    """:func:`psdfeas.factor_ascent` with its own batched loop, which ends after
    the first evaluation at which a start's value is at least ``-EPS_ENGINE * scale``."""
    n, d = task.n, task.d
    nd = n * d
    roots = np.array(task.roots).reshape(n, d, d)
    weighted = task.p[:, None, None] * roots
    rng = CounterRng(task.seed, stream=31)
    u, _, vt = np.linalg.svd(rng.normal_matrix(3 * nd, nd).reshape(3, n, d, nd), full_matrices=False)
    factors = np.concatenate([np.broadcast_to(np.eye(d, nd), (1, n, d, nd)), u @ vt])
    best_val = np.full(len(factors), -np.inf)
    best_factors = factors.copy()
    live = np.arange(len(factors))
    for it in range(task.ascent_iters + 1):
        cur = factors[live]
        terms = weighted @ cur
        m = terms[:, 0].copy()
        for i in range(1, n):
            m += terms[:, i]
        w, q = np.linalg.eigh(m @ np.swapaxes(m, -1, -2) - task.target)
        vals, vecs = w[:, 0], q[:, :, 0]
        better = vals > best_val[live]
        best_val[live[better]] = vals[better]
        best_factors[live[better]] = cur[better]
        if it == task.ascent_iters or vals.max() >= -matcore.EPS_ENGINE * task.scale:
            break
        left = weighted @ vecs[:, None, :, None]
        right = np.swapaxes(m, -1, -2) @ vecs[:, :, None]
        grads = 2.0 * left * np.swapaxes(right, -1, -2)[:, None]
        sq = np.sum((grads * grads).reshape(live.size, n, d * nd), axis=-1)
        gsq = sq[:, 0].copy()
        for i in range(1, n):
            gsq += sq[:, i]
        gnorm = np.sqrt(gsq)
        moving = gnorm != 0.0
        live = live[moving]
        if live.size == 0:
            break
        step = 0.5 / math.sqrt(it + 1)
        u, _, vt = np.linalg.svd(cur[moving] + step * grads[moving] / gnorm[moving, None, None, None], full_matrices=False)
        factors[live] = u @ vt
    i = int(np.argmax(best_val))
    stacked = (roots @ best_factors[i]).reshape(nd, nd)
    return float(best_val[i]), stacked @ stacked.T, it + 1


@pytest.mark.parametrize("n", [2, 3], ids=["1-pair", "3-pairs"])
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("iters", [0, 1, 30, 200])
def test_shared_loop_matches_the_contraction_ascent_loop(iters, d, n):
    # the shared loop scores the starts by eigh, then takes iters - 1 steps;
    # several instances, as eigh's and eigvalsh's bits differ on only some d = 3 slacks;
    # no start clears the tolerance on them, so every step is compared
    for instance in range(4):
        task, _ = random_instance(260 + 10 * instance + 2 * n + d, n=n, d=d, shrink=3.0, cone=psdfeas.PAIRWISE)
        task = dataclasses.replace(task, seed=11 + instance, ascent_iters=iters)
        val, ks, y, evals = task.ascent
        ref_val, ref_ks, ref_y, ref_evals = reference_batched_contraction_ascent(task)
        assert val == ref_val and np.array_equal(ks, ref_ks)
        assert evals == ref_evals == iters
        assert (y is None) == (ref_y is None) == (iters == 0)
        assert y is None or np.array_equal(y, ref_y)


def test_shared_loop_matches_the_factor_ascent_loop():
    prob = random_chain_problem(32)
    task = psdfeas.FeasibilityTask(prob, psdfeas.FULL, seed=32, ascent_iters=200)
    val, gamma, evals = task.factor_ascent
    ref_val, ref_gamma, ref_evals = reference_batched_factor_ascent(task)
    assert val == ref_val and np.array_equal(gamma, ref_gamma)
    assert evals == ref_evals < 10  # a start clears the tolerance after a few steps
