"""Block-constrained PSD feasibility by Dykstra alternating projections.

The engine looks for a symmetric ``nd x nd`` matrix Gamma whose diagonal
d-blocks equal prescribed component covariances, whose weighted block sum
``A Gamma A*`` dominates a target (tracked through a PSD slack S), and
which lives either in the full PSD cone or in the product of pairwise
``2d x 2d`` PSD constraints.

Projections onto the affine constraint set have a closed form (the linear
solve collapses to a scalar correction precomputed once per task); cone
constraints are handled one exact projection per constraint with Dykstra
correction terms, cycling until both distances fall under tolerance. The
engine never claims infeasibility: it either returns a feasible, exactly
block-pinned Gamma or the residuals it got stuck at.

The Dykstra solve and the pair-contraction program take one
:class:`FeasibilityTask`, which computes what they share once: the
pinned-block sum and its gap to the target up front, the block square
roots, weighted root pairs and the pair-contraction ascent (with the
task's seed and step count) on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import matcore
from .rng import CounterRng
from .utils import golden_section_minimize

FULL = "full"
PAIRWISE = "pairwise"

FEASIBLE = "feasible"
MAX_ITERATIONS = "max_iterations"


@dataclass(frozen=True)
class EngineConfig:
    max_iter: int = 20000


@dataclass
class FeasibilityTask:
    """Fixed diagonal blocks, weights, target and cone selector.

    Blocks must be exactly symmetric, as ``MixtureProblem`` leaves them.
    ``seed`` and ``ascent_iters`` configure the pair-contraction :attr:`ascent`;
    ``scale`` is sigma^2, as ``MixtureProblem.var_scale`` gives it.
    """

    p: np.ndarray
    blocks: np.ndarray  # (n, d, d)
    target: np.ndarray  # (d, d)
    cone: str = FULL
    seed: int = 0
    ascent_iters: int = 0

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=float)
        self.blocks = np.asarray(self.blocks, dtype=float)
        self.target = matcore.symmetrize(self.target)
        self.n = int(self.p.shape[0])
        self.d = int(self.target.shape[0])
        if self.blocks.shape != (self.n, self.d, self.d):
            raise ValueError("component blocks must have shape (n, d, d)")
        if self.cone not in (FULL, PAIRWISE):
            raise ValueError(f"unknown cone {self.cone!r}")
        self.pairs = [(i, j) for i in range(self.n) for j in range(i + 1, self.n)]
        # affine-projection constants: S = A Gamma A* - target couples the
        # free off-diagonal blocks through a single scalar correction
        self.coupling = 2.0 * sum((self.p[i] * self.p[j]) ** 2 for i, j in self.pairs)
        # sum_i p_i^2 S_i, the part of A Gamma A* the pinned blocks fix
        self.pinned_sum = np.einsum("i,ikl->kl", self.p**2, self.blocks)
        self.offset = self.pinned_sum - self.target  # difference of exactly symmetric terms
        _, self.scale = matcore.spectral_scale([self.target, *self.blocks])

    def block_slice(self, i: int) -> slice:
        return slice(i * self.d, (i + 1) * self.d)

    @cached_property
    def roots(self) -> list[np.ndarray]:
        """PSD square roots of the diagonal blocks."""
        return [matcore.sqrt_psd(b) for b in self.blocks]

    @cached_property
    def root_pairs(self) -> list[tuple]:
        """``(p_i p_j, root_i, root_j, (i, j))`` for every pair i < j."""
        return [
            (float(self.p[i] * self.p[j]), self.roots[i], self.roots[j], (i, j))
            for i, j in self.pairs
        ]

    @cached_property
    def ascent(self) -> tuple:
        """:func:`contraction_ascent` of this task, run once; callers share it."""
        return contraction_ascent(self)

    @cached_property
    def ascent_gamma(self) -> np.ndarray:
        """Coupling matrix of the :attr:`ascent` contractions, one object for every caller."""
        return gamma_from_contractions(self, self.ascent[1])


@dataclass
class FeasibilityOutcome:
    status: str
    gamma: np.ndarray
    iterations: int
    cone_dist: float
    affine_dist: float
    residual_history: list = field(default_factory=list)

    @property
    def feasible(self) -> bool:
        return self.status == FEASIBLE


def mix_compress(gamma: np.ndarray, p: np.ndarray, d: int) -> np.ndarray:
    """``A Gamma A*`` for A = (p_1 I_d, ..., p_n I_d)."""
    n = len(p)
    g4 = np.asarray(gamma, dtype=float).reshape(n, d, n, d)
    return matcore.symmetrize(np.einsum("i,j,ikjl->kl", p, p, g4))


def pin_blocks(gamma: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Copy of Gamma with its diagonal d-blocks set to ``blocks`` (n, d, d)."""
    out = np.array(gamma, dtype=float)
    d = blocks.shape[1]
    for i, block in enumerate(blocks):
        out[i * d : (i + 1) * d, i * d : (i + 1) * d] = block
    return out


def pair_index(d: int, i: int, j: int):
    """Index of the 2d x 2d pair block of components i and j, for reads and writes."""
    rows = np.array([*range(i * d, (i + 1) * d), *range(j * d, (j + 1) * d)])
    return rows[:, None], rows


def _affine_project(task: FeasibilityTask, gamma: np.ndarray, slack: np.ndarray):
    """Orthogonal projection onto {blocks pinned, S = A Gamma A* - target}."""
    gamma = pin_blocks(gamma, task.blocks)
    v0 = mix_compress(gamma, task.p, task.d) - task.pinned_sum  # the off-diagonal part of A Gamma A*
    r = (v0 + task.offset - slack) / (1.0 + task.coupling)
    for i, j in task.pairs:
        si, sj = task.block_slice(i), task.block_slice(j)
        gamma[si, sj] -= task.p[i] * task.p[j] * r
        gamma[sj, si] = gamma[si, sj].T
    return gamma, slack + r


def _neg_part_norm(a: np.ndarray) -> float:
    w = np.linalg.eigvalsh(0.5 * (a + a.T))
    neg = np.minimum(w, 0.0)
    return float(np.sqrt(np.sum(neg * neg)))


def cone_violation(task: FeasibilityTask, gamma: np.ndarray, slack: np.ndarray) -> float:
    """Frobenius distance from (Gamma, S) to the selected cone."""
    if task.cone == FULL:
        d_g = _neg_part_norm(gamma)
    else:
        d_g = 0.0
        for i, j in task.pairs:
            d_g = max(d_g, _neg_part_norm(gamma[pair_index(task.d, i, j)]))
    return max(d_g, _neg_part_norm(slack))


# ---------------------------------------------------------------------------
# pair contractions: every admissible off-diagonal pair block writes
# root_i @ K @ root_j with the operator norm of K at most one, which turns
# pairwise feasibility into the concave program
# max lambda_min(C0 + sum w_ij (root_i K_ij root_j + sym)) over those balls
# ---------------------------------------------------------------------------


def assemble_contraction_slack(c0: np.ndarray, pairs, ks) -> np.ndarray:
    h = c0.copy()
    for (w, a_i, a_j, _), k in zip(pairs, ks):
        t = a_i @ k @ a_j
        h += w * (t + t.T)
    return h


def clip_operator_ball(k: np.ndarray) -> np.ndarray:
    u, s, vt = np.linalg.svd(k)
    if s.size == 0 or s[0] <= 1.0:
        return k
    return (u * np.minimum(s, 1.0)) @ vt


def _rotation_neg_lmin_2d(c0: np.ndarray, w: float, a: np.ndarray, b: np.ndarray, branch: float):
    """Negated smallest eigenvalue of ``c0 + w (T + T')``, T = a K(phi) b, in float arithmetic.

    K(phi) is the rotation (``branch`` 1) or reflection (``branch`` -1)
    cos(phi) diag(1, branch) + sin(phi) [[0, -branch], [1, 0]], so the matrix
    is c0 + cos(phi) P + sin(phi) Q with P and Q symmetrised once here.
    """

    def sym_part(k: np.ndarray) -> list:
        t = a @ k @ b
        return (w * (t + t.T)).tolist()

    (z00, _), (z01, z11) = c0.tolist()  # the lower triangle, as eigvalsh reads it
    (p00, p01), (_, p11) = sym_part(np.diag([1.0, branch]))
    (q00, q01), (_, q11) = sym_part(np.array([[0.0, -branch], [1.0, 0.0]]))

    def neg_lmin(phi: float) -> float:
        c, s = math.cos(phi), math.sin(phi)
        return -matcore.lmin_sym2(z00 + c * p00 + s * q00, z01 + c * p01 + s * q01, z11 + c * p11 + s * q11)

    return neg_lmin


def _rotation_2d(c, s, branch: float) -> np.ndarray:
    """K(phi) of :func:`_rotation_neg_lmin_2d` from c = cos(phi) and s = sin(phi);
    arrays of angles give a stack of shape (count, 2, 2)."""
    return np.stack([np.stack([c, -s * branch], -1), np.stack([s, c * branch], -1)], -2)


def _rotation_grid_2d(c0: np.ndarray, pair, count: int):
    """Best rotation or reflection contraction on a 2-d angular grid."""
    w, a, b, _ = pair
    phis = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
    c, s = np.cos(phis), np.sin(phis)
    best = (-np.inf, None)
    for branch in (1.0, -1.0):
        ks = _rotation_2d(c, s, branch)
        t = np.einsum("ij,mjk,kl->mil", a, ks, b)
        mats = c0[None] + w * (t + np.transpose(t, (0, 2, 1)))
        lmins = np.linalg.eigvalsh(mats)[:, 0]
        idx = int(np.argmax(lmins))
        width = 2.0 * np.pi / count
        phi_best, negval = golden_section_minimize(
            _rotation_neg_lmin_2d(c0, w, a, b, branch), phis[idx] - width, phis[idx] + width, xtol=1e-12
        )
        if -negval > best[0]:
            best = (-negval, _rotation_2d(math.cos(phi_best), math.sin(phi_best), branch))
    return best


def _coordinate_rotation_polish(c0, pairs, ks, scale: float, passes: int = 8, count: int = 128):
    """Cyclic exact maximization of each d = 2 contraction over rotations.

    Near a nonsmooth optimum the supergradient ascent closes the last few
    digits slowly; one pair at a time, the angular grid is exact and cheap.
    Only moves gaining over ``EPS_ROUND * scale`` count, so the value never decreases.
    """
    ks = [k.copy() for k in ks]
    for _ in range(passes):
        improved = False
        for idx, (w, a, b, _) in enumerate(pairs):
            rest = assemble_contraction_slack(c0, pairs[:idx] + pairs[idx + 1 :], ks[:idx] + ks[idx + 1 :])
            val, k_new = _rotation_grid_2d(rest, (w, a, b, None), count)
            t_old = a @ ks[idx] @ b
            old = float(np.linalg.eigvalsh(rest + w * (t_old + t_old.T))[0])
            if k_new is not None and val > old + matcore.EPS_ROUND * scale:
                ks[idx] = k_new
                improved = True
        if not improved:
            break
    return ks


def contraction_ascent(task: FeasibilityTask):
    """Maximize the smallest slack eigenvalue over the pair contractions.

    Supergradient ascent on a concave objective, with a closed form for
    d = 1, an exact angular grid for a single d = 2 pair, and a cyclic
    per-pair grid polish for several d = 2 pairs; ``task.ascent_iters``
    steps from each start, one start drawn from ``task.seed``. Returns the
    best value, the contractions, and a trace-one PSD average of bottom
    eigenvectors from the ascent tail (usable as a refutation functional).
    Read it through :attr:`FeasibilityTask.ascent`, which runs it once.
    """
    pairs = task.root_pairs
    c0 = task.offset
    d = task.d

    def value_of(ks):
        return float(np.linalg.eigvalsh(assemble_contraction_slack(c0, pairs, ks))[0])

    if d == 1:
        # slack is linear in each scalar contraction: the maximum sits at
        # k = +1 for every pair (roots are nonnegative)
        ks = [np.ones((1, 1)) for _ in pairs]
        val = value_of(ks)
        y = np.array([[1.0]]) if val < 0 else None
        return val, ks, y

    iters = task.ascent_iters
    rng = CounterRng(task.seed, stream=29)
    start_sets = [[np.zeros((d, d)) for _ in pairs], [np.eye(d) for _ in pairs]]
    if d == 2 and len(pairs) == 1:
        _, k_grid = _rotation_grid_2d(c0, pairs[0], 256)
        if k_grid is not None:
            start_sets.append([k_grid])
    rand = []
    for _ in pairs:
        g = rng.normal_matrix(d, d)
        u, _, vt = np.linalg.svd(g)
        rand.append(u @ vt)
    start_sets.append(rand)

    best_val = -np.inf
    best_ks = start_sets[0]
    tail: list[np.ndarray] = []
    for ks0 in start_sets:
        ks = [k.copy() for k in ks0]
        v0 = value_of(ks)
        if v0 > best_val:
            best_val, best_ks = v0, [k.copy() for k in ks]
        for it in range(1, iters + 1):
            slack = assemble_contraction_slack(c0, pairs, ks)
            w, q = np.linalg.eigh(slack)
            val = float(w[0])
            vec = q[:, 0]
            if val > best_val:
                best_val, best_ks = val, [k.copy() for k in ks]
            if it > iters - 25:
                tail.append(np.outer(vec, vec))
            grads = [2.0 * wij * np.outer(a_i @ vec, a_j @ vec) for (wij, a_i, a_j, _) in pairs]
            gnorm = math.sqrt(sum(float(np.sum(g * g)) for g in grads))
            if gnorm == 0.0:
                break
            step = 0.5 / math.sqrt(it)
            ks = [clip_operator_ball(k + step * g / gnorm) for k, g in zip(ks, grads)]
    if d == 2 and len(pairs) > 1:
        polished = _coordinate_rotation_polish(c0, pairs, best_ks, task.scale)
        val = value_of(polished)
        if val > best_val:
            best_val, best_ks = val, polished
    y_avg = None
    if tail:
        y_avg = matcore.symmetrize(sum(tail) / len(tail))
        tr = float(np.trace(y_avg))
        if tr > 0:
            y_avg = y_avg / tr
    return best_val, best_ks, y_avg


def _pair_coupling(task: FeasibilityTask, thetas) -> np.ndarray:
    """Gamma with pinned diagonal blocks and ``thetas`` as its (i, j) blocks, i < j."""
    nd = task.n * task.d
    gamma = pin_blocks(np.zeros((nd, nd)), task.blocks)
    for (i, j), theta in zip(task.pairs, thetas):
        si, sj = task.block_slice(i), task.block_slice(j)
        gamma[si, sj] = theta
        gamma[sj, si] = theta.T
    return gamma


def gamma_from_contractions(task: FeasibilityTask, ks) -> np.ndarray:
    """Coupling matrix whose pair blocks come from the contractions."""
    return _pair_coupling(task, [a_i @ k @ a_j for (_, a_i, a_j, _), k in zip(task.root_pairs, ks)])


def dual_refutation_value(task: FeasibilityTask, y: np.ndarray) -> float:
    """Upper bound on the best pairwise slack at a PSD trace-one Y.

    A value below zero certifies that no admissible pair blocks can make
    the weighted block sum dominate the target, refuting the pairwise
    condition (and with it the full coupling condition).
    """
    y = matcore.symmetrize(y)
    total = float(np.sum(y * task.offset))
    for w, a_i, a_j, _ in task.root_pairs:
        sv = np.linalg.svd(a_j @ y @ a_i, compute_uv=False)
        total += 2.0 * w * float(np.sum(sv))
    return total


def default_candidates(task: FeasibilityTask) -> list[np.ndarray]:
    """Canonical warm starts: block diagonal, shared-target off-diagonals
    (feasible when the target is dominated by every component), the
    optimal-transport pair coupling when n = 2, and the contraction
    construction of the task's ascent (closed form for d = 1, angular grid
    for a d = 2 pair)."""
    cands = [_pair_coupling(task, []), _pair_coupling(task, [task.target] * len(task.pairs))]
    if task.n == 2:
        try:
            root1 = task.roots[0]
            inner = matcore.sqrt_psd(root1 @ task.blocks[1] @ root1)
            # theta = S1 S2* of the optimal quadratic coupling when blocks[0]
            # is nonsingular; degenerate cases just yield a weaker candidate
            cands.append(_pair_coupling(task, [root1 @ inner @ matcore.pinv_psd(root1)]))
        except matcore.NotPSD:
            pass
    if task.d == 1 or (task.n == 2 and task.d == 2):
        cands.append(task.ascent_gamma)
    return cands


def warm_start_from(task: FeasibilityTask, candidates) -> np.ndarray:
    """Pick the candidate with the smallest combined residual.

    Residuals within rounding of each other count as ties, broken toward
    the larger slack margin so already-feasible starts keep their slack.
    A candidate object passed twice is scored once: its second key would
    tie with the first, and ties keep the earlier candidate.
    """
    tie = matcore.EPS_ROUND * task.scale
    best = None
    best_key = None
    scored = set()
    for cand in candidates:
        if id(cand) in scored:
            continue
        scored.add(id(cand))
        cand = np.asarray(cand, dtype=float)
        if cand.shape != (task.n * task.d, task.n * task.d):
            continue
        pinned = pin_blocks(matcore.symmetrize(cand), task.blocks)
        slack = mix_compress(pinned, task.p, task.d) - task.target
        res = cone_violation(task, pinned, slack)
        lmin_slack = float(np.linalg.eigvalsh(slack)[0])
        key = (res if res > tie else 0.0, -lmin_slack)
        if best_key is None or key < best_key:
            best, best_key = pinned, key
    if best is None:
        best = _pair_coupling(task, [])
    return best


def solve(task: FeasibilityTask, cfg: EngineConfig = EngineConfig(), candidates=()) -> FeasibilityOutcome:
    """Dykstra cycle between the affine set and the cone constraints.

    Starts from the best of ``candidates`` plus the canonical defaults.
    Feasibility is declared on the affine-projected iterate (its blocks are
    exact by construction) once its cone distance drops under
    ``matcore.EPS_ENGINE * task.scale``; otherwise the residuals are reported.
    """
    tol_abs = matcore.EPS_ENGINE * task.scale
    gamma = warm_start_from(task, list(candidates) + default_candidates(task))
    slack = mix_compress(gamma, task.p, task.d) - task.target

    if task.cone == FULL:
        cone_sets = [("psd", None)]
    else:
        cone_sets = [("pair", pair) for pair in task.pairs] + [("slack", None)]
    inc_g = [np.zeros_like(gamma) for _ in cone_sets]
    inc_s = [np.zeros_like(slack) for _ in cone_sets]

    history: list[float] = []
    affine_dist = 0.0
    viol = cone_violation(task, gamma, slack)
    if viol <= tol_abs:
        return FeasibilityOutcome(FEASIBLE, gamma, 0, viol, 0.0, [viol])

    for it in range(1, cfg.max_iter + 1):
        for k, (kind, pair) in enumerate(cone_sets):
            yg = gamma + inc_g[k]
            ys = slack + inc_s[k]
            if kind == "psd":
                pg = matcore.clamp_psd(yg)
                ps = matcore.clamp_psd(ys)
            elif kind == "pair":
                idx = pair_index(task.d, *pair)
                pg = yg.copy()
                pg[idx] = matcore.clamp_psd(yg[idx])
                ps = ys
            else:  # slack cone only
                pg = yg
                ps = matcore.clamp_psd(ys)
            inc_g[k] = yg - pg
            inc_s[k] = ys - ps
            gamma, slack = pg, ps
        pre_g, pre_s = gamma, slack
        gamma, slack = _affine_project(task, gamma, slack)
        affine_dist = float(
            np.sqrt(matcore.fro_norm(gamma - pre_g) ** 2 + matcore.fro_norm(slack - pre_s) ** 2)
        )
        viol = cone_violation(task, gamma, slack)
        history.append(viol)
        if viol <= tol_abs:
            return FeasibilityOutcome(FEASIBLE, gamma, it, viol, affine_dist, history)
    return FeasibilityOutcome(MAX_ITERATIONS, gamma, cfg.max_iter, viol, affine_dist, history)


def validate_gamma(task: FeasibilityTask, gamma: np.ndarray, tol: float) -> dict:
    """Re-validate a candidate witness against the task constraints, to ``tol`` times its scale."""
    gamma = matcore.symmetrize(gamma)
    tol_abs = tol * task.scale
    block_err = max(
        matcore.fro_norm(gamma[task.block_slice(i), task.block_slice(i)] - task.blocks[i])
        for i in range(task.n)
    )
    slack = mix_compress(gamma, task.p, task.d) - task.target
    parts = [gamma] if task.cone == FULL else [gamma[pair_index(task.d, i, j)] for i, j in task.pairs]
    lmin_gamma = min(float(np.linalg.eigvalsh(part)[0]) for part in parts)
    lmin_slack = float(np.linalg.eigvalsh(slack)[0])
    ok = block_err <= tol_abs and lmin_gamma >= -tol_abs and lmin_slack >= -tol_abs
    return {
        "ok": bool(ok),
        "block_err": float(block_err),
        "lmin_gamma": float(lmin_gamma),
        "lmin_slack": float(lmin_slack),
    }
