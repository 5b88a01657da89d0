"""Block-constrained PSD feasibility by exact constructions.

The engine looks for a symmetric ``nd x nd`` matrix Gamma whose diagonal
d-blocks equal prescribed component covariances, whose weighted block sum
``A Gamma A*`` dominates a target (tracked through a PSD slack S), and
which lives either in the full PSD cone or in the product of pairwise
``2d x 2d`` PSD constraints.

Each cone has one construction that decides it, and both ascents share
one batched loop (:func:`_batched_ascent`). The pair-contraction ascent
writes each pair block as root_i K root_j with a contraction K; it is
exact for the pairwise cone and, with n = 2, for the full cone. For d = 2
the contraction of a pair is searched over rotations and reflections by
an angular grid and Brent's method, both on the closed-form smallest
eigenvalue of a 2 x 2 matrix affine in (cos phi, sin phi). For the full
cone with n >= 3 the orthogonal-factor ascent writes
Gamma_ij = root_i O_i O_j' root_j with orthonormal-row factors O_i, which
is PSD by construction. Both ascents end at the first evaluation at which
a start's slack clears the engine tolerance, so the slack of their
coupling is the one where they stopped, not the most they could reach;
only an ascent that never clears it takes every step and keeps the tail
the refutation functional reads.
:func:`warm_start_from` scores the one candidate list
(:func:`default_candidates`) with the caller's candidates as one stack
through the one spectral test (:func:`_spectra`), and :func:`solve`
returns the best candidate. The engine never claims infeasibility: it
returns a feasible, exactly block-pinned Gamma or the cone distance of
the best one it has.

Everything takes one :class:`FeasibilityTask` of a ``MixtureProblem``,
which has checked and mirrored every matrix once: nothing in the engine
checks an input again. The task computes what is shared once, up front
or on first use: the pinned-block gap, the pair weights, slices and rows,
the block roots and both ascents.

What the tasks of a sweep share comes from functions that keep their last
value (:func:`matcore.last_value`): the block roots, the n = 2 transport
block, the pair layout, the random starts of both ascents and the d = 2
rotation-grid coefficients, so a cell computes only what its target changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import TYPE_CHECKING

import numpy as np

from . import matcore
from .rng import CounterRng
from .utils import golden_section_minimize

if TYPE_CHECKING:
    from .conditions import MixtureProblem

FULL = "full"
PAIRWISE = "pairwise"

FEASIBLE = "feasible"
NO_FEASIBLE_CANDIDATE = "no_feasible_candidate"


@dataclass(frozen=True)
class EngineConfig:
    """Nothing in gmcvx reads this; it stays until the benchmark stops building it."""

    max_iter: int = 20000


@dataclass
class FeasibilityTask:
    """The program of one ``MixtureProblem`` in the cone :data:`FULL` or :data:`PAIRWISE`.

    ``p``, ``blocks`` (the component covariances), ``target``, ``n``, ``d`` and
    ``scale`` (sigma^2, ``var_scale()``) are the problem's, checked there once.
    ``seed`` and ``ascent_iters`` configure the pair-contraction :attr:`ascent`
    and the :attr:`factor_ascent`.
    """

    prob: MixtureProblem
    cone: str = FULL
    seed: int = 0
    ascent_iters: int = 0

    def __post_init__(self):
        prob = self.prob
        self.p, self.blocks, self.target = prob.p, prob.covs, prob.target
        self.n, self.d, self.scale = prob.n, prob.d, prob.var_scale()
        layout = _pair_layout(self.p, self.d)
        self.pairs, self.pair_weights, self.pair_slices, self.pair_rows = layout
        # sum_i p_i^2 S_i, the part of A Gamma A* the pinned blocks fix, less the
        # target: a difference of exactly symmetric terms
        self.offset = np.einsum("i,ikl->kl", self.p**2, self.blocks) - self.target

    def block_slice(self, i: int) -> slice:
        return slice(i * self.d, (i + 1) * self.d)

    @cached_property
    def roots(self) -> np.ndarray:
        """:func:`block_roots` of the diagonal blocks, shape (n, d, d)."""
        return block_roots(self.blocks)

    @cached_property
    def root_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(w, roots_i, roots_j)`` over the pairs i < j in order: the weights
        p_i p_j, shape (pairs,), and the two block roots, shape (pairs, d, d)."""
        first = [i for i, _ in self.pairs]
        second = [j for _, j in self.pairs]
        return np.array(self.pair_weights), self.roots[first], self.roots[second]

    @cached_property
    def ascent(self) -> tuple:
        """:func:`contraction_ascent` of this task, run once; callers share it."""
        return contraction_ascent(self)

    @cached_property
    def ascent_gamma(self) -> np.ndarray:
        """Coupling matrix of the :attr:`ascent` contractions."""
        return gamma_from_contractions(self, self.ascent[1])

    @cached_property
    def factor_ascent(self) -> tuple:
        """:func:`factor_ascent` of this task, run once."""
        return factor_ascent(self)


@matcore.last_value
def _pair_layout(p: np.ndarray, d: int) -> tuple:
    """``(pairs, pair_weights, pair_slices, pair_rows)``, which only d and p decide."""
    n = len(p)
    pairs = tuple((i, j) for i in range(n) for j in range(i + 1, n))
    weights = tuple(float(p[i] * p[j]) for i, j in pairs)
    slices = tuple((slice(i * d, (i + 1) * d), slice(j * d, (j + 1) * d)) for i, j in pairs)
    rows = np.array([pair_index(d, i, j)[1] for i, j in pairs]).reshape(-1, 2 * d)
    return pairs, weights, slices, rows


@matcore.last_value
def block_roots(blocks: np.ndarray) -> np.ndarray:
    """PSD square roots of a (n, d, d) stack of blocks, read-only."""
    return np.array([matcore.sqrt_psd(b) for b in blocks])


@dataclass
class FeasibilityOutcome:
    status: str
    gamma: np.ndarray
    iterations: int  # always 0, kept for the benchmark's tracer
    cone_dist: float

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


def _spectra(task: FeasibilityTask, gammas: np.ndarray, slacks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending spectra of a (k, nd, nd) stack of exactly symmetric Gammas, shape
    (k, parts, m), and of their (k, d, d) slacks: the one part is the whole Gamma
    for the full cone, the parts are the pair blocks in order for the pairwise cone."""
    if task.cone == FULL:
        parts = gammas[:, None]
    else:
        parts = gammas[:, task.pair_rows[:, :, None], task.pair_rows[:, None, :]]
    return np.linalg.eigvalsh(parts), np.linalg.eigvalsh(slacks)


def _cone_distance(w_gamma: np.ndarray, w_slack: np.ndarray) -> np.ndarray:
    """Frobenius distance of each (Gamma, S) to the selected cone, from their :func:`_spectra`:
    the norm of the negative part of the worst Gamma part or of S."""
    neg_g, neg_s = np.minimum(w_gamma, 0.0), np.minimum(w_slack, 0.0)
    d_g = np.sqrt((neg_g * neg_g).sum(axis=-1)).max(axis=-1, initial=0.0)
    return np.maximum(d_g, np.sqrt((neg_s * neg_s).sum(axis=-1)))


# ---------------------------------------------------------------------------
# pair contractions: every admissible off-diagonal pair block writes
# root_i @ K @ root_j with the operator norm of K at most one, which turns
# pairwise feasibility into the concave program
# max lambda_min(C0 + sum w_ij (root_i K_ij root_j + sym)) over those balls
# ---------------------------------------------------------------------------


def assemble_contraction_slack(c0: np.ndarray, pairs, ks: np.ndarray) -> np.ndarray:
    """``c0 + sum w (T + T')`` with T = root_i K root_j, adding the pairs in order.

    ``pairs`` is :attr:`FeasibilityTask.root_pairs` or a selection of its
    pairs and ``ks`` has shape (..., pairs, d, d); a stack of contraction sets
    gives a stack of slacks, each with the bits a single set gives.
    """
    w, roots_i, roots_j = pairs
    t = roots_i @ ks @ roots_j
    terms = w[:, None, None] * (t + np.swapaxes(t, -1, -2))
    h = np.broadcast_to(c0, terms.shape[:-3] + c0.shape).copy()
    for idx in range(len(w)):
        h += terms[..., idx, :, :]
    return h


def clip_operator_ball(ks: np.ndarray) -> np.ndarray:
    """Project each matrix of the stack ``ks`` onto the operator-norm unit ball."""
    u, s, vt = np.linalg.svd(ks)
    clipped = (u * np.minimum(s, 1.0)[..., None, :]) @ vt
    return np.where((s[..., 0] > 1.0)[..., None, None], clipped, ks)


@matcore.last_value
def _rotation_parts_2d(pairs, count: int) -> tuple:
    """The rotation grid's parts that do not depend on c0, per pair of ``pairs``
    (:attr:`FeasibilityTask.root_pairs`): w (T + T') = cos(phi) P + sin(phi) Q
    for T = root_i K(phi) root_j, K(phi) the rotation (``branch`` 1) or
    reflection (-1) cos(phi) diag(1, branch) + sin(phi) [[0, -branch], [1, 0]].
    Two arrays a pair: (p00, p01, p11, q00, q01, q11) per branch, shape (2, 6),
    and (cos P, sin Q) on the angle grid, shape (2, 6, count).
    """
    _, cos, sin = _angle_grid(count)
    out = []
    for w, a, b in zip(*pairs):
        rows = []
        for branch in (1.0, -1.0):
            for k in (np.diag([1.0, branch]), np.array([[0.0, -branch], [1.0, 0.0]])):
                t = a @ k @ b
                (m00, m01), (_, m11) = (w * (t + t.T)).tolist()
                rows += [m00, m01, m11]
        pq = np.array(rows).reshape(2, 6)
        out += [pq, np.concatenate([cos * pq[:, :3, None], sin * pq[:, 3:, None]], axis=1)]
    return tuple(out)


def _rotation_neg_lmin_2d(coeffs: tuple):
    """Negated smallest eigenvalue of c0 + cos(phi) P + sin(phi) Q at phi, in float
    arithmetic, from ``coeffs`` = (z, P, Q): z the triple (c0[0, 0], c0[1, 0], c0[1, 1])."""
    (z00, z01, z11), (p00, p01, p11), (q00, q01, q11) = coeffs
    cos, sin, lmin_sym2 = math.cos, math.sin, matcore.lmin_sym2

    def neg_lmin(phi: float) -> float:
        c, s = cos(phi), sin(phi)
        return -lmin_sym2(z00 + c * p00 + s * q00, z01 + c * p01 + s * q01, z11 + c * p11 + s * q11)

    return neg_lmin


@cache
def _angle_grid(count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only ``(phi, cos phi, sin phi)`` on ``count`` equispaced angles in [0, 2 pi)."""
    phis = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
    out = (phis, np.cos(phis), np.sin(phis))
    for arr in out:
        arr.flags.writeable = False
    return out


def _rotation_grid_2d(c0: np.ndarray, parts: tuple, count: int):
    """Best rotation or reflection contraction of a pair term on a 2-d angular grid.

    Per branch, the grid and its Brent refinement evaluate one
    closed form, lambda_min = (m00 + m11) / 2 - hypot((m00 - m11) / 2, m01)
    of m = z + cos(phi) P + sin(phi) Q, from the pair's two ``parts``
    (:func:`_rotation_parts_2d`) and z, the lower triangle of ``c0``: the
    grid over all angles at once, the refinement one angle at a time
    (:func:`_rotation_neg_lmin_2d`).
    """
    pq, grid = parts
    phis = _angle_grid(count)[0]
    width = 2.0 * np.pi / count
    (z00, _), (z01, z11) = c0.tolist()
    z = (z00, z01, z11)
    m = (np.array(z)[:, None] + grid[:, :3]) + grid[:, 3:]  # z + cos P + sin Q
    lmins = 0.5 * (m[:, 0] + m[:, 2]) - np.hypot(0.5 * (m[:, 0] - m[:, 2]), m[:, 1])
    best = (-np.inf, None)
    for branch, coeffs, idx in zip((1.0, -1.0), pq.tolist(), np.argmax(lmins, axis=1).tolist()):
        phi_best, negval = golden_section_minimize(
            _rotation_neg_lmin_2d((z, coeffs[:3], coeffs[3:])), phis[idx] - width, phis[idx] + width, xtol=1e-12
        )
        if -negval > best[0]:
            c, s = math.cos(phi_best), math.sin(phi_best)
            best = (-negval, np.array([[c, -s * branch], [s, c * branch]]))
    return best


def _coordinate_rotation_polish(c0, pairs, ks, scale: float, passes: int = 8, count: int = 128):
    """Cyclic exact maximization of each d = 2 contraction over rotations.

    Near a nonsmooth optimum the supergradient ascent closes the last few
    digits slowly; one pair at a time, the angular grid is exact and cheap.
    Only moves gaining over ``EPS_ROUND * scale`` count, so the value never decreases.
    """
    ks = np.array(ks, dtype=float)
    parts = _rotation_parts_2d(pairs, count)
    for _ in range(passes):
        improved = False
        for idx, (w, a, b) in enumerate(zip(*pairs)):
            others = np.arange(len(ks)) != idx
            rest = assemble_contraction_slack(c0, [part[others] for part in pairs], ks[others])
            val, k_new = _rotation_grid_2d(rest, parts[2 * idx : 2 * idx + 2], count)
            t_old = a @ ks[idx] @ b
            old = float(np.linalg.eigvalsh(rest + w * (t_old + t_old.T))[0])
            if val > old + matcore.EPS_ROUND * scale:
                ks[idx] = k_new
                improved = True
        if not improved:
            break
    return ks


@matcore.last_value
def _contraction_starts(seed: int, n_pairs: int, d: int) -> np.ndarray:
    rng = CounterRng(seed, stream=29)
    return matcore.polar(np.array([rng.normal_matrix(d, d) for _ in range(n_pairs)]).reshape(n_pairs, d, d))


def contraction_ascent(task: FeasibilityTask):
    """Maximize the smallest slack eigenvalue over the pair contractions.

    Supergradient ascent on a concave objective (:func:`_batched_ascent`,
    retracted onto the operator-norm ball), with a closed form for d = 1, an
    exact angular grid for a single d = 2 pair, and a cyclic per-pair grid
    polish for several d = 2 pairs; up to ``task.ascent_iters`` evaluations
    from each start, one start drawn from ``task.seed``. The loop ends after
    the first evaluation at which a start's value exceeds
    ``matcore.EPS_ENGINE * task.scale``, the tolerance of
    :func:`warm_start_from`. Returns the best value, the contractions as a
    (pairs, d, d) stack, the exactly symmetric, trace-one average of the
    bottom eigenvectors' outer products over the ascent tail, in start
    order, which :func:`dual_refutation_value` takes as it is (None when the
    loop stopped at the tolerance, so a tail is only ever that of a run that
    took every step), and the number of loop evaluations (0 when there is
    no loop). Read it through :attr:`FeasibilityTask.ascent`, which runs it once.
    """
    pairs = task.root_pairs
    weights, roots_i, roots_j = pairs
    n_pairs = len(weights)
    c0 = task.offset
    d = task.d

    def values_of(ks):
        return np.linalg.eigvalsh(assemble_contraction_slack(c0, pairs, ks))[..., 0]

    if d == 1:
        # slack is linear in each scalar contraction: the maximum sits at
        # k = +1 for every pair (roots are nonnegative)
        ks = np.ones((n_pairs, 1, 1))
        val = float(values_of(ks))
        y = np.array([[1.0]]) if val < 0 else None
        return val, ks, y, 0

    iters = task.ascent_iters
    starts = [np.zeros((n_pairs, d, d)), np.broadcast_to(np.eye(d), (n_pairs, d, d))]
    if d == 2 and n_pairs == 1:
        starts.append(_rotation_grid_2d(c0, _rotation_parts_2d(pairs, 256), 256)[1][None])

    starts.append(_contraction_starts(task.seed, n_pairs, d))

    def evaluate(ks):
        w, q = np.linalg.eigh(assemble_contraction_slack(c0, pairs, ks))
        return w[:, 0], q[:, :, 0], None

    grad_weights = (2.0 * weights)[:, None, None]

    def supergradient(ks, vecs, _):
        # of each pair: 2 w (root_i v)(root_j v)'
        cols = vecs[:, None, :, None]
        return grad_weights * ((roots_i @ cols) * np.swapaxes(roots_j @ cols, -1, -2))

    ks = np.stack(starts)
    stop = matcore.EPS_ENGINE * task.scale
    best_val, best_ks, tail, evals = np.full(len(ks), -np.inf) if iters else values_of(ks), ks, [], 0
    if iters:
        # ``iters`` evaluations in all, the first scoring the starts: the loop takes
        # iters - 1 steps, as a step after the last evaluation would never be scored
        best_val, best_ks, tail, evals = _batched_ascent(
            ks, best_val, iters - 1, evaluate, supergradient, clip_operator_ball, stop
        )
    i = int(np.argmax(best_val))
    best, best_ks = float(best_val[i]), best_ks[i]
    if d == 2 and n_pairs > 1:
        polished = _coordinate_rotation_polish(c0, pairs, best_ks, task.scale)
        val = float(values_of(polished))
        if val > best:
            best, best_ks = val, polished
    y_avg = None
    if tail and best <= stop:  # above it nothing is refuted, and a stopped loop's tail is cut short
        vs = np.array(tail)
        y_avg = matcore.symmetrize(sum(vs[:, :, None] * vs[:, None, :]) / len(tail))
        y_avg = y_avg / float(np.trace(y_avg))  # unit eigenvectors: the trace is 1 up to rounding
    return best, best_ks, y_avg, evals


# ---------------------------------------------------------------------------
# orthogonal factors: Gamma_ij = root_i O_i O_j' root_j with each O_i a
# d x nd matrix of orthonormal rows is PSD with the pinned diagonal blocks,
# and its weighted block sum is M M' for M = sum p_i root_i O_i
# ---------------------------------------------------------------------------


@matcore.last_value
def _factor_starts(seed: int, n: int, d: int) -> np.ndarray:
    return matcore.polar(CounterRng(seed, stream=31).normal_matrix(3 * n * d, n * d).reshape(3, n, d, n * d))


def factor_ascent(task: FeasibilityTask):
    """Maximize lambda_min(M M' - target) over the orthogonal factors O_i.

    Riemannian ascent (Burer & Monteiro 2003; Absil, Mahony & Sepulchre
    2008) through :func:`_batched_ascent`, retracted onto orthonormal rows
    by the polar factor, for ``task.ascent_iters`` steps from four starts:
    every O_i = [I_d 0], then three polar-projected draws from
    ``task.seed``. Its one use is a feasible candidate, so it ends after the
    first evaluation at which a start's value exceeds
    ``matcore.EPS_ENGINE * task.scale``, the tolerance of
    :func:`warm_start_from`; otherwise it takes every step. Returns the best
    value, its coupling matrix Gamma = F F', F the stacked root_i O_i, which
    is PSD by construction, and the number of evaluations.
    Read it through :attr:`FeasibilityTask.factor_ascent`.
    """
    n, d = task.n, task.d
    nd = n * d
    roots = task.roots
    weighted = task.p[:, None, None] * roots

    factors = np.concatenate([np.broadcast_to(np.eye(d, nd), (1, n, d, nd)), _factor_starts(task.seed, n, d)])

    def evaluate(fs):
        terms = weighted @ fs
        m = terms[:, 0].copy()
        for i in range(1, n):
            m += terms[:, i]
        w, q = np.linalg.eigh(m @ np.swapaxes(m, -1, -2) - task.target)
        return w[:, 0], q[:, :, 0], m

    def supergradient(fs, vecs, m):
        # in O_i: 2 p_i (root_i v)(M' v)'
        left = weighted @ vecs[:, None, :, None]
        right = np.swapaxes(m, -1, -2) @ vecs[:, :, None]
        return 2.0 * left * np.swapaxes(right, -1, -2)[:, None]

    best_val = np.full(len(factors), -np.inf)
    best_val, best_factors, _, evals = _batched_ascent(
        factors, best_val, task.ascent_iters, evaluate, supergradient, matcore.polar, matcore.EPS_ENGINE * task.scale
    )
    i = int(np.argmax(best_val))
    stacked = (roots @ best_factors[i]).reshape(nd, nd)
    return float(best_val[i]), stacked @ stacked.T, evals


# ---------------------------------------------------------------------------
# the ascent loop both constructions share
# ---------------------------------------------------------------------------

_TAIL_EVALS = 25  # evaluations at the end of an ascent whose bottom eigenvectors are kept


def _batched_ascent(xs: np.ndarray, best_val: np.ndarray, steps: int, evaluate, supergradient, retract, stop: float):
    """Normalised supergradient ascent of all starts of the stack ``xs`` at once, in place.

    ``evaluate(x)`` gives the live starts' values, bottom eigenvectors and
    the ``aux`` that ``supergradient(x, vecs, aux)``, of shape (starts,
    blocks, rows, cols), needs; ``retract`` maps a stepped stack back onto
    the feasible set. Each start is evaluated, then takes up to ``steps``
    steps of length 0.5 / sqrt(k), k = 1, 2, ..., each followed by an
    evaluation, and stops when its supergradient, computed only when a step
    follows, vanishes. The whole loop ends after the first evaluation at
    which some start's value exceeds ``stop``, which both ascents set to
    the engine tolerance; only a loop that never does so takes every step
    and keeps whole tails. ``best_val`` holds each
    start's value before the loop (-inf for none); only a strictly larger
    value replaces it, so each start keeps its first-occurrence best, as if
    the starts ran one after another up to that evaluation.
    Returns the best values and points, the bottom eigenvectors of each
    start's last :data:`_TAIL_EVALS` evaluations, the starts in order, and
    the number of evaluations.
    """
    best_x = xs.copy()
    tails: list[list] = [[] for _ in xs]
    live = np.arange(len(xs))
    for it in range(steps + 1):
        cur = xs[live]
        vals, vecs, aux = evaluate(cur)
        better = vals > best_val[live]
        best_val[live[better]] = vals[better]
        best_x[live[better]] = cur[better]
        if it > steps - _TAIL_EVALS:
            for start, vec in zip(live, vecs):
                tails[start].append(vec)
        if it == steps or vals.max() > stop:
            break
        grads = supergradient(cur, vecs, aux)
        sq = np.sum((grads * grads).reshape(live.size, grads.shape[1], -1), axis=-1)
        gsq = sq[:, 0].copy()
        for b in range(1, sq.shape[1]):
            gsq += sq[:, b]
        gnorm = np.sqrt(gsq)
        moving = gnorm != 0.0
        live = live[moving]
        if live.size == 0:
            break
        step = 0.5 / math.sqrt(it + 1)
        xs[live] = retract(cur[moving] + step * grads[moving] / gnorm[moving, None, None, None])
    return best_val, best_x, [vec for vecs in tails for vec in vecs], it + 1


def _pair_coupling(task: FeasibilityTask, thetas) -> np.ndarray:
    """Gamma with pinned diagonal blocks and ``thetas`` as its (i, j) blocks, i < j."""
    nd = task.n * task.d
    gamma = pin_blocks(np.zeros((nd, nd)), task.blocks)
    for (si, sj), theta in zip(task.pair_slices, thetas):
        gamma[si, sj] = theta
        gamma[sj, si] = theta.T
    return gamma


def gamma_from_contractions(task: FeasibilityTask, ks) -> np.ndarray:
    """Coupling matrix whose pair blocks come from the contractions."""
    _, roots_i, roots_j = task.root_pairs
    return _pair_coupling(task, roots_i @ np.asarray(ks, dtype=float) @ roots_j)


def dual_refutation_value(task: FeasibilityTask, y: np.ndarray) -> float:
    """Upper bound on the best pairwise slack at an exactly symmetric PSD trace-one Y.

    A value below zero certifies that no admissible pair blocks can make
    the weighted block sum dominate the target, refuting the pairwise
    condition (and with it the full coupling condition).
    """
    total = float(np.sum(y * task.offset))
    for w, a_i, a_j in zip(*task.root_pairs):
        sv = np.linalg.svd(a_j @ y @ a_i, compute_uv=False)
        total += 2.0 * float(w) * float(np.sum(sv))
    return total


@matcore.last_value
def _transport_block(blocks: np.ndarray) -> np.ndarray:
    """Off-diagonal block of the optimal quadratic coupling of two components,
    root1 (root1 S2 root1)^(1/2) root1^+."""
    root1 = block_roots(blocks)[0]
    inner = matcore.sqrt_psd(root1 @ blocks[1] @ root1)
    # theta = S1 S2* of the optimal quadratic coupling when blocks[0]
    # is nonsingular; degenerate cases just yield a weaker candidate
    return root1 @ inner @ matcore.pinv_psd(root1)


def default_candidates(task: FeasibilityTask) -> list[np.ndarray]:
    """The one candidate list: block diagonal, shared-target off-diagonals
    (feasible when the target is dominated by every component), the
    optimal-transport pair coupling when n = 2, and the contraction
    construction of the task's ascent wherever that ascent is exact or
    closed-form: the pairwise cone, n = 2 and d = 1."""
    cands = [_pair_coupling(task, []), _pair_coupling(task, [task.target] * len(task.pairs))]
    if task.n == 2:
        cands.append(_pair_coupling(task, [_transport_block(task.blocks)]))
    if task.cone == PAIRWISE or task.n == 2 or task.d == 1:
        cands.append(task.ascent_gamma)
    return cands


def _score_candidates(task: FeasibilityTask, cands: list) -> list[tuple]:
    """``(key, pinned Gamma, cone distance)`` of each candidate, keyed as
    :func:`warm_start_from` ranks them.

    The candidates are pinned and compressed one by one, then scored as one
    stack through :func:`_spectra`, whose slack spectra give both the cone
    distance and the slack margin.
    """
    pinned = [pin_blocks(matcore.symmetrize(cand), task.blocks) for cand in cands]
    slacks = np.array([mix_compress(g, task.p, task.d) for g in pinned]) - task.target
    w_gamma, w_slack = _spectra(task, np.array(pinned), slacks)
    tie = matcore.EPS_ROUND * task.scale
    res = _cone_distance(w_gamma, w_slack).tolist()
    return [((r if r > tie else 0.0, -lmin), g, r) for r, lmin, g in zip(res, w_slack[:, 0].tolist(), pinned)]


def warm_start_from(task: FeasibilityTask, candidates) -> tuple[np.ndarray, float]:
    """Pick the candidate with the smallest combined residual: ``(pinned Gamma,
    its cone distance)``, the distance as :func:`_cone_distance` gives it.

    Residuals within rounding of each other count as ties, broken toward
    the larger slack margin so already-feasible starts keep their slack;
    ties keep the earlier candidate. A candidate of the wrong shape is not
    scored; at least one must have the right shape.

    For the full cone with n >= 3, when no candidate is within
    ``matcore.EPS_ENGINE * task.scale`` of feasible, the coupling of the
    task's :attr:`~FeasibilityTask.factor_ascent` is scored as one more.
    """
    nd = task.n * task.d
    cands = [cand for cand in (np.asarray(c, dtype=float) for c in candidates) if cand.shape == (nd, nd)]
    scored = _score_candidates(task, cands)
    if task.cone == FULL and task.n >= 3 and min(key for key, _, _ in scored)[0] > matcore.EPS_ENGINE * task.scale:
        scored += _score_candidates(task, [task.factor_ascent[1]])
    _, gamma, dist = min(scored, key=lambda entry: entry[0])
    return gamma, dist


def solve(task: FeasibilityTask, candidates=()) -> FeasibilityOutcome:
    """The best of ``candidates`` plus :func:`default_candidates`, as
    :func:`warm_start_from` picks it.

    For the pairwise cone and for n = 2 that list holds the contraction
    ascent's coupling, which decides the cone; for the full cone with
    n >= 3 the pick falls back to the orthogonal-factor coupling. The
    outcome is ``FEASIBLE`` when the pick's cone distance is at most
    ``matcore.EPS_ENGINE * task.scale``, else ``NO_FEASIBLE_CANDIDATE``
    with that distance.
    """
    gamma, dist = warm_start_from(task, [*candidates, *default_candidates(task)])
    status = FEASIBLE if dist <= matcore.EPS_ENGINE * task.scale else NO_FEASIBLE_CANDIDATE
    return FeasibilityOutcome(status, gamma, 0, dist)


def validate_gamma(task: FeasibilityTask, gamma: np.ndarray, tol: float) -> dict:
    """Re-validate a candidate witness against the task constraints, to ``tol`` times its scale."""
    gamma = matcore.symmetrize(gamma)
    tol_abs = tol * task.scale
    block_err = max(
        matcore.fro_norm(gamma[task.block_slice(i), task.block_slice(i)] - task.blocks[i])
        for i in range(task.n)
    )
    slack = mix_compress(gamma, task.p, task.d) - task.target
    w_gamma, w_slack = _spectra(task, gamma[None], slack[None])
    lmin_gamma, lmin_slack = float(w_gamma[0, :, 0].min()), float(w_slack[0, 0])
    ok = block_err <= tol_abs and lmin_gamma >= -tol_abs and lmin_slack >= -tol_abs
    return {
        "ok": bool(ok),
        "block_err": float(block_err),
        "lmin_gamma": lmin_gamma,
        "lmin_slack": lmin_slack,
    }
