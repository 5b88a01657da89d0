"""Reference problem families shared by the test modules."""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from gmcvx import conditions, matcore, psdfeas
from gmcvx.conditions import MixtureProblem, SearchConfig
from gmcvx.rng import CounterRng

SQRT2 = math.sqrt(2.0)

# directional-search settings of the region grid (LIGHT) and the chain (MID)
LIGHT = SearchConfig(iters=30, random_starts=8, grid_points=360, alpha_points=120, ascent_iters=0)
MID = SearchConfig(iters=80, random_starts=24)


def clear_shared_caches() -> None:
    """Empty every value the checkers keep across calls, so the next call computes cold."""
    for kept in matcore.LAST_VALUES:
        kept.clear()
    conditions._half_circle.cache_clear()
    psdfeas._angle_grid.cache_clear()


def axis_swap_problem(a: float, b: float) -> MixtureProblem:
    """Equal-weight pair with swapped axis variances (8,4) and (4,8)."""
    return MixtureProblem(
        p=[0.5, 0.5],
        covs=np.stack([np.diag([8.0, 4.0]), np.diag([4.0, 8.0])]),
        target=np.array([[a, b], [b, a]]),
    )


def axis_swap_region(a: float, b: float) -> bool:
    """Analytic dominance region for :func:`axis_swap_problem` targets."""
    ab = abs(b)
    if a < 0 or ab > a:
        return False
    if a <= 3.0:
        return True
    if a <= 17.0 / 3.0:
        return ab <= 6.0 - a
    if a <= 3.0 + 2.0 * SQRT2:
        return b * b <= 1.0 - (a - 3.0) ** 2 / 8.0
    return False


def rank_deficient_pair(lam: float = 0.0) -> MixtureProblem:
    """Isotropic component next to a rank-deficient one; coupling exists
    but no shared-correlation basis does."""
    return MixtureProblem(
        p=[0.5, 0.5],
        covs=np.stack([4.0 * np.eye(2), np.diag([4.0, 4.0 * lam * lam])]),
        target=np.array([[2.0, 1.0 + lam], [1.0 + lam, 1.0 + lam * lam]]),
    )


def small_component_problem(scale: float = 1.0) -> MixtureProblem:
    """A valid problem, sigma^2 = scale, whose second component is 1e-3 of the
    first in norm and has the eigenvalue -1e-11 scale: inside -EPS_PSD sigma^2,
    below -EPS_PSD times the component's own norm."""
    return MixtureProblem(
        p=[0.5, 0.5],
        covs=scale * np.stack([np.diag([1.0, 0.5]), np.diag([1e-3, -1e-11])]),
        target=scale * 0.1 * np.eye(2),
    )


RANK_DEFICIENT_GAMMA = 4.0 * np.array(
    [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 1.0, 0.0], [0.0, 1.0, 1.0, 0.0], [0.0, 0.0, 0.0, 0.0]]
)


def three_diag_problem(target) -> MixtureProblem:
    """Equal-weight triple of diagonal components (18,9), (9,9), (9,18)."""
    return MixtureProblem(
        p=[1.0 / 3.0] * 3,
        covs=np.stack([np.diag([18.0, 9.0]), 9.0 * np.eye(2), np.diag([9.0, 18.0])]),
        target=np.asarray(target, dtype=float),
    )


def three_diag_gamma(a: float, x: float) -> np.ndarray:
    """Pairwise-valid coupling for the diagonal triple at parameters (a, x)."""
    root_a = math.sqrt(max(1.0 - (a - 3.0) ** 2 / 8.0, 0.0))
    root_x = math.sqrt(max(1.0 - x * x, 0.0))
    theta_a = np.array(
        [[4.5 * (a - 3.0), 18.0 * root_a], [-9.0 * root_a, 4.5 * (a - 3.0)]]
    )
    theta_t = np.array([[9.0 * SQRT2 * x, 9.0 * SQRT2 * root_x], [-9.0 * root_x, 9.0 * x]])
    theta_h = np.array([[9.0 * x, -9.0 * root_x], [9.0 * SQRT2 * root_x, 9.0 * SQRT2 * x]])
    s1 = np.diag([18.0, 9.0])
    s2 = 9.0 * np.eye(2)
    s3 = np.diag([9.0, 18.0])
    return np.vstack(
        [
            np.hstack([s1, theta_t, theta_a]),
            np.hstack([theta_t.T, s2, theta_h.T]),
            np.hstack([theta_a.T, theta_h, s3]),
        ]
    )


def curve_x(a: float) -> float:
    """Second parameter making :func:`three_diag_gamma` fully PSD."""
    return math.sqrt((a + 2.0 * SQRT2 - 3.0) / (4.0 * SQRT2))


def three_diag_target(a: float, x: float) -> np.ndarray:
    diag = 1.0 + a + 2.0 * (1.0 + SQRT2) * x
    off = math.sqrt(max(1.0 - (a - 3.0) ** 2 / 8.0, 0.0)) + 2.0 * (SQRT2 - 1.0) * math.sqrt(
        max(1.0 - x * x, 0.0)
    )
    return np.array([[diag, off], [off, diag]])


def pair_theta(a: float) -> np.ndarray:
    """Off-diagonal block certifying the axis-swap pair at row parameter a."""
    root = math.sqrt(max(1.0 - (a - 3.0) ** 2 / 8.0, 0.0))
    return np.array([[2.0 * (a - 3.0), 8.0 * root], [-4.0 * root, 2.0 * (a - 3.0)]])


def random_psd(rng: CounterRng, d: int, rank: int | None = None) -> np.ndarray:
    rank = d if rank is None else rank
    w = rng.normal_matrix(d, max(rank, 1))
    mat = w @ w.T
    return 0.5 * (mat + mat.T)


def random_scalar_problem(seed: int) -> tuple[MixtureProblem, float]:
    """d = 1 problem plus the exact margin sum(p sigma) - sigma."""
    rng = CounterRng(seed, stream=71)
    n = 2 + int(rng.uniforms(1)[0] * 3)
    raw = rng.uniforms(n) + 0.1
    p = raw / raw.sum()
    sigs = 0.05 + 3.0 * rng.uniforms(n)
    target_sig = 3.2 * rng.uniforms(1)[0]
    prob = MixtureProblem(
        p=p,
        covs=(sigs**2).reshape(n, 1, 1),
        target=np.array([[target_sig**2]]),
    )
    return prob, float(p @ sigs - target_sig)


def random_chain_problem(seed: int) -> MixtureProblem:
    """Seeded small problem mixing feasible, boundary and infeasible targets,
    with occasional singular components."""
    rng = CounterRng(seed, stream=73)
    u = rng.uniforms(6)
    d = 1 + int(u[0] * 3)
    n = 2 + int(u[1] * 2)
    raw = rng.uniforms(n) + 0.15
    p = raw / raw.sum()
    covs = []
    for i in range(n):
        rank = d if u[2] < 0.6 or i == 0 else max(1, d - 1)
        covs.append(random_psd(rng, d, rank))
    covs = np.stack(covs)
    gamma = np.zeros((n * d, n * d))
    for i in range(n):
        gamma[i * d : (i + 1) * d, i * d : (i + 1) * d] = covs[i]
    anchor = np.einsum("i,j,ikjl->kl", p, p, gamma.reshape(n, d, n, d))
    mode = u[4]
    if mode < 0.35:
        target = (0.2 + 0.7 * u[5]) * anchor
    elif mode < 0.6:
        target = anchor + random_psd(rng, d) * 0.05
    elif mode < 0.8:
        target = anchor * (1.0 + 2.0 * u[5])
    else:
        target = (6.0 + 94.0 * u[5]) * anchor + np.eye(d) * covs[0].max()
    return MixtureProblem(p=p, covs=covs, target=0.5 * (target + target.T))


def boundary_problems(seed: int, eps: tuple[float, ...], steps: int = 30) -> list[MixtureProblem]:
    """Seeded three-component problems just inside the directional boundary.

    d = 2 or 3, and with probability 0.4 every component after the first is
    singular. The target is t (1 - e) base for each e of ``eps``, with t the
    largest multiple of a random PSD ``base`` at which ``check_inegsqrt``
    holds under ``SearchConfig()``: doubled from 1 while it holds, then
    ``steps`` bisections, t the holding end.
    """
    rng = CounterRng(seed, stream=901)
    u = rng.uniforms(2)
    d = 2 + seed % 2
    raw = rng.uniforms(3) + 0.15
    p = raw / raw.sum()
    covs = np.stack([random_psd(rng.spawn(i), d, d if u[0] < 0.6 or i == 0 else d - 1) for i in range(3)])
    base = random_psd(rng.spawn(50), d)

    def holds(t: float) -> bool:
        return conditions.check_inegsqrt(MixtureProblem(p, covs, t * base), SearchConfig()).holds

    lo, hi = 0.0, 1.0
    while holds(hi):
        lo, hi = hi, 2.0 * hi
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if holds(mid):
            lo = mid
        else:
            hi = mid
    return [MixtureProblem(p, covs, lo * (1.0 - e) * base) for e in eps]


def refine_minimizer_by_slope(
    f: Callable[[float], float],
    x0: float,
    span: float = 1e-5,
    fd_step: float = 1e-5,
    xtol: float = 1e-12,
    max_widen: int = 60,
) -> float:
    """Polish a smooth scalar minimizer past the value-flatness limit.

    Golden section is limited to about sqrt(eps) accuracy because function
    values flatten near the optimum; bisecting the sign of a central
    difference recovers the extra digits. ``x0`` must be close to the
    minimizer; the bracket is widened until the slope changes sign.
    """

    def slope(x: float) -> float:
        return f(x + fd_step) - f(x - fd_step)

    a, b = x0 - span, x0 + span
    sa, sb = slope(a), slope(b)
    widen = 0
    while sa * sb > 0 and widen < max_widen:
        a -= span
        b += span
        span *= 2.0
        sa, sb = slope(a), slope(b)
        widen += 1
    if sa * sb > 0:
        return x0
    while b - a > xtol:
        mid = 0.5 * (a + b)
        sm = slope(mid)
        if sm == 0.0:
            return mid
        if sa * sm < 0:
            b = mid
        else:
            a, sa = mid, sm
    return 0.5 * (a + b)
