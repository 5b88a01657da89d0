"""Independent re-computations used to check the program's outputs.

Nothing here imports gmcvx: every function works on plain numpy arrays
with its own eigenvalue tests, so a check cannot pass merely because it
repeats the program's own arithmetic.
"""

from __future__ import annotations

import math

import numpy as np

SQRT2 = math.sqrt(2.0)


def axis_swap_holds(a: float, b: float) -> bool:
    """Directional condition for p = (1/2, 1/2), S1 = diag(8, 4),
    S2 = diag(4, 8) and target [[a, b], [b, a]], in closed form.

    The target is PSD only for |b| <= a. Below a = 3 the weighted
    standard-deviation mixture dominates every PSD target with a <= 3;
    the boundary then follows the line |b| = 6 - a up to a = 17/3 and the
    ellipse b^2 = 1 - (a - 3)^2 / 8 up to a = 3 + 2 sqrt(2).
    """
    ab = abs(b)
    if a < 0.0 or ab > a:
        return False
    if a <= 3.0:
        return True
    if a <= 17.0 / 3.0:
        return ab <= 6.0 - a
    if a <= 3.0 + 2.0 * SQRT2:
        return b * b <= 1.0 - (a - 3.0) ** 2 / 8.0
    return False


def lmin(mat: np.ndarray) -> float:
    mat = np.asarray(mat, dtype=float)
    return float(np.linalg.eigvalsh(0.5 * (mat + mat.T))[0])


def _scale(p, covs, target) -> float:
    return 1.0 + max(float(np.abs(target).max()), float(np.abs(covs).max()))


def directional_slack(p, covs, target, xi) -> float:
    """sum_i p_i sqrt(xi' S_i xi) - sqrt(xi' S xi) for one direction."""
    xi = np.asarray(xi, dtype=float).reshape(-1)
    q_c = np.array([float(xi @ c @ xi) for c in covs])
    q_t = float(xi @ target @ xi)
    return float(np.dot(p, np.sqrt(np.maximum(q_c, 0.0))) - math.sqrt(max(q_t, 0.0)))


def gamma_certificate_errors(p, covs, target, gamma, pairwise: bool = False, tol: float = 1e-6) -> list[str]:
    """Eigenvalue check of a coupling certificate; returns the violations.

    The diagonal d-blocks must equal the component covariances, Gamma must
    be PSD (each 2d x 2d pair block when ``pairwise``), and the weighted
    block sum sum_ij p_i p_j Gamma_ij minus the target must be PSD.
    """
    p = np.asarray(p, dtype=float)
    covs = np.asarray(covs, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    n, d = covs.shape[0], covs.shape[1]
    tol_abs = tol * _scale(p, covs, target)
    errors = []
    if gamma.shape != (n * d, n * d):
        return [f"gamma has shape {gamma.shape}, expected {(n * d, n * d)}"]
    if not np.all(np.isfinite(gamma)):
        return ["gamma has non-finite entries"]
    blocks = gamma.reshape(n, d, n, d).transpose(0, 2, 1, 3)
    for i in range(n):
        err = float(np.abs(blocks[i, i] - covs[i]).max())
        if err > tol_abs:
            errors.append(f"diagonal block {i} differs from S_{i} by {err:.3e}")
    if pairwise:
        for i in range(n):
            for j in range(i + 1, n):
                pair = np.block([[blocks[i, i], blocks[i, j]], [blocks[j, i], blocks[j, j]]])
                if lmin(pair) < -tol_abs:
                    errors.append(f"pair block ({i}, {j}) has eigenvalue {lmin(pair):.3e}")
    elif lmin(gamma) < -tol_abs:
        errors.append(f"gamma has eigenvalue {lmin(gamma):.3e}")
    mixed = np.einsum("i,j,ijkl->kl", p, p, blocks)
    slack = lmin(mixed - np.asarray(target, dtype=float))
    if slack < -tol_abs:
        errors.append(f"weighted block sum minus target has eigenvalue {slack:.3e}")
    return errors


def correl_certificate_errors(p, covs, target, m, corr, comp_scales, tol: float = 1e-6) -> list[str]:
    """Check a shared-correlation certificate (M, C, D_i) from its definition.

    C must be a PSD correlation matrix, each M S_i M' must equal D_i C D_i,
    and D C D - M S M' must be PSD for D = sum_i p_i D_i.
    """
    p = np.asarray(p, dtype=float)
    m = np.asarray(m, dtype=float)
    corr = np.asarray(corr, dtype=float)
    scales = np.asarray(comp_scales, dtype=float)
    errors = []
    if float(np.abs(np.diag(corr) - 1.0).max()) > tol:
        errors.append("correlation matrix lacks a unit diagonal")
    if lmin(corr) < -tol:
        errors.append(f"correlation matrix has eigenvalue {lmin(corr):.3e}")
    for i, cov in enumerate(covs):
        t = m @ cov @ m.T
        rebuilt = scales[i][:, None] * corr * scales[i][None, :]
        err = float(np.abs(t - rebuilt).max())
        if err > tol * (1.0 + float(np.abs(t).max())):
            errors.append(f"M S_{i} M' differs from D_{i} C D_{i} by {err:.3e}")
    mix = p @ scales
    t_target = m @ np.asarray(target, dtype=float) @ m.T
    gap = lmin(mix[:, None] * corr * mix[None, :] - t_target)
    if gap < -tol * (1.0 + float(np.abs(t_target).max())):
        errors.append(f"D C D - M S M' has eigenvalue {gap:.3e}")
    return errors


def _psd_root(mat: np.ndarray) -> np.ndarray:
    w, q = np.linalg.eigh(0.5 * (mat + mat.T))
    return (q * np.sqrt(np.maximum(w, 0.0))) @ q.T


def pair_refutation_bound(p, covs, target, y) -> float:
    """Upper bound on the best pairwise slack at a PSD trace-one Y.

    For every admissible pair block R_i K R_j with ||K|| <= 1,
    <Y, R_i K R_j + sym> <= 2 ||R_j Y R_i||_*, so a negative value refutes
    the pairwise (and hence the full) coupling condition.
    """
    p = np.asarray(p, dtype=float)
    y = 0.5 * (np.asarray(y, dtype=float) + np.asarray(y, dtype=float).T)
    roots = [_psd_root(np.asarray(c, dtype=float)) for c in covs]
    base = np.einsum("i,ikl->kl", p**2, np.asarray(covs, dtype=float)) - np.asarray(target, dtype=float)
    total = float(np.sum(y * base))
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            total += 2.0 * p[i] * p[j] * float(np.linalg.svd(roots[j] @ y @ roots[i], compute_uv=False).sum())
    return total


def mixture_covariance(p, covs, means) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    means = np.asarray(means, dtype=float)
    return np.einsum("i,ikl->kl", p, np.asarray(covs, dtype=float)) + np.einsum("i,ik,il->kl", p, means, means)
