"""Dense symmetric-matrix algebra at small dimension (d <= ~16).

Matrices are plain float ndarrays kept exactly symmetric by mirroring the
upper triangle (see :func:`symmetrize`). Tolerances have the form
``eps * (1 + |A|)``: relative to matrix scale at unit scale and above,
absolute below it. Every function is pure; nothing here holds shared
state, so concurrent callers are safe. Eigenproblems go to LAPACK's
``eigh``/``eigvalsh``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EPS_PSD = 1e-9  # relative positive-semidefiniteness tolerance
RANK_TOL = 1e-10  # relative eigenvalue cutoff for pseudo-inverses


class InvalidMatrix(ValueError):
    """Input is not a finite square symmetric matrix."""


class NotPSD(ValueError):
    """Matrix has an eigenvalue below the allowed tolerance."""


class RangeViolation(ValueError):
    """Right factor leaves the range of a singular middle matrix."""


class FactorMismatch(ValueError):
    """Candidate factor does not reproduce the target Gram matrix."""


def _as_square(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise InvalidMatrix(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidMatrix("matrix has non-finite entries")
    return a


def symmetrize(a) -> np.ndarray:
    """Mirror the upper triangle so ``out[i, j] == out[j, i]`` exactly."""
    a = _as_square(a)
    upper = np.triu(a)
    return upper + np.triu(a, 1).T


def _as_sym(a) -> np.ndarray:
    a = _as_square(a)
    return 0.5 * (a + a.T)


def require_symmetric(a, tol: float = 1e-12) -> np.ndarray:
    """Reject matrices whose asymmetry exceeds ``tol`` (relative), else mirror."""
    a = _as_square(a)
    scale = 1.0 + np.abs(a).max()
    gap = np.abs(a - a.T).max()
    if gap > tol * scale:
        raise InvalidMatrix(f"matrix asymmetry {gap:.3e} exceeds tolerance")
    return symmetrize(a)


def fro_norm(a) -> float:
    return float(np.linalg.norm(np.asarray(a, dtype=float)))


def spec_norm(a) -> float:
    w = np.linalg.eigvalsh(_as_sym(a))
    return float(max(abs(w[0]), abs(w[-1]))) if w.size else 0.0


def lmin_sym2(m00: float, m01: float, m11: float) -> float:
    """Smallest eigenvalue of the symmetric 2 x 2 matrix [[m00, m01], [m01, m11]].

    Plain float arithmetic for scalar objectives evaluated many times; it
    agrees with ``eigvalsh`` to rounding relative to the matrix norm.
    """
    return 0.5 * (m00 + m11) - math.hypot(0.5 * (m00 - m11), m01)


def is_psd(a, eps: float = EPS_PSD) -> tuple[bool, float]:
    """PSD test with the smallest eigenvalue.

    Returns ``(ok, lambda_min)`` where ``ok`` means
    ``lambda_min >= -eps * (1 + ||A||_2)``.
    """
    w = np.linalg.eigvalsh(_as_sym(a))
    lmin = float(w[0])
    norm2 = float(max(abs(w[0]), abs(w[-1])))
    return lmin >= -eps * (1.0 + norm2), lmin


def clamp_psd(a) -> np.ndarray:
    """Nearest PSD matrix in Frobenius norm (negative eigenvalues to zero)."""
    w, q = np.linalg.eigh(_as_sym(a))
    if w[0] >= 0.0:
        return _as_sym(a)
    return _as_sym((q * np.maximum(w, 0.0)) @ q.T)


def sqrt_psd(a, eps: float = EPS_PSD) -> np.ndarray:
    """Symmetric PSD square root; tiny negative eigenvalues are clamped."""
    w, q = np.linalg.eigh(_as_sym(a))
    norm2 = float(max(abs(w[0]), abs(w[-1]))) if w.size else 0.0
    if w[0] < -eps * (1.0 + norm2):
        raise NotPSD(f"lambda_min={w[0]:.3e} below tolerance")
    root = np.sqrt(np.maximum(w, 0.0))
    return _as_sym((q * root) @ q.T)


def pinv_psd(a, eps: float = EPS_PSD, rank_tol: float = RANK_TOL) -> np.ndarray:
    """Moore-Penrose pseudo-inverse of a PSD matrix via its spectrum."""
    w, q = np.linalg.eigh(_as_sym(a))
    norm2 = float(max(abs(w[0]), abs(w[-1]))) if w.size else 0.0
    if w[0] < -eps * (1.0 + norm2):
        raise NotPSD(f"lambda_min={w[0]:.3e} below tolerance")
    lam_max = max(float(w[-1]), 0.0)
    cutoff = rank_tol * lam_max
    inv = np.where(w > cutoff, 1.0 / np.where(w > cutoff, w, 1.0), 0.0)
    return _as_sym((q * inv) @ q.T)


@dataclass
class CorrelationOf:
    """Unit-diagonal correlation matrix plus the diagonal scales it strips."""

    corr: np.ndarray
    scales: np.ndarray


def correlation_of(a, eps: float = EPS_PSD) -> CorrelationOf:
    """Correlation matrix associated with a PSD matrix.

    Rows and columns whose diagonal entry is (relatively) zero become
    identity rows with zero off-diagonals; their scale entry is zero.
    """
    a = _as_sym(a)
    ok, lmin = is_psd(a, eps)
    if not ok:
        raise NotPSD(f"lambda_min={lmin:.3e} below tolerance")
    diag = np.maximum(np.diag(a), 0.0)
    thr = eps * (1.0 + diag.max(initial=0.0))
    alive = diag > thr
    scales = np.sqrt(np.where(alive, diag, 0.0))
    inv = np.where(alive, 1.0 / np.where(alive, scales, 1.0), 0.0)
    corr = a * np.outer(inv, inv)
    corr[~alive, :] = 0.0
    corr[:, ~alive] = 0.0
    np.fill_diagonal(corr, 1.0)
    return CorrelationOf(symmetrize(corr), scales)


def schur_complement(s1, theta, s2, eps: float = EPS_PSD, range_tol: float = 1e-8) -> np.ndarray:
    """``S1 - Theta pinv(S2) Theta*`` with a range check for singular S2."""
    s1 = _as_sym(s1)
    s2 = _as_sym(s2)
    theta = np.asarray(theta, dtype=float)
    s2_pinv = pinv_psd(s2, eps)
    resid = theta.T - s2 @ (s2_pinv @ theta.T)
    scale = 1.0 + fro_norm(theta)
    if fro_norm(resid) > range_tol * scale:
        raise RangeViolation("columns of Theta* leave the range of S2")
    return _as_sym(s1 - theta @ s2_pinv @ theta.T)


def _orthonormal_extension(rows: list[np.ndarray], q: int, count: int) -> list[np.ndarray]:
    """Extend orthonormal rows with `count` more vectors via Gram-Schmidt."""
    basis = [r.copy() for r in rows]
    added: list[np.ndarray] = []
    j = 0
    while len(added) < count:
        if j >= q + count + 1:
            raise FactorMismatch("failed to complete an orthonormal basis")
        v = np.zeros(q)
        if j < q:
            v[j] = 1.0
        else:  # degenerate fallback, deterministic
            v[(j * 7) % q] = 1.0
            v[(j * 3 + 1) % q] += 0.5
        j += 1
        for _ in range(2):  # re-orthogonalize for stability
            for b in basis:
                v -= (b @ v) * b
        nrm = np.linalg.norm(v)
        if nrm < 1e-8:
            continue
        v /= nrm
        basis.append(v)
        added.append(v)
    return added


def polar_factor(theta, sigma, tol: float = 1e-8) -> np.ndarray:
    """Orthogonal O with ``sigma^{1/2} @ O[:d, :] == Theta`` on range(sigma).

    ``Theta`` is d x q with ``Theta Theta* == sigma``; the first d rows of the
    returned q x q orthogonal matrix reproduce Theta through the square root
    of sigma, and the remaining rows complete an orthonormal basis.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 2:
        raise InvalidMatrix("Theta must be a matrix")
    d, q = theta.shape
    sigma = _as_sym(sigma)
    if sigma.shape[0] != d:
        raise InvalidMatrix("sigma dimension does not match Theta rows")
    if q < d:
        raise FactorMismatch("Theta must have at least as many columns as rows")
    gram_gap = fro_norm(theta @ theta.T - sigma)
    if gram_gap > tol * (1.0 + fro_norm(sigma)):
        raise FactorMismatch(f"Theta Theta* differs from sigma by {gram_gap:.3e}")
    lam, vecs = np.linalg.eigh(sigma)
    lam = np.maximum(lam, 0.0)
    lam_max = lam[-1] if lam.size else 0.0
    alive = lam > RANK_TOL * max(lam_max, 1e-300)
    theta_eig = vecs.T @ theta  # rows follow eigenvalue order
    w = np.zeros((d, q))
    live_rows: list[np.ndarray] = []
    for k in range(d):
        if alive[k]:
            w[k] = theta_eig[k] / np.sqrt(lam[k])
            live_rows.append(w[k])
    dead = [k for k in range(d) if not alive[k]]
    fill = _orthonormal_extension(live_rows, q, len(dead) + (q - d))
    for idx, k in enumerate(dead):
        w[k] = fill[idx]
    rest = np.array(fill[len(dead):]).reshape(q - d, q) if q > d else np.zeros((0, q))
    top = vecs @ w
    o = np.vstack([top, rest])
    ortho_gap = fro_norm(o @ o.T - np.eye(q))
    if ortho_gap > 1e-8 * (1.0 + q):
        raise FactorMismatch(f"orthogonality defect {ortho_gap:.3e}")
    return o


def cholesky_lower(a, eps: float = EPS_PSD) -> np.ndarray:
    """Lower-triangular L with ``L L* == A`` for PSD A.

    Singular matrices get zero columns at rank deficiencies instead of a
    failure; the diagonal of L is nonnegative.
    """
    a = _as_sym(a)
    n = a.shape[0]
    scale = 1.0 + float(np.abs(np.diag(a)).max(initial=0.0))
    tol_pivot = eps * scale
    lower = np.zeros_like(a)
    for j in range(n):
        pivot = a[j, j] - lower[j, :j] @ lower[j, :j]
        if pivot > tol_pivot:
            lower[j, j] = np.sqrt(pivot)
            if j + 1 < n:
                lower[j + 1 :, j] = (a[j + 1 :, j] - lower[j + 1 :, :j] @ lower[j, :j]) / lower[j, j]
        elif pivot >= -tol_pivot:
            # zero pivot: for a PSD matrix the rest of the column must vanish
            if j + 1 < n:
                resid = a[j + 1 :, j] - lower[j + 1 :, :j] @ lower[j, :j]
                if np.abs(resid).max(initial=0.0) > 10.0 * np.sqrt(tol_pivot * scale):
                    raise NotPSD("zero pivot with nonzero column")
        else:
            raise NotPSD(f"negative pivot {pivot:.3e}")
    return lower
