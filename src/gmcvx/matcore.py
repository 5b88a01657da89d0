"""Dense symmetric-matrix algebra at small dimension (d <= ~16).

Matrices are plain float ndarrays kept exactly symmetric by mirroring the
upper triangle (see :func:`symmetrize`). Every function is pure.
Eigenproblems go to LAPACK's ``eigh``/``eigvalsh``.

Shared state: :func:`last_value`, with which ``conditions`` and ``psdfeas``
keep what the cells of a sweep share. Kept arrays are read-only and an
entry is replaced whole, so concurrent callers stay safe: two threads that
miss together compute the same bits, and no caller can write into a kept value.

Tolerance policy: every threshold in gmcvx is one of the constants below
times the problem's scale, with no absolute floor. The scale is sigma^2,
the largest spectral norm of the target and the components
(:func:`spectral_scale`). Variance-unit quantities are compared against
``EPS * sigma^2``, std-unit ones (the directional slack h, means) against
``EPS * sigma`` and dimensionless ones (correlations, weights) against
``EPS``. A difference of problem-scale terms (a slack, ``target - S_i``)
is tested against sigma^2, never its own norm, which vanishes when it is
tight. A matrix is checked once, where it enters, against the sigma^2 of
the problem it enters with; a lone matrix is its own problem. The routines
here trust their input: :func:`sqrt_psd` clamps negative eigenvalues and
:func:`pinv_psd` cuts them. So verdicts do not change when the problem is
rescaled, and margins scale exactly by powers of 4.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache, wraps

import numpy as np

EPS_ROUND = 1e-12  # rounding level: asymmetry, weight sums, ties, null eigenvalues
RANK_TOL = 1e-10  # pseudo-inverse eigenvalue cutoff, centred means, exact expectation tests
EPS_PSD = 1e-9  # decisions: PSD tests, directional and coupling verdicts
EPS_ENGINE = 1e-8  # feasibility-engine stop, witness validation, correlation matching
EPS_CHAIN = 1e-7  # implication-chain inversions and standalone certificate re-validation


class InvalidMatrix(ValueError):
    """Input is not a finite square symmetric matrix."""


class NotPSD(ValueError):
    """Matrix has an eigenvalue below the allowed tolerance."""


class FactorMismatch(ValueError):
    """Candidate factor does not reproduce the target Gram matrix."""


def as_square(a) -> np.ndarray:
    """``a`` as a finite square float matrix, else :class:`InvalidMatrix`: the one
    check of a matrix from outside, made once where it enters."""
    try:
        a = np.asarray(a, dtype=float)
    except (TypeError, ValueError) as exc:  # ragged nesting, or an entry that is no number
        raise InvalidMatrix(f"not a matrix of numbers ({exc})") from None
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise InvalidMatrix(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidMatrix("matrix has non-finite entries")
    return a


@lru_cache(maxsize=None)
def _triu_masks(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only masks of the upper triangle of an n x n matrix, with and without the diagonal."""
    upper, strict = np.triu(np.ones((n, n), dtype=bool)), np.triu(np.ones((n, n), dtype=bool), 1)
    upper.flags.writeable = strict.flags.writeable = False
    return upper, strict


@lru_cache(maxsize=None)
def angle_grid(count: int, span: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``count`` equispaced angles in [0, span) and their unit directions
    (cos, sin) as rows."""
    angles = np.linspace(0.0, span, count, endpoint=False)
    out = (angles, np.column_stack([np.cos(angles), np.sin(angles)]))
    for arr in out:
        arr.flags.writeable = False
    return out


LAST_VALUES: list = []  # every function decorated with last_value, in definition order


def _key(arg):
    """An argument as part of a key: an int as it is, an array as its dtype, shape and bytes."""
    if isinstance(arg, np.ndarray):
        return arg.dtype.str, arg.shape, arg.tobytes()
    if isinstance(arg, tuple):
        return tuple(map(_key, arg))
    return operator.index(arg)  # TypeError for anything else, so no input is left out


def last_value(fn):
    """``fn``, a pure function of ints and arrays (also in tuples), keeping the
    value of the last arguments it was called with, its arrays read-only; a
    call that raises keeps nothing. ``hits``, ``misses``, ``entry`` (``(key,
    value)`` or None) and ``clear()`` sit on the result. One entry is what
    the cells of a sweep need, as they share their arguments. A second would
    carry values from pass to pass over a short list of problems, the CLI
    benchmark's six sessions for instance, a reuse that commands run as
    separate processes never see.
    """

    @wraps(fn)
    def kept(*args):
        key = tuple(map(_key, args))
        entry = kept.entry
        if entry is not None and entry[0] == key:
            kept.hits += 1
            return entry[1]
        value = fn(*args)
        for arr in value if isinstance(value, tuple) else (value,):
            if isinstance(arr, np.ndarray):
                arr.flags.writeable = False
        kept.misses += 1
        kept.entry = (key, value)
        return value

    def clear() -> None:
        kept.entry = None
        kept.hits = kept.misses = 0

    kept.clear = clear
    clear()
    LAST_VALUES.append(kept)
    return kept


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Mirror the upper triangle so ``out[i, j] == out[j, i]`` exactly. ``a``, a
    square float array, is trusted: inner loops call this (see :func:`as_square`)."""
    upper, strict = _triu_masks(a.shape[0])
    return np.where(upper, a, 0.0) + np.where(strict, a, 0.0).T


def _as_sym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.T)


def require_symmetric(a, tol: float = EPS_ROUND) -> np.ndarray:
    """Reject matrices whose asymmetry exceeds ``tol`` times their largest entry, else mirror."""
    a = as_square(a)
    gap = np.abs(a - a.T).max()
    if gap > tol * np.abs(a).max():
        raise InvalidMatrix(f"matrix asymmetry {gap:.3e} exceeds tolerance")
    return symmetrize(a)


def fro_norm(a) -> float:
    """Frobenius norm, as ``np.linalg.norm`` computes it: sqrt of the flat self dot product."""
    flat = np.asarray(a, dtype=float).ravel(order="K")
    return math.sqrt(flat.dot(flat))


def spectral_scale(mats) -> tuple[np.ndarray, float]:
    """``(w, sigma^2)``: the ascending spectrum of each symmetric matrix in
    ``mats`` (one eigensolve each) and the largest spectral norm among them,
    the largest |eigenvalue|, which sits at an end of each spectrum."""
    w = np.linalg.eigvalsh(np.asarray(mats, dtype=float))
    return w, float(np.abs(w).max())


def lmin_sym2(m00: float, m01: float, m11: float) -> float:
    """Smallest eigenvalue of the symmetric 2 x 2 matrix [[m00, m01], [m01, m11]].

    Plain float arithmetic for scalar objectives evaluated many times; it
    agrees with ``eigvalsh`` to rounding relative to the matrix norm.
    """
    return 0.5 * (m00 + m11) - math.hypot(0.5 * (m00 - m11), m01)


def is_psd(a: np.ndarray, scale: float, eps: float = EPS_PSD) -> tuple[bool, float]:
    """PSD test with the smallest eigenvalue of a trusted square float matrix,
    one an entry point has checked (:func:`as_square`) or gmcvx has built.

    Returns ``(ok, lambda_min)`` where ``ok`` means ``lambda_min >= -eps *
    scale``, with ``scale`` the problem's sigma^2 (1 for a correlation matrix).
    """
    lmin = float(np.linalg.eigvalsh(_as_sym(a))[0])
    return lmin >= -eps * scale, lmin


def clamp_psd(a: np.ndarray) -> np.ndarray:
    """Nearest PSD matrix in Frobenius norm (negative eigenvalues to zero).

    ``a`` must be a finite square float matrix; it is not validated here, as
    its callers (the coupling kernel) build it from a validated problem and
    witness. The result is exactly symmetric and never ``a`` itself.
    """
    sym = a + a.T
    sym *= 0.5
    w, q = np.linalg.eigh(sym)
    if w[0] >= 0.0:
        return sym
    out = (q * np.maximum(w, 0.0)) @ q.T
    out = out + out.T
    out *= 0.5
    return out


def sqrt_psd(a: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root of a trusted matrix, checked where it entered
    (see the module docstring); negative eigenvalues are clamped to zero."""
    w, q = np.linalg.eigh(_as_sym(a))
    root = np.sqrt(np.maximum(w, 0.0))
    return _as_sym((q * root) @ q.T)


def pinv_psd(a: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudo-inverse of a PSD matrix via its spectrum: eigenvalues
    at most ``RANK_TOL`` times the largest, negative ones included, are cut.
    ``a`` is trusted, as in :func:`sqrt_psd`."""
    w, q = np.linalg.eigh(_as_sym(a))
    cutoff = RANK_TOL * max(float(w[-1]), 0.0)
    inv = np.where(w > cutoff, 1.0 / np.where(w > cutoff, w, 1.0), 0.0)
    return _as_sym((q * inv) @ q.T)


@dataclass
class CorrelationOf:
    """Unit-diagonal correlation matrix plus the diagonal scales it strips."""

    corr: np.ndarray
    scales: np.ndarray


def correlation_of(a: np.ndarray) -> CorrelationOf:
    """Correlation matrix associated with a trusted PSD matrix, as in :func:`sqrt_psd`.

    Rows and columns whose diagonal entry is at most ``EPS_PSD`` times the
    largest become identity rows with zero off-diagonals and zero scale.
    """
    a = _as_sym(a)
    diag = np.maximum(np.diag(a), 0.0)
    alive = diag > EPS_PSD * diag.max(initial=0.0)
    scales = np.sqrt(np.where(alive, diag, 0.0))
    inv = np.where(alive, 1.0 / np.where(alive, scales, 1.0), 0.0)
    corr = a * np.outer(inv, inv)
    corr[~alive, :] = 0.0
    corr[:, ~alive] = 0.0
    np.fill_diagonal(corr, 1.0)
    return CorrelationOf(symmetrize(corr), scales)


def polar(a: np.ndarray) -> np.ndarray:
    """Polar factor U V' of each matrix of the stack ``a``: its nearest matrix with orthonormal rows."""
    u, _, vt = np.linalg.svd(a, full_matrices=False)
    return u @ vt


def polar_factor(theta, sigma) -> np.ndarray:
    """Orthogonal O with ``sigma^{1/2} @ O[:d, :] == Theta`` on range(sigma).

    ``Theta`` is d x q with ``Theta Theta* == sigma``, else :class:`FactorMismatch`;
    ``sigma`` enters here (:func:`as_square`). The first d rows of O are the
    :func:`polar` factor of ``sigma^{1/2,+} Theta``, the others the trailing
    rows of that factor's full-SVD V'.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 2:
        raise InvalidMatrix("Theta must be a matrix")
    d, q = theta.shape
    sigma = _as_sym(as_square(sigma))
    if sigma.shape[0] != d:
        raise InvalidMatrix("sigma dimension does not match Theta rows")
    if q < d:
        raise FactorMismatch("Theta must have at least as many columns as rows")
    gram_gap = fro_norm(theta @ theta.T - sigma)
    if not gram_gap <= EPS_ENGINE * fro_norm(sigma):  # also rejects a NaN in Theta
        raise FactorMismatch(f"Theta Theta* differs from sigma by {gram_gap:.3e}")
    top = polar(sqrt_psd(pinv_psd(sigma)) @ theta)
    return np.vstack([top, np.linalg.svd(top)[2][d:]])
