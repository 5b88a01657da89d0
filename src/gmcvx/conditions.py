"""Decide and certify the ordered dominance conditions for Gaussian mixtures.

Four nested conditions are checked for a centered Gaussian target law
against a finite Gaussian mixture, from strongest to weakest:

* ``correl``   - a nonsingular change of basis under which all component
  covariances share one correlation matrix that also dominates the target
  through the weighted diagonal scales (:func:`check_correl_with`,
  :func:`find_correl_certificate`);
* ``inecov``   - a PSD coupling matrix with the component covariances as
  diagonal blocks whose weighted block sum dominates the target
  (:func:`check_inecov`);
* ``inecovf``  - the pairwise relaxation where only every 2d x 2d pair
  block must be PSD (:func:`check_inecovf`);
* ``inegsqrt`` - the directional test: for every direction, the target
  standard deviation is at most the mixture of component standard
  deviations (:func:`check_inegsqrt`).

Failures always carry a witness that re-verifies standalone; positive
certificates re-validate through :func:`validate_gamma_witness` and
:func:`validate_correl_certificate`. Callers that pick a checker by name
(sweeps, the CLI) go through :func:`run_checker`. Every verdict is a
pure function of (problem, config, seed), so checkers can run concurrently.
What the cells of a sweep share comes from functions that keep their last
value (:func:`matcore.last_value`), as in ``psdfeas``: the mirrored stack
of components (shared as ``covs``), their lambda_mins, sigma^2, eigenvectors,
colinear structure and half of h on the d = 2 grid, and the random starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cache

import numpy as np

from . import matcore, psdfeas
from .rng import CounterRng
from .utils import golden_section_minimize

STEP0 = 1.0  # first subgradient step length of the directional descent


class InvalidProblem(ValueError):
    """Mixture data violates shape, weight, finiteness, symmetry or PSD requirements."""


class TargetNotPSD(InvalidProblem):
    """Target covariance has a negative eigenvalue ``lmin`` beyond tolerance."""

    def __init__(self, lmin: float):
        super().__init__(f"target covariance not PSD (lambda_min={lmin:.3e})")
        self.lmin = lmin


class SingularM(ValueError):
    """Candidate change of basis is singular or ill-conditioned."""


class NonCenteredMeans(ValueError):
    """Operation requires component means summing to zero (or all zero)."""


class DimensionMismatch(ValueError):
    """Operand shapes are inconsistent with the problem."""


class ChainViolation(RuntimeError):
    """Implication chain inverted: indicates a bug, never a valid outcome."""


class Status(str, Enum):
    HOLDS = "holds"
    FAILS = "fails"
    UNKNOWN = "unknown"


@dataclass
class Verdict:
    """Outcome of a checker: status, signed margin, witness, diagnostics.

    The margin is the signed distance to the decision boundary in the
    checker's own metric. Std units (scaling by sqrt(c) when the problem
    scales by c): the directional slack of ``inegsqrt``, and the margin of
    a coupling verdict that fails with ``refuted_by: inegsqrt``. Variance
    units (scaling by c): every other coupling margin (slack eigenvalue,
    pair-contraction value, minus the cone distance), the ``correl`` slack
    eigenvalue (``-inf`` when no basis works) and the ``dominates``
    eigenvalue; :func:`check_correl_with`'s mismatch margins are unitless.
    """

    status: Status
    margin: float
    witness: object = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def holds(self) -> bool:
        return self.status is Status.HOLDS

    @property
    def fails(self) -> bool:
        return self.status is Status.FAILS


def _symmetric(name: str, a) -> np.ndarray:
    try:
        return matcore.require_symmetric(a)
    except matcore.InvalidMatrix as exc:
        raise InvalidProblem(f"{name}: {exc}") from None


def _numbers(name: str, a) -> np.ndarray:
    try:
        return np.asarray(a, dtype=float)
    except (TypeError, ValueError) as exc:  # ragged nesting, or an entry that is no number
        raise InvalidProblem(f"{name}: not an array of numbers ({exc})") from None


@matcore.last_value
def _components(covs: np.ndarray) -> tuple:
    """``(stack, lmins, sigma^2)`` of a (n, d, d) component array: the mirrored
    stack, each component's lambda_min and the components' largest spectral norm."""
    stack = np.stack([_symmetric(f"component {i}", c) for i, c in enumerate(covs)])
    w, scale = matcore.spectral_scale(stack)
    return stack, w[:, 0], scale


@dataclass
class MixtureProblem:
    """Target covariance, component weights/means/covariances.

    Weights must be in (0, 1) and sum to one; all covariances must be
    finite, symmetric and PSD to the tolerances of ``matcore``. Every violation raises
    :class:`InvalidProblem` (:class:`TargetNotPSD` for the target's
    spectrum). Means default to zero and only matter for couplings and
    expectation tests, where they must be centered under the weights.
    """

    p: np.ndarray
    covs: np.ndarray
    target: np.ndarray
    means: np.ndarray | None = None

    def __post_init__(self):
        self.p = _numbers("weights", self.p).reshape(-1)
        self.target = _symmetric("target", _numbers("target", self.target))
        covs = _numbers("component covariances", self.covs)
        if covs.ndim != 3:
            raise InvalidProblem("component covariances must be a (n, d, d) array")
        if covs.shape[0] < 2:
            raise InvalidProblem("need at least two mixture components")
        self.covs, comp_lmins, comp_scale = _components(covs)
        n, d = self.covs.shape[0], self.target.shape[0]
        if self.covs.shape[1] != d:
            raise InvalidProblem("component and target dimensions differ")
        if self.p.shape[0] != n:
            raise InvalidProblem("one weight per component required")
        if not np.all((self.p > 0.0) & (self.p < 1.0)):  # also rejects NaN
            raise InvalidProblem("weights must lie strictly in (0, 1)")
        if abs(self.p.sum() - 1.0) > matcore.EPS_ROUND:
            raise InvalidProblem(f"weights sum to {self.p.sum()!r}, expected 1")
        self.means = np.zeros((n, d)) if self.means is None else _numbers("means", self.means)
        if self.means.shape != (n, d):
            raise InvalidProblem(f"means must have shape (n, d) = {(n, d)}, got {self.means.shape}")
        if not np.all(np.isfinite(self.means)):
            raise InvalidProblem("means have non-finite entries")
        w, target_scale = matcore.spectral_scale(self.target[None])
        self._var_scale = max(target_scale, comp_scale)
        if w[0, 0] < -matcore.EPS_PSD * self._var_scale:
            raise TargetNotPSD(float(w[0, 0]))
        for i, lmin in enumerate(comp_lmins.tolist()):
            if lmin < -matcore.EPS_PSD * self._var_scale:
                raise InvalidProblem(f"component {i} covariance not PSD (lambda_min={lmin:.3e})")

    @property
    def n(self) -> int:
        return self.covs.shape[0]

    @property
    def d(self) -> int:
        return self.target.shape[0]

    def var_scale(self) -> float:
        """sigma^2, the largest spectral norm of the target and the components."""
        return self._var_scale

    def std_scale(self) -> float:
        return math.sqrt(self._var_scale)

    def require_centered(self):
        drift = np.linalg.norm(self.p @ self.means)
        if drift > matcore.RANK_TOL * self.std_scale():
            raise NonCenteredMeans(f"weighted mean norm {drift:.3e}")

    def mixture_covariance(self) -> np.ndarray:
        """Covariance of the mixture law (includes mean spread)."""
        within = np.einsum("i,ikl->kl", self.p, self.covs)
        spread = np.einsum("i,ik,il->kl", self.p, self.means, self.means)
        return matcore.symmetrize(within + spread)


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the directional search and the n = 2 cross checks."""

    random_starts: int = 64
    iters: int = 200  # subgradient steps: d >= 3, or d = 2 with grid_points = 0
    grid_points: int = 720  # angular grid, d = 2 only
    alpha_points: int = 400  # log-spaced scan: n = 2 wherever the subgradient steps run
    ascent_iters: int = 200
    seed: int = 0


@dataclass
class GammaWitness:
    """Symmetric nd x nd coupling certificate with pinned diagonal blocks."""

    gamma: np.ndarray
    n: int
    d: int

    def block(self, i: int, j: int) -> np.ndarray:
        d = self.d
        return self.gamma[i * d : (i + 1) * d, j * d : (j + 1) * d]


@dataclass
class CorrelCertificate:
    """Shared-correlation certificate: basis M, correlation C and scales.

    ``comp_scales[i]`` holds the diagonal of D_i = diag(sqrt((M S_i M*)_kk));
    ``mix_scale`` is the weight-combined diagonal of D and ``stacked`` the
    nd x d stack of the D_i satisfying (p_1 I, ..., p_n I) stacked == D.
    """

    m: np.ndarray
    corr: np.ndarray
    comp_scales: np.ndarray  # (n, d)
    mix_scale: np.ndarray  # (d,)
    stacked: np.ndarray  # (n*d, d)


# ---------------------------------------------------------------------------
# directional condition (inegsqrt)
# ---------------------------------------------------------------------------


def _mixture_std(p: np.ndarray, covs: np.ndarray, xis: np.ndarray) -> np.ndarray:
    """sum_i p_i sqrt(xi' S_i xi) over the rows of ``xis``: the components' half of h."""
    return p @ np.sqrt(np.clip(np.einsum("kij,mi,mj->km", covs, xis, xis), 0.0, None))


def _target_std(prob: MixtureProblem, xis: np.ndarray) -> np.ndarray:
    """sqrt(xi' S xi) over the rows of ``xis``: the target's half of h."""
    return np.sqrt(np.clip(np.einsum("ij,mi,mj->m", prob.target, xis, xis), 0.0, None))


def h_values(prob: MixtureProblem, xis) -> np.ndarray:
    """Directional slack sum_i p_i sqrt(xi' S_i xi) - sqrt(xi' S xi), rowwise."""
    xis = np.atleast_2d(np.asarray(xis, dtype=float))
    return _mixture_std(prob.p, prob.covs, xis) - _target_std(prob, xis)


def h_margin(prob: MixtureProblem, xi) -> float:
    """Single-direction slack; used to re-verify failure witnesses."""
    return float(h_values(prob, xi)[0])


def _h_and_grad(prob: MixtureProblem, xis: np.ndarray):
    """h and a subgradient at the rows of ``xis``: one pass over the stack [S_1 ... S_n, S]
    (mirrored, so each is its own transpose) with weights (p_1 ... p_n, -1), where a zero
    form adds nothing. h agrees with :func:`h_values` to rounding, not bit for bit."""
    w = np.concatenate([prob.p, [-1.0]])
    prods = np.matmul(xis, np.concatenate([prob.covs, prob.target[None]]))
    root = np.sqrt(np.maximum(np.add.reduce(prods * xis, axis=2), 0.0))
    inv = np.divide(w[:, None], root, out=np.zeros(root.shape), where=root > 0.0)
    return w @ root, np.einsum("km,kmi->mi", inv, prods)


def _normalize_rows(x: np.ndarray) -> np.ndarray:
    """Rows of ``x`` scaled to unit length, in a new array; a row of norm 0 (or NaN) is kept."""
    norms = np.sqrt(np.add.reduce(x * x, axis=1))[:, None]
    return np.divide(x, norms, out=x.copy(), where=norms > 0.0)


def _unit_tangents(grad: np.ndarray, x: np.ndarray, floor: float) -> np.ndarray:
    """The part of each row of ``grad`` tangent to the unit row of ``x``, normalized;
    zero where its norm is at most ``floor``."""
    tangent = grad - np.add.reduce(grad * x, axis=1)[:, None] * x
    norms = np.sqrt(np.add.reduce(tangent * tangent, axis=1))[:, None]
    return np.divide(tangent, norms, out=np.zeros(tangent.shape), where=norms > floor)


@matcore.last_value
def _component_rows(covs: np.ndarray) -> np.ndarray:
    return np.swapaxes(np.linalg.eigh(covs)[1], -1, -2).reshape(-1, covs.shape[-1])


def _eigvector_starts(prob: MixtureProblem) -> np.ndarray:
    """Eigenvectors of the target, then of each component, as rows; ``eigh`` gives a
    matrix of a stack the bits it gets alone, so the components' are computed once."""
    return np.concatenate([np.linalg.eigh(prob.target)[1].T, _component_rows(prob.covs)])


def _h_on_circle(prob: MixtureProblem):
    """d = 2: h at the direction (cos theta, sin theta), in float arithmetic.

    Each quadratic form is A00 c^2 + 2 A01 c s + A11 s^2 with its three
    coefficients read once, so an evaluation makes no numpy call; it agrees
    with :func:`h_margin` to rounding.
    """

    def coeffs(a: np.ndarray) -> tuple[float, float, float]:
        return float(a[0, 0]), 2.0 * float(a[0, 1]), float(a[1, 1])

    t00, t01, t11 = coeffs(prob.target)
    comps = [(p, *coeffs(c)) for p, c in zip(prob.p.tolist(), prob.covs)]
    cos, sin, sqrt = math.cos, math.sin, math.sqrt

    def h_of(theta: float) -> float:
        c, s = cos(theta), sin(theta)
        cc, cs, ss = c * c, c * s, s * s
        mix = 0.0
        for p, a00, a01, a11 in comps:
            q = a00 * cc + a01 * cs + a11 * ss
            mix += p * sqrt(q if q > 0.0 else 0.0)
        q = t00 * cc + t01 * cs + t11 * ss
        return mix - sqrt(q if q > 0.0 else 0.0)

    return h_of


@cache
def _half_circle(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``count`` equispaced angles in [0, pi) and their unit directions as rows."""
    thetas = np.linspace(0.0, np.pi, count, endpoint=False)
    out = (thetas, np.column_stack([np.cos(thetas), np.sin(thetas)]))
    for arr in out:
        arr.flags.writeable = False
    return out


@matcore.last_value
def _grid_half(p: np.ndarray, covs: np.ndarray, grid_points: int) -> np.ndarray:
    """The components' half of h on the d = 2 angular grid of ``grid_points`` directions."""
    return _mixture_std(p, covs, _half_circle(grid_points)[1])


@matcore.last_value
def _random_starts(seed: int, count: int, d: int) -> np.ndarray:
    return _normalize_rows(CounterRng(seed, stream=17).normal_matrix(count, d))


def _sphere_search(prob: MixtureProblem, cfg: SearchConfig):
    """Minimize h over the unit sphere; returns (min h, its direction, diagnostics).

    For d = 2 with ``cfg.grid_points > 0`` an angular grid decides the case,
    refined by Brent's method once per grid minimum among its three best
    points (a point next to one already refined is skipped); the starts
    (eigenvectors, random directions and the four best grid points) are
    scored once, and neither the descent nor the alpha scan of
    :func:`check_inegsqrt` follows. Otherwise multistart projected
    subgradient descent runs for ``cfg.iters`` steps, each one stacked
    :func:`_h_and_grad` pass over all starts. Subgradients are normalized
    before stepping so the search behaves the same under rescaling; at a
    degenerate direction (a tangent below ``matcore.EPS_ROUND`` sigma) the
    zero subgradient is used.
    """
    d = prob.d
    starts = [_eigvector_starts(prob)]
    if cfg.random_starts > 0:
        starts.append(_random_starts(cfg.seed, cfg.random_starts, d))
    best_h = np.inf
    best_xi = np.zeros(d)
    diag: dict = {}
    iters = cfg.iters
    floor = matcore.EPS_ROUND * prob.std_scale()

    if d == 2 and cfg.grid_points > 0:
        iters = 0
        thetas, grid = _half_circle(cfg.grid_points)
        hs = _grid_half(prob.p, prob.covs, cfg.grid_points) - _target_std(prob, grid)
        order = np.argsort(hs)
        width = np.pi / cfg.grid_points
        h_of = _h_on_circle(prob)
        refined: list[int] = []
        for idx in order[:3].tolist():
            # the bracket of a refined grid point already holds its neighbours' minimum
            if any((idx - j) % cfg.grid_points in (1, cfg.grid_points - 1) for j in refined):
                continue
            refined.append(idx)
            theta, val = golden_section_minimize(h_of, thetas[idx] - width, thetas[idx] + width, xtol=1e-12)
            if val < best_h:
                best_h = val
                best_xi = np.array([math.cos(theta), math.sin(theta)])
        starts.append(grid[order[:4]])
        diag["grid_min"] = float(hs.min())

    x = _normalize_rows(np.vstack(starts))
    for k in range(1, iters + 1):
        h, grad = _h_and_grad(prob, x)
        j = int(np.argmin(h))
        if h[j] < best_h:
            best_h = float(h[j])
            best_xi = x[j].copy()
        x = _normalize_rows(x - (STEP0 / k) * _unit_tangents(grad, x, floor))
    h = h_values(prob, x)
    j = int(np.argmin(h))
    if h[j] < best_h:
        best_h = float(h[j])
        best_xi = x[j].copy()
    return best_h, best_xi, diag


def _alpha_scan(prob: MixtureProblem, cfg: SearchConfig):
    """n = 2 cross check of the descent: scan the two-sided bound over alpha > 0.

    The directional condition holds iff
    ``p1^2 S1 + p2^2 S2 + p1 p2 (alpha S1 + S2/alpha) - S`` stays PSD for
    every positive alpha, so the smallest eigenvalue is scanned on a log
    grid and polished by Brent's method (:func:`utils.golden_section_minimize`).
    """
    p1, p2 = prob.p
    s1, s2 = prob.covs
    w = p1 * p2
    base = p1 * p1 * s1 + p2 * p2 * s2 - prob.target

    def pencil(alpha: float) -> np.ndarray:
        return base + w * (alpha * s1 + s2 / alpha)

    alphas = np.logspace(-6.0, 6.0, cfg.alpha_points)
    mats = (
        base[None, :, :]
        + w * (alphas[:, None, None] * s1[None] + (1.0 / alphas)[:, None, None] * s2[None])
    )
    lmins = np.linalg.eigvalsh(mats)[:, 0]
    k = int(np.argmin(lmins))
    logstep = 12.0 / max(cfg.alpha_points - 1, 1)

    def f(t: float) -> float:
        return float(np.linalg.eigvalsh(pencil(10.0**t))[0])

    t0 = math.log10(alphas[k])
    t_best, val = golden_section_minimize(f, t0 - logstep, t0 + logstep, xtol=1e-12)
    if lmins[k] < val:
        t_best, val = t0, float(lmins[k])
    _, q = np.linalg.eigh(pencil(10.0**t_best))
    return float(val), 10.0**t_best, q[:, 0]


def check_inegsqrt(prob: MixtureProblem, cfg: SearchConfig | None = None) -> Verdict:
    """Decide the directional condition over all directions.

    Fails carry the violating unit direction as witness (which re-verifies
    through :func:`h_margin`); Holds report the smallest directional slack
    found. For d = 2 with ``cfg.grid_points > 0`` the angular grid, refined
    by Brent's method once per grid minimum, alone decides. Wherever the
    subgradient descent runs instead (d >= 3, or d = 2 without a grid) and
    n = 2, the independent alpha scan guards it; an irreconcilable
    borderline disagreement yields Unknown.
    """
    cfg = cfg or SearchConfig()
    tol_std = matcore.EPS_PSD * prob.std_scale()
    tol_var = matcore.EPS_PSD * prob.var_scale()
    diag: dict = {}

    if prob.d == 1:
        sig = math.sqrt(max(prob.target[0, 0], 0.0))
        sigs = np.sqrt(np.clip(prob.covs[:, 0, 0], 0.0, None))
        margin = float(prob.p @ sigs - sig)
        xi = np.array([1.0])
        diag["exact"] = True
    else:
        margin, xi, search_diag = _sphere_search(prob, cfg)
        diag.update(search_diag)

    grid_decides = prob.d == 2 and cfg.grid_points > 0
    if prob.d > 1 and prob.n == 2 and not grid_decides and cfg.alpha_points > 0:
        scan_val, alpha_best, scan_xi = _alpha_scan(prob, cfg)
        diag["alpha_scan_min"] = scan_val
        diag["alpha_best"] = alpha_best
        if scan_val < -tol_var and margin >= -tol_std:
            recheck = h_margin(prob, scan_xi)
            if recheck < -tol_std:
                margin, xi = recheck, scan_xi
            else:
                diag["disagreement"] = True
                return Verdict(Status.UNKNOWN, min(margin, recheck), None, diag)

    if margin < -tol_std:
        return Verdict(Status.FAILS, margin, xi, diag)
    diag["boundary"] = bool(abs(margin) <= 2.0 * tol_std)
    return Verdict(Status.HOLDS, margin, None, diag)


@matcore.last_value
def _colinear_parts(covs: np.ndarray) -> tuple:
    """``(base, coeffs, residuals)``: the component of largest Frobenius norm, each
    component's nonnegative coefficient on it and the norm of what is left."""
    norms = np.array([matcore.fro_norm(c) for c in covs])
    ref = int(np.argmax(norms))
    if norms[ref] == 0.0:
        return np.zeros_like(covs[0]), np.zeros(len(covs)), np.zeros(len(covs))
    base = covs[ref]
    denom = float(np.sum(base * base))
    coeffs = np.array([max(float(np.sum(c * base)) / denom, 0.0) for c in covs])
    return base, coeffs, np.array([matcore.fro_norm(c - k * base) for c, k in zip(covs, coeffs)])


def _colinear_structure(prob: MixtureProblem):
    """``(base, coeffs)`` when every component is a multiple of one base to
    ``EPS_PSD`` times the problem's sigma^2, else None."""
    base, coeffs, residuals = _colinear_parts(prob.covs)
    if (residuals > matcore.EPS_PSD * prob.var_scale()).any():
        return None
    return base, coeffs


# ---------------------------------------------------------------------------
# coupling conditions (inecov / inecovf)
# ---------------------------------------------------------------------------


def witness_matrix(gamma) -> np.ndarray:
    """The matrix of a coupling witness, a :class:`GammaWitness` or an array:
    finite and square, or :class:`matcore.InvalidMatrix`; not yet mirrored."""
    return matcore.as_square(gamma.gamma if isinstance(gamma, GammaWitness) else gamma)


def validate_gamma_witness(prob: MixtureProblem, gamma, tol: float = matcore.EPS_CHAIN, pairwise: bool = False) -> dict:
    """Standalone re-validation of a coupling witness."""
    task = psdfeas.FeasibilityTask(prob, psdfeas.PAIRWISE if pairwise else psdfeas.FULL)
    return psdfeas.validate_gamma(task, witness_matrix(gamma), tol)


def _coupling_check(prob, cone, search_cfg, extra_candidates, inegsqrt_verdict, seed):
    v5 = inegsqrt_verdict if inegsqrt_verdict is not None else check_inegsqrt(prob, search_cfg)
    diag: dict = {"inegsqrt_margin": v5.margin}
    if v5.fails:
        return Verdict(Status.FAILS, v5.margin, v5.witness, {**diag, "refuted_by": "inegsqrt"})

    candidates = [witness_matrix(cand) for cand in extra_candidates]
    col = _colinear_structure(prob)
    if col is not None:
        base, coeffs = col
        weights = np.sqrt(coeffs)
        candidates.append(np.kron(np.outer(weights, weights), base))

    iters = (search_cfg or SearchConfig()).ascent_iters
    task = psdfeas.FeasibilityTask(prob, cone, seed, iters)
    ascent = None
    if cone == psdfeas.PAIRWISE or prob.n == 2:
        ascent = task.ascent  # its coupling is one of the engine's default candidates
        diag["pair_ascent_margin"] = ascent[0]
        if ascent[3]:
            diag["pair_ascent_evals"] = ascent[3]

    out = psdfeas.solve(task, candidates)
    if "factor_ascent" in vars(task):
        diag["factor_ascent_evals"] = task.factor_ascent[2]
    diag["cone_dist"] = out.cone_dist

    if out.feasible:
        check = psdfeas.validate_gamma(task, out.gamma, matcore.EPS_ENGINE)
        diag.update(check)
        witness = GammaWitness(out.gamma, prob.n, prob.d)
        return Verdict(Status.HOLDS, check["lmin_slack"], witness, diag)

    tol_var = matcore.EPS_ENGINE * prob.var_scale()
    if ascent is not None and ascent[0] < -tol_var and ascent[2] is not None:
        fbar = psdfeas.dual_refutation_value(task, ascent[2])
        diag["dual_bound"] = fbar
        if fbar < -tol_var:
            return Verdict(Status.FAILS, ascent[0], ("dual", ascent[2]), diag)
    return Verdict(Status.UNKNOWN, -out.cone_dist, None, diag)


def check_inecov(
    prob: MixtureProblem,
    search_cfg: SearchConfig | None = None,
    extra_candidates=(),
    inegsqrt_verdict: Verdict | None = None,
    seed: int = 0,
) -> Verdict:
    """Existence of a PSD coupling matrix dominating the target.

    Holds come with a validated :class:`GammaWitness`. Failure is declared
    only through necessary conditions: a directional violation, or for the
    two-component case a certified refutation of the pair-contraction
    program. Otherwise the verdict is Unknown, its margin minus the cone
    distance of the best coupling found (``cone_dist`` in the diagnostics):
    the contraction coupling (n = 2), or the best of the candidates and the
    orthogonal-factor coupling (n >= 3). Extra candidates must be finite
    square matrices (:class:`matcore.InvalidMatrix`); one of the wrong size
    is not used.
    """
    return _coupling_check(prob, psdfeas.FULL, search_cfg, extra_candidates, inegsqrt_verdict, seed)


def check_inecovf(
    prob: MixtureProblem,
    search_cfg: SearchConfig | None = None,
    extra_candidates=(),
    inegsqrt_verdict: Verdict | None = None,
    seed: int = 0,
) -> Verdict:
    """Pairwise relaxation: every 2d x 2d pair block PSD instead of the whole."""
    return _coupling_check(prob, psdfeas.PAIRWISE, search_cfg, extra_candidates, inegsqrt_verdict, seed)


def validate_pairwise_blocks(prob: MixtureProblem, gamma, tol: float = matcore.EPS_ENGINE) -> dict:
    """Check each pair block of a coupling matrix for PSD-ness: ``(ok, lambda_min)``
    per pair (i, j), i < j, to ``tol`` times the problem's sigma^2."""
    gamma = matcore.symmetrize(witness_matrix(gamma))
    task = psdfeas.FeasibilityTask(prob, psdfeas.PAIRWISE)
    w_pairs, _ = psdfeas._spectra(task, gamma[None], np.empty((1, 0, 0)))  # no slack to test
    tol_abs = tol * prob.var_scale()
    return {pair: (lmin >= -tol_abs, lmin) for pair, lmin in zip(task.pairs, w_pairs[0, :, 0].tolist())}


# ---------------------------------------------------------------------------
# shared-correlation condition (correl)
# ---------------------------------------------------------------------------


def _in_basis(prob: MixtureProblem, m: np.ndarray):
    """Components and target under the change of basis M, and sigma^2 there."""
    transformed = [matcore.symmetrize(m @ cov @ m.T) for cov in prob.covs]
    t_target = matcore.symmetrize(m @ prob.target @ m.T)
    _, scale_m = matcore.spectral_scale([t_target, *transformed])
    return transformed, t_target, scale_m


def check_correl_with(prob: MixtureProblem, m) -> Verdict:
    """Verify the shared-correlation condition for one candidate basis M.

    Builds the correlation matrix entrywise from every component alive on
    that entry (they must agree within ``matcore.EPS_ENGINE``), fills entries no
    component constrains from the target itself, and then tests that the
    weighted diagonal scales dominate the transformed target. Holds return
    a :class:`CorrelCertificate` whose induced coupling
    (:func:`certificate_to_gamma`) passes :func:`validate_gamma_witness` at
    ``matcore.EPS_ENGINE`` in the original basis; otherwise the verdict fails with an
    ``induced_gamma_invalid`` witness holding that coupling. The diagnostics
    report whether the built correlation is also associated with the
    diagonal-corrected target.
    """
    m = np.asarray(m, dtype=float)
    d = prob.d
    if m.shape != (d, d):
        raise SingularM(f"expected a {d} x {d} matrix, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise SingularM("candidate basis has non-finite entries")
    if np.linalg.cond(m) > 1e12:
        raise SingularM("candidate basis is singular or ill-conditioned")

    transformed, t_target, scale_m = _in_basis(prob, m)
    diag: dict = {}

    col = _colinear_structure(prob)
    diag["colinear_components"] = col is not None

    corr_sum = np.zeros((d, d))
    corr_min = np.full((d, d), np.inf)
    corr_max = np.full((d, d), -np.inf)
    count = np.zeros((d, d))
    scales = np.zeros((prob.n, d))
    for i, t in enumerate(transformed):
        info = matcore.correlation_of(t)
        scales[i] = info.scales
        alive = info.scales > 0.0
        mask = np.outer(alive, alive)
        np.fill_diagonal(mask, False)
        corr_sum[mask] += info.corr[mask]
        corr_min[mask] = np.minimum(corr_min[mask], info.corr[mask])
        corr_max[mask] = np.maximum(corr_max[mask], info.corr[mask])
        count[mask] += 1.0

    multi = count >= 2.0
    if np.any(multi):
        spread = np.where(multi, corr_max - corr_min, 0.0)
        worst = float(spread.max())
        diag["correlation_spread"] = worst
        if worst > matcore.EPS_ENGINE:
            k, l = np.unravel_index(int(np.argmax(spread)), spread.shape)
            witness = ("correlation_mismatch", (int(k), int(l), float(corr_min[k, l]), float(corr_max[k, l])))
            return Verdict(Status.FAILS, -worst, witness, diag)

    mix_scale = prob.p @ scales
    corr = np.where(count > 0.0, corr_sum / np.maximum(count, 1.0), 0.0)
    free = (count == 0.0) & (np.outer(mix_scale, mix_scale) > 0.0)
    np.fill_diagonal(free, False)
    fill = np.zeros((d, d))
    pos = np.outer(mix_scale, mix_scale)
    fill[free] = t_target[free] / pos[free]
    corr = matcore.symmetrize(np.where(free, fill, corr))
    np.fill_diagonal(corr, 1.0)

    ok_corr, lmin_corr = matcore.is_psd(corr, 1.0, matcore.EPS_ENGINE)
    diag["corr_lmin"] = lmin_corr
    if not ok_corr:
        w, q = np.linalg.eigh(corr)
        return Verdict(Status.FAILS, lmin_corr, ("merged_correlation_not_psd", q[:, 0]), diag)

    dcd = np.outer(mix_scale, mix_scale) * corr
    gap = matcore.symmetrize(dcd - t_target)
    ok, lmin = matcore.is_psd(gap, scale_m)

    sigma_hat = t_target.copy()
    np.fill_diagonal(sigma_hat, mix_scale**2)
    diag["sigma_hat_associated"] = bool(matcore.fro_norm(dcd - sigma_hat) <= matcore.EPS_ENGINE * scale_m)

    if not ok:
        w, q = np.linalg.eigh(gap)
        return Verdict(Status.FAILS, lmin, ("dcd_deficit", q[:, 0]), diag)

    stacked = np.vstack([np.diag(s) for s in scales])
    cert = CorrelCertificate(m, corr, scales, mix_scale, stacked)
    # the tests above ran in the M basis; an ill-conditioned M can pass them
    # with a coupling that is far from PSD in the original basis
    gamma = certificate_to_gamma(prob, cert)
    induced = validate_gamma_witness(prob, gamma, matcore.EPS_ENGINE)
    diag["induced_lmin_gamma"] = induced["lmin_gamma"]
    if not induced["ok"]:
        margin = min(induced["lmin_gamma"], induced["lmin_slack"])
        return Verdict(Status.FAILS, margin, ("induced_gamma_invalid", GammaWitness(gamma, prob.n, d)), diag)
    return Verdict(Status.HOLDS, lmin, cert, diag)


def validate_correl_certificate(prob: MixtureProblem, cert: CorrelCertificate, tol: float = matcore.EPS_CHAIN) -> dict:
    """Standalone re-validation of a shared-correlation certificate, against the scale in its basis.

    The coupling it induces (:func:`certificate_to_gamma`) must also pass
    :func:`validate_gamma_witness` at ``tol``.
    """
    transformed, t_target, scale_m = _in_basis(prob, cert.m)
    assoc_err = 0.0
    for t, scales in zip(transformed, cert.comp_scales):
        d_i = np.diag(scales)
        assoc_err = max(assoc_err, matcore.fro_norm(t - d_i @ cert.corr @ d_i))
    dcd = np.outer(cert.mix_scale, cert.mix_scale) * cert.corr
    gap = matcore.symmetrize(dcd - t_target)
    ok, lmin = matcore.is_psd(gap, scale_m)
    stack_err = matcore.fro_norm(
        np.einsum("i,ikl->kl", prob.p, cert.stacked.reshape(prob.n, prob.d, prob.d)) - np.diag(cert.mix_scale)
    )
    try:
        induced = validate_gamma_witness(prob, certificate_to_gamma(prob, cert), tol)
    except np.linalg.LinAlgError:  # a singular basis induces no coupling
        induced = {"ok": False, "lmin_gamma": -np.inf}
    return {
        "ok": bool(
            assoc_err <= tol * scale_m
            and ok
            and stack_err <= matcore.EPS_ROUND * math.sqrt(scale_m)
            and induced["ok"]
        ),
        "association_err": float(assoc_err),
        "lmin_gap": float(lmin),
        "stack_err": float(stack_err),
        "induced_lmin_gamma": induced["lmin_gamma"],
    }


def certificate_to_gamma(prob: MixtureProblem, cert: CorrelCertificate) -> np.ndarray:
    """Coupling witness induced by a shared-correlation certificate."""
    minv = np.linalg.inv(cert.m)
    n, d = prob.n, prob.d
    gamma = np.zeros((n * d, n * d))
    for i in range(n):
        d_i = np.diag(cert.comp_scales[i])
        for j in range(n):
            d_j = np.diag(cert.comp_scales[j])
            gamma[i * d : (i + 1) * d, j * d : (j + 1) * d] = minv @ d_i @ cert.corr @ d_j @ minv.T
    return matcore.symmetrize(psdfeas.pin_blocks(gamma, prob.covs))


def _commuting_basis(prob: MixtureProblem, seed: int):
    family = [prob.target, *prob.covs]
    tol = matcore.EPS_ENGINE * prob.var_scale() ** 2  # products of two variance-unit matrices
    for a in family:
        for b in family:
            if matcore.fro_norm(a @ b - b @ a) > tol:
                return None
    rng = CounterRng(seed, stream=41)
    coeffs = 0.5 + rng.uniforms(len(family))
    combo = matcore.symmetrize(sum(c * f for c, f in zip(coeffs, family)))
    _, q = np.linalg.eigh(combo)
    return q.T


def _orthogonal_product_basis(prob: MixtureProblem, seed: int):
    tol = matcore.EPS_ENGINE * prob.var_scale() ** 2
    for i in range(prob.n):
        for j in range(prob.n):
            if i == j:
                continue
            if matcore.fro_norm(prob.covs[i] @ prob.covs[j]) > tol:
                return None
    rng = CounterRng(seed, stream=43)
    coeffs = 0.5 + rng.uniforms(prob.n)
    combo = matcore.symmetrize(np.einsum("i,ikl->kl", coeffs, prob.covs))
    w, q = np.linalg.eigh(combo)
    lam_max = max(float(w[-1]), 0.0)
    owner = np.full(prob.d, prob.n)
    for k in range(prob.d):
        if w[k] <= matcore.EPS_ROUND * lam_max:
            continue
        v = q[:, k]
        owner[k] = int(np.argmax([float(v @ c @ v) for c in prob.covs]))
    order = np.lexsort((np.arange(prob.d), owner))
    return q[:, order].T


def find_correl_certificate(prob: MixtureProblem, extra_m=(), seed: int = 0) -> Verdict:
    """Search the candidate-basis generators for a shared-correlation certificate.

    Candidates, in order: the identity, a co-diagonalizer when the target
    and components all commute, the block basis when component covariances
    annihilate each other, then any user-supplied bases. The first Holds
    wins; exhausting the generators yields Unknown (a full search over all
    nonsingular bases is out of scope).
    """
    candidates: list[tuple[str, np.ndarray]] = [("identity", np.eye(prob.d))]
    commuting = _commuting_basis(prob, seed)
    if commuting is not None:
        candidates.append(("commuting", commuting))
    orth = _orthogonal_product_basis(prob, seed)
    if orth is not None:
        candidates.append(("orthogonal_product", orth))
    for idx, m in enumerate(extra_m):
        candidates.append((f"user_{idx}", np.asarray(m, dtype=float)))

    diag: dict = {"tried": []}
    for name, m in candidates:
        try:
            verdict = check_correl_with(prob, m)
        except SingularM:
            diag["tried"].append((name, "singular", None))
            continue
        diag["tried"].append((name, verdict.status.value, verdict.margin))
        if verdict.holds:
            verdict.diagnostics["generator"] = name
            verdict.diagnostics["tried"] = diag["tried"]
            return verdict
    return Verdict(Status.UNKNOWN, -np.inf, None, diag)


# ---------------------------------------------------------------------------
# reverse dominance and n = 2 helpers
# ---------------------------------------------------------------------------


def dominance_spectrum(prob: MixtureProblem) -> tuple[np.ndarray, list[float]]:
    """``(gaps, lmins)``: each target - S_i and its lambda_min, from one ``eigvalsh``
    of the stacked ``0.5 (a + a')``, the bits :func:`matcore.is_psd` gives each."""
    gaps = prob.target - prob.covs
    return gaps, np.linalg.eigvalsh(0.5 * (gaps + np.swapaxes(gaps, -1, -2)))[:, 0].tolist()


def check_dominated_by_single(prob: MixtureProblem) -> Verdict:
    """Mixture dominated by the single target law: every component under it."""
    if np.abs(prob.means).max(initial=0.0) > matcore.RANK_TOL * prob.std_scale():
        raise NonCenteredMeans("reverse dominance requires zero component means")
    gaps, lmins = dominance_spectrum(prob)
    i = int(np.argmin(lmins))
    if lmins[i] >= -matcore.EPS_PSD * prob.var_scale():
        return Verdict(Status.HOLDS, lmins[i], None, {})
    return Verdict(Status.FAILS, lmins[i], (i, np.linalg.eigh(matcore.symmetrize(gaps[i]))[1][:, 0]), {})


def check_n2_theta(prob: MixtureProblem, theta) -> Verdict:
    """Verify one explicit off-diagonal block, a finite d x d matrix, for a
    two-component mixture: its coupling passes :func:`psdfeas.validate_gamma` at ``EPS_PSD``."""
    if prob.n != 2:
        raise DimensionMismatch("explicit block check requires exactly two components")
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (prob.d, prob.d):
        raise DimensionMismatch(f"expected block shape {(prob.d, prob.d)}, got {theta.shape}")
    task = psdfeas.FeasibilityTask(prob)
    gamma = psdfeas._pair_coupling(task, [matcore.as_square(theta)])
    check = psdfeas.validate_gamma(task, gamma, matcore.EPS_PSD)
    lmin_b, lmin_g = check["lmin_gamma"], check["lmin_slack"]
    margin, diag = min(lmin_b, lmin_g), {"block_lmin": lmin_b, "slack_lmin": lmin_g}
    if check["ok"]:
        return Verdict(Status.HOLDS, margin, None, diag)
    if lmin_b <= lmin_g:
        which, bad = "pair_block", gamma
    else:
        which, bad = "slack", psdfeas.mix_compress(gamma, prob.p, prob.d) - prob.target
    return Verdict(Status.FAILS, margin, (which, np.linalg.eigh(bad)[1][:, 0]), diag)


def orthogonal_factors_from_gamma(prob: MixtureProblem, gamma, q: int | None = None):
    """Extract per-component orthogonal factors from a coupling witness.

    The rows of the witness square root give factors of each component
    covariance; polar factorization turns them into orthogonal matrices
    O_i such that the weighted sum of (padded) component square roots times
    O_i dominates the target. Returns ``(factors, verdict)``. A witness below
    ``-EPS_PSD`` times the problem's sigma^2 raises :class:`matcore.NotPSD`.
    """
    gamma = matcore.symmetrize(witness_matrix(gamma))
    n, d = prob.n, prob.d
    if q is None:
        q = n * d
    if q < n * d:
        raise DimensionMismatch(f"q must be at least {n * d}")
    ok, lmin = matcore.is_psd(gamma, prob.var_scale())
    if not ok:
        raise matcore.NotPSD(f"coupling witness lambda_min={lmin:.3e} below tolerance")
    root = matcore.sqrt_psd(gamma)
    comp_roots = psdfeas.block_roots(prob.covs)
    factors = []
    combined = np.zeros((d, q))
    ortho_defect = 0.0
    for i in range(n):
        theta = np.zeros((d, q))
        theta[:, : n * d] = root[i * d : (i + 1) * d, :]
        o_i = matcore.polar_factor(theta, prob.covs[i])
        factors.append(o_i)
        ortho_defect = max(ortho_defect, matcore.fro_norm(o_i @ o_i.T - np.eye(q)))
        combined += prob.p[i] * (comp_roots[i] @ o_i[:d])  # the padded root times O_i
    gap = matcore.symmetrize(combined @ combined.T - prob.target)
    ok, lmin = matcore.is_psd(gap, prob.var_scale(), matcore.EPS_CHAIN)
    diag = {"ortho_defect": float(ortho_defect), "slack_lmin": float(lmin)}
    verdict = Verdict(Status.HOLDS if ok else Status.FAILS, float(lmin), None, diag)
    return factors, verdict


# ---------------------------------------------------------------------------
# checker dispatch
# ---------------------------------------------------------------------------

CHECKERS = ("inegsqrt", "inecov", "inecovf", "correl", "dominates")


def run_checker(
    name: str,
    prob: MixtureProblem,
    search_cfg: SearchConfig | None,
    seed: int,
    inegsqrt_verdict: Verdict | None = None,
    extra_m=(),
) -> Verdict:
    """Run the checker registered under ``name`` (one of :data:`CHECKERS`).

    ``inegsqrt_verdict`` is a directional verdict already computed for
    ``prob``; it is returned for ``inegsqrt`` and handed to the coupling
    checkers so the directional search runs once. ``extra_m`` feeds
    user-supplied bases to ``correl``.
    """
    if name == "inegsqrt":
        return inegsqrt_verdict if inegsqrt_verdict is not None else check_inegsqrt(prob, search_cfg)
    if name == "inecov":
        return check_inecov(prob, search_cfg, inegsqrt_verdict=inegsqrt_verdict, seed=seed)
    if name == "inecovf":
        return check_inecovf(prob, search_cfg, inegsqrt_verdict=inegsqrt_verdict, seed=seed)
    if name == "correl":
        return find_correl_certificate(prob, extra_m=extra_m, seed=seed)
    if name == "dominates":
        return check_dominated_by_single(prob)
    raise ValueError(f"unknown checker {name!r}")


# ---------------------------------------------------------------------------
# implication chain
# ---------------------------------------------------------------------------


@dataclass
class ChainReport:
    """Ordered verdicts from strongest to weakest condition."""

    correl: Verdict
    inecov: Verdict
    inecovf: Verdict
    order_evidence: Verdict
    inegsqrt: Verdict

    def as_dict(self) -> dict:
        out = {}
        for name in ("correl", "inecov", "inecovf", "order_evidence", "inegsqrt"):
            v: Verdict = getattr(self, name)
            out[name] = {"status": v.status.value, "margin": float(v.margin)}
        return out


def implication_chain_report(
    prob: MixtureProblem,
    search_cfg: SearchConfig | None = None,
    mc_samples: int = 20000,
    seed: int = 0,
    *,
    engine_cfg=None,  # ignored: kept for callers that still pass it
) -> ChainReport:
    """Run every checker and assert the implication chain is not inverted.

    A correl certificate is handed down to inecov as a warm start, so a
    stronger Holds always propagates. inecovf is inecov for two components
    and whenever inecov holds: each pair block of its Gamma is a principal
    submatrix, by Cauchy interlacing no further from the PSD cone. Any
    inversion (stronger Holds with weaker Fails beyond tolerance) raises
    :class:`ChainViolation`.
    """
    from . import cxverify  # local import to avoid a module cycle

    v5 = check_inegsqrt(prob, search_cfg)
    v2 = find_correl_certificate(prob, seed=seed)
    extra = []
    if v2.holds:
        extra.append(certificate_to_gamma(prob, v2.witness))
    v3 = check_inecov(prob, search_cfg, extra_candidates=extra, inegsqrt_verdict=v5, seed=seed)
    if prob.n == 2 or v3.holds:
        v3f = v3  # the pairwise cone is the full one for n = 2, and holds any full-cone witness
    else:
        v3f = check_inecovf(prob, search_cfg, inegsqrt_verdict=v5, seed=seed)
    lhs = cxverify.GaussianLaw(np.zeros(prob.d), prob.target)
    suite = cxverify.default_suite(prob, seed=seed)
    v4 = cxverify.test_convex_order(lhs, prob, suite, mc_samples=mc_samples, seed=seed, z=5.0)

    report = ChainReport(v2, v3, v3f, v4, v5)
    tol_std = matcore.EPS_CHAIN * prob.std_scale()
    problems = []
    if v2.holds and not v3.holds:
        problems.append("correl holds but inecov does not")
    if v3f.holds and v5.fails and v5.margin < -tol_std:
        problems.append("inecovf holds but inegsqrt fails")
    if v3.holds and v4.fails:
        problems.append("inecov holds but an expectation test found a violation")
    if problems:
        raise ChainViolation("; ".join(problems))
    return report
