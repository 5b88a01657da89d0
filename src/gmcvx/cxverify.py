"""Exact and Monte Carlo verification of convex-order statements.

A small family of convex test functions (absolute linear forms,
exponentials of linear forms, convex quadratics, maxima of affine pieces)
is integrated either in closed form under Gaussian laws or by seeded Monte
Carlo. Every function is exact but a max-affine one of three or more pieces
at d >= 2: one of two pieces, or any at d = 1, is rank-one (a linear form
plus a maximum of lines in one linear form t = u x) and integrates segment
by segment over the upper envelope of those lines, so a d = 1 suite draws
no sample. Comparing the two sides over a suite gives falsification with exact
witnesses, or "no violation found" evidence; decision authority for the
order itself stays with the condition checkers.

Radial (orthogonally invariant) noise generalizations are covered by
:func:`radial_order_check`.

:func:`test_convex_order` integrates each closed-form family in one batched
pass over the lhs law and every component (one law is a batch of one). The
two sides' samples are laid out once as one contiguous d x 2m array; a
sampled max-affine function is then one pieces-by-samples product, shifted in place,
maxed over the pieces column by column, and each side's mean and ddof = 1
variance come from one sum of its values (the bits of ``mean()`` and ``var(ddof=1)``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import matcore, psdfeas
from .conditions import (
    DimensionMismatch,
    MixtureProblem,
    NonCenteredMeans,
    SearchConfig,
    Status,
    Verdict,
    _normalize_rows,
    check_inegsqrt,
    dominance_spectrum,
    h_values,
)
from .rng import CounterRng

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass
class GaussianLaw:
    """Gaussian law of a finite mean and a finite square covariance of its length, else ``ValueError``."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float).reshape(-1)
        self.cov = matcore.symmetrize(matcore.as_square(self.cov))
        if self.mean.shape != self.cov.shape[:1] or not np.isfinite(self.mean).all():  # a NaN margin fails no test
            raise ValueError(f"mean must be {len(self.cov)} finite numbers, got {self.mean.tolist()}")


@dataclass
class TestFunction:
    """One convex test function; ``closed_form`` marks exact integrability."""

    kind: str  # "abs_linear" | "exp_linear" | "quadratic" | "max_affine"
    xi: np.ndarray | None = None
    lam: float = 1.0
    mat: np.ndarray | None = None
    xi0: np.ndarray | None = None
    const: float = 0.0
    slopes: np.ndarray | None = None
    intercepts: np.ndarray | None = None

    @property
    def closed_form(self) -> bool:
        """Every family but max-affine; a max-affine function when rank-one: d = 1 or two pieces."""
        return self.kind != "max_affine" or self.slopes.shape[1] == 1 or len(self.slopes) == 2


def abs_linear(xi) -> TestFunction:
    return TestFunction("abs_linear", xi=np.asarray(xi, dtype=float))


def exp_linear(lam: float, xi) -> TestFunction:
    return TestFunction("exp_linear", xi=np.asarray(xi, dtype=float), lam=float(lam))


def quadratic(mat, xi0=None, const: float = 0.0) -> TestFunction:
    mat = matcore.symmetrize(matcore.as_square(mat))
    ok, lmin = matcore.is_psd(mat, matcore.spectral_scale([mat])[1])
    if not ok:
        raise ValueError(f"quadratic part must be PSD (lambda_min={lmin:.3e})")
    d = mat.shape[0]
    xi0 = np.zeros(d) if xi0 is None else np.asarray(xi0, dtype=float)
    return TestFunction("quadratic", mat=mat, xi0=xi0, const=float(const))


def max_affine(slopes, intercepts) -> TestFunction:
    return TestFunction(
        "max_affine",
        slopes=np.asarray(slopes, dtype=float),
        intercepts=np.asarray(intercepts, dtype=float),
    )


def evaluate(f: TestFunction, xs: np.ndarray) -> np.ndarray:
    """Values of ``f`` at the rows of ``xs``."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    if f.kind == "abs_linear":
        return np.abs(xs @ f.xi)
    if f.kind == "exp_linear":
        return np.exp(f.lam * (xs @ f.xi))
    if f.kind == "quadratic":
        return np.einsum("mi,ij,mj->m", xs, f.mat, xs) + xs @ f.xi0 + f.const
    if f.kind == "max_affine":
        # pieces by samples, shifted in place: the maximum runs over the short axis column by column
        v = f.slopes @ xs.T
        return np.add(v, f.intercepts[:, None], out=v).max(axis=0)
    raise ValueError(f"unknown test function kind {f.kind!r}")


def exact_expectation(law: GaussianLaw, f: TestFunction) -> float | None:
    """Closed-form Gaussian expectation, or None when only sampling works: the batch of one law."""
    if not f.closed_form:
        return None
    value = _closed_forms(law.mean[None], law.cov[None], [f])[0][0]
    return math.exp(value) if f.kind == "exp_linear" else value


def _closed_forms(means: np.ndarray, covs: np.ndarray, suite: list[TestFunction]) -> list:
    """Per function of ``suite``, its expectations under the Gaussian laws
    (``means[k]``, ``covs[k]``) as a list over k (logs for an exponential tilt),
    or None where only sampling works. Each family is one batched pass whose
    products give the bits of ``xi @ cov @ xi``, ``xi @ mean`` and ``mean @ mat @ mean``;
    a rank-one max-affine function joins the linear forms with its direction ``u``."""
    out, d = [None] * len(suite), means.shape[1]
    lin = [k for k, f in enumerate(suite) if f.kind in ("abs_linear", "exp_linear")]
    ranked = [k for k, f in enumerate(suite) if f.kind == "max_affine" and f.closed_form]
    rank_one = [_rank_one(suite[k]) for k in ranked]
    xi = np.array([suite[k].xi for k in lin] + [u for _, u, _ in rank_one]).reshape(-1, d)
    mus = np.matmul(xi[:, None, None, :], means[:, :, None])[..., 0, 0].tolist()
    variances = np.matmul((xi @ covs)[:, :, None, :], xi[:, :, None])[..., 0, 0].T.tolist()
    for k, mu_k, var_k in zip(lin, mus, variances):
        f = suite[k]
        if f.kind == "exp_linear":
            out[k] = [f.lam * mu + 0.5 * f.lam * f.lam * max(var, 0.0) for mu, var in zip(mu_k, var_k)]
        else:
            out[k] = [_abs_mean(mu, math.sqrt(max(var, 0.0))) for mu, var in zip(mu_k, var_k)]
    a0 = np.array([a for a, _, _ in rank_one]).reshape(-1, d)
    offsets = np.matmul(a0[:, None, None, :], means[:, :, None])[..., 0, 0].tolist()
    for k, (_, _, envelope), *terms in zip(ranked, rank_one, mus[len(lin) :], variances[len(lin) :], offsets):
        out[k] = [off + _envelope_mean(*envelope, mu, math.sqrt(max(var, 0.0))) for mu, var, off in zip(*terms)]
    quad = [k for k, f in enumerate(suite) if f.kind == "quadratic"]
    mats = np.array([suite[k].mat for k in quad]).reshape(-1, d, d)
    traces = (covs * mats[:, None]).sum(axis=(2, 3)).tolist()
    quads = np.matmul((means @ mats)[:, :, None, :], means[:, :, None])[..., 0, 0].tolist()
    xi0 = np.array([suite[k].xi0 for k in quad]).reshape(-1, d)
    lins = np.matmul(xi0[:, None, None, :], means[:, :, None])[..., 0, 0].tolist()
    for k, *terms in zip(quad, traces, quads, lins):
        out[k] = [t + q + l + suite[k].const for t, q, l in zip(*terms)]
    return out


def _abs_mean(mu: float, sd: float) -> float:
    """E|Z| for Z normal with mean ``mu`` and standard deviation ``sd``."""
    if sd == 0.0:
        return abs(mu)
    z = mu / sd
    return sd * _SQRT_2_OVER_PI * math.exp(-0.5 * (z * z)) + mu * math.erf(mu / (sd * math.sqrt(2.0)))


def _rank_one(f: TestFunction) -> tuple:
    """``(a0, u, envelope)`` with f(x) = a0 x + max_k(c_k t + b_k) at t = u x: at d = 1
    a0 = 0, u = 1 and c = the slopes; with two pieces a0 = a_1, u = a_2 - a_1 and c = (0, 1).
    The envelope of the lines is :func:`_upper_envelope`'s, the same under every law."""
    if f.slopes.shape[1] == 1:
        a0, u, c = np.zeros(1), np.ones(1), f.slopes[:, 0].tolist()
    else:
        a0, u, c = f.slopes[0], f.slopes[1] - f.slopes[0], [0.0, 1.0]
    return a0, u, _upper_envelope(c, f.intercepts.tolist())


def _upper_envelope(slopes: list, intercepts: list) -> tuple:
    """The lines ``(c, b)`` of t -> max(c t + b) from left to right, each on top
    somewhere, and the breakpoints where one hands over to the next."""
    lines, starts = [], []  # starts[i]: where lines[i] comes on top
    for c, b in sorted(zip(slopes, intercepts)):  # of two parallel lines the higher comes last
        while lines:
            x = (lines[-1][1] - b) / (c - lines[-1][0]) if c > lines[-1][0] else -math.inf
            if x > starts[-1]:
                break
            lines.pop()  # on top nowhere: the new line overtakes it before it comes on top
            starts.pop()
        starts.append(x if lines else -math.inf)
        lines.append((c, b))
    return lines, starts[1:]


def _envelope_mean(lines: list, breaks: list, m: float, s: float) -> float:
    """E max_k(c_k t + b_k) for t normal with mean ``m`` and standard deviation ``s``
    over the segments of the envelope ``(lines, breaks)``: a line's value at ``m`` times
    its segment's probability, plus ``c s`` times the drop of the normal density across it."""
    if s == 0.0:
        return max(c * m + b for c, b in lines)
    total, cdf, pdf = 0.0, 0.0, 0.0
    for (c, b), x in zip(lines, breaks + [math.inf]):
        z = (x - m) / s
        cdf_x, pdf_x = 0.5 * (1.0 + math.erf(z / math.sqrt(2.0))), math.exp(-0.5 * z * z) / _SQRT_2PI
        total += (c * m + b) * (cdf_x - cdf) + c * s * (pdf - pdf_x)
        cdf, pdf = cdf_x, pdf_x
    return total


def sphere_directions(count: int, d: int, seed: int = 0) -> np.ndarray:
    """Deterministic, reasonably spread unit directions; for d = 2 the read-only
    half-circle grid of :func:`matcore.angle_grid`."""
    if d == 1:
        return np.array([[1.0] if k % 2 == 0 else [-1.0] for k in range(count)])
    if d == 2:
        return matcore.angle_grid(count, np.pi)[1]
    return _normalize_rows(CounterRng(seed, stream=53).normal_matrix(count, d))


def default_suite(prob: MixtureProblem, seed: int = 0) -> list[TestFunction]:
    """Suite mirroring the function families behind the order conditions.

    32 absolute linear forms on spread directions, 8 exponential tilts
    along the worst direction, 8 random convex quadratics and 10 random
    max-affine functions with two to six pieces. Only the max-affine functions
    of three or more pieces at d >= 2 lack a closed form; at d = 1 every
    function of the suite has one. The random functions
    depend only on d and ``seed``: one ``uniforms`` call draws the piece
    counts and one ``normals`` call every coefficient.
    """
    d = prob.d
    dirs = sphere_directions(32, d, seed=seed)
    suite = [abs_linear(x) for x in dirs]
    margins = h_values(prob, dirs)
    worst = dirs[int(np.argmin(margins))]
    for lam in (0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 4.0, -4.0):
        suite.append(exp_linear(lam, worst))
    # stream 59 holds the ten piece counts (2 to 6), then one block of normals: per quadratic
    # W, b and c, then per max-affine function its slopes and intercepts
    rng = CounterRng(seed, stream=59)
    counts = (2 + (5.0 * rng.uniforms(10)).astype(int)).tolist()
    sizes = [d * d, d, 1] * 8 + [k for pieces in counts for k in (pieces * d, pieces)]
    draws = iter(np.split(rng.normals(sum(sizes)), np.cumsum(sizes)[:-1]))
    for _ in range(8):
        w = next(draws).reshape(d, d)
        # W W'/d is PSD by construction, so it skips the checks of quadratic()
        mat = matcore.symmetrize(w @ w.T / d)
        suite.append(TestFunction("quadratic", mat=mat, xi0=next(draws), const=float(next(draws)[0])))
    for pieces in counts:
        suite.append(max_affine(next(draws).reshape(pieces, d), next(draws)))
    return suite


def _mixture_samples(prob: MixtureProblem, count: int, rng: CounterRng) -> np.ndarray:
    idx = rng.choice(prob.p, count)
    normals = rng.normal_matrix(count, prob.d)
    roots = psdfeas.block_roots(prob.covs)
    return np.einsum("mij,mj->mi", roots[idx], normals) + prob.means[idx]


def _gaussian_samples(law: GaussianLaw, count: int, rng: CounterRng) -> np.ndarray:
    root = matcore.sqrt_psd(law.cov)
    return rng.normal_matrix(count, law.mean.shape[0]) @ root.T + law.mean[None, :]


def _logsumexp(values) -> float:
    top = max(values)
    return top + math.log(sum(math.exp(v - top) for v in values))


def _require_sample_count(mc_samples: int) -> None:
    """``mc_samples`` is 0 (no sampling) or at least 2 (one sample has no variance), else ``ValueError``."""
    if mc_samples < 0 or mc_samples == 1:
        raise ValueError(f"mc_samples must be 0 or at least 2, got {mc_samples}")


def test_convex_order(
    lhs: GaussianLaw,
    rhs: MixtureProblem,
    suite: list[TestFunction],
    mc_samples: int = 100000,
    seed: int = 0,
    z: float = 2.576,
) -> Verdict:
    """Compare expectations over a suite of convex test functions.

    Closed-form functions, rank-one max-affine ones among them, are compared
    exactly (normalised margin below ``-matcore.RANK_TOL``). Samples are drawn
    only when a function is left without one, a max-affine function of three
    or more pieces at d >= 2, so a d = 1 problem draws none; those functions
    use a z-score test at ``z`` combined standard errors (2.576 is a 99%
    interval) and ``mc_functions`` in the diagnostics counts them. Any violation fails with
    the offending function as witness. A pass is evidence only, never a
    proof, and is labeled as such in the diagnostics. The ``lhs`` covariance
    enters here: of another dimension than ``rhs`` it raises :class:`DimensionMismatch`,
    below ``-EPS_PSD`` times the larger of its own norm and ``rhs.var_scale()``
    :class:`matcore.NotPSD`. ``mc_samples`` is 0 (no sampling) or at least 2
    (one sample has no variance), else ``ValueError``.
    """
    _require_sample_count(mc_samples)
    if len(lhs.cov) != rhs.d:
        raise DimensionMismatch(f"lhs law of dimension {len(lhs.cov)} against a mixture of dimension {rhs.d}")
    w, own_scale = matcore.spectral_scale([lhs.cov])
    if w[0, 0] < -matcore.EPS_PSD * max(own_scale, rhs.var_scale()):
        raise matcore.NotPSD(f"lhs covariance lambda_min={w[0, 0]:.3e} below tolerance")
    worst_margin, witness, mc_checked = np.inf, None, 0
    rng = CounterRng(seed, stream=61)
    xs = None  # the lhs samples, then the mixture's, in Fortran order: xs.T is one contiguous d x 2m array
    if mc_samples > 0 and not all(f.closed_form for f in suite):
        samples = _gaussian_samples(lhs, mc_samples, rng), _mixture_samples(rhs, mc_samples, rng)
        xs = np.asfortranarray(np.concatenate(samples))
    # row 0 is the lhs law, row 1 + i the mixture's component i
    exact = _closed_forms(np.vstack([lhs.mean, rhs.means]), np.concatenate([lhs.cov[None], rhs.covs]), suite)
    weights = rhs.p.tolist()
    for f, values in zip(suite, exact):
        if values is not None:
            left = values[0]
            if f.kind == "exp_linear":
                # compare in log space: exact for Gaussians and overflow-proof
                right = _logsumexp([math.log(w) + v for w, v in zip(weights, values[1:])])
            else:
                right = 0.0  # added in component order, as sum() may not on every Python
                for w, v in zip(weights, values[1:]):
                    right += w * v
            margin = (right - left) / (1.0 + abs(left) + abs(right))
            if margin < worst_margin:
                worst_margin = margin
                if margin < -matcore.RANK_TOL:
                    witness = f
        elif xs is not None:
            # the bits of mean() and var(ddof=1) per side, by numpy's steps but summing once
            v = evaluate(f, xs).reshape(2, mc_samples)
            means = np.add.reduce(v, axis=1) / mc_samples
            v -= means[:, None]
            variances = np.add.reduce(np.square(v, out=v), axis=1) / (mc_samples - 1)
            (mean_l, mean_r), (var_l, var_r) = means.tolist(), variances.tolist()
            se = math.sqrt(var_l / mc_samples + var_r / mc_samples)
            gap = mean_r - mean_l
            if se > 0 and gap < -z * se:
                margin = gap / (1.0 + abs(mean_l))
                if margin < worst_margin:
                    worst_margin = margin
                    witness = f
            mc_checked += 1
    worst_margin = float(worst_margin)
    diag = {"functions": len(suite), "mc_functions": mc_checked, "evidence_only": True, "worst_margin": worst_margin}
    return Verdict(Status.HOLDS if witness is None else Status.FAILS, worst_margin, witness, diag)


def test_mixture_dominated(prob: MixtureProblem) -> Verdict:
    """Falsify mixture-below-target through exponential moment growth.

    When some component covariance is not dominated, an explicit
    exponential tilt whose mixture expectation exceeds the target one is
    produced and verified in closed form.
    """
    if np.abs(prob.means).max(initial=0.0) > matcore.RANK_TOL * prob.std_scale():
        raise NonCenteredMeans("moment-growth falsification needs zero component means")
    gaps, lmins = dominance_spectrum(prob)
    tol = -matcore.EPS_PSD * prob.var_scale()
    worst = np.inf  # the smallest lambda_min up to the component that falsifies
    found = None
    for i, (cov, diff, lmin) in enumerate(zip(prob.covs, gaps, lmins)):
        worst = min(worst, lmin)
        if lmin < tol:
            _, q = np.linalg.eigh(matcore.symmetrize(diff))
            xi = q[:, 0]
            gap = float(xi @ cov @ xi - xi @ prob.target @ xi)
            lam = 2.0 * math.sqrt(math.log(1.0 / prob.p[i])) / math.sqrt(gap)
            # compare in log space: the tilt can overflow the linear scale
            laws = np.zeros((prob.n + 1, prob.d)), np.concatenate([prob.target[None], prob.covs])
            log_single, *log_comps = _closed_forms(*laws, [exp_linear(lam, xi)])[0]
            log_mixture = _logsumexp([math.log(w) + v for w, v in zip(prob.p.tolist(), log_comps)])
            if log_mixture > log_single:
                found = {
                    "index": i,
                    "xi": xi,
                    "lam": lam,
                    "log_mixture": log_mixture,
                    "log_single": log_single,
                }
                break
    if found is not None:
        return Verdict(Status.FAILS, float(worst), found, {"exact": True})
    return Verdict(Status.HOLDS, float(worst), None, {"exact": True})


# ---------------------------------------------------------------------------
# radial noise
# ---------------------------------------------------------------------------


@dataclass
class RadialNoise:
    """Orthogonally invariant noise: radius law times a uniform direction."""

    q: int
    name: str
    radius_sampler: Callable[[CounterRng, int], np.ndarray]
    abs_first_moment: float | None = None  # E|Z_1| when known


def _sphere_coord_moment(q: int) -> float:
    # E|U_1| for U uniform on the unit sphere of R^q
    return math.gamma(q / 2.0) / (math.sqrt(math.pi) * math.gamma((q + 1) / 2.0))


def gaussian_noise(q: int) -> RadialNoise:
    def radius(rng: CounterRng, count: int) -> np.ndarray:
        return np.linalg.norm(rng.normal_matrix(count, q), axis=1)

    return RadialNoise(q, "gaussian", radius, abs_first_moment=_SQRT_2_OVER_PI)


def sphere_noise(q: int, radius_value: float = 1.0) -> RadialNoise:
    def radius(rng: CounterRng, count: int) -> np.ndarray:
        return np.full(count, radius_value)

    return RadialNoise(
        q, "sphere", radius, abs_first_moment=radius_value * _sphere_coord_moment(q)
    )


def sample_radial(noise: RadialNoise, count: int, rng: CounterRng) -> np.ndarray:
    dirs = _normalize_rows(rng.normal_matrix(count, noise.q))
    return dirs * noise.radius_sampler(rng, count)[:, None]


def radial_order_check(
    sigma,
    sigma_list,
    p,
    noise: RadialNoise,
    mc_samples: int = 50000,
    seed: int = 0,
    cfg: SearchConfig | None = None,
) -> Verdict:
    """Necessary directional condition for radially driven mixtures.

    The condition only involves the Gram matrices ``sigma sigma*`` so it is
    decided exactly through the directional checker; a Monte Carlo check of
    the absolute linear expectations (whose closed form uses E|Z_1|) guards
    the statistics when the moment is known. ``seed`` draws the checker's
    random starts and the samples. ``mc_samples`` is 0 (no sampling) or at
    least 2, else ``ValueError``.
    """
    _require_sample_count(mc_samples)
    sigma = np.asarray(sigma, dtype=float)
    mats = [np.asarray(s, dtype=float) for s in sigma_list]
    gram = matcore.symmetrize(sigma @ sigma.T)
    grams = np.stack([matcore.symmetrize(s @ s.T) for s in mats])
    prob = MixtureProblem(p=np.asarray(p, dtype=float), covs=grams, target=gram)
    verdict = check_inegsqrt(prob, cfg, seed)
    diag = dict(verdict.diagnostics)
    diag["noise"] = noise.name

    if mc_samples > 0 and noise.abs_first_moment is not None:
        rng = CounterRng(seed, stream=67)
        zs = sample_radial(noise, mc_samples, rng)
        dirs = sphere_directions(8, gram.shape[0], seed=seed)
        worst_z = 0.0
        for xi in dirs:
            samples_t = np.abs((zs @ sigma.T) @ xi)
            exact_t = float(np.linalg.norm(sigma.T @ xi)) * noise.abs_first_moment
            se = samples_t.std(ddof=1) / math.sqrt(mc_samples)
            if se > 0:
                worst_z = max(worst_z, abs(float(samples_t.mean()) - exact_t) / se)
        diag["mc_max_z"] = worst_z
    return Verdict(verdict.status, verdict.margin, verdict.witness, diag)


# ---------------------------------------------------------------------------
# exponential tilt functional (centered-mean optimality)
# ---------------------------------------------------------------------------


def exp_tilt_mixture_value(x1: float, lam: float, p1: float, s1: float, s2: float) -> float:
    """Expectation of exp(lam x) under the two-point centered mean family.

    The first component sits at ``x1``, the second at ``-p1 x1 / (1 - p1)``
    so the weighted means cancel; standard deviations are ``s1`` and ``s2``.
    """
    p2 = 1.0 - p1
    a = p1 * math.exp(lam * x1 + 0.5 * lam * lam * s1 * s1)
    b = p2 * math.exp(-lam * p1 * x1 / p2 + 0.5 * lam * lam * s2 * s2)
    return a + b


def exp_tilt_minimizer(lam: float, p1: float, s1: float, s2: float) -> float:
    """Closed-form minimizer of :func:`exp_tilt_mixture_value` in x1."""
    return 0.5 * lam * (1.0 - p1) * (s2 * s2 - s1 * s1)
