import math
import warnings

import numpy as np
import pytest

import families as fam
from families import refine_minimizer_by_slope
from gmcvx import conditions as C
from gmcvx import cxverify as X
from gmcvx import matcore
from gmcvx.rng import CounterRng
from gmcvx.utils import golden_section_minimize


def test_abs_linear_exact_matches_std():
    law = X.GaussianLaw(np.zeros(2), np.array([[2.0, 0.5], [0.5, 1.0]]))
    xi = np.array([0.6, -0.8])
    f = X.abs_linear(xi, scale=math.sqrt(math.pi / 2.0))
    val = X.exact_expectation(law, f)
    assert val == pytest.approx(math.sqrt(xi @ law.cov @ xi), rel=1e-12)


def test_abs_linear_exact_with_mean_vs_quadrature():
    from scipy.integrate import quad

    mu, sd = 0.7, 1.3
    law = X.GaussianLaw(np.array([mu]), np.array([[sd**2]]))
    f = X.abs_linear(np.array([1.0]))
    exact = X.exact_expectation(law, f)
    num, _ = quad(
        lambda t: abs(t) * math.exp(-0.5 * ((t - mu) / sd) ** 2) / (sd * math.sqrt(2 * math.pi)),
        -60,
        60,
    )
    assert exact == pytest.approx(num, abs=1e-10)


def test_exp_linear_exact():
    law = X.GaussianLaw(np.array([0.3, -0.1]), np.array([[1.5, 0.2], [0.2, 0.9]]))
    xi = np.array([1.0, 2.0])
    lam = 0.7
    f = X.exp_linear(lam, xi)
    expected = math.exp(lam * (xi @ law.mean) + 0.5 * lam**2 * (xi @ law.cov @ xi))
    assert X.exact_expectation(law, f) == pytest.approx(expected, rel=1e-12)


def test_quadratic_exact_trace():
    law = X.GaussianLaw(np.zeros(3), np.diag([1.0, 2.0, 3.0]))
    f = X.quadratic(np.eye(3))
    assert X.exact_expectation(law, f) == pytest.approx(6.0)


def test_quadratic_requires_psd():
    with pytest.raises(ValueError):
        X.quadratic(np.diag([1.0, -1.0]))


def test_max_affine_has_no_closed_form():
    f = X.max_affine(np.array([[1.0, 0.0], [0.0, 1.0]]), np.zeros(2))
    assert not f.closed_form
    assert X.exact_expectation(X.GaussianLaw(np.zeros(2), np.eye(2)), f) is None


def test_exact_vs_monte_carlo_agreement():
    law = X.GaussianLaw(np.array([0.2, -0.4]), np.array([[1.2, 0.3], [0.3, 0.8]]))
    rng = CounterRng(3)
    root = np.linalg.cholesky(law.cov)
    xs = rng.normal_matrix(200000, 2) @ root.T + law.mean
    for f in [
        X.abs_linear(np.array([0.8, 0.6])),
        X.exp_linear(0.5, np.array([1.0, -1.0])),
        X.quadratic(np.array([[1.0, 0.2], [0.2, 2.0]]), np.array([0.5, 0.0]), 1.0),
    ]:
        vals = X.evaluate(f, xs)
        exact = X.exact_expectation(law, f)
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - exact) <= 5.0 * se


def test_convex_order_identical_laws():
    sigma = np.array([[1.0, 0.3], [0.3, 2.0]])
    prob = C.MixtureProblem(p=[0.5, 0.5], covs=np.stack([sigma, sigma]), target=sigma)
    lhs = X.GaussianLaw(np.zeros(2), sigma)
    v = X.test_convex_order(lhs, prob, X.default_suite(prob), mc_samples=20000)
    assert v.holds
    assert v.diagnostics["evidence_only"]


def test_convex_order_interior_point_no_violation():
    prob = fam.axis_swap_problem(2.0, 1.0)
    lhs = X.GaussianLaw(np.zeros(2), prob.target)
    v = X.test_convex_order(lhs, prob, X.default_suite(prob), mc_samples=30000)
    assert v.holds


def test_convex_order_exterior_point_exact_violation():
    prob = fam.axis_swap_problem(5.9, 0.0)
    lhs = X.GaussianLaw(np.zeros(2), prob.target)
    v = X.test_convex_order(lhs, prob, X.default_suite(prob), mc_samples=20000)
    assert v.fails
    assert v.witness.kind == "abs_linear"


def test_abs_linear_sweep_sign_agrees_with_checker():
    mismatches = 0
    compared = 0
    for seed in range(200):
        prob = fam.random_chain_problem(seed)
        dirs = X.sphere_directions(64, prob.d, seed=seed)
        sweep_min = float(C.h_values(prob, dirs).min())
        verdict = C.check_inegsqrt(prob)
        band = 1e-6 * (1.0 + prob.std_scale())
        if abs(verdict.margin) < band or abs(sweep_min) < band:
            continue
        compared += 1
        # a negative sweep value must mean a failing checker; a holding
        # checker must bound the sweep from below
        if sweep_min < 0 and verdict.holds:
            mismatches += 1
        if verdict.fails and sweep_min > 0 > verdict.margin and sweep_min > band:
            # sampled directions may miss a violation only narrowly
            if C.h_margin(prob, verdict.witness) < -band:
                continue
            mismatches += 1
    assert compared >= 100
    assert mismatches == 0


def test_mixture_dominated_cross_validates():
    prob = C.MixtureProblem(
        p=[0.5, 0.5],
        covs=np.stack([np.eye(2), np.diag([1.0, 3.0])]),
        target=2.0 * np.eye(2),
    )
    v = X.test_mixture_dominated(prob)
    assert v.fails
    w = v.witness
    assert w["log_mixture"] > w["log_single"]
    # re-verify the closed-form violation from scratch (log scale)
    lam, xi = w["lam"], w["xi"]
    log_lhs = 0.5 * lam**2 * float(xi @ prob.target @ xi)
    log_rhs = math.log(
        sum(
            p * math.exp(0.5 * lam**2 * float(xi @ cov @ xi) - log_lhs)
            for p, cov in zip(prob.p, prob.covs)
        )
    ) + log_lhs
    assert log_rhs > log_lhs

    same = C.MixtureProblem(
        p=[0.5, 0.5], covs=np.stack([np.eye(2), np.eye(2)]), target=np.eye(2)
    )
    assert X.test_mixture_dominated(same).holds

    scalar = C.MixtureProblem(
        p=[0.5, 0.5], covs=np.array([[[1.0]], [[4.0]]]), target=np.array([[4.0]])
    )
    assert X.test_mixture_dominated(scalar).holds


def test_dominated_checkers_agree():
    for seed in range(60):
        rng = CounterRng(seed, stream=83)
        d = 1 + seed % 3
        covs = np.stack([fam.random_psd(rng.spawn(i), d) for i in range(2)])
        target = fam.random_psd(rng.spawn(9), d) + 0.1 * np.eye(d)
        prob = C.MixtureProblem(p=[0.5, 0.5], covs=covs, target=target)
        assert C.check_dominated_by_single(prob).status == X.test_mixture_dominated(prob).status


def test_radial_gaussian_reduces_to_directional_check():
    sig = np.array([[1.0, 0.0], [0.0, 2.0]])
    sig1 = np.array([[2.0, 0.0], [0.0, 1.0]])
    v = X.radial_order_check(sig, [sig, sig1], [0.5, 0.5], X.gaussian_noise(2), mc_samples=30000)
    prob = C.MixtureProblem(
        p=[0.5, 0.5],
        covs=np.stack([sig @ sig.T, sig1 @ sig1.T]),
        target=sig @ sig.T,
    )
    assert v.status == C.check_inegsqrt(prob).status
    assert v.diagnostics["mc_max_z"] < 5.0


def test_radial_sphere_noise_trivial_and_scaled_violation():
    noise = X.sphere_noise(3)
    sig = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    v = X.radial_order_check(sig, [sig, sig], [0.5, 0.5], noise, mc_samples=20000)
    assert v.holds
    v = X.radial_order_check(3.0 * sig, [sig, sig], [0.5, 0.5], noise, mc_samples=0)
    assert v.fails


@pytest.mark.parametrize("mc_samples", [1, -1, -5])
def test_radial_order_check_rejects_sample_counts_without_a_variance(mc_samples):
    # one sample has no variance, and a negative count used to skip the check unseen
    sig = np.eye(2)
    with pytest.raises(ValueError, match="mc_samples must be 0 or at least 2"):
        X.radial_order_check(sig, [sig, sig], [0.5, 0.5], X.gaussian_noise(2), mc_samples=mc_samples)


def test_radial_direction_orthogonal_invariance():
    noise = X.sphere_noise(3)
    rng = CounterRng(17)
    zs = X.sample_radial(noise, 50000, rng)
    q, _ = np.linalg.qr(CounterRng(18).normal_matrix(3, 3))
    rotated = zs @ q.T
    # first and second moments invariant under rotation
    assert np.abs(rotated.mean(axis=0)).max() < 0.01
    assert np.abs(np.cov(rotated.T) - np.eye(3) / 3.0).max() < 0.01


def test_sphere_coord_moment_values():
    assert X.sphere_noise(2).abs_first_moment == pytest.approx(2.0 / math.pi)
    assert X.sphere_noise(3).abs_first_moment == pytest.approx(0.5)


def test_exp_tilt_minimizer_identity():
    lam, p1, s1, s2 = 1.7, 0.35, 0.8, 1.4
    f = lambda x: X.exp_tilt_mixture_value(x, lam, p1, s1, s2)
    x0, _ = golden_section_minimize(f, -40.0, 40.0, xtol=1e-9)
    x1 = refine_minimizer_by_slope(f, x0)
    assert x1 == pytest.approx(X.exp_tilt_minimizer(lam, p1, s1, s2), abs=1e-8)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_max_affine_evaluate_matches_row_maximum(d):
    # the maxima run column by column; they must equal the row-wise maxima exactly
    rng = CounterRng(70 + d)
    slopes, intercepts = rng.normal_matrix(6, d), rng.normals(6)
    xs = 3.0 * rng.normal_matrix(6000, d)
    f = X.max_affine(slopes, intercepts)
    assert np.array_equal(X.evaluate(f, xs), (xs @ slopes.T + intercepts).max(axis=1))


def reference_exact_expectation(mean, cov, f):
    """The closed forms one law and one function at a time."""
    if f.kind == "abs_linear":
        mu = float(f.xi @ mean)
        var = float(f.xi @ cov @ f.xi)
        sd = math.sqrt(max(var, 0.0))
        if sd == 0.0:
            return f.scale * abs(mu)
        value = sd * math.sqrt(2.0 / math.pi) * math.exp(-0.5 * (mu / sd) ** 2) + mu * math.erf(
            mu / (sd * math.sqrt(2.0))
        )
        return f.scale * value
    if f.kind == "exp_linear":
        return math.exp(reference_log_exp_expectation(mean, cov, f))
    if f.kind == "quadratic":
        trace = float(np.sum(f.mat * cov))
        return trace + float(mean @ f.mat @ mean) + float(f.xi0 @ mean) + f.const
    return None


def reference_log_exp_expectation(mean, cov, f):
    mu = float(f.xi @ mean)
    var = float(f.xi @ cov @ f.xi)
    return f.lam * mu + 0.5 * f.lam * f.lam * max(var, 0.0)


def reference_convex_order(lhs, rhs, suite, mc_samples, seed, z):
    """``test_convex_order`` as a loop over the suite that integrates each
    closed form law by law and builds the max-affine values in two arrays."""
    worst_margin, witness, mc_checked = np.inf, None, 0
    rng = CounterRng(seed, stream=61)
    xs_l = xs_r = None
    if any(not f.closed_form for f in suite) and mc_samples > 0:
        xs_l = X._gaussian_samples(lhs, mc_samples, rng)
        xs_r = X._mixture_samples(rhs, mc_samples, rng)
    laws = [X.GaussianLaw(mean, cov) for mean, cov in zip(rhs.means, rhs.covs)]
    for f in suite:
        if f.closed_form:
            if f.kind == "exp_linear":
                left = reference_log_exp_expectation(lhs.mean, lhs.cov, f)
                right = X._logsumexp(
                    [math.log(w) + reference_log_exp_expectation(law.mean, law.cov, f) for w, law in zip(rhs.p, laws)]
                )
            else:
                left = reference_exact_expectation(lhs.mean, lhs.cov, f)
                right = 0.0
                for w, law in zip(rhs.p, laws):
                    right += float(w) * reference_exact_expectation(law.mean, law.cov, f)
            margin = (right - left) / (1.0 + abs(left) + abs(right))
            if margin < worst_margin:
                worst_margin = margin
                if margin < -matcore.RANK_TOL:
                    witness = f
        elif xs_l is not None:
            vl = (f.slopes @ xs_l.T + f.intercepts[:, None]).max(axis=0)
            vr = (f.slopes @ xs_r.T + f.intercepts[:, None]).max(axis=0)
            se = math.sqrt(vl.var(ddof=1) / len(vl) + vr.var(ddof=1) / len(vr))
            gap = float(vr.mean() - vl.mean())
            if se > 0 and gap < -z * se:
                margin = gap / (1.0 + abs(vl.mean()))
                if margin < worst_margin:
                    worst_margin = margin
                    witness = f
            mc_checked += 1
    diag = {"functions": len(suite), "mc_functions": mc_checked, "evidence_only": True,
            "worst_margin": float(worst_margin)}
    status = C.Status.HOLDS if witness is None else C.Status.FAILS
    return status, float(worst_margin), witness, diag


def centred_pair_problem(seed):
    """Two components with means that cancel under the weights, d = 1 + seed % 3."""
    rng = CounterRng(seed, stream=97)
    d = 1 + seed % 3
    covs = np.stack([fam.random_psd(rng.spawn(i), d) for i in range(2)])
    p1 = 0.2 + 0.6 * rng.uniforms(1)[0]
    m1 = 0.8 * rng.normals(d)
    target = fam.random_psd(rng.spawn(9), d) * (0.5 + rng.uniforms(1)[0])
    return C.MixtureProblem(p=[p1, 1.0 - p1], covs=covs, target=target, means=np.stack([m1, -p1 * m1 / (1.0 - p1)]))


def assert_matches_reference(prob, seed, mc_samples, z, sampled_only=False):
    lhs = X.GaussianLaw(np.zeros(prob.d), prob.target)
    suite = [f for f in X.default_suite(prob, seed=seed) if not (sampled_only and f.closed_form)]
    v = X.test_convex_order(lhs, prob, suite, mc_samples=mc_samples, seed=seed, z=z)
    status, margin, witness, diag = reference_convex_order(lhs, prob, suite, mc_samples, seed, z)
    assert v.status == status, seed
    assert v.margin == margin, seed
    assert v.witness is witness, seed
    assert v.diagnostics == diag, seed
    return v


def test_convex_order_matches_the_scalar_reference_on_chain_problems():
    statuses = set()
    for seed in range(200):
        v = assert_matches_reference(fam.random_chain_problem(seed), seed, 6000, 5.0)
        statuses.add(v.status)
    assert statuses == {C.Status.HOLDS, C.Status.FAILS}


def test_convex_order_matches_the_scalar_reference_with_centred_means():
    witnesses = []
    for seed in range(16):
        prob = centred_pair_problem(seed)
        assert np.abs(prob.p @ prob.means).max() < 1e-15
        v = assert_matches_reference(prob, seed, 20000, 2.576)
        if v.fails:
            witnesses.append(v.witness.kind)
    # a closed-form Fails and a Monte Carlo Fails (max-affine witness) both occur
    assert "max_affine" in witnesses
    assert any(kind != "max_affine" for kind in witnesses)


def test_convex_order_matches_the_scalar_reference_at_two_samples():
    # two samples per side leave one degree of freedom: the ddof = 1 edge of the moments
    for seed in range(60):
        prob = centred_pair_problem(seed) if seed % 2 else fam.random_chain_problem(seed)
        v = assert_matches_reference(prob, seed, 2, 2.576)
        assert v.diagnostics["mc_functions"] == 10


def test_convex_order_matches_the_scalar_reference_on_a_max_affine_suite():
    statuses = set()
    for seed in range(60):
        prob = centred_pair_problem(seed) if seed % 2 else fam.random_chain_problem(seed)
        for mc_samples in (2, 3, 6000):
            v = assert_matches_reference(prob, seed, mc_samples, 2.576, sampled_only=True)
            assert v.diagnostics["functions"] == v.diagnostics["mc_functions"] == 10
            statuses.add(v.status)
    assert statuses == {C.Status.HOLDS, C.Status.FAILS}


def test_exact_expectation_matches_the_scalar_reference():
    for seed in range(40):
        prob = centred_pair_problem(seed) if seed % 2 else fam.random_chain_problem(seed)
        for f in X.default_suite(prob, seed=seed):
            for mean, cov in zip(prob.means, prob.covs):
                assert X.exact_expectation(X.GaussianLaw(mean, cov), f) == reference_exact_expectation(mean, cov, f)


@pytest.mark.parametrize("mc_samples", [1, -1, -3])
def test_convex_order_rejects_sample_counts_without_a_variance(mc_samples):
    prob = fam.axis_swap_problem(2.0, 1.0)
    lhs = X.GaussianLaw(np.zeros(2), prob.target)
    with pytest.raises(ValueError, match="mc_samples"):
        X.test_convex_order(lhs, prob, X.default_suite(prob), mc_samples=mc_samples)


@pytest.mark.parametrize("mc_samples, checked", [(0, 0), (2, 10)])
def test_convex_order_counts_the_sampled_functions_it_checks(mc_samples, checked):
    prob = fam.axis_swap_problem(2.0, 1.0)
    lhs = X.GaussianLaw(np.zeros(2), prob.target)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # two samples give every standard error a variance
        v = X.test_convex_order(lhs, prob, X.default_suite(prob), mc_samples=mc_samples)
    assert v.diagnostics["mc_functions"] == checked


@pytest.mark.parametrize(
    "mean", [[math.nan, 0.0], [math.inf, 0.0], [0.0], [0.0, 0.0, 0.0]], ids=["nan", "inf", "short", "long"]
)
def test_gaussian_law_rejects_a_non_finite_or_misshapen_mean(mean):
    with pytest.raises(ValueError, match="mean"):
        X.GaussianLaw(np.array(mean), 20.0 * np.eye(2))


def test_convex_order_fails_a_wide_lhs_and_rejects_one_of_another_dimension():
    # a non-finite mean once made every margin NaN, which compares as no violation
    prob = fam.axis_swap_problem(20.0, 0.0)
    suite = X.default_suite(prob)
    v = X.test_convex_order(X.GaussianLaw(np.zeros(2), prob.target), prob, suite, mc_samples=0)
    assert v.fails and v.margin == pytest.approx(-0.5617, abs=1e-4)
    with pytest.raises(C.DimensionMismatch):
        X.test_convex_order(X.GaussianLaw(np.zeros(3), 20.0 * np.eye(3)), prob, suite, mc_samples=0)
