import math

import numpy as np
import pytest

import families as fam
from gmcvx import conditions as C
from gmcvx import coupling
from gmcvx.rng import CounterRng


def test_build_kernel_identity_gamma():
    prob = C.MixtureProblem(
        p=[0.5, 0.5], covs=np.stack([np.eye(2), np.eye(2)]), target=0.4 * np.eye(2)
    )
    kernel = coupling.build_kernel(prob, np.eye(4))
    a_t = np.vstack([0.5 * np.eye(2), 0.5 * np.eye(2)])
    # conditional mean map is A* divided by sum of squared weights
    assert np.allclose(kernel.cond_mean_map, a_t / 0.5)


def test_build_kernel_zero_residual_when_target_saturates():
    prob = fam.rank_deficient_pair(0.0)
    kernel = coupling.build_kernel(prob, fam.RANK_DEFICIENT_GAMMA)
    assert np.abs(kernel.resid_cov).max() < 1e-12
    # z equals x when the residual covariance vanishes
    rng = CounterRng(1)
    x = np.array([0.3, -0.2])
    xs, idx, ys = coupling.sample_batch(kernel, 1, rng, xs=x)
    assert np.array_equal(xs[0], x)
    assert idx[0] in (0, 1)
    assert np.all(np.isfinite(ys[0]))


def test_build_kernel_rejects_bad_witness():
    prob = fam.rank_deficient_pair(0.0)
    with pytest.raises(coupling.InvalidGamma):
        coupling.build_kernel(prob, np.eye(4))


def test_build_kernel_rejects_noncentered_means():
    prob = C.MixtureProblem(
        p=[0.5, 0.5],
        covs=np.stack([np.eye(1), np.eye(1)]),
        target=np.eye(1),
        means=np.array([[1.0], [0.5]]),
    )
    gamma = np.block([[np.eye(1), np.eye(1)], [np.eye(1), np.eye(1)]])
    with pytest.raises(C.NonCenteredMeans):
        coupling.build_kernel(prob, gamma)


def test_equal_components_with_centered_means_is_martingale():
    sigma = np.array([[1.0, 0.2], [0.2, 0.8]])
    means = np.array([[1.0, -0.5], [-1.0, 0.5]])
    prob = C.MixtureProblem(
        p=[0.5, 0.5], covs=np.stack([sigma, sigma]), target=sigma, means=means
    )
    gamma = np.block([[sigma, sigma], [sigma, sigma]])
    kernel = coupling.build_kernel(prob, gamma)
    rng = CounterRng(42)
    xs, idx, ys = coupling.sample_batch(kernel, 60000, rng)
    resid = ys - xs
    se = resid.std(axis=0, ddof=1) / math.sqrt(len(xs))
    assert np.all(np.abs(resid.mean(axis=0)) <= 4.0 * se)


def test_marginal_law_of_samples():
    prob = fam.rank_deficient_pair(0.0)
    kernel = coupling.build_kernel(prob, fam.RANK_DEFICIENT_GAMMA)
    rng = CounterRng(7)
    n = 100000
    xs, idx, ys = coupling.sample_batch(kernel, n, rng)
    mix_cov = prob.mixture_covariance()
    cov_y = np.cov(ys.T, ddof=1)
    for k in range(2):
        for l in range(2):
            se = math.sqrt((mix_cov[k, k] * mix_cov[l, l] + mix_cov[k, l] ** 2) / n)
            assert abs(cov_y[k, l] - mix_cov[k, l]) <= 4.0 * max(se, 1e-12)
    se_mean = ys.std(axis=0, ddof=1) / math.sqrt(n)
    assert np.all(np.abs(ys.mean(axis=0)) <= 4.0 * se_mean)


def test_conditional_mean_at_fixed_point():
    prob = fam.rank_deficient_pair(0.0)
    kernel = coupling.build_kernel(prob, fam.RANK_DEFICIENT_GAMMA)
    rng = CounterRng(11)
    x = np.array([0.5, -0.2])
    n = 100000
    xs = np.tile(x, (n, 1))
    _, _, ys = coupling.sample_batch(kernel, n, rng, xs=xs)
    se = ys.std(axis=0, ddof=1) / math.sqrt(n)
    assert np.all(np.abs(ys.mean(axis=0) - x) <= 4.0 * se)


def test_sampling_deterministic_given_stream():
    prob = fam.rank_deficient_pair(0.0)
    kernel = coupling.build_kernel(prob, fam.RANK_DEFICIENT_GAMMA)
    a = coupling.sample_batch(kernel, 100, CounterRng(3))
    b = coupling.sample_batch(kernel, 100, CounterRng(3))
    for left, right in zip(a, b):
        assert np.array_equal(left, right)


def test_engine_witness_feeds_kernel():
    prob = fam.axis_swap_problem(5.0, 0.5)
    verdict = C.check_inecov(prob)
    assert verdict.holds
    kernel = coupling.build_kernel(prob, verdict.witness)
    rng = CounterRng(31)
    xs, _, ys = coupling.sample_batch(kernel, 50000, rng)
    resid = ys - xs
    se = resid.std(axis=0, ddof=1) / math.sqrt(len(xs))
    assert np.all(np.abs(resid.mean(axis=0)) <= 4.0 * se)
