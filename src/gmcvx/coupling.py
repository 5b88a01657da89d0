"""Gaussian couplings realizing the convex order.

Given a validated coupling witness Gamma, the mean-preserving Markov
kernel transporting the centered target law onto the mixture is sampled in
three conditional steps: inflate the target draw by the residual
covariance, draw the joint component vector conditionally on its weighted
block sum, then pick a component and shift by its mean. All Gaussian
conditioning uses pseudo-inverses so singular covariances are fine, and
all randomness comes from counter-based streams, so batches reproduce
bit-identically. :func:`sample_batch` is the only sampler: a single draw
at a given target point x is ``sample_batch(kernel, 1, rng, xs=x)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matcore, psdfeas
from .conditions import MixtureProblem, validate_gamma_witness, witness_matrix
from .rng import CounterRng


class InvalidGamma(ValueError):
    """Coupling matrix fails witness validation."""


@dataclass
class MartingaleKernel:
    """Precomputed conditioning data for the mean-preserving kernel."""

    prob: MixtureProblem
    gamma: np.ndarray
    mix_cov: np.ndarray  # A Gamma A*
    cond_mean_map: np.ndarray  # Gamma A* pinv(A Gamma A*), nd x d
    cond_sqrt: np.ndarray  # PSD sqrt of conditional covariance, nd x nd
    resid_cov: np.ndarray  # A Gamma A* - target, d x d
    resid_sqrt: np.ndarray
    target_sqrt: np.ndarray


def build_kernel(prob: MixtureProblem, gamma, tol: float = matcore.EPS_CHAIN) -> MartingaleKernel:
    """Validate the witness and precompute every conditioning matrix."""
    prob.require_centered()
    gamma = witness_matrix(gamma)
    n, d = prob.n, prob.d
    if gamma.shape != (n * d, n * d):
        raise InvalidGamma(f"expected shape {(n * d, n * d)}, got {gamma.shape}")
    check = validate_gamma_witness(prob, gamma, tol)
    if not check["ok"]:
        raise InvalidGamma(f"witness does not validate: {check}")
    gamma = psdfeas.pin_blocks(matcore.symmetrize(gamma), prob.covs)

    mix_cov = psdfeas.mix_compress(gamma, prob.p, d)
    mix_pinv = matcore.pinv_psd(matcore.clamp_psd(mix_cov))
    gamma_at = gamma * np.repeat(prob.p, d)[None, :]  # Gamma A* as nd x d after summing
    gamma_at = gamma_at.reshape(n * d, n, d).sum(axis=1)
    cond_mean_map = gamma_at @ mix_pinv
    cond_cov = matcore.clamp_psd(gamma - cond_mean_map @ gamma_at.T)
    resid_cov = matcore.clamp_psd(mix_cov - prob.target)
    return MartingaleKernel(
        prob=prob,
        gamma=gamma,
        mix_cov=mix_cov,
        cond_mean_map=cond_mean_map,
        cond_sqrt=matcore.sqrt_psd(cond_cov),
        resid_cov=resid_cov,
        resid_sqrt=matcore.sqrt_psd(resid_cov),
        target_sqrt=matcore.sqrt_psd(prob.target),
    )


def sample_batch(kernel: MartingaleKernel, n_samples: int, rng: CounterRng, xs: np.ndarray | None = None):
    """Vectorized joint draws; returns (xs, indices, ys).

    When ``xs`` is omitted they are drawn from the centered target law.
    Consumption order of the stream is fixed, so results depend only on the
    stream state, not on batching of downstream work.
    """
    prob = kernel.prob
    d, n = prob.d, prob.n
    if xs is None:
        xs = rng.normal_matrix(n_samples, d) @ kernel.target_sqrt.T
    else:
        xs = np.asarray(xs, dtype=float).reshape(n_samples, d)
    zs = xs + rng.normal_matrix(n_samples, d) @ kernel.resid_sqrt.T
    ws = zs @ kernel.cond_mean_map.T + rng.normal_matrix(n_samples, n * d) @ kernel.cond_sqrt.T
    idx = rng.choice(prob.p, n_samples)
    blocks = ws.reshape(n_samples, n, d)[np.arange(n_samples), idx]
    ys = blocks + prob.means[idx]
    return xs, idx, ys

