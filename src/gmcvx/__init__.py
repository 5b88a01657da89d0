"""Convex-order decisions, certificates and couplings for Gaussian mixtures.

The package decides whether a centered Gaussian law is dominated in the
convex order by a finite Gaussian mixture, certifies positive answers
(shared-correlation and coupling-matrix certificates), refutes negative
ones with re-verifiable witnesses, samples the mean-preserving coupling
realizing the order, and maps verdict regions over parameter grids.
"""

__version__ = "0.1.0"

from .conditions import (  # noqa: F401
    ChainReport,
    ChainViolation,
    CorrelCertificate,
    GammaWitness,
    InvalidProblem,
    MixtureProblem,
    SearchConfig,
    Status,
    Verdict,
    check_correl_with,
    check_dominated_by_single,
    check_inecov,
    check_inecovf,
    check_inegsqrt,
    check_n2_theta,
    decide,
    find_correl_certificate,
    implication_chain_report,
    orthogonal_factors_from_gamma,
)
from .coupling import MartingaleKernel, build_kernel, sample_batch  # noqa: F401
from .psdfeas import FeasibilityTask, solve  # noqa: F401
from .rng import CounterRng  # noqa: F401
