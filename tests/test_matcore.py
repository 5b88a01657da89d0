import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from families import RANK_DEFICIENT_GAMMA, rank_deficient_pair
from gmcvx import conditions as C
from gmcvx import coupling, cxverify, matcore
from gmcvx.rng import CounterRng

SQRT2 = math.sqrt(2.0)


def rand_sym(seed, d, scale=1.0):
    rng = CounterRng(seed)
    a = rng.normal_matrix(d, d) * scale
    return matcore.symmetrize(0.5 * (a + a.T))


def rand_psd(seed, d, rank=None):
    rng = CounterRng(seed)
    w = rng.normal_matrix(d, rank or d)
    return matcore.symmetrize(w @ w.T)


def test_symmetrize_mirrors_upper_triangle_exactly():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    s = matcore.symmetrize(a)
    assert s[1, 0] == s[0, 1] == 2.0


NAN2 = np.array([[1.0, math.nan], [0.0, 1.0]])
NAN_GAMMA = np.where(np.eye(4) > 0.0, 1.0, 0.0)
NAN_GAMMA[0, 3] = math.nan
# lambda_min -1e-6 is below -EPS_PSD sigma^2 for rank_deficient_pair's sigma^2 = 4
INDEFINITE = np.diag([1.0, -1e-6])
INDEFINITE_GAMMA = RANK_DEFICIENT_GAMMA + np.diag([0.0, 0.0, 0.0, -1e-6])


@pytest.mark.parametrize(
    "call, exc",
    [
        (lambda prob: cxverify.GaussianLaw(np.zeros(2), NAN2), matcore.InvalidMatrix),
        (lambda prob: cxverify.quadratic(NAN2), matcore.InvalidMatrix),
        (lambda prob: coupling.build_kernel(prob, NAN_GAMMA), matcore.InvalidMatrix),
        (lambda prob: coupling.build_kernel(prob, np.eye(6)), coupling.InvalidGamma),
        (lambda prob: C.validate_gamma_witness(prob, C.GammaWitness(NAN_GAMMA, 2, 2)), matcore.InvalidMatrix),
        (lambda prob: C.validate_pairwise_blocks(prob, NAN_GAMMA), matcore.InvalidMatrix),
        (lambda prob: C.orthogonal_factors_from_gamma(prob, NAN_GAMMA), matcore.InvalidMatrix),
        (lambda prob: C.check_inecov(prob, extra_candidates=[NAN_GAMMA]), matcore.InvalidMatrix),
        (lambda prob: C.check_n2_theta(prob, NAN2), matcore.InvalidMatrix),
        (lambda prob: matcore.polar_factor(np.eye(2), NAN2), matcore.InvalidMatrix),
        (lambda prob: C.orthogonal_factors_from_gamma(prob, INDEFINITE_GAMMA), matcore.NotPSD),
        (
            lambda prob: cxverify.test_convex_order(cxverify.GaussianLaw(np.zeros(2), INDEFINITE), prob, [], 0),
            matcore.NotPSD,
        ),
    ],
    ids=[
        "GaussianLaw", "quadratic", "build_kernel", "build_kernel-wrong-size", "validate_gamma_witness",
        "validate_pairwise_blocks", "orthogonal_factors_from_gamma", "check_inecov-extra", "check_n2_theta",
        "polar_factor", "orthogonal_factors_from_gamma-indefinite",
        "test_convex_order-indefinite-lhs",
    ],
)
def test_entry_points_check_outside_matrices(call, exc):
    # symmetrize, is_psd, sqrt_psd, pinv_psd and correlation_of trust their
    # input, so each entry point that takes a matrix from outside checks it
    # once, with the exception class it always raised; a PSD check is made
    # against the sigma^2 of the problem the matrix enters with. The engine
    # is no entry point: a FeasibilityTask takes its matrices from a checked
    # MixtureProblem, and dual_refutation_value the ascent's own Y
    with pytest.raises(exc):
        call(rank_deficient_pair(0.0))


def test_require_symmetric_rejects_asymmetry():
    with pytest.raises(matcore.InvalidMatrix):
        matcore.require_symmetric([[1.0, 2.0], [2.1, 1.0]], tol=1e-12)


def test_is_psd_identity():
    ok, lmin = matcore.is_psd(np.eye(2), 1.0)
    assert ok and lmin == pytest.approx(1.0)


def test_is_psd_indefinite_two_by_two():
    # trace 0, det -2: eigenvalues are +/- sqrt(2)
    ok, lmin = matcore.is_psd(np.array([[1.0, -1.0], [-1.0, -1.0]]), SQRT2)
    assert not ok
    assert lmin == pytest.approx(-SQRT2, abs=1e-12)


def jacobi_eigh(a, sweep_tol: float = 1e-13, max_sweeps: int = 60):
    """Cyclic Jacobi eigensolver, an oracle independent of LAPACK.

    Returns ``(eigenvalues ascending, eigenvector columns)``. Converges when
    the off-diagonal Frobenius norm drops below ``sweep_tol`` times the
    matrix norm.
    """
    a = np.array(a, dtype=float)
    a = 0.5 * (a + a.T)
    n = a.shape[0]
    q = np.eye(n)
    norm = max(matcore.fro_norm(a), 1e-300)
    for _ in range(max_sweeps):
        off = np.sqrt(max(matcore.fro_norm(a) ** 2 - float(np.sum(np.diag(a) ** 2)), 0.0))
        if off <= sweep_tol * norm:
            break
        for p in range(n - 1):
            for r in range(p + 1, n):
                apr = a[p, r]
                if abs(apr) <= 1e-300:
                    continue
                theta = (a[r, r] - a[p, p]) / (2.0 * apr)
                if abs(theta) > 1e150:  # tangent underflows, avoid theta**2 overflow
                    t = 0.5 / theta
                else:
                    t = np.sign(theta) if theta != 0 else 1.0
                    t = t / (abs(theta) + np.sqrt(theta * theta + 1.0))
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rot_p = a[:, p].copy()
                rot_r = a[:, r].copy()
                a[:, p] = c * rot_p - s * rot_r
                a[:, r] = s * rot_p + c * rot_r
                rot_p = a[p, :].copy()
                rot_r = a[r, :].copy()
                a[p, :] = c * rot_p - s * rot_r
                a[r, :] = s * rot_p + c * rot_r
                col_p = q[:, p].copy()
                col_r = q[:, r].copy()
                q[:, p] = c * col_p - s * col_r
                q[:, r] = s * col_p + c * col_r
    w = np.diag(a).copy()
    order = np.argsort(w, kind="stable")
    return w[order], q[:, order]


def test_is_psd_agrees_with_jacobi_oracle():
    disagreements = 0
    for k in range(1000):
        d = 1 + k % 6
        a = rand_sym(k, d, scale=1.0 + (k % 7))
        w, _ = jacobi_eigh(a)
        scale = max(abs(w[0]), abs(w[-1]))
        ok_fast, lmin_fast = matcore.is_psd(a, scale)
        ok_ref = w[0] >= -1e-9 * scale
        if abs(lmin_fast - w[0]) > 1e-10 * (1.0 + abs(w[0])):
            disagreements += 1
        elif ok_fast != ok_ref and abs(w[0]) > 1e-10 * (1.0 + abs(w[-1])):
            disagreements += 1
    assert disagreements == 0


def test_jacobi_eigenvectors_orthogonal():
    a = rand_sym(3, 5)
    w, q = jacobi_eigh(a)
    assert np.abs(q @ q.T - np.eye(5)).max() < 1e-12
    assert np.abs(q @ np.diag(w) @ q.T - a).max() < 1e-11 * (1.0 + np.abs(a).max())


def test_sqrt_psd_spectral_reconstruction_and_orthogonality():
    # sqrt_psd and pinv_psd factor the symmetrised matrix with eigh
    a = rand_sym(11, 6, scale=4.0)
    w, q = np.linalg.eigh(matcore.symmetrize(a))
    assert matcore.fro_norm((q * w) @ q.T - a) <= 1e-10 * (1.0 + matcore.fro_norm(a))
    assert matcore.fro_norm(q @ q.T - np.eye(6)) <= 1e-10
    root = matcore.sqrt_psd(a @ a)
    assert matcore.fro_norm(root - (q * np.abs(w)) @ q.T) <= 1e-10 * (1.0 + matcore.fro_norm(a))


def test_sqrt_psd_diagonal():
    assert np.allclose(matcore.sqrt_psd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))
    assert np.allclose(matcore.sqrt_psd(np.eye(3)), np.eye(3))


def test_sqrt_psd_random_reconstruction():
    a = rand_psd(21, 3)
    s = matcore.sqrt_psd(a)
    assert matcore.fro_norm(s @ s - a) <= 1e-9 * (1.0 + matcore.fro_norm(a))


def test_sqrt_psd_and_pinv_psd_clamp_negative_eigenvalues():
    # a matrix is checked where it enters, against its problem's sigma^2, so
    # the inner routines never raise: a negative eigenvalue is clamped or cut
    assert np.array_equal(matcore.sqrt_psd(np.diag([1.0, -1.0])), np.diag([1.0, 0.0]))
    assert np.array_equal(matcore.pinv_psd(np.diag([2.0, -1.0])), np.diag([0.5, 0.0]))


def test_pinv_psd_examples():
    assert np.allclose(matcore.pinv_psd(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))
    assert np.allclose(matcore.pinv_psd(np.eye(3)), np.eye(3))


def test_pinv_psd_rank_one():
    v = np.array([1.0, -2.0, 0.5])
    p = np.outer(v, v)
    pinv = matcore.pinv_psd(p)
    assert np.allclose(p @ pinv @ p, p, atol=1e-8)
    assert np.allclose(pinv, np.outer(v, v) / np.dot(v, v) ** 2)


def test_correlation_of_diagonal():
    info = matcore.correlation_of(np.diag([8.0, 4.0]))
    assert np.allclose(info.corr, np.eye(2))
    assert np.allclose(info.scales, [math.sqrt(8.0), 2.0])


def test_correlation_of_full():
    info = matcore.correlation_of(np.array([[4.0, 2.0], [2.0, 4.0]]))
    assert np.allclose(info.corr, [[1.0, 0.5], [0.5, 1.0]])


def test_correlation_of_degenerate_row():
    info = matcore.correlation_of(np.diag([4.0, 0.0]))
    assert np.allclose(info.corr, np.eye(2))
    assert np.allclose(info.scales, [2.0, 0.0])
    assert info.corr[0, 0] == 1.0 and info.corr[1, 1] == 1.0


def test_polar_factor_identity_and_vector():
    sigma = rand_psd(41, 3) + 0.1 * np.eye(3)
    root = matcore.sqrt_psd(sigma)
    o = matcore.polar_factor(root, sigma)
    assert np.allclose(o, np.eye(3), atol=1e-9)

    o = matcore.polar_factor(np.array([[3.0, 4.0]]), np.array([[25.0]]))
    assert np.allclose(o[0], [0.6, 0.8])
    assert np.abs(o @ o.T - np.eye(2)).max() < 1e-12


def test_polar_factor_roundtrip_random_rotation():
    rng = CounterRng(55)
    sigma = rand_psd(56, 3) + 0.05 * np.eye(3)
    g = rng.normal_matrix(3, 3)
    r, _ = np.linalg.qr(g)
    root = matcore.sqrt_psd(sigma)
    theta = root @ r
    o = matcore.polar_factor(theta, sigma)
    assert matcore.fro_norm(root @ o - theta) <= 1e-7 * (1.0 + matcore.fro_norm(theta))


def test_polar_factor_rank_deficient_padding():
    sigma = np.diag([4.0, 0.0])
    theta = np.array([[2.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
    o = matcore.polar_factor(theta, sigma)
    assert np.abs(o @ o.T - np.eye(4)).max() < 1e-10
    assert np.allclose(matcore.sqrt_psd(sigma) @ o[:2], theta, atol=1e-10)


def test_polar_factor_mismatch():
    with pytest.raises(matcore.FactorMismatch):
        matcore.polar_factor(np.array([[1.0, 0.0]]), np.array([[25.0]]))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=5))
def test_sqrt_and_correlation_invariants(seed, d):
    a = rand_psd(seed, d)
    s = matcore.sqrt_psd(a)
    assert matcore.fro_norm(s @ s - a) <= 1e-9 * (1.0 + matcore.fro_norm(a))
    info = matcore.correlation_of(a)
    assert np.all(np.diag(info.corr) == 1.0)
    ok, lmin = matcore.is_psd(info.corr, 1.0, 1e-8)
    assert ok, lmin


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_pinv_projection_property(seed):
    a = rand_psd(seed, 4, rank=2 + seed % 3)
    pinv = matcore.pinv_psd(a)
    assert matcore.fro_norm(a @ pinv @ a - a) <= 1e-8 * (1.0 + matcore.fro_norm(a))


def test_last_value_keys_on_every_argument_and_keeps_nothing_that_raised(monkeypatch):
    monkeypatch.setattr(matcore, "LAST_VALUES", [])  # keep the test function off the package's list
    calls = []

    @matcore.last_value
    def combine(count, arr, pair):
        calls.append(count)
        if count < 0:
            raise ValueError("negative count")
        return arr * count + pair[0] @ pair[1], count

    arr, pair = np.arange(4.0).reshape(2, 2), (np.eye(2), np.ones(2))
    first = combine(2, arr, pair)
    assert matcore.LAST_VALUES == [combine] and not first[0].flags.writeable
    assert combine(2, arr.copy(), (pair[0].copy(), pair[1].copy())) is first  # equal bytes: the kept object
    assert (combine.misses, combine.hits) == (1, 1)
    changed_inside = (pair[0], pair[1] + 0.5)
    for args in [(3, arr, pair), (2, arr + 1.0, pair), (2, arr.reshape(2, 2, 1), pair), (2, arr, changed_inside)]:
        value = combine(*args)
        assert value is not first and combine.entry[1] is value
    assert combine.misses == 5
    arr[0, 0] = 7.0  # the same array object with new bytes is a new key
    mutated = combine(2, arr, pair)
    assert mutated[0][0, 0] == 15.0 and combine.misses == 6
    with pytest.raises(ValueError, match="negative"):
        combine(-1, arr, pair)
    assert combine.entry[1] is mutated and combine.misses == 6  # nothing kept from the raising call
    assert combine(2, arr, pair) is mutated
    with pytest.raises(TypeError):
        combine(2.0, arr, pair)  # a float is not part of any key
    combine.clear()
    assert (combine.entry, combine.hits, combine.misses) == (None, 0, 0)
    assert calls == [2, 3, 2, 2, 2, 2, -1]
