"""What the checkers keep across calls (:func:`gmcvx.matcore.last_value`): the same
bits cold and warm, read-only values, keys that follow the data, and one entry each."""

import dataclasses
import math
import sys
import threading
import types

import numpy as np
import pytest

import families as fam
from families import LIGHT, MID, clear_shared_caches, random_chain_problem
from gmcvx import conditions as C
from gmcvx import matcore, psdfeas
from gmcvx import sweep as S
from gmcvx.rng import CounterRng

CHAIN_SEEDS = (1, 2, 5, 6, 8, 32)  # n = 2 and 3, d = 2 and 3, the factor ascent at 32


def tile_csv(tmp_path, name: str, template=fam.axis_swap_problem) -> bytes:
    """CSV of a 3 x 3 axis-swap tile across the region boundary, inegsqrt and inecov under LIGHT."""
    spec = S.SweepSpec(template, S.Axis("a", 5.5, 5.6, 0.05), S.Axis("b", -0.55, -0.45, 0.05), ("inegsqrt", "inecov"))
    path = tmp_path / f"{name}.csv"
    S.write_region_csv(S.run_sweep(spec, search_cfg=LIGHT), path)
    return path.read_bytes()


def chain_reports(before_each=lambda: None) -> list[dict]:
    out = []
    for seed in CHAIN_SEEDS:
        before_each()
        report = C.implication_chain_report(random_chain_problem(seed), MID, mc_samples=2000, seed=seed)
        out.append(report.as_dict())
    return out


def test_cold_warm_and_per_cell_cleared_caches_give_the_same_bits(tmp_path):
    clear_shared_caches()
    cold_csv, cold_chain = tile_csv(tmp_path, "cold"), chain_reports()
    warm_csv, warm_chain = tile_csv(tmp_path, "warm"), chain_reports()

    def cleared_cell(a, b):
        clear_shared_caches()
        return fam.axis_swap_problem(a, b)

    cleared_csv, cleared_chain = tile_csv(tmp_path, "cleared", cleared_cell), chain_reports(clear_shared_caches)
    assert cold_csv == warm_csv == cleared_csv
    assert cold_csv.count(b"\n") == 1 + 9 * 2
    assert cold_chain == warm_chain == cleared_chain


def stored_arrays() -> list[np.ndarray]:
    stored = [kept.entry[1] for kept in matcore.LAST_VALUES if kept.entry is not None]
    return [a for v in stored for a in (v if isinstance(v, tuple) else (v,)) if isinstance(a, np.ndarray)]


def test_cached_arrays_are_read_only(tmp_path):
    clear_shared_caches()
    prob = fam.axis_swap_problem(5.0, 0.5)
    assert C.check_inecov(prob, search_cfg=LIGHT).holds
    # component stack and lambda_mins, component eigenvectors, grid half, random starts,
    # roots, contraction starts, the two rotation-grid arrays of the one pair, and the
    # pair layout's rows
    assert len(stored_arrays()) == 10
    tile_csv(tmp_path, "tile")
    C.implication_chain_report(random_chain_problem(32), MID, mc_samples=2000)
    arrays = stored_arrays()
    assert len(arrays) >= 10
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[0] = 1.0
    task = psdfeas.FeasibilityTask(prob)
    with pytest.raises(ValueError, match="read-only"):
        task.roots[0, 0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        prob.covs[0, 0, 0] = 1.0


# component 0 is PSD only against a sigma^2 of at least 1e3; the targets test
# the target alone, the target before component 0, and component 0 alone
SCALE_BOUND_COVS = np.stack([np.diag([1.0, -1e-6]), np.eye(2)])
BAD_TARGETS = {"target": np.diag([1e4, -1.0]), "both": np.diag([1.0, -1.0]), "component": np.eye(2)}


def build_scale_bound(target) -> C.MixtureProblem:
    return C.MixtureProblem([0.5, 0.5], SCALE_BOUND_COVS, target)


def raised_by(target) -> tuple:
    with pytest.raises(C.InvalidProblem) as info:
        build_scale_bound(target)
    return type(info.value), str(info.value), getattr(info.value, "lmin", None)


def test_a_warm_component_entry_keeps_every_per_problem_check():
    cold = {}
    for name, target in BAD_TARGETS.items():
        clear_shared_caches()
        cold[name] = raised_by(target)
    assert cold["target"][0] is cold["both"][0] is C.TargetNotPSD
    assert (cold["target"][2], cold["both"][2]) == (-1.0, -1.0)
    assert cold["component"][0] is C.InvalidProblem and "component 0" in cold["component"][1]
    clear_shared_caches()
    assert build_scale_bound(1e4 * np.eye(2)).var_scale() == 1e4  # valid: stores the components
    warm = {name: raised_by(target) for name, target in BAD_TARGETS.items()}
    assert warm == cold
    assert (C._components.misses, C._components.hits) == (1, 3)


@pytest.mark.parametrize(
    "covs",
    [
        np.stack([np.array([[1.0, 0.5], [0.0, 1.0]]), np.eye(2)]),  # asymmetric
        np.stack([np.eye(2), np.array([[1.0, np.nan], [np.nan, 1.0]])]),  # not finite
    ],
)
def test_an_invalid_component_set_raises_on_every_build(covs):
    clear_shared_caches()
    valid = fam.axis_swap_problem(5.0, 0.5)
    for _ in range(2):
        with pytest.raises(C.InvalidProblem, match="component"):
            C.MixtureProblem([0.5, 0.5], covs, np.eye(2))
    assert C._components.misses == 1  # only the valid set was stored, and it still is
    assert C.MixtureProblem(valid.p, valid.covs, valid.target).covs is valid.covs


def test_components_mutated_in_place_get_a_new_entry():
    clear_shared_caches()
    covs = np.stack([np.diag([8.0, 4.0]), np.diag([4.0, 8.0])])
    target = np.array([[5.0, 0.5], [0.5, 5.0]])
    first = C.MixtureProblem([0.5, 0.5], covs, target)
    warm_first = C.check_inecov(first, search_cfg=LIGHT)
    covs[0] *= 4.0  # the caller's array, not the stored stack
    second = C.MixtureProblem([0.5, 0.5], covs, target)
    assert np.array_equal(first.covs[0], np.diag([8.0, 4.0])) and np.array_equal(second.covs, covs)
    assert (first.var_scale(), second.var_scale()) == (8.0, 32.0)
    warm = [C._eigvector_starts(second), C.check_inecov(second, search_cfg=LIGHT)]
    clear_shared_caches()
    cold = [C._eigvector_starts(second), C.check_inecov(second, search_cfg=LIGHT)]
    assert np.array_equal(warm[0], cold[0])
    assert (warm[1].status, warm[1].margin) == (cold[1].status, cold[1].margin)
    assert (warm_first.status, warm_first.margin) != (warm[1].status, warm[1].margin)


def reference_h_of(prob):
    """:func:`conditions._h_on_circle`'s h before its names were bound as locals and
    ``max(q, 0.0)`` became a comparison."""

    def coeffs(a):
        return float(a[0, 0]), 2.0 * float(a[0, 1]), float(a[1, 1])

    t00, t01, t11 = coeffs(prob.target)
    comps = [(p, *coeffs(c)) for p, c in zip(prob.p.tolist(), prob.covs)]

    def h_of(theta):
        c, s = math.cos(theta), math.sin(theta)
        cc, cs, ss = c * c, c * s, s * s
        mix = 0.0
        for p, a00, a01, a11 in comps:
            mix += p * math.sqrt(max(a00 * cc + a01 * cs + a11 * ss, 0.0))
        return mix - math.sqrt(max(t00 * cc + t01 * cs + t11 * ss, 0.0))

    return h_of


def reference_neg_lmin(coeffs):
    """:func:`psdfeas._rotation_neg_lmin_2d` before its names were bound as locals."""
    (z00, z01, z11), (p00, p01, p11), (q00, q01, q11) = coeffs

    def neg_lmin(phi):
        c, s = math.cos(phi), math.sin(phi)
        return -matcore.lmin_sym2(z00 + c * p00 + s * q00, z01 + c * p01 + s * q01, z11 + c * p11 + s * q11)

    return neg_lmin


def test_scalar_objectives_keep_their_bits():
    rng = CounterRng(1717)
    zero = -np.zeros((2, 2))  # every entry -0.0: each quadratic form is exactly -0.0 at theta = 0
    problems = [
        fam.random_chain_problem(seed) for seed in range(40) if fam.random_chain_problem(seed).d == 2
    ]
    problems += [
        C.MixtureProblem([0.3, 0.7], np.stack([np.diag([0.0, 1.0]), np.diag([1.0, 0.0])]), np.diag([0.0, 2.0])),
        types.SimpleNamespace(p=np.array([0.5, 0.5]), covs=np.stack([zero, np.diag([0.0, 1.0])]), target=zero),
    ]
    special = [0.0, -0.0, math.pi / 2, math.pi, -math.pi / 2]
    for prob in problems:
        h_of, ref = C._h_on_circle(prob), reference_h_of(prob)
        for theta in [*special, *(np.pi * (2.0 * rng.uniforms(20) - 1.0)).tolist()]:
            assert h_of(theta).hex() == ref(theta).hex()
    for trial in range(40):
        coeffs = [tuple(rng.normal_matrix(1, 3)[0].tolist()) for _ in range(3)]
        if trial % 4 == 0:
            coeffs[trial % 3] = (0.0, -0.0, 0.0)
        neg_lmin, ref = psdfeas._rotation_neg_lmin_2d(coeffs), reference_neg_lmin(coeffs)
        for phi in [*special, *(2.0 * np.pi * rng.uniforms(20)).tolist()]:
            assert neg_lmin(phi).hex() == ref(phi).hex()


def test_a_warm_tile_checks_only_its_targets(tmp_path, monkeypatch):
    clear_shared_caches()
    cold = tile_csv(tmp_path, "cold")
    calls = []
    real = matcore.require_symmetric

    def counted(a, *args):
        calls.append(np.asarray(a).shape)
        return real(a, *args)

    monkeypatch.setattr(matcore, "require_symmetric", counted)
    assert tile_csv(tmp_path, "warm") == cold
    assert calls == [(2, 2)] * 9  # the target of each of the 9 cells, nothing else


def test_mutated_covariances_get_their_own_roots():
    clear_shared_caches()
    covs = fam.axis_swap_problem(5.0, 0.5).covs.copy()
    target = np.eye(2)
    first = psdfeas.FeasibilityTask(C.MixtureProblem([0.5, 0.5], covs, target))
    old_roots = first.roots.copy()
    covs[0] *= 4.0  # in place: the array object is the same, its bytes are not
    second = psdfeas.FeasibilityTask(C.MixtureProblem([0.5, 0.5], covs, target))
    assert np.array_equal(second.roots[0], 2.0 * old_roots[0]) and np.array_equal(second.roots[1], old_roots[1])
    # and a problem built from the mutated array decides as it does with nothing cached
    prob = C.MixtureProblem([0.5, 0.5], covs, np.diag([9.0, 5.0]))
    warm = C.check_inecov(prob, search_cfg=LIGHT)
    clear_shared_caches()
    cold = C.check_inecov(prob, search_cfg=LIGHT)
    assert (warm.status, warm.margin) == (cold.status, cold.margin)


def one_entry(kept) -> bool:
    """A decorated function keeps one ``(key, value)`` pair at most, and no other state."""
    bounded = kept.entry is None or len(kept.entry) == 2
    return bounded and set(vars(kept)) == {"__wrapped__", "entry", "hits", "misses", "clear"}


def chain_pass(count: int) -> None:
    # a checker seed per problem, as the CLI and the chain benchmark set it
    for seed in range(count):
        C.implication_chain_report(
            random_chain_problem(seed),
            dataclasses.replace(MID, iters=10),
            mc_samples=200,
            seed=seed,
        )


def test_caches_stay_bounded_and_carry_nothing_from_problem_to_problem():
    clear_shared_caches()
    chain_pass(200)
    first = {kept: kept.hits for kept in matcore.LAST_VALUES}
    for kept in matcore.LAST_VALUES:
        assert one_entry(kept)
        assert kept.misses > 0
    chain_pass(200)
    for kept in matcore.LAST_VALUES:
        assert one_entry(kept)
        assert kept.hits - first[kept] <= first[kept]


def test_concurrent_callers_get_the_serial_bits():
    problems = [fam.axis_swap_problem(a, b) for a in (4.0, 5.5, 5.8) for b in (-0.5, 0.0, 0.5)]
    problems += [random_chain_problem(seed) for seed in (1, 5, 8)]

    def verdicts():
        out = []
        for prob in problems:
            for name in ("inegsqrt", "inecov"):
                v = C.decide(prob, (name,), LIGHT)[name]
                out.append((v.status, v.margin))
        return out

    clear_shared_caches()
    serial = verdicts()
    results: list = [None] * 6

    def worker(k):
        results[k] = verdicts()

    clear_shared_caches()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(len(results))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(r == serial for r in results)
    assert all(one_entry(kept) for kept in matcore.LAST_VALUES)
