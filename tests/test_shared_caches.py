"""What the checkers cache across calls: the same bits cold and warm, read-only
values, keys that follow the data, and bounded stores."""

import dataclasses
import sys
import threading

import numpy as np
import pytest

import families as fam
from families import LIGHT, MID, clear_shared_caches, random_chain_problem
from gmcvx import conditions as C
from gmcvx import matcore, psdfeas
from gmcvx import sweep as S

CHAIN_SEEDS = (1, 2, 5, 6, 8, 32)  # n = 2 and 3, d = 2 and 3, the factor ascent at 32


def tile_csv(tmp_path, name: str, template=fam.axis_swap_problem) -> bytes:
    """CSV of a 3 x 3 axis-swap tile across the region boundary, inegsqrt and inecov under LIGHT."""
    spec = S.SweepSpec(template, S.Axis("a", 5.5, 5.6, 0.05), S.Axis("b", -0.55, -0.45, 0.05), ("inegsqrt", "inecov"))
    path = tmp_path / f"{name}.csv"
    S.write_region_csv(S.run_sweep(spec, search_cfg=LIGHT, engine_cfg=psdfeas.EngineConfig(max_iter=300)), path)
    return path.read_bytes()


def chain_reports(before_each=lambda: None) -> list[dict]:
    out = []
    for seed in CHAIN_SEEDS:
        before_each()
        report = C.implication_chain_report(
            random_chain_problem(seed), MID, psdfeas.EngineConfig(max_iter=1500), mc_samples=2000, seed=seed
        )
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


def test_cached_arrays_are_read_only():
    clear_shared_caches()
    prob = fam.axis_swap_problem(5.0, 0.5)
    assert C.check_inecov(prob, search_cfg=LIGHT).holds
    stored = [cache._entry[1] for cache in matcore.SHARED_CACHES if cache._entry is not None]
    arrays = [a for v in stored for a in (v if isinstance(v, tuple) else (v,)) if isinstance(a, np.ndarray)]
    assert len(arrays) == 5  # roots, transport block, grid half, random and contraction starts
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[0] = 1.0
    task = C._task(prob, psdfeas.FULL)
    with pytest.raises(ValueError, match="read-only"):
        task.roots[0, 0, 0] = 1.0


def test_mutated_covariances_get_their_own_roots():
    clear_shared_caches()
    covs = fam.axis_swap_problem(5.0, 0.5).covs.copy()
    target = np.eye(2)
    first = psdfeas.FeasibilityTask([0.5, 0.5], covs, target)
    old_roots = first.roots.copy()
    covs[0] *= 4.0  # in place: a task built now reads the same array object
    second = psdfeas.FeasibilityTask([0.5, 0.5], covs, target)
    assert second.blocks is covs
    assert np.array_equal(second.roots[0], 2.0 * old_roots[0]) and np.array_equal(second.roots[1], old_roots[1])
    # and a problem built from the mutated array decides as it does with nothing cached
    prob = C.MixtureProblem([0.5, 0.5], covs, np.diag([9.0, 5.0]))
    warm = C.check_inecov(prob, search_cfg=LIGHT)
    clear_shared_caches()
    cold = C.check_inecov(prob, search_cfg=LIGHT)
    assert (warm.status, warm.margin) == (cold.status, cold.margin)


def chain_pass(count: int) -> None:
    # a search and checker seed per problem, as the CLI and the chain benchmark set them
    for seed in range(count):
        C.implication_chain_report(
            random_chain_problem(seed),
            dataclasses.replace(MID, iters=10, seed=seed),
            psdfeas.EngineConfig(max_iter=20),
            mc_samples=200,
            seed=seed,
        )


def test_caches_stay_bounded_and_carry_nothing_from_problem_to_problem():
    clear_shared_caches()
    chain_pass(200)
    first = {id(cache): cache.hits for cache in matcore.SHARED_CACHES}
    for cache in matcore.SHARED_CACHES:
        assert len(cache) <= 1
        assert cache.misses > 0
    chain_pass(200)
    for cache in matcore.SHARED_CACHES:
        assert len(cache) <= 1
        assert cache.hits - first[id(cache)] <= first[id(cache)]


def test_concurrent_callers_get_the_serial_bits():
    problems = [fam.axis_swap_problem(a, b) for a in (4.0, 5.5, 5.8) for b in (-0.5, 0.0, 0.5)]
    problems += [random_chain_problem(seed) for seed in (1, 5, 8)]

    def verdicts():
        out = []
        for prob in problems:
            for name in ("inegsqrt", "inecov"):
                v = C.run_checker(name, prob, LIGHT, None, 0)
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
    assert all(len(cache) <= 1 for cache in matcore.SHARED_CACHES)
