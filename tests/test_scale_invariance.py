"""Verdicts do not change when the target and every component are rescaled.

Every tolerance is a constant times the problem's scale (see the
``gmcvx.matcore`` docstring), so under a power-of-4 rescaling every step
of every checker is the unit-scale step times an exact power of two:
margins scale exactly, by 4**k in variance units and 2**k in std units.
"""

import math

import numpy as np
import pytest

import families as fam
from gmcvx import conditions as C


def scaled(prob: C.MixtureProblem, c: float) -> C.MixtureProblem:
    return C.MixtureProblem(p=prob.p, covs=c * prob.covs, target=c * prob.target, means=math.sqrt(c) * prob.means)


def verdicts(prob: C.MixtureProblem, seed: int) -> dict:
    """Each checker's standalone verdict: one name per :func:`C.decide` call."""
    return {name: C.decide(prob, (name,), C.SearchConfig(), seed)[name] for name in C.CHECKERS}


def statuses(found: dict) -> dict:
    return {name: v.status for name, v in found.items()}


def assert_margins_scale(found: dict, unit: dict, power: int) -> None:
    """Same statuses, and margins times 2**power (std-unit) or 4**power (all others)."""
    assert statuses(found) == statuses(unit)
    for name, v in found.items():
        std_unit = name == "inegsqrt" or v.diagnostics.get("refuted_by") == "inegsqrt"
        assert v.margin == unit[name].margin * (2.0 if std_unit else 4.0) ** power, name


@pytest.mark.parametrize("c", [1e-14, 1e-10, 1e10])
def test_axis_swap_verdicts_do_not_depend_on_scale(c):
    # components diag(8, 4) and diag(4, 8), target 7 I: outside the region
    unit = statuses(verdicts(fam.axis_swap_problem(7.0, 0.0), 0))
    assert unit == {
        "inegsqrt": C.Status.FAILS,
        "inecov": C.Status.FAILS,
        "inecovf": C.Status.FAILS,
        "correl": C.Status.UNKNOWN,
        "dominates": C.Status.FAILS,
    }
    prob = scaled(fam.axis_swap_problem(7.0, 0.0), c)
    assert statuses(verdicts(prob, 0)) == unit
    C.implication_chain_report(prob, mc_samples=0)  # raises ChainViolation on an inversion


SEEDS = range(10)


@pytest.fixture(scope="module")
def unit_verdicts():
    return {seed: verdicts(fam.random_chain_problem(seed), seed) for seed in SEEDS}


@pytest.mark.parametrize("power", [-20, 20])
def test_margins_scale_exactly_under_powers_of_four(unit_verdicts, power):
    for seed in SEEDS:
        found = verdicts(scaled(fam.random_chain_problem(seed), 4.0**power), seed)
        assert statuses(found) == statuses(unit_verdicts[seed]), seed
        for name, v in found.items():
            std_unit = name == "inegsqrt" or v.diagnostics.get("refuted_by") == "inegsqrt"
            expected = unit_verdicts[seed][name].margin * (2.0 if std_unit else 4.0) ** power
            assert v.margin == expected, (seed, name, v.margin, expected)


@pytest.mark.parametrize("c", [1e-12, 1e12])
def test_statuses_survive_decimal_rescaling(unit_verdicts, c):
    for seed in SEEDS:
        found = verdicts(scaled(fam.random_chain_problem(seed), c), seed)
        assert statuses(found) == statuses(unit_verdicts[seed]), seed


def test_n2_theta_reference_block_at_small_scale():
    # the slack of this block is exactly tight: its own norm is about 2e-16
    a = 17.0 / 3.0
    prob = scaled(fam.axis_swap_problem(a, 1.0 / 3.0), 1e-10)
    assert C.check_n2_theta(prob, 1e-10 * np.asarray(fam.pair_theta(a))).holds


@pytest.mark.parametrize("power", [-20, 20])
def test_factor_ascent_holds_scales_exactly(power):
    # n = 3 full cone decided by the orthogonal-factor coupling at every scale
    unit = verdicts(fam.random_chain_problem(32), 32)
    assert unit["inecov"].holds
    found = verdicts(scaled(fam.random_chain_problem(32), 4.0**power), 32)
    assert_margins_scale(found, unit, power)


@pytest.mark.parametrize("power", [-20, 20])
def test_linked_verdicts_scale_exactly(power):
    # decide over every name links the chain: inecovf is inecov's Holds at every scale
    def linked(prob):
        return C.decide(prob, C.CHECKERS, C.SearchConfig(), 32)

    unit = linked(fam.random_chain_problem(32))
    assert unit["inecovf"] is unit["inecov"] and unit["inecov"].holds
    found = linked(scaled(fam.random_chain_problem(32), 4.0**power))
    assert_margins_scale(found, unit, power)
