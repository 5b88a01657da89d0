"""A matrix is checked once, where it enters, against the sigma^2 of its problem.

``small_component_problem`` is valid at that scale but not against its
small component's own norm; every checker, the chain and every CLI command
must give it a verdict, the same at every power-of-4 scale. (A matrix from
outside that is not PSD at its problem's scale raises ``NotPSD`` where it
enters: ``test_matcore.test_entry_points_check_outside_matrices``.)
"""

import json

import pytest

import families as fam
from gmcvx import cli, cxverify, matcore, psdfeas
from gmcvx import conditions as C
from gmcvx.rng import CounterRng

SCALES = [pytest.param(c, id=name) for c, name in [(1.0, "1"), (4.0**-20, "4**-20"), (4.0**20, "4**20")]]
COMMANDS = [pytest.param(["check", "--condition", name], id=name) for name in [*C.CHECKERS, "chain"]]
COMMANDS.append(pytest.param(["mcverify", "--samples", "2000"], id="mcverify"))
STATUSES = {
    "inegsqrt": C.Status.HOLDS,
    "inecov": C.Status.HOLDS,
    "inecovf": C.Status.HOLDS,
    "correl": C.Status.HOLDS,
    "dominates": C.Status.FAILS,
}


@pytest.mark.parametrize("scale", SCALES)
def test_small_component_problem_gets_every_verdict(scale):
    prob = fam.small_component_problem(scale)
    found = {name: C.decide(prob, (name,))[name].status for name in C.CHECKERS}
    assert found == STATUSES
    report = C.implication_chain_report(prob, mc_samples=2000)
    assert report.inecov.holds and report.correl.holds and report.inegsqrt.holds


def problem_doc(prob: C.MixtureProblem) -> dict:
    return {
        "d": prob.d,
        "n": prob.n,
        "p": prob.p.tolist(),
        "target": prob.target.tolist(),
        "components": [{"cov": cov.tolist()} for cov in prob.covs],
    }


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("argv", COMMANDS)
def test_small_component_problem_cli_reports(tmp_path, capsys, scale, argv):
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(problem_doc(fam.small_component_problem(scale))))
    code = cli.main([*argv, "--input", str(path)])
    out = capsys.readouterr().out.strip()
    assert code in (cli.EXIT_HOLDS, cli.EXIT_FAILS, cli.EXIT_UNKNOWN)
    report = json.loads(out.splitlines()[-1])
    assert cli._STATUS_EXIT[C.Status(report["status"])] == code
    if argv[-1] in STATUSES:
        assert report["status"] == STATUSES[argv[-1]].value


def test_mixture_samples_read_the_task_roots(monkeypatch):
    fam.clear_shared_caches()
    prob = fam.small_component_problem()
    roots = psdfeas.FeasibilityTask(prob).roots
    monkeypatch.setattr(matcore, "sqrt_psd", lambda a: pytest.fail("component roots computed again"))
    assert psdfeas.block_roots(prob.covs) is roots
    cxverify._mixture_samples(prob, 10, CounterRng(0))


def counting(monkeypatch, module, name) -> list:
    """Count the calls of ``module.name`` from now on."""
    calls, real = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
    return calls


def test_coupling_check_reads_the_problems_checked_matrices(monkeypatch):
    # the problem checked and mirrored its target once: the check's task holds
    # that array and the problem's sigma^2, and checks no matrix again
    prob = fam.axis_swap_problem(5.0, 0.5)
    squares = counting(monkeypatch, matcore, "as_square")
    tasks, solve = [], psdfeas.solve
    monkeypatch.setattr(psdfeas, "solve", lambda task, *args: tasks.append(task) or solve(task, *args))
    assert C.check_inecov(prob).holds
    assert squares == [] and len(tasks) == 1
    assert tasks[0].target is prob.target and tasks[0].scale == prob.var_scale()


def test_default_suite_checks_no_quadratic(monkeypatch):
    # its quadratics W W'/d are PSD by construction
    calls = counting(monkeypatch, matcore, "is_psd")
    suite = cxverify.default_suite(fam.small_component_problem())
    assert [f.kind for f in suite].count("quadratic") == 8
    assert calls == []
