import dataclasses
import json

import numpy as np
import pytest

from families import MID, boundary_problems, random_chain_problem
from gmcvx import cli, coupling, cxverify, matcore
from gmcvx import conditions as C
from gmcvx.rng import CounterRng


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def separation_doc():
    return {
        "d": 2,
        "n": 2,
        "p": [0.5, 0.5],
        "target": [[2.0, 1.0], [1.0, 1.0]],
        "components": [
            {"cov": [[4.0, 0.0], [0.0, 4.0]]},
            {"cov": [[4.0, 0.0], [0.0, 0.0]]},
        ],
    }


def exterior_doc():
    return {
        "d": 2,
        "n": 2,
        "p": [0.5, 0.5],
        "target": [[5.9, 0.0], [0.0, 5.9]],
        "components": [
            {"cov": [[8.0, 0.0], [0.0, 4.0]]},
            {"cov": [[4.0, 0.0], [0.0, 8.0]]},
        ],
    }


def chain_doc(seed):
    return problem_doc(random_chain_problem(seed))


def problem_doc(prob):
    """Problem document of ``prob``; JSON keeps every float exactly."""
    return {
        "d": prob.d,
        "n": prob.n,
        "p": prob.p.tolist(),
        "target": prob.target.tolist(),
        "components": [{"cov": cov.tolist()} for cov in prob.covs],
    }


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out.strip()
    report = json.loads(out.splitlines()[-1]) if out else None
    return code, report


def test_check_inecov_emits_certificate(tmp_path, capsys):
    prob = write_json(tmp_path / "prob.json", separation_doc())
    cert = tmp_path / "cert.json"
    code, report = run_cli(
        capsys, "check", "--condition", "inecov", "--input", prob,
        "--emit-certificate", str(cert),
    )
    assert code == 0
    assert report["status"] == "holds"
    stored = json.loads(cert.read_text())
    assert stored["kind"] == "gamma"
    assert stored["input_digest"] == report["input_digest"]


def test_check_inecov_reports_the_pair_ascent_evaluations(tmp_path, capsys):
    # n = 2, d = 3: a start of the contraction ascent clears the tolerance after a few steps
    prob = write_json(tmp_path / "prob.json", chain_doc(40))
    code, report = run_cli(capsys, "check", "--condition", "inecov", "--input", prob)
    assert code == 0
    assert report["status"] == "holds"
    assert 1 < report["diagnostics"]["pair_ascent_evals"] < 10


def test_check_inecov_on_the_coupling_boundary_stops_at_the_first_evaluation(tmp_path, capsys):
    # margin 0: the contraction ascent stops where its slack passes the re-check
    prob_path = write_json(tmp_path / "prob.json", separation_doc())
    cert = tmp_path / "cert.json"
    code, report = run_cli(
        capsys, "check", "--condition", "inecov", "--input", prob_path, "--emit-certificate", str(cert)
    )
    assert code == 0 and report["status"] == "holds"
    assert report["diagnostics"]["pair_ascent_evals"] <= 2
    prob, digest = cli.problem_from_doc(separation_doc())
    assert C.validate_gamma_witness(prob, cli.load_certificate(str(cert), digest), matcore.EPS_ENGINE)["ok"]


def test_check_inecov_factor_ascent_certificate_couples(tmp_path, capsys):
    # n = 3, d = 2: no default candidate is feasible; the orthogonal
    # factor ascent's coupling decides it
    prob = write_json(tmp_path / "prob.json", chain_doc(38))
    cert = tmp_path / "cert.json"
    code, report = run_cli(
        capsys, "check", "--condition", "inecov", "--input", prob, "--emit-certificate", str(cert)
    )
    assert code == 0
    assert report["status"] == "holds"
    assert 1 < report["diagnostics"]["factor_ascent_evals"] < 10  # a start clears the tolerance after a few steps
    code, diags = run_cli(
        capsys, "couple", "--input", prob, "--gamma", str(cert),
        "--samples", "2000", "--seed", "3", "--out", str(tmp_path / "samples.csv"),
    )
    assert code == 0


def test_check_correl_rejects_near_singular_basis(tmp_path, capsys):
    # the rows of M agree to 8 digits (cond 9.4e7): the M-basis tests pass,
    # but the coupling the certificate induces has lambda_min -52.8
    prob = write_json(tmp_path / "prob.json", chain_doc(77))
    m = [[0.9310937580378829, 0.3647799524958746], [0.9310937657842657, 0.3647799327233817]]
    m_path = write_json(tmp_path / "m.json", {"M": m})
    code, report = run_cli(capsys, "check", "--condition", "correl", "--input", prob, "--with-M", m_path)
    assert report["status"] != "holds"
    assert code == 2
    assert ["user_0", "fails"] == report["diagnostics"]["tried"][-1][:2]


def test_check_inegsqrt_exterior_fails_with_witness(tmp_path, capsys):
    prob = write_json(tmp_path / "prob.json", exterior_doc())
    code, report = run_cli(capsys, "check", "--condition", "inegsqrt", "--input", prob)
    assert code == 1
    assert report["status"] == "fails"
    assert report["witness"]["kind"] == "direction"


def same_verdict(a, b) -> bool:
    """Status, margin and witness equal bit for bit."""
    witnesses = a.witness is None and b.witness is None or np.array_equal(a.witness, b.witness)
    return a.status is b.status and a.margin == b.margin and witnesses


def test_one_seed_decides_every_route_to_inegsqrt(tmp_path, capsys):
    # n = 3, d = 3, whose margin moves with the random starts: the checker's seed is the
    # only one, and decide, the chain report and gmcvx check all hand it on
    prob = random_chain_problem(41)
    path = write_json(tmp_path / "prob.json", problem_doc(prob))
    assert (prob.n, prob.d) == (3, 3)
    margins = set()
    for seed in (3, 7):
        alone = C.check_inegsqrt(prob, MID, seed)
        margins.add(alone.margin)
        assert same_verdict(alone, C.decide(prob, ("inegsqrt",), MID, seed)["inegsqrt"])
        assert same_verdict(alone, C.implication_chain_report(prob, MID, mc_samples=2000, seed=seed).inegsqrt)
        code, report = run_cli(capsys, "check", "--condition", "inegsqrt", "--input", path, "--seed", str(seed))
        assert code == 0 and report["margin"] == C.check_inegsqrt(prob, C.SearchConfig(), seed).margin
    assert len(margins) == 2


def test_check_inecovf_reports_the_pair_dual_refutation(tmp_path, capsys):
    # n = 3 just inside the directional boundary: the pairwise dual refutes the pair cone
    prob = write_json(tmp_path / "prob.json", problem_doc(boundary_problems(55, (1e-3,))[0]))
    code, report = run_cli(capsys, "check", "--condition", "inecovf", "--input", prob, "--seed", "55")
    assert code == 1
    assert report["status"] == "fails" and report["diagnostics"]["dual_bound"] < 0.0
    y = np.array(report["witness"]["y"])
    assert report["witness"] == {"kind": "pair_dual", "y": y.tolist()}
    assert y.shape == (3, 3) and abs(np.trace(y) - 1.0) < 1e-12


def test_check_correl_unknown_exit_code(tmp_path, capsys):
    prob = write_json(tmp_path / "prob.json", separation_doc())
    code, report = run_cli(capsys, "check", "--condition", "correl", "--input", prob)
    assert code == 2
    assert report["status"] == "unknown"


def test_check_inecov_unknown_exit_code(tmp_path, capsys):
    # n = 3: no construction makes a full coupling, and no refutation applies
    prob = write_json(tmp_path / "prob.json", chain_doc(77))
    code, report = run_cli(capsys, "check", "--condition", "inecov", "--input", prob)
    assert code == 2
    assert report["status"] == "unknown" and report["witness"] is None
    diag = report["diagnostics"]
    assert not diag["ok"] and report["margin"] == min(diag["lmin_gamma"], diag["lmin_slack"]) < 0.0


@pytest.mark.parametrize("condition, code", [("correl", 2), ("chain", 1)])
def test_check_with_a_huge_entry_reports(tmp_path, capsys, condition, code):
    # sigma^4 is past the largest float: the commuting tests compare unit-scale
    # products; the chain fails on the directional search, past correl
    doc = separation_doc()
    doc["target"][0][0] = 1e155
    prob = write_json(tmp_path / "prob.json", doc)
    got, report = run_cli(capsys, "check", "--condition", condition, "--input", prob)
    correl = report if condition == "correl" else report["diagnostics"]["correl"]
    assert got == code and correl["status"] == "unknown"


def test_check_chain_report(tmp_path, capsys):
    prob = write_json(tmp_path / "prob.json", separation_doc())
    code, report = run_cli(capsys, "check", "--condition", "chain", "--input", prob)
    assert code == 0
    assert report["diagnostics"]["inecov"]["status"] == "holds"
    assert report["diagnostics"]["correl"]["status"] == "unknown"


def test_check_chain_emits_the_inecov_certificate(tmp_path, capsys):
    # a chain Holds is decided by inecov, so it writes inecov's coupling matrix
    doc = {**exterior_doc(), "target": [[2.0, 1.0], [1.0, 2.0]]}
    prob = write_json(tmp_path / "prob.json", doc)
    cert = tmp_path / "cert.json"
    code, report = run_cli(
        capsys, "check", "--condition", "chain", "--input", prob, "--emit-certificate", str(cert)
    )
    assert code == 0
    assert report["status"] == "holds"
    assert report["witness"]["kind"] == "gamma"
    assert json.loads(cert.read_text())["input_digest"] == report["input_digest"]
    code, _ = run_cli(
        capsys, "couple", "--input", prob, "--gamma", str(cert),
        "--samples", "2000", "--seed", "3", "--out", str(tmp_path / "samples.csv"),
    )
    assert code == 0


@pytest.mark.parametrize("condition", ["chain", "inegsqrt", "inecov", "inecovf", "dominates"])
@pytest.mark.parametrize("bases", [[[1.0, 0.5], [0.0, 1.0]], np.eye(3).tolist()], ids=["2x2", "3x3"])
def test_check_chain_rejects_with_m(tmp_path, capsys, condition, bases):
    # only correl takes a basis, so any other condition would ignore the flag, even a malformed file
    prob = write_json(tmp_path / "prob.json", separation_doc())
    m_path = write_json(tmp_path / "m.json", {"matrices": [bases]})
    assert cli.main(["check", "--condition", condition, "--input", prob, "--with-M", m_path]) == 66
    assert "--with-M" in capsys.readouterr().err


def test_check_chain_refuted_exit_code(tmp_path, capsys):
    prob = write_json(tmp_path / "prob.json", exterior_doc())
    code, report = run_cli(capsys, "check", "--condition", "chain", "--input", prob)
    assert code == 1
    assert report["diagnostics"]["inegsqrt"]["status"] == "fails"
    assert report["witness"]["kind"] == "direction"  # the refuting direction of inegsqrt


def test_bad_weight_sum_is_invariant_violation(tmp_path, capsys):
    doc = separation_doc()
    doc["p"] = [0.5, 0.4]
    prob = write_json(tmp_path / "prob.json", doc)
    code, _ = run_cli(capsys, "check", "--condition", "inegsqrt", "--input", prob)
    assert code == 65


def test_asymmetric_matrix_rejected(tmp_path, capsys):
    doc = separation_doc()
    doc["target"] = [[2.0, 1.0], [0.9, 1.0]]
    prob = write_json(tmp_path / "prob.json", doc)
    code, _ = run_cli(capsys, "check", "--condition", "inegsqrt", "--input", prob)
    assert code == 65


def test_nan_weights_are_invariant_violation(tmp_path, capsys):
    doc = separation_doc()
    doc["p"] = [float("nan"), float("nan")]  # json writes and reads NaN
    prob = write_json(tmp_path / "prob.json", doc)
    code, report = run_cli(capsys, "check", "--condition", "inegsqrt", "--input", prob)
    assert (code, report) == (65, None)


@pytest.mark.parametrize(
    "edit, code",
    [
        (lambda doc: doc.__setitem__("components", 5), 64),
        (lambda doc: doc["components"][0].__setitem__("mean", ["x", 0.0]), 64),
        (lambda doc: doc["components"][0].__setitem__("mean", [0.0, [1.0]]), 64),
        (lambda doc: doc.__setitem__("d", 2.7), 64),
        (lambda doc: doc.update(n=0, p=[], components=[]), 65),
    ],
    ids=["components-not-a-list", "non-numeric-mean", "ragged-mean", "fractional-d", "no-components"],
)
def test_malformed_problem_document_exit_codes(tmp_path, capsys, edit, code):
    doc = separation_doc()
    edit(doc)
    prob = write_json(tmp_path / "prob.json", doc)
    assert run_cli(capsys, "check", "--condition", "inegsqrt", "--input", prob) == (code, None)


def test_malformed_json_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run_cli(capsys, "check", "--condition", "inegsqrt", "--input", str(bad))
    assert code == 64


def test_usage_error_exit_code(tmp_path, capsys):
    code = cli.main(["check", "--condition", "nonsense", "--input", "x.json"])
    capsys.readouterr()
    assert code == 66


def test_check_has_no_tolerance_option(tmp_path, capsys):
    doc = exterior_doc()
    doc["target"] = [[7.0, 0.0], [0.0, 7.0]]  # inegsqrt fails with margin -0.23
    prob = write_json(tmp_path / "prob.json", doc)
    code, report = run_cli(capsys, "check", "--condition", "inegsqrt", "--input", prob, "--tol", "nan")
    assert (code, report) == (66, None)


def test_certificate_round_trip_revalidates(tmp_path, capsys):
    prob_path = write_json(tmp_path / "prob.json", separation_doc())
    cert_path = tmp_path / "cert.json"
    code, first = run_cli(
        capsys, "check", "--condition", "inecov", "--input", prob_path,
        "--emit-certificate", str(cert_path),
    )
    assert code == 0
    doc = json.loads((tmp_path / "prob.json").read_text())
    prob, digest = cli.problem_from_doc(doc)
    witness = cli.load_certificate(str(cert_path), digest)
    from gmcvx.conditions import validate_gamma_witness

    check = validate_gamma_witness(prob, witness)
    assert check["ok"]
    # the reported margin is the slack floor of the stored witness
    assert check["lmin_slack"] == pytest.approx(first["margin"], abs=1e-12)


def test_correl_certificate_round_trip(tmp_path, capsys):
    doc = {
        "d": 2,
        "n": 3,
        "p": [1 / 3, 1 / 3, 1 / 3],
        "target": [[11.0, 0.0], [0.0, 11.0]],
        "components": [
            {"cov": [[18.0, 0.0], [0.0, 9.0]]},
            {"cov": [[9.0, 0.0], [0.0, 9.0]]},
            {"cov": [[9.0, 0.0], [0.0, 18.0]]},
        ],
    }
    prob_path = write_json(tmp_path / "prob.json", doc)
    cert_path = tmp_path / "cert.json"
    code, report = run_cli(
        capsys, "check", "--condition", "correl", "--input", prob_path,
        "--emit-certificate", str(cert_path),
    )
    assert code == 0
    stored = json.loads(cert_path.read_text())
    assert stored["kind"] == "correl"
    # the three arrays a correl certificate is, and the metadata binding it
    assert set(stored) == {"kind", "m", "corr", "comp_scales", "tolerances", "tool_version", "input_digest"}
    prob, digest = cli.problem_from_doc(doc)
    cert = cli.load_certificate(str(cert_path), digest)
    from gmcvx.conditions import check_correl_with, validate_correl_certificate

    check = validate_correl_certificate(prob, cert)
    assert check["ok"]
    redo = check_correl_with(prob, cert.m)
    assert redo.status.value == report["status"]
    assert redo.margin == pytest.approx(report["margin"], abs=1e-12)
    # a file that also carries the mixture scales and the stack older versions wrote still loads
    scales = np.asarray(stored["comp_scales"])
    stored["mix_scale"] = (prob.p @ scales).tolist()
    stored["stacked"] = np.vstack([np.diag(s) for s in scales]).tolist()
    cert_path.write_text(json.dumps(stored))
    old = cli.load_certificate(str(cert_path), digest)
    assert all(np.array_equal(getattr(old, key), getattr(cert, key)) for key in ("m", "corr", "comp_scales"))
    assert validate_correl_certificate(prob, old)["ok"]


def test_certificate_digest_mismatch_rejected(tmp_path, capsys):
    prob_path = write_json(tmp_path / "prob.json", separation_doc())
    cert_path = tmp_path / "cert.json"
    run_cli(capsys, "check", "--condition", "inecov", "--input", prob_path,
            "--emit-certificate", str(cert_path))
    other = exterior_doc()
    other_path = write_json(tmp_path / "other.json", other)
    code, _ = run_cli(
        capsys, "couple", "--input", other_path, "--gamma", str(cert_path),
        "--samples", "10", "--out", str(tmp_path / "s.csv"),
    )
    assert code == 65


@pytest.mark.parametrize(
    "edit, code",
    [
        (lambda doc: doc["gamma"][0].pop(), 64),  # ragged
        (lambda doc: [row.pop() for row in doc["gamma"]], 65),  # 4 x 3
        (lambda doc: doc["gamma"][1].__setitem__(2, float("nan")), 65),
        (lambda doc: doc.pop("gamma"), 64),
        (lambda doc: doc.__setitem__("gamma", [row[:3] for row in doc["gamma"][:3]]), 65),  # 3 x 3 for n d = 4
    ],
    ids=["ragged", "non-square", "nan-entry", "missing-gamma", "wrong-size"],
)
def test_couple_rejects_malformed_certificate(tmp_path, capsys, edit, code):
    prob_path = write_json(tmp_path / "prob.json", separation_doc())
    cert_path = tmp_path / "cert.json"
    run_cli(capsys, "check", "--condition", "inecov", "--input", prob_path,
            "--emit-certificate", str(cert_path))
    doc = json.loads(cert_path.read_text())
    edit(doc)
    write_json(cert_path, doc)
    got, report = run_cli(
        capsys, "couple", "--input", prob_path, "--gamma", str(cert_path),
        "--samples", "10", "--out", str(tmp_path / "s.csv"),
    )
    assert (got, report) == (code, None)


@pytest.mark.parametrize(
    "command, samples",
    [("couple", "0"), ("couple", "1"), ("couple", "-3"), ("mcverify", "1"), ("mcverify", "-3")],
)
def test_sample_counts_below_minimum_are_usage_errors(tmp_path, capsys, command, samples):
    prob_path = write_json(tmp_path / "prob.json", separation_doc())
    cert_path = tmp_path / "cert.json"
    run_cli(capsys, "check", "--condition", "inecov", "--input", prob_path,
            "--emit-certificate", str(cert_path))
    argv = {
        "couple": ["--gamma", str(cert_path), "--out", str(tmp_path / "s.csv")],
        "mcverify": [],
    }[command]
    code, report = run_cli(capsys, command, "--input", prob_path, "--samples", samples, *argv)
    assert (code, report) == (66, None)


@pytest.mark.parametrize("samples", [cli.MAX_SAMPLES + 1, 10**19])
@pytest.mark.parametrize("command", ["couple", "mcverify"])
def test_sample_counts_above_maximum_are_usage_errors(tmp_path, capsys, monkeypatch, command, samples):
    # rejected when the arguments are parsed: nothing is drawn
    prob_path = write_json(tmp_path / "prob.json", separation_doc())
    cert_path = tmp_path / "cert.json"
    run_cli(capsys, "check", "--condition", "inecov", "--input", prob_path,
            "--emit-certificate", str(cert_path))

    def drawn(*args, **kwargs):
        raise AssertionError("samples drawn")

    monkeypatch.setattr(coupling, "sample_batch", drawn)
    monkeypatch.setattr(cxverify, "test_convex_order", drawn)
    argv = {
        "couple": ["--gamma", str(cert_path), "--out", str(tmp_path / "s.csv")],
        "mcverify": [],
    }[command]
    code, report = run_cli(capsys, command, "--input", prob_path, "--samples", str(samples), *argv)
    assert (code, report) == (66, None)
    assert not (tmp_path / "s.csv").exists()
    args = cli.build_parser().parse_args([command, "--input", prob_path, "--samples", str(cli.MAX_SAMPLES), *argv])
    assert args.samples == cli.MAX_SAMPLES


def test_couple_outputs_samples_and_diagnostics(tmp_path, capsys):
    prob_path = write_json(tmp_path / "prob.json", separation_doc())
    cert_path = tmp_path / "cert.json"
    run_cli(capsys, "check", "--condition", "inecov", "--input", prob_path,
            "--emit-certificate", str(cert_path))
    out_csv = tmp_path / "samples.csv"
    code, diags = run_cli(
        capsys, "couple", "--input", prob_path, "--gamma", str(cert_path),
        "--samples", "5000", "--seed", "5", "--out", str(out_csv),
    )
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "x1,x2,i,y1,y2"
    assert len(lines) == 5001
    resid = np.array(diags["martingale_residual"])
    se = np.array(diags["martingale_residual_se"])
    assert np.all(np.abs(resid) <= 4.0 * se)


def test_couple_deterministic_given_seed(tmp_path, capsys):
    prob_path = write_json(tmp_path / "prob.json", separation_doc())
    cert_path = tmp_path / "cert.json"
    run_cli(capsys, "check", "--condition", "inecov", "--input", prob_path,
            "--emit-certificate", str(cert_path))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        run_cli(capsys, "couple", "--input", prob_path, "--gamma", str(cert_path),
                "--samples", "200", "--seed", "9", "--out", str(out))
    assert a.read_bytes() == b.read_bytes()
    # same bytes as formatting every numpy scalar on its own
    doc = json.loads((tmp_path / "prob.json").read_text())
    prob, digest = cli.problem_from_doc(doc)
    kernel = coupling.build_kernel(prob, cli.load_certificate(str(cert_path), digest))
    xs, idx, ys = coupling.sample_batch(kernel, 200, CounterRng(9))
    rows = ["x1,x2,i,y1,y2"] + [
        ",".join([repr(float(v)) for v in xs[r]] + [str(int(idx[r]) + 1)] + [repr(float(v)) for v in ys[r]])
        for r in range(200)
    ]
    assert a.read_bytes() == ("\n".join(rows) + "\n").encode()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_couple_csv_matches_the_row_formatter(tmp_path, capsys, monkeypatch, d):
    # rows across chunk boundaries, with values whose repr is unusual, against the rows formatted one by one
    eye = np.eye(d).tolist()
    prob_path = write_json(tmp_path / "prob.json", {
        "d": d, "n": 2, "p": [0.5, 0.5], "target": eye, "components": [{"cov": eye}, {"cov": eye}],
    })
    cert_path = tmp_path / "cert.json"
    assert run_cli(capsys, "check", "--condition", "inecov", "--input", prob_path,
                   "--emit-certificate", str(cert_path))[0] == 0
    count = 4097
    assert count > cli._CSV_CHUNK and count % cli._CSV_CHUNK == 1
    rng = CounterRng(40 + d)
    xs, ys = rng.normal_matrix(count, d), 1e3 * rng.normal_matrix(count, d)
    xs[0, 0], ys[1, -1], xs[2, -1], ys[cli._CSV_CHUNK, 0] = -0.0, 1e-300, 1e16, 5e-324
    idx = np.arange(count) % 2
    monkeypatch.setattr(coupling, "sample_batch", lambda kernel, n, rng: (xs, idx, ys))
    out = tmp_path / "s.csv"
    code, _ = run_cli(capsys, "couple", "--input", prob_path, "--gamma", str(cert_path),
                      "--samples", str(count), "--out", str(out))
    assert code == 0
    header = ",".join([f"x{k + 1}" for k in range(d)] + ["i"] + [f"y{k + 1}" for k in range(d)])
    rows = [",".join([*map(repr, x), str(i), *map(repr, y)])
            for x, i, y in zip(xs.tolist(), (idx + 1).tolist(), ys.tolist())]
    assert out.read_bytes() == ("\n".join([header, *rows]) + "\n").encode()


def test_mcverify_identical_laws(tmp_path, capsys):
    doc = {
        "d": 2,
        "n": 2,
        "p": [0.5, 0.5],
        "target": [[1.0, 0.2], [0.2, 1.0]],
        "components": [
            {"cov": [[1.0, 0.2], [0.2, 1.0]]},
            {"cov": [[1.0, 0.2], [0.2, 1.0]]},
        ],
    }
    prob_path = write_json(tmp_path / "prob.json", doc)
    code, report = run_cli(capsys, "mcverify", "--input", prob_path, "--samples", "20000")
    assert code == 0
    assert report["status"] == "holds"


def test_mcverify_with_a_denormal_component_reports(tmp_path, capsys):
    # |mu| / sd overflows in the closed form of E|xi . x|; exp(-inf) is 0
    doc = separation_doc()
    doc["target"] = [[1.0, 0.0], [0.0, 1.0]]
    doc["components"] = [
        {"cov": [[1e-320, 0.0], [0.0, 1e-320]], "mean": [1.0, 0.0]},
        {"cov": [[4.0, 0.0], [0.0, 4.0]], "mean": [-1.0, 0.0]},
    ]
    prob_path = write_json(tmp_path / "prob.json", doc)
    code, report = run_cli(capsys, "mcverify", "--input", prob_path, "--samples", "0")
    assert code == 0 and report["status"] == "holds"


def test_mcverify_exterior_fails(tmp_path, capsys):
    prob_path = write_json(tmp_path / "prob.json", exterior_doc())
    code, report = run_cli(capsys, "mcverify", "--input", prob_path, "--samples", "20000")
    assert code == 1
    # the witness is reported field by field, at full precision
    prob, _ = cli.problem_from_doc(exterior_doc())
    lhs = cxverify.GaussianLaw(np.zeros(prob.d), prob.target)
    suite = cxverify.default_suite(prob, seed=0)
    witness = cxverify.test_convex_order(lhs, prob, suite, mc_samples=20000, seed=0).witness
    fields = {f.name: getattr(witness, f.name) for f in dataclasses.fields(witness)}
    expected = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in fields.items() if v is not None}
    expected["family"] = expected.pop("kind")
    assert report["witness"] == {"kind": "test_function", **expected}


def test_sweep_spec_with_expressions(tmp_path, capsys):
    spec = {
        "axes": [
            {"name": "a", "min": 4.0, "max": 5.0, "step": 0.5},
            {"name": "b", "min": -0.5, "max": 0.5, "step": 0.5},
        ],
        "checkers": ["inegsqrt"],
        "seed": 0,
        "problem": {
            "d": 2,
            "n": 2,
            "p": [0.5, 0.5],
            "target": [[" a", "b"], ["b", "a"]],  # leading blanks are accepted
            "components": [
                {"cov": [[8.0, 0.0], [0.0, 4.0]]},
                {"cov": [[4.0, 0.0], [0.0, 8.0]]},
            ],
        },
    }
    spec_path = write_json(tmp_path / "spec.json", spec)
    out_path = tmp_path / "region.csv"
    code, info = run_cli(capsys, "sweep", "--spec", spec_path, "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "param1,param2,checker,status,margin"
    assert len(lines) == 1 + 3 * 3
    assert all(line.split(",")[3] == "holds" for line in lines[1:])


@pytest.mark.parametrize(
    "entry, code",
    [
        ("a +", 64),  # does not parse
        ("().__class__.__mro__[1].__subclasses__()", 64),  # outside the grammar
        ("__import__('os').getcwd()", 64),
        ("sqrt(a, b)", 64),  # wrong arity
        ("log(a - 5)", 65),  # math error at a = 5
        ("a * 1e400", 65),  # non-finite value
    ],
)
def test_sweep_expression_exit_codes(tmp_path, capsys, monkeypatch, entry, code):
    spec = {
        "axes": [
            {"name": "a", "min": 5.0, "max": 5.5, "step": 0.5},
            {"name": "b", "min": 0.0, "max": 0.0, "step": 1.0},
        ],
        "problem": {
            "d": 2,
            "n": 2,
            "p": [0.5, 0.5],
            "target": [[entry, "b"], ["b", "a"]],
            "components": [{"cov": [[8.0, 0.0], [0.0, 4.0]]}, {"cov": [[4.0, 0.0], [0.0, 8.0]]}],
        },
    }
    if code == 64:  # rejected while the spec is loaded, before any cell runs
        monkeypatch.setattr(cli.sweep_mod, "run_sweep", lambda *a, **k: pytest.fail("cells ran"))
    spec_path = write_json(tmp_path / "spec.json", spec)
    out_path = tmp_path / "region.csv"
    assert cli.main(["sweep", "--spec", spec_path, "--out", str(out_path)]) == code
    assert "error:" in capsys.readouterr().err
    assert not out_path.exists()


def one_cell_spec(**fields):
    problem = {
        "d": 2,
        "n": 2,
        "p": [0.5, 0.5],
        "target": [["a", "b"], ["b", "a"]],
        "components": [{"cov": [[8.0, 0.0], [0.0, 4.0]]}, {"cov": [[4.0, 0.0], [0.0, 8.0]]}],
    }
    problem.update(fields)
    return {
        "axes": [
            {"name": "a", "min": 5.0, "max": 5.0, "step": 1.0},
            {"name": "b", "min": 0.0, "max": 0.0, "step": 1.0},
        ],
        "problem": problem,
    }


@pytest.mark.parametrize(
    "fields",
    [
        {"target": [["a", 0, 0], [0, "a", 0], [0, 0, "a"]]},  # 3 x 3 target, 2 x 2 components
        {"target": [["a", 1], [0, "a"]]},  # asymmetric
        {"d": 3},  # default means of length 3 for 2 x 2 matrices
        {  # an explicit mean of length 3
            "components": [
                {"cov": [[8.0, 0.0], [0.0, 4.0]], "mean": [0.0, 0.0, 0.0]},
                {"cov": [[4.0, 0.0], [0.0, 8.0]]},
            ]
        },
        {"components": [{"cov": [[8.0]]}, {"cov": [[4.0, 0.0], [0.0, 8.0]]}]},  # 1 x 1 covariance
        {"n": 5},  # two components
    ],
    ids=["target-size", "asymmetric-target", "mean-length", "explicit-mean-length", "cov-size", "n-mismatch"],
)
def test_sweep_invalid_cell_exits_65(tmp_path, capsys, fields):
    spec_path = write_json(tmp_path / "spec.json", one_cell_spec(**fields))
    out_path = tmp_path / "region.csv"
    assert cli.main(["sweep", "--spec", spec_path, "--out", str(out_path)]) == 65
    assert "error:" in capsys.readouterr().err
    assert not out_path.exists()


def test_sweep_fractional_d_is_malformed(tmp_path, capsys):
    spec_path = write_json(tmp_path / "spec.json", one_cell_spec(d=2.7))
    out_path = tmp_path / "region.csv"
    assert cli.main(["sweep", "--spec", spec_path, "--out", str(out_path)]) == 64
    assert not out_path.exists()


@pytest.mark.parametrize(
    "spec",
    [
        one_cell_spec(p=["x", 0.5]),
        one_cell_spec(target=[["a", "b"], ["b"]]),
        one_cell_spec(components=[{"cov": [[8.0, 0.0], [0.0]]}, {"cov": [[4.0, 0.0], [0.0, 8.0]]}]),
        {**one_cell_spec(), "seed": 2.7},
        {**one_cell_spec(), "axes": one_cell_spec()["axes"] + [{"name": "c", "min": 0.0, "max": 0.0, "step": 1.0}]},
        one_cell_spec(n=2.5),
        {  # 1e300 + 1 values on one axis
            **one_cell_spec(),
            "axes": [{"name": "a", "min": 0.0, "max": 1.0, "step": 1e-300}, one_cell_spec()["axes"][1]],
        },
        {  # 1001 x 1001 cells, one grid over sweep.MAX_CELLS
            **one_cell_spec(),
            "axes": [
                {"name": "a", "min": 4.0, "max": 5.0, "step": 0.001},
                {"name": "b", "min": -1.0, "max": 0.0, "step": 0.001},
            ],
        },
        {**one_cell_spec(), "checkers": []},
        {**one_cell_spec(), "checkers": "inecov"},
        {  # max below min
            **one_cell_spec(),
            "axes": [{"name": "a", "min": 5.0, "max": 4.0, "step": 0.5}, one_cell_spec()["axes"][1]],
        },
        {  # two axes named a: the second would be lost
            **one_cell_spec(),
            "axes": [
                {"name": "a", "min": 4.0, "max": 5.0, "step": 1.0},
                {"name": "a", "min": 0.0, "max": 1.0, "step": 1.0},
            ],
        },
    ],
    ids=[
        "non-numeric-weight", "ragged-target", "ragged-cov", "fractional-seed", "three-axes", "fractional-n",
        "tiny-step", "too-many-cells", "empty-checkers", "checkers-not-a-list", "max-below-min", "repeated-axis-name",
    ],
)
def test_sweep_malformed_spec_exits_64(tmp_path, capsys, monkeypatch, spec):
    # rejected while the spec is loaded, before any cell runs or any grid is allocated
    monkeypatch.setattr(cli.sweep_mod, "run_sweep", lambda *a, **k: pytest.fail("cells ran"))
    monkeypatch.setattr(cli.sweep_mod.Axis, "values", lambda self: pytest.fail("grid allocated"))
    spec_path = write_json(tmp_path / "spec.json", spec)
    out_path = tmp_path / "region.csv"
    assert cli.main(["sweep", "--spec", spec_path, "--out", str(out_path)]) == 64
    assert "error:" in capsys.readouterr().err
    assert not out_path.exists()


def test_with_m_flag_feeds_user_bases(tmp_path, capsys):
    prob_path = write_json(tmp_path / "prob.json", separation_doc())
    m_path = write_json(tmp_path / "m.json", {"matrices": [[[1.0, 0.5], [0.0, 1.0]]]})
    code, report = run_cli(
        capsys, "check", "--condition", "correl", "--input", prob_path,
        "--with-M", m_path,
    )
    assert code == 2
    tried = [t[0] for t in report["diagnostics"]["tried"]]
    assert "user_0" in tried


@pytest.mark.parametrize(
    "bases, code",
    [
        ({"matrices": 5}, 64),
        ({"M": [[1.0, 0.0], [0.0]]}, 64),
        ({"M": [["a", "b"], ["c", "d"]]}, 64),
        ({"M": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}, 65),
        ([[[1e400, 0.0], [0.0, 1.0]]], 65),
    ],
    ids=["matrices-not-a-list", "ragged", "non-numeric", "wrong-size", "non-finite"],
)
def test_with_m_rejects_malformed_basis_file(tmp_path, capsys, bases, code):
    prob_path = write_json(tmp_path / "prob.json", separation_doc())
    m_path = tmp_path / "m.json"
    m_path.write_text(json.dumps(bases))  # 1e400 is written as Infinity
    argv = ["check", "--condition", "correl", "--input", prob_path, "--with-M", str(m_path)]
    assert cli.main(argv) == code
    assert "error:" in capsys.readouterr().err
