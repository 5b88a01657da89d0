"""Command-line front end: problem ingestion, checkers, sweeps, couplings.

Subcommands
-----------
``check``    run one condition checker on a problem file, optionally
             emitting a certificate file bound to the input by digest.
``sweep``    evaluate checkers over a two-parameter grid described by a
             JSON spec with expression-valued matrix entries (numbers,
             the two axis names, ``pi``, ``+ - * / **``, unary ``-``/``+``
             and sqrt, abs, min, max, exp, log, sin, cos).
``couple``   sample the mean-preserving coupling given a problem and a
             stored coupling certificate; writes sample CSV and prints
             martingale diagnostics as JSON.
``mcverify`` expectation-suite comparison of the target law against the
             mixture (evidence only).

Exit codes: 0 holds, 1 fails, 2 unknown, 64 malformed JSON, sweep spec
field or expression (ragged, non-numeric or mistyped), two sweep axes of
one name, or certificate field, 65 invariant violation (including a
sweep matrix or mean of the wrong size, a sweep expression that fails or
is non-finite at a cell, a sweep cell whose problem is invalid for any
reason but a non-PSD target, and a certificate matrix of the wrong shape
or with non-finite entries),
66 usage or IO error (including a sample count below the minimum or
above ``MAX_SAMPLES``, and ``--with-M`` given with any condition but ``correl``).

A sweep grid may have at most ``sweep.MAX_CELLS`` (1,000,000) cells; a
spec whose axes give more, whose cell count is not finite, or with an axis
whose max is below its min, exits 64 before any cell is built. ``couple`` and ``mcverify`` take at most
``MAX_SAMPLES`` (10,000,000) samples; a larger ``--samples`` exits 66 when
the arguments are parsed, before anything is drawn.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import hashlib
import json
import math
import operator
import sys

import numpy as np

from . import __version__, coupling, cxverify, matcore, sweep as sweep_mod
from .conditions import (
    CHECKERS,
    ChainViolation,
    CorrelCertificate,
    DimensionMismatch,
    GammaWitness,
    InvalidProblem,
    MixtureProblem,
    NonCenteredMeans,
    SearchConfig,
    SingularM,
    Status,
    Verdict,
    decide,
    implication_chain_report,
)
from .rng import CounterRng

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_UNKNOWN = 2
EXIT_BAD_JSON = 64
EXIT_INVARIANT = 65
EXIT_USAGE = 66

_CSV_CHUNK = 1024  # sample rows formatted per write in ``couple``
MAX_SAMPLES = 10_000_000  # sample count bound of ``couple`` and ``mcverify``, checked at parsing

_STATUS_EXIT = {Status.HOLDS: EXIT_HOLDS, Status.FAILS: EXIT_FAILS, Status.UNKNOWN: EXIT_UNKNOWN}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2, which is taken
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


class CliFailure(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def canonical_digest(doc) -> str:
    """Digest of the canonical JSON serialization, binding certificates."""
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliFailure(EXIT_USAGE, f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise CliFailure(EXIT_BAD_JSON, f"malformed JSON in {path}: {exc}")


def _problem_fields(doc, what: str) -> tuple[int, int, list, np.ndarray]:
    """``(d, n, components, p)`` of a problem object: JSON integers d and n and a
    list of objects (else exit 64), with n components and n finite weights (else 65)."""
    if not isinstance(doc, dict):
        raise CliFailure(EXIT_BAD_JSON, f"{what} must be a JSON object")
    d, n, comps = doc.get("d"), doc.get("n"), doc.get("components")
    if type(d) is not int or type(n) is not int:  # rejects 2.7, "2" and true
        raise CliFailure(EXIT_BAD_JSON, f"{what} fields 'd' and 'n' must be JSON integers")
    if not isinstance(comps, list) or not all(isinstance(comp, dict) for comp in comps):
        raise CliFailure(EXIT_BAD_JSON, f"{what} field 'components' must be a list of objects")
    p = _float_array(doc, "p", f"{what} field")
    if len(comps) != n or p.shape != (n,):
        raise CliFailure(EXIT_INVARIANT, f"{what} needs n = {n} components and weights")
    return d, n, comps, p


def problem_from_doc(doc) -> tuple[MixtureProblem, str]:
    """Validate a problem document once and build the mixture problem: a
    missing or mistyped field exits 64, inconsistent shapes and non-finite
    or otherwise invalid entries 65."""
    d, n, comps, p = _problem_fields(doc, "problem")
    target = _float_array(doc, "target", "problem field")
    if target.shape != (d, d):
        raise CliFailure(EXIT_INVARIANT, f"problem target must be {d} x {d}")
    covs = []
    means = []
    for k, comp in enumerate(comps):
        cov = _float_array(comp, "cov", f"component {k} field")
        if cov.shape != (d, d):
            raise CliFailure(EXIT_INVARIANT, f"component {k} covariance must be {d} x {d}")
        mean = _float_array(comp, "mean", f"component {k} field") if "mean" in comp else np.zeros(d)
        if mean.shape != (d,):
            raise CliFailure(EXIT_INVARIANT, f"component {k} mean must have length {d}")
        covs.append(cov)
        means.append(mean)
    try:
        prob = MixtureProblem(p=p, covs=np.reshape(covs, (n, d, d)), target=target, means=np.reshape(means, (n, d)))
    except InvalidProblem as exc:
        raise CliFailure(EXIT_INVARIANT, str(exc))
    return prob, canonical_digest(doc)


def _witness_summary(witness) -> object:
    if witness is None:
        return None
    if isinstance(witness, GammaWitness):
        lmin = float(np.linalg.eigvalsh(witness.gamma)[0])
        return {"kind": "gamma", "shape": list(witness.gamma.shape), "lmin": lmin}
    if isinstance(witness, CorrelCertificate):
        return {"kind": "correl", "m": witness.m.tolist(), "corr": witness.corr.tolist()}
    if isinstance(witness, np.ndarray):
        return {"kind": "direction", "xi": witness.tolist()}
    if isinstance(witness, cxverify.TestFunction):
        fields = {f.name: getattr(witness, f.name) for f in dataclasses.fields(witness)}
        family = fields.pop("kind")
        return {"kind": "test_function", "family": family, **{k: v for k, v in fields.items() if v is not None}}
    if isinstance(witness, tuple) and len(witness) == 2 and witness[0] == "dual":
        return {"kind": "pair_dual", "y": witness[1].tolist()}  # a pairwise dual refutation
    if isinstance(witness, tuple):
        return {"kind": "tuple", "value": [_witness_summary(w) for w in witness]}
    if isinstance(witness, (int, float, str)):
        return witness
    if isinstance(witness, dict):
        return {k: _witness_summary(v) for k, v in witness.items()}
    return repr(witness)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else repr(v)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _report(condition: str, verdict: Verdict, digest: str, extra: dict | None = None) -> dict:
    doc = {
        "schema_version": 1,
        "tool": "gmcvx",
        "version": __version__,
        "condition": condition,
        "status": verdict.status.value,
        "margin": _jsonable(verdict.margin),
        "witness": _jsonable(_witness_summary(verdict.witness)),
        "diagnostics": _jsonable(verdict.diagnostics),
        "input_digest": digest,
    }
    if extra:
        doc.update(extra)
    return doc


# the arrays of a correl certificate, as written and read back
_CORREL_FIELDS = tuple(field.name for field in dataclasses.fields(CorrelCertificate))


def _emit_certificate(path: str, verdict: Verdict, digest: str):
    witness = verdict.witness
    if isinstance(witness, GammaWitness):
        doc = {"kind": "gamma", "gamma": witness.gamma.tolist()}
    elif isinstance(witness, CorrelCertificate):
        doc = {"kind": "correl", **{key: getattr(witness, key).tolist() for key in _CORREL_FIELDS}}
    else:
        return
    doc.update(tolerances={"validation": matcore.EPS_ENGINE}, tool_version=__version__, input_digest=digest)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _float_array(doc, key, what: str = "certificate field") -> np.ndarray:
    """Float array stored under ``key``: missing or mistyped exits 64, non-finite 65."""
    try:
        out = np.asarray(doc[key], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:  # ValueError: ragged or non-numeric
        raise CliFailure(EXIT_BAD_JSON, f"{what} {key!r} missing or mistyped: {exc}")
    if not np.all(np.isfinite(out)):
        raise CliFailure(EXIT_INVARIANT, f"{what} {key!r} has non-finite entries")
    return out


def load_certificate(path: str, digest: str):
    """Read a certificate file once: malformed fields exit 64, non-finite
    entries 65 (a witness's shape is checked where it is used). Keys it does
    not read, such as the ``mix_scale`` and ``stacked`` older correl files
    carry, are ignored."""
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise CliFailure(EXIT_BAD_JSON, "certificate must be a JSON object")
    if doc.get("input_digest") not in (None, digest):
        raise CliFailure(EXIT_INVARIANT, "certificate digest does not match the problem file")
    kind = doc.get("kind")
    if kind == "gamma":
        return GammaWitness(_float_array(doc, "gamma"))
    if kind == "correl":
        return CorrelCertificate(**{key: _float_array(doc, key) for key in _CORREL_FIELDS})
    raise CliFailure(EXIT_BAD_JSON, f"unknown certificate kind {kind!r}")


def load_bases(path: str, d: int) -> list[np.ndarray]:
    """Read a ``--with-M`` file once (``{"matrices": [...]}``, ``{"M": ...}`` or a
    list of matrices): a malformed structure exits 64, a basis that is not
    d x d or has a non-finite entry 65."""
    doc = _load_json(path)
    if isinstance(doc, dict) and "matrices" in doc:
        doc = doc["matrices"]
    elif isinstance(doc, dict) and "M" in doc:
        doc = [doc["M"]]
    if not isinstance(doc, list):
        raise CliFailure(EXIT_BAD_JSON, "cannot interpret the candidate-basis file")
    bases = [_float_array(doc, k, "candidate basis") for k in range(len(doc))]
    for k, m in enumerate(bases):
        if m.shape != (d, d):
            raise CliFailure(EXIT_INVARIANT, f"candidate basis {k} must be {d} x {d}, got shape {m.shape}")
    return bases


def cmd_check(args) -> int:
    if args.with_m and args.condition != "correl":
        raise CliFailure(EXIT_USAGE, f"--with-M feeds correl only; --condition {args.condition} does not take it")
    doc = _load_json(args.input)
    prob, digest = problem_from_doc(doc)
    cfg = SearchConfig()
    extra_m = load_bases(args.with_m, prob.d) if args.with_m else []

    try:
        if args.condition != "chain":
            verdict = decide(prob, (args.condition,), cfg, args.seed, extra_m)[args.condition]
        else:
            report = implication_chain_report(prob, cfg, seed=args.seed)
            if report.inecov.holds:
                verdict = Verdict(Status.HOLDS, report.inecov.margin, report.inecov.witness, report.as_dict())
            elif report.inegsqrt.fails:
                verdict = Verdict(Status.FAILS, report.inegsqrt.margin, report.inegsqrt.witness, report.as_dict())
            else:
                verdict = Verdict(Status.UNKNOWN, report.inegsqrt.margin, None, report.as_dict())
    except (NonCenteredMeans, SingularM) as exc:
        raise CliFailure(EXIT_INVARIANT, str(exc))
    except ChainViolation as exc:
        raise CliFailure(EXIT_INVARIANT, f"chain violation: {exc}")

    if args.emit_certificate and verdict.holds:
        try:
            _emit_certificate(args.emit_certificate, verdict, digest)
        except OSError as exc:
            raise CliFailure(EXIT_USAGE, f"cannot write {args.emit_certificate}: {exc}")
    print(json.dumps(_report(args.condition, verdict, digest), sort_keys=True))
    return _STATUS_EXIT[verdict.status]


# name: (function, fewest arguments, most arguments or None)
_EXPR_FUNCTIONS = {
    "sqrt": (math.sqrt, 1, 1),
    "abs": (abs, 1, 1),
    "min": (min, 2, None),
    "max": (max, 2, None),
    "exp": (math.exp, 1, 1),
    "log": (math.log, 1, 2),
    "sin": (math.sin, 1, 1),
    "cos": (math.cos, 1, 1),
}
_EXPR_OPERATORS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Pow: operator.pow,
    ast.USub: operator.neg,
    ast.UAdd: operator.pos,
}


def _compile_expr(node, axis_names):
    """Turn an allow-listed expression node into a function of the axis values.

    Numbers are read as floats, so no entry can start unbounded integer
    arithmetic; every other node type raises ValueError.
    """
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        const = float(node.value)
        return lambda v: const
    if isinstance(node, ast.Name) and node.id in axis_names:
        k = axis_names.index(node.id)
        return lambda v: v[k]
    if isinstance(node, ast.Name) and node.id == "pi":
        return lambda v: math.pi
    if isinstance(node, ast.UnaryOp) and type(node.op) in _EXPR_OPERATORS:
        op, arg = _EXPR_OPERATORS[type(node.op)], _compile_expr(node.operand, axis_names)
        return lambda v: op(arg(v))
    if isinstance(node, ast.BinOp) and type(node.op) in _EXPR_OPERATORS:
        op = _EXPR_OPERATORS[type(node.op)]
        lhs, rhs = _compile_expr(node.left, axis_names), _compile_expr(node.right, axis_names)
        return lambda v: op(lhs(v), rhs(v))
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in _EXPR_FUNCTIONS:
        fn, fewest, most = _EXPR_FUNCTIONS[node.func.id]
        if node.keywords or len(node.args) < fewest or (most is not None and len(node.args) > most):
            raise ValueError(f"wrong arguments to {node.func.id}")
        args = [_compile_expr(a, axis_names) for a in node.args]
        return lambda v: fn(*[a(v) for a in args])
    raise ValueError(f"{type(node).__name__} not allowed")


def _spec_entry(entry, axis_names):
    """Parse one sweep-spec entry once; the result evaluates it at a cell.

    Unparsable or disallowed expressions fail here (exit 64); a math error
    or a non-finite value at a cell fails there (exit 65).
    """
    try:
        if isinstance(entry, str):  # leading blanks are dropped, as eval drops them
            node = ast.parse(entry.lstrip(" \t"), mode="eval").body
        else:
            node = ast.Constant(float(entry))
        expr = _compile_expr(node, axis_names)
    except (SyntaxError, ValueError, OverflowError, RecursionError) as exc:
        raise CliFailure(EXIT_BAD_JSON, f"bad sweep entry {entry!r}: {exc}")

    def value(v) -> float:
        try:
            out = float(expr(v))
        except (ArithmeticError, ValueError, TypeError) as exc:  # TypeError: complex powers
            out = exc
        if isinstance(out, float) and math.isfinite(out):
            return out
        where = f"{axis_names[0]}={v[0]!r}, {axis_names[1]}={v[1]!r}"
        raise CliFailure(EXIT_INVARIANT, f"sweep entry {entry!r} at {where}: {out}")

    return value


def _spec_rows(rows, shape: tuple, what: str, axis_names) -> list:
    """Parse a sweep matrix of ``shape`` once: ragged or mistyped rows exit 64, a wrong size 65."""
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise CliFailure(EXIT_BAD_JSON, f"sweep {what} is mistyped")
    if len({len(row) for row in rows}) > 1:
        raise CliFailure(EXIT_BAD_JSON, f"sweep {what} has ragged rows")
    found = (len(rows), len(rows[0]) if rows else 0)
    if found != shape:
        raise CliFailure(EXIT_INVARIANT, f"sweep {what} has shape {found}, expected {shape}")
    return [[_spec_entry(v, axis_names) for v in row] for row in rows]


def _template_from_doc(doc, axis_names):
    """Validate the spec's problem once, as :func:`problem_from_doc` does a
    problem document; the template evaluates its entries at each cell."""
    base = doc["problem"]
    d, _, components, p = _problem_fields(base, "sweep problem")
    target = _spec_rows(base["target"], (d, d), "target", axis_names)
    comps = [
        (
            _spec_rows(c["cov"], (d, d), f"component {k} covariance", axis_names),
            _spec_rows([c.get("mean", [0.0] * d)], (1, d), f"component {k} mean", axis_names)[0],
        )
        for k, c in enumerate(components)
    ]

    def build(v1: float, v2: float) -> MixtureProblem:
        v = (float(v1), float(v2))

        def mat(rows):
            return np.asarray([[f(v) for f in row] for row in rows], dtype=float)

        return MixtureProblem(
            p=p,
            covs=np.stack([mat(cov) for cov, _ in comps]),
            target=mat(target),
            means=np.stack([np.asarray([f(v) for f in mean], dtype=float) for _, mean in comps]),
        )

    return build


def cmd_sweep(args) -> int:
    doc = _load_json(args.spec)
    try:
        if not isinstance(doc["axes"], list) or len(doc["axes"]) != 2:
            raise ValueError("'axes' must list exactly two axes")
        axes = [sweep_mod.Axis(a["name"], a["min"], a["max"], a["step"]) for a in doc["axes"]]
        if axes[0].name == axes[1].name:  # an expression would read the first axis for both
            raise ValueError(f"both axes are named {axes[0].name!r}")
        checkers = doc.get("checkers", ["inegsqrt"])
        if not isinstance(checkers, list) or not checkers:
            raise ValueError("'checkers' must be a non-empty list of checker names")
        checkers = tuple(checkers)
        seed = doc.get("seed", 0)
        if type(seed) is not int:  # rejects 2.7, "3" and true
            raise ValueError("'seed' must be a JSON integer")
        template = _template_from_doc(doc, [axes[0].name, axes[1].name])
        spec = sweep_mod.SweepSpec(template, axes[0], axes[1], checkers, seed)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise CliFailure(EXIT_BAD_JSON, f"bad sweep spec: {exc}")
    try:
        cells = sweep_mod.run_sweep(spec, SearchConfig())
    except InvalidProblem as exc:  # a non-PSD target is a "fails" cell, never raised
        raise CliFailure(EXIT_INVARIANT, f"invalid sweep cell: {exc}")
    try:
        sweep_mod.write_region_csv(cells, args.out)
    except OSError as exc:
        raise CliFailure(EXIT_USAGE, f"cannot write {args.out}: {exc}")
    print(json.dumps({"cells": len(cells), "out": args.out}))
    return EXIT_HOLDS


def _sample_count(text: str) -> int:
    """``--samples`` value: an int of at most :data:`MAX_SAMPLES`; each command checks its minimum."""
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if count > MAX_SAMPLES:
        raise argparse.ArgumentTypeError(f"at most {MAX_SAMPLES} samples, got {count}")
    return count


def cmd_couple(args) -> int:
    if args.samples < 2:  # the diagnostics use sample variances
        raise CliFailure(EXIT_USAGE, f"--samples must be at least 2, got {args.samples}")
    doc = _load_json(args.input)
    prob, digest = problem_from_doc(doc)
    cert = load_certificate(args.gamma, digest)
    if not isinstance(cert, GammaWitness):
        raise CliFailure(EXIT_INVARIANT, "coupling needs a gamma certificate")
    try:
        kernel = coupling.build_kernel(prob, cert)
    except (coupling.InvalidGamma, DimensionMismatch, matcore.InvalidMatrix, NonCenteredMeans) as exc:
        raise CliFailure(EXIT_INVARIANT, str(exc))
    rng = CounterRng(args.seed)
    xs, idx, ys = coupling.sample_batch(kernel, args.samples, rng)
    d = prob.d
    header = ",".join([f"x{k + 1}" for k in range(d)] + ["i"] + [f"y{k + 1}" for k in range(d)])
    try:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(header + "\n")
            for part in range(0, args.samples, _CSV_CHUNK):  # chunks bound the Python lists alive
                rows = slice(part, part + _CSV_CHUNK)
                # formatted column by column (repr of an int is its str); zip rebuilds the rows
                cols = [*xs[rows].T.tolist(), (idx[rows] + 1).tolist(), *ys[rows].T.tolist()]
                fh.write("\n".join(map(",".join, zip(*(map(repr, c) for c in cols)))) + "\n")
    except OSError as exc:
        raise CliFailure(EXIT_USAGE, f"cannot write {args.out}: {exc}")

    resid = ys - xs
    diags = {
        "samples": args.samples,
        "mean_y": ys.mean(axis=0).tolist(),
        "cov_y": np.cov(ys.T, ddof=1).reshape(d, d).tolist(),
        "mixture_cov": prob.mixture_covariance().tolist(),
        "martingale_residual": (resid.mean(axis=0)).tolist(),
        "martingale_residual_se": (resid.std(axis=0, ddof=1) / math.sqrt(args.samples)).tolist(),
    }
    print(json.dumps(_jsonable(diags), sort_keys=True))
    return EXIT_HOLDS


def cmd_mcverify(args) -> int:
    if args.samples < 0 or args.samples == 1:  # 0 skips the Monte Carlo tests; one sample has no variance
        raise CliFailure(EXIT_USAGE, f"--samples must be 0 or at least 2, got {args.samples}")
    doc = _load_json(args.input)
    prob, digest = problem_from_doc(doc)
    lhs = cxverify.GaussianLaw(np.zeros(prob.d), prob.target)
    suite = cxverify.default_suite(prob, seed=args.seed)
    verdict = cxverify.test_convex_order(lhs, prob, suite, mc_samples=args.samples, seed=args.seed)
    print(json.dumps(_report("order_evidence", verdict, digest), sort_keys=True))
    return _STATUS_EXIT[verdict.status]


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gmcvx", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run one condition checker")
    p_check.add_argument("--condition", required=True,
                         choices=[*CHECKERS, "chain"])
    p_check.add_argument("--input", required=True)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--emit-certificate", dest="emit_certificate", default=None)
    p_check.add_argument("--with-M", dest="with_m", default=None)
    p_check.set_defaults(func=cmd_check)

    p_sweep = sub.add_parser("sweep", help="two-parameter region map")
    p_sweep.add_argument("--spec", required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.set_defaults(func=cmd_sweep)

    p_couple = sub.add_parser("couple", help="sample the mean-preserving coupling")
    p_couple.add_argument("--input", required=True)
    p_couple.add_argument("--gamma", required=True)
    p_couple.add_argument("--samples", type=_sample_count, default=100000)
    p_couple.add_argument("--seed", type=int, default=0)
    p_couple.add_argument("--out", required=True)
    p_couple.set_defaults(func=cmd_couple)

    p_mc = sub.add_parser("mcverify", help="expectation-suite comparison")
    p_mc.add_argument("--input", required=True)
    p_mc.add_argument("--samples", type=_sample_count, default=100000)
    p_mc.add_argument("--seed", type=int, default=0)
    p_mc.set_defaults(func=cmd_mcverify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
