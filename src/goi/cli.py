"""Command-line frontend: check, interpret, verify.

Exit codes: 0 pass, 1 property failure, 2 syntax error, 3 rule
violation, 4 configuration error (a bad GOI_TOL, an unreadable or
undecodable input file, an unwritable --out).  Reports are deterministic for a
fixed (input, seed) and serialize infinities and indeterminates as
tagged strings, never as floats.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import sys

from .config import DEFAULT_SEED, struct_tol
from .errors import (
    GoiError,
    MissingVariableError,
    ProofSyntaxError,
    RuleApplicationError,
)
from .measurement import is_indeterminate
from .verify import CheckRecord, run_suite

SCHEMA = "goi-report/1"

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_SYNTAX = 2
EXIT_RULE = 3
EXIT_CONFIG = 4


def _json_value(x):
    if is_indeterminate(x):
        return "indeterminate"
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        if math.isnan(x):
            return "nan"
        return x
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
    if isinstance(x, dict):
        return {str(k): _json_value(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_json_value(v) for v in x]
    if isinstance(x, (bool, int, str)) or x is None:
        return x
    try:
        import numpy as np

        if isinstance(x, np.floating):
            return _json_value(float(x))
        if isinstance(x, np.integer):
            return int(x)
        if isinstance(x, np.bool_):
            return bool(x)
    except ImportError:  # pragma: no cover
        pass
    return repr(x)


def _emit(report: dict, out: str | None, code: int) -> int:
    """Print the report or write it to ``out``, and return ``code``; an unwritable ``out`` is exit 4."""
    text = json.dumps(_json_value(report), indent=2, sort_keys=True)
    if not out:
        print(text)
        return code
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        print(f"cannot write {out}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return code


def _read(path: str) -> str | None:
    """The text of a proof or basis file, or None after one ``cannot read`` line on stderr."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
        return None


def _records_to_json(records: list[CheckRecord]) -> list[dict]:
    return [
        {"name": r.name, "status": r.status, "data": r.data, "reproducer": r.reproducer}
        for r in records
    ]


def cmd_check(args) -> int:
    from .logic.syntax import check_proof, fmt, parse_proof

    text = _read(args.proof)
    if text is None:
        return EXIT_CONFIG
    try:
        proof = parse_proof(text)
    except ProofSyntaxError as exc:
        return _emit({"schema": SCHEMA, "command": "check", "status": "syntax-error", "error": str(exc)}, args.out, EXIT_SYNTAX)
    try:
        sequent = check_proof(proof)
    except RuleApplicationError as exc:
        return _emit(
            {
                "schema": SCHEMA,
                "command": "check",
                "status": "rule-error",
                "error": str(exc),
                "rule": exc.rule,
                "path": list(exc.path),
            },
            args.out,
            EXIT_RULE,
        )
    return _emit({"schema": SCHEMA, "command": "check", "status": "ok", "sequent": [fmt(f) for f in sequent]}, args.out, EXIT_OK)


def cmd_interpret(args) -> int:
    from .logic.goi1 import interpret_mll_goi1
    from .logic.locations import allocate_goi1, allocate_matricial
    from .logic.matricial import default_basis, interpret_mall_matricial, parse_basis, sequent_dual_witnesses
    from .logic.syntax import check_proof, fmt, parse_proof
    from .groupoid import compose, nilpotency
    from .projects import is_promising, orthogonal_witness_suite

    text = _read(args.proof)
    if text is None:
        return EXIT_CONFIG
    try:
        proof = parse_proof(text)
        # every rule checked once: each node keeps its conclusion for allocation and interpretation
        sequent = check_proof(proof)
    except ProofSyntaxError as exc:
        return _emit({"schema": SCHEMA, "command": "interpret", "status": "syntax-error", "error": str(exc)}, args.out, EXIT_SYNTAX)
    except RuleApplicationError as exc:
        return _emit({"schema": SCHEMA, "command": "interpret", "status": "rule-error", "error": str(exc)}, args.out, EXIT_RULE)

    if args.backend == "goi1":
        try:
            plan = allocate_goi1(proof)
            pi, sigma = interpret_mll_goi1(proof, plan)
        except GoiError as exc:
            return _emit({"schema": SCHEMA, "command": "interpret", "status": "error", "error": str(exc)}, args.out, EXIT_CONFIG)
        prod = compose(pi, sigma)
        res = nilpotency(prod) if not prod.is_zero() else None
        report = {
            "schema": SCHEMA,
            "command": "interpret",
            "backend": "goi1",
            "status": "ok",
            "sequent": [fmt(f) for f in sequent],
            "addresses": [{"formula": fmt(s.formula), "word": s.word or "e", "slot": s.slot} for s in plan.sites],
            "proof_links": len(pi.cyls) + len(pi.table),
            "cut_links": len(sigma.cyls) + len(sigma.table),
            "cut_product_nilpotency": None if res is None else {"kind": res.kind, "degree": res.degree},
        }
        return _emit(report, args.out, EXIT_OK)

    # matricial backend
    if args.basis in (None, "default"):
        basis_text = None
    elif (basis_text := _read(args.basis)) is None:
        return EXIT_CONFIG
    try:
        basis = default_basis() if basis_text is None else parse_basis(basis_text)
    except ProofSyntaxError as exc:
        return _emit({"schema": SCHEMA, "command": "interpret", "status": "syntax-error", "error": str(exc)}, args.out, EXIT_SYNTAX)
    except GoiError as exc:
        print(f"config-error: bad basis: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        plan = allocate_matricial(proof, basis)
        project = interpret_mall_matricial(proof, basis, plan)
    except MissingVariableError as exc:
        return _emit({"schema": SCHEMA, "command": "interpret", "status": "config-error", "error": str(exc)}, args.out, EXIT_CONFIG)
    except GoiError as exc:
        return _emit({"schema": SCHEMA, "command": "interpret", "status": "error", "error": str(exc)}, args.out, EXIT_PROPERTY)
    report_p = is_promising(project)
    witnesses = sequent_dual_witnesses(plan, basis)
    rows = orthogonal_witness_suite(project, witnesses)
    coverage = witnesses.coverage
    support = len(project.op.table) if project.dialectal.is_symbolic else int((abs(project.dialectal.dense_payload().mat) > 1e-12).sum())
    report = {
        "schema": SCHEMA,
        "command": "interpret",
        "backend": "matricial",
        # no witness was measured: nothing was tested, so nothing passed
        "status": "ok" if rows else "vacuous",
        "sequent": [fmt(f) for f in sequent],
        "carrier": list(project.carrier),
        "wager": project.wager,
        "dialect_blocks": list(project.dialect.blocks),
        "pseudo_trace": list(project.pseudo_trace.weights),
        "operator_support": support,
        "promising": {
            "dialect": report_p.dialect_ok,
            "pseudo_trace": report_p.pseudo_trace_ok,
            "wager": report_p.wager_ok,
            "symmetry": report_p.symmetry_ok,
            "traces": report_p.traces_ok,
        },
        "witness_table": [
            {"witness": r.witness, "sca": r.sca, "verdict": r.verdict, "suspicious": r.suspicious} for r in rows
        ],
        "witness_coverage": {
            "combinations": coverage.combinations,
            "tested": coverage.tested,
            "exhaustive": coverage.exhaustive,
            # one entry per formula of "sequent", in its order
            "sites": [{"family": size, "cap": cap} for size, cap in coverage.sites],
        },
    }
    all_orth = bool(rows) and all(r.verdict == "orthogonal" for r in rows)
    return _emit(report, args.out, EXIT_OK if report_p.all_pass and all_orth else EXIT_PROPERTY)


def cmd_verify(args) -> int:
    try:
        records = run_suite(args.suite, args.seed, args.trials)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG
    statuses = {r.status for r in records}
    # a check short of instances violated nothing: only a failed record makes the suite fail
    status = "fail" if "fail" in statuses else "indeterminate" if "indeterminate" in statuses else "pass"
    report = {
        "schema": SCHEMA,
        "command": "verify",
        "suite": args.suite,
        "seed": args.seed,
        "trials": args.trials,
        "checks": _records_to_json(records),
        "status": status,
    }
    return _emit(report, args.out, EXIT_OK if status == "pass" else EXIT_PROPERTY)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: every parse starts from a fresh namespace."""
    parser = argparse.ArgumentParser(prog="goi", description="Proof-as-operator engine: check, interpret, verify.")
    parser.add_argument("-v", "--verbose", action="store_true", help="log the library's warnings to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="parse and rule-check a proof file")
    p_check.add_argument("proof")
    p_check.add_argument("--out", default=None, help="write the JSON report here")
    p_check.set_defaults(func=cmd_check)

    p_int = sub.add_parser("interpret", help="interpret a proof against a basis")
    p_int.add_argument("proof")
    p_int.add_argument("basis", nargs="?", default="default", help="basis file, or 'default'")
    p_int.add_argument("--backend", choices=("goi1", "matricial"), default="matricial")
    p_int.add_argument("--out", default=None)
    p_int.set_defaults(func=cmd_interpret)

    p_ver = sub.add_parser("verify", help="run the property suites")
    p_ver.add_argument("--suite", choices=("identities", "coherence", "soundness", "all"), default="all")
    p_ver.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED)
    p_ver.add_argument("--trials", type=int, default=100)
    p_ver.add_argument("--out", default=None)
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        struct_tol()
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG
    if not args.verbose:
        return args.func(args)
    # warnings of the goi loggers (a complex residue in a measurement determinant) go to stderr for this call
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    handler.setLevel(logging.WARNING)
    logger = logging.getLogger("goi")
    logger.addHandler(handler)
    try:
        return args.func(args)
    finally:
        logger.removeHandler(handler)


if __name__ == "__main__":
    sys.exit(main())
