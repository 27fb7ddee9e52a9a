"""Every documented exit code of the CLI, as properties over drawn input.

2: malformed proof or basis text; 3: a rule violation; 4: a bad GOI_TOL,
an unreadable or undecodable file, an unwritable --out or a variable the
basis lacks; 1: a vacuous witness table or an indeterminate suite.  Also
the formula round trip through ``fmt`` and ``parse_formula``.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goi import verify
from goi.cli import EXIT_CONFIG, EXIT_PROPERTY, EXIT_RULE, EXIT_SYNTAX, main
from goi.errors import GoiError
from goi.logic.syntax import Bin, DualVar, Top, Var, Zero, fmt, parse_formula

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)
VARS = st.sampled_from(("X1", "X2", "X3", "X4"))


def formula_texts(names=VARS):
    """Formula texts in the s-expression syntax of proof files."""
    atoms = st.one_of(names, names.map(lambda n: f"(dual {n})"))
    return st.recursive(
        atoms,
        lambda inner: st.builds(lambda c, a, b: f"({c} {a} {b})", st.sampled_from(("tensor", "par", "with", "plus")), inner, inner),
        max_leaves=4,
    )


@st.composite
def proofs(draw, depth=3):
    """(text, sequent length) of a proof that checks."""
    shape = draw(st.sampled_from(("ax", "tensor", "with", "plusl", "plusr") if depth else ("ax",)))
    if shape == "ax":
        return f"(ax {draw(VARS)})", 2
    p, n = draw(proofs(depth - 1))
    if shape == "tensor":
        q, m = draw(proofs(depth - 1))
        return f"(tensor {p} {q})", n + m - 1
    if shape == "with":
        return f"(with {p} {p})", n
    return f"({shape} {draw(formula_texts())} {p})", n


def run(tmp_path_factory, argv_of, text=None, basis=None):
    """main() on files holding the texts; returns the exit code and the report written, if any."""
    d = tmp_path_factory.mktemp("cli")
    proof = d / "p.sexp"
    proof.write_text(text if text is not None else "(ax X1)", encoding="utf-8")
    args = [str(proof)]
    if basis is not None:
        (d / "b.sexp").write_text(basis, encoding="utf-8")
        args.append(str(d / "b.sexp"))
    out = d / "r.json"
    rc = main(argv_of(args) + ["--out", str(out)])
    return rc, json.loads(out.read_text()) if out.exists() else None


class TestSyntaxErrors:
    @given(proofs(), st.data())
    @PROPERTY
    def test_truncated_or_trailing_proof(self, tmp_path_factory, proof, data):
        text, _ = proof
        k = data.draw(st.integers(1, len(text) - 1))
        bad = data.draw(st.sampled_from((text[:k], text + ")", text + " (ax X1)")))
        for command in (["check"], ["interpret"], ["interpret", "--backend", "goi1"]):
            rc, report = run(tmp_path_factory, lambda a: [command[0], *a, *command[1:]], bad)
            assert rc == EXIT_SYNTAX and report["status"] == "syntax-error"

    @given(st.lists(st.sampled_from(("zero", "(scalar 0.5)", "(scalar -0.3)")), min_size=1, max_size=3), st.data())
    @PROPERTY
    def test_truncated_basis(self, tmp_path_factory, specs, data):
        body = " ".join(f"(project 0.7 {s})" for s in specs)
        text = f"(basis (var X1 1 (primal {body}) (dual {body})))"
        bad = text[: data.draw(st.integers(1, len(text) - 1))]
        rc, report = run(tmp_path_factory, lambda a: ["interpret", *a], basis=bad)
        assert rc == EXIT_SYNTAX and report["status"] == "syntax-error"


class TestRuleViolations:
    @given(proofs(), st.data())
    @PROPERTY
    def test_bad_par_positions(self, tmp_path_factory, proof, data):
        text, n = proof
        i = data.draw(st.integers(0, n - 1))
        j = data.draw(st.one_of(st.just(i), st.integers(n, n + 3)))
        for command in ("check", "interpret"):
            rc, report = run(tmp_path_factory, lambda a: [command, *a], f"(par {i} {j} {text})")
            assert rc == EXIT_RULE and report["status"] == "rule-error"


class TestConfigErrors:
    @given(
        st.one_of(st.sampled_from(("abc", "nan", "inf", "-inf", "0", "1e-9x")), st.floats(max_value=0.0, allow_nan=False).map(repr)),
        st.sampled_from(("check", "interpret", "verify")),
    )
    @PROPERTY
    def test_bad_goi_tol(self, tmp_path_factory, tol, command):
        argv = {"check": lambda a: ["check", *a], "interpret": lambda a: ["interpret", *a], "verify": lambda a: ["verify", "--suite", "soundness"]}
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("GOI_TOL", tol)
            rc, report = run(tmp_path_factory, argv[command])
        assert rc == EXIT_CONFIG and report is None

    @given(st.from_regex(r"[a-z]{1,8}", fullmatch=True), st.sampled_from(("check", "interpret", "basis")), st.data())
    @PROPERTY
    def test_unreadable_file(self, tmp_path_factory, name, which, data):
        path = tmp_path_factory.mktemp("none") / f"{name}.sexp"
        if data.draw(st.booleans()):
            # 0xff never occurs in UTF-8, so the file does not decode; else it is missing
            text = data.draw(st.text(max_size=12)).encode("utf-8")
            k = data.draw(st.integers(0, len(text)))
            path.write_bytes(text[:k] + b"\xff" + text[k:])
        unreadable = str(path)
        stderr = io.StringIO()
        with redirect_stderr(stderr):
            if which == "basis":
                rc, report = run(tmp_path_factory, lambda a: ["interpret", *a, unreadable])
            else:
                rc, report = run(tmp_path_factory, lambda a: [which, unreadable])
        assert rc == EXIT_CONFIG and report is None
        assert stderr.getvalue().startswith(f"cannot read {unreadable}: ") and stderr.getvalue().count("\n") == 1

    @given(st.sampled_from(("check", "interpret", "verify")), st.sampled_from(("a directory", "in a missing directory")))
    @PROPERTY
    def test_unwritable_out(self, tmp_path_factory, command, where):
        d = tmp_path_factory.mktemp("out")
        out = d if where == "a directory" else d / "none" / "r.json"
        proof = d / "p.sexp"
        proof.write_text("(ax X1)", encoding="utf-8")
        argv = {"check": ["check", str(proof)], "interpret": ["interpret", str(proof)], "verify": ["verify", "--suite", "soundness", "--trials", "1"]}
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            rc = main(argv[command] + ["--out", str(out)])
        assert rc == EXIT_CONFIG and stdout.getvalue() == ""
        assert stderr.getvalue().startswith(f"cannot write {out}: ") and stderr.getvalue().count("\n") == 1

    @given(st.from_regex(r"[A-Z][A-Za-z0-9]{0,4}", fullmatch=True).filter(lambda v: v not in ("X1", "X2", "X3", "X4")))
    @PROPERTY
    def test_missing_basis_variable(self, tmp_path_factory, name):
        rc, report = run(tmp_path_factory, lambda a: ["interpret", *a], f"(tensor (ax X1) (ax {name}))")
        assert rc == EXIT_CONFIG and report["status"] == "config-error" and name in report["error"]


class TestPropertyFailures:
    @given(st.lists(st.sampled_from(("zero", "(scalar 0.5)", "(scalar -0.3)")), max_size=3))
    @PROPERTY
    def test_empty_dual_family_is_vacuous(self, tmp_path_factory, specs):
        primal = " ".join(f"(project 0.7 {s})" for s in specs)
        rc, report = run(tmp_path_factory, lambda a: ["interpret", *a], "(ax X1)", f"(basis (var X1 1 (primal {primal})))")
        assert rc == EXIT_PROPERTY and report["status"] == "vacuous" and report["witness_table"] == []

    @given(st.lists(formula_texts(), max_size=3))
    @PROPERTY
    def test_top_is_vacuous(self, tmp_path_factory, formulas):
        rc, report = run(tmp_path_factory, lambda a: ["interpret", *a], f"(top {' '.join(formulas)})")
        assert rc == EXIT_PROPERTY and report["status"] == "vacuous"
        assert report["witness_coverage"]["combinations"] == 0

    @given(st.integers(0, 2**32 - 1), st.integers(1, 3))
    @settings(max_examples=8, deadline=None, derandomize=True)
    def test_short_suite_is_indeterminate(self, tmp_path_factory, seed, trials):
        def rejected(*args):
            raise GoiError("rejected draw")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(verify, "adjunction_residual_hyp", rejected)
            rc, report = run(tmp_path_factory, lambda a: ["verify", "--suite", "identities", "--seed", str(seed), "--trials", str(trials)])
        assert rc == EXIT_PROPERTY and report["status"] == "indeterminate"


NAMES = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,5}", fullmatch=True).filter(lambda n: n not in ("top", "zero"))
FORMULAS = st.recursive(
    st.one_of(st.builds(Var, NAMES), st.builds(DualVar, NAMES), st.just(Top()), st.just(Zero())),
    lambda inner: st.builds(Bin, st.sampled_from(("tensor", "par", "with", "plus")), inner, inner),
    max_leaves=8,
)


@given(FORMULAS)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_formula_round_trip(f):
    assert parse_formula(fmt(f)) == f
