import json

import pytest

from goi.cli import EXIT_CONFIG, EXIT_OK, EXIT_PROPERTY, EXIT_RULE, EXIT_SYNTAX, main
from goi.logic.syntax import MAX_NESTING


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


class TestCheck:
    def test_valid_axiom(self, tmp_path, capsys):
        path = write(tmp_path, "p.sexp", "(ax X1)")
        assert main(["check", path]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == "goi-report/1"
        assert report["sequent"] == ["X1^", "X1"]

    def test_syntax_error(self, tmp_path, capsys):
        path = write(tmp_path, "p.sexp", "(tensor (ax X1)")
        assert main(["check", path]) == EXIT_SYNTAX
        assert json.loads(capsys.readouterr().out)["status"] == "syntax-error"

    def test_rule_error(self, tmp_path, capsys):
        path = write(tmp_path, "p.sexp", "(par 0 0 (ax X1))")
        assert main(["check", path]) == EXIT_RULE
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "rule-error"

    def test_missing_file(self, tmp_path):
        assert main(["check", str(tmp_path / "nope.sexp")]) == EXIT_CONFIG


class TestInterpret:
    def test_goi1_backend(self, tmp_path, capsys):
        path = write(tmp_path, "p.sexp", "(cut X1 (ax X1) (ax X1))")
        assert main(["interpret", path, "--backend", "goi1"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["cut_product_nilpotency"]["kind"] == "nilpotent"
        assert report["cut_links"] == 2

    def test_matricial_backend(self, tmp_path, capsys):
        path = write(tmp_path, "p.sexp", "(with (ax X1) (ax X1))")
        assert main(["interpret", path]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert all(report["promising"].values())
        assert report["witness_table"]
        assert all(r["verdict"] == "orthogonal" for r in report["witness_table"])

    def test_missing_variable_is_config_error(self, tmp_path, capsys):
        path = write(tmp_path, "p.sexp", "(ax X9)")
        assert main(["interpret", path]) == EXIT_CONFIG

    def test_custom_basis_file(self, tmp_path, capsys):
        proof = write(tmp_path, "p.sexp", "(ax X1)")
        basis = write(
            tmp_path,
            "b.sexp",
            "(basis (var X1 1 (primal (project 0.7 zero)) (dual (project 0.9 zero))))",
        )
        assert main(["interpret", proof, basis]) == EXIT_OK

    @pytest.mark.parametrize(
        "spec,message",
        [("(scalar 2.0)", "dialectal operator must be a contraction"), ("(scalar nan)", "operator entries must be finite")],
    )
    def test_bad_basis_witness_is_config_error(self, tmp_path, capsys, spec, message):
        proof = write(tmp_path, "p.sexp", "(ax X1)")
        basis = write(tmp_path, "b.sexp", f"(basis (var X1 1 (primal (project 0.7 zero)) (dual (project 0.9 {spec}))))")
        assert main(["interpret", proof, basis]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("config-error") and message in captured.err

    @pytest.mark.parametrize(
        "basis,token",
        [
            ("(basis (var X1 1 (primal (project abc zero)) (dual (project 0.9 zero))))", "abc"),
            ("(basis (var X1 abc (primal (project 0.7 zero)) (dual (project 0.9 zero))))", "abc"),
            ("(basis (var X1 1 foo))", "foo"),
            ("(basis (var X1 1 ()))", "()"),
            ("(basis (var X1 1 (primal (project 0.7 zero)) (dual (project 0.9 (scalar x)))))", "x"),
            ("(basis ((var) X1 1))", "((var)"),
            ("(basis (var X1 1 (primal (project 0.7 zero)) (dual (project 0.9 (scalar)))))", "(scalar"),
        ],
    )
    def test_malformed_basis_is_syntax_error(self, tmp_path, capsys, basis, token):
        proof = write(tmp_path, "p.sexp", "(ax X1)")
        path = write(tmp_path, "b.sexp", basis)
        assert main(["interpret", proof, path]) == EXIT_SYNTAX
        report = json.loads(capsys.readouterr().out)
        # the error names the line and column of the offending token
        col = basis.index(token) + 1
        assert report["status"] == "syntax-error" and f"(line 1, column {col})" in report["error"]

    def test_empty_witness_table_is_vacuous(self, tmp_path, capsys):
        proof = write(tmp_path, "p.sexp", "(ax X1)")
        basis = write(tmp_path, "b.sexp", "(basis (var X1 1 (primal (project 0.7 zero))))")
        assert main(["interpret", proof, basis]) == EXIT_PROPERTY
        report = json.loads(capsys.readouterr().out)
        assert report["witness_table"] == [] and report["status"] == "vacuous"

    def test_report_written_to_file(self, tmp_path):
        proof = write(tmp_path, "p.sexp", "(ax X1)")
        out = tmp_path / "report.json"
        assert main(["interpret", proof, "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["backend"] == "matricial"


class TestVerify:
    def test_soundness_suite(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["verify", "--suite", "soundness", "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["status"] == "pass"
        assert {c["name"] for c in report["checks"]} == {"mll-exact-soundness", "mall-property-soundness"}

    def test_deterministic_reports(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        main(["verify", "--suite", "soundness", "--seed", "7", "--out", str(a)])
        main(["verify", "--suite", "soundness", "--seed", "7", "--out", str(b)])
        ja = json.loads(a.read_text())
        jb = json.loads(b.read_text())
        for rec in ja["checks"]:
            rec["data"].pop("elapsed_s", None)
        for rec in jb["checks"]:
            rec["data"].pop("elapsed_s", None)
        assert ja == jb

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one_is_config_error(self, capsys, trials):
        assert main(["verify", "--suite", "soundness", "--trials", trials]) == EXIT_CONFIG
        assert "trials must be at least 1" in capsys.readouterr().err

    def test_unknown_suite(self):
        with pytest.raises(SystemExit):
            main(["verify", "--suite", "bogus"])

    def test_short_check_is_indeterminate_not_fail(self, tmp_path, monkeypatch):
        from goi import verify
        from goi.errors import GoiError

        def rejected(*args):
            raise GoiError("rejected draw")

        monkeypatch.setattr(verify, "adjunction_residual_hyp", rejected)
        out = tmp_path / "report.json"
        assert main(["verify", "--suite", "identities", "--trials", "5", "--out", str(out)]) == EXIT_PROPERTY
        report = json.loads(out.read_text())
        statuses = {c["name"]: c["status"] for c in report["checks"]}
        assert statuses["adjunction-hyp"] == "indeterminate"
        assert report["status"] == "indeterminate"


class TestBoundaries:
    @pytest.mark.parametrize("tol", ["abc", "-1"])
    @pytest.mark.parametrize("command", ["check", "interpret", "verify"])
    def test_bad_goi_tol_is_config_error(self, tmp_path, capsys, monkeypatch, tol, command):
        path = write(tmp_path, "p.sexp", "(ax X1)")
        monkeypatch.setenv("GOI_TOL", tol)
        argv = {"check": ["check", path], "interpret": ["interpret", path], "verify": ["verify", "--suite", "soundness"]}
        assert main(argv[command]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "GOI_TOL must be a finite positive number" in err

    def test_deep_nesting_is_syntax_error(self, tmp_path, capsys):
        text = "(ax X1)"
        for _ in range(3000):
            text = f"(cut X1 {text} (ax X1))"
        path = write(tmp_path, "deep.sexp", text)
        for argv in (["check", path], ["interpret", path, "--backend", "goi1"], ["interpret", path]):
            assert main(argv) == EXIT_SYNTAX
            report = json.loads(capsys.readouterr().out)
            assert report["status"] == "syntax-error" and f"deeper than {MAX_NESTING}" in report["error"]

    def test_nesting_at_the_cap_is_read(self, tmp_path, capsys):
        # n cuts nest n + 1 lists deep
        text = "(ax X1)"
        for _ in range(MAX_NESTING - 1):
            text = f"(cut X1 {text} (ax X1))"
        path = write(tmp_path, "p.sexp", text)
        assert main(["interpret", path, "--backend", "goi1"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["cut_product_nilpotency"]["kind"] == "nilpotent"

    def test_balanced_tensor_of_1024_axioms(self, tmp_path, capsys):
        def balanced(n):
            return "(ax X1)" if n == 1 else f"(tensor {balanced(n // 2)} {balanced(n - n // 2)})"

        path = write(tmp_path, "p.sexp", balanced(1024))
        assert main(["interpret", path, "--backend", "goi1"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert len(report["addresses"]) == 1025 and report["cut_product_nilpotency"] is None
