"""Checks pinned to the remaining contract surfaces.

The plug expansion oracle (tests/oracles.py) rebuilds the execution as the
four families of alternating words by hand and compares term by term.
The public surface is what the program itself calls: every name that
``goi/__init__.py`` exports is read in the package outside that file and
outside its own definition.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import goi
from goi.execution import plug_dialectal
from goi.groupoid import PartialInjectionOp
from goi.measurement import UNIT_TRACE, Dialect, DialectalOperator, meas_hyp, sca_mat, sca_verdict
from goi.linalg import DenseOperator
from goi.projects import Delocation, build_fax, make_project, plug_project, tensor_project
from conftest import hermitian_contraction
from oracles import four_family_expansion


class TestPlugExpansionOracle:
    def test_two_link_promising_pair(self):
        # f: 0 <-> 1, g: 1 <-> 2, shared location 1
        f = build_fax(Delocation.from_pairs([-81], [0]), Delocation.from_pairs([-81], [1]))
        g = build_fax(Delocation.from_pairs([-82], [1]), Delocation.from_pairs([-82], [2]))
        out = plug_dialectal(f.dialectal, g.dialectal)
        oracle = four_family_expansion(f.dialectal.op, g.dialectal.op, [1])
        assert out.op == oracle

    def test_longer_chain(self):
        u = PartialInjectionOp.from_table({0: 1, 1: 0, 2: 3, 3: 2})
        v = PartialInjectionOp.from_table({1: 2, 2: 1})
        A = DialectalOperator((0, 1, 2, 3), Dialect((1,)), UNIT_TRACE, u)
        B = DialectalOperator((1, 2), Dialect((1,)), UNIT_TRACE, v)
        out = plug_dialectal(A, B)
        oracle = four_family_expansion(u, v, [1, 2])
        assert out.op == oracle


class TestHypVariant:
    def test_hyp_infinite_on_singular(self):
        one = DenseOperator((0,), [[1.0]])
        assert math.isinf(meas_hyp(one, one))

    def test_hyp_paper_pair(self):
        # the 2x2 counterexample: 1 - uv = 2, a finite nonzero determinant measurement
        u = DenseOperator((0, 1), [[0, -1], [-1, 0]])
        v = DenseOperator((0, 1), [[0, 1], [1, 0]])
        assert meas_hyp(u, v) == pytest.approx(-math.log(4.0))
        assert sca_verdict(meas_hyp(u, v))[0] == "orthogonal"

    def test_hyp_zero_on_a_zero_factor(self):
        u = DenseOperator((0, 1), [[0, 1], [1, 0]])
        assert meas_hyp(u, DenseOperator.zeros((1, 2))) == 0.0

    def test_hyp_is_minus_log_abs_det_on_the_union(self, rng):
        # overlapping carriers: each operator is zero-extended to (0, 1, 2, 3) before the product
        for _ in range(20):
            u = DenseOperator((0, 1, 2), rng.normal(size=(3, 3)))
            v = DenseOperator((3, 1, 2), rng.normal(size=(3, 3)))
            ue, ve = np.zeros((4, 4), dtype=complex), np.zeros((4, 4), dtype=complex)
            ue[:3, :3] = u.mat
            ve[np.ix_([3, 1, 2], [3, 1, 2])] = v.mat
            assert meas_hyp(u, v) == pytest.approx(-np.linalg.slogdet(np.eye(4) - ue @ ve)[1], abs=1e-12)


class TestTensorLawTwoLinks:
    def test_fax_instance(self, rng):
        f = build_fax(Delocation.from_pairs([-83], [0]), Delocation.from_pairs([-83], [1]))
        g = build_fax(Delocation.from_pairs([-84], [2]), Delocation.from_pairs([-84], [3]))
        a = make_project((0,), 0.0, hermitian_contraction(rng, 1, 0.5))
        c = make_project((2,), 0.0, hermitian_contraction(rng, 1, 0.5))
        lhs = plug_project(tensor_project(f, g), tensor_project(a, c))
        rhs = tensor_project(plug_project(f, a), plug_project(g, c))
        assert lhs.wager == pytest.approx(rhs.wager, abs=1e-12)
        for k in range(3):
            probe = make_project((1, 3), 0.4 + 0.2 * k, hermitian_contraction(rng, 2, 0.5))
            assert sca_mat(lhs, probe) == pytest.approx(sca_mat(rhs, probe), abs=1e-10)


class TestToleranceOverride:
    def test_goi_tol_env(self, monkeypatch):
        from goi.config import struct_tol

        assert struct_tol() == 1e-9
        monkeypatch.setenv("GOI_TOL", "1e-5")
        assert struct_tol() == 1e-5

    @pytest.mark.parametrize("bad", ["abc", "-1", "0", "nan", "inf"])
    def test_goi_tol_must_be_finite_and_positive(self, monkeypatch, bad):
        from goi.config import struct_tol

        monkeypatch.setenv("GOI_TOL", bad)
        with pytest.raises(ValueError, match="GOI_TOL must be a finite positive number"):
            struct_tol()

    def test_predicates_follow_override(self, monkeypatch):
        almost = DenseOperator((0, 1), [[1.0, 0.0], [0.0, 1e-7]])
        assert not almost.is_projection()
        monkeypatch.setenv("GOI_TOL", "1e-5")
        assert almost.is_projection()


class _Reads(ast.NodeVisitor):
    """Names read outside the body of the definition that bears them."""

    def __init__(self):
        self.names, self.inside = set(), []

    def scope(self, node):
        self.inside.append(node.name)
        self.generic_visit(node)
        self.inside.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = scope

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load) and node.id not in self.inside:
            self.names.add(node.id)


class TestPublicSurface:
    # waits for ROADMAP item 1: the benchmark still times a span of that name
    ALLOWED = {"restrict_outside"}

    def test_every_export_is_read_by_the_program(self):
        package = Path(goi.__file__).resolve().parent
        init = package / "__init__.py"
        exported = {a.name for node in ast.parse(init.read_text()).body if isinstance(node, ast.ImportFrom) for a in node.names}
        reads = _Reads()
        for path in package.rglob("*.py"):
            if path != init:
                reads.visit(ast.parse(path.read_text()))
        assert exported - reads.names - self.ALLOWED == set()
        assert len(exported) > 50 and self.ALLOWED <= exported
