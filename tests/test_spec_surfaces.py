"""Checks pinned to the remaining contract surfaces.

The plug expansion oracle (tests/oracles.py) rebuilds the execution as the
four families of alternating words by hand and compares term by term.
"""

import math

import numpy as np
import pytest

from goi.execution import plug_dialectal
from goi.groupoid import PartialInjectionOp
from goi.measurement import (
    UNIT_TRACE,
    Dialect,
    DialectalOperator,
    meas_hyp,
    orthogonal_hyp,
    sca_hyp,
)
from goi.linalg import DenseOperator
from goi.projects import Delocation, build_fax, make_project, plug_project, tensor_project
from goi.measurement import sca_mat
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
    def test_sca_hyp_wager_only(self):
        a = make_project((0,), 1.2, np.zeros((1, 1)))
        b = make_project((0,), 0.5, np.zeros((1, 1)))
        assert sca_hyp(a, b) == pytest.approx(1.7)

    def test_orthogonal_hyp_paper_pair(self):
        # the 2x2 counterexample: finite nonzero determinant measurement
        a = make_project((0, 1), 0.0, [[0, -1], [-1, 0]])
        b = make_project((0, 1), 0.0, [[0, 1], [1, 0]])
        assert sca_hyp(a, b) == pytest.approx(-math.log(4.0))
        assert orthogonal_hyp(a, b)

    def test_hyp_infinite_on_singular(self):
        a = make_project((0,), 0.0, [[1.0]])
        b = make_project((0,), 0.0, [[1.0]])
        assert math.isinf(meas_hyp(a.dialectal, b.dialectal))


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
