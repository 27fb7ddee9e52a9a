"""Basis witnesses held as d v: a diagonal contraction times a partial injection.

The exact measurement of such payloads (one walk over the cycles of the
extended product) is held against the dense measurement of the same
operators, which stays the oracle.
"""

import math
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goi.errors import CarrierError, GoiError
from goi.execution import plug_measured
from goi.groupoid import Idx, PartialInjectionOp, WeightedInjection
from goi.logic.locations import allocate_matricial
from goi.linalg import DenseOperator
from goi.logic import corpus
from goi.logic.matricial import (
    BasisEntry,
    InterpretationBasis,
    WitnessSpec,
    default_basis,
    interpret_mall_matricial,
    sequent_dual_witnesses,
)
from goi.logic.syntax import parse_proof
from goi.measurement import (
    Dialect,
    DialectalOperator,
    PseudoTrace,
    extended_pair,
    is_indeterminate,
    ldet,
    meas_mat,
)
from goi.projects import (
    ConductWitnessSet,
    Delocation,
    Project,
    deloc_project,
    extend_carrier,
    orthogonal_witness_suite,
    sum_lambda,
    tensor_project,
)

from conftest import random_dialectal

VALUES = st.one_of(st.sampled_from((-1.0, -0.8, -0.5, -0.3, 0.0, 0.3, 0.5, 0.8, 1.0)), st.floats(-1.0, 1.0))
DIALECTS = (Dialect((1,)), Dialect((2,)), Dialect((1, 1)), Dialect((2, 1)))


@st.composite
def specs(draw, n):
    kind = draw(st.sampled_from(("zero", "scalar", "swap", "diag") if n >= 2 else ("zero", "scalar", "diag")))
    if kind == "zero":
        return WitnessSpec(0.5, "zero")
    if kind == "diag":
        return WitnessSpec(0.5, "diag", tuple(draw(VALUES) for _ in range(n)))
    return WitnessSpec(0.5, kind, (draw(VALUES),))


@st.composite
def witnesses(draw, carrier, depth=2):
    """A basis witness delocated onto the carrier with random phases, or a plus, tensor or extension of witnesses."""
    n = len(carrier)
    shapes = ["basis"] + (["plus"] if depth else []) + (["tensor", "extend"] if depth and n >= 2 else [])
    shape = draw(st.sampled_from(shapes))
    if shape == "plus":
        lam = draw(st.sampled_from((0.5, 1.0, 2.0, -0.5)))
        return sum_lambda(draw(witnesses(carrier, depth - 1)), lam, draw(witnesses(carrier, depth - 1)))
    if shape in ("tensor", "extend"):
        k = draw(st.integers(1, n - 1))
        left = draw(witnesses(carrier[:k], depth - 1))
        if shape == "extend":
            return extend_carrier(left, carrier[k:])
        return tensor_project(left, draw(witnesses(carrier[k:], depth - 1)))
    basis = InterpretationBasis([BasisEntry("X", n, (draw(specs(n)),), ())])
    source = basis.primitive_carrier("X")
    phases = [complex(np.exp(1j * draw(st.sampled_from((0.0, 0.5, math.pi / 2, math.pi, 2.0))))) for _ in range(n)]
    return deloc_project(Delocation.from_pairs(source, carrier, phases), basis.primal_projects("X")[0])


@st.composite
def interpretations(draw, carrier):
    """A unimodular hermitian table with a random dialect, or another weighted witness."""
    if draw(st.booleans()):
        return draw(witnesses(carrier)).dialectal
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_dialectal(rng, carrier, draw(st.sampled_from(DIALECTS)), symbolic=True)


@st.composite
def pairs(draw):
    carrier = tuple(range(draw(st.integers(1, 4))))
    return draw(interpretations(carrier)), draw(witnesses(carrier)).dialectal


def assert_agree(exact, dense, product):
    """+inf on both sides, or equal finite values.

    The dense gate calls a spectral radius within 1e-12 of 1 "at least 1",
    and straddles 1 just below that, where the exact side still measures
    the cycle: there the product's eigenvalues must come that close to 1.
    """
    if math.isinf(exact):
        assert dense == math.inf
    elif is_indeterminate(dense) or math.isinf(dense):
        assert np.abs(np.linalg.eigvals(product)).max() >= 1.0 - 1e-9
    else:
        assert math.isclose(exact, dense, rel_tol=1e-12, abs_tol=1e-15), (exact, dense)


def weighted(carrier, arrows, d, dialect=Dialect((1,))):
    """A checked dialectal operator on arrows src -> (dst, phase) with the diagonal d."""
    v = PartialInjectionOp({Idx(*s): (Idx(*t), w) for s, (t, w) in arrows.items()})
    op = WeightedInjection(v, {Idx(*i): m for i, m in d.items()})
    return DialectalOperator(carrier, dialect, PseudoTrace((1.0,) * len(dialect.blocks)), op)


class TestExactAgainstDense:
    @given(pairs())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_meas_mat(self, pair):
        A, W = pair
        assert isinstance(W.op, WeightedInjection)
        ext = extended_pair(A.as_dense(), W.as_dense())
        assert_agree(meas_mat(A, W), meas_mat(A.as_dense(), W.as_dense()), ext.a.mat @ ext.b.mat)

    @given(pairs())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_ldet(self, pair):
        _, W = pair
        assert_agree(ldet(W), ldet(W.as_dense()), W.dense_payload().mat)

    @given(pairs())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_plug_goes_dense(self, pair):
        A, W = pair
        try:
            want = plug_measured(A.as_dense(), W.as_dense())
        except GoiError as exc:  # the same refusal is expected on both sides
            with pytest.raises(type(exc)):
                plug_measured(A, W)
            return
        m, out = plug_measured(A, W)
        assert m == want[0]
        assert np.array_equal(out.dense_payload().mat, want[1].dense_payload().mat)

    def test_cycle_values(self):
        # a two-cycle of weights 0.5 and -0.5 against the identity scaled by 0.5: BA has cycles of weight -1/16
        A = weighted((0, 1), {(0, 0): ((1, 0), 1.0), (1, 0): ((0, 0), 1.0)}, {(1, 0): 0.5, (0, 0): 0.5})
        B = weighted((0, 1), {(0, 0): ((0, 0), 1.0), (1, 0): ((1, 0), -1.0)}, {(0, 0): 0.5, (1, 0): 0.5})
        assert meas_mat(A, B) == pytest.approx(-math.log(1 + 1 / 16), rel=1e-15)
        # full moduli on a cycle: spectral radius 1
        C = weighted((0, 1), {(0, 0): ((1, 0), 1.0), (1, 0): ((0, 0), 1.0)}, {(1, 0): 1.0, (0, 0): 1.0})
        assert meas_mat(C, C) == math.inf
        # no cycle: exactly 0
        D = weighted((0, 1, 2), {(0, 0): ((1, 0), 1.0), (1, 0): ((0, 0), 1.0)}, {(1, 0): 0.5, (0, 0): 0.5})
        E = weighted((0, 1, 2), {(2, 0): ((2, 0), 1.0)}, {(2, 0): 0.9})
        assert meas_mat(D, E) == 0.0


class TestRefusedWhereItEnters:
    def test_accepts_hermitian_contraction(self):
        weighted((0, 1), {(0, 0): ((1, 0), 1j), (1, 0): ((0, 0), -1j)}, {(1, 0): 0.5, (0, 0): 0.5})

    @pytest.mark.parametrize(
        "arrows,d,message",
        [
            ({(0, 0): ((1, 0), 1.0)}, {(1, 0): 0.5}, "hermitian"),
            ({(0, 0): ((1, 0), 1j), (1, 0): ((0, 0), 1j)}, {(1, 0): 0.5, (0, 0): 0.5}, "hermitian"),
            ({(0, 0): ((1, 0), 1.0), (1, 0): ((0, 0), 1.0)}, {(1, 0): 0.5, (0, 0): 0.25}, "hermitian"),
            ({(0, 0): ((0, 0), 1.0)}, {(0, 0): 1.5}, "contraction"),
            ({(0, 0): ((0, 0), 1.0)}, {(0, 0): math.nan}, "contraction"),
            ({(0, 0): ((0, 0), 1.0)}, {(1, 0): 0.5}, "range of the injection"),
            ({(0, 0): ((5, 0), 1.0), (5, 0): ((0, 0), 1.0)}, {(5, 0): 0.5, (0, 0): 0.5}, "leaves the carrier"),
        ],
    )
    def test_refused(self, arrows, d, message):
        with pytest.raises(CarrierError, match=message):
            weighted((0, 1), arrows, d)

    def test_mixed_blocks_refused(self):
        with pytest.raises(CarrierError, match="mixes dialect blocks"):
            weighted((0,), {(0, 0): ((0, 1), 1.0), (0, 1): ((0, 0), 1.0)}, {(0, 1): 0.5, (0, 0): 0.5}, Dialect((1, 1)))

    def test_mixed_union_is_checked(self):
        # a one-way table is refused where it enters; built unchecked and joined with a weighted one, it is refused again
        with pytest.raises(CarrierError, match="hermitian"):
            DialectalOperator((0, 1), Dialect((1,)), PseudoTrace((1.0,)), PartialInjectionOp.from_table({0: 1}))
        arrow = DialectalOperator._built((0, 1), Dialect((1,)), PseudoTrace((1.0,)), PartialInjectionOp.from_table({0: 1}))
        w = weighted((2,), {(2, 0): ((2, 0), 1.0)}, {(2, 0): 0.5})
        with pytest.raises(CarrierError, match="hermitian"):
            tensor_project(Project(0.0, arrow), Project(0.0, w))


ZERO_SEQUENTS = (
    ("zero-plusl", "(plusl zero (ax X1))"),
    ("zero-plusr", "(plusr zero (ax X3))"),
    ("zero-with", "(with (plusl zero (ax X1)) (plusl zero (ax X1)))"),
    ("zero-tensor", "(tensor (plusl zero (ax X1)) (ax X2))"),
)


class TestBasisWitnesses:
    def test_default_basis_is_weighted(self):
        basis = default_basis()
        for name in basis.entries:
            for p in basis.primal_projects(name) + basis.dual_projects(name):
                assert isinstance(p.dialectal.op, WeightedInjection)

    @pytest.mark.parametrize("text", ["(with (with (ax X1) (ax X1)) (ax X1))", "(tensor (with (ax X3) (ax X3)) (ax X2))", "(plusl (dual X2) (ax X1))"])
    def test_sequent_witnesses_stay_weighted(self, text):
        basis = default_basis()
        plan = allocate_matricial(parse_proof(text), basis)
        members = sequent_dual_witnesses(plan, basis).members
        assert members and all(isinstance(m.dialectal.op, WeightedInjection) for m in members)

    def test_zero_site_stays_exact(self):
        basis = default_basis()
        plan = allocate_matricial(parse_proof("(plusl zero (ax X1))"), basis)
        members = sequent_dual_witnesses(plan, basis).members
        assert members and not any(isinstance(m.dialectal.op, DenseOperator) for m in members)

    @pytest.mark.parametrize("name, text", corpus.MALL_CORPUS + corpus.MLL_CORPUS + ZERO_SEQUENTS)
    def test_corpus_rows_match_the_dense_witnesses(self, name, text):
        # the dense measurement of the same witnesses is how sequents with a 0 site were measured before
        basis = default_basis()
        proof = parse_proof(text)
        plan = allocate_matricial(proof, basis)
        project = interpret_mall_matricial(proof, basis, plan)
        exact = sequent_dual_witnesses(plan, basis)
        dense = ConductWitnessSet(exact.carrier, tuple(Project(m.wager, m.dialectal.as_dense()) for m in exact.members))
        rows, oracle = orthogonal_witness_suite(project, exact), orthogonal_witness_suite(project, dense)
        assert [r.verdict for r in rows] == [r.verdict for r in oracle]
        for r, o in zip(rows, oracle):
            assert r.sca == o.sca or abs(r.sca - o.sca) <= 1e-12 * abs(o.sca)

    def test_payload_is_read_only(self):
        op = default_basis().dual_projects("X3")[1].dialectal.op
        assert isinstance(op.d, MappingProxyType) and isinstance(op.v.table, MappingProxyType)
        key = next(iter(op.d))
        with pytest.raises(TypeError):
            op.d[key] = 1.0
        with pytest.raises(TypeError):
            op.v.table[key] = (key, 1.0)
