import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goi.config import struct_tol
from goi.errors import CarrierError
from goi.groupoid import Idx, PartialInjectionOp
from goi.linalg import DenseOperator
from goi.measurement import (
    Dialect,
    DialectalOperator,
    PseudoTrace,
    dial_labels,
    sca_mat,
)
from goi.projects import (
    ConductWitnessSet,
    Delocation,
    Project,
    build_fax,
    deloc_project,
    extend_carrier,
    is_promising,
    make_project,
    obs_equiv,
    orthogonal_witness_suite,
    plug_project,
    scale_project,
    sum_lambda,
    tensor_project,
    with_bar,
    zero_project,
)

from conftest import hermitian_contraction, random_dialectal
from oracles import build_with_project, loop_deloc_payload, loop_sum_lambda_payload, loop_traces_ok


def fax_on(prim, a, b):
    return build_fax(Delocation.from_pairs([prim], [a]), Delocation.from_pairs([prim], [b]))


class TestTensorProject:
    def test_zero_tensor_zero(self):
        t = tensor_project(zero_project((0,)), zero_project((1,)))
        assert t.wager == 0.0 and set(t.carrier) == {0, 1}

    def test_wager_rule(self):
        a = make_project((0,), 1.0, np.zeros((1, 1)))
        b = make_project((1,), 2.0, np.zeros((1, 1)))
        assert tensor_project(a, b).wager == pytest.approx(3.0)

    def test_fax_tensor_fax_is_symmetry(self):
        t = tensor_project(fax_on(-11, 0, 1), fax_on(-12, 2, 3))
        assert is_promising(t).all_pass
        assert len(t.op.table) == 4

    def test_overlap_rejected(self):
        with pytest.raises(CarrierError):
            tensor_project(zero_project((0,)), zero_project((0,)))


class TestPlugProject:
    def test_promising_plug_wager_zero(self):
        f = fax_on(-21, 0, 1)
        g = fax_on(-22, 1, 2)
        out = plug_project(f, g)
        assert out.wager == 0.0
        assert is_promising(out).all_pass

    def test_empty_carrier_unit(self, rng):
        f = make_project((0, 1), 0.25, hermitian_contraction(rng, 2, 0.7))
        unit = zero_project(())
        out = plug_project(f, unit)
        assert out.wager == pytest.approx(f.wager)
        assert np.allclose(out.dialectal.dense_payload().mat, f.dialectal.dense_payload().mat)

    def test_fax_fax_identity_of_composition(self):
        f = fax_on(-23, 10, 11)
        g = fax_on(-24, 11, 12)
        out = plug_project(f, g)
        assert out.op == PartialInjectionOp.from_table({10: 12, 12: 10})


class TestSumAndExtend:
    def test_inflation_instance(self, rng):
        a = make_project((0, 1), 0.4, hermitian_contraction(rng, 2, 0.6))
        infl = sum_lambda(a, 1.0, zero_project((0, 1)))
        assert infl.dialect.blocks == (1, 1)
        assert infl.pseudo_trace.weights == (1.0, 1.0)
        assert infl.wager == pytest.approx(0.4)

    def test_extend_restrict_roundtrip(self, rng):
        a = make_project((0, 1), 0.4, hermitian_contraction(rng, 2, 0.6))
        ext = extend_carrier(a, (7, 8))
        assert ext.wager == a.wager
        assert ext.carrier == (0, 1, 7, 8)
        payload = ext.dialectal.dense_payload()
        back = payload.restrict(a.dialectal.dense_payload().carrier)
        assert np.allclose(back.mat, a.dialectal.dense_payload().mat)
        # the extension is zero-padded: nothing else survives on the fresh locations
        assert np.abs(payload.mat).sum() == pytest.approx(np.abs(back.mat).sum())

    def test_sum_sca_expansion(self, rng):
        # sca(a + lambda 0, t) = sca(a, t) + lambda * wager(t)
        a = make_project((0, 1), 0.3, hermitian_contraction(rng, 2, 0.6))
        t = make_project((0, 1), 0.8, hermitian_contraction(rng, 2, 0.5))
        for lam in (1.0, 2.5):
            infl = sum_lambda(a, lam, zero_project((0, 1)))
            assert sca_mat(infl, t) == pytest.approx(sca_mat(a, t) + lam * t.wager, abs=1e-10)


class TestFax:
    def test_swap_shape(self):
        f = fax_on(-31, 5, 9)
        assert f.op == PartialInjectionOp.from_table({5: 9, 9: 5})

    def test_promising(self):
        assert is_promising(fax_on(-32, 0, 1)).all_pass

    def test_size_two_carrier(self):
        th = Delocation.from_pairs([-41, -42], [0, 1])
        ph = Delocation.from_pairs([-41, -42], [2, 3])
        f = build_fax(th, ph)
        assert is_promising(f).all_pass
        assert f.op.apply(Idx(0)) == (Idx(2), 1.0 + 0j)
        assert f.op.apply(Idx(3)) == (Idx(1), 1.0 + 0j)


class TestWithBar:
    def test_two_copies_shape(self):
        f1 = fax_on(-51, 0, 1)
        f2 = fax_on(-52, 2, 1)  # shares location 1 as context
        w = with_bar(f1, f2)
        assert w.dialect.blocks == (1, 1)
        assert w.pseudo_trace.weights == (0.5, 0.5)
        assert w.wager == 0.0

    def test_kappa_unit(self):
        f1 = fax_on(-53, 0, 1)
        f2 = fax_on(-54, 2, 3)
        w = with_bar(f1, f2)
        assert w.pseudo_trace.unit() == pytest.approx(1.0)

    def test_promising_after_embedding(self):
        w = with_bar(fax_on(-55, 0, 1), fax_on(-56, 2, 3))
        assert is_promising(w).all_pass

    def test_nested_uneven_weights_still_promising(self):
        inner = with_bar(fax_on(-57, 0, 1), fax_on(-58, 2, 3))
        outer = with_bar(inner, fax_on(-59, 4, 5))
        assert outer.pseudo_trace.weights == (0.25, 0.25, 0.5)
        assert is_promising(outer).all_pass


class TestWithProject:
    def _setup(self):
        t1 = Delocation.from_pairs([100], [104])
        t2 = Delocation.from_pairs([101], [105])
        t3 = Delocation.from_pairs([103], [106])
        ph = Delocation.from_pairs([100], [102])
        return t1, t2, t3, ph

    def test_is_partial_symmetry_and_promising(self):
        W = build_with_project(*self._setup())
        rep = is_promising(W)
        assert rep.all_pass
        assert W.dialect.blocks == (1, 1)
        assert W.pseudo_trace.weights == (0.5, 0.5)

    def test_distributes_plugs(self, rng):
        t1, t2, t3, ph = self._setup()
        W = build_with_project(t1, t2, t3, ph)
        f1 = make_project((100, 101), 0.0, hermitian_contraction(rng, 2, 0.8))
        f2 = make_project((102, 103), 0.0, hermitian_contraction(rng, 2, 0.8))
        f = sum_lambda(
            tensor_project(f1, zero_project((102, 103))),
            1.0,
            tensor_project(f2, zero_project((100, 101))),
        )
        a = make_project((100,), 0.0, hermitian_contraction(rng, 1, 0.6))
        lhs = plug_project(plug_project(W, f), deloc_project(t1, a))
        f1a = plug_project(f1, a)
        f2a = plug_project(f2, deloc_project(ph, a))
        rhs = sum_lambda(
            scale_project(0.5, tensor_project(deloc_project(t2, f1a), zero_project((106,)))),
            1.0,
            scale_project(0.5, tensor_project(deloc_project(t3, f2a), zero_project((105,)))),
        )
        assert lhs.wager == pytest.approx(rhs.wager, abs=1e-10)
        rhs_inflated = sum_lambda(rhs, 1.0, zero_project(tuple(rhs.carrier)))
        probes = tuple(make_project((105, 106), 0.4 + 0.2 * k, hermitian_contraction(rng, 2, 0.5)) for k in range(4))
        ws = ConductWitnessSet((105, 106), probes)
        assert obs_equiv(lhs, rhs_inflated, ws, tol=1e-9)


class TestPromisingChecker:
    def test_fax_passes_all_five(self):
        rep = is_promising(fax_on(-61, 0, 1))
        assert rep.all_pass and rep.failures() == ()

    def test_projection_candidate_fails_traces(self):
        rep = is_promising(make_project((0, 1), 0.0, np.eye(2)))
        assert not rep.traces_ok
        assert rep.symmetry_ok

    def test_dialect_swap_candidate_fails_traces(self):
        d2 = Dialect((2,))
        lab = dial_labels((0, 1), 2)
        mat = np.zeros((4, 4), dtype=complex)
        for loc in (0, 1):
            i, j = lab.index((loc, 0)), lab.index((loc, 1))
            mat[i, j] = mat[j, i] = 1
        p = Project(0.0, DialectalOperator((0, 1), d2, PseudoTrace((1.0,)), DenseOperator(lab, mat)))
        rep = is_promising(p)
        assert rep.symmetry_ok and not rep.traces_ok

    def test_wager_fails(self):
        rep = is_promising(make_project((0,), 0.5, np.zeros((1, 1))))
        assert not rep.wager_ok

    def test_nonnormalised_pseudo_trace_fails(self):
        p = Project(0.0, DialectalOperator((0,), Dialect((1,)), PseudoTrace((0.7,)), DenseOperator(dial_labels((0,), 1), np.zeros((1, 1)))))
        rep = is_promising(p)
        assert not rep.pseudo_trace_ok

    def test_flipped_sign_fax_fails_symmetry(self):
        f = fax_on(-62, 0, 1)
        table = dict(f.op.table)
        src, (dst, w) = next(iter(table.items()))
        table[src] = (dst, -w)
        with pytest.raises(CarrierError, match="hermitian"):
            DialectalOperator(f.carrier, f.dialect, f.pseudo_trace, PartialInjectionOp(table))
        # refused where it enters; built unchecked, the success checker catches it on its own
        mutated = Project(0.0, DialectalOperator._built(f.carrier, f.dialect, f.pseudo_trace, PartialInjectionOp(table)))
        rep = is_promising(mutated)
        assert not rep.symmetry_ok


class TestWitnessSuite:
    def test_empty_set(self):
        rows = orthogonal_witness_suite(zero_project((0,)), ConductWitnessSet((0,), ()))
        assert rows == []

    def test_zero_project_against_wagered_witness(self):
        t = make_project((0,), 0.9, np.zeros((1, 1)))
        rows = orthogonal_witness_suite(zero_project((0,)), ConductWitnessSet((0,), (t,)))
        assert rows[0].verdict == "orthogonal"
        assert rows[0].sca == pytest.approx(0.9)

    def test_obs_equiv_reflexive(self, rng):
        a = make_project((0, 1), 0.2, hermitian_contraction(rng, 2, 0.6))
        t = make_project((0, 1), 0.7, hermitian_contraction(rng, 2, 0.5))
        assert obs_equiv(a, a, ConductWitnessSet((0, 1), (t,)))

    def test_lemma_decomposition(self, rng):
        f1 = fax_on(-71, 0, 1)
        f2 = build_fax(Delocation.from_pairs([-72], [2]), Delocation.from_pairs([-72], [1]))
        wb = with_bar(f1, f2)
        dec = sum_lambda(
            scale_project(0.5, tensor_project(f1, zero_project((2,)))),
            1.0,
            scale_project(0.5, tensor_project(f2, zero_project((0,)))),
        )
        probes = tuple(make_project((0, 1, 2), 0.5 + 0.3 * k, hermitian_contraction(rng, 3, 0.5)) for k in range(3))
        assert obs_equiv(wb, dec, ConductWitnessSet((0, 1, 2), probes), tol=1e-10)


class TestDelocation:
    def test_roundtrip(self):
        th = Delocation.from_pairs([0, 1], [10, 11])
        assert th.map_location(0) == 10
        back = th.inverse()
        assert back.map_location(10) == 0

    def test_deloc_preserves_sca(self, rng):
        a = make_project((0, 1), 0.2, hermitian_contraction(rng, 2, 0.6))
        t = make_project((0, 1), 0.7, hermitian_contraction(rng, 2, 0.5))
        th = Delocation.from_pairs([0, 1], [20, 21])
        assert sca_mat(deloc_project(th, a), deloc_project(th, t)) == pytest.approx(sca_mat(a, t), abs=1e-12)


DIALECTS = (Dialect((1,)), Dialect((2,)), Dialect((1, 1)), Dialect((2, 1)), Dialect((1, 2, 1)))
# the phases a delocation carries: products of the unit phases of from_pairs and their adjoints
GROUP_PHASES = (1.0, -1.0, 1j, -1j)


class TestIndexArraysAgainstLoops:
    """Payloads built by index arrays, entry for entry equal to the loops they replace."""

    @given(st.integers(0, 2**32 - 1), st.sampled_from(DIALECTS), st.integers(1, 4), st.lists(st.sampled_from(GROUP_PHASES), min_size=4, max_size=4))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_deloc_project(self, seed, dialect, n, phases):
        a = Project(0.3, random_dialectal(np.random.default_rng(seed), tuple(range(n)), dialect, False))
        theta = Delocation.from_pairs(range(n), range(10, 10 + n), phases[:n])
        assert np.array_equal(deloc_project(theta, a).dialectal.op.mat, loop_deloc_payload(theta, a))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 4))
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_deloc_project_any_phase(self, seed, n):
        # a phase off the unit group may round differently in the last bit in a vectorised product
        rng = np.random.default_rng(seed)
        a = Project(0.3, random_dialectal(rng, tuple(range(n)), Dialect((1, 2)), False))
        theta = Delocation.from_pairs(range(n), range(10, 10 + n), list(np.exp(1j * rng.uniform(0, 2 * np.pi, n))))
        assert np.allclose(deloc_project(theta, a).dialectal.op.mat, loop_deloc_payload(theta, a), rtol=0, atol=1e-15)

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(DIALECTS),
        st.sampled_from(DIALECTS),
        st.sampled_from(("dense", "symbolic")),
        st.sampled_from((((0, 1, 2), (0, 1, 2)), ((0, 1, 2), (2, 0, 1)), ((0, 1), (1, 0)))),
    )
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_sum_lambda(self, seed, da, db, kind_b, carriers):
        rng = np.random.default_rng(seed)
        a = Project(0.1, random_dialectal(rng, carriers[0], da, False))
        b = Project(0.2, random_dialectal(rng, carriers[1], db, kind_b == "symbolic"))
        assert np.array_equal(sum_lambda(a, 0.5, b).dialectal.op.mat, loop_sum_lambda_payload(a, b))

    @given(st.integers(0, 2**32 - 1), st.sampled_from(DIALECTS), st.integers(1, 4), st.floats(0.0, 1.0))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_traces_ok(self, seed, dialect, n, sparsity):
        # zero out entries at random so that both verdicts occur
        rng = np.random.default_rng(seed)
        d = random_dialectal(rng, tuple(range(n)), dialect, False)
        keep = np.triu(rng.uniform(size=d.op.mat.shape) < sparsity)
        mat = d.op.mat * (keep | keep.T)
        op = DenseOperator(d.op.carrier, mat / max(1.0, np.linalg.norm(mat, 2)))
        p = Project(0.0, DialectalOperator(d.carrier, d.dialect, d.pseudo_trace, op))
        assert is_promising(p).traces_ok == loop_traces_ok(op, struct_tol())


# dialects with a block of size 2 or more, where a wrong index could mix coordinates of one location
WIDE_DIALECTS = (Dialect((2,)), Dialect((2, 1)), Dialect((1, 2, 1)))
KIND = st.sampled_from((False, True))  # symbolic payload?


def checked(p: Project) -> DialectalOperator:
    """The result rebuilt through the checking constructor."""
    d = p.dialectal
    return DialectalOperator(d.carrier, d.dialect, d.pseudo_trace, d.op)


def unimodular(rng, n):
    return list(np.exp(1j * rng.uniform(0, 2 * np.pi, n)))


class TestInvariantsByConstruction:
    """Results the algebra builds unchecked pass the constructor's checks."""

    @given(st.integers(0, 2**32 - 1), st.sampled_from(WIDE_DIALECTS), st.sampled_from(WIDE_DIALECTS), KIND, KIND)
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_tensor_project(self, seed, da, db, sym_a, sym_b):
        rng = np.random.default_rng(seed)
        a = Project(0.1, random_dialectal(rng, (0, 1), da, sym_a))
        b = Project(0.2, random_dialectal(rng, (2, 3, 4), db, sym_b))
        checked(tensor_project(a, b))

    @given(st.integers(0, 2**32 - 1), st.sampled_from(WIDE_DIALECTS), KIND)
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_deloc_extend_scale(self, seed, dialect, sym):
        rng = np.random.default_rng(seed)
        a = Project(0.3, random_dialectal(rng, (0, 1, 2), dialect, sym))
        theta = Delocation.from_pairs((0, 1, 2), (12, 10, 11), unimodular(rng, 3))
        checked(deloc_project(theta, a))
        checked(extend_carrier(a, (5, 6)))
        checked(scale_project(rng.uniform(0.1, 3.0) * rng.choice((-1.0, 1.0)), a))

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(WIDE_DIALECTS),
        st.sampled_from(WIDE_DIALECTS),
        KIND,
        KIND,
        st.sampled_from((-2.0, -0.5, 0.5, 1.0, 2.5)),
    )
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_sum_lambda_and_with_bar(self, seed, da, db, sym_a, sym_b, lam):
        rng = np.random.default_rng(seed)
        a = Project(0.1, random_dialectal(rng, (0, 1, 2), da, sym_a))
        b = Project(0.2, random_dialectal(rng, (2, 0, 1), db, sym_b))
        checked(sum_lambda(a, lam, b))
        theta1 = Delocation.from_pairs((0, 1, 2), (10, 11, 12), unimodular(rng, 3))
        theta2 = Delocation.from_pairs((0, 1, 2), (10, 11, 13), unimodular(rng, 3))
        checked(with_bar(a, b, theta1, theta2))

    def test_first_densification_checks_a_table(self):
        # a table is checked for self-adjointness where it enters, as a dense payload is
        with pytest.raises(CarrierError, match="hermitian"):
            DialectalOperator((0, 1), Dialect((1,)), PseudoTrace((1.0,)), PartialInjectionOp.from_table({0: 1}))
        # one arrow built unchecked is still refused at its first densification
        arrow = DialectalOperator._built((0, 1), Dialect((1,)), PseudoTrace((1.0,)), PartialInjectionOp.from_table({0: 1}))
        with pytest.raises(CarrierError, match="hermitian"):
            arrow.as_dense()
        with pytest.raises(CarrierError, match="hermitian"):
            tensor_project(Project(0.0, arrow), zero_project((2, 3)))
        with pytest.raises(CarrierError, match="hermitian"):
            sum_lambda(Project(0.0, arrow), 1.0, zero_project((0, 1)))
