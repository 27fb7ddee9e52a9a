import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from goi.errors import (
    CarrierError,
    DisjointnessError,
    FeedbackSingularError,
    IndeterminateError,
    NotNilpotentError,
    NotOrthogonalError,
)
from goi.execution import (
    InterfaceSplit,
    _resolvent,
    adjunction_residual_hyp,
    adjunction_residual_mat,
    ex_goi1,
    feedback_dense,
    plug_dialectal,
    plug_measured,
    union_dialectal,
)
from goi.groupoid import Idx, PartialInjectionOp, Region, compose, nilpotency
from goi.linalg import DenseOperator, direct_sum, mat_mul, operator_norm, plain_det
from goi.logic.goi1 import interpret_mll_goi1
from goi.logic.syntax import Ax, Cut, DualVar, Par, TensorRule, Var, sequent_of
from goi.measurement import Dialect, DialectalOperator, PseudoTrace, UNIT_TRACE, dial_labels, from_location_matrix, meas_mat, table_matrix
from goi.projects import Project, plug_project

from conftest import hermitian_contraction, random_dialectal
from oracles import (
    associativity_residual,
    explicit_resolvent,
    four_family_expansion,
    series_execution,
    symbolic_product_meas,
    two_pass_plug_project,
)

PHASES = (1.0 + 0j, -1.0 + 0j, 1j, -1j)


def _identity(draw, name: str, cuts: int):
    """Identity on name through a chain of cuts against identity axioms; conclusion (name^, name).

    The last cut is on the variable, which restores that order.
    """
    proof = Ax(name)
    for k in range(cuts):
        f = Var(name) if k == cuts - 1 else draw(st.sampled_from((Var(name), DualVar(name))))
        proof = Cut(f, proof, Ax(name)) if draw(st.booleans()) else Cut(f, Ax(name), proof)
    return proof


def _right_tensor(proofs):
    out = proofs[-1]
    for p in reversed(proofs[:-1]):
        out = TensorRule(p, out)
    return out


@st.composite
def mll_proofs(draw):
    """Cut chains of up to 16 cuts, tensors of short chains, and cuts on a compound formula."""
    names = ["X1", "X2", "X3"][: draw(st.integers(2, 3))]
    shape = draw(st.sampled_from(("chain", "tensor", "compound")))
    if shape == "chain":
        return _identity(draw, names[0], draw(st.integers(1, 16)))
    if shape == "tensor":
        return _right_tensor([_identity(draw, n, draw(st.integers(0, 4))) for n in names])
    # a tensor of identities cut against the par-folded tensor of (chained) identities
    left = _right_tensor([_identity(draw, n, draw(st.integers(0, 3))) for n in names])
    right = _right_tensor([_identity(draw, n, draw(st.integers(0, 3))) for n in names])
    for i in range(len(names) - 1, 0, -1):
        right = Par(i, i + 1, right)
    return Cut(sequent_of(left)[0], left, right)


@st.composite
def tables(draw, pool=range(12), max_size=6):
    """Random finite partial injections with unit phases."""
    size = draw(st.integers(0, max_size))
    src = draw(st.permutations(pool))[:size]
    dst = draw(st.permutations(pool))[:size]
    return PartialInjectionOp({Idx(s): (Idx(d), draw(st.sampled_from(PHASES))) for s, d in zip(src, dst)})


@st.composite
def hermitian_tables(draw, pool=range(12), max_size=6):
    """Random finite partial symmetries: swaps x <-> y with conjugate phases, and fixed points of weight +-1."""
    points = draw(st.permutations(pool))[: draw(st.integers(0, max_size))]
    n_swapped = 2 * draw(st.integers(0, len(points) // 2))
    table = {}
    for x, y in zip(points[0:n_swapped:2], points[1:n_swapped:2]):
        w = draw(st.sampled_from(PHASES))
        table[Idx(x)] = (Idx(y), w)
        table[Idx(y)] = (Idx(x), w.conjugate())
    for x in points[n_swapped:]:
        table[Idx(x)] = (Idx(x), draw(st.sampled_from(PHASES[:2])))
    return PartialInjectionOp(table)


@st.composite
def cylinder_ops(draw, max_size=5):
    """Random partial injections of cylinder monomials on two slots, drawn one clash-free monomial at a time."""
    words = st.text(alphabet="RL", max_size=3)
    monomials = []
    for _ in range(draw(st.integers(0, max_size))):
        m = (draw(words), draw(words), draw(st.sampled_from(PHASES)), draw(st.integers(0, 1)), draw(st.integers(0, 1)))
        try:
            PartialInjectionOp.cylinders(monomials + [m])
        except DisjointnessError:
            continue
        monomials.append(m)
    return PartialInjectionOp.cylinders(monomials)


@st.composite
def mixed_ops(draw):
    """Cylinder monomials plus the finite arrows that meet none of them."""
    base = draw(cylinder_ops(max_size=4))
    indices = st.builds(Idx, st.integers(0, 15), st.integers(0, 1))
    table = {}
    for src, dst, w in draw(st.lists(st.tuples(indices, indices, st.sampled_from(PHASES)), max_size=5)):
        try:
            PartialInjectionOp({**table, src: (dst, w)}, base.cyls)
        except DisjointnessError:
            continue
        table[src] = (dst, w)
    return PartialInjectionOp(table, base.cyls)


def _outcome(fn, *args):
    """The result, the kind of a NotNilpotentError, or the type of another engine error."""
    try:
        return fn(*args)
    except NotNilpotentError as exc:
        return NotNilpotentError, str(exc)
    except (DisjointnessError, ValueError) as exc:
        return type(exc)


def _vanishes_soon(u, v, powers: int = 8) -> bool:
    uv, power = compose(u, v), compose(u, v)
    for _ in range(powers):
        power = compose(uv, power)
    return power.is_zero()


class TestExGoi1:
    def test_empty_cut_returns_operator(self):
        u = PartialInjectionOp.from_table({0: 1, 1: 0})
        out = ex_goi1(u, PartialInjectionOp.zero())
        assert out == u

    def test_two_links_through_cut(self):
        u = PartialInjectionOp.from_table({10: 11, 11: 10, 12: 13, 13: 12})
        sigma = PartialInjectionOp.from_table({11: 12, 12: 11})
        out = ex_goi1(u, sigma)
        assert out == PartialInjectionOp.from_table({10: 13, 13: 10})

    def test_cyclic_cut_raises(self):
        swap = PartialInjectionOp.from_table({11: 12, 12: 11})
        with pytest.raises(NotNilpotentError):
            ex_goi1(swap, swap)

    def test_matches_dense_series(self):
        # same computation through the dense window, entry-exact
        u = PartialInjectionOp.from_table({0: 1, 1: 0, 2: 3, 3: 2})
        sigma = PartialInjectionOp.from_table({1: 2, 2: 1})
        out = ex_goi1(u, sigma)
        window = tuple(Idx(i) for i in range(4))
        ud = table_matrix(u, window).mat
        sd = table_matrix(sigma, window).mat
        proj = np.diag([1.0, 0, 0, 1.0])  # outside the cut
        series = np.zeros((4, 4), dtype=complex)
        term = ud.copy()
        for _ in range(6):
            series += proj @ term @ proj
            term = ud @ sd @ term
        assert np.array_equal(table_matrix(out, window).mat, series)


class TestExGoi1AgainstSeries:
    @given(mll_proofs())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_mll_proofs(self, proof):
        pi, sigma = interpret_mll_goi1(proof)
        assert ex_goi1(pi, sigma) == series_execution(pi, sigma, Region.from_support(sigma))

    @given(tables(), tables())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_finite_tables(self, u, v):
        # cyclic products raise NotNilpotentError with the same kind on both sides
        assert _outcome(ex_goi1, u, v) == _outcome(series_execution, u, v, Region.from_support(v))

    @given(tables(), tables(), st.sets(st.integers(0, 11), max_size=6))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_finite_tables_any_region(self, u, v, points):
        region = Region(points=points)
        assert _outcome(ex_goi1, u, v, region) == _outcome(series_execution, u, v, region)

    @given(cylinder_ops(), cylinder_ops(), st.lists(st.tuples(st.text(alphabet="RL", max_size=2), st.integers(0, 1)), max_size=3))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_cylinder_operators(self, u, v, cylinders):
        # products that do not vanish within a few powers are left to the table cases
        assume(_vanishes_soon(u, v))
        region = Region(cylinders=cylinders)
        assert _outcome(ex_goi1, u, v, region) == _outcome(series_execution, u, v, region)

    @given(
        mixed_ops(),
        mixed_ops(),
        st.lists(st.tuples(st.text(alphabet="RL", max_size=2), st.integers(0, 1)), max_size=2),
        st.lists(st.builds(Idx, st.integers(0, 15), st.integers(0, 1)), max_size=2),
    )
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_mixed_operators(self, u, v, cylinders, points):
        # paths that cross from cylinders to finite arrows, against regions of both kinds
        assume(_vanishes_soon(u, v))
        region = Region(points=points, cylinders=cylinders)
        got, want = _outcome(ex_goi1, u, v, region), _outcome(series_execution, u, v, region)
        if {got, want} == {ValueError, DisjointnessError}:
            # the input needs a restriction with no finite cylinder form and also yields
            # clashing arrows; the two orders of summation meet a different fault first
            return
        assert got == want

    def test_path_refined_by_a_narrower_cylinder(self):
        # u swaps the halves; v moves RR into RL, strictly inside u's range R, so the path
        # L.R -> RR -> RL -> LL survives on the refined domain LR
        u = PartialInjectionOp.cylinders([("R", "L", 1, 0, 0), ("L", "R", 1, 0, 0)])
        v = PartialInjectionOp.cylinder("RL", "RR")
        region = Region(cylinders=[("R", 0)])
        assert ex_goi1(u, v, region) == PartialInjectionOp.cylinder("LL", "LR")
        assert ex_goi1(u, v, region) == series_execution(u, v, region)

    def test_path_from_cylinder_into_finite_arrow(self):
        # 11 = L.5 -> R.5 = 10 through u's cylinder, 10 -> 2 through v's finite arrow,
        # 2 = RL.0 -> LR.0 = 1 through u again: a finite arrow whose source is read off the cylinder
        u = PartialInjectionOp.cylinders([("R", "L", 1, 0, 0), ("LR", "RL", 1j, 0, 0)])
        v = PartialInjectionOp.from_table({10: 2})
        region = Region(cylinders=[("R", 0)])
        assert ex_goi1(u, v, region) == PartialInjectionOp.arrows([(11, 1)], 1j)
        assert ex_goi1(u, v, region) == series_execution(u, v, region)

    def test_cylinder_region_split(self):
        # u: identity, v lives on the even half; only the odd half survives
        u = PartialInjectionOp.cylinder("", "")
        v = PartialInjectionOp.cylinder("RR", "RL")
        out = ex_goi1(u, v, Region(cylinders=[("R", 0)]))
        assert out == series_execution(u, v, Region(cylinders=[("R", 0)]))
        assert out == PartialInjectionOp.cylinder("L", "L")


class TestPlugSymbolicAgainstFourFamilies:
    @given(hermitian_tables(pool=range(4), max_size=4), hermitian_tables(pool=range(2, 6), max_size=4))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_random_tables(self, u, v):
        assume(nilpotency(compose(u, v)).is_nilpotent)
        A = DialectalOperator((0, 1, 2, 3), Dialect((1,)), UNIT_TRACE, u)
        B = DialectalOperator((2, 3, 4, 5), Dialect((1,)), UNIT_TRACE, v)
        assert plug_dialectal(A, B).op == four_family_expansion(u, v, [2, 3])


class TestFeedbackDense:
    def test_zero_feedback_keeps_block(self, rng):
        u = DenseOperator((0, 1, 2, 3), hermitian_contraction(rng, 4, 0.8))
        v = DenseOperator.zeros((2, 3))
        split = InterfaceSplit(kept=frozenset((0, 1)), cut=frozenset((2, 3)))
        w = feedback_dense(u, v, split)
        assert w.max_abs_diff(u.restrict(w.carrier)) == 0.0

    def test_nilpotent_series_oracle(self, rng):
        # uv nilpotent: the resolvent equals the truncated series sandwich
        u = DenseOperator((0, 1, 2, 3), hermitian_contraction(rng, 4, 0.9))
        vm = np.zeros((4, 4), dtype=complex)
        vm[0, 1] = 1.0  # nilpotent, within the cut of v's carrier
        v = DenseOperator((2, 3, 4, 5), (vm + vm.conj().T) * 0)
        vm2 = np.zeros((4, 4), dtype=complex)
        vm2[0, 2] = 0.5
        vm2[2, 0] = 0.5
        v = DenseOperator((2, 3, 4, 5), vm2)
        split = InterfaceSplit(kept=frozenset((0, 1)), cut=frozenset((2, 3)))
        w = feedback_dense(u, v, split)
        carrier = (0, 1, 2, 3, 4, 5)
        ue, ve = u.embed(carrier).mat, v.embed(carrier).mat
        p = np.diag([1.0, 1, 0, 0, 0, 0])
        ppp = np.diag([0.0, 0, 0, 0, 1, 1])
        series = np.zeros((6, 6), dtype=complex)
        term = np.eye(6, dtype=complex)
        for _ in range(40):
            series += term
            term = term @ ue @ ve
        direct = (p + ppp @ ve) @ series @ (ue @ p + ppp)
        dd = DenseOperator(carrier, direct).restrict(w.carrier)
        assert w.max_abs_diff(dd) < 1e-10

    def test_singular_raises(self):
        u = DenseOperator((0, 1), [[0, 1], [1, 0]])
        v = DenseOperator((0, 1), [[0, 1], [1, 0]])
        split = InterfaceSplit(kept=frozenset(), cut=frozenset((0, 1)))
        with pytest.raises(FeedbackSingularError):
            feedback_dense(u, v, split)

    def test_contraction_bound_sampled(self, rng):
        worst = 0.0
        done = 0
        while done < 25:
            u = DenseOperator((0, 1, 2, 3), hermitian_contraction(rng, 4, 0.95))
            v = DenseOperator((2, 3, 4, 5), hermitian_contraction(rng, 4, 0.95))
            split = InterfaceSplit(kept=frozenset((0, 1)), cut=frozenset((2, 3)))
            try:
                w = feedback_dense(u, v, split)
            except FeedbackSingularError:
                continue
            done += 1
            worst = max(worst, operator_norm(w))
        assert worst <= 1.0 + 1e-6

    def test_norm_gate(self):
        u = DenseOperator((0, 1), [[0, 2], [2, 0]])
        v = DenseOperator.zeros((1,))
        with pytest.raises(CarrierError):
            feedback_dense(u, v, InterfaceSplit(kept=frozenset((0,)), cut=frozenset((1,))))


class TestPlugDialectal:
    def test_disjoint_carriers_union(self, rng):
        A = from_location_matrix((0, 1), hermitian_contraction(rng, 2, 0.7))
        B = from_location_matrix((2, 3), hermitian_contraction(rng, 2, 0.7))
        out = plug_dialectal(A, B)
        direct = union_dialectal(A, B)
        assert np.allclose(out.dense_payload().mat, direct.dense_payload().mat)

    def test_zero_on_shared_keeps_block(self, rng):
        A = from_location_matrix((0, 1), hermitian_contraction(rng, 2, 0.7))
        B = from_location_matrix((1, 2), np.zeros((2, 2)))
        out = plug_dialectal(A, B)
        a_kept = A.dense_payload().restrict(((0, 0),))
        got = out.dense_payload().restrict(((0, 0),))
        assert np.allclose(got.mat, a_kept.mat)

    def test_result_dialect_tensors(self, rng):
        dA, dB = Dialect((2,)), Dialect((1, 1))
        A = DialectalOperator((0, 1), dA, PseudoTrace((1.0,)), DenseOperator(dial_labels((0, 1), 2), hermitian_contraction(rng, 4, 0.6)))
        mb = hermitian_contraction(rng, 4, 0.6)
        lab = dial_labels((1, 2), 2)
        for i, (_, ci) in enumerate(lab):
            for j, (_, cj) in enumerate(lab):
                if dB.assignment[ci] != dB.assignment[cj]:
                    mb[i, j] = 0
        mb = (mb + mb.conj().T) / 2
        B = DialectalOperator((1, 2), dB, PseudoTrace((0.5, 0.5)), DenseOperator(lab, mb))
        out = plug_dialectal(A, B)
        assert out.dialect.blocks == dA.tensor(dB).blocks
        assert out.pseudo_trace.weights == A.pseudo_trace.tensor(B.pseudo_trace).weights
        assert set(out.carrier) == {0, 2}

    def test_empty_carriers(self):
        E = from_location_matrix((), np.zeros((0, 0)))
        m, out = plug_measured(E, E)
        assert m == 0.0 and out.carrier == () and out.dense_payload().dim == 0

    def test_spectral_gate(self):
        A = from_location_matrix((0, 1), [[0, 1], [1, 0]])
        B = from_location_matrix((0, 1), [[0, 1], [1, 0]])
        with pytest.raises(NotOrthogonalError):
            plug_dialectal(A, B)

    def test_symbolic_matches_dense(self):
        # identical plug computed on both backends
        u = PartialInjectionOp.from_table({0: 1, 1: 0})
        v = PartialInjectionOp.from_table({1: 2, 2: 1})
        A = DialectalOperator((0, 1), Dialect((1,)), UNIT_TRACE, u)
        B = DialectalOperator((1, 2), Dialect((1,)), UNIT_TRACE, v)
        sym = plug_dialectal(A, B)
        dense = plug_dialectal(A.as_dense(), B.as_dense())
        assert sym.is_symbolic
        assert np.allclose(sym.dense_payload().aligned_to(dense.dense_payload().carrier), dense.dense_payload().mat)


class TestAdjunctions:
    def test_hyp_zero_w(self, rng):
        u = DenseOperator((0, 1, 2, 3), hermitian_contraction(rng, 4, 0.8))
        v = DenseOperator((0, 1), hermitian_contraction(rng, 2, 0.8))
        w = DenseOperator.zeros((2, 3))
        split = InterfaceSplit(kept=frozenset((2, 3)), cut=frozenset((0, 1)))
        assert adjunction_residual_hyp(u, v, w, split) <= 1e-10

    def test_hyp_zero_u(self, rng):
        u = DenseOperator.zeros((0, 1, 2, 3))
        v = DenseOperator((0, 1), hermitian_contraction(rng, 2, 0.8))
        w = DenseOperator((2, 3), hermitian_contraction(rng, 2, 0.8))
        split = InterfaceSplit(kept=frozenset((2, 3)), cut=frozenset((0, 1)))
        assert adjunction_residual_hyp(u, v, w, split) <= 1e-10

    def test_hyp_random(self, rng):
        worst = 0.0
        for _ in range(30):
            u = DenseOperator((0, 1, 2, 3), hermitian_contraction(rng, 4, 0.9))
            v = DenseOperator((0, 1), hermitian_contraction(rng, 2, 0.9))
            w = DenseOperator((2, 3), hermitian_contraction(rng, 2, 0.9))
            split = InterfaceSplit(kept=frozenset((2, 3)), cut=frozenset((0, 1)))
            r = adjunction_residual_hyp(u, v, w, split)
            if not math.isinf(r):
                worst = max(worst, r)
        assert worst <= 1e-6

    def test_mat_empty_h(self, rng):
        F = from_location_matrix((0, 1, 2), hermitian_contraction(rng, 3, 0.8))
        G = from_location_matrix((0, 1, 2), hermitian_contraction(rng, 3, 0.8))
        H = from_location_matrix((), np.zeros((0, 0)))
        r = adjunction_residual_mat(F, G, H)
        assert r <= 1e-9

    def test_mat_random_with_dialect(self, rng):
        worst = 0.0
        for t in range(20):
            F = from_location_matrix(tuple(range(4)), hermitian_contraction(rng, 4, 0.85))
            G = from_location_matrix((0, 1), hermitian_contraction(rng, 2, 0.85))
            if t % 2:
                H = DialectalOperator(
                    (2, 3),
                    Dialect((2,)),
                    PseudoTrace((0.6,)),
                    DenseOperator(dial_labels((2, 3), 2), hermitian_contraction(rng, 4, 0.85)),
                )
            else:
                H = from_location_matrix((2, 3), hermitian_contraction(rng, 2, 0.85))
            r = adjunction_residual_mat(F, G, H)
            if not math.isinf(r):
                worst = max(worst, r)
        assert worst <= 1e-6


class TestAssociativity:
    def test_dense_chain(self, rng):
        a = from_location_matrix((0, 1), hermitian_contraction(rng, 2, 0.7))
        f = from_location_matrix((1, 2), hermitian_contraction(rng, 2, 0.7))
        b = from_location_matrix((2, 3), hermitian_contraction(rng, 2, 0.7))
        assert associativity_residual(a, f, b) <= 1e-8

    def test_symbolic_chain_exact(self):
        a = DialectalOperator((0, 1), Dialect((1,)), UNIT_TRACE, PartialInjectionOp.from_table({0: 1, 1: 0}))
        f = DialectalOperator((1, 2), Dialect((1,)), UNIT_TRACE, PartialInjectionOp.from_table({1: 2, 2: 1}))
        b = DialectalOperator((2, 3), Dialect((1,)), UNIT_TRACE, PartialInjectionOp.from_table({2: 3, 3: 2}))
        assert associativity_residual(a, f, b) is True

    def test_fax_shaped_identity(self):
        # relaying through an identity-shaped link leaves the ends linked
        a = DialectalOperator((0, 1), Dialect((1,)), UNIT_TRACE, PartialInjectionOp.from_table({0: 1, 1: 0}))
        f = DialectalOperator((1, 2), Dialect((1,)), UNIT_TRACE, PartialInjectionOp.from_table({1: 2, 2: 1}))
        out = plug_dialectal(a, f)
        assert out.op == PartialInjectionOp.from_table({0: 2, 2: 0})


class TestBlockIdentity:
    def test_chain(self, rng):
        worst = 0.0
        for _ in range(30):
            F = DenseOperator(tuple(range(6)), hermitian_contraction(rng, 6, 0.9))
            G = DenseOperator((0, 1, 2), hermitian_contraction(rng, 3, 0.9))
            H = DenseOperator((3, 4, 5), hermitian_contraction(rng, 3, 0.9))
            lhs = plain_det(DenseOperator.identity(tuple(range(6))) - mat_mul(F, direct_sum(G, H)))
            d1 = plain_det(DenseOperator.identity((0, 1, 2)) - mat_mul(F.restrict((0, 1, 2)), G))
            ex = feedback_dense(F, G, InterfaceSplit(kept=frozenset((3, 4, 5)), cut=frozenset((0, 1, 2))))
            d2 = plain_det(DenseOperator.identity(ex.carrier) - mat_mul(ex, H))
            worst = max(worst, abs(lhs - d1 * d2))
        assert worst <= 1e-8


# ----------------------------------------------------------------------
# The merged plug against its two-pass and explicit-inverse references


def _contraction(rng, n, scale):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return m / np.linalg.norm(m, 2) * scale


def _rank_projection(rng, n, k):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q[:, :k] @ q[:, :k].conj().T


@st.composite
def masks(draw, n):
    """Two kept masks on n coordinates: they may overlap, and either may be empty."""
    px = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    py = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    return px, py


def _raises_or_value(fn, *args):
    try:
        return fn(*args)
    except FeedbackSingularError:
        return FeedbackSingularError


class TestResolventAgainstExplicitInverse:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 7).flatmap(lambda n: st.tuples(st.just(n), masks(n))))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_contractions(self, seed, drawn):
        n, (px, py) = drawn
        rng = np.random.default_rng(seed)
        x, y = _contraction(rng, n, 0.95), _contraction(rng, n, 0.95)
        got, want = _resolvent(x, y, px, py), explicit_resolvent(x, y, px, py)
        assert got.shape == want.shape == (int((px | py).sum()),) * 2
        assert np.allclose(got, want, rtol=0, atol=1e-10)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 6).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n), masks(n))))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_singular(self, seed, drawn):
        # u = v = a rank-k projection in a random basis: 1 - uv is exactly singular
        n, k, (px, py) = drawn
        assume((px | py).any())
        u = _rank_projection(np.random.default_rng(seed), n, k)
        got, want = _raises_or_value(_resolvent, u, u, px, py), _raises_or_value(explicit_resolvent, u, u, px, py)
        if got is FeedbackSingularError or want is FeedbackSingularError:
            assert got is want
        else:
            # the singular direction was rounded away the same way by both solves
            assert np.allclose(got, want, rtol=1e-6, atol=1e-6)

    def test_exactly_singular_without_kept_columns(self):
        swap = np.array([[0, 1], [1, 0]], dtype=complex)
        none = np.zeros(2, dtype=bool)
        with pytest.raises(FeedbackSingularError):
            _resolvent(swap, swap, none, none)

    def test_overlapping_masks_count_twice(self):
        # a coordinate kept by both masks gets both terms of each factor
        x = np.array([[0.5]], dtype=complex)
        y = np.array([[0.25]], dtype=complex)
        both = np.ones(1, dtype=bool)
        # (1 + y)(1 - xy)^-1(x + 1) = 1.25 * 1.5 / 0.875
        assert _resolvent(x, y, both, both)[0, 0] == pytest.approx(1.25 * 1.5 / 0.875, abs=1e-15)


DIALECTS = (Dialect((1,)), Dialect((2,)), Dialect((1, 1)), Dialect((2, 1)), Dialect((1, 2, 1)))
CARRIER_PAIRS = (((0, 1, 2), (3, 4)), ((0, 1, 2), (2, 5, 1)), ((0, 1), (1, 0)), ((0, 1, 2, 3), (2, 3)))
# dense: a contraction of norm below 1; unitary: a partial symmetry held as a dense payload,
# so that products of spectral radius 1 reach the dense gate; symbolic: a partial symmetry
KINDS = ("dense", "unitary", "symbolic")


@st.composite
def dialectal_pairs(draw):
    """Two dialectal operators on 1-3-block dialects and overlapping, equal or disjoint carriers."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ca, cb = draw(st.sampled_from(CARRIER_PAIRS))
    out = []
    for carrier in (ca, cb):
        kind, dialect = draw(st.sampled_from(KINDS)), draw(st.sampled_from(DIALECTS))
        op = random_dialectal(rng, carrier, dialect, kind != "dense")
        out.append(op.as_dense() if kind == "unitary" else op)
    return tuple(out)


def _plug_outcome(fn, f, a):
    try:
        return fn(f, a)
    except (NotOrthogonalError, IndeterminateError) as exc:
        return type(exc)


class TestPlugMeasuredAgainstTwoPasses:
    @given(dialectal_pairs(), st.floats(-1, 1), st.floats(-1, 1))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_plug_project(self, pair, wager_f, wager_a):
        f, a = Project(wager_f, pair[0]), Project(wager_a, pair[1])
        got, want = _plug_outcome(plug_project, f, a), _plug_outcome(two_pass_plug_project, f, a)
        if not isinstance(want, Project):
            assert got is want
            return
        assert isinstance(got, Project)
        assert got.wager == pytest.approx(want.wager, rel=1e-9, abs=1e-12)
        G, W = got.dialectal, want.dialectal
        assert (G.carrier, G.dialect, G.pseudo_trace, G.is_symbolic) == (W.carrier, W.dialect, W.pseudo_trace, W.is_symbolic)
        if G.is_symbolic:
            assert G.op == W.op
        else:
            assert G.op.carrier == W.op.carrier
            assert np.allclose(G.op.mat, W.op.mat, rtol=0, atol=1e-10)

    @given(dialectal_pairs())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_measurement_is_meas_mat(self, pair):
        # the measurement read off 1 - BA equals meas_mat's, read off 1 - AB
        A, B = pair
        try:
            m, _ = plug_measured(A, B)
        except (NotOrthogonalError, IndeterminateError):
            return
        want = meas_mat(A, B)
        assert m == want if math.isinf(want) else m == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_cyclic_symbolic_pair_is_not_orthogonal(self):
        swap = DialectalOperator((0, 1), Dialect((1,)), UNIT_TRACE, PartialInjectionOp.from_table({0: 1, 1: 0}))
        with pytest.raises(NotOrthogonalError):
            plug_measured(swap, swap)
        with pytest.raises(NotOrthogonalError):
            two_pass_plug_project(Project(0.0, swap), Project(0.0, swap))

    def test_straddling_certificate_is_indeterminate(self, monkeypatch):
        import goi.measurement as measurement
        from goi.linalg import SpectralReport

        monkeypatch.setattr(measurement, "spectral_radius", lambda prod, tol=1e-9, gate=False: SpectralReport(1.0 + 1e-9, 0.5))
        A = from_location_matrix((0, 1), [[0.0, 0.5], [0.5, 0.0]])
        with pytest.raises(IndeterminateError):
            plug_measured(A, A)


class TestDenseViewsOfPartialSymmetries:
    def test_cyclic_products_are_certified_at_least_one(self):
        # a cyclic product of partial symmetries has spectral radius exactly 1:
        # the dense gate must say +inf / not orthogonal, as the tables do
        cyclic = 0
        for seed in range(300):
            rng = np.random.default_rng(seed)
            A = random_dialectal(rng, (0, 1, 2), Dialect((2,)), True)
            B = random_dialectal(rng, (2, 1, 5), Dialect((2,)), True)
            want, got = meas_mat(A, B), meas_mat(A.as_dense(), B.as_dense())
            if math.isinf(want):
                cyclic += 1
                assert got == want
                with pytest.raises(NotOrthogonalError):
                    plug_measured(A.as_dense(), B.as_dense())
            else:
                assert got == pytest.approx(want, abs=1e-9)
        assert cyclic == 101


class TestSymbolicMeasAgainstCompose:
    @given(st.integers(0, 2**32 - 1), st.sampled_from(CARRIER_PAIRS), st.sampled_from(DIALECTS), st.sampled_from(DIALECTS))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_partial_symmetries(self, seed, carriers, da, db):
        rng = np.random.default_rng(seed)
        A = random_dialectal(rng, carriers[0], da, True)
        B = random_dialectal(rng, carriers[1], db, True)
        assert meas_mat(A, B) == symbolic_product_meas(A, B)

    @given(hermitian_tables(pool=range(4), max_size=4), hermitian_tables(pool=range(2, 6), max_size=4))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_random_tables(self, u, v):
        # swaps and fixed points on both sides: products with cycles of any length, nilpotent or cyclic
        A = DialectalOperator((0, 1, 2, 3), Dialect((1,)), UNIT_TRACE, u)
        B = DialectalOperator((2, 3, 4, 5), Dialect((1,)), UNIT_TRACE, v)
        assert meas_mat(A, B) == symbolic_product_meas(A, B)
