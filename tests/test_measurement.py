import math

import numpy as np
import pytest

from goi.errors import CarrierError
from goi.groupoid import PartialInjectionOp
from goi.linalg import DenseOperator, union_carrier
from goi.measurement import (
    Dialect,
    DialectIso,
    DialectalOperator,
    PseudoTrace,
    UNIT_TRACE,
    _arrows,
    _block_log_sum,
    _cycle_ldet,
    _extend_matrix,
    apply_variant,
    dial_labels,
    extended_pair,
    from_location_matrix,
    is_indeterminate,
    ldet,
    ldet_series,
    meas_hyp,
    meas_mat,
    sca_mat,
    sca_verdict,
    table_matrix,
)
from goi.projects import Project, make_project

from conftest import hermitian_contraction, random_dialectal
from oracles import reference_dagger, reference_ddagger

SQ = math.sqrt(0.5)


class TestPseudoTrace:
    """The pseudo-trace weights of the one determinant rule: -sum_b (alpha_b / k_b) log det_b."""

    def test_scalar(self):
        one_minus = np.array([[math.exp(-3.5)]], dtype=complex)
        assert _block_log_sum(one_minus, (0,), Dialect((1,)), UNIT_TRACE, absolute=False) == pytest.approx(3.5)

    def test_weighted_identity(self):
        # a normalised pseudo-trace counts e * 1 once per location, whatever the blocks
        d = Dialect((2, 1))
        alpha = PseudoTrace((0.25, 0.75))
        one_minus = math.e * np.eye(2 * d.dim, dtype=complex)
        assert _block_log_sum(one_minus, (0, 1), d, alpha, absolute=False) == pytest.approx(-2.0)

    def test_tracial(self, rng):
        d = Dialect((2, 1))
        alpha = PseudoTrace((0.7, 1.3))
        u = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        v = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        # block-diagonalise both so they live in the dialect algebra
        for m in (u, v):
            m[0:2, 2:] = 0
            m[2:, 0:2] = 0
        lhs = _block_log_sum(u @ v, (0,), d, alpha, absolute=True)
        rhs = _block_log_sum(v @ u, (0,), d, alpha, absolute=True)
        uv = u @ v
        by_block = -(0.7 / 2) * np.linalg.slogdet(uv[:2, :2])[1] - 1.3 * math.log(abs(uv[2, 2]))
        assert abs(lhs - rhs) < 1e-10 and lhs == pytest.approx(by_block)

    def test_unit_and_faithful(self):
        assert PseudoTrace((0.5, 0.5)).unit() == 1.0
        assert PseudoTrace((0.5, 0.5)).is_faithful()
        assert not PseudoTrace((0.5, -0.5)).is_faithful()


class TestDialect:
    def test_tensor_blocks(self):
        a = Dialect((1, 2))
        b = Dialect((3,))
        t = a.tensor(b)
        assert t.blocks == (3, 6)
        assert t.dim == 9

    def test_oplus(self):
        a = Dialect((2,))
        b = Dialect((1, 1))
        s = a.oplus(b)
        assert s.blocks == (2, 1, 1)
        assert s.coords_of_block(1) == (2,)

    def test_tensor_coordinates_interleave(self):
        a = Dialect((1, 1))
        b = Dialect((1, 1))
        t = a.tensor(b)
        # coordinate (i, j) lands in block 2 * i + j
        assert t.assignment == (0, 1, 2, 3)


def extended_by(m, d, beta=UNIT_TRACE):
    """m (x) 1 on a fresh right dialect d: the left side of ``extended_pair`` against an empty operator of that dialect."""
    ext = extended_pair(m, DialectalOperator((), d, beta, DenseOperator.zeros(())))
    return DialectalOperator(ext.carrier, ext.dialect, ext.pseudo_trace, ext.a)


class TestDaggers:
    def test_trivial_dialect_unchanged(self, rng):
        m = from_location_matrix((0, 1), hermitian_contraction(rng, 2))
        up = extended_by(m, Dialect((1,)))
        assert np.allclose(up.dense_payload().mat, m.dense_payload().mat)

    def test_dagger_ddagger_commute_up_to_swap(self, rng):
        A = from_location_matrix((0,), hermitian_contraction(rng, 1))
        Ad = extended_by(A, Dialect((2,)))
        # entries: Ad[(0,(a,b)), (0,(a',b'))] = A[(0,a),(0,a')] delta_bb'
        mat = Ad.dense_payload().mat
        base = A.dense_payload().mat[0, 0]
        assert np.allclose(mat, base * np.eye(2))

    def test_kron_structure(self, rng):
        A = from_location_matrix((0, 1), hermitian_contraction(rng, 2))
        B = from_location_matrix((0, 1), hermitian_contraction(rng, 2))
        ext = extended_pair(A, B)
        assert ext.dialect == reference_dagger(A, B.dialect).dialect == reference_ddagger(B, A.dialect).dialect
        prod = ext.a @ ext.b
        # trivial dialects: extension is the plain location product
        direct = A.dense_payload() @ B.dense_payload()
        assert np.allclose(prod.mat, direct.mat)


    @pytest.mark.parametrize("left", [True, False])
    def test_extend_matrix_repeats_each_block(self, rng, left):
        # X (x) 1 (left: X's coordinate first) or 1 (x) X (X's coordinate last), entry by entry
        n, k, k_other = 2, 2, 3
        mat = rng.normal(size=(n * k, n * k)) + 1j * rng.normal(size=(n * k, n * k))
        pair = (k, k_other) if left else (k_other, k)
        ext = _extend_matrix(mat, k, k_other, left).reshape(n, *pair, n, *pair)
        for i, a, b, j, c, e in np.ndindex(ext.shape):
            if left:
                want = mat[i * k + a, j * k + c] if b == e else 0
            else:
                want = mat[i * k + b, j * k + e] if a == c else 0
            assert ext[i, a, b, j, c, e] == want


class TestExtendedPair:
    """The frame against the arrow-by-arrow references viewed on the union carrier."""

    DIALECTS = {
        "one-block": (Dialect((1,)), Dialect((2,))),
        "two-blocks-interleaved": (Dialect((2,)).tensor(Dialect((1, 1))), Dialect((1, 2))),
        "three-blocks": (Dialect((2, 1, 1)), Dialect((1, 1, 2))),
    }
    CARRIERS = {
        "disjoint": ((0, 1, 2), (3, 4)),
        "overlapping": ((0, 1, 2), (2, 5, 1)),
        "equal": ((0, 1, 2), (2, 0, 1)),
    }

    @pytest.mark.parametrize("carriers", sorted(CARRIERS))
    @pytest.mark.parametrize("dialects", sorted(DIALECTS))
    @pytest.mark.parametrize("kinds", ["dense-dense", "dense-symbolic", "symbolic-dense", "symbolic-symbolic"])
    def test_matches_dagger_ddagger(self, rng, kinds, dialects, carriers):
        kind_a, kind_b = kinds.split("-")
        (da, db), (ca, cb) = self.DIALECTS[dialects], self.CARRIERS[carriers]
        A = random_dialectal(rng, ca, da, kind_a == "symbolic")
        B = random_dialectal(rng, cb, db, kind_b == "symbolic")
        carrier = union_carrier(A.carrier, B.carrier)
        Ad = reference_dagger(A, B.dialect, B.pseudo_trace).on_carrier(carrier)
        Bd = reference_ddagger(B, A.dialect, A.pseudo_trace).on_carrier(carrier)
        ext = extended_pair(A, B)
        assert ext.carrier == Ad.carrier == Bd.carrier == carrier
        assert ext.dialect == Ad.dialect == Bd.dialect
        assert ext.pseudo_trace == Ad.pseudo_trace == Bd.pseudo_trace
        if kinds == "symbolic-symbolic":
            # two symbolic payloads stay tables
            assert ext.a.table == Ad.op.table and ext.b.table == Bd.op.table
            assert ext.a.table and ext.b.table
            return
        for got, want in ((ext.a, Ad.dense_payload()), (ext.b, Bd.dense_payload())):
            assert got.carrier == want.carrier == dial_labels(carrier, ext.dialect.dim)
            assert np.array_equal(got.mat, want.mat)
        assert np.any(ext.a.mat) and np.any(ext.b.mat)


    @pytest.mark.parametrize("dialects", sorted(DIALECTS))
    @pytest.mark.parametrize("kind", ["dense", "symbolic"])
    def test_extension_by_an_empty_side_matches_reference(self, rng, kind, dialects):
        # the pair with an empty operator of a fresh dialect, as verify's dialect_inflation takes it
        da, db = self.DIALECTS[dialects]
        symbolic = kind == "symbolic"
        A = random_dialectal(rng, (0, 1, 2), da, symbolic)
        beta = PseudoTrace((0.5,) * len(db.blocks))
        fresh = DialectalOperator((), db, beta, PartialInjectionOp.zero() if symbolic else DenseOperator.zeros(()))
        right, left = extended_pair(A, fresh), extended_pair(fresh, A)
        for ext, got, want in ((right, right.a, reference_dagger(A, db, beta)), (left, left.b, reference_ddagger(A, db, beta))):
            assert (ext.carrier, ext.dialect, ext.pseudo_trace) == (want.carrier, want.dialect, want.pseudo_trace)
            if symbolic:
                assert want.is_symbolic and got.table == want.op.table and got.table
            else:
                assert got.carrier == want.op.carrier and np.array_equal(got.mat, want.op.mat)


class TestTableMatrix:
    def test_swap(self):
        d = table_matrix(PartialInjectionOp.from_table({0: 1, 1: 0}), ((0, 0), (1, 0)))
        assert np.array_equal(d.mat, np.array([[0, 1], [1, 0]], dtype=complex))

    def test_projection_diagonal(self):
        d = table_matrix(PartialInjectionOp.identity_on([0, 2]), ((0, 0), (1, 0), (2, 0)))
        assert np.array_equal(np.diag(d.mat).real, [1, 0, 1])


class TestDialectalChecks:
    """The three rejections of a dense payload, and what they must let through."""

    @staticmethod
    def two_block(carrier, block0, block1):
        # Dialect((1, 2)) on the given carrier: coordinate 0 is block 0, coordinates 1-2 block 1
        coord = np.arange(3 * len(carrier)) % 3
        one, two = np.flatnonzero(coord == 0), np.flatnonzero(coord != 0)
        mat = np.zeros((coord.size, coord.size), dtype=complex)
        mat[np.ix_(one, one)] = block0
        mat[np.ix_(two, two)] = block1
        return mat

    @staticmethod
    def make(carrier, mat):
        return DialectalOperator(carrier, Dialect((1, 2)), PseudoTrace((1.0, 1.0)), DenseOperator(dial_labels(carrier, 3), mat))

    def test_rejects_non_hermitian(self):
        mat = self.two_block((0,), [[0.0]], [[0.0, 0.5], [0.0, 0.0]])
        with pytest.raises(CarrierError, match="hermitian"):
            self.make((0,), mat)

    def test_rejects_excess_norm_in_one_block_only(self, rng):
        mat = self.two_block((0, 1), hermitian_contraction(rng, 2, 0.5), hermitian_contraction(rng, 4, 1.01))
        with pytest.raises(CarrierError, match="contraction"):
            self.make((0, 1), mat)

    def test_accepts_contraction_in_every_block(self, rng):
        mat = self.two_block((0, 1), hermitian_contraction(rng, 2, 0.5), hermitian_contraction(rng, 4, 0.99))
        assert self.make((0, 1), mat).dialect.blocks == (1, 2)

    def test_rejects_block_mixing(self):
        mat = self.two_block((0,), [[0.0]], np.zeros((2, 2)))
        mat[0, 1] = mat[1, 0] = 0.5
        with pytest.raises(CarrierError, match="mixes dialect blocks"):
            self.make((0,), mat)

    def test_mixing_reported_before_norm(self):
        mat = self.two_block((0,), [[0.0]], np.zeros((2, 2)))
        mat[0, 1] = mat[1, 0] = 5.0
        with pytest.raises(CarrierError, match="mixes dialect blocks"):
            self.make((0,), mat)

    def test_accepts_near_degenerate_contraction(self, rng):
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
        h = q @ np.diag([0.9, -0.9 + 1e-7, 0.5, 0.1, -0.3, 0.0]) @ q.conj().T
        op = from_location_matrix(tuple(range(6)), h)
        assert op.dialect.is_factor()

    def test_accepts_empty_carrier(self):
        op = self.make((), np.zeros((0, 0)))
        assert op.carrier == () and op.dense_payload().dim == 0


class TestLdet:
    def test_zero(self):
        m = from_location_matrix((0,), [[0.0]])
        assert ldet(m) == 0.0

    def test_scalar_half_geometric(self):
        m = from_location_matrix((0,), [[0.5]])
        assert ldet(m) == pytest.approx(math.log(2), abs=1e-12)
        # independent oracle: the truncated series
        assert ldet_series(m, 200) == pytest.approx(math.log(2), abs=1e-10)

    def test_symbolic_nilpotent_exact(self):
        # a nilpotent table is one-way, so no dialectal operator: its arrows are measured bare
        u = PartialInjectionOp.from_table({0: 1, 1: 2})
        with pytest.raises(CarrierError, match="hermitian"):
            DialectalOperator((0, 1, 2), Dialect((1,)), UNIT_TRACE, u)
        assert _cycle_ldet(_arrows(u), Dialect((1,)), UNIT_TRACE) == 0.0

    def test_symbolic_cycle_infinite(self):
        u = PartialInjectionOp.from_table({0: 1, 1: 0})
        M = DialectalOperator((0, 1), Dialect((1,)), UNIT_TRACE, u)
        assert math.isinf(ldet(M))

    def test_gate_above_one(self):
        m = from_location_matrix((0,), [[-1.0]])
        assert math.isinf(ldet(m))

    def test_no_underflow_on_large_carrier(self):
        # det(1 - 0.7 I_700) = 0.3^700 is below the float range; -log of it is not
        m = from_location_matrix(tuple(range(700)), 0.7 * np.eye(700))
        assert ldet(m) == pytest.approx(-700 * math.log(0.3), rel=1e-12)

    def test_series_agrees_when_contractive(self, rng):
        m = from_location_matrix((0, 1, 2), hermitian_contraction(rng, 3, 0.7))
        assert abs(ldet(m) - ldet_series(m, 400)) < 1e-8

    def test_nilpotent_trace_vanishes_dense(self, rng):
        n = np.triu(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)), 1)
        n = n / max(1.0, np.linalg.norm(n, 2))
        power = np.eye(5, dtype=complex)
        for _ in range(1, 6):
            power = power @ n
            assert abs(np.trace(power)) <= 1e-10


class TestMeasurements:
    def test_meas_zero(self, rng):
        a = from_location_matrix((0, 1), hermitian_contraction(rng, 2))
        z = from_location_matrix((0, 1), np.zeros((2, 2)))
        assert meas_mat(a, z) == 0.0
        assert meas_hyp(a.dense_payload(), z.dense_payload()) == 0.0

    def test_meas_hyp_no_underflow_on_large_carrier(self):
        carrier = tuple(range(700))
        u = DenseOperator(carrier, 0.7 * np.eye(700))
        assert meas_hyp(u, DenseOperator.identity(carrier)) == pytest.approx(-700 * math.log(0.3), rel=1e-12)

    def test_paper_2x2_pair(self):
        A = from_location_matrix((0, 1), [[0, -1], [-1, 0]])
        B = from_location_matrix((0, 1), [[0, 1], [1, 0]])
        assert math.isinf(meas_mat(A, B))
        val = meas_hyp(A.dense_payload(), B.dense_payload())
        assert val == pytest.approx(-math.log(4.0), abs=1e-12)

    def test_paper_3x3_pair(self):
        A = from_location_matrix((0, 1, 2), [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
        B = from_location_matrix((0, 1, 2), [[0, SQ, -SQ], [SQ, 0, 0], [-SQ, 0, 0]])
        val = meas_mat(A, B)
        assert val == pytest.approx(-math.log((1 - SQ) ** 2), abs=1e-10)
        assert 0.0 < val < math.inf

    def test_meas_symmetric(self, rng):
        A = from_location_matrix((0, 1, 2), hermitian_contraction(rng, 3, 0.8))
        B = from_location_matrix((0, 1, 2), hermitian_contraction(rng, 3, 0.8))
        x, y = meas_mat(A, B), meas_mat(B, A)
        if not (is_indeterminate(x) or is_indeterminate(y)):
            if math.isinf(x) or math.isinf(y):
                assert math.isinf(x) and math.isinf(y)
            else:
                assert abs(x - y) < 1e-9

    def test_dialect_inflation_factor(self, rng):
        m = from_location_matrix((0, 1), hermitian_contraction(rng, 2, 0.7))
        lifted = extended_by(m, Dialect((2,)), PseudoTrace((0.7,)))
        assert abs(ldet(lifted) - 0.7 * ldet(m)) < 1e-9


class TestSca:
    def test_zero_projects_not_orthogonal(self):
        a = make_project((0, 1), 0.0, np.zeros((2, 2)))
        b = make_project((0, 1), 0.0, np.zeros((2, 2)))
        value = sca_mat(a, b)
        assert value == 0.0
        assert sca_verdict(value)[0] == "zero"

    def test_wager_formula(self):
        a = make_project((0,), 1.0, np.zeros((1, 1)))
        b = make_project((0,), 0.0, np.zeros((1, 1)))
        assert sca_mat(a, b) == pytest.approx(1.0)

    def test_infinite_wager_absorbs(self):
        a = make_project((0,), math.inf, np.zeros((1, 1)))
        b = make_project((0,), 0.0, np.zeros((1, 1)))
        assert math.isinf(sca_mat(a, b))

    def test_paper_pair_orthogonal(self):
        A = make_project((0, 1, 2), 0.0, [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
        B = make_project((0, 1, 2), 0.0, [[0, SQ, -SQ], [SQ, 0, 0], [-SQ, 0, 0]])
        assert sca_verdict(sca_mat(A, B))[0] == "orthogonal"

    def test_cyclic_symbolic_infinite(self):
        u = PartialInjectionOp.from_table({0: 1, 1: 0})
        a = Project(0.0, DialectalOperator((0, 1), Dialect((1,)), UNIT_TRACE, u))
        b = Project(0.0, DialectalOperator((0, 1), Dialect((1,)), UNIT_TRACE, u))
        assert sca_verdict(sca_mat(a, b))[0] == "infinite"


class TestVariants:
    def _project(self, rng):
        d = Dialect((1, 2))
        lab = dial_labels((0, 1), 3)
        m = hermitian_contraction(rng, 6, 0.8)
        for i, (_, ci) in enumerate(lab):
            for j, (_, cj) in enumerate(lab):
                if d.assignment[ci] != d.assignment[cj]:
                    m[i, j] = 0
        m = (m + m.conj().T) / 2
        return Project(0.3, DialectalOperator((0, 1), d, PseudoTrace((0.4, 0.6)), DenseOperator(lab, m)))

    def test_identity_residual_zero(self, rng):
        from goi.measurement import variant_invariance_residual

        a = self._project(rng)
        probe = make_project((0, 1), 0.5, hermitian_contraction(rng, 2, 0.5))
        iso = DialectIso.identity(a.dialect)
        assert variant_invariance_residual(a, iso, probe) <= 1e-12

    def test_block_swap_and_unitary(self, rng):
        from goi.measurement import variant_invariance_residual

        a = self._project(rng)
        probe = make_project((0, 1), 0.5, hermitian_contraction(rng, 2, 0.5))
        u1 = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        iso = DialectIso((1, 0), (u1, np.eye(1)))
        assert variant_invariance_residual(a, iso, probe) <= 1e-9

    def test_variant_permutes_weights(self, rng):
        a = self._project(rng)
        iso = DialectIso((1, 0), (np.eye(2), np.eye(1)))
        out = apply_variant(a.dialectal, iso)
        assert out.pseudo_trace.weights == (0.6, 0.4)
        assert out.dialect.blocks == (2, 1)
