"""The fast paths of the small dense path, each against the general path it skips.

A one-block dialect takes one determinant and one eigenvalue check of the
whole matrix, the trivial dialect extends a matrix by nothing, a payload
already on the union carrier is not scattered onto it again, ``beta_decode``
counts trailing zero bits at once, and verify composes its fixed products
once.  The properties ask for the results of the general paths, bit for
bit; the guards show that each check the fast paths go through is still
made.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goi import verify
from goi.config import NORM_SLACK
from goi.errors import CarrierError, NumericError
from goi.groupoid import beta_decode
from goi.linalg import DenseOperator, operator_norm, union_carrier
from goi.measurement import (
    Dialect,
    DialectalOperator,
    PseudoTrace,
    TRIVIAL_DIALECT,
    _block_log_sum,
    _extend_matrix,
    dial_labels,
    extended_pair,
    from_location_matrix,
    meas_mat,
)

from conftest import hermitian_contraction, random_dialectal
from oracles import loop_beta_decode, masked_block_log_sum, masked_check_dense, reference_dagger, reference_ddagger

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)
SEEDS = st.integers(0, 2**32 - 1)
ONE_BLOCK = st.integers(1, 4).map(lambda k: Dialect((k,)))


def complex_matrix(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def outcome(check, *args):
    """None when the check lets its input through, else the message of its refusal."""
    try:
        check(*args)
    except CarrierError as exc:
        return str(exc)
    return None


class TestOneBlockDialects:
    @given(SEEDS, ONE_BLOCK, st.integers(0, 3), st.sampled_from(["contraction", "wide", "singular"]), st.booleans())
    @PROPERTY
    def test_block_log_sum_is_the_masked_one(self, seed, dialect, n, kind, absolute):
        rng = np.random.default_rng(seed)
        dim = n * dialect.dim
        m = complex_matrix(rng, dim)
        if dim:
            m *= {"contraction": 0.9, "wide": 3.0, "singular": 1.0}[kind] / np.linalg.norm(m, 2)
        one_minus = np.eye(dim) - m
        if kind == "singular" and dim:
            one_minus[rng.integers(dim)] = 0.0
        weights = PseudoTrace((float(rng.uniform(0.2, 1.5)),))
        carrier = tuple(range(n))
        got = _block_log_sum(one_minus, carrier, dialect, weights, absolute)
        want = masked_block_log_sum(one_minus, carrier, dialect, weights, absolute)
        assert float(got).hex() == float(want).hex()

    @given(SEEDS, ONE_BLOCK, st.integers(0, 3), st.sampled_from(["below", "at-slack", "above", "tilted"]))
    @PROPERTY
    def test_check_dense_is_the_masked_one(self, seed, dialect, n, kind):
        rng = np.random.default_rng(seed)
        dim = n * dialect.dim
        scale = {"below": 0.99, "at-slack": 1.0 + NORM_SLACK, "above": 1.0 + 2 * NORM_SLACK, "tilted": 0.5}[kind]
        mat = hermitian_contraction(rng, dim, scale) if dim else np.zeros((0, 0))
        if kind == "tilted" and dim > 1:
            mat[0, 1] += 1e-3
        carrier = tuple(range(n))
        op = DenseOperator(dial_labels(carrier, dialect.dim), mat)
        got = outcome(DialectalOperator, carrier, dialect, PseudoTrace((1.0,)), op)
        assert got == outcome(masked_check_dense, op, carrier, dialect)


class TestTrivialExtension:
    @given(SEEDS, ONE_BLOCK, st.integers(0, 3), st.booleans())
    @PROPERTY
    def test_extending_by_one_coordinate_is_the_identity(self, seed, dialect, n, left):
        rng = np.random.default_rng(seed)
        m = complex_matrix(rng, n * dialect.dim)
        assert _extend_matrix(m, dialect.dim, 1, left) is m
        A = random_dialectal(rng, tuple(range(n)), dialect, symbolic=False)
        trivial = DialectalOperator((), TRIVIAL_DIALECT, PseudoTrace((1.0,)), DenseOperator.zeros(()))
        for got, want in ((extended_pair(A, trivial).a, reference_dagger(A, TRIVIAL_DIALECT)), (extended_pair(trivial, A).b, reference_ddagger(A, TRIVIAL_DIALECT))):
            assert got.carrier == want.op.carrier and np.array_equal(got.mat, want.op.mat)

    CARRIERS = {
        "equal": ((0, 1, 2), (0, 1, 2)),
        "permuted": ((0, 1, 2), (2, 0, 1)),
        "inside-a": ((0, 1, 2), (1,)),
        "inside-b": ((1,), (0, 1, 2)),
        "overlapping": ((0, 1), (1, 2)),
        "disjoint": ((0, 1), (2, 3)),
    }
    DIALECTS = (Dialect((1,)), Dialect((2,)), Dialect((1, 1)), Dialect((2, 1)))

    @given(
        SEEDS,
        st.sampled_from(sorted(CARRIERS)),
        st.sampled_from(DIALECTS),
        st.sampled_from(DIALECTS),
        st.sampled_from(["dense-dense", "dense-symbolic", "symbolic-dense"]),
    )
    @PROPERTY
    def test_extended_pair_is_dagger_and_ddagger_on_the_union(self, seed, carriers, da, db, kinds):
        rng = np.random.default_rng(seed)
        (ca, cb), (kind_a, kind_b) = self.CARRIERS[carriers], kinds.split("-")
        A = random_dialectal(rng, ca, da, kind_a == "symbolic")
        B = random_dialectal(rng, cb, db, kind_b == "symbolic")
        carrier = union_carrier(ca, cb)
        ext = extended_pair(A, B)
        want_a = reference_dagger(A, B.dialect, B.pseudo_trace).on_carrier(carrier).dense_payload()
        want_b = reference_ddagger(B, A.dialect, A.pseudo_trace).on_carrier(carrier).dense_payload()
        for got, want in ((ext.a, want_a), (ext.b, want_b)):
            assert got.carrier == want.carrier and np.array_equal(got.mat, want.mat)


class TestBitArithmetic:
    def test_beta_decode_is_the_loop_up_to_2_17(self):
        assert all(beta_decode(k) == loop_beta_decode(k) for k in range(2**17))

    @given(st.integers(0, 2**200))
    @PROPERTY
    def test_beta_decode_is_the_loop(self, k):
        assert beta_decode(k) == loop_beta_decode(k)

    @given(st.integers(max_value=-1))
    @PROPERTY
    def test_beta_decode_refuses_negatives(self, k):
        with pytest.raises(ValueError):
            beta_decode(k)


class TestSingularValueNorm:
    @given(SEEDS, st.integers(1, 12), st.sampled_from(["complex", "hermitian", "rank-one", "zero"]))
    @PROPERTY
    def test_operator_norm_is_the_matrix_2_norm(self, seed, n, kind):
        rng = np.random.default_rng(seed)
        m = complex_matrix(rng, n)
        m = {"complex": m, "hermitian": m + m.conj().T, "rank-one": np.outer(m[0], m[-1].conj()), "zero": 0 * m}[kind]
        assert operator_norm(DenseOperator(tuple(range(n)), m)) == float(np.linalg.norm(m, 2))

    @given(SEEDS, st.integers(1, 12), st.floats(0.1, 1.0))
    @PROPERTY
    def test_rand_hermitian_scales_by_the_matrix_2_norm(self, seed, n, scale):
        got = verify.rand_hermitian(np.random.default_rng(seed), n, scale)
        rng = np.random.default_rng(seed)
        m = complex_matrix(rng, n)
        m = (m + m.conj().T) / 2
        assert np.array_equal(got, m / np.linalg.norm(m, 2) * scale)


class TestChecksKept:
    @pytest.mark.parametrize("bad", [complex(0.5, math.inf), complex(0.5, -math.inf), complex(0.5, math.nan)])
    def test_non_finite_imaginary_part_is_refused(self, bad):
        mat = np.zeros((2, 2), dtype=complex)
        mat[1, 0] = bad
        with pytest.raises(NumericError, match="finite"):
            DenseOperator((0, 1), mat)

    def test_duplicate_labels_are_refused(self):
        with pytest.raises(CarrierError, match="distinct"):
            DenseOperator((0, 0), np.zeros((2, 2)))

    @pytest.mark.parametrize("dialect", [Dialect((1,)), Dialect((2,))])
    def test_one_block_excess_norm_is_refused(self, rng, dialect):
        carrier = (0, 1)
        mat = hermitian_contraction(rng, 2 * dialect.dim, 1.1)
        with pytest.raises(CarrierError, match="contraction"):
            DialectalOperator(carrier, dialect, PseudoTrace((1.0,)), DenseOperator(dial_labels(carrier, dialect.dim), mat))

    @pytest.mark.parametrize("dialect", [Dialect((1,)), Dialect((2,))])
    def test_one_block_non_hermitian_is_refused(self, dialect):
        carrier = (0, 1)
        mat = np.zeros((2 * dialect.dim,) * 2, dtype=complex)
        mat[0, 1] = 0.5
        with pytest.raises(CarrierError, match="hermitian"):
            DialectalOperator(carrier, dialect, PseudoTrace((1.0,)), DenseOperator(dial_labels(carrier, dialect.dim), mat))


class TestWorkDoneOnce:
    """Counts, not clocks."""

    def test_groupoid_invariants_compose_the_fixed_products_once(self, monkeypatch):
        calls = [0]
        real = verify.compose

        def counting(*args):
            calls[0] += 1
            return real(*args)

        monkeypatch.setattr(verify, "compose", counting)
        trials = 10
        assert verify.check_groupoid_invariants(0xC0FFEE, trials).ok
        # R*R, L*L, RR* and LL* once, then five products per closure draw; none per probed value
        assert calls[0] == 4 + 5 * (trials // 5)

    def test_trivial_dialect_meas_mat_on_one_carrier_extends_and_scatters_nothing(self, rng, monkeypatch):
        A = from_location_matrix((0, 1, 2), hermitian_contraction(rng, 3, 0.6))
        B = from_location_matrix((0, 1, 2), hermitian_contraction(rng, 3, 0.6))
        calls = {"einsum": 0, "ix_": 0}
        for name in calls:
            real = getattr(np, name)

            def counting(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(np, name, counting)
        assert math.isfinite(meas_mat(A, B))
        assert calls == {"einsum": 0, "ix_": 0}
