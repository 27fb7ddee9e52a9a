import math

import numpy as np
import pytest

from goi.errors import CarrierError
from goi.linalg import (
    DenseOperator,
    adjoint,
    direct_sum,
    fk_det,
    mat_mul,
    operator_norm,
    plain_det,
    spectral_radius,
    tensor,
)

from conftest import hermitian_contraction

SQ = math.sqrt(0.5)


def pair_2x2():
    u = DenseOperator((0, 1), [[0, -1], [-1, 0]])
    v = DenseOperator((0, 1), [[0, 1], [1, 0]])
    return u, v


def pair_3x3():
    u = DenseOperator((0, 1, 2), [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    v = DenseOperator((0, 1, 2), [[0, SQ, -SQ], [SQ, 0, 0], [-SQ, 0, 0]])
    return u, v


def schoolbook(a, b):
    n = a.shape[0]
    out = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[i, j] += a[i, k] * b[k, j]
    return out


class TestMatMul:
    def test_identity(self, rng):
        a = DenseOperator((0, 1, 2), rng.normal(size=(3, 3)))
        assert mat_mul(DenseOperator.identity((0, 1, 2)), a).max_abs_diff(a) == 0.0

    def test_paper_3x3_product(self):
        u, v = pair_3x3()
        uv = mat_mul(u, v)
        expected = np.array([[SQ, 0, 0], [0, SQ, -SQ], [0, 0, 0]])
        assert np.max(np.abs(uv.mat - expected)) < 1e-15

    def test_random_vs_schoolbook(self, rng):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        got = mat_mul(DenseOperator(tuple(range(4)), a), DenseOperator(tuple(range(4)), b))
        assert np.max(np.abs(got.mat - schoolbook(a, b))) < 1e-12

    def test_label_alignment(self):
        a = DenseOperator(("x", "y"), [[1, 2], [3, 4]])
        b = DenseOperator(("y", "x"), [[40, 30], [20, 10]])  # same op, rows swapped
        got = mat_mul(a, b)
        expected = np.array([[1, 2], [3, 4]]) @ np.array([[10, 20], [30, 40]])
        assert np.max(np.abs(got.mat - expected)) == 0.0

    def test_carrier_mismatch(self):
        a = DenseOperator((0,), [[1]])
        b = DenseOperator((1,), [[1]])
        with pytest.raises(CarrierError):
            mat_mul(a, b)


class TestAdjoint:
    def test_hermitian_fixed(self, rng):
        h = hermitian_contraction(rng, 3)
        op = DenseOperator((0, 1, 2), h)
        assert adjoint(op).max_abs_diff(op) < 1e-15

    def test_real_transpose(self):
        op = DenseOperator((0, 1), [[0, 1], [0, 0]])
        assert np.array_equal(adjoint(op).mat, np.array([[0, 0], [1, 0]], dtype=complex))

    def test_antimultiplicative(self, rng):
        a = DenseOperator((0, 1, 2), rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        b = DenseOperator((0, 1, 2), rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        lhs = adjoint(mat_mul(a, b))
        rhs = mat_mul(adjoint(b), adjoint(a))
        assert lhs.max_abs_diff(rhs) < 1e-12

    def test_involution_isometry(self, rng):
        a = DenseOperator((0, 1, 2), rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        assert adjoint(adjoint(a)).max_abs_diff(a) == 0.0
        assert abs(operator_norm(adjoint(a)) - operator_norm(a)) < 1e-9


class TestNorm:
    def test_zero(self):
        assert operator_norm(DenseOperator.zeros((0, 1))) == 0.0

    def test_permutation_is_isometry(self):
        p = DenseOperator((0, 1, 2), [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        assert abs(operator_norm(p) - 1.0) < 1e-9

    def test_diagonal(self):
        d = DenseOperator.diagonal((0, 1), [0.5, 0.25])
        assert abs(operator_norm(d) - 0.5) < 1e-10

    @pytest.mark.parametrize(
        "singular_values",
        [(2.5, 1.0, 0.3, 0.0), (1.0, 1.0, 1.0, 1.0), (0.9, 0.9 - 1e-7, 0.2, 0.1), (1e-12, 0.0, 0.0, 0.0)],
    )
    def test_known_singular_values(self, rng, singular_values):
        u, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        v, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        a = DenseOperator(tuple(range(4)), u @ np.diag(singular_values) @ v.conj().T)
        assert operator_norm(a) == pytest.approx(max(singular_values), rel=1e-12, abs=1e-15)

    def test_near_degenerate_hermitian_pair(self, rng):
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
        h = q @ np.diag([0.9, -0.9 + 1e-7, 0.5, 0.1, -0.3, 0.0]) @ q.conj().T
        assert operator_norm(DenseOperator(tuple(range(6)), h)) == pytest.approx(0.9, rel=1e-12)


class TestSpectralRadius:
    def test_nilpotent_exact_zero(self):
        j = DenseOperator((0, 1, 2), [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        rep = spectral_radius(j)
        assert rep.exact_zero and rep.spectral_radius == 0.0

    def test_diagonal(self):
        d = DenseOperator.diagonal((0, 1), [0.5, 0.25])
        rep = spectral_radius(d)
        assert abs(rep.spectral_radius - 0.5) < 1e-6
        assert rep.below_one()

    def test_minus_identity(self):
        m = DenseOperator.diagonal((0, 1), [-1.0, -1.0])
        rep = spectral_radius(m)
        assert rep.at_least_one()
        assert rep.spectral_radius >= 1.0

    def test_radius_below_norm(self, rng):
        a = DenseOperator(tuple(range(4)), rng.normal(size=(4, 4)))
        rep = spectral_radius(a)
        assert rep.spectral_radius <= operator_norm(a) + 1e-6


class TestDeterminants:
    def test_identity(self):
        assert plain_det(DenseOperator.identity((0, 1, 2))) == pytest.approx(1.0)

    def test_paper_2x2(self):
        u, v = pair_2x2()
        one = DenseOperator.identity((0, 1))
        assert abs(plain_det(one - mat_mul(u, v)) - 4.0) <= 1e-12

    def test_paper_3x3(self):
        u, v = pair_3x3()
        one = DenseOperator.identity((0, 1, 2))
        assert abs(plain_det(one - mat_mul(u, v)) - (1 - SQ) ** 2) <= 1e-10

    def test_fk_identity(self):
        assert fk_det(DenseOperator.identity((0, 1, 2))) == pytest.approx(1.0)

    def test_fk_normalized_scale(self):
        assert fk_det(DenseOperator.diagonal((0, 1), [2, 2])) == pytest.approx(2.0)

    def test_fk_nilpotent_unit(self, rng):
        n = np.triu(rng.normal(size=(4, 4)), 1)
        one_plus = DenseOperator(tuple(range(4)), np.eye(4) + n)
        assert abs(fk_det(one_plus) - 1.0) <= 1e-9

    def test_fk_singular_is_zero(self):
        assert fk_det(DenseOperator.diagonal((0, 1), [1.0, 0.0])) == 0.0

    def test_fk_no_underflow_on_large_carrier(self):
        # det(0.1 I_700) = 1e-700 is below the float range; the normalised value is 0.1
        a = DenseOperator(tuple(range(700)), 0.1 * np.eye(700))
        assert fk_det(a) == pytest.approx(0.1, rel=1e-12)

    def test_fk_multiplicative(self, rng):
        for _ in range(20):
            a = DenseOperator(tuple(range(4)), rng.normal(size=(4, 4)))
            b = DenseOperator(tuple(range(4)), rng.normal(size=(4, 4)))
            lhs = fk_det(mat_mul(a, b))
            rhs = fk_det(a) * fk_det(b)
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))

    def test_fk_weighted_blocks(self):
        m = DenseOperator.diagonal((0, 1, 2), [2.0, 3.0, 3.0])
        # one size-1 block weight 1, one size-2 block weight 0.5
        got = fk_det(m, blocks=[(1, 1.0), (2, 0.5)])
        assert got == pytest.approx(2.0 * 9.0 ** (0.5 / 2))

    def test_nilpotent_polynomial_stays_nilpotent(self, rng):
        n = np.triu(rng.normal(size=(5, 5)), 1)
        p = 0.7 * n + 0.2 * n @ n - 0.1 * n @ n @ n  # P(0) = 0
        power = np.linalg.matrix_power(p, 5)
        assert np.max(np.abs(power)) < 1e-12


class TestSumsAndTensors:
    def test_direct_sum_with_empty(self, rng):
        a = DenseOperator((0, 1), rng.normal(size=(2, 2)))
        empty = DenseOperator.zeros(())
        assert direct_sum(a, empty).max_abs_diff(a) == 0.0

    def test_direct_sum_blocks(self):
        a = DenseOperator((0,), [[2]])
        b = DenseOperator((1,), [[3]])
        s = direct_sum(a, b)
        assert s.carrier == (0, 1)
        assert np.array_equal(s.mat, np.diag([2.0 + 0j, 3.0 + 0j]))

    def test_tensor_identity_repeats(self, rng):
        a = DenseOperator((0, 1), rng.normal(size=(2, 2)))
        t = tensor(DenseOperator.identity(("a", "b")), a)
        # block-diagonal repeat of a, entry by entry
        for bi, blk in enumerate(("a", "b")):
            for i, li in enumerate((0, 1)):
                for j, lj in enumerate((0, 1)):
                    assert t.mat[t.index_of((blk, li)), t.index_of((blk, lj))] == a.mat[i, j]
        assert np.max(np.abs(t.mat[:2, 2:])) == 0.0

    def test_predicates(self):
        h = DenseOperator((0, 1), [[1, 2], [2, 0]])
        assert h.is_hermitian()
        p = DenseOperator.diagonal((0, 1), [1.0, 0.0])
        assert p.is_projection()
        iso = DenseOperator((0, 1), [[0, 1], [0, 0]])
        assert iso.is_partial_isometry()
        uv = mat_mul(*pair_3x3())
        assert not uv.is_partial_isometry()
