import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goi.errors import CarrierError
from goi.linalg import (
    DenseOperator,
    SpectralReport,
    adjoint,
    direct_sum,
    fk_det,
    mat_mul,
    operator_norm,
    plain_det,
    spectral_radius,
)
from goi.measurement import Dialect, PseudoTrace, _block_log_sum

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


def verdict(rep):
    return "below" if rep.below_one() else "at least 1" if rep.at_least_one() else "straddles"


def fixed_spectrum(seed, n, radius, hermitian, top):
    """Q diag(spectrum) Q* for a random unitary Q: ``top`` eigenvalues of modulus ``radius``, the rest inside."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    if hermitian:
        phases = rng.choice([-1.0, 1.0], size=n)
    else:
        phases = np.exp(2j * np.pi * rng.uniform(size=n))
    moduli = np.concatenate([np.full(top, radius), radius * rng.uniform(0.0, 0.99, size=n - top)])
    return DenseOperator(tuple(range(n)), q @ np.diag(phases * moduli) @ q.conj().T)


class TestSpectralGate:
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 12),
        st.sampled_from((0.5, 0.999, 1.0, 1.001, 2.0)),
        st.booleans(),
        st.integers(1, 2),
    )
    @settings(max_examples=600, deadline=None, derandomize=True)
    def test_gate_agrees_with_converged_verdict(self, seed, n, radius, hermitian, top):
        a = fixed_spectrum(seed, n, radius, hermitian, top)
        full, gated = spectral_radius(a), spectral_radius(a, gate=True)
        if verdict(full) == "straddles":
            assert verdict(gated) in ("at least 1", "straddles")
        else:
            assert verdict(gated) == verdict(full)
        if verdict(gated) == "straddles":
            assert (gated.squarings, gated.decided_by) == (60, "cap")
        else:
            assert gated.decided_by == ("upper" if gated.below_one() else "lower")
        assert gated.squarings <= 60 and full.decided_by in ("converged", "cap")

    def test_frobenius_below_one_decides_before_squaring(self):
        rep = spectral_radius(DenseOperator.diagonal((0, 1), [0.5, 0.25]), gate=True)
        assert rep.below_one() and (rep.squarings, rep.decided_by) == (0, "upper")

    def test_vanishing_power_decides(self):
        j = DenseOperator((0, 1, 2), [[0, 2, 0], [0, 0, 2], [0, 0, 0]])
        rep = spectral_radius(j, gate=True)
        assert rep.exact_zero and (rep.squarings, rep.decided_by) == (2, "zero")

    def test_unit_radius_is_certified_at_least_one(self):
        # converged bounds straddle 1; the lower-bound phase decides
        m = DenseOperator.diagonal(tuple(range(4)), [1.0, -1.0, 1j, 0.3])
        assert spectral_radius(m).straddles_one()
        rep = spectral_radius(m, gate=True)
        assert rep.at_least_one() and rep.decided_by == "lower" and rep.squarings < 60

    def test_straddling_certificate_runs_every_squaring(self):
        m = DenseOperator.diagonal(tuple(range(4)), [1.0 - 1e-11] * 4)
        full, gated = spectral_radius(m), spectral_radius(m, gate=True)
        assert full.straddles_one() and full.decided_by == "converged" and full.squarings < 60
        assert gated.straddles_one() and (gated.squarings, gated.decided_by) == (60, "cap")
        assert gated.spectral_radius == full.spectral_radius

    @pytest.mark.parametrize("n", [64, 160, 320])
    def test_default_call_converges_on_large_contractions(self, rng, n):
        a = hermitian_contraction(rng, n)
        rho = float(np.max(np.abs(np.linalg.eigvalsh(a))))
        rep = spectral_radius(DenseOperator(tuple(range(n)), a))
        assert rep.decided_by == "converged"
        assert rho * (1 - 1e-9) <= rep.spectral_radius <= rho * (1 + 1e-6)
        assert rep.lower_bound <= rho * (1 + 1e-9)

    def test_report_defaults(self):
        rep = SpectralReport(1.0 + 1e-9, 0.5)
        assert (rep.squarings, rep.decided_by) == (0, "converged") and rep.straddles_one()


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
        # the block-weighted determinant is the measurement's: one size-1 block weight 1, one size-2 block weight 0.5
        m = np.diag([2.0, 3.0, 3.0])
        got = math.exp(-_block_log_sum(m, (0,), Dialect((1, 2)), PseudoTrace((1.0, 0.5)), absolute=True))
        assert got == pytest.approx(2.0 * 9.0 ** (0.5 / 2))

    def test_nilpotent_polynomial_stays_nilpotent(self, rng):
        n = np.triu(rng.normal(size=(5, 5)), 1)
        p = 0.7 * n + 0.2 * n @ n - 0.1 * n @ n @ n  # P(0) = 0
        power = np.linalg.matrix_power(p, 5)
        assert np.max(np.abs(power)) < 1e-12


class TestSumsAndPredicates:
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

    def test_predicates(self):
        h = DenseOperator((0, 1), [[1, 2], [2, 0]])
        assert h.is_hermitian()
        p = DenseOperator.diagonal((0, 1), [1.0, 0.0])
        assert p.is_projection()
        iso = DenseOperator((0, 1), [[0, 1], [0, 0]])
        assert iso.is_partial_isometry()
        uv = mat_mul(*pair_3x3())
        assert not uv.is_partial_isometry()
