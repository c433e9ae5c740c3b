import math

import mpmath
import numpy as np
import pytest

from mixsep.errors import InvalidInputError, NumericalError
from mixsep.numerics import (
    HermitianPD,
    chol_logdet_quad,
    cholesky_logdet_solve,
    diagonal_load,
    log_vmf_normalizer,
    logsumexp,
)


def random_hpd(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return HermitianPD(a @ a.conj().T + 0.5 * np.eye(dim))


class TestHermitianPD:
    def test_symmetrized_exactly(self):
        m = HermitianPD(np.array([[1.0, 2.0 + 1j], [0.5 - 0.25j, 3.0]]))
        assert np.array_equal(m.entries, m.entries.conj().T)

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInputError):
            HermitianPD(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(InvalidInputError):
            HermitianPD(np.zeros((2, 3)))


class TestCholeskyLogdetSolve:
    def test_identity(self):
        logdet, quad = cholesky_logdet_solve(HermitianPD(np.eye(3)), np.array([1.0, 0, 0]))
        assert abs(logdet) < 1e-8
        assert abs(quad - 1.0) < 1e-8

    def test_scalar_matrix(self):
        v = np.array([1.0, 1.0j]) / math.sqrt(2.0)
        logdet, quad = cholesky_logdet_solve(HermitianPD(2.0 * np.eye(2)), v)
        assert abs(logdet - 2.0 * math.log(2.0)) < 1e-8
        assert abs(quad - 0.5) < 1e-8

    def test_against_dense_inverse_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = random_hpd(rng, 4)
            v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            logdet, quad = cholesky_logdet_solve(m, v)
            want_logdet = np.linalg.slogdet(m.entries)[1]
            want_quad = float(np.real(v.conj() @ np.linalg.inv(m.entries) @ v))
            assert abs(logdet - want_logdet) <= 1e-10 * abs(want_logdet)
            assert abs(quad - want_quad) <= 1e-10 * abs(want_quad)

    def test_quad_nonnegative(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            dim = int(rng.integers(2, 7))
            m = random_hpd(rng, dim)
            v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            _, quad = cholesky_logdet_solve(m, v)
            assert quad >= 0.0

    def test_nonfinite_vector_rejected(self):
        with pytest.raises(InvalidInputError):
            cholesky_logdet_solve(HermitianPD(np.eye(2)), np.array([np.inf, 0.0]))

    def test_indefinite_matrix_fails_numerically(self):
        # eigenvalue -1 cannot be rescued by the loading ladder
        with pytest.raises(NumericalError):
            cholesky_logdet_solve(HermitianPD(np.diag([1.0, -1.0])), np.array([1.0, 0.0]))


class TestCholLogdetQuad:
    """The batched kernel against the scalar oracle, one matrix and vector at a time."""

    def stack(self, rng, k=3, f=5, dim=4):
        mats = np.stack([[random_hpd(rng, dim).entries for _ in range(f)] for _ in range(k)])
        return mats  # (K, F, C, C)

    def test_broadcast_columns_match_scalar_oracle(self):
        rng = np.random.default_rng(21)
        mats = self.stack(rng)
        k, f, c, _ = mats.shape
        rhs = rng.standard_normal((1, f, c, 7)) + 1j * rng.standard_normal((1, f, c, 7))
        logdet, quad = chol_logdet_quad(mats, rhs)
        assert logdet.shape == (k, f) and quad.shape == (k, f, 7)
        for i in range(k):
            for j in range(f):
                for t in range(7):
                    want_logdet, want_quad = cholesky_logdet_solve(
                        HermitianPD(mats[i, j]), rhs[0, j, :, t]
                    )
                    assert abs(logdet[i, j] - want_logdet) <= 1e-10 * max(abs(want_logdet), 1.0)
                    assert abs(quad[i, j, t] - want_quad) <= 1e-10 * want_quad

    def test_single_vectors_match_scalar_oracle(self):
        rng = np.random.default_rng(22)
        mats = self.stack(rng)
        k, f, c, _ = mats.shape
        rhs = rng.standard_normal((k, f, c)) + 1j * rng.standard_normal((k, f, c))
        logdet, quad = chol_logdet_quad(mats, rhs)
        assert quad.shape == (k, f)
        for i in range(k):
            for j in range(f):
                want_logdet, want_quad = cholesky_logdet_solve(HermitianPD(mats[i, j]), rhs[i, j])
                assert abs(logdet[i, j] - want_logdet) <= 1e-10 * max(abs(want_logdet), 1.0)
                assert abs(quad[i, j] - want_quad) <= 1e-10 * want_quad


class TestDiagonalLoad:
    def test_identity(self):
        out = diagonal_load(HermitianPD(np.eye(2)), 0.1)
        assert np.allclose(out.entries, 1.1 * np.eye(2))

    def test_zero_matrix_absolute_fallback(self):
        out = diagonal_load(HermitianPD(np.zeros((3, 3))), 1e-6)
        assert np.allclose(out.entries, 1e-6 * np.eye(3))

    def test_rank_one_eigenvalue_oracle(self):
        rng = np.random.default_rng(3)
        u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        u /= np.linalg.norm(u)
        loaded = diagonal_load(HermitianPD(np.outer(u, u.conj())), 1e-4)
        smallest = np.linalg.eigvalsh(loaded.entries)[0]
        assert abs(smallest - 1e-4 / 4.0) < 1e-12

    def test_requires_positive_eps(self):
        with pytest.raises(InvalidInputError):
            diagonal_load(HermitianPD(np.eye(2)), 0.0)


def mp_log_normalizer(dim, kappa):
    # arbitrary-precision oracle for ln c(kappa)
    with mpmath.workdps(60):
        nu = mpmath.mpf(dim) / 2 - 1
        val = (
            nu * mpmath.log(kappa)
            - (mpmath.mpf(dim) / 2) * mpmath.log(2 * mpmath.pi)
            - mpmath.log(mpmath.besseli(nu, kappa))
        )
        return float(val)


class TestLogVmfNormalizer:
    def test_uniform_on_s2(self):
        assert abs(log_vmf_normalizer(3, 0.0) - math.log(1.0 / (4.0 * math.pi))) < 1e-12

    def test_closed_form_e3(self):
        want = math.log(1.0 / (4.0 * math.pi * math.sinh(1.0)))
        assert abs(log_vmf_normalizer(3, 1.0) - want) < 1e-12

    @pytest.mark.parametrize("dim,kappa", [(64, 35.0), (8, 5.0), (3, 35.0), (256, 1e4), (2, 100.0)])
    def test_against_mpmath_oracle(self, dim, kappa):
        assert abs(log_vmf_normalizer(dim, kappa) - mp_log_normalizer(dim, kappa)) < 1e-8

    @pytest.mark.parametrize("dim", [2, 3, 8, 17, 64, 129, 256])
    def test_continuous_at_zero(self, dim):
        assert abs(log_vmf_normalizer(dim, 1e-8) - log_vmf_normalizer(dim, 0.0)) < 1e-6

    @pytest.mark.parametrize("dim", [2, 3, 8, 64, 256])
    def test_strictly_decreasing_in_kappa(self, dim):
        # grid starts where the decrement is representable in float64
        grid = np.concatenate([np.geomspace(1e-4, 1.0, 12), np.geomspace(1.0, 1e4, 25)[1:]])
        values = [log_vmf_normalizer(dim, k) for k in grid]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_finite_at_large_kappa(self):
        assert math.isfinite(log_vmf_normalizer(64, 1e4))
        assert math.isfinite(log_vmf_normalizer(2, 1e4))

    def test_rejects_negative_kappa(self):
        with pytest.raises(InvalidInputError):
            log_vmf_normalizer(8, -0.5)

    def test_rejects_small_dim(self):
        with pytest.raises(InvalidInputError):
            log_vmf_normalizer(1, 1.0)


class TestLogsumexp:
    def test_two_zeros(self):
        assert abs(logsumexp([0.0, 0.0]) - math.log(2.0)) < 1e-15

    def test_underflow_guard(self):
        assert abs(logsumexp([-1000.0, -1000.0]) - (-1000.0 + math.log(2.0))) < 1e-12

    def test_against_extended_precision(self):
        rng = np.random.default_rng(5)
        values = rng.uniform(-50.0, 50.0, size=100)
        with mpmath.workdps(60):
            want = float(mpmath.log(mpmath.fsum([mpmath.exp(v) for v in values])))
        assert abs(logsumexp(values) - want) < 1e-12 * abs(want)

    def test_shift_property(self):
        rng = np.random.default_rng(9)
        values = rng.standard_normal(30)
        for shift in (0.5, -300.0, 1234.5):
            assert abs(logsumexp(values + shift) - (logsumexp(values) + shift)) < 1e-9

    def test_all_neg_inf(self):
        assert logsumexp([-np.inf, -np.inf]) == -np.inf

    def test_axis(self):
        values = np.array([[0.0, -np.inf], [0.0, 0.0]])
        out = logsumexp(values, axis=0)
        assert abs(out[0] - math.log(2.0)) < 1e-15
        assert abs(out[1] - 0.0) < 1e-15

    def test_nan_rejected(self):
        with pytest.raises(InvalidInputError):
            logsumexp([0.0, np.nan])

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            logsumexp([])
