import logging
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import HermitianPD, cholesky_logdet_solve, log_vmf_normalizer, logsumexp
from scipy.optimize import linear_sum_assignment

from mixsep.errors import InvalidInputError, NumericalError
from mixsep.numerics import (
    KAPPA_MAX,
    LOADING_LADDER,
    _load_stack,
    bessel_i_series,
    chol_logdet_quad,
    chol_with_loading,
    min_cost_assignment,
    normalize_logits,
    psd_solve,
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
    """The trace-relative loading of the M-step and the beamformer."""

    def test_identity(self):
        out = _load_stack(np.eye(2, dtype=complex), 0.1)
        assert np.allclose(out, 1.1 * np.eye(2))

    def test_zero_matrix_absolute_fallback(self):
        out = _load_stack(np.zeros((3, 3), dtype=complex), 1e-6)
        assert np.allclose(out, 1e-6 * np.eye(3))

    def test_rank_one_eigenvalue_oracle(self):
        rng = np.random.default_rng(3)
        u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        u /= np.linalg.norm(u)
        loaded = _load_stack(np.outer(u, u.conj()), 1e-4)
        smallest = np.linalg.eigvalsh(loaded)[0]
        assert abs(smallest - 1e-4 / 4.0) < 1e-12


class TestLoadingLadder:
    """A factorization that escalates past the unloaded first rung says so."""

    def test_singular_stack_warns_once_with_the_loading(self, caplog):
        # a rank-one matrix beside the identity: the unloaded factorization
        # fails, and the next rung's loading makes the stack definite
        rng = np.random.default_rng(4)
        u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        mats = np.stack([np.outer(u, u.conj()), np.eye(3, dtype=complex)])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(mats)
        with caplog.at_level(logging.WARNING, logger="mixsep.numerics"):
            lower = chol_with_loading(mats)
        assert [r.levelno for r in caplog.records] == [logging.WARNING]
        message = caplog.records[0].getMessage()
        assert "stack of 2 3x3 matrices" in message
        assert f"loading {LOADING_LADDER[1]:g}" in message
        want = np.linalg.cholesky(_load_stack(mats, LOADING_LADDER[1]))
        assert np.array_equal(lower, want)

    def test_definite_stack_is_silent(self, caplog):
        rng = np.random.default_rng(5)
        mats = np.stack([random_hpd(rng, 3).entries for _ in range(4)])
        with caplog.at_level(logging.WARNING, logger="mixsep.numerics"):
            chol_with_loading(mats)
        assert not caplog.records


BESSEL_DIMS = [2, 3, 8, 16, 24, 64, 129, 256]
BESSEL_KAPPAS = [1e-8, 1e-3, 0.5, 5.0, 12.0, 20.0, 34.9, 35.0]


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


class TestPsdSolve:
    @pytest.mark.parametrize("dim", [2, 4, 6])
    def test_matches_dense_solve(self, dim):
        # beamform's shapes: an (S, F, C, C) stack and (S, F, C) vectors
        rng = np.random.default_rng(dim)
        a = rng.standard_normal((3, 5, dim, dim)) + 1j * rng.standard_normal((3, 5, dim, dim))
        mats = a @ np.conj(np.swapaxes(a, -1, -2)) + 0.1 * np.eye(dim)
        rhs = rng.standard_normal((3, 5, dim)) + 1j * rng.standard_normal((3, 5, dim))
        got = psd_solve(mats, rhs)
        want = np.linalg.solve(mats, rhs[..., None])[..., 0]
        assert got.shape == rhs.shape
        err = np.linalg.norm(got - want, axis=-1) / np.linalg.norm(want, axis=-1)
        assert err.max() <= 1e-10

    def test_singular_stack_solved_after_loading(self, caplog):
        # a rank-one matrix beside the identity: solved at the first loaded rung
        rng = np.random.default_rng(4)
        u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        mats = np.stack([np.outer(u, u.conj()), np.eye(3, dtype=complex)])
        rhs = np.stack([u, u])
        with caplog.at_level(logging.WARNING, logger="mixsep.numerics"):
            got = psd_solve(mats, rhs)
        assert [r.levelno for r in caplog.records] == [logging.WARNING]
        # the loaded rank-one matrix has a condition number near 1e10, so the
        # residual, not the distance to another solver's answer, is checked
        loaded = _load_stack(mats, LOADING_LADDER[1])
        residual = np.linalg.norm(loaded @ got[..., None] - rhs[..., None], axis=(-2, -1))
        assert np.all(residual <= 1e-10 * np.linalg.norm(rhs, axis=-1))


class TestLogVmfNormalizer:
    def test_uniform_on_s2(self):
        assert abs(log_vmf_normalizer(3, 0.0) - math.log(1.0 / (4.0 * math.pi))) < 1e-12

    def test_closed_form_e3(self):
        want = math.log(1.0 / (4.0 * math.pi * math.sinh(1.0)))
        assert abs(log_vmf_normalizer(3, 1.0) - want) < 1e-12

    @pytest.mark.parametrize("dim,kappa", [(64, 35.0), (8, 5.0), (3, 35.0), (256, 35.0), (2, 20.0)])
    def test_against_mpmath_oracle(self, dim, kappa):
        assert abs(log_vmf_normalizer(dim, kappa) - mp_log_normalizer(dim, kappa)) < 1e-8

    @pytest.mark.parametrize("dim", BESSEL_DIMS)
    def test_grid_against_mpmath_oracle(self, dim):
        got = log_vmf_normalizer(dim, np.array(BESSEL_KAPPAS))
        for k, value in zip(BESSEL_KAPPAS, got):
            want = mp_log_normalizer(dim, k)
            assert abs(value - want) <= 1e-12 * max(1.0, abs(want)), (k, value, want)

    @pytest.mark.parametrize("dim", [2, 3, 8, 17, 64, 129, 256])
    def test_continuous_at_zero(self, dim):
        assert abs(log_vmf_normalizer(dim, 1e-8) - log_vmf_normalizer(dim, 0.0)) < 1e-6

    @pytest.mark.parametrize("dim", [2, 3, 8, 64, 256])
    def test_strictly_decreasing_in_kappa(self, dim):
        # grid starts where the decrement is representable in float64
        grid = np.concatenate([np.geomspace(1e-4, 1.0, 12), np.geomspace(1.0, 35.0, 25)[1:]])
        values = [log_vmf_normalizer(dim, k) for k in grid]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_finite_at_large_kappa(self):
        # the largest concentration accepted
        for dim in (2, 64, 256):
            assert math.isfinite(log_vmf_normalizer(dim, KAPPA_MAX))

    @pytest.mark.parametrize("kappa", [np.nextafter(35.0, 36.0), 36.0, 1e4])
    def test_rejects_kappa_above_the_cap(self, kappa):
        with pytest.raises(InvalidInputError, match=r"kappa must lie in \[0, 35\]"):
            log_vmf_normalizer(16, kappa)
        with pytest.raises(InvalidInputError):
            log_vmf_normalizer(16, np.array([1.0, kappa]))

    @pytest.mark.parametrize("dim", [2, 16, 129])
    def test_array_matches_scalar_calls(self, dim):
        kappa = np.array([0.0, 1e-6, 0.5, 35.0, 0.0, 17.0])
        got = log_vmf_normalizer(dim, kappa)
        assert got.shape == kappa.shape
        want = [log_vmf_normalizer(dim, float(k)) for k in kappa]
        assert np.allclose(got, want, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_rejects_non_finite_kappa(self, bad):
        with pytest.raises(InvalidInputError):
            log_vmf_normalizer(8, bad)
        with pytest.raises(InvalidInputError):
            log_vmf_normalizer(8, np.array([1.0, bad]))

    def test_rejects_negative_kappa(self):
        with pytest.raises(InvalidInputError):
            log_vmf_normalizer(8, -0.5)

    def test_rejects_small_dim(self):
        with pytest.raises(InvalidInputError):
            log_vmf_normalizer(1, 1.0)


def mp_bessel(nu, kappa):
    # arbitrary-precision oracle for ln I_nu(kappa) and I_{nu+1} / I_nu
    with mpmath.workdps(60):
        lo = mpmath.besseli(nu, kappa)
        hi = mpmath.besseli(nu + 1, kappa)
        return float(mpmath.log(lo)), float(hi / lo)


class TestBesselSeries:
    @pytest.mark.parametrize("dim", BESSEL_DIMS)
    @pytest.mark.parametrize("batched", [True, False], ids=["one_array", "one_kappa_each"])
    def test_against_mpmath_oracle(self, dim, batched):
        # one array spans 1e-8 .. 35, so the smallest kappa also runs with
        # the largest kappa's 96 terms; alone it runs with 64
        nu = dim / 2.0 - 1.0
        kappa = np.array(BESSEL_KAPPAS)
        if batched:
            log_series, ratio = bessel_i_series(nu, kappa)
        else:
            pairs = [bessel_i_series(nu, np.array([k])) for k in kappa]
            log_series = np.array([p[0][0] for p in pairs])
            ratio = np.array([p[1][0] for p in pairs])
        log_i = log_series + nu * np.log(kappa / 2.0) - math.lgamma(nu + 1.0)
        for k, got_log, got_ratio in zip(kappa, log_i, ratio):
            want_log, want_ratio = mp_bessel(nu, k)
            assert abs(got_log - want_log) <= 1e-12 * max(1.0, abs(want_log)), (k, got_log, want_log)
            assert abs(got_ratio - want_ratio) <= 1e-12 * want_ratio, (k, got_ratio, want_ratio)

    def test_shape_follows_kappa(self):
        kappa = np.array([[0.5, 5.0, 35.0], [1.0, 2.0, 3.0]])
        log_series, ratio = bessel_i_series(3.0, kappa)
        assert log_series.shape == ratio.shape == (2, 3)
        flat = bessel_i_series(3.0, kappa.ravel())
        assert np.allclose(log_series.ravel(), flat[0], rtol=1e-14, atol=1e-15)
        assert np.allclose(ratio.ravel(), flat[1], rtol=1e-14, atol=0.0)


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


class TestNormalizeLogits:
    def test_finite_logits_in_place(self):
        rng = np.random.default_rng(4)
        logits = rng.normal(0.0, 30.0, size=(6, 50))
        shift = logits.max(axis=0, keepdims=True)
        weights = np.exp(logits - shift)
        total = weights.sum(axis=0, keepdims=True)
        buffer = logits.copy()
        post, loglik = normalize_logits(buffer)
        assert post is buffer
        assert post.tobytes() == (weights / total).tobytes()
        assert loglik == float((np.log(total) + shift).sum())
        assert abs(loglik - logsumexp(logits, axis=0).sum()) <= 1e-12 * abs(loglik)

    def test_all_minus_inf_column(self):
        # a column with no finite logit normalizes nothing (0 / 0) and adds
        # ln 0 to the log-likelihood; the other columns are as without it
        rng = np.random.default_rng(5)
        finite = rng.standard_normal((3, 4))
        logits = np.insert(finite, 2, -np.inf, axis=1)
        with np.errstate(invalid="ignore"):
            post, loglik = normalize_logits(logits)
        want, _ = normalize_logits(finite.copy())
        assert np.isnan(post[:, 2]).all()
        assert np.delete(post, 2, axis=1).tobytes() == want.tobytes()
        assert loglik == -np.inf

    @pytest.mark.parametrize("where", [(0, 1), (2, 1)])
    def test_nan_rejected(self, where):
        logits = np.zeros((3, 4))
        logits[where] = np.nan
        with pytest.raises(InvalidInputError, match="NaN in mixture logits"):
            normalize_logits(logits)


# small integer costs give ties; distinct powers of two make every
# assignment's total distinct, so the optimum is unique and the pairs
# themselves must match (merely distinct entries can still tie in total)
cost_shapes = st.tuples(st.integers(1, 7), st.integers(1, 7))


class TestMinCostAssignment:
    @settings(max_examples=200, deadline=None)
    @given(cost_shapes, st.data())
    def test_total_matches_scipy_with_ties(self, shape, data):
        values = data.draw(st.lists(st.integers(-3, 3), min_size=shape[0] * shape[1],
                                    max_size=shape[0] * shape[1]))
        cost = np.array(values, dtype=float).reshape(shape)
        rows, cols = min_cost_assignment(cost)
        want_rows, want_cols = linear_sum_assignment(cost)
        assert len(rows) == len(want_rows) == min(shape)
        assert np.all(np.diff(rows) > 0)
        assert len(set(cols.tolist())) == len(cols)
        assert cost[rows, cols].sum() == cost[want_rows, want_cols].sum()

    @settings(max_examples=200, deadline=None)
    @given(cost_shapes, st.data())
    def test_pairs_match_scipy_when_totals_differ(self, shape, data):
        perm = data.draw(st.permutations(range(shape[0] * shape[1])))
        sign = data.draw(st.sampled_from([1.0, -1.0]))
        cost = sign * np.exp2(np.array(perm, dtype=float)).reshape(shape)
        rows, cols = min_cost_assignment(cost)
        want_rows, want_cols = linear_sum_assignment(cost)
        assert np.array_equal(rows, want_rows)
        assert np.array_equal(cols, want_cols)

    def test_maximizes_similarity_when_negated(self):
        sims = np.array([[0.1, 0.9, 0.2], [0.8, 0.7, 0.1]])
        rows, cols = min_cost_assignment(-sims)
        assert rows.tolist() == [0, 1] and cols.tolist() == [1, 0]

    @pytest.mark.parametrize("bad", [np.zeros(3), np.array([[0.0, np.nan]]), np.array([[np.inf]])])
    def test_rejects_bad_cost(self, bad):
        with pytest.raises(InvalidInputError):
            min_cost_assignment(bad)
