import logging
import math

import numpy as np
import pytest
import reference
from helpers import count_series_calls
from reference import kappa_newton_arrays, vmf_log_pdf
from reference import spherical_kmeans_pp as reference_kmeans
from scipy import special
from scipy.optimize import linear_sum_assignment

from mixsep import vmf
from mixsep.errors import ConfigurationError, InvalidInputError
from mixsep.numerics import bessel_i_series, log_vmf_normalizer, uniform_log_density, update_pi
from mixsep.synth import sample_vmf
from mixsep.vmf import (
    EmbeddingSequence,
    log_pdf_matrix,
    smooth_one_hot,
    spherical_kmeans_pp,
    vmf_m_step,
    vmfmm_em,
)


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def unit_rows(m):
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def make_clusters(rng, n_per, mus, kappa, seed0=100):
    frames = np.concatenate(
        [sample_vmf(mu, kappa, n_per, seed0 + i) for i, mu in enumerate(mus)]
    )
    labels = np.repeat(np.arange(len(mus)), n_per)
    perm = rng.permutation(frames.shape[0])
    return EmbeddingSequence(frames[perm]), labels[perm]


def orthonormal(rng, dim, count):
    return np.linalg.qr(rng.standard_normal((dim, count)))[0].T


class TestVmfLogPdf:
    def test_kappa_zero_uniform(self):
        mu = unit([1.0, 0, 0, 0])
        rng = np.random.default_rng(0)
        values = [
            vmf_log_pdf(mu, 0.0, unit(rng.standard_normal(4))) for _ in range(5)
        ]
        assert np.allclose(values, log_vmf_normalizer(4, 0.0))

    def test_at_mode(self):
        mu = unit(np.arange(1.0, 65.0))
        want = log_vmf_normalizer(64, 35.0) + 35.0
        assert abs(vmf_log_pdf(mu, 35.0, mu) - want) < 1e-10

    def test_monte_carlo_normalization(self):
        # uniform-proposal integral over S^2, 1e5 draws (acceptance runs 1e6)
        rng = np.random.default_rng(42)
        mu, kappa = unit([0.3, -0.5, 0.81]), 5.0
        x = rng.standard_normal((100_000, 3))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        area = 4.0 * math.pi
        dens = np.exp([vmf_log_pdf(mu, kappa, xi) for xi in x[:2000]])
        # vectorized density for the full sample
        dens = np.exp(log_vmf_normalizer(3, kappa) + kappa * (x @ mu))
        assert abs(area * dens.mean() - 1.0) < 0.02

    def test_rejects_non_unit(self):
        with pytest.raises(InvalidInputError):
            vmf_log_pdf(unit([1.0, 0.0]), 1.0, np.array([2.0, 0.0]))


class TestLogPdfMatrix:
    def test_matches_scalar_reference_entry_by_entry(self):
        rng = np.random.default_rng(9)
        mu = rng.standard_normal((6, 8))
        mu /= np.linalg.norm(mu, axis=1, keepdims=True)
        kappa = np.array([0.0, 1e-3, 0.7, 9.0, 20.0, 35.0])  # from 0 to the default cap
        frames = rng.standard_normal((30, 8))
        frames /= np.linalg.norm(frames, axis=1, keepdims=True)
        got = log_pdf_matrix(mu, kappa, frames)
        assert got.shape == (6, 30)
        for k in range(6):
            for t in range(30):
                want = vmf_log_pdf(mu[k], kappa[k], frames[t])
                assert abs(got[k, t] - want) <= 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize("per_frame", [False, True])
    @pytest.mark.parametrize("handed_on", [False, True])
    def test_log_prior_added_in_place_is_the_sum(self, per_frame, handed_on):
        # the logits formed in one buffer are the prior plus the densities,
        # to the bit
        rng = np.random.default_rng(21)
        mu = rng.standard_normal((5, 24))
        mu /= np.linalg.norm(mu, axis=1, keepdims=True)
        kappa = np.array([0.0, 0.4, 7.0, 21.0, 35.0])
        frames = rng.standard_normal((40, 24))
        frames /= np.linalg.norm(frames, axis=1, keepdims=True)
        lognorm = log_vmf_normalizer(24, kappa) if handed_on else None
        weights = rng.dirichlet(np.ones(5), size=40).T if per_frame else rng.dirichlet(np.ones(5))
        log_prior = np.log(weights if per_frame else weights[:, None])
        got = log_pdf_matrix(mu, kappa, frames, lognorm, log_prior)
        want = log_prior + log_pdf_matrix(mu, kappa, frames, lognorm)
        assert got.tobytes() == want.tobytes()


def reference_bessel_ratio(dim, kappa):
    # A(kappa) from SciPy's exponentially scaled Bessel functions, None where
    # they underflow
    nu = dim / 2.0 - 1.0
    den = float(special.ive(nu, kappa))
    num = float(special.ive(nu + 1.0, kappa))
    if not (math.isfinite(num) and math.isfinite(den)) or den <= 1e-290:
        return None
    return num / den


def reference_kappa(rbar, dim, kappa_max):
    # the scalar concentration update: Banerjee start, cap test, at most four
    # Newton steps, each component stopping on its own
    if rbar >= 1.0 - 1e-12:
        return kappa_max
    kappa = (rbar * dim - rbar**3) / (1.0 - rbar**2)
    if kappa <= 0.0:
        return 0.0
    if kappa >= kappa_max:
        cap_ratio = reference_bessel_ratio(dim, kappa_max)
        if cap_ratio is not None and cap_ratio <= rbar:
            return kappa_max
    kappa = min(kappa, kappa_max)
    for _ in range(4):
        ratio = reference_bessel_ratio(dim, kappa)
        if ratio is None:
            break
        slope = 1.0 - ratio**2 - (dim - 1.0) / kappa * ratio
        if not slope > 1e-14:
            break
        step = (ratio - rbar) / slope
        kappa = kappa / 2.0 if kappa - step <= 0.0 else kappa - step
        if abs(step) < 1e-12 * max(kappa, 1.0):
            break
    return float(min(max(kappa, 0.0), kappa_max))


def reference_m_step(frames, resp, kappa_max, rng):
    # the per-component loop the array M-step replaced
    dim = frames.shape[1]
    resultants = resp @ frames
    masses = resp.sum(axis=1)
    mu = np.empty_like(resultants)
    kappa = np.zeros(resp.shape[0])
    for k in range(resp.shape[0]):
        norm = float(np.linalg.norm(resultants[k]))
        if norm <= 1e-12 * max(masses[k], 1.0):
            draw = rng.standard_normal(dim)
            mu[k] = draw / np.linalg.norm(draw)
            continue
        mu[k] = resultants[k] / norm
        kappa[k] = reference_kappa(min(norm / masses[k], 1.0), dim, kappa_max)
    return mu, kappa


class TestKappaUpdateMatchesScalarNewton:
    @pytest.mark.parametrize("dim", [3, 16, 24, 64])
    @pytest.mark.parametrize("kappa_max", [35.0, 1000.0])
    def test_every_branch(self, dim, kappa_max):
        # Newton stops at steps of 1e-12 relative, and near a cap of 1000 the
        # slope 1 - A^2 - (E-1) A / kappa cancels down to about 1e-6, so two
        # Bessel evaluations that differ in the last bit agree to ~1e-11 there
        cap = reference_bessel_ratio(dim, kappa_max)
        rbar = np.concatenate([
            [0.0, 1e-9, 1.0, 1.0 - 1e-13],  # zero start, tiny, saturated
            np.linspace(0.01, 0.99, 60),
            cap + np.linspace(-2e-3, 2e-3, 20),  # both sides of the cap test, no tie
        ])
        rbar = rbar[(rbar >= 0.0) & (rbar <= 1.0)]
        want = np.array([reference_kappa(r, dim, kappa_max) for r in rbar])
        got, _ = vmf._kappa_estimates(rbar, dim, kappa_max)
        assert np.allclose(got, want, rtol=1e-10, atol=0.0)
        assert np.any(got == kappa_max) and np.any(got == 0.0)
        if kappa_max == 35.0:  # Banerjee's start overshoots this cap below A(cap)
            start = (rbar * dim - rbar**3) / np.maximum(1.0 - rbar**2, 1e-300)
            assert np.any((start >= kappa_max) & (rbar < cap))

    def test_table_solve_matches_array_newton(self):
        # the table start and its polish reach the root the Newton steps from
        # Banerjee's start reach, to the bound test_every_branch allows near a
        # cap of 1000; the 0 and cap branches agree exactly
        rng = np.random.default_rng(17)
        for _ in range(3000):
            count = int(rng.integers(1, 13))
            dim = int(rng.choice([2, 3, 8, 16, 24, 64, 256]))
            kappa_max = float(rng.choice([0.0, 1.0, 35.0, 1000.0, 1e4]))
            rbar = rng.uniform(0.0, 1.0, count) ** float(rng.choice([0.1, 1.0, 4.0]))
            rbar[rng.uniform(size=count) < 0.1] = 1.0
            got, _ = vmf._kappa_estimates(rbar, dim, kappa_max)
            want = kappa_newton_arrays(rbar, dim, kappa_max)
            case = (rbar, dim, kappa_max)
            assert np.array_equal(got == 0.0, want == 0.0), case
            assert np.array_equal(got == kappa_max, want == kappa_max), case
            assert np.allclose(got, want, rtol=1e-10, atol=0.0), case

    def test_integer_cap_keeps_float_estimates(self):
        # a JSON config passes "kappa_max": 50 through as an int
        rbar = np.concatenate([[0.0, 1.0], np.linspace(0.05, 0.95, 19)])
        got, _ = vmf._kappa_estimates(rbar, 16, 50)
        want = np.array([reference_kappa(r, 16, 50.0) for r in rbar])
        assert got.dtype == np.float64
        assert np.allclose(got, want, rtol=1e-10, atol=0.0)
        assert np.any(got != np.round(got))
        frames = sample_vmf(unit(np.arange(1.0, 9.0)), 20.0, 100, seed=4)
        resp = np.random.default_rng(2).uniform(0.0, 1.0, size=(3, 100))
        _, as_int, _ = vmf_m_step(EmbeddingSequence(frames), resp, 50)
        _, as_float, _ = vmf_m_step(EmbeddingSequence(frames), resp, 50.0)
        assert np.array_equal(as_int, as_float)

    def test_m_step_matches_per_component_loop(self, caplog):
        rng = np.random.default_rng(17)
        e = unit(rng.standard_normal(16))
        frames = np.concatenate([
            sample_vmf(unit(rng.standard_normal(16)), 30.0, 200, seed=5),
            [e, -e],
            sample_vmf(unit(rng.standard_normal(16)), 400.0, 50, seed=6),
        ])
        resp = rng.uniform(0.0, 1.0, size=(7, frames.shape[0]))
        resp[1] = 0.0  # no mass: degenerate
        resp[3] = 0.0
        resp[3, 200:202] = 0.5  # antipodal pair: zero resultant, degenerate
        resp[4] = 0.0
        resp[4, 7] = 2.0  # one frame: saturated
        resp[5, :202] = 0.0
        resp[5, 202:] = 1.0  # the tight cluster: at the cap
        with caplog.at_level(logging.DEBUG, logger="mixsep.vmf"):
            mu, kappa, _ = vmf_m_step(
                EmbeddingSequence(frames), resp, 35.0, np.random.default_rng(3)
            )
        want_mu, want_kappa = reference_m_step(frames, resp, 35.0, np.random.default_rng(3))
        assert np.allclose(mu, want_mu, rtol=0.0, atol=1e-15)
        assert np.allclose(kappa, want_kappa, rtol=1e-12, atol=0.0)
        assert kappa[1] == kappa[3] == 0.0 and kappa[4] == kappa[5] == 35.0
        redraws = [r.getMessage() for r in caplog.records if "degenerate" in r.getMessage()]
        assert redraws == [
            "component 1 degenerate (zero resultant), re-drawing",
            "component 3 degenerate (zero resultant), re-drawing",
        ]


class TestMStepChecks:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-300])
    def test_rejects_nonfinite_or_negative_responsibilities(self, bad):
        frames = sample_vmf(unit([1.0, 2.0, 0.5]), 10.0, 12, seed=2)
        resp = np.full((3, 12), 0.25)
        resp[2, 7] = bad
        message = "^responsibilities must be finite and nonnegative$"
        with pytest.raises(InvalidInputError, match=message):
            vmf_m_step(EmbeddingSequence(frames), resp, 35.0)


class TestLognormHandoff:
    @pytest.mark.parametrize("dim", [2, 3, 16, 24, 64, 256])
    @pytest.mark.parametrize("kappa_max", [1.0, 35.0, 1000.0, 1e4])
    def test_handed_on_series_gives_the_normalizer(self, dim, kappa_max):
        rbar = np.concatenate([[0.0, 1e-9, 1.0], np.linspace(0.01, 0.99, 99)])
        kappa, log_series = vmf._kappa_estimates(rbar, dim, kappa_max)
        got = uniform_log_density(dim) - log_series
        want = log_vmf_normalizer(dim, kappa)
        # relative to |ln c| where it is above 1: for E = 256 it crosses 0
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(np.abs(want), 1.0))
        assert np.any(kappa == 0.0) and np.any(kappa == kappa_max)

    def test_m_step_hands_on_the_log_normalizers(self):
        rng = np.random.default_rng(5)
        frames = np.concatenate([
            sample_vmf(unit(rng.standard_normal(16)), 20.0, 100, seed=1),
            sample_vmf(unit(rng.standard_normal(16)), 400.0, 40, seed=2),
        ])
        resp = rng.uniform(0.0, 1.0, size=(4, frames.shape[0]))
        resp[1] = 0.0  # no mass: degenerate, kappa 0
        resp[2, :100] = 0.0  # the tight cluster: at the cap
        e = EmbeddingSequence(frames)
        mu, kappa, lognorm = vmf_m_step(e, resp, 35.0)
        assert kappa[1] == 0.0 and kappa[2] == 35.0
        want = log_vmf_normalizer(16, kappa)
        assert np.all(np.abs(lognorm - want) <= 1e-12 * np.abs(want))
        # the M-step hands on the estimate's concentrations and series as
        # they are (the massless row has rbar 0)
        masses = resp.sum(axis=1)
        rbar = np.divide(
            np.linalg.norm(resp @ frames, axis=1), masses, out=np.zeros(4), where=masses > 0
        )
        plain, series = vmf._kappa_estimates(np.minimum(rbar, 1.0), 16, 35.0)
        assert np.array_equal(plain, kappa)
        assert np.array_equal(uniform_log_density(16) - series, lognorm)

    def test_a_far_start_takes_a_second_step(self, monkeypatch):
        # at kappa near 1e4 and E = 2 the slope of A_E cancels to about 1e-4
        # relative, and the table starts about 1e-7 off: the first step is not
        # below 1e-8, so a second one follows; a start at kappa_max = 35 needs one
        near = bessel_i_series(0.0, np.array([9376.0]))[1]
        inner = bessel_i_series(11.0, np.array([12.5, 30.0]))[1]
        vmf._kappa_estimates(near, 2, 1e4)  # builds the tables
        vmf._kappa_estimates(inner, 24, 35.0)
        calls = count_series_calls(monkeypatch)
        got, log_series = vmf._kappa_estimates(near, 2, 1e4)
        assert len(calls) == 2
        assert np.allclose(got, kappa_newton_arrays(near, 2, 1e4), rtol=1e-10, atol=0.0)
        want = log_vmf_normalizer(2, got)
        assert np.all(np.abs(uniform_log_density(2) - log_series - want) <= 1e-12 * np.abs(want))
        calls.clear()
        got, _ = vmf._kappa_estimates(inner, 24, 35.0)
        assert len(calls) == 1
        assert np.allclose(got, [12.5, 30.0], rtol=1e-13, atol=0.0)

    def test_vmfmm_em_sums_the_series_once_per_iteration(self, monkeypatch):
        rng = np.random.default_rng(3)
        frames = np.concatenate([
            sample_vmf(unit(rng.standard_normal(24)), kappa, 60, seed=10 + i)
            for i, kappa in enumerate([15.0, 30.0, 200.0])
        ])
        e = EmbeddingSequence(frames)
        init = smooth_one_hot(spherical_kmeans_pp(e, 4, seed=1))
        vmfmm_em(e, init, 1, 35.0)  # builds the tables
        calls = count_series_calls(monkeypatch)
        vmfmm_em(e, init, 1, 35.0)
        first = len(calls)
        calls.clear()
        vmfmm_em(e, init, 12, 35.0)
        # one per iteration: below a cap of 1000 the first Newton step always
        # passes (a second would add one), and the E-step sums none; up to
        # four Newton steps and a fresh normalizer would be five
        assert first == 1 and len(calls) - first == 11


class TestVmfMStep:
    def test_single_frame_saturates_at_cap(self):
        frames = np.stack([unit([1, 2, 3, 4.0]), unit([0, 1, 0, 0.0])])
        resp = np.array([[1.0, 0.0]])
        (mu,), (kappa,), _ = vmf_m_step(EmbeddingSequence(frames), resp, kappa_max=35.0)
        assert np.allclose(mu, frames[0], atol=1e-12)
        assert kappa == 35.0

    def test_antipodal_cancellation_degenerate(self):
        e = unit([1.0, -1.0, 0.5])
        frames = np.stack([e, -e])
        resp = np.array([[0.5, 0.5]])
        (mu,), (kappa,), _ = vmf_m_step(EmbeddingSequence(frames), resp, kappa_max=35.0)
        assert kappa == 0.0
        assert abs(np.linalg.norm(mu) - 1.0) < 1e-12

    def test_recovers_sampler_parameters(self):
        mu = unit(np.sin(np.arange(16.0) + 0.3))
        frames = sample_vmf(mu, 20.0, 5000, seed=1234)
        resp = np.ones((1, 5000))
        (got_mu,), (kappa,), _ = vmf_m_step(EmbeddingSequence(frames), resp, kappa_max=1000.0)
        assert float(got_mu @ mu) >= 0.999
        assert abs(kappa - 20.0) <= 2.0

    def test_kappa_never_exceeds_cap(self):
        rng = np.random.default_rng(8)
        frames = sample_vmf(unit(rng.standard_normal(8)), 200.0, 300, seed=77)
        resp = rng.uniform(0.0, 1.0, size=(3, 300))
        _, kappa, _ = vmf_m_step(EmbeddingSequence(frames), resp, kappa_max=35.0)
        assert all(k <= 35.0 for k in kappa)

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(21)
        frames = sample_vmf(unit(rng.standard_normal(6)), 10.0, 200, seed=3)
        resp = rng.uniform(0.2, 1.0, size=(2, 200))
        rot = np.linalg.qr(rng.standard_normal((6, 6)))[0]
        base = vmf_m_step(EmbeddingSequence(frames), resp, kappa_max=50.0)
        rotated = vmf_m_step(EmbeddingSequence(frames @ rot.T), resp, kappa_max=50.0)
        for b_mu, b_kappa, r_mu, r_kappa in zip(*base[:2], *rotated[:2]):
            assert np.allclose(rot @ b_mu, r_mu, atol=1e-9)
            assert abs(b_kappa - r_kappa) < 1e-9


    @pytest.mark.parametrize("kappa_max", [-1.0, vmf.KAPPA_MAX_LIMIT * 1.01, math.nan])
    def test_cap_outside_checked_range_rejected(self, kappa_max):
        # the series has about kappa/2 terms: an unbounded cap is unbounded memory
        frames = np.stack([unit([1.0, 2.0, 3.0]), unit([0.0, 1.0, 0.0])])
        with pytest.raises(ConfigurationError):
            vmf_m_step(EmbeddingSequence(frames), np.ones((1, 2)), kappa_max)


class TestVmfmmEm:
    def test_single_component_mean_direction(self):
        rng = np.random.default_rng(5)
        frames = sample_vmf(unit(rng.standard_normal(8)), 8.0, 400, seed=10)
        seq = EmbeddingSequence(frames)
        mixture, resp, trace = vmfmm_em(seq, np.ones((1, 400)), 5, kappa_max=35.0)
        assert np.allclose(resp, 1.0)
        want = unit(frames.sum(axis=0))
        assert float(mixture.mu[0] @ want) > 1.0 - 1e-12

    def test_two_separated_clusters(self):
        rng = np.random.default_rng(17)
        mus = orthonormal(rng, 16, 2)
        assert abs(float(mus[0] @ mus[1])) < 0.2
        seq, labels = make_clusters(rng, 250, mus, kappa=30.0)
        init = spherical_kmeans_pp(seq, 2, seed=0)
        mixture, resp, trace = vmfmm_em(seq, smooth_one_hot(init), 30, kappa_max=35.0)
        hard = np.argmax(resp, axis=0)
        acc = max(np.mean(hard == labels), np.mean(hard == 1 - labels))
        assert acc >= 0.99

    def test_loglik_monotone_over_random_inits(self):
        rng = np.random.default_rng(29)
        mus = orthonormal(rng, 8, 3)
        seq, _ = make_clusters(rng, 60, mus, kappa=12.0)
        for trial in range(50):
            trial_rng = np.random.default_rng(1000 + trial)
            raw = trial_rng.uniform(0.05, 1.0, size=(3, seq.num_frames))
            init = raw / raw.sum(axis=0, keepdims=True)
            _, _, trace = vmfmm_em(seq, init, 15, kappa_max=35.0)
            diffs = np.diff(trace)
            tol = 1e-6 * np.abs(trace[:-1])
            assert np.all(diffs >= -tol)

    def test_posterior_columns_sum_to_one(self):
        rng = np.random.default_rng(31)
        seq, _ = make_clusters(rng, 50, orthonormal(rng, 8, 2), kappa=20.0)
        init = smooth_one_hot(spherical_kmeans_pp(seq, 2, seed=1))
        _, resp, _ = vmfmm_em(seq, init, 10, kappa_max=35.0)
        assert np.allclose(resp.sum(axis=0), 1.0, atol=1e-9)

    def test_more_components_than_frames_rejected(self):
        frames = sample_vmf(unit([1.0, 0, 0]), 5.0, 4, seed=2)
        with pytest.raises(ConfigurationError):
            vmfmm_em(EmbeddingSequence(frames), np.ones((5, 4)) / 5.0, 3, kappa_max=35.0)


class TestSphericalKmeans:
    def test_single_cluster(self):
        frames = sample_vmf(unit([0.0, 1.0, 0.0]), 10.0, 30, seed=4)
        assign = spherical_kmeans_pp(EmbeddingSequence(frames), 1, seed=0)
        assert np.array_equal(assign, np.ones((1, 30)))

    def test_orthogonal_clusters_exact_bipartition(self):
        rng = np.random.default_rng(13)
        mus = np.eye(8)[:2]
        seq, labels = make_clusters(rng, 40, mus, kappa=200.0)
        assign = spherical_kmeans_pp(seq, 2, seed=3)
        hard = np.argmax(assign, axis=0)
        acc = max(np.mean(hard == labels), np.mean(hard == 1 - labels))
        assert acc == 1.0

    def test_eight_speakers_accuracy(self):
        rng = np.random.default_rng(41)
        mus = orthonormal(rng, 32, 8)
        seq, labels = make_clusters(rng, 60, mus, kappa=25.0)
        assign = spherical_kmeans_pp(seq, 8, seed=7)
        hard = np.argmax(assign, axis=0)
        # best permutation via Hungarian on the contingency table
        table = np.zeros((8, 8))
        for h, l in zip(hard, labels):
            table[h, l] += 1
        rows, cols = linear_sum_assignment(-table)
        acc = table[rows, cols].sum() / labels.shape[0]
        assert acc >= 0.95

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(3)
        seq, _ = make_clusters(rng, 30, orthonormal(rng, 8, 3), kappa=15.0)
        a = spherical_kmeans_pp(seq, 3, seed=11)
        b = spherical_kmeans_pp(seq, 3, seed=11)
        assert np.array_equal(a, b)

    def test_k_exceeding_frames_rejected(self):
        frames = sample_vmf(unit([1.0, 0.0]), 3.0, 4, seed=6)
        with pytest.raises(ConfigurationError):
            spherical_kmeans_pp(EmbeddingSequence(frames), 5, seed=0)


def kmeans_beside_reference(monkeypatch, frames, n_clusters, seed):
    """Run ``spherical_kmeans_pp`` and its one-cluster-at-a-time reference on
    ``frames``; assert the same assignment and, to the bit, the same last
    centroids. Returns the cluster sizes each Lloyd update started from."""
    sizes, last = [], []
    lloyd = vmf._lloyd_centers

    def spy(frames, assign, sims):
        sizes.append(np.bincount(assign, minlength=sims.shape[0]))
        last[:] = [lloyd(frames, assign, sims)]
        return last[0]

    monkeypatch.setattr(vmf, "_lloyd_centers", spy)
    seq = EmbeddingSequence(frames)
    want, want_centers = reference_kmeans(seq, n_clusters, seed)
    assert np.array_equal(spherical_kmeans_pp(seq, n_clusters, seed), want)
    assert last[0].tobytes() == want_centers.tobytes()
    return sizes


class TestKmeansMatchesReference:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_and_clustered_frames(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        kmeans_beside_reference(monkeypatch, unit_rows(rng.standard_normal((150, 8))), 5, seed)
        seq, _ = make_clusters(rng, 40, orthonormal(rng, 24, 6), kappa=20.0, seed0=10 * seed)
        kmeans_beside_reference(monkeypatch, seq.frames, 8, seed)

    def test_duplicated_rows_empty_clusters(self, monkeypatch):
        # three distinct rows for six clusters: the Lloyd updates meet empty
        # clusters and re-seed them
        rng = np.random.default_rng(8)
        emptied = 0
        for seed in range(12):
            base = unit_rows(rng.standard_normal((3, 6)))
            frames = base[rng.integers(0, 3, 40)]
            sizes = kmeans_beside_reference(monkeypatch, frames, 6, seed)
            emptied += sum(int((s == 0).sum()) for s in sizes)
        assert emptied > 0

    @pytest.mark.parametrize("n_clusters", [1, 3, 5])
    def test_coincident_points(self, monkeypatch, n_clusters):
        frames = np.tile(unit([0.2, -1.0, 0.4, 0.1]), (9, 1))
        kmeans_beside_reference(monkeypatch, frames, n_clusters, seed=4)

    def test_zero_resultant(self, monkeypatch):
        # antipodal pairs in one cluster cancel to a zero resultant
        v = unit(np.arange(1.0, 7.0))
        kmeans_beside_reference(monkeypatch, np.stack([v, -v, v, -v]), 1, seed=0)

    @pytest.mark.parametrize("n_frames", [1, 2, 7])
    def test_k_equals_t(self, monkeypatch, n_frames):
        rng = np.random.default_rng(n_frames)
        frames = unit_rows(rng.standard_normal((n_frames, 5)))
        kmeans_beside_reference(monkeypatch, frames, n_frames, seed=3)


class TestPriorUpdate:
    @pytest.mark.parametrize("mode", ["shared", "per_frame"])
    def test_matches_the_former_vmfmm_prior_update(self, mode):
        # the VMFMM's weights from the one prior update of all three EMs
        resp = np.random.default_rng(12).dirichlet(np.ones(4), size=50).T
        resp[2, :10] = 0.0  # floored entries
        resp[:, :10] /= resp[:, :10].sum(axis=0)
        got = update_pi(resp.sum(axis=1), 50) if mode == "shared" else update_pi(resp, 1)
        assert np.array_equal(got, reference.prior_update(resp, mode))

    def test_unknown_prior_mode_rejected_before_any_step(self, monkeypatch):
        def no_step(*args):
            raise AssertionError("an M-step ran")

        monkeypatch.setattr(vmf, "vmf_m_step", no_step)
        frames = sample_vmf(unit([1.0, 0, 0]), 5.0, 4, seed=2)
        with pytest.raises(ConfigurationError, match="unknown prior mode"):
            vmfmm_em(EmbeddingSequence(frames), np.ones((2, 4)) / 2.0, 3, 35.0, "global")


class TestEmbeddingSequence:
    def test_from_raw_normalizes(self):
        rows = np.array([[3.0, 4.0], [0.5, 0.0]])
        seq = EmbeddingSequence.from_raw(rows)
        assert np.allclose(np.linalg.norm(seq.frames, axis=1), 1.0, atol=1e-12)

    def test_zero_row_rejected(self):
        with pytest.raises(InvalidInputError):
            EmbeddingSequence.from_raw(np.array([[0.0, 0.0]]))

    def test_non_unit_rows_rejected(self):
        with pytest.raises(InvalidInputError):
            EmbeddingSequence(np.array([[0.5, 0.0]]))

    def test_nan_row_rejected(self):
        with pytest.raises(InvalidInputError, match="unit length"):
            EmbeddingSequence(np.array([[np.nan, 0.0], [1.0, 0.0]]))
