import math

import numpy as np
import pytest

from mixsep.cacg import (
    PosteriorTensor,
    SpatialComponent,
    StftTensor,
    cacg_log_pdf,
    cacg_log_pdf_stack,
    cacg_m_step,
    cacgmm_em,
    normalize_observations,
    stack_covariances,
)
from mixsep.errors import ConfigurationError, InvalidInputError
from mixsep.metrics import mask_auc
from mixsep.numerics import HermitianPD
from mixsep.synth import sample_cacg


def tensor(data, sample_rate=8000):
    return StftTensor(np.asarray(data, dtype=complex), sample_rate, 512, 400, 128)


def random_b(rng, dim, spread=4.0):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    b = spread * (a @ a.conj().T) / dim + 0.1 * np.eye(dim)
    return HermitianPD(b)


def trace_normalize(mat):
    mat = np.asarray(mat)
    return mat * (mat.shape[-1] / np.einsum("...ii->...", mat).real[..., None, None])


class TestNormalizeObservations:
    def test_simple_vector(self):
        data = np.zeros((2, 1, 1), dtype=complex)
        data[:, 0, 0] = [2.0, 0.0]
        out = normalize_observations(tensor(data))
        assert np.allclose(out.data[:, 0, 0], [1.0, 0.0])

    def test_zero_bin_flagged(self):
        data = np.zeros((2, 1, 2), dtype=complex)
        data[:, 0, 1] = [0.0, 3.0j]
        out = normalize_observations(tensor(data))
        assert np.allclose(out.data[:, 0, 0], [1.0, 0.0])
        assert out.zero_bins[0, 0] and not out.zero_bins[0, 1]

    def test_all_norms_one(self):
        rng = np.random.default_rng(2)
        data = rng.standard_normal((3, 5, 7)) + 1j * rng.standard_normal((3, 5, 7))
        out = normalize_observations(tensor(data))
        assert np.max(np.abs(np.linalg.norm(out.data, axis=0) - 1.0)) < 1e-12


class TestCacgLogPdf:
    def test_identity_uniform_c7(self):
        rng = np.random.default_rng(4)
        y = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        y /= np.linalg.norm(y)
        want = math.log(720.0) - math.log(2.0) - 7.0 * math.log(math.pi)
        assert abs(cacg_log_pdf(HermitianPD(np.eye(7)), y) - want) < 1e-10

    def test_scale_invariance(self):
        y = np.array([0.6, 0.8j])
        a = cacg_log_pdf(HermitianPD(np.eye(2)), y)
        b = cacg_log_pdf(HermitianPD(2.0 * np.eye(2)), y)
        assert abs(a - b) < 1e-10

    def test_global_phase_invariance_exact(self):
        rng = np.random.default_rng(6)
        b = random_b(rng, 3)
        y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        y /= np.linalg.norm(y)
        base = cacg_log_pdf(b, y)
        for phi in (0.3, 1.7, -2.2):
            assert cacg_log_pdf(b, np.exp(1j * phi) * y) == pytest.approx(base, abs=1e-9)

    def test_monte_carlo_normalization_c2(self):
        # uniform draws on the complex sphere; 1e5 here, acceptance runs 1e6
        rng = np.random.default_rng(8)
        b = HermitianPD(np.diag([1.5, 0.5]).astype(complex))
        z = rng.standard_normal((100_000, 2)) + 1j * rng.standard_normal((100_000, 2))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        quad = np.einsum("nc,cd,nd->n", z.conj(), np.linalg.inv(b.entries), z).real
        dens = math.gamma(2) / (2.0 * math.pi**2 * np.linalg.det(b.entries).real) / quad**2
        area = 2.0 * math.pi**2 / math.gamma(2)
        assert abs(area * dens.mean() - 1.0) < 0.01

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(10)
        covs = np.stack(
            [np.stack([random_b(rng, 2).entries for _ in range(3)]) for _ in range(2)]
        )  # (K=2, F=3, 2, 2)
        data = rng.standard_normal((2, 4, 3)) + 1j * rng.standard_normal((2, 4, 3))
        x = normalize_observations(tensor(data))
        stack, _ = cacg_log_pdf_stack(covs, x)
        for k in range(2):
            for t in range(4):
                for f in range(3):
                    want = cacg_log_pdf(HermitianPD(covs[k, f]), x.data[:, t, f])
                    assert abs(stack[k, t, f] - want) < 1e-9

    def test_rejects_non_unit(self):
        with pytest.raises(InvalidInputError):
            cacg_log_pdf(HermitianPD(np.eye(2)), np.array([2.0, 0.0]))


def uniform_posterior(n_comp, n_frames, n_bins):
    gamma = np.full((n_comp, n_frames, n_bins), 1.0 / n_comp)
    pi = np.full((n_comp, n_frames), 1.0 / n_comp)
    return PosteriorTensor(gamma, pi)


class TestCacgMStep:
    def test_recovers_true_covariance(self):
        rng = np.random.default_rng(12)
        b_true = random_b(rng, 4)
        draws = sample_cacg(b_true, 5000, seed=99)  # (T, C)
        data = draws.T[:, :, None]  # (C, T, F=1)
        x = tensor(data)
        gamma = np.ones((1, 5000, 1))
        pi = np.ones((1, 5000))
        post = PosteriorTensor(gamma, pi)
        comps = [SpatialComponent.identity(1, 4)]
        for _ in range(10):
            comps = cacg_m_step(x, post, comps)
        got = trace_normalize(comps[0].covariances[0])
        want = trace_normalize(b_true.entries)
        err = np.linalg.norm(got - want) / np.linalg.norm(want)
        assert err < 0.05

    def test_fixed_point_distance_decreases(self):
        rng = np.random.default_rng(14)
        b_true = random_b(rng, 4)
        draws = sample_cacg(b_true, 5000, seed=101)
        x = tensor(draws.T[:, :, None])
        post = PosteriorTensor(np.ones((1, 5000, 1)), np.ones((1, 5000)))
        comps = [SpatialComponent.identity(1, 4)]
        want = trace_normalize(b_true.entries)
        dists = []
        for _ in range(5):
            comps = cacg_m_step(x, post, comps)
            got = trace_normalize(comps[0].covariances[0])
            dists.append(np.linalg.norm(got - want))
        # monotone down to the finite-sample floor; converged iterations may
        # wiggle at the 1e-4 level
        assert all(b <= a + 1e-3 for a, b in zip(dists, dists[1:]))
        assert dists[-1] < 0.3 * dists[0]

    def test_single_frame_rank_one(self):
        rng = np.random.default_rng(16)
        y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        y /= np.linalg.norm(y)
        x = tensor(y[:, None, None])
        post = PosteriorTensor(np.ones((1, 1, 1)), np.ones((1, 1)))
        (comp,) = cacg_m_step(x, post, [SpatialComponent.identity(1, 3)])
        got = comp.covariances[0]
        assert abs(np.einsum("ii->", got).real - 3.0) < 1e-6
        # dominant eigenvector matches the observation direction
        vals, vecs = np.linalg.eigh(got)
        lead = vecs[:, -1]
        assert abs(abs(lead.conj() @ y) - 1.0) < 1e-6

    def test_zero_responsibility_keeps_previous(self):
        rng = np.random.default_rng(18)
        data = rng.standard_normal((2, 3, 2)) + 1j * rng.standard_normal((2, 3, 2))
        x = normalize_observations(tensor(data))
        gamma = np.zeros((2, 3, 2))
        gamma[0] = 1.0  # component 1 never responsible
        post = PosteriorTensor(gamma, gamma.mean(axis=2))
        prev = [SpatialComponent.identity(2, 2) for _ in range(2)]
        prev[1] = SpatialComponent(np.stack([np.diag([1.5, 0.5]), np.diag([0.5, 1.5])]).astype(complex))
        out = cacg_m_step(x, post, prev)
        assert np.allclose(out[1].covariances, prev[1].covariances)
        assert out[1].inactive_bins.all()

    def test_trace_normalized(self):
        rng = np.random.default_rng(20)
        data = rng.standard_normal((3, 50, 4)) + 1j * rng.standard_normal((3, 50, 4))
        x = normalize_observations(tensor(data))
        post = uniform_posterior(2, 50, 4)
        out = cacg_m_step(x, post, [SpatialComponent.identity(4, 3) for _ in range(2)])
        traces = np.einsum("fii->f", out[0].covariances).real
        assert np.allclose(traces, 3.0, atol=1e-6)


class TestCacgMStepReusesQuad:
    def scene(self):
        rng = np.random.default_rng(22)
        data = rng.standard_normal((3, 60, 5)) + 1j * rng.standard_normal((3, 60, 5))
        x = normalize_observations(tensor(data))
        raw = rng.uniform(0.05, 1.0, size=(2, 60, 5))
        gamma = raw / raw.sum(axis=0, keepdims=True)
        prev = [
            SpatialComponent(np.stack([random_b(rng, 3).entries for _ in range(5)]))
            for _ in range(2)
        ]
        return x, PosteriorTensor(gamma, gamma.mean(axis=2)), prev

    def test_e_step_quad_gives_same_update(self):
        x, post, prev = self.scene()
        _, quad = cacg_log_pdf_stack(stack_covariances(prev), x)
        given = cacg_m_step(x, post, prev, quad=quad)
        computed = cacg_m_step(x, post, prev)
        for a, b in zip(given, computed):
            assert np.max(np.abs(a.covariances - b.covariances)) <= 1e-12

    def test_quad_is_the_tyler_weight(self):
        # forms of other covariances must change the update
        x, post, prev = self.scene()
        identity = [SpatialComponent.identity(5, 3) for _ in range(2)]
        _, quad = cacg_log_pdf_stack(stack_covariances(identity), x)
        given = cacg_m_step(x, post, prev, quad=quad)
        computed = cacg_m_step(x, post, prev)
        assert np.max(np.abs(given[0].covariances - computed[0].covariances)) > 1e-3


def two_source_scene(rng, n_frames=400, n_bins=33, n_chan=4, shared_b=False):
    """Model-space scene with alternating activity and 30% overlap."""
    b = [random_b(rng, n_chan, spread=6.0) for _ in range(2)]
    if shared_b:
        b[1] = b[0]
    covs = np.empty((2, n_bins, n_chan, n_chan), dtype=complex)
    for k in range(2):
        for f in range(n_bins):
            rot = np.linalg.qr(rng.standard_normal((n_chan, n_chan))
                               + 1j * rng.standard_normal((n_chan, n_chan)))[0]
            covs[k, f] = rot @ b[k].entries @ rot.conj().T if not shared_b else b[k].entries
        if shared_b and k == 1:
            covs[1] = covs[0]
    activity = np.zeros((2, n_frames), dtype=bool)
    block = n_frames // 8
    for i in range(8):
        spk = i % 2
        start = i * block
        activity[spk, start : start + block] = True
        if i > 0:
            activity[1 - spk, start : start + block // 3] = True  # overlap region
    dominant = np.zeros((n_frames, n_bins), dtype=int)
    weights = rng.uniform(0.2, 1.0, size=(2, n_frames))
    weights = np.where(activity, weights, 0.0)
    for t in range(n_frames):
        p = weights[:, t]
        if p.sum() == 0:
            p = np.ones(2)
        p = p / p.sum()
        dominant[t] = rng.choice(2, size=n_bins, p=p)
    data = np.empty((n_chan, n_frames, n_bins), dtype=complex)
    for k in range(2):
        for f in range(n_bins):
            idx = np.flatnonzero(dominant[:, f] == k)
            if idx.size:
                data[:, idx, f] = sample_cacg(
                    HermitianPD(covs[k, f]), idx.size, seed=int(1000 + 7 * k + f)
                ).T
    masks = np.stack([(dominant == k).astype(float) for k in range(2)])
    return tensor(data), masks


class TestCacgmmEm:
    def test_single_component_trivial(self):
        rng = np.random.default_rng(22)
        data = rng.standard_normal((2, 20, 3)) + 1j * rng.standard_normal((2, 20, 3))
        x = tensor(data)
        comps, post, trace = cacgmm_em(x, uniform_posterior(1, 20, 3), 3)
        assert np.allclose(post.gamma, 1.0)
        assert np.allclose(post.pi, 1.0)

    def test_two_source_mask_recovery(self):
        rng = np.random.default_rng(24)
        x, masks = two_source_scene(rng)
        # blind init: random hard frame labels (breaks the symmetric optimum)
        init_rng = np.random.default_rng(55)
        labels = init_rng.integers(0, 2, size=x.num_frames)
        gamma = np.full((2, x.num_frames, x.num_bins), 0.1)
        gamma[labels, np.arange(x.num_frames), :] = 0.9
        gamma /= gamma.sum(axis=0, keepdims=True)
        init = PosteriorTensor(gamma, gamma.mean(axis=2))
        comps, post, trace = cacgmm_em(x, init, 40)
        assert mask_auc(post, masks) >= 0.95

    def test_loglik_monotone(self):
        rng = np.random.default_rng(26)
        x, _ = two_source_scene(rng, n_frames=120, n_bins=9, n_chan=2)
        for seed in range(5):
            init_rng = np.random.default_rng(seed)
            raw = init_rng.uniform(0.1, 1.0, size=(2, x.num_frames, x.num_bins))
            gamma = raw / raw.sum(axis=0, keepdims=True)
            init = PosteriorTensor(gamma, gamma.mean(axis=2))
            _, _, trace = cacgmm_em(x, init, 30)
            diffs = np.diff(trace)
            assert np.all(diffs >= -1e-6 * np.abs(trace[:-1]))

    def test_posterior_invariants_after_em(self):
        rng = np.random.default_rng(28)
        x, _ = two_source_scene(rng, n_frames=80, n_bins=5, n_chan=2)
        raw = rng.uniform(0.1, 1.0, size=(3, 80, 5))
        gamma = raw / raw.sum(axis=0, keepdims=True)
        init = PosteriorTensor(gamma, gamma.mean(axis=2))
        _, post, _ = cacgmm_em(x, init, 5)
        post.validate()

    def test_argmax_invariant_to_covariance_scaling(self):
        rng = np.random.default_rng(30)
        x, _ = two_source_scene(rng, n_frames=60, n_bins=5, n_chan=2)
        covs = np.stack(
            [np.stack([random_b(rng, 2).entries for _ in range(5)]) for _ in range(2)]
        )
        base, _ = cacg_log_pdf_stack(covs, normalize_observations(x))
        scaled, _ = cacg_log_pdf_stack(3.7 * covs, normalize_observations(x))
        assert np.array_equal(np.argmax(base, axis=0), np.argmax(scaled, axis=0))

    def test_empty_component_count_rejected(self):
        rng = np.random.default_rng(32)
        data = rng.standard_normal((2, 4, 2)) + 1j * rng.standard_normal((2, 4, 2))
        with pytest.raises(ConfigurationError):
            cacgmm_em(tensor(data), uniform_posterior(1, 4, 2), 0)


class TestStftTensorInvariants:
    def test_rejects_single_channel(self):
        with pytest.raises(InvalidInputError):
            tensor(np.zeros((1, 3, 2), dtype=complex))

    def test_rejects_nan(self):
        data = np.zeros((2, 1, 1), dtype=complex)
        data[0, 0, 0] = np.nan
        with pytest.raises(InvalidInputError):
            tensor(data)
