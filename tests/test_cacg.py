import logging
import math

import numpy as np
import pytest
from helpers import kmeans_init_posterior, tiny_scenario, tyler_step
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import HermitianPD, cacg_log_pdf, cholesky_logdet_solve, logsumexp

from mixsep import cacg
from mixsep.cacg import (
    COV_LOADING,
    PRIOR_FLOOR,
    PosteriorTensor,
    SpatialComponent,
    StftTensor,
    cacg_log_pdf_stack,
    cacg_m_step,
    cacgmm_em,
    e_step,
    normalize_observations,
    outer_features,
    quad_forms,
    scatter_matrices,
    stack_covariances,
    update_pi,
)
from mixsep.errors import ConfigurationError, InvalidInputError, NumericalError
from mixsep.integrated import JointEmConfig, joint_em
from mixsep.metrics import mask_auc
from mixsep.numerics import _load_stack, chol_logdet_quad, normalize_logits
from mixsep.synth import build_meeting, sample_cacg


def tensor(data, sample_rate=8000):
    return StftTensor(np.asarray(data, dtype=complex), sample_rate, 512, 400, 128)


def fusion_run():
    """Inputs of a short joint EM run on a small scene that fuses components."""
    scene = tiny_scenario([0, 1, 2], duration_s=8.0, overlap=0.1, seed=9, embed_dim=24)
    x, e, truth, _ = build_meeting(scene)
    init = kmeans_init_posterior(e, truth.voiced, 6, x.num_bins, seed=2)
    jcfg = JointEmConfig(
        iterations=10, fusion="spectral", tau_spectral=0.7, fusion_start=3, noise_index=6, seed=0
    )
    return x, e, init, jcfg


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
        # a zero bin becomes the first canonical basis vector
        data = np.zeros((2, 1, 2), dtype=complex)
        data[:, 0, 1] = [0.0, 3.0j]
        out = normalize_observations(tensor(data))
        assert np.allclose(out.data[:, 0, 0], [1.0, 0.0])
        assert np.allclose(out.data[:, 0, 1], [0.0, 1.0j])

    def test_all_norms_one(self):
        rng = np.random.default_rng(2)
        data = rng.standard_normal((3, 5, 7)) + 1j * rng.standard_normal((3, 5, 7))
        out = normalize_observations(tensor(data))
        assert np.max(np.abs(np.linalg.norm(out.data, axis=0) - 1.0)) < 1e-12

    def test_kernels_read_the_observations_in_place(self, monkeypatch):
        # an EM run builds the outer-product features of its normalized
        # observations once, and every cACG kernel of the run reads that
        # array, fusion re-evaluations included
        built, read = [], []
        real_features, real_quad, real_scatter = (
            cacg.outer_features, cacg.quad_forms, cacg.scatter_matrices
        )

        def features(x):
            norms = np.linalg.norm(x.data, axis=0)
            assert np.max(np.abs(norms - 1.0)) <= 1e-12
            built.append(real_features(x))
            return built[-1]

        monkeypatch.setattr(cacg, "outer_features", features)
        monkeypatch.setattr(
            cacg, "quad_forms", lambda b, phi, **kw: read.append(phi) or real_quad(b, phi, **kw)
        )
        monkeypatch.setattr(
            cacg, "scatter_matrices", lambda phi, w: read.append(phi) or real_scatter(phi, w)
        )
        rng = np.random.default_rng(3)
        data = rng.standard_normal((3, 6, 5)) + 1j * rng.standard_normal((3, 6, 5))
        cacgmm_em(tensor(data), uniform_posterior(2, 6, 5), 3)
        # initial M-step (scatter only: its identity start needs no forms),
        # then an E- and an M-step per iteration
        assert len(built) == 1 and len(read) == 1 + 3 * 2
        assert all(phi is built[0] for phi in read)
        assert built[0].shape == (5, 9, 6)

        built.clear()
        read.clear()
        x, e, init, jcfg = fusion_run()
        _, _, events, _ = joint_em(x, e, init, jcfg)
        assert events  # the kept component's forms were re-evaluated
        assert len(built) == 1
        assert len(read) == 1 + 2 * jcfg.iterations + len(events)
        assert all(phi is built[0] for phi in read)

    def test_zero_bins_stay_flagged_frequency_major(self):
        data = np.zeros((2, 3, 4), dtype=complex)
        data[:, 1, 2] = [3.0, 4.0j]
        out = normalize_observations(tensor(data))
        want = np.zeros((2, 3, 4), dtype=complex)
        want[0] = 1.0
        want[:, 1, 2] = [0.6, 0.8j]
        assert np.allclose(out.data, want, rtol=0.0, atol=1e-15)
        assert np.transpose(out.data, (2, 0, 1)).flags.c_contiguous


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
        stack, _ = cacg_log_pdf_stack(covs, x, outer_features(x))
        for k in range(2):
            for t in range(4):
                for f in range(3):
                    want = cacg_log_pdf(HermitianPD(covs[k, f]), x.data[:, t, f])
                    assert abs(stack[k, f, t] - want) < 1e-9

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
        draws = sample_cacg(b_true.entries, 5000, seed=99)  # (T, C)
        data = draws.T[:, :, None]  # (C, T, F=1)
        x = tensor(data)
        gamma = np.ones((1, 5000, 1))
        pi = np.ones((1, 5000))
        post = PosteriorTensor(gamma, pi)
        comps = [SpatialComponent.identity(1, 4)]
        for _ in range(10):
            comps = tyler_step(x, post, comps)
        got = trace_normalize(comps[0].covariances[0])
        want = trace_normalize(b_true.entries)
        err = np.linalg.norm(got - want) / np.linalg.norm(want)
        assert err < 0.05

    def test_fixed_point_distance_decreases(self):
        rng = np.random.default_rng(14)
        b_true = random_b(rng, 4)
        draws = sample_cacg(b_true.entries, 5000, seed=101)
        x = tensor(draws.T[:, :, None])
        post = PosteriorTensor(np.ones((1, 5000, 1)), np.ones((1, 5000)))
        comps = [SpatialComponent.identity(1, 4)]
        want = trace_normalize(b_true.entries)
        dists = []
        for _ in range(5):
            comps = tyler_step(x, post, comps)
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
        (comp,) = tyler_step(x, post, [SpatialComponent.identity(1, 3)])
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
        out = tyler_step(x, post, prev)
        assert np.allclose(out[1].covariances, prev[1].covariances)

    def test_inactive_bins_keep_previous_with_given_quad(self):
        rng = np.random.default_rng(19)
        data = rng.standard_normal((2, 3, 2)) + 1j * rng.standard_normal((2, 3, 2))
        x = normalize_observations(tensor(data))
        gamma = np.zeros((2, 3, 2))
        gamma[0] = 1.0
        gamma[1, :, 1], gamma[0, :, 1] = 0.5, 0.5  # component 1 inactive in bin 0 only
        post = PosteriorTensor(gamma, gamma.mean(axis=2))
        prev = [SpatialComponent.identity(2, 2) for _ in range(2)]
        prev[1] = SpatialComponent(np.stack([np.diag([1.5, 0.5]), np.diag([0.5, 1.5])]).astype(complex))
        features = outer_features(x)
        _, quad = cacg_log_pdf_stack(stack_covariances(prev), x, features)
        out = cacg_m_step(x, post, prev, quad, features)
        assert np.array_equal(out[1].covariances[0], prev[1].covariances[0])
        assert np.max(np.abs(out[1].covariances[1] - prev[1].covariances[1])) > 1e-3

    def test_trace_normalized(self):
        rng = np.random.default_rng(20)
        data = rng.standard_normal((3, 50, 4)) + 1j * rng.standard_normal((3, 50, 4))
        x = normalize_observations(tensor(data))
        post = uniform_posterior(2, 50, 4)
        out = tyler_step(x, post, [SpatialComponent.identity(4, 3) for _ in range(2)])
        traces = np.einsum("fii->f", out[0].covariances).real
        assert np.allclose(traces, 3.0, atol=1e-6)


@st.composite
def kernel_cases(draw):
    """Unit observations and a covariance stack, C = 2..7; with ``rung`` the
    covariances have a small negative eigenvalue, so that only the 1e-8 rung
    of the loading ladder factorizes them."""
    c = draw(st.integers(2, 7))
    k, f, t = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = rng.standard_normal((c, t, f)) + 1j * rng.standard_normal((c, t, f))
    a = rng.standard_normal((k, f, c, c)) + 1j * rng.standard_normal((k, f, c, c))
    basis = np.linalg.qr(a)[0]
    eig = rng.uniform(0.5, 2.0, (k, f, c))
    if draw(st.booleans()):
        eig[..., -1] = -1e-9 * eig[..., :-1].sum(axis=-1) / c
    covariances = (basis * eig[..., None, :]) @ np.conj(np.swapaxes(basis, -1, -2))
    covariances = (covariances + np.conj(np.swapaxes(covariances, -1, -2))) / 2.0
    return normalize_observations(tensor(data)), covariances, eig[..., -1].min() < 0.0


class TestQuadForms:
    """The GEMM kernel on outer-product features against the scalar reference."""

    @settings(max_examples=80, deadline=None)
    @given(kernel_cases())
    def test_matches_scalar_oracle(self, case):
        x, covariances, rung = case
        if rung:
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.cholesky(covariances)
        logdet, quad = quad_forms(covariances, outer_features(x))
        k, f = covariances.shape[:2]
        assert quad.shape == (k, f, x.num_frames)
        for i, j in np.ndindex(k, f):
            for t in range(x.num_frames):
                want_logdet, want = cholesky_logdet_solve(
                    HermitianPD(covariances[i, j]), x.data[:, t, j]
                )
                assert logdet[i, j] == pytest.approx(want_logdet, rel=1e-12, abs=1e-12)
                # the explicit inverse of a loaded covariance (condition about
                # 1e8) cancels in the GEMM where a triangular solve does not
                assert quad[i, j, t] == pytest.approx(want, rel=1e-9 if rung else 1e-12)

    def test_nonpositive_form_rejected(self):
        rng = np.random.default_rng(5)
        data = rng.standard_normal((3, 4, 2)) + 1j * rng.standard_normal((3, 4, 2))
        features = outer_features(normalize_observations(tensor(data)))
        with pytest.raises(NumericalError):
            quad_forms(stack_covariances([SpatialComponent.identity(2, 3)]), -features)

    def test_nan_logits_rejected(self):
        rng = np.random.default_rng(6)
        data = rng.standard_normal((2, 4, 3)) + 1j * rng.standard_normal((2, 4, 3))
        x = normalize_observations(tensor(data))
        covariances = stack_covariances([SpatialComponent.identity(3, 2) for _ in range(2)])
        spectral = np.zeros((2, 4))
        spectral[1, 2] = np.nan
        with pytest.raises(InvalidInputError):
            e_step(covariances, np.full((2, 4), 0.5), x, outer_features(x), spectral)


class TestScatterMatrices:
    @settings(max_examples=60, deadline=None)
    @given(kernel_cases(), st.integers(0, 2**32 - 1))
    def test_matches_einsum(self, case, seed):
        x, covariances, _ = case
        rng = np.random.default_rng(seed)
        y = np.transpose(x.data, (2, 0, 1)) * rng.uniform(0.1, 3.0, (x.num_bins, 1, x.num_frames))
        weights = rng.uniform(size=(covariances.shape[0], x.num_bins, x.num_frames))
        want = np.einsum("kft,fit,fjt->kfij", weights, y, y.conj())
        got = scatter_matrices(outer_features(tensor(np.transpose(y, (1, 2, 0)))), weights)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        assert np.array_equal(got, np.conj(np.swapaxes(got, -1, -2)))


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
        # the E-step's forms against the batched reference's
        x, post, prev = self.scene()
        features = outer_features(x)
        _, quad = cacg_log_pdf_stack(stack_covariances(prev), x, features)
        given = cacg_m_step(x, post, prev, quad, features)
        y = np.transpose(x.data, (2, 0, 1))  # (F, C, T)
        want = chol_logdet_quad(stack_covariances(prev), y[None])[1]
        computed = cacg_m_step(x, post, prev, want, features)
        for a, b in zip(given, computed):
            assert np.max(np.abs(a.covariances - b.covariances)) <= 1e-12

    def test_quad_is_the_tyler_weight(self):
        # forms of other covariances must change the update
        x, post, prev = self.scene()
        features = outer_features(x)
        identity = [SpatialComponent.identity(5, 3) for _ in range(2)]
        _, quad = cacg_log_pdf_stack(stack_covariances(identity), x, features)
        given = cacg_m_step(x, post, prev, quad, features)
        computed = tyler_step(x, post, prev)
        assert np.max(np.abs(given[0].covariances - computed[0].covariances)) > 1e-3

    def test_a_per_bin_scale_of_quad_cancels(self):
        # the trace normalization cancels any factor constant over t, so the
        # E-step may hand over the forms of B / det(B)^{1/C}
        x, post, prev = self.scene()
        features = outer_features(x)
        quad = quad_forms(stack_covariances(prev), features)[1]
        scale = np.random.default_rng(23).uniform(1e-6, 1e6, quad.shape[:2])
        given = cacg_m_step(x, post, prev, quad * scale[..., None], features)
        computed = cacg_m_step(x, post, prev, quad, features)
        for a, b in zip(given, computed):
            assert np.max(np.abs(a.covariances - b.covariances)) <= 1e-12

    def test_identity_start_weighs_every_bin_by_one(self):
        # y^H I^{-1} y = |y|^2 = 1 for unit observations, so the EM's
        # identity start passes quad = 1 instead of factorizing identities
        x, post, _ = self.scene()
        identity = [SpatialComponent.identity(5, 3) for _ in range(2)]
        given = cacg_m_step(x, post, identity, 1.0, outer_features(x))
        computed = tyler_step(x, post, identity)
        for a, b in zip(given, computed):
            assert np.max(np.abs(a.covariances - b.covariances)) <= 1e-14


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
                data[:, idx, f] = sample_cacg(covs[k, f], idx.size, seed=int(1000 + 7 * k + f)).T
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
        xn = normalize_observations(x)
        base, _ = cacg_log_pdf_stack(covs, xn, outer_features(xn))
        scaled, _ = cacg_log_pdf_stack(3.7 * covs, xn, outer_features(xn))
        assert np.array_equal(np.argmax(base, axis=0), np.argmax(scaled, axis=0))

    def test_empty_component_count_rejected(self):
        rng = np.random.default_rng(32)
        data = rng.standard_normal((2, 4, 2)) + 1j * rng.standard_normal((2, 4, 2))
        with pytest.raises(ConfigurationError):
            cacgmm_em(tensor(data), uniform_posterior(1, 4, 2), 0)


@st.composite
def e_step_cases(draw):
    """Random unit observations, covariances, priors and an optional spectral term."""
    k = draw(st.integers(1, 4))
    f, c, t = draw(st.integers(1, 4)), draw(st.integers(2, 4)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = rng.standard_normal((c, t, f)) + 1j * rng.standard_normal((c, t, f))
    a = rng.standard_normal((k, f, c, c)) + 1j * rng.standard_normal((k, f, c, c))
    covariances = a @ np.conj(np.swapaxes(a, -1, -2)) / c + 0.1 * np.eye(c)
    pi = rng.uniform(0.05, 1.0, (k, t))
    pi /= pi.sum(axis=0, keepdims=True)
    spectral = rng.normal(0.0, 5.0, (k, t)) if draw(st.booleans()) else None
    perm = np.array(draw(st.permutations(range(k))), dtype=int)
    return normalize_observations(tensor(data)), covariances, pi, spectral, perm


class TestSharedEStep:
    """Properties of the one E-step of the cACGMM and the joint model."""

    @staticmethod
    def run(x, covariances, pi, spectral):
        if spectral is None:
            return e_step(covariances, pi, x, outer_features(x))
        return e_step(covariances, pi, x, outer_features(x), spectral)

    @settings(max_examples=60, deadline=None)
    @given(e_step_cases())
    def test_posterior_on_the_simplex(self, case):
        x, covariances, pi, spectral, _ = case
        gamma, _, _ = self.run(x, covariances, pi, spectral)
        assert gamma.shape == (pi.shape[0], x.num_frames, x.num_bins)
        assert np.all(gamma >= 0.0) and np.all(gamma <= 1.0)
        assert np.max(np.abs(gamma.sum(axis=0) - 1.0)) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(e_step_cases())
    def test_component_permutation_equivariance(self, case):
        x, covariances, pi, spectral, perm = case
        gamma, loglik, quad = self.run(x, covariances, pi, spectral)
        spectral_p = None if spectral is None else spectral[perm]
        gamma_p, loglik_p, quad_p = self.run(x, covariances[perm], pi[perm], spectral_p)
        np.testing.assert_allclose(gamma_p, gamma[perm], rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(quad_p, quad[perm], rtol=1e-12)
        assert abs(loglik_p - loglik) <= 1e-12 * abs(loglik)

    @settings(max_examples=30, deadline=None)
    @given(e_step_cases())
    def test_matches_scalar_oracle(self, case):
        # gamma and the log-likelihood from per-bin scalar cACG densities
        x, covariances, pi, spectral, _ = case
        gamma, loglik, _ = self.run(x, covariances, pi, spectral)
        extra = np.zeros_like(pi) if spectral is None else spectral
        want_ll = 0.0
        for f in range(x.num_bins):
            for t in range(x.num_frames):
                pdf = [
                    cacg_log_pdf(HermitianPD(cov[f]), x.data[:, t, f]) for cov in covariances
                ]
                logits = np.log(pi[:, t]) + np.asarray(pdf) + extra[:, t]
                norm = logsumexp(logits)
                want_ll += norm
                np.testing.assert_allclose(gamma[:, t, f], np.exp(logits - norm), atol=1e-10)
        assert loglik == pytest.approx(want_ll, rel=1e-10)


def log_domain_e_step(covariances, pi, x, spectral):
    """The E-step as log densities normalized by ``normalize_logits``."""
    logits, _ = cacg_log_pdf_stack(covariances, x, outer_features(x))
    with np.errstate(divide="ignore"):
        logits += (np.log(pi) + spectral)[:, None, :]
    gamma, loglik = normalize_logits(logits)
    return np.transpose(gamma, (0, 2, 1)), loglik


def floor_covariances(rng, k, f, c, rank):
    """(K, F, C, C) covariances of the given rank in random bases, loaded
    and trace-normalized as the Tyler update leaves them: the null space
    sits at the loading floor (condition about C 1e10 at rank one)."""
    a = rng.standard_normal((k, f, c, c)) + 1j * rng.standard_normal((k, f, c, c))
    basis = np.linalg.qr(a)[0][..., :rank]
    covariances = _load_stack(basis @ np.conj(np.swapaxes(basis, -1, -2)), COV_LOADING)
    return covariances * (c / np.einsum("...ii->...", covariances).real)[..., None, None]


class TestLinearEStep:
    """The linear-domain E-step against the log-domain one, and its rescue."""

    @pytest.mark.parametrize("c", range(2, 9))
    @pytest.mark.parametrize("coupled", [False, True])
    def test_matches_log_domain_at_the_loading_floor(self, c, coupled, caplog):
        rng = np.random.default_rng(c)
        k, f, t = 3, 4, 30
        data = rng.standard_normal((c, t, f)) + 1j * rng.standard_normal((c, t, f))
        x = normalize_observations(tensor(data))
        covariances = np.concatenate(
            [floor_covariances(rng, 1, f, c, 1), floor_covariances(rng, 2, f, c, c - 1)]
        )
        pi = rng.dirichlet(np.ones(k), size=t).T
        pi[1, ::3] = PRIOR_FLOOR
        pi /= pi.sum(axis=0, keepdims=True)
        spectral = rng.normal(0.0, 20.0, (k, t)) if coupled else 0.0
        with caplog.at_level(logging.WARNING, logger="mixsep.cacg"):
            gamma, loglik, _ = e_step(covariances, pi, x, outer_features(x), spectral)
        assert not caplog.records  # no bin needed the log domain
        want, want_ll = log_domain_e_step(covariances, pi, x, spectral)
        assert np.max(np.abs(gamma - want)) <= 1e-12
        assert abs(loglik - want_ll) <= 1e-12 * abs(want_ll)

    def test_quad_is_the_unit_determinant_form(self):
        rng = np.random.default_rng(40)
        data = rng.standard_normal((4, 10, 3)) + 1j * rng.standard_normal((4, 10, 3))
        x = normalize_observations(tensor(data))
        covariances = floor_covariances(rng, 2, 3, 4, 2)
        features = outer_features(x)
        quad = e_step(covariances, np.full((2, 10), 0.5), x, features)[2]
        logdet, want = quad_forms(covariances, features)
        np.testing.assert_allclose(quad, want * np.exp(logdet / 4)[..., None], rtol=1e-12)

    @pytest.mark.parametrize("rank", [1, 31])
    def test_out_of_range_bins_take_the_log_domain(self, rank, caplog):
        # C = 32 at the loading floor: an observation on the signal space of
        # a rank-one covariance makes q~^(-C) overflow, one on the null space
        # of a rank C-1 covariance makes it underflow
        c, t = 32, 5
        covariances = np.stack([np.eye(c, dtype=complex)] * 2)[:, None]
        if rank == 1:
            covariances[:, 0, 1:, 1:] = 0.0
        else:
            covariances[:, 0, 0, 0] = 0.0
        covariances[1, 0, 1, 1] = 1e-3 if rank == 1 else 0.5
        covariances = _load_stack(covariances, COV_LOADING)
        rng = np.random.default_rng(41)
        data = rng.standard_normal((c, t, 1)) + 1j * rng.standard_normal((c, t, 1))
        data[:, 0, 0] = np.eye(c)[0]
        x = normalize_observations(tensor(data))
        pi = np.full((2, t), 0.5)
        spectral = rng.normal(0.0, 1.0, (2, t))
        with caplog.at_level(logging.WARNING, logger="mixsep.cacg"):
            gamma, loglik, quad = e_step(covariances, pi, x, outer_features(x), spectral)
        assert [r.levelno for r in caplog.records] == [logging.WARNING]
        assert "1 of 5 bins" in caplog.records[0].getMessage()
        want, want_ll = log_domain_e_step(covariances, pi, x, spectral)
        assert np.array_equal(gamma, want) and loglik == want_ll
        assert np.isfinite(loglik)
        np.testing.assert_allclose(quad, quad_forms(covariances, outer_features(x))[1], rtol=1e-12)


class TestStftTensorInvariants:
    def test_rejects_single_channel(self):
        with pytest.raises(InvalidInputError):
            tensor(np.zeros((1, 3, 2), dtype=complex))

    def test_rejects_nan(self):
        data = np.zeros((2, 1, 1), dtype=complex)
        data[0, 0, 0] = np.nan
        with pytest.raises(InvalidInputError):
            tensor(data)


def test_update_pi_from_the_frequency_sum_is_the_floored_mean():
    rng = np.random.default_rng(4)
    gamma = rng.dirichlet(np.ones(3), size=(7, 9)).transpose(2, 0, 1)  # (K, T, F)
    gamma[2, :2] = 0.0
    want = np.maximum(gamma.mean(axis=2), 1e-10)
    want = want / want.sum(axis=0, keepdims=True)
    assert np.array_equal(update_pi(gamma.sum(axis=2), 9), want)
