import numpy as np
import pytest
from helpers import kmeans_init_posterior, random_soft_posterior, tiny_scenario
from scipy.optimize import linear_sum_assignment

from mixsep import cacg
from mixsep.cacg import (
    PosteriorTensor,
    SpatialComponent,
    cacg_log_pdf_stack,
    cacgmm_em,
    normalize_observations,
    stack_covariances,
)
from mixsep.errors import ConfigurationError, InvalidInputError
from mixsep.integrated import (
    FusionEvent,
    JointEmConfig,
    JointModel,
    count_speakers,
    iou_fusion_check,
    joint_e_step,
    joint_em,
    joint_m_step,
    spectral_fusion_check,
)
from mixsep.synth import build_meeting
from mixsep.vmf import SpectralComponent, log_pdf_matrix, vmfmm_em


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def model_from_truth(truth, x, pi=None, kappa=30.0, noise_index=None):
    k_true = truth.mu_true.shape[0]
    spatial = [SpatialComponent(truth.cov_true[k].copy()) for k in range(k_true)]
    spectral = [SpectralComponent(truth.mu_true[k], kappa) for k in range(k_true)]
    if pi is None:
        pi = np.full((k_true, x.num_frames), 1.0 / k_true)
    return JointModel(spatial, spectral, pi, noise_index)


def bin_accuracy(gamma, truth):
    voiced_bins = truth.masks.sum(axis=0) > 0
    hard = np.argmax(gamma, axis=0)
    want = np.argmax(truth.masks, axis=0)
    return float(np.mean(hard[voiced_bins] == want[voiced_bins]))


class TestJointEStep:
    def test_uninformative_spectral_equals_spatial_only(self):
        x, e, truth, _ = build_meeting(tiny_scenario([0, 1], seed=1))
        xn = normalize_observations(x)
        model = model_from_truth(truth, x, kappa=0.0)
        post = joint_e_step(xn, e, model)
        log_pdf, _ = cacg_log_pdf_stack(stack_covariances(model.spatial), xn)
        logits = np.log(model.pi)[:, :, None] + log_pdf
        want = np.exp(logits - logits.max(axis=0, keepdims=True))
        want /= want.sum(axis=0, keepdims=True)
        assert np.max(np.abs(post.gamma - want)) < 1e-12

    def test_uninformative_spatial_equals_vmf_only(self):
        x, e, truth, _ = build_meeting(tiny_scenario([0, 1], seed=2))
        xn = normalize_observations(x)
        k_true = truth.mu_true.shape[0]
        spatial = [SpatialComponent.identity(x.num_bins, x.num_channels) for _ in range(k_true)]
        spectral = [SpectralComponent(truth.mu_true[k], 35.0) for k in range(k_true)]
        pi = np.full((k_true, x.num_frames), 1.0 / k_true)
        post = joint_e_step(xn, e, JointModel(spatial, spectral, pi))
        # constant over frequency
        assert np.max(np.abs(post.gamma - post.gamma[:, :, :1])) < 1e-12
        logits = np.log(pi) + log_pdf_matrix(spectral, e.frames)
        want = np.exp(logits - logits.max(axis=0, keepdims=True))
        want /= want.sum(axis=0, keepdims=True)
        assert np.max(np.abs(post.gamma[:, :, 0] - want)) < 1e-12

    def test_joint_beats_single_models_with_weak_cues(self):
        cfg = tiny_scenario([0, 1, 2], duration_s=10.0, kappa_true=4.0, seed=3)
        cfg.anisotropy = 1.2
        x, e, truth, _ = build_meeting(cfg)
        xn = normalize_observations(x)
        joint = model_from_truth(truth, x, kappa=4.0)
        spatial_only = model_from_truth(truth, x, kappa=0.0)
        spectral_only = model_from_truth(truth, x, kappa=4.0)
        spectral_only = JointModel(
            [SpatialComponent.identity(x.num_bins, x.num_channels) for _ in spectral_only.spatial],
            spectral_only.spectral,
            spectral_only.pi,
        )
        acc_joint = bin_accuracy(joint_e_step(xn, e, joint).gamma, truth)
        acc_spatial = bin_accuracy(joint_e_step(xn, e, spatial_only).gamma, truth)
        acc_spectral = bin_accuracy(joint_e_step(xn, e, spectral_only).gamma, truth)
        assert acc_joint > acc_spatial
        assert acc_joint > acc_spectral

    def test_frame_mismatch_rejected(self):
        x, e, truth, _ = build_meeting(tiny_scenario([0], seed=4))
        from mixsep.vmf import EmbeddingSequence

        short = EmbeddingSequence(e.frames[:-3], e.frame_rate)
        with pytest.raises(InvalidInputError):
            joint_e_step(normalize_observations(x), short, model_from_truth(truth, x))


class TestJointMStep:
    def test_constant_gamma_over_f_matches_unweighted_vmf(self):
        x, e, truth, _ = build_meeting(tiny_scenario([0, 1], seed=5))
        xn = normalize_observations(x)
        rng = np.random.default_rng(0)
        post = random_soft_posterior(rng, 2, x.num_frames, x.num_bins)
        model = model_from_truth(truth, x)
        from mixsep.vmf import EmbeddingSequence, vmf_m_step

        new = joint_m_step(xn, e, post, model, kappa_max=35.0)
        direct = vmf_m_step(e, post.gamma[:, :, 0], 35.0)
        for a, b in zip(new.spectral, direct):
            assert np.allclose(a.mu, b.mu, atol=1e-9)
            assert abs(a.kappa - b.kappa) < 1e-9

    def test_noise_component_kappa_stays_zero(self):
        x, e, truth, _ = build_meeting(tiny_scenario([0, 1], seed=6))
        xn = normalize_observations(x)
        rng = np.random.default_rng(1)
        post = random_soft_posterior(rng, 3, x.num_frames, x.num_bins)
        spatial = [SpatialComponent.identity(x.num_bins, x.num_channels) for _ in range(3)]
        spectral = [SpectralComponent(unit(np.arange(1.0, 17.0)), 10.0) for _ in range(3)]
        model = JointModel(spatial, spectral, post.pi, noise_index=2)
        new = joint_m_step(xn, e, post, model, kappa_max=35.0)
        assert new.spectral[2].kappa == 0.0
        assert new.spectral[0].kappa > 0.0

    def test_joint_parameter_recovery(self):
        cfg = tiny_scenario([0, 1, 2], duration_s=16.0, overlap=0.2, seed=7, channels=4)
        x, e, truth, _ = build_meeting(cfg)
        init = kmeans_init_posterior(e, truth.voiced, 3, x.num_bins, seed=3, with_noise=True)
        jcfg = JointEmConfig(iterations=20, fusion="none", noise_index=3, seed=0)
        model, post, events, trace = joint_em(x, e, init, jcfg)
        mus = np.stack([c.mu for c in model.spectral[:3]])
        sims = mus @ truth.mu_true.T
        rows, cols = linear_sum_assignment(-sims)
        perm = dict(zip(rows, cols))
        assert all(sims[r, perm[r]] >= 0.99 for r in range(3))
        # spatial recovery after trace alignment, averaged over frequencies
        errs = []
        for local, true_k in perm.items():
            got = model.spatial[local].covariances
            want = truth.cov_true[true_k]
            got = got * (x.num_channels / np.einsum("fii->f", got).real[:, None, None])
            want = want * (x.num_channels / np.einsum("fii->f", want).real[:, None, None])
            errs.append(
                np.mean(
                    np.linalg.norm(got - want, axis=(1, 2)) / np.linalg.norm(want, axis=(1, 2))
                )
            )
        assert np.mean(errs) < 0.10


def make_fusion_model(mus, kappas, pi, covs, noise_index=None):
    spatial = [SpatialComponent(c) for c in covs]
    spectral = [SpectralComponent(m, k) for m, k in zip(mus, kappas)]
    return JointModel(spatial, spectral, pi, noise_index)


class TestSpectralFusion:
    def setup_scene(self, n_comp=3, n_frames=10, n_bins=4, n_chan=2, seed=0):
        rng = np.random.default_rng(seed)
        gamma = rng.uniform(0.1, 1.0, (n_comp, n_frames, n_bins))
        gamma /= gamma.sum(axis=0, keepdims=True)
        pi = gamma.mean(axis=2)
        covs = []
        for _ in range(n_comp):
            a = rng.standard_normal((n_bins, n_chan, n_chan)) + 1j * rng.standard_normal(
                (n_bins, n_chan, n_chan)
            )
            c = np.einsum("fij,fkj->fik", a, a.conj()) + 0.1 * np.eye(n_chan)
            c *= n_chan / np.einsum("fii->f", c).real[:, None, None]
            covs.append(c)
        return gamma, pi, covs, rng

    def test_identical_prototypes_fuse_with_exact_sums(self):
        gamma, pi, covs, rng = self.setup_scene()
        mu = unit(rng.standard_normal(8))
        other = unit(np.concatenate([[10.0], rng.standard_normal(7)]))
        model = make_fusion_model([mu, mu, other], [20.0, 20.0, 20.0], pi, covs)
        post = PosteriorTensor(gamma, pi)
        new_model, new_post, event = spectral_fusion_check(model, post, tau=0.99)
        assert event is not None and event.kept == 0 and event.removed == 1
        assert event.similarity == pytest.approx(1.0)
        assert np.array_equal(new_post.gamma[0], gamma[0] + gamma[1])
        assert np.array_equal(new_post.gamma[1], gamma[2])
        assert new_model.num_components == 2
        # posterior still sums to one exactly
        assert np.max(np.abs(new_post.gamma.sum(axis=0) - 1.0)) < 1e-12

    def test_equal_masses_give_arithmetic_mean_covariance(self):
        gamma, pi, covs, rng = self.setup_scene()
        pi = np.full_like(pi, 1.0 / 3.0)
        mu = unit(rng.standard_normal(8))
        model = make_fusion_model([mu, mu, -mu], [5.0, 5.0, 5.0], pi, covs)
        post = PosteriorTensor(gamma, pi)
        new_model, _, event = spectral_fusion_check(model, post, tau=0.9)
        assert event is not None
        want = 0.5 * covs[0] + 0.5 * covs[1]
        assert np.allclose(new_model.spatial[0].covariances, want, atol=1e-15)

    def test_below_threshold_no_fusion(self):
        gamma, pi, covs, rng = self.setup_scene()
        mus = [unit(v) for v in np.eye(8)[:3]]
        model = make_fusion_model(mus, [5.0] * 3, pi, covs)
        new_model, _, event = spectral_fusion_check(model, PosteriorTensor(gamma, pi), tau=0.7)
        assert event is None and new_model is model

    def test_noise_component_exempt(self):
        gamma, pi, covs, rng = self.setup_scene()
        mu = unit(rng.standard_normal(8))
        model = make_fusion_model([mu, unit(np.eye(8)[1]), mu], [5.0] * 3, pi, covs, noise_index=2)
        new_model, _, event = spectral_fusion_check(model, PosteriorTensor(gamma, pi), tau=0.7)
        assert event is None  # the only similar pair involves the noise component

    def test_k_min_blocks_fusion(self):
        gamma, pi, covs, rng = self.setup_scene()
        mu = unit(rng.standard_normal(8))
        model = make_fusion_model([mu, mu, unit(np.eye(8)[2])], [5.0] * 3, pi, covs)
        _, _, event = spectral_fusion_check(model, PosteriorTensor(gamma, pi), tau=0.7, k_min=3)
        assert event is None

    def test_noise_index_shifts_after_fusion(self):
        gamma, pi, covs, rng = self.setup_scene()
        mu = unit(rng.standard_normal(8))
        model = make_fusion_model([mu, mu, unit(np.eye(8)[3])], [5.0] * 3, pi, covs, noise_index=2)
        new_model, _, event = spectral_fusion_check(model, PosteriorTensor(gamma, pi), tau=0.7)
        assert event is not None and event.removed == 1
        assert new_model.noise_index == 1


class TestIouFusion:
    def make(self, pi_rows, seed=0):
        n_comp, n_frames = pi_rows.shape
        rng = np.random.default_rng(seed)
        gamma = np.repeat(pi_rows[:, :, None], 3, axis=2)
        gamma = gamma / np.maximum(gamma.sum(axis=0, keepdims=True), 1e-12)
        covs = [
            np.broadcast_to(np.eye(2, dtype=complex), (3, 2, 2)).copy() for _ in range(n_comp)
        ]
        mus = [unit(v) for v in np.eye(4)[:n_comp]]
        model = make_fusion_model(mus, [5.0] * n_comp, pi_rows, covs)
        return model, PosteriorTensor(gamma, pi_rows)

    def test_identical_activity_fuses(self):
        row = np.array([1.0, 1.0, 0.0, 1.0, 0.0])
        pi = np.stack([row * 0.45, row * 0.45, 0.1 * np.ones(5)])
        model, post = self.make(pi)
        _, _, event = iou_fusion_check(model, post, tau=0.85, activity_threshold=0.3)
        assert event is not None and event.similarity == pytest.approx(1.0)

    def test_disjoint_activity_no_fusion(self):
        a = np.array([0.9, 0.9, 0.0, 0.0, 0.0])
        b = np.array([0.0, 0.0, 0.0, 0.9, 0.9])
        pi = np.stack([a, b, 1.0 - a - b])
        model, post = self.make(pi)
        _, _, event = iou_fusion_check(model, post, tau=0.1, activity_threshold=0.5)
        assert event is None

    def test_nine_of_ten_overlap_fuses(self):
        a = np.zeros(12)
        b = np.zeros(12)
        a[:10] = 0.9  # active frames 0..9
        b[1:11] = 0.9  # active frames 1..10 -> intersection 9, union 11? make it 9/10
        b = np.zeros(12)
        b[:9] = 0.9
        b[10] = 0.0
        a[9] = 0.9
        # a active on 0..9 (10 frames), b active on 0..8 (9 frames): IoU = 9/10
        pi = np.stack([a, b, np.maximum(1.0 - a - b, 0.0)])
        pi = pi / pi.sum(axis=0, keepdims=True)
        model, post = self.make((np.stack([a, b, np.maximum(1.0 - a - b, 0.05)])))
        _, _, event = iou_fusion_check(model, post, tau=0.85, activity_threshold=0.5)
        assert event is not None
        assert event.similarity == pytest.approx(0.9)

    def test_empty_activities_iou_zero(self):
        pi = np.stack([np.zeros(4), np.zeros(4), np.ones(4)])
        model, post = self.make(pi)
        _, _, event = iou_fusion_check(model, post, tau=0.5, activity_threshold=0.5)
        assert event is None


class TestJointEm:
    def test_single_iteration_deterministic(self):
        x, e, truth, _ = build_meeting(tiny_scenario([0, 1], seed=8))
        init = kmeans_init_posterior(e, truth.voiced, 2, x.num_bins, seed=1)
        cfg = JointEmConfig(iterations=1, fusion="none", noise_index=2, seed=5)
        out1 = joint_em(x, e, init, cfg)
        out2 = joint_em(x, e, init, cfg)
        assert np.array_equal(out1[1].gamma, out2[1].gamma)
        assert np.array_equal(out1[3], out2[3])
        for a, b in zip(out1[0].spatial, out2[0].spatial):
            assert np.array_equal(a.covariances, b.covariances)

    def test_fusion_eight_components_five_speakers(self):
        cfg = tiny_scenario([0, 1, 2, 3, 4], duration_s=16.0, overlap=0.1, seed=9, embed_dim=24)
        x, e, truth, _ = build_meeting(cfg)
        init = kmeans_init_posterior(e, truth.voiced, 8, x.num_bins, seed=2)
        jcfg = JointEmConfig(
            iterations=25, fusion="spectral", tau_spectral=0.7, fusion_start=5,
            noise_index=8, seed=0,
        )
        model, post, events, trace = joint_em(x, e, init, jcfg)
        assert count_speakers(model) == 5
        assert len(events) == 3
        post.validate()

    def test_piecewise_loglik_monotone(self):
        for seed in range(3):
            cfg = tiny_scenario([0, 1], duration_s=6.0, seed=20 + seed)
            x, e, truth, _ = build_meeting(cfg)
            init = kmeans_init_posterior(e, truth.voiced, 4, x.num_bins, seed=seed)
            jcfg = JointEmConfig(
                iterations=18, fusion="spectral", fusion_start=4, noise_index=4, seed=seed
            )
            model, post, events, trace = joint_em(x, e, init, jcfg)
            fusion_iters = {ev.iteration for ev in events}
            for i in range(len(trace) - 1):
                if i in fusion_iters:
                    continue  # the value may move when K changed
                assert trace[i + 1] >= trace[i] - 1e-6 * abs(trace[i])

    def test_reused_quad_matches_recomputed_across_fusion(self, monkeypatch):
        # the E-step's quadratic forms, trimmed and patched after each fusion,
        # must equal forms computed afresh from the M-step's input covariances
        cfg = tiny_scenario([0, 1, 2], duration_s=8.0, overlap=0.1, seed=9, embed_dim=24)
        x, e, truth, _ = build_meeting(cfg)
        init = kmeans_init_posterior(e, truth.voiced, 6, x.num_bins, seed=2)
        jcfg = JointEmConfig(
            iterations=16, fusion="spectral", tau_spectral=0.7, fusion_start=3,
            noise_index=6, seed=0,
        )
        reused = joint_em(x, e, init, jcfg)
        real = cacg.cacg_m_step
        monkeypatch.setattr(
            cacg, "cacg_m_step", lambda x, post, prev, quad=None: real(x, post, prev)
        )
        fresh = joint_em(x, e, init, jcfg)
        assert reused[2] and reused[2] == fresh[2]  # fusion fired, at the same steps
        assert np.max(np.abs(reused[3] - fresh[3]) / np.abs(fresh[3])) <= 1e-12
        assert np.max(np.abs(reused[1].gamma - fresh[1].gamma)) <= 1e-12
        for a, b in zip(reused[0].spatial, fresh[0].spatial):
            assert np.max(np.abs(a.covariances - b.covariances)) <= 1e-12

    def test_reduction_to_cacgmm_with_zero_kappa(self):
        x, e, truth, _ = build_meeting(tiny_scenario([0, 1], duration_s=5.0, seed=11))
        rng = np.random.default_rng(4)
        init = random_soft_posterior(rng, 2, x.num_frames, x.num_bins)
        jcfg = JointEmConfig(iterations=12, kappa_max=0.0, fusion="none", seed=0)
        model, post_joint, _, _ = joint_em(x, e, init, jcfg)
        _, post_cacg, _ = cacgmm_em(x, init, 12)
        assert np.max(np.abs(post_joint.gamma - post_cacg.gamma)) < 1e-9
        assert np.max(np.abs(post_joint.pi - post_cacg.pi)) < 1e-9

    def test_reduction_to_tempered_vmfmm_with_frozen_identity_b(self):
        # With B frozen at identity the joint EM equals a VMFMM with
        # time-varying priors: the frequency replication scales the complete
        # log-likelihood and the M-step weights by F, which cancels in every
        # update, so the per-bin posteriors carry the vMF likelihood to the
        # first power.
        x, e, truth, _ = build_meeting(tiny_scenario([0, 1], duration_s=5.0, seed=12))
        rng = np.random.default_rng(5)
        init = random_soft_posterior(rng, 2, x.num_frames, x.num_bins)
        jcfg = JointEmConfig(
            iterations=12, kappa_max=35.0, fusion="none", freeze_spatial=True, seed=0
        )
        model, post_joint, _, _ = joint_em(x, e, init, jcfg)
        _, resp, _ = vmfmm_em(e, init.pi, 12, kappa_max=35.0, prior_mode="per_frame")
        spread = np.max(np.abs(post_joint.gamma - post_joint.gamma[:, :, :1]))
        assert spread < 1e-12  # constant over frequency
        assert np.max(np.abs(post_joint.gamma[:, :, 0] - resp)) < 1e-9

    def test_fusion_never_below_noise_plus_one(self):
        cfg = tiny_scenario([0], duration_s=5.0, seed=13)
        x, e, truth, _ = build_meeting(cfg)
        init = kmeans_init_posterior(e, truth.voiced, 3, x.num_bins, seed=3)
        jcfg = JointEmConfig(
            iterations=20, fusion="spectral", tau_spectral=0.05, fusion_start=0,
            noise_index=3, seed=0,
        )
        model, _, events, _ = joint_em(x, e, init, jcfg)
        assert count_speakers(model) >= 1
        assert model.noise_index is not None

    def test_invalid_fusion_strategy_rejected(self):
        x, e, truth, _ = build_meeting(tiny_scenario([0], seed=14))
        init = kmeans_init_posterior(e, truth.voiced, 2, x.num_bins)
        with pytest.raises(ConfigurationError):
            joint_em(x, e, init, JointEmConfig(fusion="sometimes"))


class TestCountSpeakers:
    def test_with_noise(self):
        x, e, truth, _ = build_meeting(tiny_scenario([0, 1], seed=15))
        init = kmeans_init_posterior(e, truth.voiced, 2, x.num_bins)
        cfg = JointEmConfig(iterations=1, fusion="none", noise_index=2)
        model, _, _, _ = joint_em(x, e, init, cfg)
        assert count_speakers(model) == 2

    def test_without_noise(self):
        x, e, truth, _ = build_meeting(tiny_scenario([0], seed=16))
        rng = np.random.default_rng(2)
        init = random_soft_posterior(rng, 1, x.num_frames, x.num_bins)
        model, _, _, _ = joint_em(x, e, init, JointEmConfig(iterations=1, fusion="none"))
        assert count_speakers(model) == 1
