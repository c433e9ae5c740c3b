import tracemalloc

import numpy as np
import pytest
from helpers import kmeans_init_posterior, random_soft_posterior, tiny_scenario
from scipy.optimize import linear_sum_assignment

from mixsep import cacg, integrated
from mixsep.cacg import (
    PosteriorTensor,
    SpatialComponent,
    StftTensor,
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
from mixsep.numerics import chol_logdet_quad
from mixsep.synth import build_meeting
from mixsep.vmf import log_pdf_matrix, vmfmm_em


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def model_from_truth(truth, x, pi=None, kappa=30.0, noise_index=None):
    k_true = truth.mu_true.shape[0]
    spatial = [SpatialComponent(truth.cov_true[k].copy()) for k in range(k_true)]
    if pi is None:
        pi = np.full((k_true, x.num_frames), 1.0 / k_true)
    return JointModel(spatial, truth.mu_true, np.full(k_true, kappa), pi, noise_index)


class TestJointModelChecks:
    @staticmethod
    def parts():
        spatial = [SpatialComponent.identity(3, 2) for _ in range(2)]
        return spatial, np.eye(4)[:2], np.array([5.0, 0.0]), np.full((2, 6), 0.5)

    def test_valid_parts_accepted(self):
        model = JointModel(*self.parts())
        assert model.mu.shape == (2, 4) and model.kappa.shape == (2,)

    @pytest.mark.parametrize("row", [[2.0, 0.0, 0.0, 0.0], [0.0] * 4, [np.nan, 0.0, 0.0, 0.0]])
    def test_non_unit_prototype_rejected(self, row):
        spatial, mu, kappa, pi = self.parts()
        mu[1] = row
        with pytest.raises(InvalidInputError):
            JointModel(spatial, mu, kappa, pi)

    @pytest.mark.parametrize("bad", [-1e-3, np.nan, np.inf])
    def test_bad_kappa_rejected(self, bad):
        spatial, mu, kappa, pi = self.parts()
        kappa[0] = bad
        with pytest.raises(InvalidInputError):
            JointModel(spatial, mu, kappa, pi)

    @pytest.mark.parametrize("rows", [1, 3])
    def test_prototype_count_must_match_spatial(self, rows):
        spatial, _, kappa, pi = self.parts()
        with pytest.raises(InvalidInputError):
            JointModel(spatial, np.eye(4)[:rows], kappa, pi)
        with pytest.raises(InvalidInputError):
            JointModel(spatial, np.eye(4)[:2], np.full(rows, 5.0), pi)


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
        logits = np.log(model.pi)[:, :, None] + np.transpose(log_pdf, (0, 2, 1))
        want = np.exp(logits - logits.max(axis=0, keepdims=True))
        want /= want.sum(axis=0, keepdims=True)
        assert np.max(np.abs(post.gamma - want)) < 1e-12

    def test_uninformative_spatial_equals_vmf_only(self):
        x, e, truth, _ = build_meeting(tiny_scenario([0, 1], seed=2))
        xn = normalize_observations(x)
        k_true = truth.mu_true.shape[0]
        spatial = [SpatialComponent.identity(x.num_bins, x.num_channels) for _ in range(k_true)]
        kappa = np.full(k_true, 35.0)
        pi = np.full((k_true, x.num_frames), 1.0 / k_true)
        post = joint_e_step(xn, e, JointModel(spatial, truth.mu_true, kappa, pi))
        # constant over frequency
        assert np.max(np.abs(post.gamma - post.gamma[:, :, :1])) < 1e-12
        logits = np.log(pi) + log_pdf_matrix(truth.mu_true, kappa, e.frames)
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
            spectral_only.mu,
            spectral_only.kappa,
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
        direct_mu, direct_kappa = vmf_m_step(e, post.gamma[:, :, 0], 35.0)
        for a_mu, a_kappa, b_mu, b_kappa in zip(new.mu, new.kappa, direct_mu, direct_kappa):
            assert np.allclose(a_mu, b_mu, atol=1e-9)
            assert abs(a_kappa - b_kappa) < 1e-9

    def test_noise_component_kappa_stays_zero(self):
        x, e, truth, _ = build_meeting(tiny_scenario([0, 1], seed=6))
        xn = normalize_observations(x)
        rng = np.random.default_rng(1)
        post = random_soft_posterior(rng, 3, x.num_frames, x.num_bins)
        spatial = [SpatialComponent.identity(x.num_bins, x.num_channels) for _ in range(3)]
        mu = np.tile(unit(np.arange(1.0, 17.0)), (3, 1))
        model = JointModel(spatial, mu, np.full(3, 10.0), post.pi, noise_index=2)
        new = joint_m_step(xn, e, post, model, kappa_max=35.0)
        assert new.kappa[2] == 0.0
        assert new.kappa[0] > 0.0

    def test_joint_parameter_recovery(self):
        cfg = tiny_scenario([0, 1, 2], duration_s=16.0, overlap=0.2, seed=7, channels=4)
        x, e, truth, _ = build_meeting(cfg)
        init = kmeans_init_posterior(e, truth.voiced, 3, x.num_bins, seed=3, with_noise=True)
        jcfg = JointEmConfig(iterations=20, fusion="none", noise_index=3, seed=0)
        model, post, events, trace = joint_em(x, e, init, jcfg)
        mus = model.mu[:3]
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
    return JointModel(spatial, np.stack(mus), kappas, pi, noise_index)


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


class TestFusionScorerMatchesPairLoop:
    """Both fusion checks against a brute-force loop over the speaker pairs."""

    @staticmethod
    def pair_loop(model, score, tau, k_min):
        speakers = [k for k in range(model.num_components) if k != model.noise_index]
        if len(speakers) <= max(k_min, 1):
            return None
        best, best_score = None, -np.inf
        for i, a in enumerate(speakers):
            for b in speakers[i + 1 :]:
                if score(a, b) > best_score:
                    best, best_score = (a, b), score(a, b)
        return (best, best_score) if best_score > tau else None

    @staticmethod
    def random_model(rng, mus, pi):
        n_comp, n_frames = pi.shape
        covs = [np.broadcast_to(np.eye(2, dtype=complex), (2, 2, 2)).copy()] * n_comp
        noise = None if rng.random() < 0.3 else n_comp // 2  # noise in the middle
        model = make_fusion_model(mus, [5.0] * n_comp, pi, covs, noise_index=noise)
        gamma = np.full((n_comp, n_frames, 2), 1.0 / n_comp)
        return model, PosteriorTensor(gamma, pi)

    @staticmethod
    def assert_same(event, want):
        if want is None:
            assert event is None
        else:
            assert event is not None
            assert (event.kept, event.removed) == want[0]
            assert event.similarity == want[1]

    def test_spectral_matches_pair_loop(self):
        # axes and (+-1/2, +-1/2, +-1/2, +-1/2): unit prototypes whose cosines are
        # exact multiples of 1/2, so many pairs tie exactly
        rng = np.random.default_rng(5)
        pool = list(np.eye(4)) + [np.array(s) - 0.5 for s in np.ndindex(2, 2, 2, 2)]
        outcomes = {"fused": 0, "none": 0, "tied": 0}
        for _ in range(400):
            n_comp = int(rng.integers(2, 8))
            mus = [pool[i] for i in rng.integers(len(pool), size=n_comp)]
            model, post = self.random_model(rng, mus, rng.uniform(0.0, 1.0, (n_comp, 6)))
            tau = float(rng.choice([0.25, 0.5, 0.7, 0.99]))
            k_min = int(rng.integers(1, 5))
            cosine = lambda a, b: float(model.mu[a] @ model.mu[b])
            want = self.pair_loop(model, cosine, tau, k_min)
            _, _, event = spectral_fusion_check(model, post, tau, k_min=k_min)
            self.assert_same(event, want)
            outcomes["none" if want is None else "fused"] += 1
            if want is not None:
                speakers = model.speaker_indices()
                ties = [
                    (a, b) for i, a in enumerate(speakers) for b in speakers[i + 1 :]
                    if cosine(a, b) == want[1]
                ]
                outcomes["tied"] += len(ties) > 1
        assert min(outcomes.values()) > 20, outcomes

    def test_spectral_random_prototypes(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            n_comp = int(rng.integers(2, 8))
            mus = [unit(v) for v in rng.standard_normal((n_comp, 3))]
            model, post = self.random_model(rng, mus, rng.uniform(0.0, 1.0, (n_comp, 6)))
            cosine = lambda a, b: float(model.mu[a] @ model.mu[b])
            want = self.pair_loop(model, cosine, 0.5, 1)
            _, _, event = spectral_fusion_check(model, post, 0.5)
            if want is None:
                assert event is None
            else:
                assert (event.kept, event.removed) == want[0]
                assert event.similarity == pytest.approx(want[1], abs=1e-15)

    def test_iou_matches_pair_loop(self):
        rng = np.random.default_rng(7)
        outcomes = {"fused": 0, "none": 0, "empty_union": 0}
        for _ in range(400):
            n_comp = int(rng.integers(2, 8))
            pi = rng.uniform(0.0, 1.0, (n_comp, 5))
            pi[rng.random(n_comp) < 0.3] = 0.0  # all-inactive rows
            mus = [unit(v) for v in np.eye(8)[:n_comp]]
            model, post = self.random_model(rng, mus, pi)
            tau = float(rng.choice([0.2, 0.5, 0.6, 0.8]))
            k_min = int(rng.integers(1, 5))
            active = pi > 0.5

            def iou(a, b):
                union = np.logical_or(active[a], active[b]).sum()
                return np.logical_and(active[a], active[b]).sum() / union if union else 0.0

            want = self.pair_loop(model, iou, tau, k_min)
            _, _, event = iou_fusion_check(model, post, tau, activity_threshold=0.5, k_min=k_min)
            self.assert_same(event, want)
            outcomes["none" if want is None else "fused"] += 1
            outcomes["empty_union"] += int((~active).all(axis=1).sum() >= 2)
        assert min(outcomes.values()) > 20, outcomes


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
            cacg, "cacg_m_step",
            lambda x, post, prev, quad=None, features=None: real(x, post, prev),
        )
        fresh = joint_em(x, e, init, jcfg)
        assert reused[2] and reused[2] == fresh[2]  # fusion fired, at the same steps
        assert np.max(np.abs(reused[3] - fresh[3]) / np.abs(fresh[3])) <= 1e-12
        assert np.max(np.abs(reused[1].gamma - fresh[1].gamma)) <= 1e-12
        for a, b in zip(reused[0].spatial, fresh[0].spatial):
            assert np.max(np.abs(a.covariances - b.covariances)) <= 1e-12

    def test_previous_posterior_adds_nothing_to_the_e_step_peak(self, monkeypatch):
        # the E-step is the run's memory peak; the posterior of the iteration
        # before it must not add to it, so every E-step peaks alike
        x, e, truth, _ = build_meeting(tiny_scenario([0, 1], duration_s=8.0, seed=11))
        init = kmeans_init_posterior(e, truth.voiced, 3, x.num_bins, seed=1)
        jcfg = JointEmConfig(iterations=4, fusion="none", noise_index=3, seed=0)
        real = integrated._joint_e_step
        peaks = []

        def traced_e_step(*args, **kwargs):
            tracemalloc.reset_peak()
            out = real(*args, **kwargs)
            peaks.append(tracemalloc.get_traced_memory()[1])
            return out

        monkeypatch.setattr(integrated, "_joint_e_step", traced_e_step)
        tracemalloc.start()
        try:
            _, post, _, _ = joint_em(x, e, init, jcfg)
        finally:
            tracemalloc.stop()
        gamma_bytes = post.gamma.nbytes  # one (K, F, T) float64 array
        assert gamma_bytes > 100_000
        assert max(peaks[1:]) < peaks[0] + gamma_bytes / 2, (peaks, gamma_bytes)
        post.validate()

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

    def test_kappa_cap_outside_checked_range_rejected(self):
        with pytest.raises(ConfigurationError):
            JointEmConfig(kappa_max=1e7)


class TestRankDeficientArrays:
    """A duplicated or a dead microphone makes every spatial covariance
    singular up to its 1e-10 loading (condition number about 3e10)."""

    @pytest.mark.parametrize("fault", ["duplicate", "dead"])
    def test_joint_em_on_a_singular_array(self, fault, monkeypatch):
        x, e, truth, _ = build_meeting(tiny_scenario([0, 1, 2], duration_s=6.0, seed=31))
        data = x.data.copy()
        if fault == "duplicate":
            data[1] = data[0]
        else:
            data[2] = 0.0
        x = StftTensor(data, x.sample_rate, x.stft_size, x.window_size, x.shift)
        forms = []
        real = cacg.quad_forms

        def spy(covariances, features):
            logdet, quad = real(covariances, features)
            forms.append((covariances, quad))
            return logdet, quad

        monkeypatch.setattr(cacg, "quad_forms", spy)
        init = kmeans_init_posterior(e, truth.voiced, 4, x.num_bins, seed=1)
        jcfg = JointEmConfig(iterations=20, fusion="spectral", fusion_start=5, noise_index=4)
        _, post, events, _ = joint_em(x, e, init, jcfg)
        post.validate()
        assert events
        y = np.transpose(normalize_observations(x).data, (2, 0, 1))
        for covariances, quad in forms:
            want = chol_logdet_quad(covariances, y[None])[1]
            # the explicit inverse loses about cond * eps = 7e-6 where the
            # copied channel cancels (9e-6 measured on seeds 31-40, 1e-14
            # with a dead channel, whose features are exact zeros)
            assert np.max(np.abs(quad - want) / want) <= 1e-4


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
