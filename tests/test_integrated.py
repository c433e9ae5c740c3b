import logging
import tracemalloc

import numpy as np
import pytest
import reference
from helpers import (
    assert_exactly_hermitian,
    count_series_calls,
    identity_stack,
    kmeans_init_posterior,
    plain_forms,
    random_soft_posterior,
    spatial_em,
    tiny_scenario,
    unit_observations,
)
from scipy.optimize import linear_sum_assignment

from mixsep import cacg, integrated
from mixsep.cacg import (
    StftTensor,
    cacg_log_pdf_stack,
    em_sweep,
    normalize_observations,
    outer_features,
)
from mixsep.errors import ConfigurationError, InvalidInputError
from mixsep.integrated import (
    FusionEvent,
    JointEmConfig,
    JointModel,
    count_speakers,
    fused_covariances,
    iou_fusion_check,
    joint_em,
    joint_m_step,
    spectral_fusion_check,
)
from mixsep.numerics import chol_logdet_quad, log_vmf_normalizer, update_pi
from mixsep.synth import build_meeting
from mixsep.vmf import log_pdf_matrix


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def model_from_truth(truth, x, pi=None, kappa=30.0, noise_index=None):
    k_true = truth.mu_true.shape[0]
    if pi is None:
        pi = np.full((k_true, x.num_frames), 1.0 / k_true)
    return JointModel(truth.cov_true.copy(), truth.mu_true, np.full(k_true, kappa), pi, noise_index)


class TestJointModelChecks:
    @staticmethod
    def parts():
        return identity_stack(2, 3, 2), np.eye(4)[:2], np.array([5.0, 0.0]), np.full((2, 6), 0.5)

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

    @pytest.mark.parametrize(
        "covariances",
        [
            identity_stack(2, 3, 2)[0],
            identity_stack(2, 3, 2)[None],
            np.zeros((2, 3, 2, 3), dtype=complex),
            identity_stack(1, 3, 2),
            identity_stack(3, 3, 2),
        ],
        ids=["ndim_3", "ndim_5", "non_square", "k_below_mu", "k_above_mu"],
    )
    def test_bad_covariance_shape_rejected(self, covariances):
        _, mu, kappa, pi = self.parts()
        with pytest.raises(InvalidInputError):
            JointModel(covariances, mu, kappa, pi)

    @pytest.mark.parametrize("rows", [1, 3])
    def test_lognorm_rows_must_match_kappa(self, rows):
        covariances, mu, kappa, pi = self.parts()
        with pytest.raises(InvalidInputError):
            JointModel(covariances, mu, kappa, pi, lognorm=np.zeros(rows))

    @pytest.mark.parametrize("rows", [1, 3])
    def test_pi_rows_must_match_covariances(self, rows):
        covariances, mu, kappa, _ = self.parts()
        with pytest.raises(InvalidInputError):
            JointModel(covariances, mu, kappa, np.full((rows, 6), 1.0 / rows))


def joint_posterior(x, e, model):
    """(K, T, F) posterior of one coupled E-step on the observations ``x``,
    from the features, logits and sweep :func:`joint_em` runs."""
    logits = integrated._logits(model, e)
    return em_sweep(model.covariances, logits, outer_features(x), update=False)[0]


def m_step(e, post, covariances, noise_index=None, kappa_max=35.0, rng=None):
    """:func:`joint_m_step` as :func:`joint_em` runs it on the posterior
    ``post``: on its frequency sums, with the priors ``update_pi`` makes of
    them."""
    gbar = post.sum(axis=2)
    pi = update_pi(gbar, post.shape[2])
    return joint_m_step(e, gbar, covariances, pi, kappa_max, rng, noise_index)


def spatial_forms(xn, model):
    """The quadratic forms and features the M-step of ``model`` is weighted with."""
    features = outer_features(xn)
    return plain_forms(model.covariances, features), features


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
        gamma = joint_posterior(xn, e, model)
        log_pdf, _ = cacg_log_pdf_stack(model.covariances, xn, outer_features(xn))
        logits = np.log(model.pi)[:, :, None] + np.transpose(log_pdf, (0, 2, 1))
        want = np.exp(logits - logits.max(axis=0, keepdims=True))
        want /= want.sum(axis=0, keepdims=True)
        assert np.max(np.abs(gamma - want)) < 1e-12

    def test_uninformative_spatial_equals_vmf_only(self):
        x, e, truth, _ = build_meeting(tiny_scenario([0, 1], seed=2))
        xn = normalize_observations(x)
        k_true = truth.mu_true.shape[0]
        spatial = identity_stack(k_true, x.num_bins, x.num_channels)
        kappa = np.full(k_true, 35.0)
        pi = np.full((k_true, x.num_frames), 1.0 / k_true)
        gamma = joint_posterior(xn, e, JointModel(spatial, truth.mu_true, kappa, pi))
        # constant over frequency
        assert np.max(np.abs(gamma - gamma[:, :, :1])) < 1e-12
        logits = np.log(pi) + log_pdf_matrix(truth.mu_true, kappa, e.frames)
        want = np.exp(logits - logits.max(axis=0, keepdims=True))
        want /= want.sum(axis=0, keepdims=True)
        assert np.max(np.abs(gamma[:, :, 0] - want)) < 1e-12

    def test_joint_beats_single_models_with_weak_cues(self):
        cfg = tiny_scenario([0, 1, 2], duration_s=10.0, kappa_true=4.0, seed=3)
        cfg.anisotropy = 1.2
        x, e, truth, _ = build_meeting(cfg)
        xn = normalize_observations(x)
        joint = model_from_truth(truth, x, kappa=4.0)
        spatial_only = model_from_truth(truth, x, kappa=0.0)
        spectral_only = model_from_truth(truth, x, kappa=4.0)
        spectral_only = JointModel(
            identity_stack(spectral_only.num_components, x.num_bins, x.num_channels),
            spectral_only.mu,
            spectral_only.kappa,
            spectral_only.pi,
        )
        acc_joint = bin_accuracy(joint_posterior(xn, e, joint), truth)
        acc_spatial = bin_accuracy(joint_posterior(xn, e, spatial_only), truth)
        acc_spectral = bin_accuracy(joint_posterior(xn, e, spectral_only), truth)
        assert acc_joint > acc_spatial
        assert acc_joint > acc_spectral

    def test_frame_mismatch_rejected(self):
        x, e, truth, _ = build_meeting(tiny_scenario([0], seed=4))
        from mixsep.vmf import EmbeddingSequence

        short = EmbeddingSequence(e.frames[:-3], e.frame_rate)
        init = kmeans_init_posterior(e, truth.voiced, 1, x.num_bins)
        with pytest.raises(InvalidInputError):
            joint_em(x, short, init, JointEmConfig(iterations=1, fusion="none"))


class TestJointMStep:
    def test_constant_gamma_over_f_matches_unweighted_vmf(self):
        x, e, truth, _ = build_meeting(tiny_scenario([0, 1], seed=5))
        rng = np.random.default_rng(0)
        post = random_soft_posterior(rng, 2, x.num_frames, x.num_bins)
        model = model_from_truth(truth, x)
        from mixsep.vmf import EmbeddingSequence, vmf_m_step

        new = m_step(e, post, model.covariances)
        direct_mu, direct_kappa, _ = vmf_m_step(e, post[:, :, 0], 35.0)
        for a_mu, a_kappa, b_mu, b_kappa in zip(new.mu, new.kappa, direct_mu, direct_kappa):
            assert np.allclose(a_mu, b_mu, atol=1e-9)
            assert abs(a_kappa - b_kappa) < 1e-9

    def test_noise_component_kappa_stays_zero(self):
        x, e, truth, _ = build_meeting(tiny_scenario([0, 1], seed=6))
        rng = np.random.default_rng(1)
        post = random_soft_posterior(rng, 3, x.num_frames, x.num_bins)
        spatial = identity_stack(3, x.num_bins, x.num_channels)
        new = m_step(e, post, spatial, noise_index=2)
        assert new.kappa[2] == 0.0
        assert new.kappa[0] > 0.0

    def test_m_step_hands_on_the_log_normalizers(self):
        # the noise row takes the closed form at kappa 0, the others the
        # series of the concentration update, a row at the cap included
        x, e, truth, _ = build_meeting(tiny_scenario([0, 1], seed=6))
        post = random_soft_posterior(np.random.default_rng(1), 4, x.num_frames, x.num_bins)
        post[1] = 0.0
        post[1, 7, :] = 1.0  # one frame: saturated, at the cap
        spatial = identity_stack(4, x.num_bins, x.num_channels)
        new = m_step(e, post, spatial, noise_index=3)
        assert new.kappa[1] == 35.0 and new.kappa[3] == 0.0 and new.kappa[0] > 0.0
        want = log_vmf_normalizer(16, new.kappa)
        assert np.all(np.abs(new.lognorm - want) <= 1e-12 * np.abs(want))
        assert new.lognorm[3] == log_vmf_normalizer(16, 0.0)

    def test_matches_the_former_whole_array_m_steps_to_the_bit(self):
        # the Tyler update and joint_m_step, as joint_em runs them, against
        # the whole-array joint M-step they replace: a noise row, a row at
        # the cap and the priors included
        x, e, truth, _ = build_meeting(tiny_scenario([0, 1], seed=6))
        xn = normalize_observations(x)
        post = random_soft_posterior(np.random.default_rng(1), 4, x.num_frames, x.num_bins)
        post[1] = 0.0
        post[1, 7, :] = 1.0
        features = outer_features(xn)
        identity = identity_stack(4, x.num_bins, x.num_channels)
        covariances = cacg.cacg_m_step(post, identity, 1.0, features)
        mu = np.tile(unit(np.arange(1.0, 17.0)), (4, 1))
        model = JointModel(covariances, mu, np.full(4, 10.0), post.mean(axis=2), noise_index=3)
        quad = plain_forms(covariances, features)
        want = reference.joint_m_step(
            xn, e, post, model, quad.copy(), features, 35.0, np.random.default_rng(2)
        )
        spatial = cacg.cacg_m_step(post, covariances, quad, features)
        got = m_step(e, post, spatial, 3, 35.0, np.random.default_rng(2))
        for name in ("covariances", "mu", "kappa", "pi", "lognorm"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert got.noise_index == want.noise_index == 3
        assert got.kappa[1] == 35.0 and got.kappa[3] == 0.0

    @pytest.mark.parametrize("freeze_spatial", [False, True])
    def test_initial_model_matches_the_former_first_m_step_to_the_bit(self, freeze_spatial):
        # the first M-step: the Tyler update from identity covariances (or
        # the identities themselves) and the vMF M-step, with the frequency
        # mean of the initial posterior as the priors
        x, e, truth, _ = build_meeting(tiny_scenario([0, 1], seed=6))
        init = kmeans_init_posterior(e, truth.voiced, 3, x.num_bins, seed=3, with_noise=True)
        config = JointEmConfig(noise_index=3, freeze_spatial=freeze_spatial)
        features = outer_features(x)
        got = integrated._initial_model(x, e, init, config, np.random.default_rng(0), features)
        if freeze_spatial:
            covariances = identity_stack(4, x.num_bins, x.num_channels)
        else:
            covariances = reference.initial_covariances(init, features)
        mu, kappa, lognorm = reference.spectral_m_step(
            e, init.sum(axis=2), config.kappa_max, np.random.default_rng(0), 3
        )
        assert np.array_equal(got.covariances, covariances)
        assert np.array_equal(got.mu, mu) and np.array_equal(got.kappa, kappa)
        assert np.array_equal(got.lognorm, lognorm) and np.array_equal(got.pi, init.mean(axis=2))
        assert got.noise_index == 3

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
            got = model.covariances[local]
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
    return JointModel(np.stack(covs), np.stack(mus), kappas, pi, noise_index)


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
        return pi, covs, rng

    def test_identical_prototypes_fuse_with_exact_sums(self):
        pi, covs, rng = self.setup_scene()
        mu = unit(rng.standard_normal(8))
        other = unit(np.concatenate([[10.0], rng.standard_normal(7)]))
        model = make_fusion_model([mu, mu, other], [20.0, 20.0, 20.0], pi, covs)
        event = spectral_fusion_check(model, tau=0.99)
        assert event is not None and event.kept == 0 and event.removed == 1
        assert event.similarity == pytest.approx(1.0)
        # the fusion as joint_em applies it: the sweep merges the posterior
        x = unit_observations(rng, 2, 10, 4)
        features, logits = outer_features(x), np.log(pi)
        fused = fused_covariances(model, event.kept, event.removed)
        gamma = em_sweep(model.covariances, logits, features, update=False)[0]
        merge = (event.kept, event.removed, fused)
        merged = em_sweep(model.covariances, logits, features, merge=merge, update=False)[0]
        assert np.array_equal(merged[0], gamma[0] + gamma[1])
        assert np.array_equal(merged[1], gamma[2])
        assert fused.shape[0] == merged.shape[0] == 2
        # posterior still sums to one exactly
        assert np.max(np.abs(merged.sum(axis=0) - 1.0)) < 1e-12

    def test_equal_masses_give_arithmetic_mean_covariance(self):
        pi, covs, rng = self.setup_scene()
        pi = np.full_like(pi, 1.0 / 3.0)
        mu = unit(rng.standard_normal(8))
        model = make_fusion_model([mu, mu, -mu], [5.0, 5.0, 5.0], pi, covs)
        event = spectral_fusion_check(model, tau=0.9)
        assert event is not None
        want = 0.5 * covs[0] + 0.5 * covs[1]
        fused = fused_covariances(model, event.kept, event.removed)
        assert np.allclose(fused[0], want, atol=1e-15)

    @pytest.mark.parametrize("tau", [0.0, 1.5])
    def test_tau_outside_range_rejected(self, tau):
        pi, covs, rng = self.setup_scene()
        mu = unit(rng.standard_normal(8))
        model = make_fusion_model([mu, mu, -mu], [5.0] * 3, pi, covs)
        with pytest.raises(ConfigurationError):
            spectral_fusion_check(model, tau=tau)

    def test_below_threshold_no_fusion(self):
        pi, covs, rng = self.setup_scene()
        mus = [unit(v) for v in np.eye(8)[:3]]
        model = make_fusion_model(mus, [5.0] * 3, pi, covs)
        assert spectral_fusion_check(model, tau=0.7) is None

    def test_noise_component_exempt(self):
        pi, covs, rng = self.setup_scene()
        mu = unit(rng.standard_normal(8))
        model = make_fusion_model([mu, unit(np.eye(8)[1]), mu], [5.0] * 3, pi, covs, noise_index=2)
        event = spectral_fusion_check(model, tau=0.7)
        assert event is None  # the only similar pair involves the noise component

    def test_k_min_blocks_fusion(self):
        pi, covs, rng = self.setup_scene()
        mu = unit(rng.standard_normal(8))
        model = make_fusion_model([mu, mu, unit(np.eye(8)[2])], [5.0] * 3, pi, covs)
        assert spectral_fusion_check(model, tau=0.7, k_min=3) is None

    def test_noise_index_shifts_after_fusion(self):
        pi, covs, rng = self.setup_scene()
        mu = unit(rng.standard_normal(8))
        model = make_fusion_model([mu, mu, unit(np.eye(8)[3])], [5.0] * 3, pi, covs, noise_index=2)
        event = spectral_fusion_check(model, tau=0.7)
        assert event is not None and event.removed == 1
        # joint_em shifts the noise index past every removed row before it:
        # with the noise row in the middle, fusions on both of its sides
        cfg = tiny_scenario([0, 1, 2], duration_s=8.0, overlap=0.1, seed=9, embed_dim=24)
        x, e, truth, _ = build_meeting(cfg)
        init = kmeans_init_posterior(e, truth.voiced, 6, x.num_bins, seed=2)
        order = [0, 1, 2, 6, 3, 4, 5]
        init = init[order]
        jcfg = JointEmConfig(
            iterations=16, fusion="spectral", tau_spectral=0.7, fusion_start=3,
            noise_index=3, seed=0,
        )
        model, post, events, _ = joint_em(x, e, init, jcfg)
        noise, sides = 3, set()
        for ev in events:
            sides.add(ev.removed < noise)
            noise -= ev.removed < noise
        assert sides == {False, True}
        assert model.noise_index == noise
        # the pinned row is the one that holds the silence
        assert model.kappa[noise] == 0.0 and np.all(np.delete(model.kappa, noise) > 0.0)
        assert np.argmax(model.pi[:, ~truth.voiced].mean(axis=1)) == noise


class TestIouFusion:
    def make(self, pi_rows):
        n_comp = pi_rows.shape[0]
        covs = [
            np.broadcast_to(np.eye(2, dtype=complex), (3, 2, 2)).copy() for _ in range(n_comp)
        ]
        mus = [unit(v) for v in np.eye(4)[:n_comp]]
        return make_fusion_model(mus, [5.0] * n_comp, pi_rows, covs)

    def test_identical_activity_fuses(self):
        row = np.array([1.0, 1.0, 0.0, 1.0, 0.0])
        pi = np.stack([row * 0.45, row * 0.45, 0.1 * np.ones(5)])
        model = self.make(pi)
        event = iou_fusion_check(model, tau=0.85, activity_threshold=0.3)
        assert event is not None and event.similarity == pytest.approx(1.0)

    def test_disjoint_activity_no_fusion(self):
        a = np.array([0.9, 0.9, 0.0, 0.0, 0.0])
        b = np.array([0.0, 0.0, 0.0, 0.9, 0.9])
        pi = np.stack([a, b, 1.0 - a - b])
        model = self.make(pi)
        event = iou_fusion_check(model, tau=0.1, activity_threshold=0.5)
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
        model = self.make((np.stack([a, b, np.maximum(1.0 - a - b, 0.05)])))
        event = iou_fusion_check(model, tau=0.85, activity_threshold=0.5)
        assert event is not None
        assert event.similarity == pytest.approx(0.9)

    def test_empty_activities_iou_zero(self):
        pi = np.stack([np.zeros(4), np.zeros(4), np.ones(4)])
        model = self.make(pi)
        event = iou_fusion_check(model, tau=0.5, activity_threshold=0.5)
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
        n_comp = pi.shape[0]
        covs = [np.broadcast_to(np.eye(2, dtype=complex), (2, 2, 2)).copy()] * n_comp
        noise = None if rng.random() < 0.3 else n_comp // 2  # noise in the middle
        return make_fusion_model(mus, [5.0] * n_comp, pi, covs, noise_index=noise)

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
            model = self.random_model(rng, mus, rng.uniform(0.0, 1.0, (n_comp, 6)))
            tau = float(rng.choice([0.25, 0.5, 0.7, 0.99]))
            k_min = int(rng.integers(1, 5))
            cosine = lambda a, b: float(model.mu[a] @ model.mu[b])
            want = self.pair_loop(model, cosine, tau, k_min)
            event = spectral_fusion_check(model, tau, k_min=k_min)
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
            model = self.random_model(rng, mus, rng.uniform(0.0, 1.0, (n_comp, 6)))
            cosine = lambda a, b: float(model.mu[a] @ model.mu[b])
            want = self.pair_loop(model, cosine, 0.5, 1)
            event = spectral_fusion_check(model, 0.5)
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
            model = self.random_model(rng, mus, pi)
            tau = float(rng.choice([0.2, 0.5, 0.6, 0.8]))
            k_min = int(rng.integers(1, 5))
            active = pi > 0.5

            def iou(a, b):
                union = np.logical_or(active[a], active[b]).sum()
                return np.logical_and(active[a], active[b]).sum() / union if union else 0.0

            want = self.pair_loop(model, iou, tau, k_min)
            event = iou_fusion_check(model, tau, activity_threshold=0.5, k_min=k_min)
            self.assert_same(event, want)
            outcomes["none" if want is None else "fused"] += 1
            outcomes["empty_union"] += int((~active).all(axis=1).sum() >= 2)
        assert min(outcomes.values()) > 20, outcomes


class TestJointEm:
    def test_sums_the_series_once_per_iteration(self, monkeypatch):
        # the E-step reads the normalizers the vMF M-step handed on
        x, e, truth, _ = build_meeting(tiny_scenario([0, 1], seed=4))
        init = kmeans_init_posterior(e, truth.voiced, 4, x.num_bins, seed=1)
        jcfg = JointEmConfig(
            iterations=1, fusion="spectral", fusion_start=2, noise_index=4, seed=0
        )
        joint_em(x, e, init, jcfg)  # builds the tables
        calls = count_series_calls(monkeypatch)
        joint_em(x, e, init, jcfg)
        first = len(calls)
        calls.clear()
        jcfg.iterations = 8
        joint_em(x, e, init, jcfg)
        # one per M-step (the run starts with one) at the default cap of 35,
        # where the first Newton step always passes; a second would add one
        assert first == 2 and len(calls) - first == 7

    def test_single_iteration_deterministic(self):
        x, e, truth, _ = build_meeting(tiny_scenario([0, 1], seed=8))
        init = kmeans_init_posterior(e, truth.voiced, 2, x.num_bins, seed=1)
        cfg = JointEmConfig(iterations=1, fusion="none", noise_index=2, seed=5)
        out1 = joint_em(x, e, init, cfg)
        out2 = joint_em(x, e, init, cfg)
        assert np.array_equal(out1[1], out2[1])
        assert np.array_equal(out1[3], out2[3])
        assert np.array_equal(out1[0].covariances, out2[0].covariances)

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
        cacg.check_posterior(post)

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
        # the sweep's Tyler update weighs by the E-step's reciprocal forms,
        # trimmed and patched after each fusion; it must equal the update
        # from forms computed afresh from the M-step's input covariances
        cfg = tiny_scenario([0, 1, 2], duration_s=8.0, overlap=0.1, seed=9, embed_dim=24)
        x, e, truth, _ = build_meeting(cfg)
        init = kmeans_init_posterior(e, truth.voiced, 6, x.num_bins, seed=2)
        jcfg = JointEmConfig(
            iterations=16, fusion="spectral", tau_spectral=0.7, fusion_start=3,
            noise_index=6, seed=0,
        )
        reused = joint_em(x, e, init, jcfg)
        real = cacg.em_sweep
        fresh_calls = []

        def fresh_update(covariances, logits, features, out=None, merge=None, update=True):
            gamma, ll, _ = real(covariances, logits, features, out, merge, update=False)
            prev = covariances if merge is None else merge[2]  # the fused model's stack
            fresh_calls.append(prev.shape[0])
            quad = plain_forms(prev, features)
            return gamma, ll, cacg.cacg_m_step(gamma, prev, quad, features)

        monkeypatch.setattr(cacg, "em_sweep", fresh_update)
        fresh = joint_em(x, e, init, jcfg)
        assert len(fresh_calls) == jcfg.iterations  # every M-step recomputed
        # fusion fired, at the same steps and pairs; the similarities are
        # products of prototypes that differ from the fresh ones by rounding
        assert reused[2] and len(reused[2]) == len(fresh[2])
        for a, b in zip(reused[2], fresh[2]):
            assert (a.kept, a.removed, a.iteration) == (b.kept, b.removed, b.iteration)
            assert abs(a.similarity - b.similarity) <= 1e-12
        assert np.max(np.abs(reused[3] - fresh[3]) / np.abs(fresh[3])) <= 1e-12
        assert np.max(np.abs(reused[1] - fresh[1])) <= 1e-12
        for a, b in zip(reused[0].covariances, fresh[0].covariances):
            assert np.max(np.abs(a - b)) <= 1e-12

    @staticmethod
    def copy_fusion(model, gamma, event):
        """Reference fusion by copies: the fused model and its (K-1, T, F)
        posterior from the model and (K, T, F) posterior before it."""
        keep, remove = event.kept, event.removed
        kept = keep if keep < remove else keep - 1
        fused_gamma = np.delete(gamma, remove, axis=0)
        fused_gamma[kept] = gamma[keep] + gamma[remove]
        pi = np.delete(model.pi, remove, axis=0)
        pi[kept] = model.pi[keep] + model.pi[remove]
        noise = model.noise_index
        if noise is not None and remove < noise:
            noise -= 1
        fused = JointModel(
            fused_covariances(model, keep, remove), np.delete(model.mu, remove, axis=0),
            np.delete(model.kappa, remove), pi, noise,
        )
        return fused, fused_gamma

    def test_in_place_fusion_matches_the_fusion_check_copy(self):
        # the iteration that fuses inside the sweep merges the posterior as
        # a copy of it would, to the bit, and its M-step gives the model
        # joint_m_step and the Tyler update give on that posterior with the
        # copied fused model: prototypes and prior to the bit, covariances
        # (Tyler-weighted by other forms of the same matrices) to rounding
        cfg = tiny_scenario([0, 1, 2], duration_s=8.0, overlap=0.1, seed=9, embed_dim=24)
        x, e, truth, _ = build_meeting(cfg)
        init = kmeans_init_posterior(e, truth.voiced, 6, x.num_bins, seed=2)
        jcfg = JointEmConfig(
            iterations=3, fusion="spectral", tau_spectral=0.7, fusion_start=3,
            noise_index=6, seed=0,
        )
        before, _, _, _ = joint_em(x, e, init, jcfg)
        jcfg.iterations = 4
        after, post, events, _ = joint_em(x, e, init, jcfg)
        assert [ev.iteration for ev in events] == [3]

        xn = normalize_observations(x)
        event = spectral_fusion_check(before, jcfg.tau_spectral, 1, 3)
        assert event == events[0]
        fused, fused_gamma = self.copy_fusion(before, joint_posterior(x, e, before), event)
        assert np.array_equal(post, fused_gamma)
        want = m_step(
            e, post, cacg.cacg_m_step(post, fused.covariances, *spatial_forms(xn, fused)),
            fused.noise_index, jcfg.kappa_max, np.random.default_rng(jcfg.seed),
        )
        assert np.array_equal(after.mu, want.mu) and np.array_equal(after.kappa, want.kappa)
        assert np.array_equal(after.pi, want.pi)
        for a, b in zip(after.covariances, want.covariances, strict=True):
            assert np.max(np.abs(a - b)) <= 1e-12
        # no step symmetrizes: the fused row and the Tyler update are exactly
        # Hermitian as computed
        assert_exactly_hermitian(fused.covariances)
        assert_exactly_hermitian(after.covariances)

    def test_previous_posterior_adds_nothing_to_the_e_step_peak(self, monkeypatch):
        # the sweep is the run's memory peak; the posterior of the iteration
        # before it must not add to it, so every sweep peaks alike, fusions
        # included
        cfg = tiny_scenario([0, 1, 2], duration_s=8.0, overlap=0.1, seed=9, embed_dim=24)
        x, e, truth, _ = build_meeting(cfg)
        init = kmeans_init_posterior(e, truth.voiced, 6, x.num_bins, seed=2)
        jcfg = JointEmConfig(
            iterations=8, fusion="spectral", tau_spectral=0.7, fusion_start=3,
            noise_index=6, seed=0,
        )
        real = cacg.em_sweep
        peaks = []

        def traced_sweep(*args, **kwargs):
            tracemalloc.reset_peak()
            out = real(*args, **kwargs)
            peaks.append(tracemalloc.get_traced_memory()[1])
            return out

        monkeypatch.setattr(cacg, "em_sweep", traced_sweep)
        tracemalloc.start()
        try:
            _, post, events, _ = joint_em(x, e, init, jcfg)
        finally:
            tracemalloc.stop()
        assert events
        gamma_bytes = init.nbytes  # one (K, F, T) float64 array
        assert gamma_bytes > 100_000
        assert max(peaks[1:]) < peaks[0] + gamma_bytes / 2, (peaks, gamma_bytes)
        cacg.check_posterior(post)

    def test_working_set_is_features_posterior_and_forms(self, monkeypatch):
        # the sweep, the run's peak, holds Φ, one posterior and one block's
        # temporaries: no normalized copy of x, no second posterior at a
        # fusion and no (K, F, T) set of forms. In units of F T doubles at
        # the paper's K = 10 + noise and C = 4, Φ is C^2 = 16 and the posterior 11, so
        # the bound's base is 27 units; one more (K, F, T) array adds
        # 11 / 27 = 0.41 of it and a normalized copy of x (C complex values)
        # 8 / 27 = 0.30. At 4 kHz (F = 65) blocks of 4 bins keep one block's
        # forms at a sixteenth of the posterior; the 20 % margin covers them,
        # the (K, T) and (K, F, C, C) arrays and NumPy's internal buffers
        # (1.11x in all), and still fails on either extra array. The sweep's
        # budget is set to 4 bins of its first working set, so blocks widen
        # only as fusions remove components; the feature build and the first
        # M-step, which run before the posterior buffer exists, keep their
        # 32-bin blocks.
        cfg = tiny_scenario([0, 1, 2], duration_s=12.0, seed=5, channels=4)
        cfg.sample_rate = 4000
        x, e, truth, _ = build_meeting(cfg)
        init = kmeans_init_posterior(e, truth.voiced, 10, x.num_bins, seed=1)
        per_bin = 8 * (2 * len(init) + 16) * x.num_frames
        monkeypatch.setattr(cacg, "SWEEP_BLOCK_BYTES", 4 * per_bin)
        assert len(cacg._sweep_blocks(len(init), 4, x.num_frames, x.num_bins)) == 17
        jcfg = JointEmConfig(
            iterations=5, fusion="spectral", fusion_start=1, noise_index=10, seed=0
        )
        tracemalloc.start()
        try:
            _, post, events, _ = joint_em(x, e, init, jcfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert events  # each fusion merged the posterior in place
        features = outer_features(x).nbytes
        gamma = init.nbytes  # the buffer keeps the initial K rows
        assert peak < 1.2 * (features + gamma), (peak, features, gamma)

    def test_reduction_to_cacgmm_with_zero_kappa(self):
        x, e, truth, _ = build_meeting(tiny_scenario([0, 1], duration_s=5.0, seed=11))
        rng = np.random.default_rng(4)
        init = random_soft_posterior(rng, 2, x.num_frames, x.num_bins)
        jcfg = JointEmConfig(iterations=12, kappa_max=0.0, fusion="none", seed=0)
        model, post_joint, _, _ = joint_em(x, e, init, jcfg)
        _, post_cacg, pi_cacg, _ = reference.cacgmm_em(x, init, 12)
        assert np.max(np.abs(post_joint - post_cacg)) < 1e-9
        assert np.max(np.abs(model.pi - pi_cacg)) < 1e-9

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
        _, resp, _ = reference.vmfmm_em(
            e, init.mean(axis=2), 12, kappa_max=35.0, prior_mode="per_frame"
        )
        spread = np.max(np.abs(post_joint - post_joint[:, :, :1]))
        assert spread < 1e-12  # constant over frequency
        assert np.max(np.abs(post_joint[:, :, 0] - resp)) < 1e-9

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

    @pytest.mark.parametrize(
        "setting",
        [
            {"tau_spectral": 1.5},
            {"tau_spectral": 0.0},
            {"tau_iou": 1.0},
            {"tau_iou": np.nan},
            {"k_min": 0},
        ],
    )
    def test_fusion_setting_outside_range_rejected(self, setting):
        with pytest.raises(ConfigurationError):
            JointEmConfig(**setting)


class TestBlockPartitionInvariance:
    """Every step of the sweep is per frequency, so posteriors, covariances
    and fusions are the same to the bit for blocks of 1, 7 and >= F = 33
    bins; only the log-likelihood is summed in another order. The blocks
    are set through the sweep's working-set budget, so that the partitions
    the sweep ran are recorded and checked."""

    BLOCKS = (1, 7, 64)

    @staticmethod
    def budgets(monkeypatch, x, init):
        """For each of ``BLOCKS``, patch the sweep's budget to that many bins
        of the first sweep's working set, yield the count, and then check
        the partitions of the sweeps run in the loop body; only the 1-bin
        and the >= F budgets keep their width after a fusion."""
        per_bin = 8 * (2 * len(init) + x.num_channels**2) * x.num_frames
        real = cacg._sweep_blocks
        for bins in TestBlockPartitionInvariance.BLOCKS:
            partitions = []

            def spy(*args):
                blocks = real(*args)
                partitions.append([(b.start, b.stop) for b in blocks])
                return blocks

            monkeypatch.setattr(cacg, "_sweep_blocks", spy)
            monkeypatch.setattr(cacg, "SWEEP_BLOCK_BYTES", bins * per_bin if bins > 1 else 1)
            yield bins
            f = x.num_bins
            assert partitions
            widths = {stop - start for part in partitions for start, stop in part}
            assert all(part[0][0] == 0 and part[-1][1] == f for part in partitions)
            if bins == 1:
                assert widths == {1}
            elif bins >= f:
                assert all(part == [(0, f)] for part in partitions)
            else:
                assert max(b - a for a, b in partitions[0]) == bins

    def runs(self, monkeypatch, x, init, run):
        return [run() for _ in self.budgets(monkeypatch, x, init)]

    @staticmethod
    def assert_same_fit(runs):
        (model, post, events, trace), *others = runs
        for other_model, other_post, other_events, other_trace in others:
            assert other_events == events
            assert np.array_equal(other_post, post)
            assert np.array_equal(other_model.pi, model.pi)
            assert np.array_equal(other_model.mu, model.mu)
            assert np.array_equal(other_model.kappa, model.kappa)
            for a, b in zip(other_model.covariances, model.covariances, strict=True):
                assert np.array_equal(a, b)
            assert np.max(np.abs(other_trace - trace) / np.abs(trace)) <= 1e-12

    @staticmethod
    def fusion_scene():
        cfg = tiny_scenario([0, 1, 2], duration_s=8.0, overlap=0.1, seed=9, embed_dim=24)
        x, e, truth, _ = build_meeting(cfg)
        return x, e, kmeans_init_posterior(e, truth.voiced, 6, x.num_bins, seed=2)

    @pytest.mark.parametrize("freeze", [False, True])
    def test_spectral_fusion(self, monkeypatch, freeze):
        x, e, init = self.fusion_scene()
        jcfg = JointEmConfig(
            iterations=8, fusion="spectral", tau_spectral=0.7, fusion_start=3,
            noise_index=6, freeze_spatial=freeze, seed=0,
        )
        runs = self.runs(monkeypatch, x, init, lambda: joint_em(x, e, init, jcfg))
        assert runs[0][2]  # fusion fired
        self.assert_same_fit(runs)

    def test_iou_fusion(self, monkeypatch):
        # the first speaker split into two equal halves: their priors stay
        # equal, so their activity sets coincide and IoU fusion fires
        cfg = tiny_scenario([0, 1, 2], duration_s=6.0, seed=9, embed_dim=24)
        x, e, truth, _ = build_meeting(cfg)
        base = kmeans_init_posterior(e, truth.voiced, 3, x.num_bins, seed=2)
        split = lambda a: np.concatenate([a[:1] / 2, a[:1] / 2, a[1:]])
        init = split(base)
        jcfg = JointEmConfig(
            iterations=6, fusion="iou", tau_iou=0.8, activity_threshold=0.3, fusion_start=2,
            noise_index=4, seed=0,
        )
        runs = self.runs(monkeypatch, x, init, lambda: joint_em(x, e, init, jcfg))
        assert [(ev.kept, ev.removed) for ev in runs[0][2]] == [(0, 1)]
        self.assert_same_fit(runs)

    def test_cacgmm_em(self, monkeypatch):
        # the cACGMM: the joint EM at kappa_max 0, its trace less T F ln c(0)
        x, e, truth, _ = build_meeting(tiny_scenario([0, 1], duration_s=5.0, seed=11, channels=4))
        init = random_soft_posterior(np.random.default_rng(4), 3, x.num_frames, x.num_bins)
        runs = self.runs(monkeypatch, x, init, lambda: spatial_em(x, init, 6, e))
        (model, post, trace), *others = runs
        for other_model, other_post, other_trace in others:
            assert np.array_equal(other_post, post)
            assert np.array_equal(other_model.pi, model.pi)
            for a, b in zip(other_model.covariances, model.covariances, strict=True):
                assert np.array_equal(a, b)
            assert np.max(np.abs(other_trace - trace) / np.abs(trace)) <= 1e-12

    def test_forced_rescue(self, monkeypatch, caplog):
        # a floor of 1e-3 on the per-bin total sends the frequencies of a
        # few bins to the log domain; each E-step warns once, with the count.
        # The rescue reads the sweep's own forms: one factorization per
        # iteration and one of the kept row per fusion, whatever the blocks
        monkeypatch.setattr(cacg, "LINEAR_TOTAL_FLOOR", 1e-3)
        factorizations = []
        chol = cacg.chol_with_loading
        monkeypatch.setattr(
            cacg, "chol_with_loading", lambda mats: factorizations.append(mats.shape) or chol(mats)
        )
        x, e, init = self.fusion_scene()
        jcfg = JointEmConfig(
            iterations=6, fusion="spectral", tau_spectral=0.7, fusion_start=3,
            noise_index=6, seed=0,
        )
        runs = []
        for bins in self.budgets(monkeypatch, x, init):
            caplog.clear()
            factorizations.clear()
            with caplog.at_level(logging.WARNING, logger="mixsep.cacg"):
                runs.append(joint_em(x, e, init, jcfg))
            assert len(factorizations) == jcfg.iterations + len(runs[-1][2])
            warnings = [r.getMessage() for r in caplog.records]
            assert 0 < len(warnings) <= jcfg.iterations
            if bins == 1:
                counts = warnings
            assert warnings == counts  # the same bins, whatever the blocks
        assert all(f"of {x.num_bins * x.num_frames} bins" in w for w in counts)
        self.assert_same_fit(runs)


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
        stacks = []
        real = cacg._form_coefficients

        def spy(covariances, unit_det=False):
            logdet, coef = real(covariances, unit_det)
            stacks.append((covariances, logdet, coef, unit_det))
            return logdet, coef

        monkeypatch.setattr(cacg, "_form_coefficients", spy)
        init = kmeans_init_posterior(e, truth.voiced, 4, x.num_bins, seed=1)
        jcfg = JointEmConfig(iterations=20, fusion="spectral", fusion_start=5, noise_index=4)
        _, post, events, _ = joint_em(x, e, init, jcfg)
        cacg.check_posterior(post)
        assert events
        # one stack per sweep, and one of the kept row per fusion
        assert len(stacks) == jcfg.iterations + len(events)
        features = outer_features(x)
        y = np.transpose(normalize_observations(x).data, (2, 0, 1))
        for covariances, logdet, coef, unit_det in stacks:
            # the sweep's forms are those of B / det(B)^{1/C}: scaled back
            scale = np.exp(logdet / covariances.shape[-1])[..., None] if unit_det else 1.0
            quad = cacg._forms(coef, features) / scale
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
