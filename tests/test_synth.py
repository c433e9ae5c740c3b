import numpy as np
import pytest
from helpers import tiny_scenario
from scipy import special, stats

from mixsep import synth
from mixsep.errors import ConfigurationError, InvalidInputError
from mixsep.synth import (
    ScenarioConfig,
    SegmentPlan,
    build_meeting,
    sample_cacg,
    sample_vmf,
)


def mean_resultant_oracle(dim, kappa):
    # A_E(kappa) via exponentially scaled Bessel functions
    nu = dim / 2.0 - 1.0
    return float(special.ive(nu + 1.0, kappa) / special.ive(nu, kappa))


class TestSampleCacg:
    def test_unit_norms(self):
        b = np.eye(3)
        y = sample_cacg(b, 1000, seed=0)
        assert np.max(np.abs(np.linalg.norm(y, axis=1) - 1.0)) < 1e-12

    def test_isotropic_second_moment(self):
        b = np.eye(4)
        y = sample_cacg(b, 100_000, seed=1)
        scm = np.einsum("ni,nj->ij", y, y.conj()) / y.shape[0]
        assert np.max(np.abs(scm - np.eye(4) / 4.0)) < 0.02 / 4.0 * 4.0
        assert np.linalg.norm(scm - np.eye(4) / 4.0) < 0.02

    def test_rank_dominant_concentration(self):
        # eigen-oracle: for eigenvalues (g+1, 1, 1, 1) the alignment tail is
        # P(|v1^H y|^2 > c) = (1 + c/((1-c)(g+1)))^-(C-1), exact for the cACG
        rng = np.random.default_rng(2)
        u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        u /= np.linalg.norm(u)
        for gap in (100.0, 1000.0):
            b = gap * np.outer(u, u.conj()) + np.eye(4)
            y = sample_cacg(b, 20_000, seed=3)
            frac = np.mean(np.abs(y @ u.conj()) ** 2 > 0.9)
            want = (1.0 + 9.0 / (gap + 1.0)) ** -3
            assert abs(frac - want) < 0.02
        assert frac >= 0.90  # strongly dominant direction captures the samples

    def test_deterministic(self):
        b = np.diag([2.0, 1.0]).astype(complex)
        a = sample_cacg(b, 64, seed=9)
        c = sample_cacg(b, 64, seed=9)
        assert np.array_equal(a, c)


class TestSampleVmf:
    def test_unit_norms(self):
        mu = np.zeros(16)
        mu[0] = 1.0
        x = sample_vmf(mu, 12.0, 500, seed=0)
        assert np.max(np.abs(np.linalg.norm(x, axis=1) - 1.0)) < 1e-12

    def test_uniform_at_kappa_zero(self):
        mu = np.zeros(8)
        mu[-1] = 1.0
        x = sample_vmf(mu, 0.0, 100_000, seed=1)
        assert np.linalg.norm(x.mean(axis=0)) < 0.01

    def test_mean_resultant_matches_bessel_ratio(self):
        mu = np.zeros(64)
        mu[3] = 1.0
        x = sample_vmf(mu, 35.0, 100_000, seed=2)
        got = float(np.mean(x @ mu))
        want = mean_resultant_oracle(64, 35.0)
        assert abs(got - want) < 0.01 * want

    def test_mean_resultant_small_dim(self):
        mu = np.array([0.0, 0.0, 1.0])
        x = sample_vmf(mu, 5.0, 100_000, seed=3)
        got = float(np.mean(x @ mu))
        want = mean_resultant_oracle(3, 5.0)
        assert abs(got - want) < 0.01 * want

    def test_rotation_equivariance_two_sample(self):
        rng = np.random.default_rng(4)
        mu = np.zeros(16)
        mu[0] = 1.0
        rot = np.linalg.qr(rng.standard_normal((16, 16)))[0]
        mu_rot = rot @ mu
        a = sample_vmf(mu, 8.0, 20_000, seed=5) @ mu
        b = sample_vmf(mu_rot, 8.0, 20_000, seed=6) @ mu_rot
        assert stats.ks_2samp(a, b).pvalue > 0.01

    def test_deterministic(self):
        mu = np.zeros(4)
        mu[1] = 1.0
        assert np.array_equal(sample_vmf(mu, 3.0, 32, seed=7), sample_vmf(mu, 3.0, 32, seed=7))

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidInputError):
            sample_vmf(np.array([2.0, 0.0]), 1.0, 4, seed=0)
        with pytest.raises(InvalidInputError):
            sample_vmf(np.array([1.0, 0.0]), -1.0, 4, seed=0)


class TestBuildMeeting:
    def test_zero_overlap_single_active_frames(self):
        cfg = tiny_scenario([0, 1], duration_s=8.0, overlap=0.0, seed=0)
        x, e, truth, audio = build_meeting(cfg)
        active_counts = truth.masks.any(axis=2).sum(axis=0)
        assert np.all(active_counts[truth.voiced] <= 1)
        # reference intervals never overlap across speakers
        events = []
        for spk, spans in truth.activity.items():
            events.extend(spans)
        events.sort()
        assert all(a[1] <= b[0] + 1e-9 for a, b in zip(events, events[1:]))

    def test_single_speaker_masks_all_ones_on_voiced(self):
        cfg = tiny_scenario([0], k_true=1, duration_s=5.0, overlap=0.0, seed=1)
        x, e, truth, audio = build_meeting(cfg)
        assert truth.masks.shape[0] == 1
        voiced_bins = truth.voiced[:, None] & np.ones(x.num_bins, dtype=bool)
        assert np.array_equal(truth.masks[0] > 0.5, voiced_bins)

    def test_exactly_one_dominant_per_voiced_bin(self):
        cfg = tiny_scenario([0, 1, 2], duration_s=8.0, overlap=0.3, seed=2)
        x, e, truth, audio = build_meeting(cfg)
        sums = truth.masks.sum(axis=0)
        assert np.all(sums[truth.voiced] == 1.0)
        assert np.all(sums[~truth.voiced] == 0.0)

    def test_masks_consistent_with_activity(self):
        cfg = tiny_scenario([0, 1], duration_s=6.0, overlap=0.2, seed=3)
        x, e, truth, audio = build_meeting(cfg)
        frame_active = truth.masks.any(axis=2)
        for k, spans in truth.activity.items():
            active = np.zeros(x.num_frames, dtype=bool)
            for s, eend in spans:
                a = int(round(s * truth.frame_rate))
                b = int(round(eend * truth.frame_rate))
                active[a:b] = True
            assert not np.any(frame_active[k] & ~active)

    def test_segment_counts_recorded(self):
        segs = [SegmentPlan(5.0, [0, 1]), SegmentPlan(5.0, [2]), SegmentPlan(6.0, [0, 2, 3])]
        cfg = tiny_scenario(None, k_true=4, segments=segs, seed=4)
        x, e, truth, audio = build_meeting(cfg)
        assert truth.segment_counts == [2, 1, 3]
        assert len(truth.segments) == 3
        for seg, plan in zip(truth.segments, segs):
            assert seg.end_frame <= x.num_frames

    def test_shapes_consistent(self):
        cfg = tiny_scenario([0, 1], duration_s=5.0, seed=5)
        x, e, truth, audio = build_meeting(cfg)
        assert x.num_frames == e.num_frames == truth.voiced.shape[0]
        assert truth.masks.shape == (cfg.k_true, x.num_frames, x.num_bins)
        assert np.max(np.abs(np.linalg.norm(x.data, axis=0) - 1.0)) < 1e-9
        assert audio.num_channels == cfg.channels

    def test_deterministic_given_seed(self):
        cfg = tiny_scenario([0, 1], duration_s=4.0, seed=6)
        a = build_meeting(cfg)
        b = build_meeting(cfg)
        assert np.array_equal(a[0].data, b[0].data)
        assert np.array_equal(a[1].frames, b[1].frames)
        assert np.array_equal(a[3].samples, b[3].samples)

    def test_infeasible_plan_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(k_true=2, segments=[SegmentPlan(4.0, [0, 1, 2])])

    def test_overlap_bounds_enforced(self):
        with pytest.raises(ConfigurationError):
            tiny_scenario([0], overlap=0.6)

    def test_fractional_frame_sizes_rejected_before_synthesis(self, monkeypatch):
        # 64/50/16 ms are no whole sample counts at 22 050 Hz: the builder
        # fails on the framing, as `mixsep run` does, before making sources
        def no_sources(*args):
            raise AssertionError("sources synthesized before the framing was checked")

        monkeypatch.setattr(synth, "_speech_burst", no_sources)
        cfg = ScenarioConfig(
            k_true=2, segments=[SegmentPlan(4.0, [0, 1])], sample_rate=22050,
            stft_size_ms=64.0, window_ms=50.0, shift_ms=16.0,
        )
        with pytest.raises(InvalidInputError, match="whole samples"):
            build_meeting(cfg)

    def test_config_json_roundtrip(self):
        cfg = tiny_scenario([0, 1], duration_s=7.0, seed=8)
        back = ScenarioConfig.from_json(cfg.to_json())
        assert back == cfg

    def test_shared_spatial_groups(self):
        cfg = tiny_scenario([0, 1, 2], duration_s=5.0, seed=9, spatial_groups=[[0, 1]])
        x, e, truth, audio = build_meeting(cfg)
        assert np.array_equal(truth.cov_true[0], truth.cov_true[1])
        assert not np.allclose(truth.cov_true[0], truth.cov_true[2])
