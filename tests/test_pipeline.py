import logging
from concurrent.futures import Future

import numpy as np
import pytest
from helpers import assert_exactly_hermitian, tiny_scenario
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from mixsep import cacg, frontend, pipeline
from mixsep.cacg import StftTensor, check_posterior, scatter_matrices
from mixsep.cli import RunConfig
from mixsep.errors import InvalidInputError
from mixsep.metrics import der, si_sdr
from mixsep.pipeline import (
    Diarization,
    SegmentResult,
    beamform,
    initialize_segment,
    read_mask_tensor,
    run_meeting,
    smooth_and_segment,
    write_mask_tensor,
)
from mixsep.synth import ScenarioConfig, SegmentPlan, build_meeting
from mixsep.vmf import EmbeddingSequence


def segment_slices(x, e, vad, seg):
    sl = slice(seg.start_frame, seg.end_frame)
    x_seg = StftTensor(x.data[:, sl, :], x.sample_rate, x.stft_size, x.window_size, x.shift)
    e_seg = EmbeddingSequence(e.frames[sl], e.frame_rate)
    return x_seg, e_seg, vad[sl]


def tuned_config(**overrides):
    base = dict(
        stft_size_ms=32.0,
        window_ms=25.0,
        shift_ms=8.0,
        vad_window_s=12.0,
        vad_threshold_db=8.0,
        max_segment_s=12.0,
        min_segment_s=1.0,
        k_init=5,
        em_iterations=40,
        init_iterations=20,
        seed=1,
    )
    base.update(overrides)
    return RunConfig(**base)


class TestInitializeSegment:
    def test_all_silent_noise_only(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((2, 40, 9)) + 1j * rng.standard_normal((2, 40, 9))
        x = StftTensor(data, 2000, 64, 50, 16)
        frames = rng.standard_normal((40, 8))
        e = EmbeddingSequence(frames / np.linalg.norm(frames, axis=1, keepdims=True), 125.0)
        init = initialize_segment(x, e, np.zeros(40, dtype=bool), 3)
        assert len(init) == 1  # only the noise component remains
        assert np.all(init[0] == 1.0)

    def test_single_speaker_dominant_component(self):
        cfg = tiny_scenario([0], k_true=1, duration_s=8.0, overlap=0.0, seed=7, channels=3)
        x_model, e, truth, audio = build_meeting(cfg)
        x = frontend.stft(audio, 32.0, 25.0, 8.0)
        vad = frontend.energy_vad(audio, 12.0, 8.0, 25.0, 8.0)
        x_seg, e_seg, v_seg = segment_slices(x, e, vad, truth.segments[0])
        init = initialize_segment(x_seg, e_seg, v_seg, 2, seed=7)
        assert len(init) == 3  # two speakers + noise
        voiced = v_seg
        hard = np.argmax(init[:2, voiced, 0], axis=0)
        coverage = max(np.mean(hard == 0), np.mean(hard == 1))
        assert coverage >= 0.90

    def test_k_init_eight_accepted(self):
        cfg = tiny_scenario([0, 1], duration_s=8.0, seed=3)
        x_model, e, truth, _ = build_meeting(cfg)
        vad = truth.voiced
        init = initialize_segment(x_model, e, vad, 8, seed=0)
        assert len(init) == 9
        check_posterior(init)

    def test_noise_assigned_on_silence(self):
        cfg = tiny_scenario([0], duration_s=6.0, seed=4)
        x_model, e, truth, _ = build_meeting(cfg)
        vad = truth.voiced
        init = initialize_segment(x_model, e, vad, 2, seed=0)
        noise = len(init) - 1
        assert np.all(init[noise, ~truth.voiced] == 1.0)
        assert np.all(init[noise, truth.voiced] == 0.0)

    def test_too_few_voiced_frames_lowers_k(self):
        rng = np.random.default_rng(5)
        data = rng.standard_normal((2, 30, 5)) + 1j * rng.standard_normal((2, 30, 5))
        x = StftTensor(data, 2000, 64, 50, 16)
        frames = rng.standard_normal((30, 8))
        e = EmbeddingSequence(frames / np.linalg.norm(frames, axis=1, keepdims=True), 125.0)
        voiced = np.zeros(30, dtype=bool)
        voiced[:3] = True
        notes = []
        init = initialize_segment(x, e, voiced, 8, seed=0, notes=notes)
        assert len(init) == 4  # 3 voiced frames + noise
        assert notes and "lowered" in notes[0]

    def test_global_mode_uses_meeting_mixture(self):
        cfg = tiny_scenario([0, 1], duration_s=8.0, seed=6)
        x_model, e, truth, _ = build_meeting(cfg)
        vad = truth.voiced
        mixture = pipeline.fit_global_mixture(e, vad, 2, seed=0, iterations=15)
        init = initialize_segment(
            x_model, e, vad, 2, mode="global", global_model=mixture
        )
        check_posterior(init)
        assert len(init) == 3


class TestSmoothAndSegment:
    def test_impulse_rejection(self):
        # alternating single frames carry no utterance: every run is shorter
        # than the minimum duration
        pi = np.zeros((1, 120))
        pi[0, ::2] = 1.0
        out = smooth_and_segment(pi, frame_rate=125.0, median_frames=21, min_dur_s=0.5)
        assert out[0] == []
        # an isolated spike on a silent track vanishes in the median filter
        pi = np.zeros((1, 120))
        pi[0, 60] = 1.0
        out = smooth_and_segment(pi, frame_rate=125.0, median_frames=21, min_dur_s=0.0)
        assert out[0] == []

    def test_clean_blocks_recovered(self):
        pi = np.zeros((1, 400))
        pi[0, 50:150] = 1.0
        pi[0, 250:320] = 1.0
        out = smooth_and_segment(pi, frame_rate=100.0, median_frames=11, min_dur_s=0.3)
        assert len(out[0]) == 2
        for (start, end), (ws, we) in zip(out[0], [(0.5, 1.5), (2.5, 3.2)]):
            assert abs(start - ws) <= 0.06  # within half the filter width
            assert abs(end - we) <= 0.06

    def test_all_zero_no_intervals(self):
        out = smooth_and_segment(np.zeros((2, 50)), frame_rate=100.0, median_frames=5)
        assert out == [[], []]

    def test_short_intervals_dropped(self):
        pi = np.zeros((1, 200))
        pi[0, 100:115] = 1.0  # 0.15 s at 100 fps
        out = smooth_and_segment(pi, frame_rate=100.0, median_frames=3, min_dur_s=0.5)
        assert out[0] == []

    def test_nearby_intervals_merged(self):
        pi = np.zeros((1, 400))
        pi[0, 50:150] = 1.0
        pi[0, 160:260] = 1.0  # 0.1 s gap at 100 fps
        out = smooth_and_segment(pi, frame_rate=100.0, median_frames=3, min_dur_s=0.5)
        assert len(out[0]) == 1

    def test_raising_threshold_never_adds_intervals(self):
        rng = np.random.default_rng(1)
        pi = np.clip(rng.uniform(-0.2, 1.2, size=(1, 300)), 0.0, 1.0)
        low = smooth_and_segment(pi, 100.0, 11, on_thresh=0.3, min_dur_s=0.2)[0]
        high = smooth_and_segment(pi, 100.0, 11, on_thresh=0.7, min_dur_s=0.2)[0]
        low_time = sum(e - s for s, e in low)
        high_time = sum(e - s for s, e in high)
        assert high_time <= low_time

    def test_even_median_rejected(self):
        with pytest.raises(InvalidInputError):
            smooth_and_segment(np.zeros((1, 10)), 100.0, median_frames=4)

    @pytest.mark.parametrize("median_frames", [-1, -3])
    def test_median_below_one_rejected(self, median_frames):
        # odd, but no window: rejected before any edge padding
        with pytest.raises(InvalidInputError, match="median_frames"):
            smooth_and_segment(np.zeros((1, 10)), 100.0, median_frames=median_frames)

    def test_no_speaker_rows(self):
        assert smooth_and_segment(np.zeros((0, 50)), 100.0) == []

    def test_fewer_frames_than_the_median(self):
        pi = np.zeros((3, 7))
        pi[0] = 1.0
        pi[1, :5] = 1.0  # edge padding repeats both ends: the step stays at frame 5
        out = smooth_and_segment(pi, 100.0, median_frames=21, min_dur_s=0.05)
        assert out == [[(0.0, 0.07)], [(0.0, 0.05)], []]
        assert smooth_and_segment(pi, 100.0, median_frames=21, min_dur_s=0.5) == [[], [], []]

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 3), st.integers(1, 80), st.integers(0, 6), st.sampled_from([0.0, 0.05, 0.2]),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_median_filter_and_gap_merge_loop(self, rows, frames, half, min_dur_s, seed):
        # the median_filter and interval loop this function replaced
        rng = np.random.default_rng(seed)
        pi = (rng.uniform(size=(rows, frames)) < rng.uniform(0.2, 0.8)).astype(float)
        pi *= rng.uniform(0.3, 1.0, size=pi.shape)
        frame_rate, size = 50.0, 2 * half + 1
        min_frames, gap_frames = int(round(min_dur_s * frame_rate)), 10
        expected = []
        for row in pi:
            active = ndimage.median_filter(row, size=size, mode="nearest") > 0.5
            merged = []
            for start, end in frontend.true_runs(active):
                if end - start < min_frames:
                    continue
                if merged and start - merged[-1][1] < gap_frames:
                    merged[-1][1] = end
                else:
                    merged.append([start, end])
            expected.append([(s / frame_rate, e / frame_rate) for s, e in merged])
        assert smooth_and_segment(pi, frame_rate, size, 0.5, min_dur_s) == expected


def np_median_smoothing(pi, frame_rate, size, on_thresh, min_dur_s):
    """The smoothing as it was written with np.median."""
    min_frames, gap_frames = int(round(min_dur_s * frame_rate)), int(round(0.2 * frame_rate))
    out = []
    for active in np.median(frontend.edge_windows(pi, size, size // 2), axis=-1) > on_thresh:
        for start, end in frontend.true_runs(active):
            if end - start < min_frames:
                active[start:end] = False
        runs = frontend.true_runs(frontend.fill_gaps(active, gap_frames))
        out.append([(s / frame_rate, e / frame_rate) for s, e in runs])
    return out


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("size", [1, 3, 21])
def test_smoothing_median_is_np_median_with_ties(seed, size):
    # the middle order statistic of an odd window of finite values is
    # np.median's value to the bit, ties included, and the threshold sits on
    # a tied value
    rng = np.random.default_rng(seed)
    pi = rng.choice([0.1, 0.5, np.nextafter(0.5, 1.0), 0.9], size=(3, 90))
    windows = frontend.edge_windows(pi, size, size // 2)
    middle = np.partition(windows, size // 2, axis=-1)[..., size // 2]
    assert middle.tobytes() == np.median(windows, axis=-1).tobytes()
    assert smooth_and_segment(pi, 50.0, size, 0.5, 0.1) == np_median_smoothing(
        pi, 50.0, size, 0.5, 0.1
    )


def oracle_posterior(truth):
    gamma = truth.masks.copy()
    silence = gamma.sum(axis=0) == 0
    gamma = np.concatenate([gamma, silence[None].astype(float)], axis=0)
    return gamma


class TestBeamform:
    def test_two_source_si_sdr_improvement(self):
        cfg = tiny_scenario([0, 1], duration_s=10.0, overlap=0.3, seed=5, channels=4)
        x_model, e, truth, audio = build_meeting(cfg)
        x = frontend.stft(audio, 32.0, 25.0, 8.0)
        post = oracle_posterior(truth)
        for k in range(2):
            spec = beamform(x, post, [k])[0]
            wave = frontend.istft(spec, x.stft_size, x.window_size, x.shift)
            ref = truth.source_images[k][: wave.shape[0]]
            active = np.abs(ref) > 0
            mix = audio.samples[0][: wave.shape[0]]
            gain = si_sdr(ref[active], wave[active]) - si_sdr(ref[active], mix[active])
            assert gain > 5.0

    def test_block_scatter_matches_one_scatter_call_bit_for_bit(self):
        # F is not a multiple of the block size, so the blocks are cut
        # near-equal (23 bins each) rather than full blocks and a short tail
        rng = np.random.default_rng(3)
        c, t, f, k = 4, 90, 2 * cacg.BLOCK_BINS + 5, 3
        assert len(cacg.frequency_blocks(f)) == 3
        x = StftTensor(
            rng.standard_normal((c, t, f)) + 1j * rng.standard_normal((c, t, f)), 8000, 256, 200, 64
        )
        weights = np.ascontiguousarray(rng.dirichlet(np.ones(k), size=(f, t)).transpose(2, 0, 1))
        want = scatter_matrices(cacg._outer_rows(np.transpose(x.data, (2, 0, 1))), weights)
        assert np.array_equal(pipeline._block_scatter(x, weights), want)

    def test_covariances_are_exactly_hermitian_as_computed(self, monkeypatch):
        # the target and distortion covariances need no symmetrization: the
        # scatter is unpacked Hermitian, pooled and scaled with real weights
        rng = np.random.default_rng(8)
        c, t, f, k = 4, 60, 9, 3
        x = StftTensor(
            rng.standard_normal((c, t, f)) + 1j * rng.standard_normal((c, t, f)), 2000, 64, 50, 16
        )
        gamma = rng.dirichlet(np.ones(k), size=(t, f)).transpose(2, 0, 1)
        real = pipeline._covariance
        made = []

        def spy(scm, mass):
            made.append(real(scm, mass))
            return made[-1]

        monkeypatch.setattr(pipeline, "_covariance", spy)
        beamform(x, gamma, [0, 2])
        assert len(made) == 2  # the targets' and their distortions'
        for covariances in made:
            assert covariances.shape == (2, f, c, c)
            assert_exactly_hermitian(covariances)

    def test_single_source_identity_noise(self):
        # rank-one target in isotropic noise: output SNR beats best channel
        rng = np.random.default_rng(9)
        n_chan, n_frames, n_bins = 4, 300, 5
        steer = rng.standard_normal(n_chan) + 1j * rng.standard_normal(n_chan)
        source = rng.standard_normal((n_frames, n_bins)) + 1j * rng.standard_normal(
            (n_frames, n_bins)
        )
        active = np.zeros(n_frames, dtype=bool)
        active[:150] = True
        clean = np.einsum("c,tf->ctf", steer, source * active[:, None])
        noise = 0.3 * (
            rng.standard_normal((n_chan, n_frames, n_bins))
            + 1j * rng.standard_normal((n_chan, n_frames, n_bins))
        )
        x = StftTensor(clean + noise, 2000, 64, 50, 16)
        gamma = np.zeros((2, n_frames, n_bins))
        gamma[0, active] = 1.0
        gamma[1, ~active] = 1.0
        out = beamform(x, gamma, [0])[0]

        def snr(sig):
            s = sig[active]
            n = sig[~active]
            return float((np.abs(s) ** 2).mean() / (np.abs(n) ** 2).mean())

        best_channel = max(snr(x.data[c].copy()) for c in range(n_chan))
        assert snr(out) > best_channel

    def test_all_target_gamma_degenerate_distortion(self):
        # distortion covariance comes from floor loading only -> matched filter
        rng = np.random.default_rng(11)
        data = rng.standard_normal((3, 50, 4)) + 1j * rng.standard_normal((3, 50, 4))
        x = StftTensor(data, 2000, 64, 50, 16)
        gamma = np.zeros((2, 50, 4))
        gamma[0] = 1.0
        out = beamform(x, gamma, [0])[0]
        assert np.all(np.isfinite(out))

    def test_gamma_scaling_leaves_weights_unchanged(self):
        cfg = tiny_scenario([0, 1], duration_s=5.0, seed=8, channels=3)
        x_model, e, truth, audio = build_meeting(cfg)
        x = frontend.stft(audio, 32.0, 25.0, 8.0)
        post = oracle_posterior(truth)
        out1 = beamform(x, post, [0])[0]
        # scaling every component's posterior by one constant cancels in the
        # mass-normalized covariances
        out2 = beamform(x, 0.25 * post, [0])[0]
        assert np.max(np.abs(out1 - out2)) < 1e-9

    def test_batched_targets_match_one_at_a_time(self):
        cfg = tiny_scenario([0, 1, 2], duration_s=5.0, seed=3, channels=3)
        _, _, truth, audio = build_meeting(cfg)
        x = frontend.stft(audio, 32.0, 25.0, 8.0)
        post = oracle_posterior(truth)
        both = beamform(x, post, [2, 0, 1])
        assert both.shape == (3, x.num_frames, x.num_bins)
        for row, k in enumerate([2, 0, 1]):
            alone = beamform(x, post, [k])[0]
            assert np.max(np.abs(both[row] - alone)) <= 1e-12 * np.max(np.abs(alone))

    def test_dominant_target_leaves_distortion_exact(self):
        # the other component holds 1e-12 of every bin; its covariance must
        # come from its own scatter, not from the total minus the target's
        rng = np.random.default_rng(13)
        data = rng.standard_normal((3, 200, 5)) + 1j * rng.standard_normal((3, 200, 5))
        x = StftTensor(data, 2000, 64, 50, 16)
        a, b = rng.uniform(0.1, 1.0, size=(2, 200, 5))
        want = beamform(x, np.stack([a, b]), [0])
        got = beamform(x, np.stack([a, 1e-12 * b]), [0])
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))

    def test_target_out_of_range(self):
        rng = np.random.default_rng(12)
        data = rng.standard_normal((2, 5, 3)) + 1j * rng.standard_normal((2, 5, 3))
        x = StftTensor(data, 2000, 64, 50, 16)
        with pytest.raises(InvalidInputError):
            beamform(x, np.ones((1, 5, 3)), [3])


def fake_result(protos, utterances, seg_id, start_frame=0, end_frame=100):
    seg = frontend.SegmentSpec(start_frame, end_frame, seg_id)
    return SegmentResult(
        prototypes=protos,
        segment=seg,
        utterances=utterances,
    )


class TestAlignSegments:
    def orthonormal(self, rng, dim, count):
        return np.linalg.qr(rng.standard_normal((dim, count)))[0].T

    def test_single_segment_identity(self):
        rng = np.random.default_rng(0)
        protos = self.orthonormal(rng, 8, 2)
        res = fake_result(protos, [[(0.0, 1.0)], [(1.0, 2.0)]], "seg000")
        dia = pipeline._align_with_mapping([res], 2, seed=0)[0]
        assert len(dia.entries) == 2
        assert len(set(spk for spk, *_ in dia.entries)) == 2

    def test_swapped_locals_get_consistent_globals(self):
        rng = np.random.default_rng(1)
        protos = self.orthonormal(rng, 16, 2)
        jitter = lambda m, s: (m + 0.02 * rng.standard_normal(m.shape)) / np.linalg.norm(
            m + 0.0, axis=1, keepdims=True
        )
        r1 = fake_result(protos, [[(0.0, 1.0)], [(1.0, 2.0)]], "seg000")
        r2 = fake_result(protos[::-1].copy(), [[(10.0, 11.0)], [(11.0, 12.0)]], "seg001")
        dia = pipeline._align_with_mapping([r1, r2], 2, seed=0)[0]
        by_seg = {}
        for spk, s, e, seg in dia.entries:
            by_seg.setdefault(seg, {})[round(s)] = spk
        # segment 1 swapped local order, so global ids must swap accordingly
        assert by_seg["seg000"][0] == by_seg["seg001"][11]
        assert by_seg["seg000"][1] == by_seg["seg001"][10]

    def test_equal_prototypes_trivially_consistent(self):
        rng = np.random.default_rng(2)
        protos = self.orthonormal(rng, 8, 3)
        results = [
            fake_result(protos, [[(i * 10.0, i * 10.0 + 1)], [(i * 10.0 + 1, i * 10.0 + 2)], [(i * 10.0 + 2, i * 10.0 + 3)]], f"seg{i:03d}")
            for i in range(3)
        ]
        dia = pipeline._align_with_mapping(results, 3, seed=1)[0]
        labels_per_seg = {}
        for spk, s, e, seg in dia.entries:
            labels_per_seg.setdefault(seg, []).append((s, spk))
        orders = [
            [spk for _, spk in sorted(v)] for v in labels_per_seg.values()
        ]
        assert all(o == orders[0] for o in orders)

    def test_local_permutation_invariance(self):
        rng = np.random.default_rng(3)
        protos = self.orthonormal(rng, 16, 4)
        utts = [[(float(i), float(i) + 0.5)] for i in range(4)]
        base = pipeline._align_with_mapping(
            [fake_result(protos, utts, "seg000")], 4, seed=5
        )[0]
        perm = rng.permutation(4)
        shuffled = pipeline._align_with_mapping(
            [fake_result(protos[perm], [utts[p] for p in perm], "seg000")], 4, seed=5
        )[0]
        want = {(s, e): spk for spk, s, e, _ in base.entries}
        got = {(s, e): spk for spk, s, e, _ in shuffled.entries}
        # the same utterance gets the same global speaker either way
        mapping = {}
        for key, spk in want.items():
            mapping.setdefault(spk, set()).add(got[key])
        assert all(len(v) == 1 for v in mapping.values())

    def test_no_prototypes_empty_diarization(self):
        res = fake_result(np.zeros((0, 8)), [], "seg000")
        assert pipeline._align_with_mapping([res], 2, seed=0)[0].entries == []


class TestMaskTensorIo:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        arr = rng.uniform(size=(3, 7, 5)).astype(np.float32)
        path = tmp_path / "m.msk"
        write_mask_tensor(path, arr)
        back = read_mask_tensor(path)
        assert back.shape == (3, 7, 5)
        assert np.allclose(back, arr, atol=1e-7)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.msk"
        path.write_bytes(b"XXXX" + b"\x00" * 12)
        with pytest.raises(InvalidInputError):
            read_mask_tensor(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "m.msk"
        path.write_bytes(b"MSK1" + b"\x01\x00\x00\x00")
        with pytest.raises(InvalidInputError, match="truncated header"):
            read_mask_tensor(path)


class TestRunMeeting:
    def test_empty_meeting(self):
        audio = frontend.AudioBuffer(np.zeros((2, 8000)), 2000)
        frames = np.ones((497, 8)) / np.sqrt(8.0)
        e = EmbeddingSequence(frames, 250.0)
        config = tuned_config()
        dia, spk_audio, report = run_meeting(audio, e, config)
        assert dia.entries == []
        assert spk_audio == {}
        assert report["num_segments"] == 0

    def test_noise_only_recording_warns_with_the_voiced_fraction(self, caplog):
        # stationary noise under the default VAD settings: no frame clears
        # the floor, no segment survives, and the run says so once
        rng = np.random.default_rng(0)
        audio = frontend.AudioBuffer(rng.standard_normal((2, 40000)), 2000)
        frames = np.zeros((2497, 4))
        frames[:, 0] = 1.0
        config = RunConfig(stft_size_ms=32.0, window_ms=25.0, shift_ms=8.0)
        with caplog.at_level(logging.WARNING, logger="mixsep"):
            dia, _, report = run_meeting(audio, EmbeddingSequence(frames, 125.0), config)
        assert report["num_segments"] == 0 and dia.entries == []
        assert [r.getMessage() for r in caplog.records] == [
            "no segment kept: 0 of 2497 frames voiced (0.0%) with vad_window_s=12 and "
            "vad_threshold_db=8"
        ]

    def test_given_embedding_sequence_reports_no_alignment(self):
        # only an EMB1 file read by the run is aligned to the STFT frames; a
        # sequence passed in must already match, whatever it records
        audio = frontend.AudioBuffer(np.zeros((2, 8000)), 2000)
        e = EmbeddingSequence(np.ones((497, 8)) / np.sqrt(8.0), 250.0, "truncated_1")
        _, _, report = run_meeting(audio, e, tuned_config())
        assert report["embedding_alignment"] is None

    def test_synthetic_meeting_der(self):
        cfg = tiny_scenario(
            None,
            k_true=3,
            segments=[
                SegmentPlan(8.0, [0, 1]),
                SegmentPlan(8.0, [1, 2]),
                SegmentPlan(8.0, [0, 2]),
                SegmentPlan(8.0, [0, 1, 2]),
            ],
            overlap=0.2,
            seed=42,
            channels=4,
        )
        x_model, e, truth, audio = build_meeting(cfg)
        config = tuned_config(k_total=3)
        dia, spk_audio, report = run_meeting(audio, e, config)
        ref = [
            (f"spk{k:02d}", s, t) for k, spans in truth.activity.items() for s, t in spans
        ]
        rate = der(ref, dia.turns(), collar_s=0.25)[0]
        assert rate < 0.10
        assert all(s["error"] is None for s in report["segments"])
        assert len(spk_audio) == 3

    def test_oversized_segment_fails_alone(self):
        # three talkers counted as four: the segment cannot be aligned against
        # k_total=3, so it reports an error and the meeting still returns
        cfg = tiny_scenario([0, 1, 2], duration_s=5.0, seed=4, channels=3)
        _, e, _, audio = build_meeting(cfg)
        config = RunConfig(
            stft_size_ms=32.0, window_ms=25.0, shift_ms=8.0, vad_window_s=12,
            vad_threshold_db=8, min_segment_s=1, k_total=3, seed=1,
        )
        dia, spk_audio, report = run_meeting(audio, e, config)
        (segment,) = report["segments"]
        assert segment["speaker_count"] == 4
        assert segment["error"] == "has 4 components, more than k_total=3"
        assert dia.entries == [] and spk_audio == {}
        assert report["sample_rate"] == audio.sample_rate

    def test_deterministic_rerun(self):
        cfg = tiny_scenario([0, 1], duration_s=8.0, seed=2, channels=3)
        x_model, e, truth, audio = build_meeting(cfg)
        config = tuned_config(k_init=3, em_iterations=15)
        out1 = run_meeting(audio, e, config)
        out2 = run_meeting(audio, e, config)
        assert out1[0].entries == out2[0].entries
        assert sorted(out1[1]) == sorted(out2[1])
        for key in out1[1]:
            assert np.array_equal(out1[1][key], out2[1][key])

    @pytest.mark.parametrize(
        "setting", [{"init_mode": "global"}, {"fusion": "iou"}], ids=["global_init", "iou_fusion"]
    )
    def test_alternative_configurations_end_to_end(self, setting):
        # the paper's alternatives to per-segment initialization and spectral
        # fusion, through the whole pipeline: every segment ends without
        # error, and the pool (which takes the meeting-level mixture of the
        # global mode with every task) gives the turns and tracks of one process
        cfg = tiny_scenario(
            None, k_true=3, segments=[SegmentPlan(5.0, [0, 1]), SegmentPlan(5.0, [1, 2])],
            seed=5, channels=4,
        )
        _, e, _, audio = build_meeting(cfg)
        runs = [
            run_meeting(audio, e, tuned_config(
                k_init=3, max_segment_s=6.0, k_total=3, jobs=jobs, **setting
            ))
            for jobs in (1, 2)
        ]
        (dia, tracks, report), (dia_pool, tracks_pool, _) = runs
        assert len(report["segments"]) == 2
        assert all(segment["error"] is None for segment in report["segments"])
        assert dia.entries and dia_pool.entries == dia.entries
        assert sorted(tracks_pool) == sorted(tracks)
        for label, wave in tracks.items():
            assert np.array_equal(tracks_pool[label], wave)

    def test_each_stft_covers_one_segment(self, monkeypatch):
        # the meeting's STFT is never built: every STFT is one segment's
        cfg = tiny_scenario(
            None, k_true=2, segments=[SegmentPlan(4.0, [0, 1]), SegmentPlan(4.0, [0, 1])],
            seed=6, channels=3,
        )
        _, e, _, audio = build_meeting(cfg)
        lengths = []
        real = frontend.stft

        def spy(part, *args, **kwargs):
            lengths.append(part.num_samples)
            return real(part, *args, **kwargs)

        monkeypatch.setattr(frontend, "stft", spy)
        config = tuned_config(k_init=3, em_iterations=5, init_iterations=5, max_segment_s=5.0)
        _, _, report = run_meeting(audio, e, config)
        win, hop, rate = 50, 16, report["frame_rate"]  # 25 ms and 8 ms at 2 kHz
        frames = [round((seg["end_s"] - seg["start_s"]) * rate) for seg in report["segments"]]
        assert report["num_segments"] >= 2
        assert lengths == [(n - 1) * hop + win for n in frames]
        assert max(lengths) < audio.num_samples / 2

    @pytest.mark.parametrize("affinity", [True, False])
    def test_jobs_beyond_the_cpus_are_capped(self, monkeypatch, caplog, affinity):
        # the fork-context pool would start every worker at its first
        # submission, so --jobs 10000 must not ask for 10000 workers: the
        # pool is capped at the CPUs this process may use. A recorder stands
        # in for the pool and runs the segments in this process.
        pools = []

        class RecordingPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(pipeline, "ProcessPoolExecutor", RecordingPool)
        if affinity:
            monkeypatch.setattr(pipeline.os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        else:
            monkeypatch.delattr(pipeline.os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(pipeline.os, "cpu_count", lambda: 3)
        cfg = tiny_scenario(
            None, k_true=2, segments=[SegmentPlan(4.0, [0, 1]), SegmentPlan(4.0, [0, 1])],
            seed=6, channels=3,
        )
        _, e, _, audio = build_meeting(cfg)
        config = tuned_config(k_init=3, em_iterations=5, init_iterations=5, max_segment_s=5.0)
        want = run_meeting(audio, e, config)
        assert pools == []  # one job: no pool
        config.jobs = 10_000
        with caplog.at_level(logging.INFO, logger="mixsep.pipeline"):
            got = run_meeting(audio, e, config)
        assert pools == [3]
        assert any("capped at the 3 CPUs" in r.getMessage() for r in caplog.records)
        assert got[0].entries == want[0].entries
        assert got[2]["num_segments"] >= 2

    def test_nan_embedding_row_fails_before_any_segment(self, monkeypatch):
        # a NaN row in a segment's frames is rejected as the segment's
        # sequence is built, before any segment task runs
        cfg = tiny_scenario(
            None, k_true=2, segments=[SegmentPlan(4.0, [0, 1]), SegmentPlan(4.0, [0, 1])],
            seed=6, channels=3,
        )
        _, e, truth, audio = build_meeting(cfg)
        voiced = np.flatnonzero(truth.voiced)
        e.frames[voiced[voiced.size // 2]] = np.nan
        ran = []
        monkeypatch.setattr(pipeline, "_segment_task", ran.append)
        with pytest.raises(InvalidInputError, match="unit length"):
            run_meeting(audio, e, tuned_config(k_init=3, max_segment_s=5.0))
        assert ran == []

    def test_mono_recording_rejected(self):
        audio = frontend.AudioBuffer(np.random.default_rng(0).standard_normal((1, 8000)), 2000)
        e = EmbeddingSequence(np.ones((497, 8)) / np.sqrt(8.0), 250.0)
        with pytest.raises(InvalidInputError, match="C >= 2"):
            run_meeting(audio, e, tuned_config())

    def test_embedding_frame_mismatch_rejected(self):
        audio = frontend.AudioBuffer(np.random.default_rng(0).standard_normal((2, 8000)), 2000)
        frames = np.ones((10, 8)) / np.sqrt(8.0)
        e = EmbeddingSequence(frames, 250.0)
        with pytest.raises(InvalidInputError):
            run_meeting(audio, e, tuned_config())


# Counting scenes as the benchmark's counting sweep builds them: 2 kHz, 3
# channels, 24-dim embeddings, 3.2 s, 1-5 of 8 speakers active. Fixed here,
# (active count, scene seed), before any was run.
COUNTING_SCENES = [(1 + i % 5, 4100 + i) for i in range(15)]


@pytest.mark.parametrize("n_active, seed", COUNTING_SCENES)
def test_pipeline_counts_the_active_speakers(n_active, seed):
    # the pipeline end to end, energy VAD and per-segment initialization
    # included: as many speakers get turns as are active, and the segment's
    # count (its speaker components) is never below the truth
    active = sorted(np.random.default_rng(seed).choice(8, size=n_active, replace=False).tolist())
    cfg = ScenarioConfig(
        k_true=8, segments=[SegmentPlan(3.2, active)], channels=3, embed_dim=24,
        sample_rate=2000, stft_size_ms=32.0, window_ms=25.0, shift_ms=8.0,
        overlap=0.15, gap_s=0.6, block_s=1.2, seed=seed,
    )
    _, e, _, audio = build_meeting(cfg)
    config = RunConfig(
        seed=seed, stft_size_ms=32.0, window_ms=25.0, shift_ms=8.0, k_init=8,
        em_iterations=22, fusion="spectral", tau_spectral=0.7, fusion_start=6,
        vad_window_s=12.0, vad_threshold_db=8.0, min_segment_s=1.0,
    )
    dia, _, report = run_meeting(audio, e, config)
    assert len(dia.speakers) == n_active
    assert report["segments"]
    assert all(seg["speaker_count"] >= n_active for seg in report["segments"])
