import math
import struct
import tracemalloc

import numpy as np
import pytest
from helpers import wav_bytes
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage, signal

from mixsep import frontend
from mixsep.errors import InvalidInputError
from mixsep.frontend import (
    AudioBuffer,
    _hann,
    SegmentSpec,
    edge_windows,
    energy_vad,
    fill_gaps,
    ingest_embeddings,
    istft,
    merge_intervals,
    num_stft_frames,
    read_wav,
    split_segments,
    stft,
    true_runs,
    write_embeddings,
    write_f32_tensor,
    write_wav,
)


def istft_frame_loop(spec, stft_size, window_size, shift):
    """Dual-window overlap-add, one frame at a time: the oracle of ``istft``."""
    frames = np.fft.irfft(np.asarray(spec, dtype=complex), n=stft_size, axis=-1)
    frames = frames[..., :window_size]
    window = _hann(window_size)
    n_frames = spec.shape[-2]
    n = window_size + (n_frames - 1) * shift if n_frames else 0
    out = np.zeros(spec.shape[:-2] + (n,))
    denom = np.zeros(n)
    for t in range(n_frames):
        sl = slice(t * shift, t * shift + window_size)
        out[..., sl] += frames[..., t, :] * window
        denom[sl] += window**2
    valid = denom > 1e-12
    out[..., valid] /= denom[valid]
    return out


def tone(freq, duration_s, sample_rate=16000, channels=2, amp=0.5):
    t = np.arange(int(duration_s * sample_rate)) / sample_rate
    x = amp * np.sin(2.0 * math.pi * freq * t)
    return AudioBuffer(np.tile(x, (channels, 1)), sample_rate)


class TestStft:
    def test_paper_configuration_sizes(self):
        audio = tone(1000.0, 1.0, sample_rate=16000)
        x = stft(audio)
        assert x.stft_size == 1024
        assert x.num_bins == 513
        assert x.shift == 256
        assert x.window_size == 800
        assert x.num_frames == num_stft_frames(16000, 800, 256)

    def test_bin_center_concentration(self):
        # window == FFT size, so a bin-center tone has no padding leakage
        sr = 16000
        bin_idx = 100
        freq = bin_idx * sr / 1024.0
        x = stft(tone(freq, 0.5, sr), stft_size_ms=64.0, window_ms=64.0, shift_ms=16.0)
        power = np.abs(x.data[0]) ** 2
        total = power.sum(axis=1)
        near = power[:, bin_idx - 1 : bin_idx + 2].sum(axis=1)
        assert np.all(near / total > 0.99)

    def test_roundtrip_interior(self):
        rng = np.random.default_rng(0)
        audio = AudioBuffer(rng.standard_normal((2, 12000)), 16000)
        x = stft(audio)
        back = istft(x.data, x.stft_size, x.window_size, x.shift)
        n = back.shape[-1]
        lead = x.window_size
        got = back[:, lead : n - lead]
        want = audio.samples[:, lead : n - lead]
        err = np.linalg.norm(got - want) / np.linalg.norm(want)
        assert err < 1e-6

    def test_linearity(self):
        rng = np.random.default_rng(1)
        a = AudioBuffer(rng.standard_normal((2, 4000)), 16000)
        b = AudioBuffer(rng.standard_normal((2, 4000)), 16000)
        ab = AudioBuffer(a.samples + b.samples, 16000)
        xa = stft(a).data
        xb = stft(b).data
        xs = stft(ab).data
        assert np.max(np.abs(xs - (xa + xb))) < 1e-9

    def test_hann_matches_scipy_bit_for_bit(self):
        for n in range(1, 2050):
            want = signal.get_window("hann", n, fftbins=True)
            assert _hann(n).tobytes() == want.tobytes(), n

    @pytest.mark.parametrize(
        "lead, frames, sizes",
        [((), 40, (64, 50, 16)), ((3,), 25, (256, 200, 64)), ((2, 2), 7, (32, 25, 8)),
         ((2,), 1, (64, 50, 16)), ((2,), 0, (64, 50, 16)), ((3,), 9, (64, 64, 64)),
         ((2,), 7, (64, 64, 16)), ((1,), 1, (256, 200, 64)), ((2,), 5, (32, 16, 24))],
    )
    def test_istft_matches_frame_loop_bit_for_bit(self, lead, frames, sizes):
        rng = np.random.default_rng(frames)
        shape = lead + (frames, sizes[0] // 2 + 1)
        spec = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        want = istft_frame_loop(spec, *sizes)
        got = istft(spec, *sizes)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_segment_stft_is_the_meeting_slice(self):
        # a segment's STFT from its own samples equals that segment's frames
        # of the whole-recording STFT, bit for bit
        rng = np.random.default_rng(4)
        audio = AudioBuffer(rng.standard_normal((3, 4000)), 2000)
        whole = stft(audio, 32.0, 25.0, 8.0)
        win, hop = whole.window_size, whole.shift
        for start, end in [(0, 1), (3, 40), (100, whole.num_frames), (57, 58)]:
            part = AudioBuffer(audio.samples[:, start * hop : (end - 1) * hop + win], 2000)
            got = stft(part, 32.0, 25.0, 8.0).data
            assert got.tobytes() == whole.data[:, start:end].tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_audio_buffer_rejects_non_finite(self, bad):
        samples = np.zeros((2, 100))
        samples[1, 37] = bad
        with pytest.raises(InvalidInputError):
            AudioBuffer(samples, 16000)

    def test_short_audio_empty_flagged(self):
        audio = AudioBuffer(np.zeros((2, 100)), 16000)
        x = stft(audio)
        assert x.num_frames == 0
        assert x.num_bins == 513

    def test_non_integral_shift_rejected(self):
        audio = tone(100.0, 0.2, sample_rate=22050)
        with pytest.raises(InvalidInputError):
            stft(audio, shift_ms=16.0)  # 352.8 samples


def speech_like(rng, sample_rate, bursts, total_s, floor_db=-40.0):
    n = int(total_s * sample_rate)
    x = 10.0 ** (floor_db / 20.0) * rng.standard_normal(n)
    truth = np.zeros(n, dtype=bool)
    for start_s, end_s in bursts:
        a, b = int(start_s * sample_rate), int(end_s * sample_rate)
        x[a:b] += 0.3 * rng.standard_normal(b - a)
        truth[a:b] = True
    return AudioBuffer(np.stack([x, 0.9 * x]), sample_rate), truth


class TestEnergyVad:
    def test_digital_silence(self):
        audio = AudioBuffer(np.zeros((2, 16000)), 16000)
        mask = energy_vad(audio)
        assert not mask.any()

    def test_constant_noise_all_false(self):
        rng = np.random.default_rng(3)
        audio = AudioBuffer(np.tile(rng.standard_normal(32000), (2, 1)), 16000)
        mask = energy_vad(audio, window_s=1.0, threshold_db=10.0)
        assert not mask.any()

    def test_bursts_detected(self):
        rng = np.random.default_rng(4)
        audio, truth = speech_like(
            rng, 16000, [(1.0, 2.0), (3.0, 3.8), (5.0, 6.2)], total_s=8.0
        )
        mask = energy_vad(audio, window_s=1.5, threshold_db=10.0)
        hop = 256
        frame_truth = np.array(
            [truth[i * hop : i * hop + 800].mean() > 0.5 for i in range(mask.shape[0])]
        )
        accuracy = np.mean(mask == frame_truth)
        assert accuracy >= 0.95

    def test_gain_invariance(self):
        rng = np.random.default_rng(5)
        audio, _ = speech_like(rng, 16000, [(0.8, 1.6)], total_s=3.0)
        mask1 = energy_vad(audio)
        for gain in (0.05, 20.0):
            scaled = AudioBuffer(gain * audio.samples, 16000)
            mask2 = energy_vad(scaled)
            assert np.array_equal(mask1, mask2)

    def test_frame_count_matches_stft(self):
        rng = np.random.default_rng(6)
        audio = AudioBuffer(rng.standard_normal((2, 20000)), 16000)
        assert energy_vad(audio).shape == (stft(audio).num_frames,)

    def test_fractional_shift_rejected_like_stft(self):
        # 40 ms is 882 samples at 22050 Hz, 16 ms is 352.8: no frame grid
        audio = AudioBuffer(np.zeros((2, 22050)), 22050)
        with pytest.raises(InvalidInputError):
            energy_vad(audio, window_ms=40.0, shift_ms=16.0)

    def test_onset_after_silence_voiced_for_the_floor_window(self):
        # a 1.5 s window: the trailing floor holds the silence before the
        # onset, so the first 1.4 s of speech are voiced
        rng = np.random.default_rng(12)
        audio, _ = speech_like(rng, 16000, [(2.0, 5.0)], total_s=5.0)
        mask = energy_vad(audio, window_s=1.5, threshold_db=10.0)
        onset = 125  # first frame inside the speech, 2.0 s / 16 ms
        assert mask[onset : onset + int(1.4 / 0.016)].all()
        assert not mask[: onset - 5].any()

    def test_burst_that_ends_the_recording_voiced_to_the_last_frame(self):
        rng = np.random.default_rng(13)
        audio, _ = speech_like(rng, 16000, [(4.0, 5.0)], total_s=5.0)
        mask = energy_vad(audio)
        assert mask[250:].all()  # 4.0 s / 16 ms to the end
        assert not mask[:245].any()

    def test_energy_equals_the_mean_of_squared_frames(self, monkeypatch):
        rng = np.random.default_rng(17)
        audio, _ = speech_like(rng, 16000, [(0.5, 1.7), (2.0, 2.3)], 3.0)
        seen = []
        real = frontend.edge_windows
        monkeypatch.setattr(
            frontend, "edge_windows", lambda x, size, before: seen.append(x) or real(x, size, before)
        )
        energy_vad(audio)
        frames = np.lib.stride_tricks.sliding_window_view(audio.samples[0], 800)[::256]
        want = 10.0 * np.log10(np.mean(frames**2, axis=1) + 1e-30)
        np.testing.assert_allclose(seen[0], want, rtol=1e-12, atol=0.0)

    def test_peak_memory_below_twice_the_channel(self):
        # 50/16 ms frames overlap about 3x; none of them is materialized
        rng = np.random.default_rng(18)
        audio = AudioBuffer(rng.standard_normal((2, 20 * 16000)), 16000)
        tracemalloc.start()
        try:
            energy_vad(audio)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * audio.samples[0].nbytes

    @pytest.mark.parametrize("seed, window_s", [(14, 1.5), (15, 0.5), (16, 3.0)])
    def test_matches_scipy_ndimage_reference(self, seed, window_s):
        # mean, trailing minimum and closing of the zero-padded mask, as
        # ndimage computes them
        rng = np.random.default_rng(seed)
        audio, _ = speech_like(rng, 16000, [(0.5, 1.7), (2.0, 2.3), (3.1, 5.9)], 6.0)
        frames = np.lib.stride_tricks.sliding_window_view(audio.samples[0], 800)[::256]
        energy = 10.0 * np.log10(np.mean(frames**2, axis=1) + 1e-30)
        smoothed = ndimage.uniform_filter1d(energy, 5, mode="nearest")
        size = int(round(window_s * 1000.0 / 16.0))
        floor = ndimage.minimum_filter1d(smoothed, size, mode="nearest", origin=(size - 1) // 2)
        voiced = np.pad(energy > floor + 10.0, 12)
        closed = ndimage.binary_closing(voiced, structure=np.ones(12, dtype=bool))[12:-12]
        assert np.array_equal(energy_vad(audio, window_s=window_s, threshold_db=10.0), closed)


float_rows = st.lists(
    st.floats(-1e3, 1e3, allow_nan=False), min_size=1, max_size=40
).map(np.array)


class TestEdgeWindows:
    @settings(max_examples=100, deadline=None)
    @given(float_rows, st.integers(1, 50))
    def test_trailing_minimum(self, x, size):
        floor = edge_windows(x, size, size - 1).min(axis=-1)
        brute = [x[max(0, t - size + 1) : t + 1].min() for t in range(x.size)]
        assert np.array_equal(floor, brute)
        filtered = ndimage.minimum_filter1d(x, size, mode="nearest", origin=(size - 1) // 2)
        assert np.array_equal(floor, filtered)

    @settings(max_examples=100, deadline=None)
    @given(float_rows, st.integers(0, 25))
    def test_centred_median_equals_median_filter(self, x, half):
        size = 2 * half + 1
        median = np.median(edge_windows(x, size, half), axis=-1)
        assert np.array_equal(median, ndimage.median_filter(x, size, mode="nearest"))

    @settings(max_examples=100, deadline=None)
    @given(float_rows)
    def test_centred_mean_equals_uniform_filter(self, x):
        mean = edge_windows(x, 5, 2).mean(axis=-1)
        assert np.allclose(mean, ndimage.uniform_filter1d(x, 5, mode="nearest"), atol=1e-9)

    def test_rows_windowed_independently(self):
        x = np.arange(12.0).reshape(2, 6)
        windows = edge_windows(x, 3, 1)
        assert windows.shape == (2, 6, 3)
        assert windows[1, 0].tolist() == [6.0, 6.0, 7.0]
        assert windows[0, 5].tolist() == [4.0, 5.0, 5.0]


class TestWav:
    @pytest.mark.parametrize("fmt", ["float32", "pcm16"])
    def test_roundtrip(self, tmp_path, fmt):
        rng = np.random.default_rng(7)
        audio = AudioBuffer(np.clip(0.2 * rng.standard_normal((3, 5000)), -0.99, 0.99), 16000)
        path = tmp_path / "x.wav"
        if fmt == "float32":
            write_wav(path, audio)
        else:  # the reader's 16-bit PCM case, from a hand-built file
            ints = np.round(audio.samples.T * 32768.0).astype("<i2")
            fmt_chunk = struct.pack("<HHIIHH", 1, 3, 16000, 16000 * 6, 6, 16)
            path.write_bytes(wav_bytes(fmt_chunk, ints.tobytes()))
        back = read_wav(path)
        assert back.sample_rate == 16000
        assert back.num_channels == 3
        tol = 1e-7 if fmt == "float32" else 1.0 / 32768.0
        assert np.max(np.abs(back.samples - audio.samples)) <= tol

    def test_pcm24_bit_exact(self, tmp_path):
        # hand-built 24-bit PCM file with known samples
        import struct

        values = [0, 1, -1, (1 << 23) - 1, -(1 << 23)]
        payload = b""
        for v in values:
            payload += int(v & 0xFFFFFF).to_bytes(3, "little")
        fmt_chunk = struct.pack("<HHIIHH", 1, 1, 8000, 8000 * 3, 3, 24)
        body = b"WAVE" + b"fmt " + struct.pack("<I", 16) + fmt_chunk
        body += b"data" + struct.pack("<I", len(payload)) + payload
        path = tmp_path / "p24.wav"
        path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        audio = read_wav(path)
        want = np.array(values) / float(1 << 23)
        assert np.array_equal(audio.samples[0], want)

    @staticmethod
    def range_file(fmt, frames=50, channels=3):
        """A WAV file of ``frames`` random frames in ``fmt``, a LIST chunk after its data."""
        rng = np.random.default_rng(11)
        if fmt == "float32":
            payload = rng.uniform(-1.0, 1.0, (frames, channels)).astype("<f4").tobytes()
            tag, bits = 3, 32
        elif fmt == "pcm24":
            payload = rng.integers(0, 256, frames * channels * 3, dtype=np.uint8).tobytes()
            tag, bits = 1, 24
        else:  # pcm16, plain or as the subformat of an extensible header
            payload = rng.integers(-32768, 32768, (frames, channels), dtype="<i2").tobytes()
            tag, bits = (0xFFFE if fmt == "extensible" else 1), 16
        block = channels * bits // 8
        fmt_chunk = struct.pack("<HHIIHH", tag, channels, 8000, 8000 * block, block, bits)
        if fmt == "extensible":  # cbSize, valid bits, channel mask, subformat GUID
            fmt_chunk += struct.pack("<HHI", 22, bits, 0) + struct.pack("<H", 1) + b"\x00" * 14
        return wav_bytes(fmt_chunk, payload) + b"LIST" + struct.pack("<I", 4) + b"INFO"

    @pytest.mark.parametrize("fmt", ["pcm16", "pcm24", "float32", "extensible"])
    @pytest.mark.parametrize(
        "start, stop",
        [(0, 10), (20, 31), (40, 50), (45, 80), (25, 25), (60, 70), (0, None), (37, None)],
        ids=["start", "middle", "end", "past_end", "empty", "beyond", "whole", "to_end"],
    )
    def test_range_is_the_slice_of_the_whole_read_bit_for_bit(self, tmp_path, fmt, start, stop):
        path = tmp_path / "r.wav"
        path.write_bytes(self.range_file(fmt))
        whole = read_wav(path)
        assert whole.num_samples == 50
        want = whole.samples[:, start:stop]
        got = read_wav(path, start, stop)
        assert got.sample_rate == whole.sample_rate == 8000
        assert got.samples.dtype == want.dtype and got.samples.shape == want.shape
        assert got.samples.tobytes() == want.tobytes()

    @pytest.mark.parametrize("start, stop", [(0, 10), (20, 30), (0, None), (5, 5), (90, 99)])
    def test_truncated_data_chunk_raises_for_every_range(self, tmp_path, start, stop):
        data = self.range_file("pcm16")
        # the data chunk declares 300 bytes (50 frames); cut the file after 40 frames
        cut = data.index(b"data") + 8 + 40 * 6
        path = tmp_path / "t.wav"
        path.write_bytes(data[:cut])
        with pytest.raises(InvalidInputError, match="truncated data chunk"):
            read_wav(path, start, stop)

    def test_negative_range_rejected(self, tmp_path):
        path = tmp_path / "r.wav"
        path.write_bytes(self.range_file("pcm16"))
        with pytest.raises(InvalidInputError, match="negative"):
            read_wav(path, -1, 5)

    def test_rejects_non_wav(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"not a riff file")
        with pytest.raises(InvalidInputError):
            read_wav(path)

    @pytest.mark.parametrize(
        "fmt_chunk",
        [
            struct.pack("<HHIIHH", 1, 0, 8000, 0, 0, 16),  # zero channels
            struct.pack("<HHIIHH", 1, 1, 8000, 0, 0, 0),  # zero bits per sample
            struct.pack("<HHII", 1, 1, 8000, 16000),  # fmt chunk of 12 bytes
            struct.pack("<HHIIHH", 0xFFFE, 1, 8000, 16000, 2, 16) + b"\x00" * 4,  # extensible of 20
        ],
        ids=["zero_channels", "zero_bits", "short_fmt", "short_extensible_fmt"],
    )
    def test_malformed_fmt_rejected(self, tmp_path, fmt_chunk):
        path = tmp_path / "bad.wav"
        path.write_bytes(wav_bytes(fmt_chunk, b"\x00" * 8))
        with pytest.raises(InvalidInputError):
            read_wav(path)


class TestEmbeddings:
    def test_exact_passthrough(self, tmp_path):
        rng = np.random.default_rng(8)
        frames = rng.standard_normal((50, 16))
        frames /= np.linalg.norm(frames, axis=1, keepdims=True)
        path = tmp_path / "e.emb"
        write_embeddings(path, frames)
        seq = ingest_embeddings(path, 50)
        assert seq.alignment_action is None
        assert np.max(np.abs(seq.frames - frames)) < 1e-6  # float32 storage

    def test_one_extra_row_truncated(self, tmp_path):
        rng = np.random.default_rng(9)
        frames = rng.standard_normal((51, 8))
        path = tmp_path / "e.emb"
        write_embeddings(path, frames)
        seq = ingest_embeddings(path, 50)
        assert seq.num_frames == 50
        assert seq.alignment_action == "truncated_1"

    def test_two_missing_rows_padded(self, tmp_path):
        rng = np.random.default_rng(10)
        frames = rng.standard_normal((48, 8))
        path = tmp_path / "e.emb"
        write_embeddings(path, frames)
        seq = ingest_embeddings(path, 50)
        assert seq.num_frames == 50
        assert seq.alignment_action == "padded_2"
        assert np.allclose(seq.frames[-1], seq.frames[-2])

    def test_large_mismatch_resampled(self, tmp_path):
        rng = np.random.default_rng(11)
        frames = rng.standard_normal((100, 8))
        path = tmp_path / "e.emb"
        write_embeddings(path, frames)
        seq = ingest_embeddings(path, 25)
        assert seq.num_frames == 25
        assert seq.alignment_action == "resampled_100_to_25"

    def test_rows_normalized(self, tmp_path):
        frames = 2.0 * np.eye(4)[:3]
        path = tmp_path / "e.emb"
        write_embeddings(path, frames)
        seq = ingest_embeddings(path, 3)
        assert np.allclose(np.linalg.norm(seq.frames, axis=1), 1.0, atol=1e-9)

    def test_dim_mismatch_rejected(self, tmp_path):
        path = tmp_path / "e.emb"
        write_embeddings(path, np.eye(4))
        with pytest.raises(InvalidInputError):
            ingest_embeddings(path, 4, expected_dim=8)

    def test_nan_rows_rejected(self, tmp_path):
        frames = np.eye(4)
        frames[1, 1] = np.nan
        path = tmp_path / "e.emb"
        write_embeddings(path, frames)
        with pytest.raises(InvalidInputError):
            ingest_embeddings(path, 4)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "e.emb"
        path.write_bytes(b"XXXX" + b"\x00" * 12)
        with pytest.raises(InvalidInputError):
            ingest_embeddings(path, 1)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "e.emb"
        path.write_bytes(b"EMB1" + struct.pack("<II", 4, 4))
        with pytest.raises(InvalidInputError, match="truncated header"):
            ingest_embeddings(path, 4)


def mask_from_runs(runs, total):
    frames = np.zeros(total, dtype=bool)
    for a, b in runs:
        frames[a:b] = True
    return frames


class TestSplitSegments:
    FR = 62.5  # frames per second at 16 ms hop

    def test_single_continuous_segment(self):
        vad = mask_from_runs([(10, 400)], 500)
        segs = split_segments(vad, 1.0, 2.0, 60.0, self.FR)
        assert len(segs) == 1
        assert (segs[0].start_frame, segs[0].end_frame) == (10, 400)

    def test_two_bursts_long_silence(self):
        vad = mask_from_runs([(0, 200), (400, 600)], 700)  # 3.2 s pause
        segs = split_segments(vad, 1.0, 2.0, 60.0, self.FR)
        assert len(segs) == 2

    def test_five_bursts_alternating_pauses(self):
        # pauses: 100 frames (1.6 s, above max), 30 (0.48 s, below),
        # 100 (above), 30 (below) -> segments {B1}, {B2,B3}, {B4,B5}
        runs = []
        cursor = 0
        for pause in (None, 100, 30, 100, 30):
            if pause is not None:
                cursor += pause
            runs.append((cursor, cursor + 150))
            cursor += 150
        vad = mask_from_runs(runs, cursor + 10)
        segs = split_segments(vad, 1.0, 2.0, 60.0, self.FR)
        assert len(segs) == 3
        assert (segs[0].start_frame, segs[0].end_frame) == (runs[0][0], runs[0][1])
        assert (segs[1].start_frame, segs[1].end_frame) == (runs[1][0], runs[2][1])
        assert (segs[2].start_frame, segs[2].end_frame) == (runs[3][0], runs[4][1])

    def test_max_length_forces_cut(self):
        # two long runs separated by a short pause but exceeding max_len together
        vad = mask_from_runs([(0, 2000), (2010, 4000)], 4100)
        segs = split_segments(vad, 1.0, 2.0, 40.0, self.FR)  # max 2500 frames
        assert len(segs) == 2

    def test_long_voiced_run_cut_into_equal_pieces(self):
        # 100 s of speech without a pause, under the default 60 s bound
        vad = np.ones(6250, dtype=bool)
        segs = split_segments(vad, 1.0, 2.0, 60.0, self.FR)
        assert [(s.start_frame, s.end_frame) for s in segs] == [(0, 3125), (3125, 6250)]
        assert [s.id for s in segs] == ["seg000", "seg001"]

    def test_pieces_never_exceed_the_bound(self):
        # a 9.5-frame bound takes whole pieces of at most 9 frames: the
        # 47-frame run needs six, of 7 or 8 frames
        vad = mask_from_runs([(3, 50), (60, 64)], 70)
        segs = split_segments(vad, 1.0 / self.FR, 0.0, 9.5 / self.FR, self.FR)
        spans = [(s.start_frame, s.end_frame) for s in segs]
        assert spans == [(3, 10), (10, 18), (18, 26), (26, 34), (34, 42), (42, 50), (60, 64)]

    def test_short_segments_dropped(self):
        vad = mask_from_runs([(0, 50), (500, 1000)], 1100)  # 0.8 s and 8 s
        segs = split_segments(vad, 1.0, 2.0, 60.0, self.FR)
        assert len(segs) == 1
        assert segs[0].start_frame == 500

    def test_empty_vad(self):
        assert split_segments(mask_from_runs([], 100), 1.0, 2.0, 60.0, self.FR) == []

    def test_ids_ordered_nonoverlapping(self):
        vad = mask_from_runs([(0, 200), (400, 600), (800, 1000)], 1100)
        segs = split_segments(vad, 1.0, 2.0, 60.0, self.FR)
        assert [s.id for s in segs] == ["seg000", "seg001", "seg002"]
        for a, b in zip(segs, segs[1:]):
            assert a.end_frame <= b.start_frame


class TestTrueRuns:
    def test_runs_are_half_open(self):
        mask = np.array([1, 1, 0, 0, 1, 0, 1, 1, 1], dtype=bool)
        assert true_runs(mask) == [(0, 2), (4, 5), (6, 9)]

    def test_empty_and_all_false(self):
        assert true_runs(np.zeros(0, dtype=bool)) == []
        assert true_runs(np.zeros(5, dtype=bool)) == []


bool_masks = st.lists(st.booleans(), max_size=60).map(lambda v: np.array(v, dtype=bool))


class TestFillGaps:
    @settings(max_examples=300, deadline=None)
    @given(bool_masks, st.integers(1, 12))
    def test_equals_closing_of_the_zero_padded_mask(self, mask, length):
        padded = np.pad(mask, length)
        closed = ndimage.binary_closing(padded, structure=np.ones(length, dtype=bool))
        assert np.array_equal(fill_gaps(mask, length), closed[length : length + mask.size])

    @settings(max_examples=300, deadline=None)
    @given(bool_masks, st.integers(0, 12))
    def test_never_clears_and_fills_only_short_inner_gaps(self, mask, length):
        filled = fill_gaps(mask, length)
        assert filled[mask].all()
        runs = true_runs(mask)
        for (_, end), (start, _) in zip(runs, runs[1:]):
            assert filled[end:start].all() == (start - end < length)
        if runs:
            assert not filled[: runs[0][0]].any() and not filled[runs[-1][1] :].any()

    def test_edge_runs_kept(self):
        mask = np.array([1, 0, 0, 1, 0, 0, 0, 0, 1], dtype=bool)
        assert fill_gaps(mask, 3).tolist() == [True] * 4 + [False] * 4 + [True]

    def test_input_untouched(self):
        mask = np.array([1, 0, 1], dtype=bool)
        fill_gaps(mask, 5)
        assert mask.tolist() == [True, False, True]


class TestMergeIntervals:
    def test_union_of_unsorted_overlaps(self):
        assert merge_intervals([(3.0, 4.0), (0.0, 2.0), (1.0, 1.5), (2.0, 2.5)]) == [
            (0.0, 2.5), (3.0, 4.0)
        ]

    def test_gap_joins_close_intervals(self):
        spans = [(0.0, 1.0), (1.25, 2.0), (3.0, 4.0)]
        assert merge_intervals(spans, gap=0.25) == [(0.0, 2.0), (3.0, 4.0)]
        assert merge_intervals(spans, gap=0.2) == spans

    def test_empty(self):
        assert merge_intervals([]) == []


class TestF32TensorFiles:
    def test_embedding_bytes(self, tmp_path):
        frames = np.arange(6.0).reshape(2, 3)
        write_embeddings(tmp_path / "e.emb", frames)
        expected = b"EMB1" + struct.pack("<III", 2, 3, 0) + frames.astype("<f4").tobytes()
        assert (tmp_path / "e.emb").read_bytes() == expected

    def test_three_dimensional_bytes(self, tmp_path):
        tensor = np.linspace(0.0, 1.0, 24).reshape(2, 3, 4)
        write_f32_tensor(tmp_path / "m.msk", b"MSK1", tensor)
        expected = b"MSK1" + struct.pack("<III", 2, 3, 4) + tensor.astype("<f4").tobytes()
        assert (tmp_path / "m.msk").read_bytes() == expected

    def test_strided_view_written_in_row_major_order(self, tmp_path):
        # the joint EM's posterior is a (K, T, F) view of a (K, F, T) buffer
        buffer = np.linspace(0.0, 1.0, 24).reshape(2, 4, 3)
        tensor = buffer.swapaxes(1, 2)
        write_f32_tensor(tmp_path / "m.msk", b"MSK1", tensor)
        expected = b"MSK1" + struct.pack("<III", 2, 3, 4) + tensor.astype("<f4").tobytes()
        assert (tmp_path / "m.msk").read_bytes() == expected


class TestSegmentSpec:
    def test_rejects_empty_range(self):
        with pytest.raises(InvalidInputError):
            SegmentSpec(5, 5, "x")
