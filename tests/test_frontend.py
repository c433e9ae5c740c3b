import math
import struct

import numpy as np
import pytest
from helpers import wav_bytes
from scipy import signal

from mixsep.errors import InvalidInputError
from mixsep.frontend import (
    AudioBuffer,
    _hann,
    SegmentSpec,
    energy_vad,
    ingest_embeddings,
    istft,
    num_stft_frames,
    read_wav,
    split_segments,
    stft,
    true_runs,
    write_embeddings,
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
         ((2,), 1, (64, 50, 16)), ((2,), 0, (64, 50, 16)), ((3,), 9, (64, 64, 64))],
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
        assert x.is_empty
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


class TestWav:
    @pytest.mark.parametrize("fmt", ["float32", "pcm16"])
    def test_roundtrip(self, tmp_path, fmt):
        rng = np.random.default_rng(7)
        audio = AudioBuffer(np.clip(0.2 * rng.standard_normal((3, 5000)), -0.99, 0.99), 16000)
        path = tmp_path / "x.wav"
        write_wav(path, audio, fmt=fmt)
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

    def test_sidecar_frame_rate(self, tmp_path):
        path = tmp_path / "e.emb"
        write_embeddings(path, np.eye(4), frame_rate=125.0)
        seq = ingest_embeddings(path, 4)
        assert seq.frame_rate == 125.0

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


class TestSegmentSpec:
    def test_rejects_empty_range(self):
        with pytest.raises(InvalidInputError):
            SegmentSpec(5, 5, "x")
