"""Signal ingestion: audio files, STFT/iSTFT, VAD, segmentation, embeddings.

The WAV reader interprets RIFF/WAVE PCM 16/24-bit and 32-bit float payloads
bit-exactly; the STFT uses a Hann analysis window zero-padded to the FFT
size and a least-squares (COLA-compliant) dual window for synthesis, so the
round trip is exact on the covered interior.
"""

from __future__ import annotations

import json
import logging
import math
import struct
from dataclasses import dataclass

import numpy as np

from .cacg import StftTensor
from .errors import InvalidInputError
from .vmf import EmbeddingSequence

logger = logging.getLogger(__name__)

EMBEDDING_MAGIC = b"EMB1"


@dataclass(frozen=True)
class AudioBuffer:
    """Multichannel waveform, shape (C, N)."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim == 1:
            samples = samples[None, :]
        if samples.ndim != 2:
            raise InvalidInputError("samples must have shape (C, N)")
        if self.sample_rate <= 0:
            raise InvalidInputError("sample_rate must be positive")
        if not np.all(np.isfinite(samples)):
            raise InvalidInputError("samples must be free of NaN/Inf")
        object.__setattr__(self, "samples", samples)

    @property
    def num_channels(self) -> int:
        return self.samples.shape[0]

    @property
    def num_samples(self) -> int:
        return self.samples.shape[1]

    @property
    def duration(self) -> float:
        return self.num_samples / self.sample_rate


@dataclass(frozen=True)
class SegmentSpec:
    """Half-open frame range [start_frame, end_frame) with an identifier."""

    start_frame: int
    end_frame: int
    id: str

    def __post_init__(self):
        if self.start_frame < 0 or self.end_frame <= self.start_frame:
            raise InvalidInputError("segment frame range must be nonempty and nonnegative")


# ---------------------------------------------------------------------------
# WAV input/output


def read_wav(path) -> AudioBuffer:
    """Read a RIFF/WAVE file (PCM 16/24-bit or 32-bit float, multichannel).

    The data chunk is read in place, at its offset in the file's bytes, and
    converted to float64 once.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 12 or blob[:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise InvalidInputError(f"{path} is not a RIFF/WAVE file")
    pos = 12
    fmt = None
    data = None  # offset and size of the data chunk
    while pos + 8 <= len(blob):
        cid = blob[pos : pos + 4]
        (size,) = struct.unpack_from("<I", blob, pos + 4)
        start = pos + 8
        if cid == b"fmt ":
            fmt = blob[start : start + size]
        elif cid == b"data":
            if len(blob) - start < size:
                raise InvalidInputError(f"{path}: truncated data chunk")
            data = (start, size)
        pos = start + size + (size & 1)
    if fmt is None or data is None:
        raise InvalidInputError(f"{path} misses fmt or data chunk")
    if len(fmt) < 16:
        raise InvalidInputError(f"{path}: fmt chunk of {len(fmt)} bytes, need 16")
    tag, channels, rate, _, _, bits = struct.unpack("<HHIIHH", fmt[:16])
    if tag == 0xFFFE:  # extensible: actual format in the first subformat bytes
        if len(fmt) < 26:
            raise InvalidInputError(f"{path}: extensible fmt chunk of {len(fmt)} bytes, need 26")
        tag = struct.unpack("<H", fmt[24:26])[0]
    frame_bytes = channels * bits // 8
    if frame_bytes == 0:
        raise InvalidInputError(f"{path}: {channels} channels of {bits} bits per sample")
    offset, size = data
    n = size // frame_bytes
    if tag == 1 and bits == 16:
        flat = np.frombuffer(blob, "<i2", n * channels, offset).astype(float)
        flat /= 32768.0
    elif tag == 1 and bits == 24:
        raw = np.frombuffer(blob, np.uint8, n * frame_bytes, offset).reshape(-1, 3)
        ints = (
            raw[:, 0].astype(np.int32)
            | (raw[:, 1].astype(np.int32) << 8)
            | (raw[:, 2].astype(np.int32) << 16)
        )
        ints = np.where(ints >= 1 << 23, ints - (1 << 24), ints)
        flat = ints.astype(float) / float(1 << 23)
    elif tag == 3 and bits == 32:
        flat = np.frombuffer(blob, "<f4", n * channels, offset).astype(float)
    else:
        raise InvalidInputError(f"unsupported WAV format tag={tag} bits={bits}")
    samples = flat.reshape(n, channels).T
    return AudioBuffer(samples, rate)


def write_wav(path, audio: AudioBuffer):
    """Write a 32-bit float WAV file.

    The interleaved payload is built once, in its file layout, and written
    after the header.
    """
    payload = np.ascontiguousarray(audio.samples.T, dtype="<f4")  # (N, C)
    block = 4 * payload.shape[1]
    # format tag 3 (IEEE float), 32 bits per sample
    fmt_chunk = struct.pack(
        "<HHIIHH", 3, payload.shape[1], audio.sample_rate, audio.sample_rate * block, block, 32
    )
    header = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt_chunk)) + fmt_chunk
    header += b"data" + struct.pack("<I", payload.nbytes)
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", len(header) + payload.nbytes) + header)
        fh.write(payload)


# ---------------------------------------------------------------------------
# STFT / iSTFT


def stft_sizes(sample_rate: int, stft_size_ms: float, window_ms: float, shift_ms: float):
    sizes = []
    for ms in (stft_size_ms, window_ms, shift_ms):
        samples = ms * sample_rate / 1000.0
        if abs(samples - round(samples)) > 1e-9:
            raise InvalidInputError(f"{ms} ms does not map to whole samples at {sample_rate} Hz")
        sizes.append(int(round(samples)))
    nfft, win, hop = sizes
    if win > nfft:
        raise InvalidInputError("window must not exceed the STFT size")
    if hop <= 0:
        raise InvalidInputError("shift must be positive")
    return nfft, win, hop


def _hann(n: int) -> np.ndarray:
    """Periodic Hann window, bit-identical to SciPy's ``get_window("hann", n)``."""
    if n == 1:
        return np.ones(1)
    return 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, n + 1)[:-1])


def stft(
    audio: AudioBuffer,
    stft_size_ms: float = 64.0,
    window_ms: float = 50.0,
    shift_ms: float = 16.0,
) -> StftTensor:
    """Hann-windowed STFT, frames zero-padded to the FFT size.

    Returns a tensor with ``F = nfft/2 + 1`` bins; audio shorter than one
    window yields a tensor of no frames.
    """
    nfft, win, hop = stft_sizes(audio.sample_rate, stft_size_ms, window_ms, shift_ms)
    n = audio.num_samples
    if n < win:
        data = np.zeros((audio.num_channels, 0, nfft // 2 + 1), dtype=complex)
        return StftTensor(data, audio.sample_rate, nfft, win, hop)
    window = _hann(win)
    frames = np.lib.stride_tricks.sliding_window_view(audio.samples, win, axis=1)[:, ::hop, :]
    data = np.fft.rfft(frames * window, n=nfft, axis=2)
    return StftTensor(data, audio.sample_rate, nfft, win, hop)


def istft(spec: np.ndarray, stft_size: int, window_size: int, shift: int) -> np.ndarray:
    """Invert an STFT of shape (..., T, F) via dual-window overlap-add."""
    spec = np.asarray(spec, dtype=complex)
    frames = np.fft.irfft(spec, n=stft_size, axis=-1)[..., :window_size]
    window = _hann(window_size)
    frames *= window
    n_frames = spec.shape[-2]
    n = window_size + (n_frames - 1) * shift if n_frames else 0
    # the output in blocks of ``shift`` samples: frame t adds its phase-j
    # chunk (samples j*shift onwards) to block t + j, so one phase adds all
    # frames at once; descending phases add each sample's frames in
    # ascending frame order, as a loop over frames does
    phases = -(-window_size // shift)
    blocks = n_frames + phases - 1 if n_frames else 0
    out = np.zeros(spec.shape[:-2] + (blocks, shift))
    denom = np.zeros((blocks, shift))
    for j in reversed(range(phases)):
        chunk = slice(j * shift, min((j + 1) * shift, window_size))
        width = chunk.stop - chunk.start
        out[..., j : j + n_frames, :width] += frames[..., chunk]
        denom[j : j + n_frames, :width] += window[chunk] ** 2
    out = out.reshape(spec.shape[:-2] + (blocks * shift,))[..., :n]
    denom = denom.reshape(-1)[:n]
    valid = denom > 1e-12
    out[..., valid] /= denom[valid]
    return out


def num_stft_frames(num_samples: int, window_size: int, shift: int) -> int:
    if num_samples < window_size:
        return 0
    return 1 + (num_samples - window_size) // shift


# ---------------------------------------------------------------------------
# Voice activity detection


def edge_windows(x: np.ndarray, size: int, before: int) -> np.ndarray:
    """View (..., T, size): window t holds ``x[..., t - before : t - before + size]``
    along the last axis, indices clipped to the array (SciPy's "nearest")."""
    pad = [(0, 0)] * (x.ndim - 1) + [(before, size - 1 - before)]
    return np.lib.stride_tricks.sliding_window_view(np.pad(x, pad, mode="edge"), size, axis=-1)


def energy_vad(
    audio: AudioBuffer,
    window_s: float = 12.0,
    threshold_db: float = 8.0,
    window_ms: float = 50.0,
    shift_ms: float = 16.0,
) -> np.ndarray:
    """Energy VAD with a minimum-statistics noise floor.

    Per-frame log energy of channel 0 (same framing as the STFT), smoothed
    over 5 frames; the noise floor is the running minimum of the smoothed
    energy over the trailing window [t - L + 1, t] of ``window_s`` seconds
    (longer than any continuous speech). A frame is voiced when its energy
    exceeds the floor by ``threshold_db``; pauses under 200 ms between voiced
    runs are then filled. Invariant to global gain.

    Returns:
        (T,) bool voice activity, one entry per STFT frame.
    """
    _, win, hop = stft_sizes(audio.sample_rate, window_ms, window_ms, shift_ms)
    if audio.num_samples < win:
        return np.zeros(0, dtype=bool)
    frames = np.lib.stride_tricks.sliding_window_view(audio.samples[0], win)[::hop]
    # the per-frame sum of squares reads the overlapping window view in
    # place; squaring the view would copy every sample about win / hop times
    energy = 10.0 * np.log10(np.einsum("tw,tw->t", frames, frames) / win + 1e-30)
    smoothed = edge_windows(energy, 5, 2).mean(axis=-1)
    floor_len = max(1, int(round(window_s * 1000.0 / shift_ms)))
    floor = edge_windows(smoothed, floor_len, floor_len - 1).min(axis=-1)
    voiced = energy > floor + threshold_db
    return fill_gaps(voiced, max(1, int(round(200.0 / shift_ms))))


# ---------------------------------------------------------------------------
# Embedding files


def write_embeddings(path, frames: np.ndarray, frame_rate: float | None = None):
    """Write the binary embedding matrix format (magic EMB1, u32 dims, f32 data)."""
    if np.ndim(frames) != 2:
        raise InvalidInputError("embedding frames must be a T x E matrix")
    write_f32_tensor(path, EMBEDDING_MAGIC, frames)
    if frame_rate is not None:
        with open(str(path) + ".json", "w") as fh:
            json.dump({"frame_rate": frame_rate}, fh, sort_keys=True)


def write_f32_tensor(path, magic: bytes, tensor: np.ndarray):
    """Write an up to 3-d tensor as :func:`read_f32_tensor` reads it, unused shape fields 0."""
    tensor = np.asarray(tensor, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(magic + struct.pack("<III", *tensor.shape, *[0] * (3 - tensor.ndim)))
        fh.write(tensor.tobytes())


def read_f32_tensor(path, magic: bytes, ndim: int) -> np.ndarray:
    """Read a float32 tensor file, the layout of EMB1 and MSK1 files.

    The file holds ``magic``, three little-endian u32 header fields whose
    first ``ndim`` are the shape (EMB1: T, E, reserved; MSK1: K, T, F), then
    the row-major little-endian float32 data.
    """
    with open(path, "rb") as fh:
        found = fh.read(4)
        if found != magic:
            raise InvalidInputError(f"{path}: bad magic {found!r}, expected {magic.decode()}")
        header = fh.read(12)
        if len(header) != 12:
            raise InvalidInputError(f"{path}: truncated header")
        shape = struct.unpack("<III", header)[:ndim]
        payload = fh.read(math.prod(shape) * 4)
    if len(payload) != math.prod(shape) * 4:
        raise InvalidInputError(f"{path}: truncated payload")
    return np.frombuffer(payload, dtype="<f4").reshape(shape).astype(float)


def ingest_embeddings(
    path,
    expected_frames: int,
    expected_dim: int | None = None,
    frame_rate: float | None = None,
) -> EmbeddingSequence:
    """Load an EMB1 file, normalize rows, and align to the STFT frame count.

    A count mismatch of at most 2 frames is fixed by truncation or edge
    padding; larger mismatches trigger nearest-frame resampling. The
    alignment action is recorded on the returned sequence.
    """
    frames = read_f32_tensor(path, EMBEDDING_MAGIC, 2)
    t_file, e_dim = frames.shape
    if expected_dim is not None and e_dim != expected_dim:
        raise InvalidInputError(f"{path}: embedding dim {e_dim} != configured {expected_dim}")
    if np.isnan(frames).any():
        raise InvalidInputError(f"{path}: NaN embedding rows")

    action = None
    if t_file != expected_frames:
        diff = t_file - expected_frames
        if abs(diff) <= 2:
            if diff > 0:
                frames = frames[:expected_frames]
                action = f"truncated_{diff}"
            else:
                pad = np.repeat(frames[-1:], -diff, axis=0)
                frames = np.concatenate([frames, pad], axis=0)
                action = f"padded_{-diff}"
        else:
            src = np.minimum(
                ((np.arange(expected_frames) + 0.5) * t_file / expected_frames).astype(int),
                t_file - 1,
            )
            frames = frames[src]
            action = f"resampled_{t_file}_to_{expected_frames}"
        logger.info("embedding alignment for %s: %s", path, action)

    if frame_rate is None:
        sidecar = str(path) + ".json"
        try:
            with open(sidecar) as fh:
                frame_rate = json.load(fh).get("frame_rate")
        except OSError:
            frame_rate = None
    return EmbeddingSequence.from_raw(frames, frame_rate or 62.5, alignment_action=action)


# ---------------------------------------------------------------------------
# Segmentation


def true_runs(mask: np.ndarray) -> list:
    """Half-open ``(start, end)`` index ranges of the runs of True in ``mask``."""
    padded = np.concatenate([[False], mask, [False]]).astype(int)
    edges = np.flatnonzero(np.diff(padded))
    return list(zip(edges[0::2], edges[1::2]))


def fill_gaps(mask: np.ndarray, length: int) -> np.ndarray:
    """Copy of ``mask`` with each False run shorter than ``length`` between True runs set."""
    mask = np.array(mask, dtype=bool)
    runs = true_runs(mask)
    for (_, end), (start, _) in zip(runs, runs[1:]):
        if start - end < length:
            mask[end:start] = True
    return mask


def merge_intervals(intervals, gap: float = 0.0) -> list:
    """Sorted union of ``(start, end)`` intervals, bridging gaps of at most ``gap``."""
    merged = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1] + gap:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(s, e) for s, e in merged]


def split_segments(
    vad: np.ndarray,
    max_pause_s: float,
    min_len_s: float,
    max_len_s: float,
    frame_rate: float,
) -> list[SegmentSpec]:
    """Cut the recording at long pauses into bounded processing segments.

    Voiced runs separated by pauses of at most ``max_pause_s`` are merged
    greedily while the merged span stays within ``max_len_s``; longer pauses
    always cut. A single voiced run longer than ``max_len_s`` is cut into the
    fewest equal pieces within the bound. Segments shorter than ``min_len_s``
    are dropped. ``vad`` is the (T,) bool activity of :func:`energy_vad`.
    """
    if not vad.any():
        return []
    max_pause = max_pause_s * frame_rate
    max_len = max_len_s * frame_rate
    min_len = min_len_s * frame_rate

    runs = true_runs(vad)
    merged = []
    cur_start, cur_end = runs[0]
    for start, end in runs[1:]:
        gap = start - cur_end
        span = end - cur_start
        if gap <= max_pause and span <= max_len:
            cur_end = end
        else:
            merged.append((cur_start, cur_end))
            cur_start, cur_end = start, end
    merged.append((cur_start, cur_end))

    # whole frames per piece, so that a piece never exceeds the bound
    cap = max(1, math.floor(max_len))
    segments = []
    for start, end in merged:
        pieces = -(-(end - start) // cap)
        bounds = [start + (end - start) * i // pieces for i in range(pieces + 1)]
        for a, b in zip(bounds[:-1], bounds[1:]):
            if b - a >= min_len:
                segments.append(SegmentSpec(int(a), int(b), f"seg{len(segments):03d}"))
    return segments
