"""Generative oracles: an exact vMF sampler and a meeting builder.

The meeting builder lays out per-speaker utterances on a shared frame grid,
synthesizes a multichannel waveform through per-speaker FIR mixing, and
derives ground-truth dominance masks from the realized source images. The
model-space observations (cACG draws per bin, vMF embeddings per frame) use
the same dominance assignments, so the two worlds share one ground truth.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict

import numpy as np

from .cacg import StftTensor
from .errors import ConfigurationError, InvalidInputError
from .frontend import AudioBuffer, SegmentSpec, merge_intervals, num_stft_frames, stft, stft_sizes
from .numerics import chol_with_loading
from .vmf import EmbeddingSequence


def sample_vmf(mu: np.ndarray, kappa: float, n: int, seed: int) -> np.ndarray:
    """Draw n unit vectors from vMF(mu, kappa) with Wood's rejection sampler."""
    mu = np.asarray(mu, dtype=float)
    if abs(float(np.linalg.norm(mu)) - 1.0) > 1e-6:
        raise InvalidInputError("mu must be a unit vector")
    if kappa < 0.0:
        raise InvalidInputError("kappa must be >= 0")
    rng = np.random.default_rng(seed)
    dim = mu.shape[0]
    if kappa == 0.0:
        x = rng.standard_normal((n, dim))
        return x / np.linalg.norm(x, axis=1, keepdims=True)

    b = (-2.0 * kappa + math.sqrt(4.0 * kappa**2 + (dim - 1.0) ** 2)) / (dim - 1.0)
    x0 = (1.0 - b) / (1.0 + b)
    c = kappa * x0 + (dim - 1.0) * math.log(1.0 - x0**2)
    ws = np.empty(n)
    filled = 0
    while filled < n:
        m = max(n - filled, 64)
        z = rng.beta((dim - 1.0) / 2.0, (dim - 1.0) / 2.0, size=m)
        w = (1.0 - (1.0 + b) * z) / (1.0 - (1.0 - b) * z)
        u = rng.random(m)
        with np.errstate(divide="ignore"):
            accept = kappa * w + (dim - 1.0) * np.log1p(-x0 * w) - c >= np.log(u)
        take = w[accept][: n - filled]
        ws[filled : filled + take.shape[0]] = take
        filled += take.shape[0]

    v = rng.standard_normal((n, dim - 1))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    x = np.concatenate([ws[:, None], np.sqrt(np.maximum(1.0 - ws**2, 0.0))[:, None] * v], axis=1)
    # Householder reflection mapping e1 onto mu
    href = np.zeros(dim)
    href[0] = 1.0
    href -= mu
    norm = np.linalg.norm(href)
    if norm > 1e-12:
        href /= norm
        x = x - 2.0 * (x @ href)[:, None] * href
    return x / np.linalg.norm(x, axis=1, keepdims=True)


@dataclass
class SegmentPlan:
    """One planned meeting segment: duration and the set of active speakers."""

    duration_s: float
    active: list[int]


@dataclass
class ScenarioConfig:
    """Full description of a synthetic meeting; the seed fixes every draw."""

    k_true: int
    segments: list[SegmentPlan]
    channels: int = 4
    embed_dim: int = 16
    sample_rate: int = 8000
    stft_size_ms: float = 64.0
    window_ms: float = 50.0
    shift_ms: float = 16.0
    kappa_true: float = 30.0
    anisotropy: float = 4.0
    overlap: float = 0.2
    gap_s: float = 1.4
    block_s: float = 1.6
    noise_db: float = -50.0
    seed: int = 0
    spatial_groups: list[list[int]] | None = None

    def __post_init__(self):
        if not 0.0 <= self.overlap <= 0.4:
            raise ConfigurationError("overlap ratio must lie in [0, 0.4]")
        if self.k_true < 1 or self.k_true > self.embed_dim:
            raise ConfigurationError("need 1 <= k_true <= embed_dim")
        for plan in self.segments:
            if isinstance(plan, dict):
                raise ConfigurationError("segments must be SegmentPlan instances")
            if len(plan.active) > self.k_true or len(plan.active) == 0:
                raise ConfigurationError("segment active set must be nonempty and <= k_true")
            if any(not 0 <= s < self.k_true for s in plan.active):
                raise ConfigurationError("segment names an unknown speaker")
        grouped = [s for group in self.spatial_groups or [] for s in group]
        if len(set(grouped)) < len(grouped) or any(not 0 <= s < self.k_true for s in grouped):
            raise ConfigurationError("spatial groups must be disjoint sets of known speakers")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioConfig":
        raw = json.loads(text)
        raw["segments"] = [SegmentPlan(**p) for p in raw.get("segments", [])]
        return cls(**raw)


@dataclass
class GroundTruth:
    """Everything the verification side needs about a synthetic meeting."""

    masks: np.ndarray  # (K, T, F) one-hot dominance on voiced bins
    activity: dict  # speaker -> list of (start_s, end_s)
    segments: list[SegmentSpec]
    segment_counts: list[int]
    segment_active: list[list[int]]
    voiced: np.ndarray  # (T,) bool
    mu_true: np.ndarray  # (K, E)
    cov_true: np.ndarray  # (K, F, C, C)
    source_images: np.ndarray  # (K, N) reference-channel images
    frame_rate: float


def _layout_utterances(cfg: ScenarioConfig, rng: np.random.Generator, frame_rate: float):
    """Place utterances on the frame grid; returns (utterances, segments, total_frames)."""
    gap = max(1, int(round(cfg.gap_s * frame_rate)))
    block = max(4, int(round(cfg.block_s * frame_rate)))
    utterances = []  # (speaker, start_frame, end_frame)
    segments = []
    cursor = gap
    for si, plan in enumerate(cfg.segments):
        n_frames = max(len(plan.active) * 4, int(round(plan.duration_s * frame_rate)))
        n_blocks = max(len(plan.active), int(round(n_frames / block)))
        order = []
        while len(order) < n_blocks:
            order.extend(int(plan.active[i]) for i in rng.permutation(len(plan.active)))
        order = order[:n_blocks]
        seg_start = cursor
        prev_end = None
        for bi, speaker in enumerate(order):
            length = max(3, int(round(block * rng.uniform(0.8, 1.2))))
            if prev_end is None:
                start = cursor
            elif cfg.overlap > 0.0 and bi % 3 != 0:
                start = max(seg_start, prev_end - int(round(cfg.overlap * length)))
            else:
                start = prev_end + int(round(rng.uniform(0.05, 0.3) * frame_rate))
            end = start + length
            utterances.append((speaker, start, end))
            prev_end = end
            cursor = max(cursor, end)
        segments.append(SegmentSpec(seg_start, cursor, f"seg{si:03d}"))
        cursor += gap
    return utterances, segments, cursor


def _speech_burst(n: int, rng: np.random.Generator, sample_rate: int) -> np.ndarray:
    """Amplitude-modulated noise with syllabic envelope and short fades."""
    t = np.arange(n) / sample_rate
    envelope = 0.55 + 0.45 * np.abs(np.sin(2.0 * math.pi * 3.5 * t + rng.uniform(0, math.pi)))
    burst = rng.standard_normal(n) * envelope * 0.1
    fade = min(n // 4, int(0.02 * sample_rate))
    if fade > 0:
        ramp = 0.5 * (1.0 - np.cos(np.linspace(0.0, math.pi, fade)))
        burst[:fade] *= ramp
        burst[-fade:] *= ramp[::-1]
    return burst


def build_meeting(cfg: ScenarioConfig):
    """Generate one synthetic meeting.

    Returns:
        ``(stft_tensor, embeddings, ground_truth, audio)`` where the STFT
        tensor holds exact model-space draws (cACG per bin), the audio is a
        waveform consistent with the same dominance masks, and the ground
        truth records masks, activity, counts and true parameters.
    """
    rng = np.random.default_rng(cfg.seed)
    sr = cfg.sample_rate
    nfft, win, hop = stft_sizes(sr, cfg.stft_size_ms, cfg.window_ms, cfg.shift_ms)
    n_bins = nfft // 2 + 1
    frame_rate = sr / hop

    utterances, segments, total_frames = _layout_utterances(cfg, rng, frame_rate)
    n_samples = win + (total_frames - 1) * hop

    k_true, n_chan = cfg.k_true, cfg.channels
    activity = np.zeros((k_true, total_frames), dtype=bool)
    for speaker, start, end in utterances:
        activity[speaker, start:end] = True

    # per-speaker sources and FIR channel images
    sources = np.zeros((k_true, n_samples))
    for speaker, start, end in utterances:
        s0 = start * hop
        s1 = min(n_samples, (end - 1) * hop + win)
        sources[speaker, s0:s1] += _speech_burst(s1 - s0, rng, sr)
    # grouped speakers share the spatial draws of the group's first speaker:
    # its FIRs here, its covariance in the model space below
    group_of = list(range(k_true))
    for group in cfg.spatial_groups or []:
        for member in group:
            group_of[member] = group[0]
    fir_len = 8
    firs = rng.standard_normal((k_true, n_chan, fir_len)) * (0.65 ** np.arange(fir_len))
    firs /= np.linalg.norm(firs, axis=2, keepdims=True)
    firs = firs[group_of]
    images = np.zeros((k_true, n_chan, n_samples))
    for k in range(k_true):
        for c in range(n_chan):
            images[k, c] = np.convolve(sources[k], firs[k, c])[:n_samples]
    noise_floor = 0.1 * 10.0 ** (cfg.noise_db / 20.0)
    mixture = images.sum(axis=0) + noise_floor * rng.standard_normal((n_chan, n_samples))
    audio = AudioBuffer(mixture, sr)

    # realized dominance from the image spectrograms
    assert num_stft_frames(n_samples, win, hop) == total_frames
    power = np.zeros((k_true, total_frames, n_bins))
    for k in range(k_true):
        spec = stft(AudioBuffer(images[k], sr), cfg.stft_size_ms, cfg.window_ms, cfg.shift_ms)
        power[k] = (np.abs(spec.data) ** 2).sum(axis=0)
    voiced = activity.any(axis=0)
    masked_power = np.where(activity[:, :, None], power, -1.0)
    dominant_bins = np.argmax(masked_power, axis=0)  # (T, F)
    dominant_bins[~voiced] = -1
    frame_power = np.where(activity, power.sum(axis=2), -1.0)
    frame_dominant = np.argmax(frame_power, axis=0)
    frame_dominant[~voiced] = -1

    masks = np.zeros((k_true, total_frames, n_bins), dtype=bool)
    for k in range(k_true):
        masks[k] = (dominant_bins == k) & voiced[:, None]

    # true spatial covariances, drawn for each group's first speaker
    cov_true = np.empty((k_true, n_bins, n_chan, n_chan), dtype=complex)
    for k in sorted(set(group_of)):
        a = rng.standard_normal((n_bins, n_chan, n_chan)) + 1j * rng.standard_normal(
            (n_bins, n_chan, n_chan)
        )
        raw = cfg.anisotropy * np.einsum("fij,fkj->fik", a, a.conj()) / n_chan
        cov_true[k] = raw + 0.1 * np.eye(n_chan)
    cov_true = cov_true[group_of]

    # model-space STFT draws: per-bin cACG of the dominant speaker
    chol = np.empty((k_true + 1, n_bins, n_chan, n_chan), dtype=complex)
    for k in range(k_true):
        chol[k] = chol_with_loading(cov_true[k])
    chol[k_true] = np.eye(n_chan)  # silence bins draw from an isotropic cACG
    dom = np.where(dominant_bins < 0, k_true, dominant_bins)  # (T, F)
    z = (
        rng.standard_normal((n_chan, total_frames, n_bins))
        + 1j * rng.standard_normal((n_chan, total_frames, n_bins))
    ) / math.sqrt(2.0)
    chol_per_bin = chol[dom, np.arange(n_bins)[None, :]]  # (T, F, C, C)
    y = np.einsum("tfci,itf->ctf", chol_per_bin, z)
    y /= np.linalg.norm(y, axis=0)
    x_model = StftTensor(y, sr, nfft, win, hop)

    # embeddings: vMF draw of the frame-dominant speaker, uniform at silence
    mu_true = np.linalg.qr(rng.standard_normal((cfg.embed_dim, k_true)))[0].T
    frames = np.empty((total_frames, cfg.embed_dim))
    silence_idx = np.flatnonzero(frame_dominant < 0)
    if silence_idx.size:
        frames[silence_idx] = sample_vmf(_unit(cfg.embed_dim), 0.0, silence_idx.size, cfg.seed + 101)
    for k in range(k_true):
        idx = np.flatnonzero(frame_dominant == k)
        if idx.size:
            frames[idx] = sample_vmf(mu_true[k], cfg.kappa_true, idx.size, cfg.seed + 211 + k)
    embeddings = EmbeddingSequence(frames, frame_rate)

    intervals = {}
    for speaker in range(k_true):
        spans = [(s / frame_rate, e / frame_rate) for spk, s, e in utterances if spk == speaker]
        if spans:
            intervals[speaker] = merge_intervals(spans, gap=1.5 / frame_rate)
    truth = GroundTruth(
        masks=masks,
        activity=intervals,
        segments=segments,
        segment_counts=[len(p.active) for p in cfg.segments],
        segment_active=[sorted(p.active) for p in cfg.segments],
        voiced=voiced,
        mu_true=mu_true,
        cov_true=cov_true,
        source_images=images[:, 0, :],
        frame_rate=frame_rate,
    )
    return x_model, embeddings, truth, audio


def _unit(dim: int) -> np.ndarray:
    e = np.zeros(dim)
    e[0] = 1.0
    return e
