"""Meeting pipeline: initialization, per-segment joint EM, smoothing,
beamforming, cross-segment speaker alignment and result serialization.

Segments are independent work units that carry their own samples, or the
sample range of the meeting's WAV file that they read themselves (the
meeting's STFT is never built whole); with ``jobs > 1`` they run in a process
pool and the collected results are reduced serially (alignment, report).
"""

from __future__ import annotations

import logging
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from . import frontend
from .cacg import StftTensor, loaded_covariances, observation_sums
from .errors import ConfigurationError, InvalidInputError, NumericalError
from .integrated import JointEmConfig, joint_em
from .numerics import psd_solve
from .vmf import (
    KAPPA_MAX,
    EmbeddingSequence,
    smooth_one_hot,
    spherical_kmeans_pp,
    vmfmm_em,
)

logger = logging.getLogger(__name__)

MASK_MAGIC = b"MSK1"


@dataclass
class Diarization:
    """Globally labeled speaker turns: (speaker_id, start_s, end_s, segment_id)."""

    entries: list

    def __post_init__(self):
        entries = [(str(spk), float(s), float(e), str(seg)) for spk, s, e, seg in self.entries]
        for _, start, end, _ in entries:
            if not start < end:
                raise InvalidInputError("diarization entries need start < end")
        self.entries = sorted(entries, key=lambda row: (row[1], row[0], row[2]))

    def turns(self):
        return [(spk, s, e) for spk, s, e, _ in self.entries]

    @property
    def speakers(self):
        return sorted({spk for spk, _, _, _ in self.entries})


@dataclass
class SegmentResult:
    """What one segment sends back for alignment and audio reassembly: one
    row per speaker, a speaker component with at least one utterance after
    :func:`smooth_and_segment`. Only what the meeting-level reduction reads
    travels back from a pool worker; the posterior masks go to MSK1 files
    (``masks_<segment>.msk``) instead.
    """

    prototypes: np.ndarray  # (S, E), one per speaker
    segment: frontend.SegmentSpec
    utterances: list  # per speaker: non-empty list of (start_s, end_s), absolute


# ---------------------------------------------------------------------------
# Initialization


def initialize_segment(
    x: StftTensor,
    embeddings: EmbeddingSequence,
    vad: np.ndarray,
    k_init: int,
    seed: int = 0,
    iterations: int = 30,
    notes: list | None = None,
) -> np.ndarray:
    """Build the initial posterior for the joint EM of one segment.

    Spherical k-means++ on the voiced embeddings (``vad`` holds one bool
    per frame), smoothed by :func:`vmf.smooth_one_hot`, starts an
    ``iterations``-step VMFMM fitted on the voiced frames only, with its
    re-draws seeded by ``seed``; silence frames are assigned to an
    additional noise component (the last one). The per-frame posterior is
    replicated across the frequency axis as a read-only broadcast view.

    Returns:
        The (K, T, F) posterior, ``K = k_init + 1`` components (noise last).
    """
    if k_init < 1:
        raise ConfigurationError("k_init must be >= 1")
    vad = np.asarray(vad, dtype=bool)
    if vad.shape != (x.num_frames,) or embeddings.num_frames != x.num_frames:
        raise InvalidInputError("frame counts of STFT, VAD and embeddings disagree")
    n_frames, n_bins = x.num_frames, x.num_bins
    voiced = np.flatnonzero(vad)
    k_used = min(k_init, voiced.size) if voiced.size else 0
    if 0 < k_used < k_init:
        message = f"k_init lowered from {k_init} to {k_used} (only {voiced.size} voiced frames)"
        logger.warning(message)
        if notes is not None:
            notes.append(message)

    gamma_t = np.zeros((k_used + 1, n_frames))
    gamma_t[k_used, ~vad] = 1.0
    if k_used > 0:
        sub = EmbeddingSequence(embeddings.frames[voiced], embeddings.frame_rate)
        start = smooth_one_hot(spherical_kmeans_pp(sub, k_used, seed))
        _, resp, _ = vmfmm_em(sub, start, iterations, KAPPA_MAX, rng=np.random.default_rng(seed))
        gamma_t[:k_used, voiced] = resp
    return np.broadcast_to(gamma_t[:, :, None], gamma_t.shape + (n_bins,))


# ---------------------------------------------------------------------------
# Posterior smoothing into utterances


def smooth_and_segment(
    pi: np.ndarray,
    frame_rate: float,
    median_frames: int = 21,
    on_thresh: float = 0.5,
    min_dur_s: float = 0.5,
):
    """Turn per-speaker priors into utterance intervals.

    Per speaker: median over ``median_frames`` edge-padded frames, threshold,
    drop intervals shorter than ``min_dur_s``, then fill gaps below 0.2 s.

    Returns:
        List (one entry per speaker row) of lists of (start_s, end_s).
    """
    pi = np.asarray(pi, dtype=float)
    if median_frames < 1 or median_frames % 2 != 1:
        raise InvalidInputError(f"median_frames must be odd and >= 1, got {median_frames!r}")
    min_frames = int(round(min_dur_s * frame_rate))
    gap_frames = int(round(0.2 * frame_rate))
    half = median_frames // 2
    windows = frontend.edge_windows(pi, median_frames, half)
    # the median of an odd window of finite values is its middle order
    # statistic, equal to np.median's to the bit without its NaN handling
    medians = np.partition(windows, half, axis=-1)[..., half]
    out = []
    for active in medians > on_thresh:
        for start, end in frontend.true_runs(active):
            if end - start < min_frames:
                active[start:end] = False
        runs = frontend.true_runs(frontend.fill_gaps(active, gap_frames))
        out.append([(s / frame_rate, e / frame_rate) for s, e in runs])
    return out


# ---------------------------------------------------------------------------
# Beamforming


def beamform(x: StftTensor, gamma: np.ndarray, targets) -> np.ndarray:
    """Mask-based MVDR toward each target component (Souden, Benesty & Affes 2010).

    Per frequency a component's covariance is its scatter weighted by the
    (K, T, F) posterior ``gamma`` over its mass (:mod:`cacg`'s statistics);
    a target's distortion covariance pools all other components. The
    steering vector is the principal eigenvector of the target covariance and
    ``w = Phi_d^{-1} v / (v^H Phi_d^{-1} v)``.

    Returns:
        Beamformed single-channel STFTs of shape (S, T, F), one per target.
    """
    targets = np.asarray(targets, dtype=int)
    if targets.ndim != 1 or np.any((targets < 0) | (targets >= gamma.shape[0])):
        raise InvalidInputError("target component out of range")
    sums = observation_sums(x, np.transpose(gamma, (0, 2, 1)))  # (K, F, C^2)
    mass = gamma.sum(axis=1)  # (K, F)
    # summing the other components' scatter, rather than subtracting the
    # target's from the total, cannot cancel where the target dominates a bin
    others = 1.0 - np.eye(gamma.shape[0])[targets]  # (S, K)
    phi_t = loaded_covariances(sums[targets], mass[targets])
    phi_d = loaded_covariances(np.tensordot(others, sums, 1), others @ mass)
    _, vecs = np.linalg.eigh(phi_t)
    steer = vecs[..., -1]  # (S, F, C)
    # normalize to channel 0, the reference, so the distortionless output
    # tracks the target image there (also pins the arbitrary eigenvector phase)
    ref = steer[..., 0]
    ok = np.abs(ref) > 1e-6
    scale = np.where(ok, ref, np.where(np.abs(ref) > 1e-12, ref / np.abs(ref), 1.0))
    steer = steer / scale[..., None]
    num = psd_solve(phi_d, steer)  # (S, F, C)
    denom = np.einsum("sfc,sfc->sf", steer.conj(), num).real
    if np.any(~np.isfinite(denom)) or np.any(denom <= 0.0):
        raise NumericalError("distortion covariance remained singular after loading")
    weights = num / denom[..., None]
    # one batched (S, C) @ (C, T) product per frequency, viewed as (S, T, F)
    out = np.matmul(weights.conj().transpose(1, 0, 2), np.transpose(x.data, (2, 0, 1)))
    return out.transpose(1, 2, 0)


# ---------------------------------------------------------------------------
# Cross-segment alignment


def _align_with_mapping(results: list, tau: float, k_max: int | None = None):
    """Assign global speaker identities across segments.

    Every speaker starts as a cluster of its own. The pair of clusters whose
    normalized prototype sums have the highest cosine merges, if the two
    share no segment (a segment's speakers are different people: the
    cannot-link rule of COP-k-means, Wagstaff et al. 2001), while that
    cosine exceeds ``tau`` or more than ``k_max`` clusters remain; ties go
    to the first pair in row-major order. Where more than ``k_max`` remain
    and every pair shares a segment, one WARNING, and the clusters stay.
    Labels are numbered in the order of each cluster's first turn.

    Returns:
        ``(diarization, mapping)``: the global turns, and per segment id the
        map from local speaker row to global label.
    """
    clusters = [[(si, row)] for si, r in enumerate(results) for row in range(len(r.prototypes))]
    sums = np.array([proto for r in results for proto in r.prototypes])  # (n, E)
    segments = np.eye(len(results), dtype=bool)[[c[0][0] for c in clusters]]  # (n, S)
    while len(clusters) > 1:
        unit = sums / np.maximum(np.linalg.norm(sums, axis=1, keepdims=True), 1e-30)
        cos = unit @ unit.T
        cos[(segments @ segments.T) | np.tri(len(clusters), dtype=bool)] = -np.inf
        a, b = divmod(int(cos.argmax()), len(clusters))
        if cos[a, b] <= tau and (k_max is None or len(clusters) <= k_max):
            break
        if cos[a, b] == -np.inf:
            logger.warning("alignment keeps %d speakers, more than %d: every pair shares a "
                           "segment", len(clusters), k_max)
            break
        sums[a] += sums[b]
        segments[a] |= segments[b]
        clusters[a] += clusters.pop(b)
        sums, segments = np.delete(sums, b, axis=0), np.delete(segments, b, axis=0)

    def first_turn(members):
        return min(turn for si, row in members for turn in results[si].utterances[row])

    entries, mapping = [], {r.segment.id: {} for r in results}
    for number, members in enumerate(sorted(clusters, key=first_turn)):
        label = f"spk{number:02d}"
        for si, row in members:
            r = results[si]
            mapping[r.segment.id][row] = label
            entries.extend((label, start, end, r.segment.id) for start, end in r.utterances[row])
    return Diarization(entries), mapping


# ---------------------------------------------------------------------------
# Mask tensor files


def write_mask_tensor(path, tensor: np.ndarray):
    if np.ndim(tensor) != 3:
        raise InvalidInputError("mask tensor must have shape (K, T, F)")
    frontend.write_f32_tensor(path, MASK_MAGIC, tensor)


def read_mask_tensor(path) -> np.ndarray:
    return frontend.read_f32_tensor(path, MASK_MAGIC, 3)


# ---------------------------------------------------------------------------
# Whole-meeting orchestration


def _segment_task(args):
    """One segment from its samples to ``(report, result or None, tracks)``.

    The samples come as an :class:`frontend.AudioBuffer`, or as a WAV
    file's ``(path, start, stop)`` sample range, which the task reads. A
    failure fails this segment alone; see :func:`_gated_tracks` for
    ``tracks``.
    """
    segment, audio, emb, vad, seed, config, mask_dir = args
    notes: list = []
    try:
        if not isinstance(audio, frontend.AudioBuffer):
            audio = frontend.read_wav(*audio)
        x = frontend.stft(audio, config.stft_size_ms, config.window_ms, config.shift_ms)
        del audio  # a range read here is freed before the EM
        init, model, gamma, events, trace = _fit_segment(x, emb, vad, seed, config, notes)
        if mask_dir is not None:
            write_mask_tensor(f"{mask_dir}/masks_{segment.id}.msk", gamma)
        speaker_rows = model.speaker_indices()
        frame_rate = x.frame_rate
        intervals = smooth_and_segment(model.pi[speaker_rows], frame_rate)
        # a speaker is a speaker component with at least one utterance
        rows = [row for row, iv in zip(speaker_rows, intervals) if iv]
        intervals = [iv for iv in intervals if iv]
        offset_s = segment.start_frame / frame_rate
        utterances = [[(offset_s + s, offset_s + e) for s, e in iv] for iv in intervals]
        result = SegmentResult(model.mu[rows], segment, utterances)
        report = {
            "id": segment.id,
            "start_s": offset_s,
            "end_s": segment.end_frame / frame_rate,
            "frames": int(x.num_frames),
            "initial_components": len(init),
            "final_components": int(model.num_components),
            "speaker_count": len(rows),
            "fusion_events": [
                {**asdict(ev), "similarity": round(ev.similarity, 6)} for ev in events
            ],
            "loglik": [float(v) for v in trace],
            "notes": notes,
            "error": None,
        }
        spec = beamform(x, gamma, rows) if rows else None
        sizes = (x.stft_size, x.window_size, x.shift)
        # the STFT and the posterior, the segment's largest arrays after Φ,
        # are freed before the iSTFT: beamforming was their last reader
        del x, gamma
        return report, result, _gated_tracks(spec, sizes, frame_rate, intervals)
    except Exception as exc:  # segment failures must not kill the meeting
        logger.exception("segment %s failed", segment.id)
        return {"id": segment.id, "error": f"{type(exc).__name__}: {exc}", "notes": notes}, None, []


def _fit_segment(x, emb, vad, seed, config, notes):
    """Initialize one segment and run its joint EM.

    Returns:
        ``(init, model, gamma, events, trace)``.
    """
    init = initialize_segment(
        x, emb, vad, config.k_init, seed=seed, iterations=config.init_iterations, notes=notes
    )
    jcfg = JointEmConfig(
        iterations=config.em_iterations, fusion=config.fusion,
        tau_spectral=config.tau_spectral, fusion_start=config.fusion_start,
        noise_index=len(init) - 1, seed=seed,
    )
    return (init, *joint_em(x, emb, init, jcfg))


def _gated_tracks(spec, sizes, frame_rate, intervals):
    """Invert the beamformed (S, T, F) ``spec`` (None for no speaker) with
    the STFT's ``(stft_size, window_size, shift)`` and gate each row to its
    ``intervals``: one waveform per row, over the segment's samples."""
    if spec is None:
        return []
    nfft, win, hop = sizes
    waves = frontend.istft(spec, nfft, win, hop)
    pad_s = 0.3  # seconds around detected utterances, keeps overlapped onsets
    n_samples = waves.shape[-1]
    tracks = []
    for wave, spans in zip(waves, intervals):
        gate = np.zeros(n_samples)
        for start_s, end_s in spans:
            a = max(0, int(round((start_s - pad_s) * frame_rate))) * hop
            b = min(n_samples, (int(round((end_s + pad_s) * frame_rate)) - 1) * hop + win)
            gate[a:b] = 1.0
        tracks.append(wave * gate)
    return tracks


def usable_cpus() -> int:
    """The number of CPUs this process may run on: its affinity mask where
    the platform has one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_meeting(recording, embeddings, config, mask_dir=None):
    """Process one meeting end to end.

    With ``jobs > 1`` the process pool is started first: its fork-context
    workers all fork at the first submission, so a no-op is submitted
    before the meeting is loaded, and they start without its samples. They
    fork with ``numpy.random`` loaded, which every segment's k-means++
    needs, so no worker imports it on its first segment. The pool has at
    most one worker per CPU this process may run on (:func:`usable_cpus`);
    a larger ``jobs`` is capped, with an INFO log.

    A WAV file is read once for the VAD and the segments, and its samples
    are then dropped: each segment task reads its own sample range. An
    AudioBuffer's segments are sent as slices.

    Args:
        recording: AudioBuffer or path to a WAV file.
        embeddings: EmbeddingSequence or path to an EMB1 file.
        config: resolved run configuration (see ``cli.RunConfig``).
        mask_dir: when given, per-segment posterior dumps (MSK1 files) are
            written there while the segments are processed.

    Returns:
        ``(diarization, speaker_audio, report)`` where ``speaker_audio`` maps
        global speaker ids to meeting-length waveforms.
    """
    jobs = max(1, int(config.jobs))
    cpus = usable_cpus()
    if jobs > cpus:
        logger.info("jobs=%d capped at the %d CPUs this process may use", jobs, cpus)
        jobs = cpus
    if jobs == 1:
        return _run_meeting(recording, embeddings, config, mask_dir, None)
    import numpy.random  # noqa: F401  (loaded once here, not in every worker)

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        pool.submit(int)  # not waited on
        return _run_meeting(recording, embeddings, config, mask_dir, pool)


def _run_meeting(recording, embeddings, config, mask_dir, pool):
    """:func:`run_meeting` with the process pool ``pool``, or None to run
    the segments in this process."""
    from_file = not isinstance(recording, frontend.AudioBuffer)
    audio = frontend.read_wav(recording) if from_file else recording
    if audio.num_channels < 2:
        raise InvalidInputError("multichannel model requires C >= 2")
    num_samples, sample_rate = audio.num_samples, audio.sample_rate
    _, win, hop = frontend.stft_sizes(
        sample_rate, config.stft_size_ms, config.window_ms, config.shift_ms
    )
    num_frames = frontend.num_stft_frames(num_samples, win, hop)
    frame_rate = sample_rate / hop
    vad = frontend.energy_vad(
        audio, config.vad_window_s, config.vad_threshold_db, config.window_ms, config.shift_ms
    )
    if from_file:
        audio = None  # the WAV's samples are dropped: each task reads its own range
    if isinstance(embeddings, EmbeddingSequence):
        emb, alignment = embeddings, None
        if emb.num_frames != num_frames:
            raise InvalidInputError("embedding frames do not match the recording's STFT")
    else:
        emb = frontend.ingest_embeddings(
            embeddings, num_frames, expected_dim=config.embed_dim, frame_rate=frame_rate
        )
        alignment = emb.alignment_action
    segments = frontend.split_segments(
        vad, config.max_pause_s, config.min_segment_s, config.max_segment_s, frame_rate
    )
    voiced = np.count_nonzero(vad)
    report = {
        "config": asdict(config),
        "num_frames": int(num_frames),
        "frame_rate": frame_rate,
        "sample_rate": int(sample_rate),
        "embedding_alignment": alignment,
        "num_segments": len(segments),
        "voiced_fraction": voiced / max(vad.size, 1),
        "segments": [],
        "speakers": [],
    }
    if not segments:
        logger.warning(
            "no segment kept: %d of %d frames voiced (%.1f%%) with vad_window_s=%g and "
            "vad_threshold_db=%g", voiced, vad.size, 100.0 * report["voiced_fraction"],
            config.vad_window_s, config.vad_threshold_db,
        )
        return Diarization([]), {}, report

    tasks = []
    for si, seg in enumerate(segments):
        frames = slice(seg.start_frame, seg.end_frame)
        start, stop = seg.start_frame * hop, (seg.end_frame - 1) * hop + win
        if from_file:
            samples = (recording, start, stop)
        else:
            samples = frontend.AudioBuffer(audio.samples[:, start:stop], sample_rate)
        tasks.append((
            seg, samples,
            EmbeddingSequence(emb.frames[frames], emb.frame_rate),
            vad[frames], int(config.seed) + 7919 * si,
            config, mask_dir,
        ))

    if pool is not None and len(tasks) > 1:
        outcomes = list(pool.map(_segment_task, tasks))
    else:
        outcomes = [_segment_task(t) for t in tasks]
    report["segments"] = [seg_report for seg_report, _, _ in outcomes]

    kept = []
    for seg_report, result, tracks in outcomes:
        if result is None:
            continue
        if config.k_total and len(result.prototypes) > config.k_total:
            # a segment with more speakers than the meeting cannot be aligned:
            # it fails alone and the meeting goes on
            message = f"has {len(result.prototypes)} speakers, more than k_total={config.k_total}"
            logger.warning("segment %s %s", result.segment.id, message)
            seg_report["error"] = message
            continue
        kept.append((result, tracks))
    # one threshold means "same speaker" within a segment (fusion) and
    # across segments; k_total only bounds the meeting's count
    diarization, assignments = _align_with_mapping(
        [result for result, _ in kept], config.tau_spectral, config.k_total
    )

    # reassemble per-speaker audio under the global labels
    speaker_audio = {}
    for result, tracks in kept:
        offset = result.segment.start_frame * hop
        for row, wave in enumerate(tracks):
            label = assignments[result.segment.id][row]
            track = speaker_audio.setdefault(label, np.zeros(num_samples))
            end = min(num_samples, offset + wave.shape[0])
            track[offset:end] += wave[: end - offset]
    report["speakers"] = diarization.speakers
    return diarization, speaker_audio, report
