"""Meeting pipeline: initialization, per-segment joint EM, smoothing,
beamforming, cross-segment speaker alignment and result serialization.

Segments are independent work units that carry their own samples (the
meeting's STFT is never built whole); with ``jobs > 1`` they run in a process
pool and the collected results are reduced serially (alignment, report).
"""

from __future__ import annotations

import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from . import frontend
from .cacg import PosteriorTensor, StftTensor, outer_features, scatter_matrices
from .errors import ConfigurationError, InvalidInputError, NumericalError
from .integrated import JointEmConfig, count_speakers, joint_em
from .numerics import _load_stack, min_cost_assignment, psd_solve
from .vmf import (
    EmbeddingSequence,
    VmfMixture,
    smooth_one_hot,
    spherical_kmeans_pp,
    vmf_posterior,
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
    """What one segment sends back for alignment and audio reassembly.

    Only what the meeting-level reduction reads travels back from a pool
    worker; the posterior masks go to MSK1 files (``masks_<segment>.msk``)
    instead.
    """

    prototypes: np.ndarray  # (K_speakers, E), noise excluded
    segment: frontend.SegmentSpec
    utterances: list  # per speaker component: list of (start_s, end_s), absolute


# ---------------------------------------------------------------------------
# Initialization


def initialize_segment(
    x: StftTensor,
    embeddings: EmbeddingSequence,
    vad: np.ndarray,
    k_init: int,
    mode: str = "per_segment",
    seed: int = 0,
    iterations: int = 30,
    kappa_max: float = 35.0,
    global_model: VmfMixture | None = None,
    notes: list | None = None,
) -> PosteriorTensor:
    """Build the initial posterior for the joint EM of one segment.

    Spherical k-means++ on the voiced embeddings (``vad`` holds one bool
    per frame) seeds a VMFMM which is fitted on the voiced frames only;
    silence frames are assigned to an additional noise component (the last
    one). The per-frame posterior is replicated across the frequency axis as
    a read-only broadcast view. In mode "global" a whole-meeting mixture is
    evaluated instead of fitting fresh components.

    Returns:
        PosteriorTensor with ``k_init + 1`` components (noise last).
    """
    if k_init < 1:
        raise ConfigurationError("k_init must be >= 1")
    if mode not in ("per_segment", "global"):
        raise ConfigurationError(f"unknown initialization mode {mode!r}")
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
        if mode == "global":
            if global_model is None:
                raise ConfigurationError("global mode needs a fitted meeting-level mixture")
            resp = vmf_posterior(global_model, sub)[:k_used]
            resp = resp / np.maximum(resp.sum(axis=0, keepdims=True), 1e-30)
        else:
            assign = spherical_kmeans_pp(sub, k_used, seed)
            resp, _ = _fit_init_vmfmm(sub, assign, iterations, kappa_max, seed)
        gamma_t[:k_used, voiced] = resp
    gamma = np.broadcast_to(gamma_t[:, :, None], gamma_t.shape + (n_bins,))
    return PosteriorTensor(gamma, gamma_t.copy())


def _fit_init_vmfmm(sub, assign, iterations, kappa_max, seed):
    resp = smooth_one_hot(assign)
    mixture, resp, _ = vmfmm_em(
        sub, resp, iterations, kappa_max, rng=np.random.default_rng(seed)
    )
    return resp, mixture


def fit_global_mixture(
    embeddings: EmbeddingSequence,
    vad: np.ndarray,
    k_init: int,
    seed: int = 0,
    iterations: int = 30,
    kappa_max: float = 35.0,
) -> VmfMixture:
    """Whole-meeting VMFMM on the voiced frames, used by mode "global"."""
    voiced = np.flatnonzero(vad)
    if voiced.size < k_init:
        raise ConfigurationError("not enough voiced frames for a global fit")
    sub = EmbeddingSequence(embeddings.frames[voiced], embeddings.frame_rate)
    assign = spherical_kmeans_pp(sub, k_init, seed)
    _, mixture = _fit_init_vmfmm(sub, assign, iterations, kappa_max, seed)
    return mixture


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
    if median_frames % 2 != 1:
        raise InvalidInputError("median_frames must be odd")
    min_frames = int(round(min_dur_s * frame_rate))
    gap_frames = int(round(0.2 * frame_rate))
    windows = frontend.edge_windows(pi, median_frames, median_frames // 2)
    out = []
    for active in np.median(windows, axis=-1) > on_thresh:
        for start, end in frontend.true_runs(active):
            if end - start < min_frames:
                active[start:end] = False
        runs = frontend.true_runs(frontend.fill_gaps(active, gap_frames))
        out.append([(s / frame_rate, e / frame_rate) for s, e in runs])
    return out


# ---------------------------------------------------------------------------
# Beamforming


def beamform(
    x: StftTensor,
    posterior: PosteriorTensor,
    targets,
    reference_channel: int = 0,
) -> np.ndarray:
    """Mask-based MVDR toward each target component (Souden, Benesty & Affes 2010).

    Per frequency a component's covariance is its posterior-weighted scatter
    over its mass; a target's distortion covariance pools all other
    components. The steering vector is the principal eigenvector of the
    loaded target covariance and ``w = Phi_d^{-1} v / (v^H Phi_d^{-1} v)``.

    Returns:
        Beamformed single-channel STFTs of shape (S, T, F), one per target.
    """
    gamma = posterior.gamma
    targets = np.asarray(targets, dtype=int)
    if targets.ndim != 1 or np.any((targets < 0) | (targets >= gamma.shape[0])):
        raise InvalidInputError("target component out of range")
    y = np.ascontiguousarray(np.transpose(x.data, (2, 0, 1)))  # (F, C, T)
    scm = scatter_matrices(outer_features(x), np.transpose(gamma, (0, 2, 1)))  # (K, F, C, C)
    mass = gamma.sum(axis=1)  # (K, F)
    # summing the other components' scatter, rather than subtracting the
    # target's from the total, cannot cancel where the target dominates a bin
    others = 1.0 - np.eye(gamma.shape[0])[targets]  # (S, K)
    phi_t = _covariance(scm[targets], mass[targets])
    phi_d = _covariance(np.tensordot(others, scm, 1), others @ mass)
    _, vecs = np.linalg.eigh(phi_t)
    steer = vecs[..., -1]  # (S, F, C)
    # normalize to the reference channel so the distortionless output tracks
    # the target image there (also pins the arbitrary eigenvector phase)
    ref = steer[..., reference_channel]
    ok = np.abs(ref) > 1e-6
    scale = np.where(ok, ref, np.where(np.abs(ref) > 1e-12, ref / np.abs(ref), 1.0))
    steer = steer / scale[..., None]
    num = psd_solve(phi_d, steer)  # (S, F, C)
    denom = np.einsum("sfc,sfc->sf", steer.conj(), num).real
    if np.any(~np.isfinite(denom)) or np.any(denom <= 0.0):
        raise NumericalError("distortion covariance remained singular after loading")
    weights = num / denom[..., None]
    return np.einsum("sfc,fct->stf", weights.conj(), y)


def _covariance(scm: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """Mass-normalized, Hermitian-symmetrized and loaded (..., F, C, C) scatter."""
    scm = scm / np.maximum(mass, 1e-30)[..., None, None]
    return _load_stack((scm + np.conj(np.swapaxes(scm, -1, -2))) / 2.0, 1e-10)


# ---------------------------------------------------------------------------
# Cross-segment alignment


def _align_with_mapping(results: list, k_total: int, seed: int = 0):
    """Assign global speaker identities across segments.

    All prototypes are pooled and clustered with spherical k-means; within
    each segment the local components are matched to cluster centroids by
    min-cost assignment on negated cosine similarity, so two local
    components never share a global id.

    Returns:
        ``(diarization, mapping)``: the global turns, and per segment id the
        map from local speaker row to global label.
    """
    pools = [r.prototypes for r in results if r.prototypes.shape[0] > 0]
    if not pools:
        return Diarization([]), {}
    for r in results:
        if r.prototypes.shape[0] > k_total:
            raise InvalidInputError(
                f"segment {r.segment.id} has {r.prototypes.shape[0]} components, "
                f"more than k_total={k_total}"
            )
    protos = np.concatenate(pools, axis=0)
    n_clusters = min(k_total, protos.shape[0])
    assign = spherical_kmeans_pp(EmbeddingSequence(protos), n_clusters, seed)
    centroids = assign @ protos
    norms = np.linalg.norm(centroids, axis=1, keepdims=True)
    centroids = np.where(norms > 1e-12, centroids / np.maximum(norms, 1e-30), 0.0)

    entries = []
    mapping = {}
    for r in results:
        if r.prototypes.shape[0] == 0:
            mapping[r.segment.id] = {}
            continue
        sims = r.prototypes @ centroids.T  # (K_local, n_clusters)
        rows, cols = min_cost_assignment(-sims)
        local_map = {}
        for local, cluster in zip(rows, cols):
            label = f"spk{cluster:02d}"
            local_map[int(local)] = label
            for start, end in r.utterances[local]:
                entries.append((label, start, end, r.segment.id))
        mapping[r.segment.id] = local_map
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

    A failure fails this segment alone; see :func:`_separate` for ``tracks``.
    """
    segment, audio, emb, vad, seed, config, global_model, mask_dir = args
    notes: list = []
    try:
        x = frontend.stft(audio, config.stft_size_ms, config.window_ms, config.shift_ms)
        init, model, posterior, events, trace = _fit_segment(
            x, emb, vad, seed, config, global_model, notes
        )
        if mask_dir is not None:
            write_mask_tensor(f"{mask_dir}/masks_{segment.id}.msk", posterior.gamma)
        speaker_rows = model.speaker_indices()
        intervals = smooth_and_segment(
            model.pi[speaker_rows], x.frame_rate, config.median_frames, config.on_thresh,
            config.min_dur_s,
        )
        offset_s = segment.start_frame / x.frame_rate
        utterances = [[(offset_s + s, offset_s + e) for s, e in iv] for iv in intervals]
        result = SegmentResult(model.mu[speaker_rows], segment, utterances)
        tracks = _separate(x, posterior, speaker_rows, intervals)
        report = {
            "id": segment.id,
            "start_s": offset_s,
            "end_s": segment.end_frame / x.frame_rate,
            "frames": int(x.num_frames),
            "initial_components": int(init.num_components),
            "final_components": int(model.num_components),
            "speaker_count": int(count_speakers(model)),
            "fusion_events": [
                {**asdict(ev), "similarity": round(ev.similarity, 6)} for ev in events
            ],
            "loglik": [float(v) for v in trace],
            "notes": notes,
            "error": None,
        }
        return report, result, tracks
    except Exception as exc:  # segment failures must not kill the meeting
        logger.exception("segment %s failed", segment.id)
        return {"id": segment.id, "error": f"{type(exc).__name__}: {exc}", "notes": notes}, None, {}


def _fit_segment(x, emb, vad, seed, config, global_model, notes):
    """Initialize one segment and run its joint EM.

    Returns:
        ``(init, model, posterior, events, trace)``.
    """
    init = initialize_segment(
        x, emb, vad, config.k_init, mode=config.init_mode, seed=seed,
        iterations=config.init_iterations, kappa_max=config.kappa_max,
        global_model=global_model, notes=notes,
    )
    jcfg = JointEmConfig(
        iterations=config.em_iterations, kappa_max=config.kappa_max, fusion=config.fusion,
        tau_spectral=config.tau_spectral, tau_iou=config.tau_iou,
        activity_threshold=config.activity_threshold, fusion_start=config.fusion_start,
        k_min=config.k_target or 1, noise_index=init.num_components - 1, seed=seed,
    )
    return (init, *joint_em(x, emb, init, jcfg))


def _separate(x, posterior, speaker_rows, intervals):
    """Beamform every speaker that has utterances and gate it to them.

    Returns:
        ``{speaker row: waveform}`` over the segment's samples.
    """
    rows = [row for row, iv in enumerate(intervals) if iv]
    if not rows:
        return {}
    spec = beamform(x, posterior, [speaker_rows[row] for row in rows])
    waves = frontend.istft(spec, x.stft_size, x.window_size, x.shift)
    hop, win, frame_rate = x.shift, x.window_size, x.frame_rate
    pad_s = 0.3  # seconds around detected utterances, keeps overlapped onsets
    n_samples = waves.shape[-1]
    tracks = {}
    for row, wave in zip(rows, waves):
        gate = np.zeros(n_samples)
        for start_s, end_s in intervals[row]:
            a = max(0, int(round((start_s - pad_s) * frame_rate))) * hop
            b = min(n_samples, (int(round((end_s + pad_s) * frame_rate)) - 1) * hop + win)
            gate[a:b] = 1.0
        tracks[row] = wave * gate
    return tracks


def run_meeting(recording, embeddings, config, mask_dir=None):
    """Process one meeting end to end.

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
    audio = frontend.read_wav(recording) if not isinstance(recording, frontend.AudioBuffer) else recording
    if audio.num_channels < 2:
        raise InvalidInputError("multichannel model requires C >= 2")
    _, win, hop = frontend.stft_sizes(
        audio.sample_rate, config.stft_size_ms, config.window_ms, config.shift_ms
    )
    num_frames = frontend.num_stft_frames(audio.num_samples, win, hop)
    frame_rate = audio.sample_rate / hop
    vad = frontend.energy_vad(
        audio, config.vad_window_s, config.vad_threshold_db, config.window_ms, config.shift_ms
    )
    if isinstance(embeddings, EmbeddingSequence):
        emb = embeddings
        if emb.num_frames != num_frames:
            raise InvalidInputError("embedding frames do not match the recording's STFT")
    else:
        emb = frontend.ingest_embeddings(
            embeddings, num_frames, expected_dim=config.embed_dim, frame_rate=frame_rate
        )
    segments = frontend.split_segments(
        vad, config.max_pause_s, config.min_segment_s, config.max_segment_s, frame_rate
    )
    report = {
        "config": asdict(config),
        "num_frames": int(num_frames),
        "frame_rate": frame_rate,
        "sample_rate": int(audio.sample_rate),
        "num_segments": len(segments),
        "segments": [],
    }
    if not segments:
        return Diarization([]), {}, report

    global_model = None
    if config.init_mode == "global":
        global_model = fit_global_mixture(
            emb, vad, config.k_init, seed=config.seed, iterations=config.init_iterations,
            kappa_max=config.kappa_max,
        )

    tasks = []
    for si, seg in enumerate(segments):
        frames = slice(seg.start_frame, seg.end_frame)
        samples = audio.samples[:, seg.start_frame * hop : (seg.end_frame - 1) * hop + win]
        tasks.append((
            seg, frontend.AudioBuffer(samples, audio.sample_rate),
            EmbeddingSequence(emb.frames[frames], emb.frame_rate),
            vad[frames], int(config.seed) + 7919 * si,
            config, global_model, mask_dir,
        ))

    jobs = max(1, int(config.jobs))
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_segment_task, tasks))
    else:
        outcomes = [_segment_task(t) for t in tasks]
    report["segments"] = [seg_report for seg_report, _, _ in outcomes]

    kept = []
    for seg_report, result, tracks in outcomes:
        if result is None:
            continue
        n_speakers = result.prototypes.shape[0]
        if config.k_total and n_speakers > config.k_total:
            # a segment with more speakers than the meeting cannot be aligned:
            # it fails alone and the meeting goes on
            message = f"has {n_speakers} components, more than k_total={config.k_total}"
            logger.warning("segment %s %s", result.segment.id, message)
            seg_report["error"] = message
            continue
        kept.append((result, tracks))
    results = [result for result, _ in kept]
    k_total = config.k_total or max(
        (r.prototypes.shape[0] for r in results), default=1
    )
    diarization, assignments = _align_with_mapping(results, k_total, seed=config.seed)

    # reassemble per-speaker audio with global identities
    speaker_audio = {}
    for result, tracks in kept:
        mapping = assignments.get(result.segment.id, {})
        offset = result.segment.start_frame * hop
        for row, wave in tracks.items():
            label = mapping.get(row)
            if label is None:
                continue
            track = speaker_audio.setdefault(label, np.zeros(audio.num_samples))
            end = min(audio.num_samples, offset + wave.shape[0])
            track[offset:end] += wave[: end - offset]
    report["speakers"] = diarization.speakers
    return diarization, speaker_audio, report
