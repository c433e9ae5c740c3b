"""Meeting pipeline: initialization, per-segment joint EM, smoothing,
beamforming, cross-segment speaker alignment and result serialization.

Segments are independent work units; with ``jobs > 1`` they run in a process
pool and the collected results are reduced serially (alignment, report).
"""

from __future__ import annotations

import logging
import struct
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from . import frontend
from .cacg import PosteriorTensor, StftTensor
from .errors import ConfigurationError, InvalidInputError, NumericalError
from .integrated import JointEmConfig, JointModel, count_speakers, joint_em
from .numerics import _load_stack, psd_solve
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
    """Everything one segment contributes to the meeting-level reduction."""

    model: JointModel
    posteriors: PosteriorTensor
    prototypes: np.ndarray  # (K_speakers, E), noise excluded
    local_activity: np.ndarray  # (K_speakers, T) smoothed priors
    segment: frontend.SegmentSpec
    utterances: list  # per speaker component: list of (start_s, end_s), absolute


# ---------------------------------------------------------------------------
# Initialization


def initialize_segment(
    x: StftTensor,
    embeddings: EmbeddingSequence,
    vad: frontend.VadMask,
    k_init: int,
    mode: str = "per_segment",
    seed: int = 0,
    iterations: int = 30,
    kappa_max: float = 35.0,
    global_model: VmfMixture | None = None,
    notes: list | None = None,
) -> PosteriorTensor:
    """Build the initial posterior for the joint EM of one segment.

    Spherical k-means++ on the voiced embeddings seeds a VMFMM which is
    fitted on the voiced frames only; silence frames are assigned to an
    additional noise component (the last one). The per-frame posterior is
    replicated across the frequency axis as a read-only broadcast view. In
    mode "global" a whole-meeting mixture is evaluated instead of fitting
    fresh components.

    Returns:
        PosteriorTensor with ``k_init + 1`` components (noise last).
    """
    if k_init < 1:
        raise ConfigurationError("k_init must be >= 1")
    if mode not in ("per_segment", "global"):
        raise ConfigurationError(f"unknown initialization mode {mode!r}")
    if vad.num_frames != x.num_frames or embeddings.num_frames != x.num_frames:
        raise InvalidInputError("frame counts of STFT, VAD and embeddings disagree")
    n_frames, n_bins = x.num_frames, x.num_bins
    voiced = np.flatnonzero(vad.frames)
    k_used = min(k_init, voiced.size) if voiced.size else 0
    if 0 < k_used < k_init:
        message = f"k_init lowered from {k_init} to {k_used} (only {voiced.size} voiced frames)"
        logger.warning(message)
        if notes is not None:
            notes.append(message)

    gamma_t = np.zeros((k_used + 1, n_frames))
    gamma_t[k_used, ~vad.frames] = 1.0
    if k_used > 0:
        sub = EmbeddingSequence(embeddings.frames[voiced], embeddings.frame_rate)
        if mode == "global":
            if global_model is None:
                raise ConfigurationError("global mode needs a fitted meeting-level mixture")
            resp = vmf_posterior(global_model, sub)[:k_used]
            resp = resp / np.maximum(resp.sum(axis=0, keepdims=True), 1e-30)
        else:
            assign = spherical_kmeans_pp(sub, k_used, seed)
            resp, _, _ = _fit_init_vmfmm(sub, assign, iterations, kappa_max, seed)
        gamma_t[:k_used, voiced] = resp
    gamma = np.broadcast_to(gamma_t[:, :, None], gamma_t.shape + (n_bins,))
    return PosteriorTensor(gamma, gamma_t.copy())


def _fit_init_vmfmm(sub, assign, iterations, kappa_max, seed):
    resp = smooth_one_hot(assign)
    mixture, resp, trace = vmfmm_em(
        sub, resp, iterations, kappa_max, rng=np.random.default_rng(seed)
    )
    return resp, mixture, trace


def fit_global_mixture(
    embeddings: EmbeddingSequence,
    vad: frontend.VadMask,
    k_init: int,
    seed: int = 0,
    iterations: int = 30,
    kappa_max: float = 35.0,
) -> VmfMixture:
    """Whole-meeting VMFMM on the voiced frames, used by mode "global"."""
    voiced = np.flatnonzero(vad.frames)
    if voiced.size < k_init:
        raise ConfigurationError("not enough voiced frames for a global fit")
    sub = EmbeddingSequence(embeddings.frames[voiced], embeddings.frame_rate)
    assign = spherical_kmeans_pp(sub, k_init, seed)
    _, mixture, _ = _fit_init_vmfmm(sub, assign, iterations, kappa_max, seed)
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

    Per speaker: median-filter over time, threshold, drop intervals shorter
    than ``min_dur_s``, then merge gaps below 0.2 s.

    Returns:
        List (one entry per speaker row) of lists of (start_s, end_s).
    """
    pi = np.asarray(pi, dtype=float)
    if median_frames % 2 != 1:
        raise InvalidInputError("median_frames must be odd")
    min_frames = int(round(min_dur_s * frame_rate))
    gap_frames = int(round(0.2 * frame_rate))
    out = []
    for row in pi:
        smoothed = ndimage.median_filter(row, size=median_frames, mode="nearest")
        active = smoothed > on_thresh
        runs = _runs(active)
        runs = [(s, e) for s, e in runs if e - s >= min_frames]
        merged = []
        for start, end in runs:
            if merged and start - merged[-1][1] < gap_frames:
                merged[-1][1] = end
            else:
                merged.append([start, end])
        out.append([(s / frame_rate, e / frame_rate) for s, e in merged])
    return out


def _runs(mask: np.ndarray):
    padded = np.concatenate([[False], mask, [False]]).astype(int)
    edges = np.flatnonzero(np.diff(padded))
    return list(zip(edges[0::2], edges[1::2]))


# ---------------------------------------------------------------------------
# Beamforming


def beamform(
    x: StftTensor,
    posterior: PosteriorTensor,
    target_k: int,
    reference_channel: int = 0,
) -> np.ndarray:
    """Mask-based MVDR toward the target component.

    Per frequency the target covariance is the posterior-weighted outer
    product of the observations, the distortion covariance pools all other
    components; the steering vector is the principal eigenvector of the
    loaded target covariance and ``w = Phi_d^{-1} v / (v^H Phi_d^{-1} v)``.

    Returns:
        Beamformed single-channel STFT of shape (T, F).
    """
    gamma = posterior.gamma
    if not 0 <= target_k < gamma.shape[0]:
        raise InvalidInputError("target component out of range")
    y = np.transpose(x.data, (2, 0, 1))  # (F, C, T)
    w_t = np.transpose(gamma[target_k], (1, 0))  # (F, T)
    others = [k for k in range(gamma.shape[0]) if k != target_k]
    w_d = np.transpose(gamma[others].sum(axis=0), (1, 0))
    phi_t = _weighted_scm(y, w_t)
    phi_d = _weighted_scm(y, w_d)
    phi_t = _load_stack(phi_t, 1e-10)
    phi_d = _load_stack(phi_d, 1e-10)
    _, vecs = np.linalg.eigh(phi_t)
    steer = vecs[:, :, -1]  # (F, C)
    # normalize to the reference channel so the distortionless output tracks
    # the target image there (also pins the arbitrary eigenvector phase)
    ref = steer[:, reference_channel]
    ok = np.abs(ref) > 1e-6
    scale = np.where(ok, ref, np.where(np.abs(ref) > 1e-12, ref / np.abs(ref), 1.0))
    steer = steer / scale[:, None]
    num = psd_solve(phi_d, steer)  # (F, C)
    denom = np.einsum("fc,fc->f", steer.conj(), num).real
    if np.any(~np.isfinite(denom)) or np.any(denom <= 0.0):
        raise NumericalError("distortion covariance remained singular after loading")
    weights = num / denom[:, None]
    out = np.einsum("fc,fct->ft", weights.conj(), y)
    return out.T  # (T, F)


def _weighted_scm(y: np.ndarray, weights: np.ndarray) -> np.ndarray:
    mass = np.maximum(weights.sum(axis=1), 1e-30)
    scm = np.einsum("ft,fit,fjt->fij", weights, y, y.conj()) / mass[:, None, None]
    return (scm + np.conj(np.swapaxes(scm, -1, -2))) / 2.0


# ---------------------------------------------------------------------------
# Cross-segment alignment


def _align_with_mapping(results: list, k_total: int, seed: int = 0):
    from scipy.optimize import linear_sum_assignment

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
        rows, cols = linear_sum_assignment(-sims)
        local_map = {}
        for local, cluster in zip(rows, cols):
            label = f"spk{cluster:02d}"
            local_map[int(local)] = label
            for start, end in r.utterances[local]:
                entries.append((label, start, end, r.segment.id))
        mapping[r.segment.id] = local_map
    return Diarization(entries), mapping


def align_segments(results: list, k_total: int, seed: int = 0) -> Diarization:
    """Assign global speaker identities across segments.

    All prototypes are pooled and clustered with spherical k-means; within
    each segment the local components are matched to cluster centroids by
    Hungarian assignment on cosine similarity, so two local components never
    share a global id.
    """
    diarization, _ = _align_with_mapping(results, k_total, seed)
    return diarization


# ---------------------------------------------------------------------------
# Mask tensor files


def write_mask_tensor(path, tensor: np.ndarray):
    tensor = np.asarray(tensor, dtype=np.float32)
    if tensor.ndim != 3:
        raise InvalidInputError("mask tensor must have shape (K, T, F)")
    with open(path, "wb") as fh:
        fh.write(MASK_MAGIC)
        fh.write(struct.pack("<III", *tensor.shape))
        fh.write(tensor.astype("<f4").tobytes())


def read_mask_tensor(path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MASK_MAGIC:
            raise InvalidInputError(f"{path}: bad magic {magic!r}, expected MSK1")
        k, t, f = struct.unpack("<III", fh.read(12))
        payload = fh.read(k * t * f * 4)
    if len(payload) != k * t * f * 4:
        raise InvalidInputError(f"{path}: truncated payload")
    return np.frombuffer(payload, dtype="<f4").reshape(k, t, f).astype(float)


# ---------------------------------------------------------------------------
# Whole-meeting orchestration


def _segment_task(args):
    (index, segment, x_seg, emb_seg, vad_seg, config, global_model, mask_dir) = args
    notes: list = []
    try:
        seed = int(config.seed) + 7919 * index
        init = initialize_segment(
            x_seg,
            emb_seg,
            vad_seg,
            config.k_init,
            mode=config.init_mode,
            seed=seed,
            iterations=config.init_iterations,
            kappa_max=config.kappa_max,
            global_model=global_model,
            notes=notes,
        )
        noise_index = init.num_components - 1
        jcfg = JointEmConfig(
            iterations=config.em_iterations,
            kappa_max=config.kappa_max,
            fusion=config.fusion,
            tau_spectral=config.tau_spectral,
            tau_iou=config.tau_iou,
            activity_threshold=config.activity_threshold,
            fusion_start=config.fusion_start,
            k_min=config.k_target or 1,
            noise_index=noise_index,
            seed=seed,
        )
        model, posterior, events, trace = joint_em(x_seg, emb_seg, init, jcfg)
        if mask_dir is not None:
            write_mask_tensor(f"{mask_dir}/masks_{segment.id}.msk", posterior.gamma)
        speaker_rows = model.speaker_indices()
        frame_rate = x_seg.frame_rate
        offset_s = segment.start_frame / frame_rate
        intervals = smooth_and_segment(
            model.pi[speaker_rows],
            frame_rate,
            config.median_frames,
            config.on_thresh,
            config.min_dur_s,
        )
        utterances = [[(offset_s + s, offset_s + e) for s, e in iv] for iv in intervals]
        smoothed = np.stack(
            [
                ndimage.median_filter(model.pi[k], size=config.median_frames, mode="nearest")
                for k in speaker_rows
            ]
        ) if speaker_rows else np.zeros((0, x_seg.num_frames))
        prototypes = (
            np.stack([model.spectral[k].mu for k in speaker_rows])
            if speaker_rows
            else np.zeros((0, emb_seg.dim))
        )
        result = SegmentResult(
            model=model,
            posteriors=posterior,
            prototypes=prototypes,
            local_activity=smoothed,
            segment=segment,
            utterances=utterances,
        )
        beamformed = {}
        hop, win = x_seg.shift, x_seg.window_size
        n_samples = win + (x_seg.num_frames - 1) * hop
        pad = 0.3  # seconds around detected utterances, keeps overlapped onsets
        for row, local in enumerate(speaker_rows):
            if not intervals[row]:
                continue
            spec = beamform(x_seg, posterior, local)
            wave = frontend.istft(spec, x_seg.stft_size, win, hop)
            gate = np.zeros(n_samples)
            for start_s, end_s in intervals[row]:
                a = max(0, int(round((start_s - pad) * frame_rate))) * hop
                b = min(n_samples, (int(round((end_s + pad) * frame_rate)) - 1) * hop + win)
                gate[a:b] = 1.0
            beamformed[row] = wave * gate
        report = {
            "id": segment.id,
            "start_s": segment.start_frame / frame_rate,
            "end_s": segment.end_frame / frame_rate,
            "frames": int(x_seg.num_frames),
            "initial_components": int(init.num_components),
            "final_components": int(model.num_components),
            "speaker_count": int(count_speakers(model)),
            "fusion_events": [
                {
                    "kept": ev.kept,
                    "removed": ev.removed,
                    "similarity": round(ev.similarity, 6),
                    "iteration": ev.iteration,
                }
                for ev in events
            ],
            "loglik": [float(v) for v in trace],
            "notes": notes,
            "error": None,
        }
        return {"index": index, "result": result, "beamformed": beamformed, "report": report}
    except Exception as exc:  # segment failures must not kill the meeting
        logger.exception("segment %s failed", segment.id)
        return {
            "index": index,
            "result": None,
            "beamformed": {},
            "report": {"id": segment.id, "error": f"{type(exc).__name__}: {exc}", "notes": notes},
        }


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
    x = frontend.stft(audio, config.stft_size_ms, config.window_ms, config.shift_ms)
    vad = frontend.energy_vad(
        audio, config.vad_window_s, config.vad_threshold_db, config.window_ms, config.shift_ms
    )
    if isinstance(embeddings, EmbeddingSequence):
        emb = embeddings
        if emb.num_frames != x.num_frames:
            raise InvalidInputError("embedding frames do not match the recording's STFT")
    else:
        emb = frontend.ingest_embeddings(
            embeddings, x.num_frames, expected_dim=config.embed_dim, frame_rate=x.frame_rate
        )
    segments = frontend.split_segments(
        vad, config.max_pause_s, config.min_segment_s, config.max_segment_s, x.frame_rate
    )
    report = {
        "config": _config_dict(config),
        "num_frames": int(x.num_frames),
        "frame_rate": x.frame_rate,
        "sample_rate": int(audio.sample_rate),
        "num_segments": len(segments),
        "segments": [],
    }
    if not segments:
        report["segments"] = []
        return Diarization([]), {}, report

    global_model = None
    if config.init_mode == "global":
        global_model = fit_global_mixture(
            emb, vad, config.k_init, seed=config.seed, iterations=config.init_iterations,
            kappa_max=config.kappa_max,
        )

    tasks = []
    for si, seg in enumerate(segments):
        x_seg = StftTensor(
            x.data[:, seg.start_frame : seg.end_frame, :],
            x.sample_rate,
            x.stft_size,
            x.window_size,
            x.shift,
        )
        emb_seg = EmbeddingSequence(
            emb.frames[seg.start_frame : seg.end_frame], emb.frame_rate
        )
        vad_seg = frontend.VadMask(vad.frames[seg.start_frame : seg.end_frame])
        tasks.append((si, seg, x_seg, emb_seg, vad_seg, config, global_model, mask_dir))

    jobs = max(1, int(getattr(config, "jobs", 1)))
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_segment_task, tasks))
    else:
        outcomes = [_segment_task(t) for t in tasks]
    outcomes.sort(key=lambda o: o["index"])
    report["segments"] = [o["report"] for o in outcomes]

    for outcome in outcomes:
        result = outcome["result"]
        n_speakers = 0 if result is None else result.prototypes.shape[0]
        if config.k_total and n_speakers > config.k_total:
            # a segment with more speakers than the meeting cannot be aligned:
            # it fails alone and the meeting goes on
            message = f"has {n_speakers} components, more than k_total={config.k_total}"
            logger.warning("segment %s %s", result.segment.id, message)
            outcome["report"]["error"] = message
            outcome["result"] = None
    results = [o["result"] for o in outcomes if o["result"] is not None]
    k_total = config.k_total or max(
        (r.prototypes.shape[0] for r in results), default=1
    )
    diarization, assignments = _align_with_mapping(results, k_total, seed=config.seed)

    # reassemble per-speaker audio with global identities
    speaker_audio = {}
    for outcome in outcomes:
        result = outcome["result"]
        if result is None:
            continue
        mapping = assignments.get(result.segment.id, {})
        offset = result.segment.start_frame * x.shift
        for row, wave in outcome["beamformed"].items():
            label = mapping.get(row)
            if label is None:
                continue
            track = speaker_audio.setdefault(label, np.zeros(audio.num_samples))
            end = min(audio.num_samples, offset + wave.shape[0])
            track[offset:end] += wave[: end - offset]
    report["speakers"] = diarization.speakers
    return diarization, speaker_audio, report


def _config_dict(config):
    from dataclasses import asdict, is_dataclass

    if is_dataclass(config):
        return asdict(config)
    return {k: v for k, v in vars(config).items() if not k.startswith("_")}
