"""The benchmark's own scorer, written apart from ``mixsep.metrics``.

Scores a run's outputs against ``mixsep.synth`` ground truth with NumPy and
SciPy only: best-permutation mask AUC, SI-SDR gain on overlapped speech,
DER with a collar, and per-segment speaker counts. ``check_scorer.py``
shows that it agrees with ``mixsep.metrics`` on the same outputs.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

# Gain of a track that cannot be matched to a speaker.
UNMATCHED = -1e3
# Share of a speaker's overlapped samples on which a track must be nonzero
# to be scored against that speaker, so that a speaker whose segments the
# alignment spread over several tracks is still scored.
MIN_COVERAGE = 0.1


def auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mann-Whitney AUC with average ranks for ties (0.5 for one class)."""
    pos = labels > 0.5
    n_pos = int(pos.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return 0.5
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    first = np.cumsum(counts) - counts  # zero-based rank of each value's first copy
    ranks = (first + (counts + 1) / 2.0)[inverse]
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def mask_auc(gamma: np.ndarray, truth: np.ndarray) -> float:
    """Mean AUC of components matched to true speakers over voiced bins."""
    voiced = truth.any(axis=0)
    scores, labels = gamma[:, voiced], truth[:, voiced]
    table = np.array([[auc(s, lab) for lab in labels] for s in scores])
    rows, cols = linear_sum_assignment(table, maximize=True)
    return float(table[rows, cols].mean())


def si_sdr(reference: np.ndarray, estimate: np.ndarray) -> float:
    """Scale-invariant SDR in dB."""
    target = (estimate @ reference) / (reference @ reference) * reference
    residual = estimate - target
    return float(10.0 * np.log10((target @ target) / (residual @ residual)))


def activity(turns, n_speakers: int, n_samples: int, sample_rate: int) -> np.ndarray:
    """(K, N) sample-level speaker activity from (speaker, start_s, end_s) rows."""
    act = np.zeros((n_speakers, n_samples), dtype=bool)
    for spk, start, end in turns:
        act[int(spk), int(round(start * sample_rate)) : int(round(end * sample_rate))] = True
    return act


def si_sdr_gains(tracks: dict, images: np.ndarray, mix: np.ndarray, act: np.ndarray):
    """SI-SDR gains of meeting-length speaker tracks on overlapped speech.

    Track i is scored against speaker k on the samples of the whole meeting
    where k and at least one other speaker talk and the track is not gated
    to zero; a track nonzero on less than ``MIN_COVERAGE`` of them is not
    matched to k. ``gain[i, k]`` is the track's SI-SDR there minus the
    reference-channel mixture's. Tracks are matched to speakers once, over
    the whole meeting, by Hungarian assignment on the gain, as the
    end-to-end acceptance test matches them: a track that follows different
    speakers in different segments scores low. Returns the matched gains.
    """
    overlap = act & (act.sum(axis=0) >= 2)
    labels = sorted(tracks)
    gains = np.full((len(labels), images.shape[0]), UNMATCHED)
    for k in range(images.shape[0]):
        sel = np.flatnonzero(overlap[k])
        for i, label in enumerate(labels):
            keep = sel[tracks[label][sel] != 0.0]
            if keep.size and keep.size >= MIN_COVERAGE * sel.size:
                ref = images[k, keep]
                gains[i, k] = si_sdr(ref, tracks[label][keep]) - si_sdr(ref, mix[keep])
    rows, cols = linear_sum_assignment(gains, maximize=True)
    return [float(g) for g in gains[rows, cols] if g > UNMATCHED]


def der(ref_turns, hyp_turns, collar: float = 0.25) -> float:
    """DER with optimal speaker mapping; overlap is scored with multiplicity.

    No-score collars of ``collar`` seconds surround every reference
    boundary; the scored extent runs from ``min(0, first boundary - 1)`` to
    the last reference boundary plus ``collar + 1``.
    """
    ref_bounds = np.array([t for _, s, e in ref_turns for t in (s, e)], dtype=float)
    lo = min(0.0, ref_bounds.min() - 1.0)
    hi = ref_bounds.max() + collar + 1.0
    points = np.concatenate([
        ref_bounds, ref_bounds - collar, ref_bounds + collar, [lo, hi],
        [t for _, s, e in hyp_turns for t in (s, e)],
    ])
    points = np.unique(np.clip(points, lo, hi))
    mid = 0.5 * (points[:-1] + points[1:])
    dur = np.diff(points)
    in_collar = (np.abs(mid[:, None] - ref_bounds[None, :]) < collar).any(axis=1)
    dur = np.where(in_collar, 0.0, dur)

    def active(turns):
        ids = sorted({spk for spk, _, _ in turns})
        mat = np.zeros((mid.size, len(ids)))
        for spk, s, e in turns:
            mat[:, ids.index(spk)] += (mid >= s) & (mid < e)
        return np.minimum(mat, 1.0)

    ref, hyp = active(ref_turns), active(hyp_turns)
    overlap = (ref * dur[:, None]).T @ hyp  # (n_ref, n_hyp) seconds together
    mapping = np.zeros((hyp.shape[1], ref.shape[1]))
    if hyp.shape[1]:
        rows, cols = linear_sum_assignment(overlap, maximize=True)
        mapping[cols, rows] = 1.0
    n_ref, n_hyp = ref.sum(axis=1), hyp.sum(axis=1)
    correct = ((hyp @ mapping) * ref).sum(axis=1)
    speech = n_ref @ dur
    errors = (np.maximum(n_ref, n_hyp) - correct) @ dur
    return float(errors / speech)


def count_pairs(truth_frames, truth_counts, segments, frame_rate: float):
    """(true, estimated) speaker count per truth segment.

    Each truth segment is paired with the run segment that overlaps it
    most; a truth segment that no run segment overlaps gets estimate 0.
    """
    pairs = []
    for (t0, t1), count in zip(truth_frames, truth_counts):
        best, best_ov = 0, 0.0
        for seg in segments:
            s, e = seg["start_s"] * frame_rate, seg["end_s"] * frame_rate
            ov = min(e, t1) - max(s, t0)
            if ov > best_ov:
                best, best_ov = seg["speaker_count"], ov
        pairs.append((int(count), int(best)))
    return pairs
