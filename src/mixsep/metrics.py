"""Scoring: diarization error rate, speaker-counting matrix, mask accuracy.

The DER scorer maps hypothesis speakers to reference speakers by maximizing
total overlap (min-cost assignment) and scores a timeline with collar
regions around reference boundaries excluded; overlap regions are scored
with multiplicity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .frontend import merge_intervals
from .numerics import min_cost_assignment


@dataclass
class CountingMatrix:
    """True-by-estimated active-speaker counts, an 8 x 8 tally."""

    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=int)
        if counts.shape != (8, 8) or np.any(counts < 0):
            raise InvalidInputError("counting matrix must be a nonnegative 8x8 tally")
        self.counts = counts

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def correct(self) -> int:
        return int(np.trace(self.counts))

    @property
    def accuracy(self) -> float:
        return self.correct / self.total if self.total else 0.0


def _scored_regions(ref_turns, collar_s: float):
    """Complement of the collar zones, clipped to the overall extent."""
    points = [t for _, s, e in ref_turns for t in (s, e)]
    hi = max(points) + collar_s + 1.0
    zones = []
    if collar_s > 0:
        zones = merge_intervals(
            [(b - collar_s, b + collar_s) for _, s, e in ref_turns for b in (s, e)]
        )
    regions = []
    cursor = min(0.0, min(points) - 1.0)
    for z0, z1 in zones:
        if z0 > cursor:
            regions.append((cursor, z0))
        cursor = max(cursor, z1)
    regions.append((cursor, hi))
    return regions


def _clip_turns(turns, regions):
    out = []
    for spk, s, e in turns:
        for r0, r1 in regions:
            lo, hi = max(s, r0), min(e, r1)
            if hi - lo > 1e-12:
                out.append((spk, lo, hi))
    return out


def der(ref, hyp, collar_s: float = 0.25):
    """Diarization error rate with optimal speaker mapping.

    Args:
        ref: reference ``(speaker, start_s, end_s)`` rows.
        hyp: hypothesis rows of the same form, e.g. ``Diarization.turns()``.
        collar_s: no-score collar around every reference boundary.

    Returns:
        ``(der, miss, falarm, confusion)`` as fractions of scored reference
        speech time.
    """
    ref_turns = [(str(s), float(a), float(b)) for s, a, b in ref]
    if not ref_turns:
        raise InvalidInputError("empty reference annotation: DER undefined")
    hyp_turns = [(str(s), float(a), float(b)) for s, a, b in hyp]
    regions = _scored_regions(ref_turns, collar_s)
    ref_turns = _clip_turns(ref_turns, regions)
    hyp_turns = _clip_turns(hyp_turns, regions)
    if not ref_turns:
        raise InvalidInputError("reference is empty within the scored regions")

    points = sorted({t for _, s, e in ref_turns + hyp_turns for t in (s, e)})
    ref_ids = sorted({s for s, _, _ in ref_turns})
    hyp_ids = sorted({s for s, _, _ in hyp_turns})
    overlap = np.zeros((len(ref_ids), len(hyp_ids)))
    slices = []
    for lo, hi in zip(points[:-1], points[1:]):
        dur = hi - lo
        if dur <= 1e-12:
            continue
        mid = 0.5 * (lo + hi)
        r_here = {s for s, a, b in ref_turns if a <= mid < b}
        h_here = {s for s, a, b in hyp_turns if a <= mid < b}
        slices.append((dur, r_here, h_here))
        for s in r_here:
            for h in h_here:
                overlap[ref_ids.index(s), hyp_ids.index(h)] += dur
    mapping = {}
    if hyp_ids:
        rows, cols = min_cost_assignment(-overlap)
        mapping = {hyp_ids[c]: ref_ids[r] for r, c in zip(rows, cols)}

    speech = miss = falarm = confusion = 0.0
    for dur, r_here, h_here in slices:
        n_ref, n_hyp = len(r_here), len(h_here)
        correct = sum(1 for h in h_here if mapping.get(h) in r_here)
        speech += n_ref * dur
        miss += max(0, n_ref - n_hyp) * dur
        falarm += max(0, n_hyp - n_ref) * dur
        confusion += (min(n_ref, n_hyp) - correct) * dur
    if speech <= 0.0:
        raise InvalidInputError("no reference speech to score")
    return (
        (miss + falarm + confusion) / speech,
        miss / speech,
        falarm / speech,
        confusion / speech,
    )


def counting_matrix(truths, estimates) -> CountingMatrix:
    """Tally (true, estimated) active-speaker counts; values must be 1..8."""
    truths = list(truths)
    estimates = list(estimates)
    if len(truths) != len(estimates):
        raise InvalidInputError("count lists must have equal length")
    counts = np.zeros((8, 8), dtype=int)
    for t, e in zip(truths, estimates):
        if not (1 <= t <= 8 and 1 <= e <= 8):
            raise InvalidInputError(f"counts must lie in 1..8, got ({t}, {e})")
        counts[t - 1, e - 1] += 1
    return CountingMatrix(counts)


def _auc(scores: np.ndarray, labels: np.ndarray) -> float:
    pos = labels > 0.5
    n_pos = int(pos.sum())
    n_neg = labels.shape[0] - n_pos
    if n_pos == 0 or n_neg == 0:
        return 0.5
    # Mann-Whitney count: each negative below a positive scores 2, each tie 1
    neg, hits = np.sort(scores[~pos]), scores[pos]
    wins = np.searchsorted(neg, hits, "left") + np.searchsorted(neg, hits, "right")
    return float(wins.sum() / (2 * n_pos * n_neg))


def mask_auc(gamma, truth_masks) -> float:
    """Best-permutation mean AUC of posteriors against dominance masks.

    Only voiced bins (where some truth mask is set) are scored. Constant
    scores give AUC 0.5 by the tie-rank convention.
    """
    gamma = np.asarray(getattr(gamma, "gamma", gamma), dtype=float)
    truth = np.asarray(truth_masks, dtype=float)
    if gamma.shape[1:] != truth.shape[1:]:
        raise InvalidInputError("posterior and mask shapes disagree")
    voiced = truth.sum(axis=0) > 0.0
    if not voiced.any():
        raise InvalidInputError("no voiced bins in the truth masks")
    scores = gamma[:, voiced]
    if np.isnan(scores).any():
        raise InvalidInputError("posterior has NaN entries in voiced bins")
    labels = truth[:, voiced]
    n_hyp, n_true = scores.shape[0], labels.shape[0]
    table = np.empty((n_hyp, n_true))
    for i in range(n_hyp):
        for j in range(n_true):
            table[i, j] = _auc(scores[i], labels[j])
    rows, cols = min_cost_assignment(-table)
    return float(table[rows, cols].mean())


def si_sdr(reference: np.ndarray, estimate: np.ndarray) -> float:
    """Scale-invariant signal-to-distortion ratio in dB."""
    reference = np.asarray(reference, dtype=float)
    estimate = np.asarray(estimate, dtype=float)
    if reference.shape != estimate.shape:
        raise InvalidInputError("reference and estimate must have equal length")
    energy = float(reference @ reference)
    if energy <= 0.0:
        raise InvalidInputError("reference signal is silent")
    alpha = float(estimate @ reference) / energy
    target = alpha * reference
    noise = estimate - target
    denom = float(noise @ noise)
    if denom <= 0.0:
        return float("inf")
    return 10.0 * np.log10(float(target @ target) / denom)
