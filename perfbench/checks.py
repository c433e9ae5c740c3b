"""Output checks: properties the method must have, never copies of earlier output.

Each function raises :class:`CheckFailed` with a reason; the orchestrator
turns any failure into ``"correct": false`` and a non-zero exit.
"""

from __future__ import annotations

import numpy as np

# float32 mask files: each entry is rounded once, K <= 11 entries per sum
POSTERIOR_TOL = 1e-5
# Relative log-likelihood drop allowed between fusion events. The M-steps
# are not exact maximizers (prior floors, covariance loading, capped kappa),
# and 25 counting_sweep runs (375 scenes) fell by up to 5.3e-7, heavy-tailed;
# 1e-5 keeps a margin of 20 over that.
LOGLIK_REL_TOL = 1e-5
# RTTM writes 3 decimals
RTTM_TOL = 1e-3


class CheckFailed(Exception):
    pass


def require(condition, message: str):
    if not condition:
        raise CheckFailed(message)


def posteriors(gamma: np.ndarray, where: str):
    require(gamma.ndim == 3 and gamma.shape[0] >= 1, f"{where}: mask tensor shape {gamma.shape}")
    require(np.all(np.isfinite(gamma)), f"{where}: non-finite posterior")
    require(gamma.min() >= -POSTERIOR_TOL and gamma.max() <= 1.0 + POSTERIOR_TOL,
            f"{where}: posterior outside [0, 1]")
    dev = float(np.max(np.abs(gamma.sum(axis=0) - 1.0)))
    require(dev <= POSTERIOR_TOL, f"{where}: posteriors sum to 1 only within {dev:.2e}")


def loglik(segment: dict) -> float:
    """Non-decreasing log-likelihood between fusion events.

    Returns the largest relative drop seen (0 when it never falls).
    """
    trace = segment["loglik"]
    fused = {ev["iteration"] for ev in segment["fusion_events"]}
    worst = 0.0
    for it in range(len(trace) - 1):
        if it in fused:
            continue
        drop = (trace[it] - trace[it + 1]) / abs(trace[it])
        require(drop <= LOGLIK_REL_TOL,
                f"{segment['id']}: log-likelihood fell by {drop:.3e} (relative) "
                f"at iteration {it + 1}")
        worst = max(worst, drop)
    return worst


def counts(segment: dict, k_init: int):
    c = segment["speaker_count"]
    require(1 <= c <= k_init, f"{segment['id']}: speaker count {c} outside 1..{k_init}")


def turns(rows, duration_s: float, max_speakers: int):
    speakers = {spk for spk, _, _ in rows}
    require(len(speakers) <= max_speakers,
            f"{len(speakers)} speakers named, at most {max_speakers} allowed")
    for spk, start, end in rows:
        require(-RTTM_TOL <= start < end <= duration_s + RTTM_TOL,
                f"turn {spk} {start:.3f}-{end:.3f} outside the meeting (0-{duration_s:.3f} s)")


def tracks(waves: dict, n_samples: int):
    for label, wave in waves.items():
        require(wave.ndim == 1 and wave.shape[0] == n_samples,
                f"track {label} has shape {wave.shape}, meeting has {n_samples} samples")
        require(np.all(np.isfinite(wave)), f"track {label} is not finite")


def segments_ok(report: dict):
    for seg in report["segments"]:
        require(not seg.get("error"), f"segment {seg['id']} failed: {seg.get('error')}")
