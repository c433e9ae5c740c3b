"""Workload inputs: synthetic meetings made with ``mixsep.synth`` from a seed.

Every scene seed, active-speaker set and run seed is drawn from
``numpy.random.default_rng([workload tag, --seed])``, so one ``--seed``
gives the same inputs on every machine and every commit. Each workload
writes its inputs into one directory: ``inputs.npz`` with the audio and
embeddings (for the in-process workloads), WAV and EMB1 files plus a run
config (for ``cli_meeting``), and ``truth.npz`` with what the scorer needs.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from mixsep import frontend, synth
from mixsep.cli import RunConfig

# Each workload's key in the random stream, fixed so that one seed keeps
# giving the same inputs.
WORKLOADS = {"cli_meeting": 1, "counting_sweep": 2}

# Reduced configuration of the end-to-end acceptance criterion: 8 kHz,
# 32/25/8 ms STFT (F = 129), 4 channels, 4 speakers of which 2 or 3 talk in
# each ~8 s segment. Four segments, two per pool worker, as the criterion's
# meeting has; they also average the cost of 2- and 3-speaker segments.
CLI_SEGMENTS = 4
CLI_SCENE = dict(
    channels=4, embed_dim=16, sample_rate=8000,
    stft_size_ms=32.0, window_ms=25.0, shift_ms=8.0, overlap=0.2,
)
CLI_SEGMENT_S = 8.0
CLI_JOBS = 2

# Counting scenes of the speaker-counting criterion: 2 kHz, F = 33, 3
# channels, 8 candidate speakers. Every round holds each active count 1..5
# the same number of times, so rounds of two seeds do the same mix of work.
COUNT_PER_ACTIVE = 3
COUNT_SCENE = dict(
    channels=3, embed_dim=24, sample_rate=2000,
    stft_size_ms=32.0, window_ms=25.0, shift_ms=8.0,
    overlap=0.15, gap_s=0.6, block_s=1.2,
)
COUNT_DURATION_S = 3.2

_VAD = dict(vad_window_s=12.0, vad_threshold_db=8.0, min_segment_s=1.0)


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([WORKLOADS[workload], seed])


def run_config(workload: str, run_seed: int) -> RunConfig:
    """The program's run configuration for one scene of ``workload``."""
    if workload == "cli_meeting":
        return RunConfig(
            seed=run_seed, jobs=CLI_JOBS, stft_size_ms=32.0, window_ms=25.0, shift_ms=8.0,
            max_segment_s=9.0, k_init=5, em_iterations=40, init_iterations=20, k_total=4,
            **_VAD,
        )
    return RunConfig(
        seed=run_seed, jobs=1, stft_size_ms=32.0, window_ms=25.0, shift_ms=8.0,
        k_init=8, em_iterations=22, fusion="spectral", tau_spectral=0.7, fusion_start=6,
        **_VAD,
    )


def scenarios(workload: str, seed: int):
    """``[(scenario, run_seed), ...]`` of one round of ``workload``."""
    rng = _rng(workload, seed)
    out = []
    if workload == "cli_meeting":
        plans = []
        for _ in range(CLI_SEGMENTS):
            n_active = int(rng.integers(2, 4))
            active = sorted(int(k) for k in rng.choice(4, size=n_active, replace=False))
            plans.append(synth.SegmentPlan(CLI_SEGMENT_S, active))
        cfg = synth.ScenarioConfig(
            k_true=4, segments=plans, seed=int(rng.integers(2**31)), **CLI_SCENE
        )
        out.append((cfg, int(rng.integers(2**31))))
    elif workload == "counting_sweep":
        for n_active in np.repeat(np.arange(1, 6), COUNT_PER_ACTIVE):
            active = sorted(int(k) for k in rng.choice(8, size=int(n_active), replace=False))
            cfg = synth.ScenarioConfig(
                k_true=8, segments=[synth.SegmentPlan(COUNT_DURATION_S, active)],
                seed=int(rng.integers(2**31)), **COUNT_SCENE,
            )
            out.append((cfg, int(rng.integers(2**31))))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


def _truth_arrays(prefix: str, truth) -> dict:
    """Ground truth of one scene as flat arrays keyed by ``prefix``."""
    turns = [(k, s, e) for k, spans in sorted(truth.activity.items()) for s, e in spans]
    return {
        f"{prefix}masks": truth.masks,
        f"{prefix}images": truth.source_images,
        f"{prefix}turns": np.array(turns, dtype=float).reshape(-1, 3),
        f"{prefix}counts": np.array(truth.segment_counts),
        f"{prefix}seg_frames": np.array(
            [(s.start_frame, s.end_frame) for s in truth.segments]
        ),
        f"{prefix}frame_rate": np.array(truth.frame_rate),
    }


def make_inputs(workload: str, seed: int, out_dir: Path) -> dict:
    """Write one round's inputs to ``out_dir``; returns the manifest."""
    out_dir.mkdir(parents=True, exist_ok=True)
    inputs, truths, ops = {}, {}, []
    for i, (cfg, run_seed) in enumerate(scenarios(workload, seed)):
        _, embeddings, truth, audio = synth.build_meeting(cfg)
        prefix = f"s{i}_"
        truths.update(_truth_arrays(prefix, truth))
        truths[f"{prefix}mix"] = audio.samples[0]
        op = {
            "prefix": prefix,
            "audio_s": audio.duration,
            "k_true": cfg.k_true,
            "scenario": json.loads(cfg.to_json()),
        }
        if workload == "cli_meeting":
            frontend.write_wav(out_dir / f"{prefix}audio.wav", audio)
            frontend.write_embeddings(
                out_dir / f"{prefix}emb.emb", embeddings.frames, frame_rate=truth.frame_rate
            )
            config = run_config(workload, run_seed)
            config.inputs = [{
                "id": "meeting",
                "audio": str(out_dir / f"{prefix}audio.wav"),
                "embeddings": str(out_dir / f"{prefix}emb.emb"),
            }]
            op["config"] = asdict(config)
        else:
            inputs[f"{prefix}audio"] = audio.samples
            inputs[f"{prefix}embeddings"] = embeddings.frames
            op["sample_rate"] = audio.sample_rate
            op["frame_rate"] = embeddings.frame_rate
            op["config"] = asdict(run_config(workload, run_seed))
        ops.append(op)
    np.savez(out_dir / "truth.npz", **truths)
    if inputs:
        np.savez(out_dir / "inputs.npz", **inputs)
    manifest = {"workload": workload, "seed": seed, "ops": ops}
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=1))
    return manifest
