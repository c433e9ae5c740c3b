"""Benchmark test: the benchmark's scorer agrees with ``mixsep.metrics``.

Runs a small real pipeline (a 2 kHz two-segment meeting) and scores its
outputs with both scorers. Run from the root of a checkout::

    PYTHONPATH=src python3 -m pytest -q perfbench/check_scorer.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import outputs  # noqa: E402
import score  # noqa: E402
from mixsep import metrics, pipeline, synth  # noqa: E402
from mixsep.cli import RunConfig  # noqa: E402

TOL = 1e-9


@pytest.fixture(scope="module")
def meeting(tmp_path_factory):
    cfg = synth.ScenarioConfig(
        k_true=3, segments=[synth.SegmentPlan(4.0, [0, 1]), synth.SegmentPlan(4.0, [0, 1, 2])],
        channels=3, embed_dim=16, sample_rate=2000, stft_size_ms=32.0, window_ms=25.0,
        shift_ms=8.0, block_s=1.2, seed=5,
    )
    _, emb, truth, audio = synth.build_meeting(cfg)
    config = RunConfig(
        stft_size_ms=32.0, window_ms=25.0, shift_ms=8.0, vad_window_s=12.0,
        vad_threshold_db=8.0, min_segment_s=1.0, k_init=4, em_iterations=20,
        init_iterations=10, seed=3,
    )
    mask_dir = tmp_path_factory.mktemp("masks")
    dia, tracks, report = pipeline.run_meeting(audio, emb, config, mask_dir=str(mask_dir))
    return truth, audio, dia, tracks, report, mask_dir


def test_mask_auc_agrees(meeting):
    truth, _, _, _, report, mask_dir = meeting
    scored = 0
    for seg in report["segments"]:
        gamma = outputs.read_masks(mask_dir / f"masks_{seg['id']}.msk")
        start = int(round(seg["start_s"] * truth.frame_rate))
        sl = truth.masks[:, start : start + gamma.shape[1]]
        ours, theirs = score.mask_auc(gamma, sl), metrics.mask_auc(gamma, sl)
        assert abs(ours - theirs) <= TOL
        scored += 1
    assert scored == 2


def test_si_sdr_gain_agrees(meeting, monkeypatch):
    truth, audio, _, tracks, _, _ = meeting
    ref = [(k, s, e) for k, spans in truth.activity.items() for s, e in spans]
    act = score.activity(ref, 3, audio.num_samples, audio.sample_rate)
    mix = audio.samples[0]
    ours = score.si_sdr_gains(tracks, truth.source_images, mix, act)
    monkeypatch.setattr(score, "si_sdr", metrics.si_sdr)
    theirs = score.si_sdr_gains(tracks, truth.source_images, mix, act)
    assert len(ours) >= 2
    assert np.max(np.abs(np.subtract(ours, theirs))) <= TOL


def test_der_agrees(meeting):
    truth, _, dia, _, _, _ = meeting
    ref = [(str(k), s, e) for k, spans in truth.activity.items() for s, e in spans]
    hyp = dia.turns()
    # the program's output and a shifted, relabelled copy with real errors
    worse = [(f"x{len(spk) % 2}{spk}", s + 0.4, e + 0.1) for spk, s, e in hyp]
    for turns in (hyp, worse, hyp[:-1]):
        assert abs(score.der(ref, turns) - metrics.der(ref, turns)[0]) <= TOL
    assert score.der(ref, worse) > 0.05


def test_counts_agree(meeting):
    truth, _, _, _, report, _ = meeting
    frames = [(s.start_frame, s.end_frame) for s in truth.segments]
    pairs = score.count_pairs(frames, truth.segment_counts, report["segments"], truth.frame_rate)
    assert [t for t, _ in pairs] == [2, 3]
    ours = float(np.mean([t == e for t, e in pairs]))
    assert abs(ours - metrics.counting_matrix(*zip(*pairs)).accuracy) <= TOL
