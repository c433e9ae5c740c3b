"""Batch command-line surface: run, synth, score."""

from __future__ import annotations

import argparse
import json
import logging
import math
import numbers
import os
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import frontend, metrics, pipeline, rttm, synth
from .errors import ConfigurationError, MixsepError
from .integrated import JointEmConfig

# What an int, float or str setting must hold: a value of another type (a bool,
# a float count, a string for a number) or a real that is not finite is an
# error at load, not a traceback or a failure in every segment.
_SETTING_KINDS = {
    "int": ("an integer", lambda v: isinstance(v, numbers.Integral)),
    "float": (
        "a finite number", lambda v: isinstance(v, numbers.Real) and -math.inf < v < math.inf
    ),
    "str": ("a string", lambda v: isinstance(v, str)),
}


def input_id(item: dict) -> str:
    """The id of a configured input, which names its output directory: its
    ``id``, or where it has none its audio file's stem."""
    return item.get("id") or Path(item["audio"]).stem


@dataclass
class RunConfig:
    """The settings that batch runs change; unknown keys are rejected on load.
    The paper's fixed values are the defaults of the functions that read them."""

    inputs: list = field(default_factory=list)  # dicts: id, audio, embeddings
    out_dir: str = "out"
    seed: int = 0
    jobs: int = 1
    # STFT
    stft_size_ms: float = 64.0
    window_ms: float = 50.0
    shift_ms: float = 16.0
    # VAD and segmentation
    vad_window_s: float = 12.0
    vad_threshold_db: float = 8.0
    max_pause_s: float = 1.0
    min_segment_s: float = 2.0
    max_segment_s: float = 60.0
    # per-segment initialization (K=10 is the default configuration)
    k_init: int = 10
    init_iterations: int = 30
    embed_dim: int | None = None
    # joint EM and fusion
    em_iterations: int = 100
    fusion: str = "spectral"
    tau_spectral: float = 0.7
    fusion_start: int = 10
    k_total: int | None = None

    def __post_init__(self):
        for f in fields(self):
            # the annotations are strings; "int | None" is a nullable count
            kind = f.type.removesuffix(" | None")
            value = getattr(self, f.name)
            if kind not in _SETTING_KINDS or (value is None and kind != f.type):
                continue
            what, valid = _SETTING_KINDS[kind]
            if isinstance(value, bool) or not valid(value):
                raise ConfigurationError(f"{f.name} must be {what}, got {value!r}")
        # the joint EM's settings are checked where the EM keeps its rules
        JointEmConfig(
            iterations=self.em_iterations, fusion=self.fusion,
            tau_spectral=self.tau_spectral, fusion_start=self.fusion_start,
        )
        if self.k_init < 1 or self.init_iterations < 1:
            raise ConfigurationError("k_init and init_iterations must be >= 1")
        if self.jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {self.jobs!r}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed!r}")
        if self.k_total is not None and self.k_total < 1:
            raise ConfigurationError(f"k_total must be >= 1 or null, got {self.k_total!r}")
        if self.embed_dim is not None and self.embed_dim < 2:
            raise ConfigurationError(f"embed_dim must be >= 2 or null, got {self.embed_dim!r}")
        # a recording must be framed and a segment kept; whether the sizes
        # are whole samples depends on each WAV's rate and is checked per input
        for name in ("stft_size_ms", "window_ms", "shift_ms", "vad_window_s", "max_segment_s"):
            if getattr(self, name) <= 0.0:
                raise ConfigurationError(f"{name} must be > 0, got {getattr(self, name)!r}")
        if self.window_ms > self.stft_size_ms:
            raise ConfigurationError("window_ms must not exceed stft_size_ms")
        if not 0.0 <= self.min_segment_s <= self.max_segment_s:
            raise ConfigurationError(
                f"min_segment_s must lie in [0, max_segment_s], got {self.min_segment_s!r}"
            )
        if self.max_pause_s < 0.0:
            raise ConfigurationError(f"max_pause_s must be >= 0, got {self.max_pause_s!r}")
        for item in self.inputs:
            if not (
                isinstance(item, dict)
                and isinstance(item.get("audio"), str)
                and isinstance(item.get("embeddings"), str)
                and isinstance(item.get("id", ""), str)
            ):
                raise ConfigurationError(
                    f"an input needs string 'audio', 'embeddings' and optional 'id', got {item!r}"
                )
        # an id names an output directory and the RTTM's file field: one
        # plain path component without whitespace, not shared
        ids = [input_id(item) for item in self.inputs]
        for ident in ids:
            if ident in (".", "..") or "/" in ident or "\\" in ident or ident.split() != [ident]:
                raise ConfigurationError(
                    f"an input id must be one plain path component, no whitespace: {ident!r}"
                )
        repeated = sorted({i for i in ids if ids.count(i) > 1})
        if repeated:
            raise ConfigurationError(f"inputs share the id {', '.join(repeated)}")

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        raw = json.loads(text)
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ConfigurationError(f"unknown config keys: {', '.join(unknown)}")
        return cls(**raw)


def _setup_logging():
    level = os.environ.get("MIXSEP_LOG", "INFO").upper()
    logging.basicConfig(level=getattr(logging, level, logging.INFO), format="%(levelname)s %(name)s: %(message)s")


def cmd_run(config_path, jobs: int | None = None, seed: int | None = None) -> int:
    """Process every configured recording; 0 = full success, 2 = partial."""
    overrides = {k: v for k, v in (("jobs", jobs), ("seed", seed)) if v is not None}
    try:
        config = replace(RunConfig.from_json(Path(config_path).read_text()), **overrides)
    except (OSError, json.JSONDecodeError, ConfigurationError, TypeError) as exc:
        print(f"error: cannot load config {config_path}: {exc}", file=sys.stderr)
        return 1
    if not config.inputs:
        print("error: config lists no inputs", file=sys.stderr)
        return 1
    out_root = Path(config.out_dir)
    partial = False
    for item in config.inputs:
        ident = input_id(item)
        audio_path = Path(item["audio"])
        emb_path = Path(item["embeddings"])
        if not audio_path.exists():
            print(f"error: missing audio file {audio_path}", file=sys.stderr)
            return 1
        if not emb_path.exists():
            print(f"error: missing embedding file {emb_path}", file=sys.stderr)
            return 1
        out_dir = out_root / ident
        out_dir.mkdir(parents=True, exist_ok=True)
        try:
            diarization, speaker_audio, report = pipeline.run_meeting(
                str(audio_path), str(emb_path), config, mask_dir=str(out_dir)
            )
        except MixsepError as exc:
            print(f"error: {ident}: {exc}", file=sys.stderr)
            return 1
        rttm.write_rttm(out_dir / "hyp.rttm", diarization.turns(), ident)
        for label, wave in sorted(speaker_audio.items()):
            frontend.write_wav(
                out_dir / f"{label}.wav",
                frontend.AudioBuffer(wave[None, :], report["sample_rate"]),
            )
        for outcome in report["segments"]:
            if outcome.get("error"):
                partial = True
        (out_dir / "report.json").write_text(json.dumps(report, sort_keys=True, indent=2))
        print(f"{ident}: {len(diarization.entries)} turns, {report['num_segments']} segments")
    return 2 if partial else 0


def cmd_synth(scenario_path, out_dir) -> int:
    """Generate a synthetic meeting bundle consumable by ``run`` and ``score``."""
    try:
        cfg = synth.ScenarioConfig.from_json(Path(scenario_path).read_text())
    except (OSError, json.JSONDecodeError, ConfigurationError, TypeError) as exc:
        print(f"error: cannot load scenario {scenario_path}: {exc}", file=sys.stderr)
        return 1
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    x_model, embeddings, truth, audio = synth.build_meeting(cfg)
    frontend.write_wav(out / "audio.wav", audio)
    frontend.write_embeddings(
        out / "embeddings.emb", embeddings.frames, frame_rate=truth.frame_rate
    )
    ref_turns = [
        (f"spk{k:02d}", s, e) for k, spans in sorted(truth.activity.items()) for s, e in spans
    ]
    rttm.write_rttm(out / "ref.rttm", ref_turns, "synthetic")
    pipeline.write_mask_tensor(out / "truth_masks.msk", truth.masks)
    meta = {
        "k_true": cfg.k_true,
        "frame_rate": truth.frame_rate,
        "segment_counts": truth.segment_counts,
        "segment_active": truth.segment_active,
        "segments": [
            {"id": s.id, "start_frame": s.start_frame, "end_frame": s.end_frame}
            for s in truth.segments
        ],
        "scenario": json.loads(cfg.to_json()),
    }
    (out / "truth.json").write_text(json.dumps(meta, sort_keys=True, indent=2))
    print(f"bundle written to {out} ({len(truth.segments)} segments)")
    return 0


def cmd_score(ref_path, hyp_path, bundle_dir=None) -> int:
    """Print DER (and, with a bundle, counting and mask metrics) as JSON."""
    try:
        rate, miss, falarm, confusion = metrics.der(
            rttm.read_rttm(ref_path), rttm.read_rttm(hyp_path)
        )
        out = {"der": rate, "miss": miss, "falarm": falarm, "confusion": confusion}
        if bundle_dir is not None:
            out.update(_bundle_scores(Path(bundle_dir), Path(hyp_path).parent))
    except (OSError, ValueError, MixsepError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(out, sort_keys=True, indent=2))
    return 0


def _bundle_scores(bundle, run_dir):
    """Counting and mask scores of a run directory against a synth bundle."""
    out = {}
    report_path = run_dir / "report.json"
    report = json.loads(report_path.read_text()) if report_path.exists() else None
    truth_path = bundle / "truth.json"
    if truth_path.exists() and report is not None:
        pairs = _pair_counts(json.loads(truth_path.read_text()), report)
        if pairs:
            # the 8 x 8 matrix holds the pairs with both counts in 1..8; a
            # missed segment or an estimate outside them counts as wrong, so
            # the accuracy is the matrix's times the share of segments it holds
            in_range = [(t, e) for t, e in pairs if 1 <= t <= 8 and 1 <= e <= 8]
            cm = metrics.counting_matrix([t for t, _ in in_range], [e for _, e in in_range])
            out["counting"] = {
                "matrix": cm.counts.tolist(),
                "accuracy": cm.accuracy * cm.total / len(pairs),
                "correct": cm.correct,
                "total": len(pairs),
            }
    masks_path = bundle / "truth_masks.msk"
    hyp_masks = sorted(run_dir.glob("masks_*.msk"))
    if masks_path.exists() and hyp_masks:
        aucs = _bundle_mask_auc(pipeline.read_mask_tensor(masks_path), hyp_masks, report)
        if aucs:
            out["mask_auc"] = float(np.mean(aucs))
    return out


def _pair_counts(truth_meta, report):
    """(true, estimated) count of every truth segment: the estimate of the
    error-free run segment that overlaps it most, or 0 where none does."""
    pairs = []
    run_segments = [
        s for s in report.get("segments", []) if not s.get("error") and "speaker_count" in s
    ]
    frame_rate = report.get("frame_rate") or truth_meta.get("frame_rate")
    for truth_seg, count in zip(truth_meta["segments"], truth_meta["segment_counts"]):
        best, best_ov = None, 0.0
        for seg in run_segments:
            s = seg["start_s"] * frame_rate
            e = seg["end_s"] * frame_rate
            ov = max(0.0, min(e, truth_seg["end_frame"]) - max(s, truth_seg["start_frame"]))
            if ov > best_ov:
                best, best_ov = seg, ov
        pairs.append((count, best["speaker_count"] if best is not None else 0))
    return pairs


def _bundle_mask_auc(truth_masks, hyp_mask_paths, report):
    aucs = []
    if report is None:
        return aucs
    seg_by_id = {s["id"]: s for s in report.get("segments", []) if not s.get("error")}
    frame_rate = report.get("frame_rate")
    for path in hyp_mask_paths:
        seg_id = path.stem.replace("masks_", "")
        seg = seg_by_id.get(seg_id)
        if seg is None:
            continue
        start = int(round(seg["start_s"] * frame_rate))
        gamma = pipeline.read_mask_tensor(path)
        sl = truth_masks[:, start : start + gamma.shape[1], :]
        if sl.shape[1] != gamma.shape[1] or sl.sum() == 0:
            continue
        aucs.append(metrics.mask_auc(gamma, sl))
    return aucs


def main(argv=None) -> int:
    _setup_logging()
    parser = argparse.ArgumentParser(prog="mixsep", description="joint diarization and separation")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="process recordings per a JSON config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--jobs", type=int, default=None)
    p_run.add_argument("--seed", type=int, default=None)

    p_synth = sub.add_parser("synth", help="generate a synthetic meeting bundle")
    p_synth.add_argument("--scenario", required=True)
    p_synth.add_argument("--out", required=True)

    p_score = sub.add_parser("score", help="score a hypothesis RTTM against a reference")
    p_score.add_argument("--ref", required=True)
    p_score.add_argument("--hyp", required=True)
    p_score.add_argument("--bundle", default=None)

    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config, args.jobs, args.seed)
    if args.command == "synth":
        return cmd_synth(args.scenario, args.out)
    return cmd_score(args.ref, args.hyp, args.bundle)


if __name__ == "__main__":
    sys.exit(main())
