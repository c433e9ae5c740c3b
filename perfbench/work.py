"""The measured process: loads one workload's inputs and runs whole rounds.

Usage::

    python work.py --workload W --inputs DIR --seconds S --trace 0|1 --result FILE
    python work.py --workload W --inputs DIR --setup-only

Each operation of a round is one public entry point: ``pipeline.run_meeting``
in this process, or ``mixsep run`` in a fresh process for ``cli_meeting``.
The round's outputs are hashed so that repeated rounds can be compared; the
first round's outputs are kept under ``DIR/kept`` for scoring. With
``--trace 1`` untraced and traced rounds alternate, and the traced rounds
add the per-layer spans and counters. ``--setup-only`` imports the program,
loads the inputs, prints the clock and exits: the set-up the orchestrator
times, from before it starts this process to the printed clock.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from mixsep import frontend, pipeline
from mixsep.cli import RunConfig
from mixsep.frontend import AudioBuffer
from mixsep.vmf import EmbeddingSequence

HERE = Path(__file__).resolve().parent


def load(workload: str, in_dir: Path):
    """``[(manifest op, call arguments), ...]`` of one round.

    ``cli_meeting`` reads its WAV and EMB1 files as ``mixsep run`` does, so
    that set-up loads them too; the command reads them again in its own
    process, and its call arguments are ``None``.
    """
    manifest = json.loads((in_dir / "manifest.json").read_text())
    ops = []
    if workload == "cli_meeting":
        for op in manifest["ops"]:
            config = RunConfig(**op["config"])
            for item in config.inputs:
                audio = frontend.read_wav(item["audio"])
                win, hop = (round(audio.sample_rate * ms / 1000)
                            for ms in (config.window_ms, config.shift_ms))
                frontend.ingest_embeddings(
                    item["embeddings"], frontend.num_stft_frames(audio.num_samples, win, hop),
                    expected_dim=config.embed_dim, frame_rate=audio.sample_rate / hop,
                )
            ops.append((op, None))
        return ops
    data = np.load(in_dir / "inputs.npz")
    for op in manifest["ops"]:
        p = op["prefix"]
        audio = AudioBuffer(data[p + "audio"], op["sample_rate"])
        emb = EmbeddingSequence(data[p + "embeddings"], op["frame_rate"])
        config = RunConfig(**op["config"])
        ops.append((op, (audio, emb, config)))
    return ops


def _digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.rglob("*")):
        if path.is_file():
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _save_in_process(out_dir: Path, dia, speaker_audio, report):
    (out_dir / "turns.json").write_text(json.dumps(dia.entries))
    np.savez(out_dir / "tracks.npz", **speaker_audio)
    (out_dir / "report.json").write_text(json.dumps(report, sort_keys=True))


def run_op(workload, op, call, work_dir: Path, trace_dir: Path | None = None):
    """Run one operation into ``work_dir``; returns ``(wall_s, ok)``.

    ``trace_dir`` runs ``mixsep run`` under the tracer (``cli_meeting``).
    """
    work_dir.mkdir(parents=True)
    if workload == "cli_meeting":
        config = dict(op["config"], out_dir=str(work_dir))
        cfg_path = work_dir.parent / (work_dir.name + ".json")
        cfg_path.write_text(json.dumps(config))
        if trace_dir is None:
            cmd = [sys.executable, "-m", "mixsep.cli"]
        else:
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(trace_dir)]
        cmd += ["run", "--config", str(cfg_path)]
        with open(work_dir.parent / (work_dir.name + ".log"), "wb") as log:
            start = perf_counter()
            code = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode
            wall = perf_counter() - start
        return wall, code == 0
    audio, emb, config = call
    start = perf_counter()
    try:
        dia, speaker_audio, report = pipeline.run_meeting(
            audio, emb, config, mask_dir=str(work_dir)
        )
    except Exception as exc:  # a failed operation is counted, not fatal
        (work_dir / "error.txt").write_text(f"{type(exc).__name__}: {exc}")
        return perf_counter() - start, False
    wall = perf_counter() - start
    _save_in_process(work_dir, dia, speaker_audio, report)
    return wall, True


def run_round(workload, ops, in_dir: Path, index: int, traced: bool):
    """One round over every operation; traced rounds also return span records."""
    import tracing

    records = []
    result = {"traced": traced, "walls": [], "ok": [], "digests": []}
    for i, (op, call) in enumerate(ops):
        work_dir = in_dir / "work" / f"op{i}"
        if work_dir.exists():
            shutil.rmtree(work_dir)
        if traced and workload == "cli_meeting":
            trace_dir = in_dir / "work" / f"trace{index}-{i}"
            trace_dir.mkdir(parents=True)
            wall, ok = run_op(workload, op, call, work_dir, trace_dir)
            records.extend(tracing.read_records(trace_dir))
        elif traced:
            tracer = tracing.Tracer()
            uninstall = tracing.install(tracer)
            try:
                wall, ok = run_op(workload, op, call, work_dir)
            finally:
                uninstall()
            records.append({"root": True, "spans": tracer.spans, "counts": dict(tracer.counts)})
        else:
            wall, ok = run_op(workload, op, call, work_dir)
        result["walls"].append(wall)
        result["ok"].append(ok)
        result["digests"].append(_digest(work_dir))
        kept = in_dir / "kept" / f"op{i}"
        if not kept.exists():
            kept.parent.mkdir(exist_ok=True)
            work_dir.rename(kept)
    return result, records


def trace_summary(records, n_rounds: int, traced_wall: float):
    """Per-round layer self times, call counts and counters of traced rounds."""
    import tracing

    layers, counts, root_self = tracing.aggregate(records)
    return {
        "layers": {k: [v[0] / n_rounds, v[1] / n_rounds] for k, v in layers.items()},
        "counts": {k: (v if k.endswith("_mb") else v / n_rounds) for k, v in counts.items()},
        "root_self_s": root_self / n_rounds,
        "wall_s": traced_wall / n_rounds,
        "wrapper_cost_s": tracing.wrapper_cost(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--result", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    ops = load(args.workload, args.inputs)
    loaded_at = perf_counter()  # system-wide monotonic clock on Linux
    if args.setup_only:
        print(loaded_at)
        return 0

    # Rounds run while the next one is predicted to end within the budget;
    # a traced run alternates untraced and traced rounds and ends on a pair.
    start = perf_counter()
    rounds, records = [], []
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        t0 = perf_counter()
        result, recs = run_round(args.workload, ops, args.inputs, len(rounds), traced)
        rounds.append(result)
        records.extend(recs)
        last = perf_counter() - t0
        done = len(rounds) >= (2 if args.trace else 1) and (
            perf_counter() - start + last * (2 if args.trace else 1) > args.seconds
        )
        if done and (not args.trace or len(rounds) % 2 == 0):
            break

    who = resource.RUSAGE_CHILDREN if args.workload == "cli_meeting" else resource.RUSAGE_SELF
    out = {
        "rounds": rounds,
        "audio_s": [op["audio_s"] for op, _ in ops],
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "loaded_at": loaded_at,
    }
    if args.trace:
        traced = [r for r in rounds if r["traced"]]
        out["trace"] = trace_summary(
            records, len(traced), sum(sum(r["walls"]) for r in traced)
        )
    args.result.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
