"""mixsep benchmark: real-time factor, memory and separation quality.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cli_meeting --seed 1 --seconds 20 --trace 0

Makes the workload's inputs from ``--seed`` with ``mixsep.synth`` in this
process, times several fresh interpreters that import mixsep and load them
(``setup_s``), runs whole rounds of the workload in a separate process for
about ``--seconds`` seconds (``work.py``), then checks and scores the
outputs of the first round against the ground truth. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``). A failed output check prints ``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"

# One BLAS thread per process; the pool of cli_meeting adds at most two
# worker processes, so no workload asks for more than the machine's 2 cores.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# fresh starts timed per run: the measured process and SETUP_STARTS - 1 probes
SETUP_STARTS = 3

# Floors on the quality metrics; see README.md for the sweep they come from.
FLOORS = {
    "cli_meeting": {"mask_auc": 0.70, "si_sdr_gain_db": 12.0},
    "counting_sweep": {"mask_auc": 0.65, "si_sdr_gain_db": 6.0},
}

SELF_SUFFIX = {
    "integrated.joint_em", "integrated.joint_m_step", "pipeline.initialize_segment",
    "pipeline.run_meeting", "pipeline.segment_task", "cli.cmd_run",
}
TIMED = (
    "frontend.read_wav", "frontend.stft", "frontend.energy_vad", "frontend.ingest_embeddings",
    "frontend.istft", "frontend.write_wav",
    "vmf.spherical_kmeans_pp", "vmf.vmfmm_em", "vmf.vmf_m_step", "vmf.log_pdf_matrix",
    "numerics.chol_with_loading", "numerics.chol_logdet_quad", "numerics.psd_solve",
    "cacg.cacg_log_pdf_stack", "cacg.cacg_m_step", "cacg.normalize_observations",
    "cacg.update_pi",
    "integrated.joint_em", "integrated.joint_m_step", "integrated.spectral_fusion_check",
    "pipeline.initialize_segment", "pipeline.smooth_and_segment", "pipeline.beamform",
    "pipeline.align", "pipeline.write_mask_tensor", "pipeline.run_meeting",
    "pipeline.segment_task", "pipeline.pool_wait",
    "cli.cmd_run", "cli.startup",
)
COUNTERS = (
    ("vmf.redraws", "count"), ("numerics.chol_matrices", "count"),
    ("numerics.chol_matrices_per_iter", "KF/iter"), ("numerics.loading_rescues", "count"),
    ("cacg.intermediate_mb", "MB"), ("integrated.em_iterations", "count"),
    ("integrated.fusion_events", "count"), ("integrated.count_accuracy", "ratio"),
    ("pipeline.segments", "count"), ("pipeline.segment_payload_mb", "MB"),
    ("pipeline.der", "ratio"),
    ("trace.overhead_s", "s"), ("trace.bookkeeping_s", "s"), ("trace.wall_s", "s"),
    ("trace.unattributed_s", "s"),
)


def _time_name(span: str) -> str:
    return f"{span}.{'self_s' if span in SELF_SUFFIX else 's'}"


def per_layer_names():
    """``[(name, unit), ...]`` of every per-layer metric, in print order."""
    out = []
    for span in TIMED:
        out += [(_time_name(span), "s"), (f"{span}.calls", "count")]
    return out + list(COUNTERS)


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def setup_probes(workload: str, in_dir: Path, env: dict) -> list[float]:
    """Set-up times of fresh interpreters that import mixsep and load the inputs."""
    cmd = [sys.executable, str(HERE / "work.py"), "--workload", workload,
           "--inputs", str(in_dir), "--setup-only"]
    times = []
    for _ in range(SETUP_STARTS - 1):
        start = perf_counter()
        out = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True)
        times.append(float(out.stdout.split()[-1]) - start)
    return times


def score_run(workload: str, manifest: dict, in_dir: Path, work: dict):
    """Check the first round's outputs and score them; raises CheckFailed."""
    import numpy as np

    import checks
    import outputs
    import score

    truth = np.load(in_dir / "truth.npz")
    aucs, gains, ders, pairs, drops = [], [], [], [], [0.0]
    first = work["rounds"][0]
    for i, op in enumerate(manifest["ops"]):
        for r in work["rounds"][1:]:
            checks.require(r["ok"][i] == first["ok"][i] and r["digests"][i] == first["digests"][i],
                           f"op {i}: a repeated round gave different outputs")
        if not first["ok"][i]:
            continue
        p = op["prefix"]
        out = outputs.read(workload, in_dir / "kept" / f"op{i}")
        report = out["report"]
        cfg = op["config"]
        frame_rate = float(truth[p + "frame_rate"])
        mix = truth[p + "mix"]
        sample_rate = op["scenario"]["sample_rate"]
        checks.segments_ok(report)
        checks.require(set(out["masks"]) == {s["id"] for s in report["segments"]},
                       "mask files do not match the report's segments")
        for seg in report["segments"]:
            drops.append(checks.loglik(seg))
            checks.counts(seg, cfg["k_init"])
            gamma = out["masks"][seg["id"]]
            checks.posteriors(gamma, seg["id"])
            start = int(round(seg["start_s"] * frame_rate))
            sl = truth[p + "masks"][:, start : start + gamma.shape[1], :]
            if sl.shape[1] == gamma.shape[1] and sl.any():
                aucs.append(score.mask_auc(gamma, sl))
        checks.turns(out["turns"], mix.size / sample_rate, cfg["k_total"] or cfg["k_init"])
        checks.tracks(out["tracks"], mix.size)
        ref = [(int(k), s, e) for k, s, e in truth[p + "turns"]]
        act = score.activity(ref, op["k_true"], mix.size, sample_rate)
        gains.extend(score.si_sdr_gains(out["tracks"], truth[p + "images"], mix, act))
        ders.append(score.der([(str(k), s, e) for k, s, e in ref], out["turns"]))
        pairs.extend(score.count_pairs(truth[p + "seg_frames"], truth[p + "counts"],
                                       report["segments"], frame_rate))
    checks.require(aucs and gains, "no segment or track could be scored")
    quality = {
        "mask_auc": float(np.mean(aucs)),
        "si_sdr_gain_db": float(np.mean(gains)),
        "der": float(np.mean(ders)),
        "count_accuracy": float(np.mean([t == e for t, e in pairs])),
        "counts": pairs,
        "worst_loglik_drop": max(drops),
    }
    for key, floor in FLOORS[workload].items():
        checks.require(quality[key] >= floor,
                       f"{key} {quality[key]:.4f} below its floor {floor}")
    return quality


def end_to_end(work: dict, quality: dict, setup: list[float]):
    audio = sum(work["audio_s"])
    rtfs = [sum(r["walls"]) / audio for r in work["rounds"]]
    return {
        "rtf": _metric(statistics.median(rtfs), "ratio"),
        "peak_rss_mb": _metric(work["peak_rss_mb"], "MB"),
        "setup_s": _metric(statistics.median(setup), "s"),
        "mask_auc": _metric(quality["mask_auc"], "ratio"),
        "si_sdr_gain_db": _metric(quality["si_sdr_gain_db"], "dB"),
    }


def per_layer(work: dict, quality: dict):
    tr = work["trace"]
    layers, counts = tr["layers"], tr["counts"]
    values = {}
    for span in TIMED:
        secs, calls = layers.get(span, [0.0, 0])
        values[_time_name(span)] = secs
        values[f"{span}.calls"] = calls
    iters = counts.get("integrated.em_iterations", 0.0)
    segments = counts.get("pipeline.segments", 0.0)
    bookkeeping = layers.get("trace.bookkeeping", [0.0, 0])[0]
    spans = sum(calls for _, calls in layers.values())
    values.update({
        "vmf.redraws": counts.get("vmf.redraws", 0.0),
        "numerics.chol_matrices": counts.get("numerics.chol_matrices", 0.0),
        "numerics.chol_matrices_per_iter":
            counts.get("numerics.chol_units_em", 0.0) / iters if iters else 0.0,
        "numerics.loading_rescues": counts.get("numerics.loading_rescues", 0.0),
        "cacg.intermediate_mb": counts.get("cacg.intermediate_mb", 0.0),
        "integrated.em_iterations": iters,
        "integrated.fusion_events": counts.get("integrated.fusion_events", 0.0),
        "integrated.count_accuracy": quality["count_accuracy"],
        "pipeline.segments": segments,
        "pipeline.segment_payload_mb":
            counts.get("pipeline.segment_payload_bytes", 0.0) / segments / 1e6
            if segments else 0.0,
        "pipeline.der": quality["der"],
        # the tracer's own cost: each span's wrapper, timed on a no-op, and its counters
        "trace.overhead_s": spans * tr["wrapper_cost_s"] + bookkeeping,
        "trace.bookkeeping_s": bookkeeping,
        "trace.wall_s": tr["wall_s"],
        "trace.unattributed_s": tr["wall_s"] - tr["root_self_s"],
    })
    return {name: _metric(values[name], unit) for name, unit in per_layer_names()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli_meeting", "counting_sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "mixsep" / "__init__.py").is_file():
        print(f"error: no mixsep sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    env = dict(os.environ, **PINNED, MIXSEP_LOG="WARNING")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    os.environ.update(env)
    sys.path.insert(0, str(SRC))
    import mixsep
    import scenes

    if Path(mixsep.__file__).resolve().parent != (SRC / "mixsep").resolve():
        print(f"error: imported mixsep from {mixsep.__file__}, not {SRC}", file=sys.stderr)
        return 2

    in_dir = ROOT / ".perfbench_out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    if in_dir.exists():
        shutil.rmtree(in_dir)
    manifest = scenes.make_inputs(args.workload, args.seed, in_dir)
    setup = [] if args.trace else setup_probes(args.workload, in_dir, env)
    result_path = in_dir / "work.json"
    spawned_at = perf_counter()
    subprocess.run(
        [sys.executable, str(HERE / "work.py"), "--workload", args.workload,
         "--inputs", str(in_dir), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--result", str(result_path)],
        env=env, check=True,
    )
    work = json.loads(result_path.read_text())
    setup.append(work["loaded_at"] - spawned_at)  # the measured process is a start too

    import checks

    attempted = sum(len(r["ok"]) for r in work["rounds"])
    failed = sum(not ok for r in work["rounds"] for ok in r["ok"])
    try:
        quality = score_run(args.workload, manifest, in_dir, work)
    except checks.CheckFailed as exc:
        print(f"check failed: {exc} (outputs kept in {in_dir})", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                          "metrics": {}}))
        return 1
    print(f"diagnostics: (true, estimated) counts {quality['counts']}, "
          f"DER {quality['der']:.4f}, worst relative log-likelihood drop "
          f"{quality['worst_loglik_drop']:.2e}", file=sys.stderr)
    metrics = per_layer(work, quality) if args.trace else end_to_end(work, quality, setup)
    shutil.rmtree(in_dir)
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
