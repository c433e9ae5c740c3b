import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from helpers import wav_bytes

import mixsep
from mixsep import cli, frontend, pipeline
from mixsep.errors import ConfigurationError
from mixsep.synth import ScenarioConfig, SegmentPlan


def small_scenario(seed=3, overlap=0.2):
    return ScenarioConfig(
        k_true=2,
        segments=[SegmentPlan(7.0, [0, 1]), SegmentPlan(7.0, [0, 1])],
        channels=3,
        embed_dim=16,
        sample_rate=2000,
        stft_size_ms=32.0,
        window_ms=25.0,
        shift_ms=8.0,
        overlap=overlap,
        seed=seed,
    )


def write_scenario(tmp_path, scenario, name="scenario.json"):
    path = tmp_path / name
    path.write_text(scenario.to_json())
    return path


def run_config_dict(bundle_dir, out_dir, **overrides):
    cfg = {
        "inputs": [
            {
                "id": "meet0",
                "audio": str(bundle_dir / "audio.wav"),
                "embeddings": str(bundle_dir / "embeddings.emb"),
            }
        ],
        "out_dir": str(out_dir),
        "seed": 1,
        "stft_size_ms": 32.0,
        "window_ms": 25.0,
        "shift_ms": 8.0,
        "vad_window_s": 12.0,
        "vad_threshold_db": 8.0,
        "max_segment_s": 10.0,
        "min_segment_s": 1.0,
        "k_init": 4,
        "init_iterations": 15,
        "em_iterations": 30,
        "k_total": 2,
    }
    cfg.update(overrides)
    return cfg


class TestRunConfig:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError):
            cli.RunConfig.from_json(json.dumps({"frobnicate": 1}))

    def test_defaults_match_reference_configuration(self):
        cfg = cli.RunConfig()
        assert cfg.k_init == 10
        assert cfg.init_mode == "per_segment"
        assert cfg.fusion == "spectral"
        assert cfg.tau_spectral == 0.7
        assert cfg.tau_iou == 0.85
        assert cfg.em_iterations == 100
        assert cfg.init_iterations == 30
        assert cfg.kappa_max == 35.0

    def test_invalid_fusion_rejected(self):
        with pytest.raises(ConfigurationError):
            cli.RunConfig(fusion="never")

    @pytest.mark.parametrize("kappa_max", [-1.0, 1e7])
    def test_kappa_cap_outside_checked_range_rejected(self, kappa_max):
        with pytest.raises(ConfigurationError):
            cli.RunConfig.from_json(json.dumps({"kappa_max": kappa_max}))

    @pytest.mark.parametrize(
        "item",
        [
            "audio.wav",
            {"audio": "a.wav"},
            {"embeddings": "e.emb"},
            {"audio": "a.wav", "embeddings": 3},
            {"audio": "a.wav", "embeddings": "e.emb", "id": 7},
        ],
        ids=["not_a_dict", "no_embeddings", "no_audio", "non_string_embeddings", "non_string_id"],
    )
    def test_malformed_inputs_rejected(self, item):
        with pytest.raises(ConfigurationError):
            cli.RunConfig(inputs=[item])

    def test_input_without_id_accepted(self):
        cli.RunConfig(inputs=[{"audio": "a.wav", "embeddings": "e.emb"}])


def fresh_python(args, cwd):
    """Run a fresh interpreter that imports this mixsep; returns the finished process."""
    paths = [str(Path(mixsep.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True)


SCIPY_LOADED = "[m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]"


def test_import_leaves_heavy_scipy_out(tmp_path):
    # start-up cost: NumPy is mixsep's only runtime dependency, so importing
    # the command line loads no SciPy module at all
    proc = fresh_python(["-c", f"import sys, mixsep.cli; print({SCIPY_LOADED})"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_run_loads_no_scipy(bundle, tmp_path):
    # the whole run path, alignment included, is NumPy: a finished
    # `mixsep run` has loaded no SciPy module either
    config = tmp_path / "run.json"
    config.write_text(json.dumps(run_config_dict(bundle, tmp_path / "out")))
    probe = (
        "import sys; from mixsep import cli; "
        f"code = cli.main(['run', '--config', {str(config)!r}, '--jobs', '1']); "
        f"print(code, {SCIPY_LOADED})"
    )
    proc = fresh_python(["-c", probe], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"
    assert (tmp_path / "out" / "meet0" / "hyp.rttm").exists()


class TestCmdSynth:
    def test_bundle_files_written(self, tmp_path):
        scen = write_scenario(tmp_path, small_scenario())
        out = tmp_path / "bundle"
        assert cli.main(["synth", "--scenario", str(scen), "--out", str(out)]) == 0
        for name in ("audio.wav", "embeddings.emb", "ref.rttm", "truth_masks.msk", "truth.json"):
            assert (out / name).exists(), name

    def test_deterministic_bytes(self, tmp_path):
        scen = write_scenario(tmp_path, small_scenario())
        out1, out2 = tmp_path / "b1", tmp_path / "b2"
        cli.main(["synth", "--scenario", str(scen), "--out", str(out1)])
        cli.main(["synth", "--scenario", str(scen), "--out", str(out2)])
        for name in ("audio.wav", "embeddings.emb", "ref.rttm", "truth_masks.msk", "truth.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_zero_overlap_reference_disjoint(self, tmp_path):
        scen = write_scenario(tmp_path, small_scenario(overlap=0.0))
        out = tmp_path / "bundle"
        cli.main(["synth", "--scenario", str(scen), "--out", str(out)])
        from mixsep.rttm import read_rttm

        turns = sorted(read_rttm(out / "ref.rttm"), key=lambda t: t[1])
        for a, b in zip(turns, turns[1:]):
            assert a[2] <= b[1] + 1e-9

    def test_missing_scenario_exit_one(self, tmp_path):
        assert cli.main(["synth", "--scenario", str(tmp_path / "no.json"), "--out", str(tmp_path / "o")]) == 1


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bundle_home")
    scen = write_scenario(tmp, small_scenario())
    out = tmp / "bundle"
    assert cli.main(["synth", "--scenario", str(scen), "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def finished_run(bundle, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("run_home")
    out_dir = tmp / "out"
    config = tmp / "run.json"
    config.write_text(json.dumps(run_config_dict(bundle, out_dir)))
    code = cli.main(["run", "--config", str(config)])
    return code, out_dir / "meet0", bundle


class TestCmdRun:
    def test_full_success(self, finished_run):
        code, out, bundle_dir = finished_run
        assert code == 0
        assert (out / "hyp.rttm").exists()
        assert (out / "report.json").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["num_segments"] >= 2
        assert all(s["error"] is None for s in report["segments"])
        wavs = list(out.glob("spk*.wav"))
        assert len(wavs) == 2
        masks = list(out.glob("masks_*.msk"))
        assert len(masks) == report["num_segments"]
        # config echo makes the run reproducible from its own output
        assert report["config"]["k_init"] == 4

    def test_missing_embeddings_exit_one(self, bundle, tmp_path, capsys):
        cfg = run_config_dict(bundle, tmp_path / "o")
        cfg["inputs"][0]["embeddings"] = str(bundle / "nonexistent.emb")
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(cfg))
        assert cli.main(["run", "--config", str(config)]) == 1
        assert "nonexistent.emb" in capsys.readouterr().err

    def test_unknown_config_key_exit_one(self, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"inputs": [], "mystery": True}))
        assert cli.main(["run", "--config", str(config)]) == 1

    def test_input_without_embeddings_exit_one(self, bundle, tmp_path, capsys):
        cfg = run_config_dict(bundle, tmp_path / "o")
        del cfg["inputs"][0]["embeddings"]
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(cfg))
        assert cli.main(["run", "--config", str(config)]) == 1
        assert "error: cannot load config" in capsys.readouterr().err

    def test_malformed_wav_exits_one_without_traceback(self, bundle, tmp_path):
        wav = tmp_path / "zero.wav"  # its header declares zero channels
        wav.write_bytes(wav_bytes(struct.pack("<HHIIHH", 1, 0, 8000, 0, 0, 16), b"\x00" * 4))
        cfg = run_config_dict(bundle, tmp_path / "o")
        cfg["inputs"][0]["audio"] = str(wav)
        config = tmp_path / "run.json"
        config.write_text(json.dumps(cfg))
        proc = fresh_python(["-m", "mixsep.cli", "run", "--config", str(config)], tmp_path)
        assert proc.returncode == 1
        assert "error: meet0: " in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_nan_samples_exit_one_without_traceback(self, bundle, tmp_path):
        # non-finite audio must not pass the VAD as silence and end in a
        # run with no turns and exit 0
        audio = frontend.read_wav(bundle / "audio.wav")
        samples = audio.samples.T.astype("<f4")  # (N, C), interleaved on write
        samples[4000:4050, 0] = np.nan
        channels = samples.shape[1]
        fmt = struct.pack(
            "<HHIIHH", 3, channels, audio.sample_rate, audio.sample_rate * 4 * channels,
            4 * channels, 32,
        )
        wav = tmp_path / "nan.wav"
        wav.write_bytes(wav_bytes(fmt, samples.tobytes()))
        cfg = run_config_dict(bundle, tmp_path / "o")
        cfg["inputs"][0]["audio"] = str(wav)
        config = tmp_path / "run.json"
        config.write_text(json.dumps(cfg))
        proc = fresh_python(["-m", "mixsep.cli", "run", "--config", str(config)], tmp_path)
        assert proc.returncode == 1
        assert "error: meet0: " in proc.stderr
        assert "NaN" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_corrupt_segment_partial_failure(self, bundle, tmp_path, monkeypatch):
        calls = {"n": 0}
        real = pipeline.joint_em

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("injected fault")
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline, "joint_em", flaky)
        out_dir = tmp_path / "out"
        config = tmp_path / "run.json"
        config.write_text(json.dumps(run_config_dict(bundle, out_dir)))
        assert cli.main(["run", "--config", str(config)]) == 2
        report = json.loads((out_dir / "meet0" / "report.json").read_text())
        errors = [s for s in report["segments"] if s.get("error")]
        assert len(errors) == 1
        assert "injected fault" in errors[0]["error"]

    def test_oversized_segments_partial_and_next_input_runs(self, bundle, tmp_path):
        # two talkers against k_total=1: each meeting's segments fail alone,
        # the run goes on to the second input and exits partial
        out_dir = tmp_path / "out"
        cfg = run_config_dict(bundle, out_dir, k_total=1)
        cfg["inputs"].append(dict(cfg["inputs"][0], id="meet1"))
        config = tmp_path / "run.json"
        config.write_text(json.dumps(cfg))
        assert cli.main(["run", "--config", str(config)]) == 2
        for ident in ("meet0", "meet1"):
            report = json.loads((out_dir / ident / "report.json").read_text())
            errors = [s["error"] for s in report["segments"] if s.get("error")]
            assert errors and all("more than k_total=1" in err for err in errors)


class TestCmdScore:
    def test_identical_ref_hyp_zero(self, bundle, capsys):
        ref = bundle / "ref.rttm"
        assert cli.main(["score", "--ref", str(ref), "--hyp", str(ref)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["der"] == 0.0

    def test_full_bundle_emits_three_families(self, finished_run, capsys):
        code, out, bundle_dir = finished_run
        assert code == 0
        rc = cli.main(
            [
                "score",
                "--ref",
                str(bundle_dir / "ref.rttm"),
                "--hyp",
                str(out / "hyp.rttm"),
                "--bundle",
                str(bundle_dir),
            ]
        )
        assert rc == 0
        scores = json.loads(capsys.readouterr().out)
        assert "der" in scores
        assert "counting" in scores
        assert "mask_auc" in scores
        assert scores["der"] < 0.15
        assert scores["mask_auc"] > 0.8

    def test_truncated_truth_masks_exit_one_without_traceback(self, finished_run, tmp_path):
        code, out, bundle_dir = finished_run
        broken = tmp_path / "bundle"
        broken.mkdir()
        for name in ("truth.json", "ref.rttm"):
            (broken / name).write_bytes((bundle_dir / name).read_bytes())
        (broken / "truth_masks.msk").write_bytes(b"MSK1\x01\x00")  # 6 bytes
        args = ["--ref", str(broken / "ref.rttm"), "--hyp", str(out / "hyp.rttm")]
        proc = fresh_python(
            ["-m", "mixsep.cli", "score", *args, "--bundle", str(broken)], tmp_path
        )
        assert proc.returncode == 1
        assert "error: " in proc.stderr and "truncated header" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_malformed_rttm_names_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.rttm"
        bad.write_text("SPEAKER meet 1 0.0 1.0 <NA> <NA> a <NA> <NA>\nSPEAKER broken\n")
        good = tmp_path / "good.rttm"
        good.write_text("SPEAKER meet 1 0.0 1.0 <NA> <NA> a <NA> <NA>\n")
        assert cli.main(["score", "--ref", str(good), "--hyp", str(bad)]) == 1
        assert "line 2" in capsys.readouterr().err


class TestSynthScale:
    def test_figure_scale_bundle_under_budget(self, tmp_path):
        # 725 segments (the published evaluation size) at minimal dimensions
        import time

        from mixsep.synth import ScenarioConfig, SegmentPlan

        rng = np.random.default_rng(0)
        plans = []
        for _ in range(725):
            n = int(rng.integers(1, 6))
            plans.append(SegmentPlan(2.0, sorted(rng.choice(8, size=n, replace=False).tolist())))
        scenario = ScenarioConfig(
            k_true=8, segments=plans, channels=2, embed_dim=8,
            sample_rate=2000, stft_size_ms=16.0, window_ms=16.0, shift_ms=8.0,
            overlap=0.2, gap_s=0.5, block_s=1.0, seed=0,
        )
        scen = tmp_path / "big.json"
        scen.write_text(scenario.to_json())
        out = tmp_path / "big_bundle"
        t0 = time.time()
        assert cli.main(["synth", "--scenario", str(scen), "--out", str(out)]) == 0
        elapsed = time.time() - t0
        assert elapsed < 300.0
        meta = json.loads((out / "truth.json").read_text())
        assert len(meta["segments"]) == 725


class TestParallelJobs:
    def test_two_jobs_matches_sequential(self, bundle, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        for out_dir, jobs in ((out1, 1), (out2, 2)):
            config = tmp_path / f"run{jobs}.json"
            config.write_text(json.dumps(run_config_dict(bundle, out_dir, jobs=jobs)))
            assert cli.main(["run", "--config", str(config)]) == 0
        a = (out1 / "meet0" / "hyp.rttm").read_bytes()
        b = (out2 / "meet0" / "hyp.rttm").read_bytes()
        assert a == b
