import importlib.util
import inspect
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
from mixsep.integrated import JointEmConfig
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
        # a segment has one start, so no setting selects it
        with pytest.raises(ConfigurationError, match="unknown config keys: init_mode"):
            cli.RunConfig.from_json(json.dumps({"init_mode": "global"}))

    def test_defaults_match_reference_configuration(self):
        cfg = cli.RunConfig()
        assert cfg.k_init == 10
        assert cfg.fusion == "spectral"
        assert cfg.tau_spectral == 0.7
        assert cfg.em_iterations == 100
        assert cfg.init_iterations == 30
        # the values no run changes are the library's defaults
        assert JointEmConfig().kappa_max == 35.0
        assert mixsep.vmf.KAPPA_MAX == 35.0
        smoothing = inspect.signature(pipeline.smooth_and_segment).parameters
        defaults = [smoothing[n].default for n in ("median_frames", "on_thresh", "min_dur_s")]
        assert defaults == [21, 0.5, 0.5]
        # a VAD floor window longer than the synthetic utterances
        assert cfg.vad_window_s == 12.0
        assert cfg.vad_threshold_db == 8.0
        vad = inspect.signature(frontend.energy_vad).parameters
        assert (vad["window_s"].default, vad["threshold_db"].default) == (12.0, 8.0)

    def test_invalid_fusion_rejected(self):
        with pytest.raises(ConfigurationError):
            cli.RunConfig(fusion="never")

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

    @pytest.mark.parametrize(
        "item",
        [
            {"id": "../esc"},
            {"id": "x/../a"},
            {"id": "a\\b"},
            {"id": ".."},
            {"id": "."},
            {"audio": "..", "id": ""},
            {"audio": "/"},
            {"id": "my meeting"},
            {"id": "tab\tid"},
            {"audio": "my meeting.wav"},
        ],
        ids=[
            "parent_escape", "nested", "backslash", "dotdot", "dot", "dotdot_stem", "empty_stem",
            "space", "tab", "space_in_stem",
        ],
    )
    def test_id_that_is_not_one_plain_path_component_rejected(self, item):
        # an input's id names its directory under out_dir: "../esc" wrote
        # outside it, and "a" and "x/../a" named one directory. It is also
        # the RTTM's file field: "my meeting" was read back as file "my"
        item = {"audio": "a.wav", "embeddings": "e.emb", **item}
        with pytest.raises(ConfigurationError, match="one plain path component"):
            cli.RunConfig(inputs=[item])

    @pytest.mark.parametrize(
        "setting",
        [
            {"tau_spectral": 1.5},
            {"tau_spectral": 0.0},
            {"tau_spectral": float("nan")},
            {"tau_spectral": 1.0},
            {"tau_spectral": -0.2},
            {"k_total": -1},
            {"k_total": 0},
            {"fusion_start": -1},
        ],
    )
    def test_fusion_setting_outside_range_rejected(self, setting):
        with pytest.raises(ConfigurationError):
            cli.RunConfig.from_json(json.dumps(setting))

    @pytest.mark.parametrize(
        "setting",
        [
            {"seed": -1}, {"k_init": 0}, {"em_iterations": 0}, {"jobs": 0}, {"jobs": -3},
            {"embed_dim": 1}, {"embed_dim": 0},
        ],
    )
    def test_seed_and_counts_outside_range_rejected(self, setting):
        with pytest.raises(ConfigurationError):
            cli.RunConfig.from_json(json.dumps(setting))

    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"window_ms": 0.0}, "window_ms must be > 0"),
            ({"stft_size_ms": 0.0}, "stft_size_ms must be > 0"),
            ({"shift_ms": 0.0}, "shift_ms must be > 0"),
            ({"shift_ms": -8.0}, "shift_ms must be > 0"),
            ({"vad_window_s": 0.0}, "vad_window_s must be > 0"),
            ({"max_segment_s": 0.0}, "max_segment_s must be > 0"),
            ({"stft_size_ms": 16.0}, "window_ms must not exceed stft_size_ms"),
            ({"window_ms": 80.0}, "window_ms must not exceed stft_size_ms"),
            ({"min_segment_s": -1.0}, r"min_segment_s must lie in \[0, max_segment_s\]"),
            ({"max_segment_s": 0.5, "min_segment_s": 1.0}, "min_segment_s must lie in"),
            ({"max_pause_s": -0.5}, "max_pause_s must be >= 0"),
        ],
        ids=[
            "window_zero", "stft_zero", "shift_zero", "shift_negative", "vad_window_zero",
            "max_segment_zero", "stft_below_window", "window_above_stft", "min_segment_negative",
            "min_segment_above_max", "max_pause_negative",
        ],
    )
    def test_setting_that_cannot_frame_or_keep_a_segment_rejected(self, setting, message):
        # each ran to exit 0 with no segment, or failed only after the
        # meeting's output directory was made
        with pytest.raises(ConfigurationError, match=message):
            cli.RunConfig.from_json(json.dumps(setting))

    @pytest.mark.parametrize(
        "setting",
        [
            {"init_iterations": 30.0},
            {"k_init": 4.0},
            {"seed": 1.5},
            {"seed": True},
            {"jobs": 2.0},
            {"init_iterations": "30"},
            {"em_iterations": False},
            {"fusion_start": 10.0},
            {"embed_dim": 16.0},
            {"k_total": True},
            {"k_total": 2.5},
        ],
    )
    def test_non_integer_count_rejected(self, setting):
        # a float, a bool or a string where a count belongs fails at load
        with pytest.raises(ConfigurationError, match="must be an integer"):
            cli.RunConfig.from_json(json.dumps(setting))

    @pytest.mark.parametrize(
        "setting",
        [
            {"vad_threshold_db": "8"},
            {"shift_ms": "8"},
            {"tau_spectral": "0.7"},
            {"max_pause_s": float("nan")},
            {"max_segment_s": True},
            {"min_segment_s": float("inf")},
            {"window_ms": None},
        ],
    )
    def test_real_setting_not_a_finite_number_rejected(self, setting):
        # a string ended in a traceback or failed every segment, NaN failed
        # every segment and a bool ran silently as 0 or 1
        with pytest.raises(ConfigurationError, match="must be a finite number"):
            cli.RunConfig.from_json(json.dumps(setting))

    @pytest.mark.parametrize(
        "setting", [{"out_dir": 5}, {"out_dir": None}, {"fusion": 3}, {"fusion": None}]
    )
    def test_non_string_setting_rejected(self, setting):
        # a number or null out_dir ended in a traceback after the load
        with pytest.raises(ConfigurationError, match="must be a string"):
            cli.RunConfig.from_json(json.dumps(setting))

    def test_integer_real_settings_accepted(self):
        cfg = cli.RunConfig.from_json(json.dumps({"shift_ms": 8, "max_segment_s": 10}))
        assert (cfg.shift_ms, cfg.max_segment_s) == (8, 10)

    def test_integer_counts_and_nulls_accepted(self):
        cfg = cli.RunConfig.from_json(json.dumps(
            {"seed": 3, "jobs": 2, "k_init": 4, "fusion_start": 10, "embed_dim": None,
             "k_total": 2}
        ))
        assert (cfg.seed, cfg.k_init, cfg.k_total, cfg.embed_dim) == (3, 4, 2, None)
        assert cli.RunConfig(seed=np.int64(7)).seed == 7


def fresh_python(args, cwd, **env_vars):
    """Run a fresh interpreter that imports this mixsep, with ``env_vars`` added
    to the environment; returns the finished process."""
    paths = [str(Path(mixsep.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, **env_vars, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True)


def loaded(*packages):
    """Source of an expression listing the loaded modules of ``packages``."""
    return (
        "[m for m in sys.modules if any(m == p or m.startswith(p + '.') "
        f"for p in {packages!r})]"
    )


def test_import_leaves_heavy_scipy_out(tmp_path):
    # start-up cost: NumPy is mixsep's only runtime dependency, so importing
    # the command line loads no SciPy module at all, and none of NumPy's
    # lazily loaded random, masked-array and FFT packages
    lazy = loaded("numpy.random", "numpy.ma", "numpy.fft")
    probe = f"import sys, mixsep.cli; print({loaded('scipy')}, {lazy})"
    proc = fresh_python(["-c", probe], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[] []"


def test_run_loads_no_scipy(bundle, tmp_path):
    # the whole run path, alignment included, is NumPy: a finished
    # `mixsep run` has loaded no SciPy module either, nor numpy.ma (the
    # posterior smoothing takes its median without np.median's NaN check)
    config = tmp_path / "run.json"
    config.write_text(json.dumps(run_config_dict(bundle, tmp_path / "out")))
    probe = (
        "import sys; from mixsep import cli; "
        f"code = cli.main(['run', '--config', {str(config)!r}, '--jobs', '1']); "
        f"print(code, {loaded('scipy')}, {loaded('numpy.ma')})"
    )
    proc = fresh_python(["-c", probe], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 [] []"
    assert (tmp_path / "out" / "meet0" / "hyp.rttm").exists()


def test_pool_workers_fork_with_numpy_random(bundle, tmp_path):
    # every segment's k-means++ needs numpy.random, so `--jobs 2` loads it
    # before the pool's workers fork, not in each worker
    config = tmp_path / "run.json"
    config.write_text(json.dumps(run_config_dict(bundle, tmp_path / "out")))
    probe = (
        "import sys; from mixsep import cli, pipeline\n"
        "class Pool(pipeline.ProcessPoolExecutor):\n"
        "    def __init__(self, *args, **kwargs):\n"
        "        print('numpy.random' in sys.modules)\n"
        "        super().__init__(*args, **kwargs)\n"
        "pipeline.ProcessPoolExecutor = Pool\n"
        "pipeline.usable_cpus = lambda: 2\n"
        f"print(cli.main(['run', '--config', {str(config)!r}, '--jobs', '2']))\n"
    )
    proc = fresh_python(["-c", probe], tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("True", "0")


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


def load_tracer():
    """The benchmark's tracer module, ``perfbench/tracing.py``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_spans_measure_work(bundle, tmp_path):
    # every function the benchmark times runs in a plain mixsep run, and so
    # records a call, except three that only the benchmark names
    tracing = load_tracer()
    config = tmp_path / "run.json"
    config.write_text(json.dumps(run_config_dict(bundle, tmp_path / "out")))
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        assert cli.cmd_run(config, jobs=1) == 0
    finally:
        uninstall()
    calls = {name: count for name, (_, count) in tracing.self_times(tracer.spans).items()}
    idle = {span for _, _, span in tracing.TRACED if not calls.get(span)}
    assert idle == {
        "cacg.cacg_log_pdf_stack",
        "cacg.normalize_observations",
        "numerics.chol_logdet_quad",
    }
    assert calls["cacg.cacg_m_step"] == calls["pipeline.segment_task"] >= 2


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
        assert 0.0 < report["voiced_fraction"] <= 1.0

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

    @pytest.mark.parametrize(
        "setting",
        [{"tau_spectral": 1.5}, {"k_total": -1}, {"fusion": "iou"}, {"fusion_start": -1}],
    )
    def test_fusion_setting_outside_range_exits_one_before_any_segment(
        self, bundle, tmp_path, capsys, monkeypatch, setting
    ):
        # rejected as the config loads, not by every segment's EM
        meetings = []
        monkeypatch.setattr(pipeline, "run_meeting", lambda *args, **kw: meetings.append(args))
        out_dir = tmp_path / "out"
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(run_config_dict(bundle, out_dir, **setting)))
        assert cli.main(["run", "--config", str(config)]) == 1
        assert "error: cannot load config" in capsys.readouterr().err
        assert not meetings and not out_dir.exists()

    @pytest.mark.parametrize(
        "setting, flags",
        [
            ({"k_init": 0}, []),
            ({}, ["--seed", "-3"]),
            ({}, ["--jobs", "2", "--seed", "-1"]),
            ({"jobs": 0}, []),
            ({}, ["--jobs", "-3"]),
            ({"embed_dim": 1}, []),
        ],
        ids=["k_init", "seed_flag", "seed_flag_with_jobs", "jobs", "jobs_flag", "embed_dim"],
    )
    def test_seed_or_count_outside_range_exits_one_before_any_segment(
        self, bundle, tmp_path, capsys, monkeypatch, setting, flags
    ):
        # a negative seed failed only after every segment's EM, and a jobs
        # value below 1 ran serially without a word; the --seed and --jobs
        # overrides are checked as the config file's values are
        meetings = []
        monkeypatch.setattr(pipeline, "run_meeting", lambda *args, **kw: meetings.append(args))
        out_dir = tmp_path / "out"
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(run_config_dict(bundle, out_dir, **setting)))
        assert cli.main(["run", "--config", str(config), *flags]) == 1
        assert "error: cannot load config" in capsys.readouterr().err
        assert not meetings and not out_dir.exists()

    @pytest.mark.parametrize(
        "setting", [{"fusion_start": 10.0}, {"k_init": 4.0}, {"seed": 1.5}],
        ids=["fusion_start", "k_init", "seed"],
    )
    def test_non_integer_count_exits_one_before_any_segment(
        self, bundle, tmp_path, capsys, monkeypatch, setting
    ):
        # a float count ran every segment into a TypeError, and a float seed
        # ended in a traceback without report.json
        meetings = []
        monkeypatch.setattr(pipeline, "run_meeting", lambda *args, **kw: meetings.append(args))
        out_dir = tmp_path / "out"
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(run_config_dict(bundle, out_dir, **setting)))
        assert cli.main(["run", "--config", str(config)]) == 1
        assert "error: cannot load config" in capsys.readouterr().err
        assert not meetings and not out_dir.exists()

    @pytest.mark.parametrize(
        "setting",
        [{"vad_threshold_db": "8"}, {"tau_spectral": "0.7"}, {"max_pause_s": float("nan")},
         {"max_segment_s": True}],
        ids=["vad_threshold_db", "tau_spectral", "max_pause_s", "max_segment_s"],
    )
    def test_bad_real_setting_exits_one_before_any_segment(
        self, bundle, tmp_path, capsys, monkeypatch, setting
    ):
        meetings = []
        monkeypatch.setattr(pipeline, "run_meeting", lambda *args, **kw: meetings.append(args))
        out_dir = tmp_path / "out"
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(run_config_dict(bundle, out_dir, **setting)))
        assert cli.main(["run", "--config", str(config)]) == 1
        assert "error: cannot load config" in capsys.readouterr().err
        assert not meetings and not out_dir.exists()

    @pytest.mark.parametrize(
        "setting",
        [{"window_ms": 0.0}, {"max_segment_s": 0.5}, {"vad_window_s": 0.0},
         {"stft_size_ms": 16.0}],
        ids=["window_ms", "max_segment_s", "vad_window_s", "stft_size_ms"],
    )
    def test_setting_that_cannot_frame_or_keep_a_segment_exits_one_before_any_directory(
        self, bundle, tmp_path, capsys, monkeypatch, setting
    ):
        # the first three ran to exit 0 with no segment (the last with 67 %
        # of the frames voiced, as max_segment_s fell below min_segment_s),
        # and a window above the STFT size failed after the meeting's
        # directory was made
        meetings = []
        monkeypatch.setattr(pipeline, "run_meeting", lambda *args, **kw: meetings.append(args))
        out_dir = tmp_path / "out"
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(run_config_dict(bundle, out_dir, **setting)))
        assert cli.main(["run", "--config", str(config)]) == 1
        assert "error: cannot load config" in capsys.readouterr().err
        assert not meetings and not out_dir.exists()

    def test_embeddings_of_one_column_exit_one(self, bundle, tmp_path, capsys):
        # unit rows of one column ran through every segment's EM to exit 0,
        # dividing by zero in the concentration table on the way
        frames = frontend.read_f32_tensor(
            bundle / "embeddings.emb", frontend.EMBEDDING_MAGIC, 2
        )
        emb = tmp_path / "one.emb"
        frontend.write_embeddings(emb, np.where(frames[:, :1] < 0.0, -1.0, 1.0))
        cfg = run_config_dict(bundle, tmp_path / "o")
        cfg["inputs"][0]["embeddings"] = str(emb)
        config = tmp_path / "run.json"
        config.write_text(json.dumps(cfg))
        assert cli.main(["run", "--config", str(config)]) == 1
        assert "error: meet0: frames must be a T x E matrix with E >= 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [("kappa_max", 35.0), ("tau_iou", 0.85), ("activity_threshold", 0.5), ("k_target", 1),
         ("median_frames", 21), ("on_thresh", 0.5), ("min_dur_s", 0.5)],
    )
    def test_removed_setting_exits_one_as_unknown_key(
        self, bundle, tmp_path, capsys, monkeypatch, key, value
    ):
        # the paper's fixed values are library defaults, not run settings, and
        # tau_iou and activity_threshold set nothing: naming one, even at a
        # former value, fails the load
        meetings = []
        monkeypatch.setattr(pipeline, "run_meeting", lambda *args, **kw: meetings.append(args))
        out_dir = tmp_path / "out"
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(run_config_dict(bundle, out_dir, **{key: value})))
        assert cli.main(["run", "--config", str(config)]) == 1
        assert f"unknown config keys: {key}" in capsys.readouterr().err
        assert not meetings and not out_dir.exists()

    @pytest.mark.parametrize("named", [True, False], ids=["repeated_id", "shared_audio_stem"])
    def test_inputs_sharing_an_id_exit_one_before_any_directory(
        self, bundle, tmp_path, capsys, monkeypatch, named
    ):
        # an input's id (by default its audio file's stem) names its output
        # directory: the second meeting overwrote the first one's files
        meetings = []
        monkeypatch.setattr(pipeline, "run_meeting", lambda *args, **kw: meetings.append(args))
        out_dir = tmp_path / "out"
        cfg = run_config_dict(bundle, out_dir)
        item = cfg["inputs"][0]
        if not named:
            del item["id"]
        cfg["inputs"].append(dict(item))
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(cfg))
        assert cli.main(["run", "--config", str(config)]) == 1
        ident = "meet0" if named else "audio"
        assert f"inputs share the id {ident}" in capsys.readouterr().err
        assert not meetings and not out_dir.exists()

    def test_embedding_alignment_reported(self, finished_run, tmp_path):
        # an EMB1 file one frame longer than the STFT is truncated to it:
        # report.json says so, and the run is the one of the exact file
        _, run_dir, bundle_dir = finished_run
        frames = frontend.read_f32_tensor(
            bundle_dir / "embeddings.emb", frontend.EMBEDDING_MAGIC, 2
        )
        emb = tmp_path / "long.emb"
        frontend.write_embeddings(emb, np.concatenate([frames, frames[-1:]]))
        (tmp_path / "long.emb.json").write_bytes(
            (bundle_dir / "embeddings.emb.json").read_bytes()
        )
        cfg = run_config_dict(bundle_dir, tmp_path / "out")
        cfg["inputs"][0]["embeddings"] = str(emb)
        config = tmp_path / "run.json"
        config.write_text(json.dumps(cfg))
        assert cli.main(["run", "--config", str(config)]) == 0
        out = tmp_path / "out" / "meet0"
        assert json.loads((out / "report.json").read_text())["embedding_alignment"] == "truncated_1"
        assert json.loads((run_dir / "report.json").read_text())["embedding_alignment"] is None
        assert (out / "hyp.rttm").read_bytes() == (run_dir / "hyp.rttm").read_bytes()

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

    def test_truncated_wav_data_exits_one_naming_the_file(self, bundle, tmp_path):
        # the data chunk declares twice the bytes that follow its header;
        # reading only what is there would shorten the meeting and resample
        # the embeddings to fit it
        blob = (bundle / "audio.wav").read_bytes()
        wav = tmp_path / "half.wav"
        wav.write_bytes(blob[: len(blob) // 2])
        cfg = run_config_dict(bundle, tmp_path / "o")
        cfg["inputs"][0]["audio"] = str(wav)
        config = tmp_path / "run.json"
        config.write_text(json.dumps(cfg))
        proc = fresh_python(["-m", "mixsep.cli", "run", "--config", str(config)], tmp_path)
        assert proc.returncode == 1
        errors = [line for line in proc.stderr.splitlines() if line.startswith("error: meet0: ")]
        assert len(errors) == 1 and "half.wav: truncated data chunk" in errors[0]
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

    def test_all_silence_meeting_has_no_speakers(self, bundle, tmp_path):
        # a zeroed recording of the bundle's scene: the VAD finds no
        # segment, the run succeeds with no turns, and its report still
        # lists the (empty) speakers; two jobs start the pool regardless
        audio = frontend.read_wav(bundle / "audio.wav")
        wav = tmp_path / "silence.wav"
        silence = frontend.AudioBuffer(np.zeros_like(audio.samples), audio.sample_rate)
        frontend.write_wav(wav, silence)
        out_dir = tmp_path / "out"
        cfg = run_config_dict(bundle, out_dir)
        cfg["inputs"][0]["audio"] = str(wav)
        config = tmp_path / "run.json"
        config.write_text(json.dumps(cfg))
        assert cli.main(["run", "--config", str(config), "--jobs", "2"]) == 0
        assert (out_dir / "meet0" / "hyp.rttm").read_text() == ""
        report = json.loads((out_dir / "meet0" / "report.json").read_text())
        assert report["num_segments"] == 0 and report["segments"] == []
        assert report["speakers"] == []

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

    def test_fewer_voiced_frames_than_k_init_lowers_it(self, tmp_path):
        # a 1.5 s scene has a few hundred voiced frames: k_init 400 drops to
        # their count, with a note in the report, and the run succeeds
        scenario = ScenarioConfig(
            k_true=2, segments=[SegmentPlan(1.5, [0, 1])], channels=3, embed_dim=16,
            sample_rate=2000, stft_size_ms=32.0, window_ms=25.0, shift_ms=8.0, seed=3,
        )
        bundle = tmp_path / "bundle"
        assert cli.main(["synth", "--scenario", str(write_scenario(tmp_path, scenario)),
                         "--out", str(bundle)]) == 0
        out_dir = tmp_path / "out"
        config = tmp_path / "run.json"
        config.write_text(json.dumps(run_config_dict(
            bundle, out_dir, k_init=400, init_iterations=2, em_iterations=2, k_total=None
        )))
        assert cli.main(["run", "--config", str(config)]) == 0
        report = json.loads((out_dir / "meet0" / "report.json").read_text())
        assert report["num_segments"] == 1
        (segment,) = report["segments"]
        assert segment["error"] is None
        assert segment["notes"] and segment["notes"][0].startswith("k_init lowered from 400 to ")
        assert 1 < segment["initial_components"] <= 400

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

    @pytest.mark.parametrize(
        "second, correct",
        [
            ({"speaker_count": 3, "error": None}, 2),
            (None, 1),
            ({"speaker_count": 3, "error": "injected"}, 1),
            ({"speaker_count": 12, "error": None}, 1),
        ],
        ids=["both_right", "missed", "failed", "out_of_range"],
    )
    def test_counting_scores_every_truth_segment(self, tmp_path, capsys, second, correct):
        # a truth segment that no error-free run segment overlaps, or whose
        # estimate lies outside 1..8, counts as wrong; the matrix holds the rest
        bundle, run_dir = tmp_path / "bundle", tmp_path / "run"
        bundle.mkdir()
        run_dir.mkdir()
        (bundle / "truth.json").write_text(json.dumps({
            "frame_rate": 100.0,
            "segments": [{"id": "a", "start_frame": 0, "end_frame": 100},
                         {"id": "b", "start_frame": 200, "end_frame": 300}],
            "segment_counts": [2, 3],
        }))
        segments = [{"id": "s0", "start_s": 0.0, "end_s": 1.0, "speaker_count": 2, "error": None}]
        if second is not None:
            segments.append({"id": "s1", "start_s": 2.0, "end_s": 3.0, **second})
        report = {"frame_rate": 100.0, "segments": segments}
        (run_dir / "report.json").write_text(json.dumps(report))
        turns = "SPEAKER m 1 0.0 1.0 <NA> <NA> a <NA> <NA>\n"
        for path in (bundle / "ref.rttm", run_dir / "hyp.rttm"):
            path.write_text(turns)
        args = ["--ref", str(bundle / "ref.rttm"), "--hyp", str(run_dir / "hyp.rttm")]
        assert cli.main(["score", *args, "--bundle", str(bundle)]) == 0
        counting = json.loads(capsys.readouterr().out)["counting"]
        assert (counting["correct"], counting["total"]) == (correct, 2)
        assert counting["accuracy"] == correct / 2
        matrix = np.array(counting["matrix"])
        assert matrix[1, 1] == 1 and matrix.sum() == (2 if correct == 2 else 1)

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


class TestRankDeficientRecordings:
    @pytest.mark.parametrize("fault", ["dead", "duplicate"])
    def test_two_jobs_run_clean(self, bundle, tmp_path, fault):
        # the bundle's scene with channel 1 dead or a copy of channel 0:
        # every spatial covariance sits at the loading floor, and the whole
        # run (EM, beamformer, pool) must still need no numerical rescue
        audio = frontend.read_wav(bundle / "audio.wav")
        samples = audio.samples.copy()
        samples[1] = 0.0 if fault == "dead" else samples[0]
        wav = tmp_path / f"{fault}.wav"
        frontend.write_wav(wav, frontend.AudioBuffer(samples, audio.sample_rate))
        out_dir = tmp_path / "out"
        cfg = run_config_dict(bundle, out_dir)
        cfg["inputs"][0]["audio"] = str(wav)
        config = tmp_path / "run.json"
        config.write_text(json.dumps(cfg))
        proc = fresh_python(
            ["-m", "mixsep.cli", "run", "--config", str(config), "--jobs", "2"], tmp_path
        )
        assert proc.returncode == 0, proc.stderr
        assert "WARNING" not in proc.stdout + proc.stderr
        out = out_dir / "meet0"
        report = json.loads((out / "report.json").read_text())
        assert report["num_segments"] >= 2
        assert [s["speaker_count"] for s in report["segments"]] == [2] * report["num_segments"]
        assert all(s["error"] is None for s in report["segments"])
        wavs = sorted(out.glob("spk*.wav"))
        assert len(wavs) == 2
        for path in wavs:
            assert np.all(np.isfinite(frontend.read_wav(path).samples))


class TestBlasThreads:
    def test_thread_count_leaves_outputs_unchanged(self, tmp_path):
        # a fresh `mixsep run --jobs 1` of a three-segment meeting writes the
        # same bytes whether OpenBLAS runs one thread or two
        scenario = small_scenario()
        scenario.segments = [SegmentPlan(5.0, [0, 1]) for _ in range(3)]
        scen = write_scenario(tmp_path, scenario)
        bundle = tmp_path / "bundle"
        assert cli.main(["synth", "--scenario", str(scen), "--out", str(bundle)]) == 0
        outputs = []
        for threads in ("1", "2"):
            out_dir = tmp_path / f"out{threads}"
            config = tmp_path / f"run{threads}.json"
            config.write_text(json.dumps(run_config_dict(bundle, out_dir)))
            proc = fresh_python(
                ["-m", "mixsep.cli", "run", "--config", str(config), "--jobs", "1"],
                tmp_path, OPENBLAS_NUM_THREADS=threads,
            )
            assert proc.returncode == 0, proc.stderr
            out = out_dir / "meet0"
            files = ["hyp.rttm"] + sorted(p.name for p in out.glob("masks_*.msk"))
            outputs.append({name: (out / name).read_bytes() for name in files})
        assert len(outputs[0]) == 4  # the RTTM and one mask file per segment
        assert outputs[0] == outputs[1]
