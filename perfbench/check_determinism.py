"""Benchmark test: ``mixsep run`` writes the same RTTM bytes with 1 and 2 jobs.

Uses the ``cli_meeting`` inputs of one seed. Run from the root of a
checkout (takes about a minute)::

    PYTHONPATH=src python3 -m pytest -q perfbench/check_determinism.py
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(HERE), str(SRC)]

import scenes  # noqa: E402


def test_rttm_identical_for_one_and_two_jobs(tmp_path):
    manifest = scenes.make_inputs("cli_meeting", 7, tmp_path / "inputs")
    (op,) = manifest["ops"]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", MIXSEP_LOG="WARNING",
               PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    rttm = {}
    for jobs in (1, 2):
        config = tmp_path / f"jobs{jobs}.json"
        config.write_text(json.dumps(dict(op["config"], out_dir=str(tmp_path / f"out{jobs}"))))
        subprocess.run(
            [sys.executable, "-m", "mixsep.cli", "run", "--config", str(config),
             "--jobs", str(jobs)],
            env=env, check=True, timeout=600,
        )
        rttm[jobs] = (tmp_path / f"out{jobs}" / "meeting" / "hyp.rttm").read_bytes()
    assert rttm[1]
    assert rttm[1] == rttm[2]
