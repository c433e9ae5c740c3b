"""Read one operation's outputs back, with readers of the benchmark's own.

In-process operations leave ``turns.json``, ``tracks.npz``, ``report.json``
and the program's ``masks_*.msk`` files; ``mixsep run`` leaves ``hyp.rttm``,
``spkNN.wav``, ``masks_*.msk`` and ``report.json`` under ``meeting/``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from scipy.io import wavfile


def read_masks(path: Path) -> np.ndarray:
    """MSK1: magic, three little-endian u32 (K, T, F), then float32 data."""
    raw = path.read_bytes()
    if raw[:4] != b"MSK1":
        raise ValueError(f"{path}: not a mask file")
    shape = tuple(int(v) for v in np.frombuffer(raw[4:16], dtype="<u4"))
    return np.frombuffer(raw[16:], dtype="<f4").reshape(shape).astype(float)


def read_rttm(path: Path):
    rows = []
    for line in path.read_text().splitlines():
        f = line.split()
        if f and f[0] == "SPEAKER":
            rows.append((f[7], float(f[3]), float(f[3]) + float(f[4])))
    return rows


def read(workload: str, op_dir: Path) -> dict:
    """``{"report", "turns", "tracks", "masks"}`` of one kept operation."""
    if workload == "cli_meeting":
        op_dir = op_dir / "meeting"
        turns = read_rttm(op_dir / "hyp.rttm")
        tracks = {}
        for path in sorted(op_dir.glob("spk*.wav")):
            _, data = wavfile.read(path)
            tracks[path.stem] = np.asarray(data, dtype=float).reshape(-1)
    else:
        turns = [(s, a, b) for s, a, b, _ in json.loads((op_dir / "turns.json").read_text())]
        with np.load(op_dir / "tracks.npz") as npz:
            tracks = {k: npz[k] for k in npz.files}
    masks = {p.stem[len("masks_"):]: read_masks(p) for p in sorted(op_dir.glob("masks_*.msk"))}
    report = json.loads((op_dir / "report.json").read_text())
    return {"report": report, "turns": turns, "tracks": tracks, "masks": masks}
