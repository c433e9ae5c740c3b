"""Per-layer tracing from outside the program.

The tracer replaces, for the length of a traced round, every attribute of a
loaded ``mixsep.*`` module that holds one of the traced functions with a
wrapper that records a span (name, start, end, parent). Modules import
functions by name, so one function can sit under several modules; all of
them are wrapped. Spans stay in memory. A pool worker forked from a traced
process inherits the wrappers and writes its spans to ``out_dir`` each
time its outermost span ends; the process that installed the tracer keeps
its own spans until :func:`aggregate` reads them.

A layer's self time is its span time minus the time of its child spans.
Work the wrappers do for counters that cost more than a few attribute reads
runs inside a ``trace.bookkeeping`` child span, so it is charged to tracing
and not to the layer.
"""

from __future__ import annotations

import functools
import importlib
import json
import logging
import os
import pickle
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

# (module, attribute, span name): every function timed in the traced run.
TRACED = (
    ("mixsep.frontend", "read_wav", "frontend.read_wav"),
    ("mixsep.frontend", "write_wav", "frontend.write_wav"),
    ("mixsep.frontend", "stft", "frontend.stft"),
    ("mixsep.frontend", "istft", "frontend.istft"),
    ("mixsep.frontend", "energy_vad", "frontend.energy_vad"),
    ("mixsep.frontend", "ingest_embeddings", "frontend.ingest_embeddings"),
    ("mixsep.vmf", "spherical_kmeans_pp", "vmf.spherical_kmeans_pp"),
    ("mixsep.vmf", "vmfmm_em", "vmf.vmfmm_em"),
    ("mixsep.vmf", "vmf_m_step", "vmf.vmf_m_step"),
    ("mixsep.vmf", "log_pdf_matrix", "vmf.log_pdf_matrix"),
    ("mixsep.numerics", "chol_with_loading", "numerics.chol_with_loading"),
    ("mixsep.numerics", "chol_logdet_quad", "numerics.chol_logdet_quad"),
    ("mixsep.numerics", "psd_solve", "numerics.psd_solve"),
    ("mixsep.cacg", "cacg_log_pdf_stack", "cacg.cacg_log_pdf_stack"),
    ("mixsep.cacg", "cacg_m_step", "cacg.cacg_m_step"),
    ("mixsep.cacg", "normalize_observations", "cacg.normalize_observations"),
    ("mixsep.cacg", "update_pi", "cacg.update_pi"),
    ("mixsep.integrated", "joint_em", "integrated.joint_em"),
    ("mixsep.integrated", "joint_m_step", "integrated.joint_m_step"),
    ("mixsep.integrated", "spectral_fusion_check", "integrated.spectral_fusion_check"),
    ("mixsep.pipeline", "initialize_segment", "pipeline.initialize_segment"),
    ("mixsep.pipeline", "smooth_and_segment", "pipeline.smooth_and_segment"),
    ("mixsep.pipeline", "beamform", "pipeline.beamform"),
    ("mixsep.pipeline", "_align_with_mapping", "pipeline.align"),
    ("mixsep.pipeline", "write_mask_tensor", "pipeline.write_mask_tensor"),
    ("mixsep.pipeline", "run_meeting", "pipeline.run_meeting"),
    ("mixsep.pipeline", "_segment_task", "pipeline.segment_task"),
    ("mixsep.cli", "cmd_run", "cli.cmd_run"),
)
POOL_SPAN = "pipeline.pool_wait"
STARTUP_SPAN = "cli.startup"
BOOKKEEPING_SPAN = "trace.bookkeeping"


class Tracer:
    """In-memory span recorder for one process (and the workers it forks)."""

    def __init__(self, out_dir: Path | None = None):
        self.out_dir = out_dir
        self.root_pid = os.getpid()
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self):
        self.spans = []  # [name, start, end, parent index]
        self.stack = []
        self.counts = defaultdict(float)
        self.chol_total = 0
        self.rescued = False
        self._flushes = 0

    def open(self, name: str, start: float | None = None) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter() if start is None else start, None, parent])
        self.stack.append(idx)
        return idx

    def close(self, idx: int):
        self.spans[idx][2] = perf_counter()
        self.stack.pop()
        if not self.stack and os.getpid() != self.root_pid and self.out_dir is not None:
            self.flush(f"spans-{os.getpid()}-{self._flushes}.json")
            self._flushes += 1

    def parent_name(self) -> str | None:
        """Name of the span enclosing the innermost open span."""
        if len(self.stack) < 2:
            return None
        return self.spans[self.stack[-2]][0]

    def flush(self, filename: str):
        """Write the spans and counts recorded so far and forget them."""
        payload = {"pid": os.getpid(), "root": os.getpid() == self.root_pid,
                   "spans": self.spans, "counts": dict(self.counts)}
        (self.out_dir / filename).write_text(json.dumps(payload))
        self.spans, self.counts = [], defaultdict(float)


# ---------------------------------------------------------------------------
# Counters read at layer boundaries


def _chol_pre(tracer, args, kwargs):
    tracer.rescued = False


def _chol_post(tracer, args, kwargs, result, before):
    n = int(np.prod(np.shape(args[0])[:-2], dtype=np.int64))
    tracer.counts["numerics.chol_matrices"] += n
    tracer.chol_total += n
    if tracer.rescued:
        tracer.counts["numerics.loading_rescues"] += 1


def _stage_pre(tracer, args, kwargs):
    return tracer.chol_total


def _e_step_post(tracer, args, kwargs, result, before):
    covariances, x = args[0], args[1]
    k, f = covariances.shape[:2]
    c, t = x.data.shape[:2]
    if tracer.parent_name() == "integrated.joint_em":
        tracer.counts["numerics.chol_units_em"] += (tracer.chol_total - before) / (k * f)
    mb = k * f * c * t * 16 / 1e6
    tracer.counts["cacg.intermediate_mb"] = max(tracer.counts["cacg.intermediate_mb"], mb)


def _m_step_post(tracer, args, kwargs, result, before):
    prev = args[2]
    if tracer.parent_name() == "integrated.joint_m_step":
        units = len(prev) * prev[0].num_bins
        tracer.counts["numerics.chol_units_em"] += (tracer.chol_total - before) / units


def _joint_em_post(tracer, args, kwargs, result, before):
    _, _, events, trace = result
    tracer.counts["integrated.em_iterations"] += len(trace)
    tracer.counts["integrated.fusion_events"] += len(events)


def _segment_task_post(tracer, args, kwargs, result, before):
    # the pickled size of what the task returns through the process pool
    tracer.counts["pipeline.segments"] += 1
    tracer.counts["pipeline.segment_payload_bytes"] += len(pickle.dumps(result))


# span name -> (pre hook or None, post hook, runs in a bookkeeping span)
HOOKS = {
    "numerics.chol_with_loading": (_chol_pre, _chol_post, False),
    "cacg.cacg_log_pdf_stack": (_stage_pre, _e_step_post, False),
    "cacg.cacg_m_step": (_stage_pre, _m_step_post, False),
    "integrated.joint_em": (None, _joint_em_post, False),
    "pipeline.segment_task": (None, _segment_task_post, True),
}


def _wrap(fn, name, tracer):
    pre, post, heavy = HOOKS.get(name, (None, None, False))

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        before = pre(tracer, args, kwargs) if pre else None
        try:
            result = fn(*args, **kwargs)
            if post is not None:
                book = tracer.open(BOOKKEEPING_SPAN) if heavy else None
                post(tracer, args, kwargs, result, before)
                if book is not None:
                    tracer.close(book)
            return result
        finally:
            tracer.close(idx)

    return traced


def wrapper_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds a wrapper adds to one call: a wrapped no-op against the bare one.

    The least of ``repeats`` timings of ``calls`` calls each.
    """
    def noop():
        return None

    tracer = Tracer()
    wrapped = _wrap(noop, "calibration", tracer)
    costs = []
    for _ in range(repeats):
        elapsed = []
        for fn in (noop, wrapped):
            tracer.spans.clear()
            start = perf_counter()
            for _ in range(calls):
                fn()
            elapsed.append(perf_counter() - start)
        costs.append((elapsed[1] - elapsed[0]) / calls)
    return min(costs)


def _traced_pool(pool_class, tracer):
    """Stand-in for the pool class: the pool's lifetime in the caller is one span."""

    class TracedPool:
        def __init__(self, *args, **kwargs):
            self._args, self._kwargs = args, kwargs

        def __enter__(self):
            self._idx = tracer.open(POOL_SPAN)
            self._pool = pool_class(*self._args, **self._kwargs)
            return self._pool.__enter__()

        def __exit__(self, *exc):
            try:
                return self._pool.__exit__(*exc)
            finally:
                tracer.close(self._idx)

    return TracedPool


class _RedrawCounter(logging.Handler):
    """Counts the vMF M-step's degenerate re-draw records."""

    def __init__(self, tracer):
        super().__init__(logging.DEBUG)
        self.tracer = tracer

    def emit(self, record):
        if "degenerate" in record.getMessage():
            self.tracer.counts["vmf.redraws"] += 1


def install(tracer: Tracer):
    """Wrap every traced function wherever a ``mixsep`` module holds it.

    Returns a callable that restores the originals.
    """
    wrappers = {}
    for module_name, attr, span in TRACED:
        fn = getattr(importlib.import_module(module_name), attr)
        wrappers[fn] = _wrap(fn, span, tracer)
    pipeline = importlib.import_module("mixsep.pipeline")
    wrappers[pipeline.ProcessPoolExecutor] = _traced_pool(pipeline.ProcessPoolExecutor, tracer)

    patched = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "mixsep" or name.startswith("mixsep.")):
            continue
        for key, value in list(vars(module).items()):
            try:
                wrapper = wrappers.get(value)
            except TypeError:  # unhashable attribute
                continue
            if wrapper is not None:
                setattr(module, key, wrapper)
                patched.append((module, key, value))

    real_cholesky = np.linalg.cholesky

    def cholesky(*args, **kwargs):
        try:
            return real_cholesky(*args, **kwargs)
        except np.linalg.LinAlgError:
            tracer.rescued = True
            raise

    np.linalg.cholesky = cholesky
    vmf_logger = logging.getLogger("mixsep.vmf")
    saved_logger = (vmf_logger.level, vmf_logger.propagate)
    counter = _RedrawCounter(tracer)
    vmf_logger.addHandler(counter)
    vmf_logger.setLevel(logging.DEBUG)
    vmf_logger.propagate = False

    def uninstall():
        for module, key, value in patched:
            setattr(module, key, value)
        np.linalg.cholesky = real_cholesky
        vmf_logger.removeHandler(counter)
        vmf_logger.level, vmf_logger.propagate = saved_logger

    return uninstall


# ---------------------------------------------------------------------------
# Reading spans back


def self_times(spans):
    """``{name: [self seconds, calls]}`` of one process's span list."""
    child = defaultdict(float)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = defaultdict(lambda: [0.0, 0])
    for i, (name, start, end, parent) in enumerate(spans):
        out[name][0] += end - start - child[i]
        out[name][1] += 1
    return out


def aggregate(records):
    """Sum self times and counts over processes.

    ``records`` is a list of ``{"root": bool, "spans": [...], "counts": {...}}``.
    Returns ``(layers, counts, root_self_s)``: per-name ``[self_s, calls]``
    over all processes, summed counters (maxima for ``*_mb``), and the sum
    of self times in the root process, which is the traced wall time less
    what no span covers.
    """
    layers = defaultdict(lambda: [0.0, 0])
    counts = defaultdict(float)
    root_self = 0.0
    for rec in records:
        for name, (secs, calls) in self_times(rec["spans"]).items():
            layers[name][0] += secs
            layers[name][1] += calls
            if rec["root"]:
                root_self += secs
        for key, value in rec["counts"].items():
            if key.endswith("_mb"):
                counts[key] = max(counts[key], value)
            else:
                counts[key] += value
    return layers, counts, root_self


def read_records(trace_dir: Path):
    return [json.loads(p.read_text()) for p in sorted(trace_dir.glob("spans-*.json"))]
