"""Per-layer timing from outside the program.

``LayerTracer.install()`` replaces the public entry points of each
layer (listed in ``SPANS``) with timing wrappers; ``uninstall()``
restores them.  Every wrapped call is a span.  A span's *self* time is
its duration minus the time of the wrapped calls nested inside it, so
self times add up to the time spent inside the outermost spans.

Totals live in one block of anonymous shared memory, one row per
process: row 0 is the benchmark process, row ``1 + i`` the ``i``-th
process forked while the tracer is installed (a ``ProcessWorkerTier``
worker).  Workers leave through ``os._exit`` and never flush anything
at exit, so they add their totals straight into their shared row.
The benchmark process also keeps its spans in memory
(``(span id, start, end, depth)``) for ``save_spans``.
"""

from __future__ import annotations

import importlib
import mmap
import os
import time

import numpy as np

# span name -> [(module, owner class or None for a module function,
#                attribute)]
SPANS = {
    "serve.workers.step": [("repro.serve.workers", "WorkerTier", "step")],
    "serve.workers.submit": [
        ("repro.serve.workers", "WorkerTier", "submit"),
        ("repro.serve.workers", "WorkerTier", "open_stream")],
    "serve.workers.finish": [
        ("repro.serve.workers", "WorkerTier", "finish")],
    "serve.procworkers.step": [
        ("repro.serve.procworkers", "ProcessWorkerTier", "step")],
    "serve.procworkers.submit": [
        ("repro.serve.procworkers", "ProcessWorkerTier", "submit"),
        ("repro.serve.procworkers", "ProcessWorkerTier", "open_stream")],
    "serve.procworkers.finish": [
        ("repro.serve.procworkers", "ProcessWorkerTier", "finish")],
    "serve.engine.step": [("repro.serve.engine", "ServingEngine", "step")],
    "serve.scheduler.plan": [
        ("repro.serve.scheduler", "StepPlanner", "plan")],
    "serve.streams.kv": [
        ("repro.serve.streams", "KVSlotBuffer", name)
        for name in ("admit", "evict", "batch", "advance", "swap_out")],
    "models.prefill": [("repro.models.lm", "TransformerLM", "prefill")],
    "models.decode": [("repro.models.lm", "TransformerLM", "decode_step")],
    "models.classify": [("repro.models.transformer",
                         "TransformerClassifier", "logits")],
    "core.estimate": [("repro.core.engine", "PrunedInferenceEngine",
                       "estimate_many")],
    "serve.hardware.slice": [("repro.serve.engine", None, "slice_record")],
    "hw.workload.jobs": [("repro.hw.workload", None, "jobs_from_records")],
    "hw.quantize": [("repro.hw.workload", "HeadJob", "quantized_for")],
    "hw.kernel": [("repro.hw.tile", None, "run_many")],
    "hw.tile": [("repro.hw.tile", "TileSimulator", "run")],
    "hw.energy": [("repro.hw.energy", "EnergyModel", "total")],
}
# TileSimulator.run is booked under one of two names, by whether the
# simulated tile terminates early (LeOPArd) or not (the baseline)
NAMES = [name for name in SPANS if name != "hw.tile"] + [
    "hw.tile.pruning", "hw.tile.baseline", "hw.pack_cache"]
FIELDS = ("self_s", "incl_s", "calls", "num", "den")
WIDTH = len(FIELDS)
LAST_STEP = len(NAMES) * WIDTH   # a process's latest engine step length
SLOTS = LAST_STEP + 1


def _note(name: str, args, result) -> tuple[float, float]:
    """(numerator, denominator) of a layer's useful/attempted ratio."""
    if name == "models.prefill":
        tokens, lengths = args[1], args[2]
        return float(np.sum(lengths)), float(np.size(tokens))
    if name == "models.decode":
        return float(len(args[1])), 1.0
    if name == "models.classify":
        mask = args[2] if len(args) > 2 else None
        size = float(np.shape(args[1])[0] * np.shape(args[1])[1])
        return (size if mask is None else float(np.sum(mask))), size
    if name == "hw.kernel":
        return float(len(args[1])), 1.0
    if name == "hw.workload.jobs":
        return float(len(result)), 1.0
    return 0.0, 0.0


ROWS = 1 + 8           # the benchmark process and up to 8 workers


class LayerTracer:
    def __init__(self):
        self._buffer = mmap.mmap(-1, ROWS * SLOTS * 8)
        self.totals = np.frombuffer(self._buffer, dtype=np.float64
                                    ).reshape(ROWS, SLOTS)
        self.index = {name: i * WIDTH for i, name in enumerate(NAMES)}
        self.row = self.totals[0]
        self.stack: list[float] = []
        self.spans: list[tuple[int, float, float, int]] = []
        self.forks = 0
        self.installed = False
        self._restore: list[tuple[object, str, object]] = []
        os.register_at_fork(before=self._before_fork,
                            after_in_child=self._in_child)

    # -- process rows ----------------------------------------------------
    def _before_fork(self) -> None:
        if self.installed:
            self.forks += 1

    def _in_child(self) -> None:
        if self.installed:
            if self.forks >= ROWS:
                raise RuntimeError("more forked workers than tracer rows")
            self.row = self.totals[self.forks]
            self.stack = []
            self.spans = []

    def reset(self) -> None:
        """Zero every total and drop kept spans (call while workers
        are idle, between steps)."""
        self.totals[:] = 0.0
        self.spans = []

    # -- wrappers ----------------------------------------------------------
    def _span(self, name: str, original):
        tracer = self
        if name == "hw.tile":
            # TileSimulator.run: booked by the simulated tile's kind
            kinds = {True: NAMES.index("hw.tile.pruning"),
                     False: NAMES.index("hw.tile.baseline")}
            pick = lambda args: kinds[args[0].config.early_termination]
        else:
            span = NAMES.index(name)
            pick = lambda args: span

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                elapsed = end - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                span = pick(args)
                slot = span * WIDTH
                row = tracer.row
                row[slot] += elapsed - child
                row[slot + 1] += elapsed
                row[slot + 2] += 1
                tracer.spans.append((span, start, end, len(stack)))
                if name == "serve.engine.step":
                    row[LAST_STEP] = elapsed
                elif name == "serve.procworkers.step":
                    # the parent waits for its slowest worker's engine
                    # step; the rest of the round trip is IPC
                    workers = tracer.totals[1:, LAST_STEP]
                    row[slot + 3] += workers.max()
                    workers[:] = 0.0
            num, den = _note(name, args, result)
            row[slot + 3] += num
            row[slot + 4] += den
            return result

        return wrapper

    def _pack_cache_counter(self, original):
        tracer = self
        slot = self.index["hw.pack_cache"]

        def planes_for(cache, *args, **kwargs):
            reused = cache.hits + cache.extended
            result = original(cache, *args, **kwargs)
            row = tracer.row
            row[slot + 2] += 1
            row[slot + 3] += cache.hits + cache.extended - reused
            row[slot + 4] += 1
            return result

        return planes_for

    def install(self) -> None:
        for name, targets in SPANS.items():
            for module_name, owner_name, attribute in targets:
                module = importlib.import_module(module_name)
                owner = (module if owner_name is None
                         else getattr(module, owner_name))
                original = getattr(owner, attribute)
                self._restore.append((owner, attribute, original))
                setattr(owner, attribute, self._span(name, original))
        from repro.hw.backends.packed_common import PlaneGroupCache
        original = PlaneGroupCache.planes_for
        self._restore.append((PlaneGroupCache, "planes_for", original))
        PlaneGroupCache.planes_for = self._pack_cache_counter(original)
        self.installed = True

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._restore):
            setattr(owner, attribute, original)
        self._restore = []
        self.installed = False

    # -- read-out ----------------------------------------------------------
    def field(self, name: str, field: str, rows=None) -> float:
        """One total, summed over ``rows`` (default: every process)."""
        column = self.index[name] + FIELDS.index(field)
        block = self.totals if rows is None else self.totals[rows]
        return float(np.sum(block[..., column]))

    def attributed_s(self) -> float:
        """Self time of every span in the benchmark process: the wall
        time spent inside any wrapped entry point."""
        return float(sum(self.totals[0, self.index[name]]
                         for name in NAMES))

    def save_spans(self, path: str) -> None:
        spans = np.array(self.spans, dtype=np.float64).reshape(-1, 4)
        np.savez_compressed(path, names=np.array(NAMES),
                            span=spans[:, 0].astype(np.int32),
                            start=spans[:, 1], end=spans[:, 2],
                            depth=spans[:, 3].astype(np.int32))


def layer_metrics(tracer: LayerTracer, wall: float,
                  plain_wall: float) -> dict:
    """Per-layer metrics of a traced phase of ``wall`` seconds that
    served the same requests as an untraced phase of ``plain_wall``.
    Times are self times summed over every process, except
    ``core.estimate_s``, which includes the hardware layers under it."""
    f = tracer.field
    parent = [0]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    step_s = f("serve.procworkers.step", "self_s", parent)
    worker_step_s = f("serve.procworkers.step", "num", parent)
    values = {
        "serve.procworkers.step_s": (step_s, "s"),
        "serve.procworkers.worker_step_s": (worker_step_s, "s"),
        "serve.procworkers.ipc_s": (step_s - worker_step_s, "s"),
        "serve.procworkers.submit_s": (
            f("serve.procworkers.submit", "self_s"), "s"),
        "serve.procworkers.finish_s": (
            f("serve.procworkers.finish", "self_s"), "s"),
        "serve.procworkers.steps": (
            f("serve.procworkers.step", "calls"), "count"),
        "serve.workers.step_s": (f("serve.workers.step", "self_s"), "s"),
        "serve.workers.submit_s": (
            f("serve.workers.submit", "self_s"), "s"),
        "serve.workers.finish_s": (
            f("serve.workers.finish", "self_s"), "s"),
        "serve.workers.steps": (f("serve.workers.step", "calls"), "count"),
        "serve.engine.step_s": (f("serve.engine.step", "self_s"), "s"),
        "serve.engine.steps": (f("serve.engine.step", "calls"), "count"),
        "serve.scheduler.plan_s": (
            f("serve.scheduler.plan", "self_s"), "s"),
        "serve.scheduler.plans": (
            f("serve.scheduler.plan", "calls"), "count"),
        "serve.streams.kv_s": (f("serve.streams.kv", "self_s"), "s"),
        "serve.streams.kv_ops": (f("serve.streams.kv", "calls"), "count"),
        "models.prefill_s": (f("models.prefill", "self_s"), "s"),
        "models.prefill_calls": (f("models.prefill", "calls"), "count"),
        "models.prefill_useful_ratio": (
            ratio(f("models.prefill", "num"), f("models.prefill", "den")),
            "ratio"),
        "models.decode_s": (f("models.decode", "self_s"), "s"),
        "models.decode_calls": (f("models.decode", "calls"), "count"),
        "models.decode_batch_mean": (
            ratio(f("models.decode", "num"), f("models.decode", "calls")),
            "streams"),
        "models.classify_s": (f("models.classify", "self_s"), "s"),
        "models.classify_calls": (f("models.classify", "calls"), "count"),
        "models.classify_useful_ratio": (
            ratio(f("models.classify", "num"),
                  f("models.classify", "den")), "ratio"),
        "core.estimate_s": (f("core.estimate", "incl_s"), "s"),
        "core.estimate_calls": (f("core.estimate", "calls"), "count"),
        "serve.hardware.slice_s": (
            f("serve.hardware.slice", "self_s"), "s"),
        "serve.hardware.slice_calls": (
            f("serve.hardware.slice", "calls"), "count"),
        "hw.workload.jobs_s": (f("hw.workload.jobs", "self_s"), "s"),
        "hw.workload.jobs": (f("hw.workload.jobs", "num"), "count"),
        "hw.quantize_s": (f("hw.quantize", "self_s"), "s"),
        "hw.quantize_calls": (f("hw.quantize", "calls"), "count"),
        "hw.kernel_s": (f("hw.kernel", "self_s"), "s"),
        "hw.kernel_calls": (f("hw.kernel", "calls"), "count"),
        "hw.kernel_jobs": (f("hw.kernel", "num"), "count"),
        "hw.tile.pruning_s": (f("hw.tile.pruning", "self_s"), "s"),
        "hw.tile.baseline_s": (f("hw.tile.baseline", "self_s"), "s"),
        "hw.tile.runs": (f("hw.tile.pruning", "calls")
                         + f("hw.tile.baseline", "calls"), "count"),
        "hw.energy_s": (f("hw.energy", "self_s"), "s"),
        "hw.energy_calls": (f("hw.energy", "calls"), "count"),
        "hw.pack_cache.hit_ratio": (
            ratio(f("hw.pack_cache", "num"), f("hw.pack_cache", "den")),
            "ratio"),
        "trace.wall_s": (wall, "s"),
        "trace.attributed_ratio": (tracer.attributed_s() / wall, "ratio"),
        "trace.overhead_x": (wall / plain_wall, "x"),
    }
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()}
