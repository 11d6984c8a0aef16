"""Micro-benchmark: the observability layer's hot-path tax.

The design contract of :mod:`repro.obs` is that *not* opting in costs
nothing: uninstrumented engines bind :data:`~repro.obs.metrics
.NULL_METRIC` handles once and every per-event call is an empty method
behind an ``enabled`` gate that skips all derived work.  This bench
pins that claim on the serving throughput example:

* count exactly how many null-handle operations one trace replay
  performs (a shape-compatible counting registry that keeps
  ``enabled=False`` so the replay takes the identical null code path),
* measure what one null operation costs,
* and gate their product below 2% of the replay's wall time.

A second (recorded, ungated) measurement replays with a live
``MetricsRegistry`` + ``TraceRecorder`` for the enabled-path cost,
so CI artifacts track both sides of the opt-in.
"""

import time

import numpy as np

from repro.eval import record_bench
from repro.obs import MetricsRegistry, TraceRecorder
from repro.obs.metrics import NULL_METRIC
from repro.serve import BatchPolicy, WorkerTier
from repro.serve.loadgen import TraceSpec, VirtualClock, replay_trace

MAX_NULL_OVERHEAD = 0.02                 # 2% of serving wall time
REQUESTS = 48


class _CountingMetric:
    """No-op metric that tallies how often the hot path touches it."""

    __slots__ = ("ops",)

    def __init__(self):
        self.ops = [0]

    def inc(self, amount=1.0):
        self.ops[0] += 1

    def dec(self, amount=1.0):
        self.ops[0] += 1

    def set(self, value):
        self.ops[0] += 1

    def observe(self, value):
        self.ops[0] += 1

    def sample(self):
        return None


class _CountingRegistry:
    """``enabled=False`` like the null registry — the replay takes the
    exact null code path (no derived queue walks, no trace args) — but
    the handles it hands out count every call they would have eaten."""

    enabled = False

    def __init__(self):
        self.metric = _CountingMetric()

    def counter(self, name, help="", **labels):
        return self.metric

    def gauge(self, name, help="", **labels):
        return self.metric

    def histogram(self, name, help="", buckets=(), **labels):
        return self.metric

    @property
    def ops(self) -> int:
        return self.metric.ops[0]


def _make_snapshot(directory):
    from repro.core import PrunedInferenceEngine
    from repro.models import LMConfig, TransformerLM

    model = TransformerLM(LMConfig(
        vocab_size=64, max_seq_len=32, dim=32, num_heads=2,
        num_layers=2, seed=0))
    controller = model.make_controller()
    controller.set_threshold_values(np.zeros(2))
    PrunedInferenceEngine(model, controller).save(directory)
    return directory


def _replay(snapshot, registry=None, tracer=None):
    clock = VirtualClock()
    tier = WorkerTier.from_snapshot(
        snapshot, replicas=2,
        policy=BatchPolicy(max_batch_size=4, max_wait=0.0),
        clock=clock, step_token_budget=32,
        registry=registry, tracer=tracer)
    trace = TraceSpec(seed=7, requests=REQUESTS, process="bursty")
    return replay_trace(tier, trace, clock=clock)


def _best_of(fn, rounds: int = 3) -> float:
    fn()                                 # warm up out of the timing
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _null_op_seconds(ops: int = 200_000) -> float:
    inc, observe = NULL_METRIC.inc, NULL_METRIC.observe

    def burst():
        for _ in range(ops // 2):
            inc()
            observe(1.0)

    return _best_of(burst) / ops


def test_null_registry_overhead_under_two_percent(tmp_path):
    """CI gate: the opt-out observability tax on a serving replay —
    (null ops per replay) x (cost of one null op) — stays < 2% of the
    replay's wall time."""
    snapshot = _make_snapshot(str(tmp_path / "snap"))

    counting = _CountingRegistry()
    report = _replay(snapshot, registry=counting)
    assert report.reasons == {"ok": REQUESTS}
    ops = counting.ops
    assert ops > 0, "the replay must exercise instrumented paths"

    null_seconds = _best_of(lambda: _replay(snapshot))
    per_op = _null_op_seconds()
    overhead = ops * per_op / null_seconds

    enabled_seconds = _best_of(lambda: _replay(
        snapshot, registry=MetricsRegistry(), tracer=TraceRecorder()))

    print(f"\n{ops} null metric ops x {per_op * 1e9:.1f} ns = "
          f"{ops * per_op * 1e6:.1f} us over a {null_seconds * 1e3:.1f}"
          f" ms replay -> {overhead:.4%} (enabled replay "
          f"{enabled_seconds * 1e3:.1f} ms, "
          f"{enabled_seconds / null_seconds:.3f}x)")
    record_bench("obs_overhead", {
        "null_ops": ops, "null_op_seconds": per_op,
        "replay_seconds": null_seconds,
        "enabled_replay_seconds": enabled_seconds,
        "null_overhead_fraction": overhead,
        "enabled_slowdown": enabled_seconds / null_seconds,
    }, context={"requests": REQUESTS, "replicas": 2})
    assert overhead < MAX_NULL_OVERHEAD
