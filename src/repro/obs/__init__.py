"""End-to-end observability: metrics, traces, exposition, profiling.

Four pieces, all dependency-free and opt-in:

* :mod:`repro.obs.metrics` — an in-process metrics registry
  (:class:`Counter` / :class:`Gauge` / :class:`Histogram` with fixed
  log-bucket bounds) plus the :data:`NULL_REGISTRY` no-op twin that
  instrumented hot paths bind against by default, so observability
  costs nothing until a caller opts in.
* :mod:`repro.obs.tracing` — per-request trace spans
  (``submit → queue → admit → prefill-chunk* → decode-step* →
  finish``) stamped from the *engine* clock, exportable as Chrome
  trace-event JSON (load it in Perfetto / ``chrome://tracing``).
* :mod:`repro.obs.http` — Prometheus-text exposition over HTTP: an
  asyncio endpoint that mounts next to the serving front door, and a
  background-thread server for synchronous CLIs.
* :mod:`repro.obs.profile` — kernel profiling hooks: GEMM wall time
  and per-call job counts from the tile simulator's batched kernel
  dispatch.

Everything a virtual-clock replay records is derived from the
injected clock, so metrics snapshots and trace exports replay
byte-identically (pinned by ``tests/test_obs.py``).
"""

from .metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                      NULL_REGISTRY, NullRegistry, as_registry,
                      log_buckets)
from .profile import KernelProfiler
from .tracing import NULL_TRACER, NullTracer, TraceRecorder, as_tracer

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "NullRegistry", "NULL_REGISTRY", "as_registry", "log_buckets",
           "TraceRecorder", "NullTracer", "NULL_TRACER", "as_tracer",
           "KernelProfiler",
           "MetricsEndpoint", "start_metrics_server"]


def __getattr__(name):
    # lazy: the HTTP pieces pull in asyncio/http.server, which pure
    # metric consumers (the hw kernel, the eval store) never need
    if name in ("MetricsEndpoint", "start_metrics_server"):
        from . import http
        return getattr(http, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
