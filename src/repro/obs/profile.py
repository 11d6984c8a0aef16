"""Kernel profiling hooks for the tile simulator's batched dispatch.

A :class:`KernelProfiler` is handed to ``TileSimulator`` (and threaded
through ``estimate_many`` / the serving engines); the simulator times
each fused ``run_many`` kernel call and reports it here together with
how many jobs rode in the call.  Aggregation is per backend, so an A/B of
``numpy-ref`` vs ``numpy-packed`` falls out of one profiled run.

Timing uses the caller-supplied wall timestamps (``perf_counter`` at
the call sites), so profiling is *measurement*, not part of the
deterministic replay surface — unlike metrics and traces, summaries
are not expected to be bit-identical across runs.
"""

from __future__ import annotations

from .metrics import COUNT_BUCKETS, NULL_REGISTRY, log_buckets

__all__ = ["KernelProfiler"]

#: fused GEMM calls are fast — bucket 1 us .. 1 s
_KERNEL_TIME_BUCKETS = log_buckets(1e-6, 1.0, per_decade=3)


class _BackendStats:
    __slots__ = ("calls", "jobs", "elapsed_s", "max_jobs")

    def __init__(self):
        self.calls = 0
        self.jobs = 0
        self.elapsed_s = 0.0
        self.max_jobs = 0


class KernelProfiler:
    """Per-backend GEMM time + per-call chunking stats.

    Opt-in like everything else in :mod:`repro.obs`: the simulator
    holds ``None`` by default and skips the timing branch entirely.
    Optionally publishes into a metrics registry so profiled serving
    runs expose ``repro_kernel_*`` series alongside engine metrics.
    """

    enabled = True

    def __init__(self, registry=None):
        self._by_backend = {}
        self._registry = NULL_REGISTRY if registry is None else registry
        self._m_time = {}
        self._m_jobs = {}

    def record(self, backend: str, jobs: int, elapsed_s: float) -> None:
        stats = self._by_backend.get(backend)
        if stats is None:
            stats = self._by_backend[backend] = _BackendStats()
        stats.calls += 1
        stats.jobs += jobs
        stats.elapsed_s += elapsed_s
        if jobs > stats.max_jobs:
            stats.max_jobs = jobs
        if self._registry.enabled:
            m_time = self._m_time.get(backend)
            if m_time is None:
                m_time = self._m_time[backend] = self._registry.histogram(
                    "repro_kernel_call_seconds",
                    "wall time of one fused run_many kernel call",
                    buckets=_KERNEL_TIME_BUCKETS, backend=backend)
                self._m_jobs[backend] = self._registry.histogram(
                    "repro_kernel_jobs_per_call",
                    "jobs batched into one fused kernel call",
                    buckets=COUNT_BUCKETS, backend=backend)
            m_time.observe(elapsed_s)
            self._m_jobs[backend].observe(jobs)

    def summary(self) -> dict:
        """``{backend: {calls, jobs, elapsed_s, ...}}`` with means."""
        out = {}
        for backend in sorted(self._by_backend):
            stats = self._by_backend[backend]
            out[backend] = {
                "calls": stats.calls,
                "jobs": stats.jobs,
                "elapsed_s": stats.elapsed_s,
                "max_jobs_per_call": stats.max_jobs,
                "mean_jobs_per_call":
                    stats.jobs / stats.calls if stats.calls else 0.0,
                "mean_call_us":
                    stats.elapsed_s / stats.calls * 1e6 if stats.calls else 0.0,
            }
        return out

    def clear(self) -> None:
        self._by_backend.clear()
