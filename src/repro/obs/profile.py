"""Kernel profiling hooks for the tile simulator's batched dispatch.

A :class:`KernelProfiler` is handed to ``TileSimulator`` (and threaded
through ``estimate_many`` / the serving engines); the simulator times
each fused ``run_many`` kernel call and reports it here together with
how many jobs rode in the call.

Timing uses the caller-supplied wall timestamps (``perf_counter`` at
the call sites), so profiling is *measurement*, not part of the
deterministic replay surface — unlike metrics and traces, summaries
are not expected to be bit-identical across runs.
"""

from __future__ import annotations

from .metrics import COUNT_BUCKETS, as_registry, log_buckets

__all__ = ["KernelProfiler"]

#: fused GEMM calls are fast — bucket 1 us .. 1 s
_KERNEL_TIME_BUCKETS = log_buckets(1e-6, 1.0, per_decade=3)


class KernelProfiler:
    """Kernel GEMM time + per-call chunking stats.

    Opt-in like everything else in :mod:`repro.obs`: the simulator
    holds ``None`` by default and skips the timing branch entirely.
    Optionally publishes into a metrics registry so profiled serving
    runs expose ``repro_kernel_*`` series alongside engine metrics.
    """

    def __init__(self, registry=None):
        self.clear()
        registry = as_registry(registry)
        self._m_time = registry.histogram(
            "repro_kernel_call_seconds",
            "wall time of one fused run_many kernel call",
            buckets=_KERNEL_TIME_BUCKETS)
        self._m_jobs = registry.histogram(
            "repro_kernel_jobs_per_call",
            "jobs batched into one fused kernel call",
            buckets=COUNT_BUCKETS)

    def record(self, jobs: int, elapsed_s: float) -> None:
        self.calls += 1
        self.jobs += jobs
        self.elapsed_s += elapsed_s
        self.max_jobs = max(self.max_jobs, jobs)
        self._m_time.observe(elapsed_s)
        self._m_jobs.observe(jobs)

    def summary(self) -> dict:
        """``{calls, jobs, elapsed_s, ...}`` with means."""
        calls = self.calls
        return {
            "calls": calls,
            "jobs": self.jobs,
            "elapsed_s": self.elapsed_s,
            "max_jobs_per_call": self.max_jobs,
            "mean_jobs_per_call": self.jobs / calls if calls else 0.0,
            "mean_call_us": self.elapsed_s / calls * 1e6 if calls else 0.0,
        }

    def clear(self) -> None:
        self.calls = self.jobs = self.max_jobs = 0
        self.elapsed_s = 0.0
