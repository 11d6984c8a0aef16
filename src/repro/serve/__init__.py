"""Batched serving: async request queue + dynamic batcher with a
persistent KV slot buffer in front of ``PrunedInferenceEngine``.
Classify requests coalesce, and prompts prefill, at one pad-width
ladder: each request pads to the smallest multiple of 16 positions
that holds it, capped at the model's ``max_seq_len`` (``pad_width``),
so short requests stop paying for the model's full width and every
request stays bit-identical to a solo run.  Streams run on a
step-planned continuous scheduler, and one replica tier scales one
model across shared-nothing engine replicas that run one worker
protocol — in this process (``WorkerTier``) or one OS process each
over a binary socket protocol, sharing one memory-mapped snapshot
(``ProcessWorkerTier``).  Serving several models means one engine or
tier per model, each held by the caller.  The reliability layer adds
deadlines/cancellation, typed terminal reason codes, admission
control (token backlog + TTFT/TBT SLO prediction), and deterministic
fault injection (``FaultPlan``).  ``repro.serve.loadgen`` drives it
all with seeded, replayable traces and percentile SLO reports."""

from .aio import AsyncServingEngine
from .batcher import BatchPolicy, CoalescedBatch, DynamicBatcher, \
    QueuedRequest, coalesce, pad_width
from .engine import (DeadlineExceeded, REASON_CANCELLED, REASON_DEADLINE,
                     REASON_ERROR, REASON_OK, REASON_SHED,
                     RequestCancelled, RequestTiming, ServeResult,
                     ServingEngine, ServingStats, ShedOverload)
from .faults import Fault, FaultPlan, InjectedKernelError
from .hardware import HardwareTotals, slice_record
from .procworkers import ProcessWorkerTier, WorkerDied
from .scheduler import SchedulerConfig, SLOAdmission, StepPlan, \
    StepPlanner
from .streams import KVSlotBuffer, StreamState
from .workers import WorkerTier

__all__ = ["AsyncServingEngine", "BatchPolicy", "CoalescedBatch",
           "DynamicBatcher", "QueuedRequest", "coalesce", "pad_width",
           "ServeResult",
           "ServingEngine", "ServingStats", "HardwareTotals",
           "slice_record", "SchedulerConfig", "StepPlan",
           "StepPlanner", "KVSlotBuffer", "StreamState",
           # reliability layer
           "DeadlineExceeded", "RequestCancelled", "ShedOverload",
           "REASON_OK", "REASON_DEADLINE", "REASON_CANCELLED",
           "REASON_ERROR", "REASON_SHED",
           "Fault", "FaultPlan", "InjectedKernelError",
           # load generation & SLOs
           "RequestTiming", "SLOAdmission", "WorkerTier",
           "ProcessWorkerTier", "WorkerDied",
           "TraceSpec", "TraceRequest", "VirtualClock", "replay_trace",
           "LoadReport", "RequestOutcome"]

_LOADGEN_EXPORTS = {"TraceSpec", "TraceRequest", "VirtualClock",
                    "replay_trace", "LoadReport", "RequestOutcome"}


def __getattr__(name):
    # lazy so `python -m repro.serve.loadgen` doesn't double-import the
    # loadgen module (sys.modules RuntimeWarning)
    if name in _LOADGEN_EXPORTS:
        from . import loadgen
        return getattr(loadgen, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
