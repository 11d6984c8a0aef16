"""In-process replica tier.

``WorkerTier`` is :class:`~repro.serve.procworkers.ProcessWorkerTier`
with every replica in this process: the tier talks to each replica's
worker loop over an inline link that calls it directly, so routing,
id mapping, result plumbing, failure handling and the stats rollup
are the same code whichever way the replicas run.  In-process
replicas suit virtual-clock replays (deterministic tests) and small
models where a forward is cheaper than IPC; their engines read the
tier's clock and publish into the tier's registry and tracer.
"""

from __future__ import annotations

import time

from .batcher import BatchPolicy
from .procworkers import (ProcessWorkerTier, _build_engine, _InlineLink,
                          _Worker)


class WorkerTier(ProcessWorkerTier):
    """N shared-nothing engine replicas in this process behind one
    front door."""

    @classmethod
    def from_snapshot(cls, directory: str, replicas: int,
                      policy: BatchPolicy | None = None,
                      clock=time.monotonic, mmap: bool = False,
                      **engine_kwargs) -> "WorkerTier":
        """:meth:`ProcessWorkerTier.from_snapshot` with in-process
        replicas, which hold private weight copies unless
        ``mmap=True``."""
        return super().from_snapshot(directory, replicas, policy=policy,
                                     clock=clock, mmap=mmap,
                                     **engine_kwargs)

    def _spawn(self, directory: str, index: int, spec: dict):
        return _InlineLink(_Worker(_build_engine(
            directory, index, spec, self._clock, self._registry,
            self._tracer)))
