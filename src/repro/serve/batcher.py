"""Dynamic batching: arrival queue, wait policy, and request coalescing.

The batcher is deliberately clock-agnostic — callers pass ``now`` — so
property tests can drive it with a virtual clock and the asyncio front
end can drive it with ``time.monotonic``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np


#: granularity of the pad-width ladder: a request is padded to the
#: smallest multiple of ``PAD_STEP`` that holds it
PAD_STEP = 16


def pad_width(length: int, max_len: int) -> int:
    """The fixed width a request of ``length`` positions is served at:
    the smallest multiple of :data:`PAD_STEP` that holds it, capped at
    the model's ``max_len`` (so 64 positions give widths 16/32/48/64).

    Classify batches and prompt prefills both pad to it.  The width is
    a function of the request alone, never of the batch, so every
    kernel shape is independent of batch composition — which is what
    keeps a coalesced request bit-identical to the same request served
    alone — while short requests stop paying the full-width padding
    tax."""
    return min(-(-length // PAD_STEP) * PAD_STEP, max_len)


@dataclass(frozen=True)
class BatchPolicy:
    """Coalescing knobs.

    ``max_batch_size``: flush as soon as this many requests are queued.
    ``max_wait``: seconds a request may sit in the queue before the
    batch is flushed anyway (the no-starvation bound).
    """

    max_batch_size: int = 8
    max_wait: float = 0.002

    def __post_init__(self):
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if not self.max_wait >= 0:          # NaN fails this too
            raise ValueError(f"max_wait must be >= 0 seconds, "
                             f"got {self.max_wait}")


@dataclass
class QueuedRequest:
    """One waiting single-sequence request."""

    request_id: int
    inputs: np.ndarray              # (L,) token ids or (L, D) patches
    mask: np.ndarray                # (L,) bool
    arrival: float
    deadline: float | None = None   # absolute; shed once now >= deadline

    @property
    def length(self) -> int:
        return self.inputs.shape[0]

    def expired(self, now: float) -> bool:
        return self.deadline is not None and now >= self.deadline


@dataclass
class CoalescedBatch:
    """Several requests padded into one fixed-width model batch."""

    request_ids: list[int]
    inputs: np.ndarray              # (B, width[, D])
    mask: np.ndarray                # (B, width) bool
    lengths: np.ndarray             # (B,) true lengths

    def __len__(self) -> int:
        return len(self.request_ids)


class DynamicBatcher:
    """Per-width FIFO queues with a size-or-deadline flush policy.

    Requests queue under their own :func:`pad_width` and only coalesce
    with requests of the same width.  A queue flushes when it reaches
    ``max_batch_size`` or its oldest request has waited ``max_wait``;
    the due queue with the oldest request pops first, and pops always
    take a queue's oldest requests, so no request is starved by later
    arrivals.

    Generation streams wait in a separate FIFO admission queue that the
    scheduler drains explicitly: each step pops exactly as many streams
    as the planner has free decode slots for (``pop_streams``), and
    preempted streams re-enter at the back so fresh arrivals are never
    starved by swapped-out residents.  Each engine serves one model
    and owns its own batcher, so every queue here — widths and
    streams — is per-model by construction.
    """

    def __init__(self, policy: BatchPolicy, max_len: int):
        self.policy = policy
        self.max_len = max_len
        self._queues: dict[int, deque[QueuedRequest]] = {}
        self._streams: deque = deque()

    def __len__(self) -> int:
        return sum(len(q) for q in self._queues.values())

    # -- stream admission queue (planner-driven) ------------------------
    def add_stream(self, stream) -> None:
        """Enqueue a stream for admission (new arrivals and preempted
        streams alike join the back — FIFO by enqueue time)."""
        self._streams.append(stream)

    def stream_count(self) -> int:
        return len(self._streams)

    def pop_streams(self, limit: int | None = None) -> list:
        """Dequeue up to ``limit`` waiting streams (all, if None)."""
        if limit is None:
            limit = len(self._streams)
        out = []
        while self._streams and len(out) < limit:
            out.append(self._streams.popleft())
        return out

    def peek_streams(self, limit: int | None = None) -> list:
        """The first ``limit`` waiting streams in FIFO order, without
        dequeuing them — the token-budget planner prices the queue head
        before deciding how many streams this step can afford."""
        if limit is None:
            limit = len(self._streams)
        return [stream for stream, _ in zip(self._streams, range(limit))]

    def discard_stream(self, stream_id: int) -> bool:
        """Drop a waiting stream (client hung up before admission)."""
        for stream in self._streams:
            if stream.stream_id == stream_id:
                self._streams.remove(stream)
                return True
        return False

    def add(self, request: QueuedRequest) -> None:
        width = pad_width(request.length, self.max_len)
        self._queues.setdefault(width, deque()).append(request)

    def discard(self, request_id: int) -> QueuedRequest | None:
        """Drop one waiting classification request (cancellation)."""
        for queue in self._queues.values():
            for request in queue:
                if request.request_id == request_id:
                    queue.remove(request)
                    return request
        return None

    def shed_expired(self, now: float) -> list[QueuedRequest]:
        """Remove and return every queued request whose deadline has
        passed — expired work must never occupy a batch slot."""
        shed: list[QueuedRequest] = []
        for width, queue in self._queues.items():
            keep = deque(r for r in queue if not r.expired(now))
            if len(keep) != len(queue):
                shed += [r for r in queue if r.expired(now)]
                self._queues[width] = keep
        return shed

    def backlog_tokens(self) -> int:
        """Tokens waiting in the width queues plus the stream
        admission queue — the admission controller's pressure gauge.
        Streams are charged their full KV demand (prompt + budgeted new
        tokens), the work they will actually occupy the engine with."""
        queued = sum(r.length for q in self._queues.values() for r in q)
        streams = sum(s.length + s.max_new_tokens for s in self._streams)
        return queued + streams

    def next_deadline(self) -> float | None:
        """Earliest time any queue's oldest request must flush by."""
        arrivals = [q[0].arrival for q in self._queues.values() if q]
        if not arrivals:
            return None
        return min(arrivals) + self.policy.max_wait

    def ready(self, now: float) -> bool:
        return self._oldest_queue(now) is not None

    def _oldest_queue(self, now: float | None = None) -> int | None:
        """Width of the queue holding the oldest request — among the
        queues due at ``now`` only, when ``now`` is given."""
        best = None
        for width, queue in self._queues.items():
            if not queue:
                continue
            if now is not None and not (
                    len(queue) >= self.policy.max_batch_size
                    or now >= queue[0].arrival + self.policy.max_wait):
                continue
            if best is None or \
                    queue[0].arrival < self._queues[best][0].arrival:
                best = width
        return best

    def pop(self, now: float | None = None
            ) -> tuple[int, list[QueuedRequest]]:
        """Dequeue up to ``max_batch_size`` oldest requests from the
        most urgent queue; returns (pad width, requests)."""
        width = None if now is None else self._oldest_queue(now)
        if width is None:
            width = self._oldest_queue()
        if width is None:
            return self.max_len, []
        queue = self._queues[width]
        out = []
        while queue and len(out) < self.policy.max_batch_size:
            out.append(queue.popleft())
        return width, out


def coalesce(requests: list[QueuedRequest], width: int) -> CoalescedBatch:
    """Pad requests into one left-aligned (B, width[, D]) batch."""
    lengths = np.array([r.length for r in requests], dtype=np.int64)
    over = lengths.max(initial=0)
    if over > width:
        raise ValueError(f"request of length {over} exceeds pad width "
                         f"{width}")
    first = requests[0].inputs
    shape = (len(requests), width) + first.shape[1:]
    inputs = np.zeros(shape, dtype=first.dtype)
    mask = np.zeros((len(requests), width), dtype=bool)
    for i, request in enumerate(requests):
        if request.inputs.shape[1:] != first.shape[1:]:
            raise ValueError("cannot coalesce requests with mismatched "
                             "feature dimensions")
        inputs[i, :request.length] = request.inputs
        mask[i, :request.length] = request.mask
    return CoalescedBatch(
        request_ids=[r.request_id for r in requests],
        inputs=inputs, mask=mask, lengths=lengths)
