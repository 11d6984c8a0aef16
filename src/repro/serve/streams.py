"""Per-stream decode state: token history, KV slots, swap.

The scheduler admits each stream into a persistent
:class:`KVSlotBuffer` slot once, decodes in place step after step, and
only copies K/V rows again on eviction or preemption (swap-out), when
the stream holds its history unpadded — one (H, length, Dh) array per
transformer block — until it is re-admitted.  Zero padding beyond each
stream's length is exact under the masked attention math, so a
stream's rows carry the same bit patterns regardless of which other
streams share the buffer, which slot it occupies, or how often it was
swapped out and back in.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


# eq=False: streams compare by identity — the planner's membership
# tests must never try to == numpy token arrays
@dataclass(eq=False)
class StreamState:
    """One live generation stream."""

    stream_id: int
    tokens: np.ndarray                  # prompt + generated so far
    max_new_tokens: int
    arrival: float
    deadline: float | None = None       # absolute; shed once passed
    # request-derived KV capacity (rows this stream may ever occupy);
    # set by the serving engine from prompt length + max_new_tokens so
    # kernel shapes never depend on batch composition
    kv_capacity: int | None = None
    new_tokens: int = 0
    # swapped-out KV history while preempted: per block
    # {"k","v": (H, len, Dh)}
    caches: list[dict] | None = None
    # scheduler state: which KVSlotBuffer slot the stream occupies
    # while running (None while waiting/swapped/finished), and decode
    # steps taken since it was last (re)admitted — the planner's
    # preemption clock
    slot: int | None = None
    steps_since_admit: int = 0
    preemptions: int = 0
    last_logits: np.ndarray | None = None
    # engine-clock timestamp of every emitted token (first entry is the
    # prefill's token — the TTFT mark); the load generator reads these
    # off the terminal result to compute TTFT/TBT percentiles
    token_times: list[float] = field(default_factory=list)
    # layer-major record accumulation mirrors the solo collection order
    # (all of layer 0's steps, then layer 1's, ...), so per-stream
    # hardware estimates see jobs in the same order as a solo run
    records_by_layer: dict[int, list] = field(default_factory=dict)
    batch_sizes: list[int] = field(default_factory=list)
    done: bool = False

    @property
    def length(self) -> int:
        return int(self.tokens.shape[0])

    def expired(self, now: float) -> bool:
        return self.deadline is not None and now >= self.deadline

    def append(self, token: int) -> None:
        self.tokens = np.append(self.tokens, np.int64(token))
        self.new_tokens += 1

    def add_records(self, records) -> None:
        for record in records:
            self.records_by_layer.setdefault(record.layer_index,
                                             []).append(record)

    def flat_records(self) -> list:
        return [record
                for layer in sorted(self.records_by_layer)
                for record in self.records_by_layer[layer]]

    def evict(self) -> None:
        """Drop any swapped-out KV history; the stream keeps only its
        tokens."""
        self.caches = None

    @property
    def swapped(self) -> bool:
        """True for a preempted stream holding swapped-out KV state
        (resumable without a prefill)."""
        return self.slot is None and self.caches is not None


class KVSlotBuffer:
    """Persistent decode buffer with in-place admit / evict / swap.

    The scheduler's KV home: one pair of fixed-capacity
    ``(slots, H, capacity, Dh)`` buffers per transformer block, with a
    stream pinned to one slot row for as long as it runs.  Occupied
    slots are kept prefix-compact (``streams[i]`` lives in slot ``i``),
    so the per-step model batch is a zero-copy view ``buffer[:active]``
    — K/V bytes move only when a stream is admitted, evicted, or
    swapped out, never per decode step.

    Compaction moves at most one stream per eviction (the last slot
    fills the hole).  Row position never changes a stream's math — each
    row attends only over its own left-aligned history — so slot moves
    and batch-row order are invisible to outputs, masks, and hardware
    records.

    ``counters`` optionally mirrors slot churn into live metrics: a
    mapping with ``"admit"``/``"evict"``/``"swap_out"`` values
    exposing ``inc()`` (the serving engine binds
    ``repro_kv_slot_events_total`` series and hands them in).
    """

    def __init__(self, slots: int, num_blocks: int, heads: int,
                 head_dim: int, capacity: int, counters=None):
        self.capacity = capacity
        self._k = [np.zeros((slots, heads, capacity, head_dim))
                   for _ in range(num_blocks)]
        self._v = [np.zeros((slots, heads, capacity, head_dim))
                   for _ in range(num_blocks)]
        self._lengths = np.zeros(slots, dtype=np.int64)
        self._capacities = np.zeros(slots, dtype=np.int64)
        self.streams: list[StreamState] = []
        self.counters = counters

    def __len__(self) -> int:
        return len(self.streams)

    @property
    def slots(self) -> int:
        return self._lengths.shape[0]

    @property
    def free(self) -> int:
        return self.slots - len(self.streams)

    def admit(self, stream: StreamState, caches: list[dict]) -> int:
        """Copy a stream's unpadded per-block K/V history (prefill
        output or swapped-out state) into the next free slot."""
        if not self.free:
            raise RuntimeError("no free KV slots")
        slot = len(self.streams)
        size = caches[0]["k"].shape[1]
        for block, cache in enumerate(caches):
            self._k[block][slot, :, :size] = cache["k"]
            self._v[block][slot, :, :size] = cache["v"]
        self._lengths[slot] = size
        self._capacities[slot] = (stream.kv_capacity
                                  if stream.kv_capacity is not None
                                  else self.capacity)
        stream.slot = slot
        stream.steps_since_admit = 0
        stream.caches = None             # the slot is the KV home now
        self.streams.append(stream)
        if self.counters is not None:
            self.counters["admit"].inc()
        return slot

    def evict(self, stream: StreamState) -> None:
        """Release a stream's slot in place, compacting the prefix by
        moving the last occupied slot into the hole."""
        slot = stream.slot
        if slot is None or self.streams[slot] is not stream:
            raise ValueError(f"stream {stream.stream_id} holds no slot")
        last = len(self.streams) - 1
        if slot != last:
            moved = self.streams[last]
            size = int(self._lengths[last])
            for block in range(len(self._k)):
                self._k[block][slot] = 0.0
                self._k[block][slot, :, :size] = \
                    self._k[block][last, :, :size]
                self._v[block][slot] = 0.0
                self._v[block][slot, :, :size] = \
                    self._v[block][last, :, :size]
            self._lengths[slot] = self._lengths[last]
            self._capacities[slot] = self._capacities[last]
            moved.slot = slot
            self.streams[slot] = moved
        # zero the vacated tail slot so a future admit starts from the
        # exact zero padding solo runs see
        for block in range(len(self._k)):
            self._k[block][last] = 0.0
            self._v[block][last] = 0.0
        self._lengths[last] = 0
        self._capacities[last] = 0
        self.streams.pop()
        stream.slot = None
        if self.counters is not None:
            self.counters["evict"].inc()

    def swap_out(self, stream: StreamState) -> None:
        """Preempt: copy the stream's rows (trimmed to its length) back
        into per-stream state and free the slot.  ``admit`` restores
        the identical bytes, so a swap round-trip is bit-invisible."""
        slot = stream.slot
        size = int(self._lengths[slot])
        stream.caches = [
            {"k": self._k[block][slot, :, :size].copy(),
             "v": self._v[block][slot, :, :size].copy()}
            for block in range(len(self._k))]
        stream.preemptions += 1
        self.evict(stream)
        if self.counters is not None:
            self.counters["swap_out"].inc()

    def batch(self) -> list[dict]:
        """Scatter-protocol views over the occupied prefix for
        ``decode_step``: K/V writes land in the persistent buffers;
        each block gets its own lengths copy (the model advances them
        per block) plus the per-stream capacity guard."""
        active = len(self.streams)
        return [{"k": self._k[block][:active],
                 "v": self._v[block][:active],
                 "lengths": self._lengths[:active].copy(),
                 "capacities": self._capacities[:active].copy()}
                for block in range(len(self._k))]

    def advance(self, batched: list[dict]) -> None:
        """Commit a decode step's grown histories (the model advanced
        the per-block lengths copies; block 0's is authoritative)."""
        active = len(self.streams)
        self._lengths[:active] = batched[0]["lengths"]
