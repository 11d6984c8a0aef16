"""Batched serving engine: concurrent streams over one pruned model.

``ServingEngine`` fronts a :class:`~repro.core.PrunedInferenceEngine`
with an arrival queue and a dynamic batcher.  Two request kinds share
the submit/step/finish lifecycle:

* one-shot classification requests (``submit``) — coalesced under the
  ``BatchPolicy`` into batches padded to the requests' shared
  :func:`~repro.serve.batcher.pad_width`;
* autoregressive generation streams (``open_stream``) — scheduled by
  a :class:`StepPlanner` that admits waiting streams directly into
  free decode slots of a persistent
  :class:`~repro.serve.streams.KVSlotBuffer` (chunked prefill
  piggybacked alongside the running streams' decode tokens), evicts
  finished streams in place, and under queue pressure preempts the
  longest-running streams to swappable per-stream KV state.

Everything is bit-stable by construction: batches and prompt prefills
pad to a width that depends only on the request, per-stream histories
stay left-aligned, and per-request hardware estimates are computed
from per-request record slices — so a request's outputs, pruning
masks, and cycle/energy estimates do not depend on which other
requests happened to be coalesced with it, nor on which slot served
it.

The core is synchronous and clock-injectable (tests drive a virtual
clock); :mod:`repro.serve.aio` adds the awaitable front door.  Serving
several models means one engine (or replica tier) per model.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..hw.backends import PlaneGroupCache
from ..obs.metrics import COUNT_BUCKETS, as_registry
from ..obs.tracing import as_tracer
from .batcher import BatchPolicy, CoalescedBatch, DynamicBatcher, \
    QueuedRequest, coalesce, pad_width
from .hardware import HardwareTotals, slice_record
from .scheduler import SchedulerConfig, SLOAdmission, StepPlanner
from .streams import KVSlotBuffer, StreamState

# terminal reason codes: every ServeResult carries exactly one
REASON_OK = "ok"
REASON_DEADLINE = "deadline_exceeded"
REASON_CANCELLED = "cancelled"
REASON_ERROR = "engine_error"
REASON_SHED = "shed_overload"


class DeadlineExceeded(TimeoutError):
    """The request's deadline passed before it finished; it was shed
    from the queue (or stopped mid-generation) and its KV state freed."""


class RequestCancelled(RuntimeError):
    """The client cancelled the request before it finished."""


class ShedOverload(RuntimeError):
    """Admission control fast-rejected the request: the token backlog
    already exceeds ``max_backlog_tokens`` (fail fast beats queueing
    into certain deadline collapse)."""


@dataclass(frozen=True)
class RequestTiming:
    """Engine-clock latency marks for one served request.

    All values come from the engine's injected clock, so a virtual
    clock makes them exactly replayable.  ``first_token`` is the TTFT
    mark (for classify requests it equals ``finished``);
    ``token_times`` holds one stamp per emitted token for generation
    streams, so time-between-tokens is just the consecutive diffs."""

    arrival: float
    finished: float
    first_token: float | None = None
    token_times: tuple[float, ...] = ()

    @property
    def ttft(self) -> float | None:
        if self.first_token is None:
            return None
        return self.first_token - self.arrival

    @property
    def latency(self) -> float:
        return self.finished - self.arrival

    @property
    def tbts(self) -> tuple[float, ...]:
        """Gaps between consecutive emitted tokens."""
        return tuple(b - a for a, b in zip(self.token_times,
                                           self.token_times[1:]))


@dataclass
class ServeResult:
    """What ``finish`` hands back for one request or stream."""

    request_id: int
    kind: str                           # "classify" | "generate"
    logits: np.ndarray                  # final logits (classify) or
                                        # last-step logits (generate)
    prediction: int | None = None       # classify argmax
    tokens: np.ndarray | None = None    # generate: prompt + new tokens
    hardware: object | None = None      # HardwareEstimate, if enabled
    records: list | None = None         # per-request AttentionRecords
    batch_sizes: list[int] = field(default_factory=list)
    error: Exception | None = None      # serve-time failure, if any
    reason: str = REASON_OK             # REASON_* terminal code
    timing: RequestTiming | None = None  # latency marks (engine clock)

    @property
    def ok(self) -> bool:
        return self.reason == REASON_OK


# -- request checks, shared by ServingEngine and the worker tier so a
# bad request raises in the caller whichever front door it came through,
# and never takes down the batch it would have been coalesced into
def _check_ids(tokens: np.ndarray, config) -> None:
    """Token ids must index the model's vocabulary: an out-of-range id
    fails the embedding lookup of its whole batch, and a negative one
    silently wraps."""
    vocab = getattr(config, "vocab_size", None)
    if vocab is None:
        return
    if not np.issubdtype(tokens.dtype, np.integer):
        raise ValueError(f"token ids must be integers, got {tokens.dtype}")
    if tokens.size and (tokens.min() < 0 or tokens.max() >= vocab):
        raise ValueError(f"token ids must be in [0, {vocab})")


def check_classify(inputs, mask, limit: int, config
                   ) -> tuple[np.ndarray, np.ndarray]:
    """One classification request as arrays: ``inputs`` shaped for the
    model ``config`` — (L,) token ids in ``[0, vocab_size)``, or
    (L, input_dim) patch features — with ``0 < L <= limit``, and an
    (L,) boolean mask (all true by default) that selects at least one
    position: an empty mask leaves nothing to attend over or pool, and
    would be served as NaN logits."""
    inputs = np.asarray(inputs)
    vocab = getattr(config, "vocab_size", None)
    dim = getattr(config, "input_dim", None)
    if vocab is not None:
        expected, fits = "(L,)", inputs.ndim == 1
    elif dim is not None:
        expected = f"(L, {dim})"
        fits = inputs.ndim == 2 and inputs.shape[1] == dim
    else:
        expected, fits = "(L,) or (L, D)", inputs.ndim in (1, 2)
    if not fits:
        raise ValueError("submit takes one sequence per request: "
                         f"{expected}, got shape {inputs.shape}")
    if not 0 < inputs.shape[0] <= limit:
        raise ValueError(f"request length {inputs.shape[0]} outside "
                         f"[1, {limit}]")
    _check_ids(inputs, config)
    if mask is None:
        return inputs, np.ones(inputs.shape[0], dtype=bool)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != inputs.shape[:1]:
        raise ValueError(f"mask shape {mask.shape} does not match "
                         f"request length {inputs.shape[0]}")
    if not mask.any():
        raise ValueError("mask selects no position")
    return inputs, mask


def check_new_tokens(max_new_tokens: int) -> None:
    """A generation request asks for at least one new token."""
    if max_new_tokens < 1:
        raise ValueError("max_new_tokens must be >= 1")


def check_stream(prompt, max_new_tokens: int, limit: int, decode: bool,
                 config) -> np.ndarray:
    """One generation request's prompt as flat int64 token ids in
    ``[0, vocab_size)``, for a model that decodes incrementally
    (``decode``), with at most ``limit`` prompt tokens and
    ``max_new_tokens >= 1``."""
    if not decode:
        raise TypeError("model does not support incremental decode; "
                        "open_stream needs a causal LM")
    check_new_tokens(max_new_tokens)
    prompt = np.asarray(prompt, dtype=np.int64).reshape(-1)
    if prompt.size == 0 or prompt.size > limit:
        raise ValueError(f"prompt length must be in [1, {limit}]")
    _check_ids(prompt, config)
    return prompt


def resolve_deadline(now: float, deadline: float | None,
                     ttl: float | None) -> float | None:
    """Absolute deadline from either an absolute ``deadline`` or a
    relative ``ttl`` (seconds from arrival)."""
    if deadline is not None and ttl is not None:
        raise ValueError("pass deadline= or ttl=, not both")
    if ttl is not None:
        if ttl <= 0:
            raise ValueError("ttl must be > 0 seconds")
        return now + ttl
    return deadline


@dataclass
class ServingStats:
    """Aggregate view of the traffic served so far.

    Batch counters tick per model forward; the step counters tick per
    scheduler step — one step may carry a prefill forward *and* a
    decode forward, and the per-step admission/preemption tallies are
    the scheduler's observability surface.
    """

    completed: int = 0
    batches: int = 0
    coalesced_requests: int = 0
    decode_rounds: int = 0
    max_batch_size: int = 0
    steps: int = 0
    admitted: int = 0
    preemptions: int = 0
    resumes: int = 0
    # reliability counters: terminal outcomes by reason, plus how many
    # forward attempts failed and how many retries recovered one
    expired: int = 0
    cancelled: int = 0
    shed: int = 0
    errors: int = 0
    retries: int = 0
    # terminal outcomes keyed by REASON_* code — one tick per finished
    # request/stream, so values sum to ``completed``
    reasons: dict = field(default_factory=dict)
    hardware: HardwareTotals = field(default_factory=HardwareTotals)

    def record_terminal(self, reason: str) -> None:
        self.completed += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1

    def record_batch(self, size: int) -> None:
        self.batches += 1
        self.coalesced_requests += size
        self.max_batch_size = max(self.max_batch_size, size)

    def record_step(self, admitted: int = 0, preempted: int = 0,
                    resumed: int = 0) -> None:
        self.steps += 1
        self.admitted += admitted
        self.preemptions += preempted
        self.resumes += resumed

    @property
    def mean_batch_size(self) -> float:
        return self.coalesced_requests / max(self.batches, 1)


class ServingEngine:
    """Dynamic-batching front end over a ``PrunedInferenceEngine``."""

    def __init__(self, engine, policy: BatchPolicy | None = None,
                 estimate_hardware: bool = False, hw_config=None,
                 clock=time.monotonic, continuous: bool = True,
                 preempt_after: int | None = None, pressure: int = 1,
                 slots: int | None = None, faults=None,
                 retries: int = 0, retry_backoff: float = 0.0,
                 max_backlog_tokens: int | None = None,
                 step_token_budget: int | None = None,
                 slo: SLOAdmission | None = None,
                 sleep=time.sleep, registry=None, tracer=None,
                 profiler=None, name: str | None = None):
        """Streams run on the step-planned continuous scheduler:
        ``slots`` decode slots (default ``max_batch_size``), preempting
        streams that ran ``preempt_after`` decode steps once
        ``pressure`` streams wait beyond the free slots (``None``
        disables preemption).  ``step_token_budget`` adds vLLM-style
        token-budget planning on top: each step's admissions are
        throttled so resident decode tokens plus admitted streams'
        chunked-prefill tokens fit the budget.  ``continuous`` is
        accepted for older callers and must stay ``True``.

        Reliability knobs: ``faults`` injects a seeded
        :class:`~repro.serve.faults.FaultPlan` into the forward/step
        paths; ``retries`` re-runs a failed model forward up to that
        many extra times (``retry_backoff`` seconds before the first,
        doubling — forwards are pure functions of their inputs, so a
        retry that succeeds is bit-identical to never having failed);
        ``max_backlog_tokens`` fast-rejects new work with
        ``shed_overload`` once the queued token backlog exceeds it;
        ``slo`` (an :class:`~repro.serve.scheduler.SLOAdmission`) sheds
        new work whose TTFT/TBT target is already unattainable given
        the current backlog, with the same typed ``shed_overload``
        result.

        Observability (all opt-in, no-op by default): ``registry`` (a
        :class:`repro.obs.MetricsRegistry`) receives live
        ``repro_*`` counters/gauges/histograms; ``tracer`` (a
        :class:`repro.obs.TraceRecorder`) records per-request spans
        stamped from the engine clock; ``profiler`` (a
        :class:`repro.obs.KernelProfiler`) times the hardware
        simulator's fused kernel calls; ``name`` labels this engine's
        series and trace track (tier replicas pass ``worker0``...)."""
        if not continuous:
            raise ValueError("the round-based stream scheduler was "
                             "removed; continuous=True is the only mode")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if max_backlog_tokens is not None and max_backlog_tokens < 1:
            raise ValueError("max_backlog_tokens must be >= 1")
        self.engine = engine
        self.policy = policy or BatchPolicy()
        self._estimate_hw = estimate_hardware
        self._hw_config = hw_config
        self.name = name
        self._registry = as_registry(registry)
        self._tracer = as_tracer(tracer)
        self._profiler = profiler
        self._bind_metrics()
        # per-engine pack-once plane cache: decode-step estimates of
        # the same stream reuse packed key bit-planes across steps
        # (generate streams only; classify estimates run cacheless)
        self._pack_cache = (PlaneGroupCache(counters=self._pack_counters)
                            if estimate_hardware else None)
        self._clock = clock
        self._faults = faults
        self._retries = retries
        self._retry_backoff = retry_backoff
        self._max_backlog = max_backlog_tokens
        self._sleep = sleep
        self._config = getattr(engine.model, "config", None)
        self._capacity = getattr(self._config, "max_seq_len", None)
        if self._capacity is None:
            raise ValueError("model config has no max_seq_len")
        # classify requests take up to max_seq_len positions and prompts
        # one fewer; both pad to their own pad_width.  Decode buffers
        # span the full capacity: a decode batch mixes stream ages, so
        # its width cannot be a function of one request
        self._can_decode = hasattr(engine.model, "decode_step")
        self._per_position = getattr(self._config, "head", None) == "span"
        self._batcher = DynamicBatcher(self.policy, self._capacity)
        self._planner = StepPlanner(SchedulerConfig(
            max_slots=slots or self.policy.max_batch_size,
            preempt_after=preempt_after,
            pressure=pressure,
            step_token_budget=step_token_budget),
            registry=registry, labels=self._labels)
        self._step_token_budget = step_token_budget
        self._slo = slo
        if slo is not None:
            slo.bind_metrics(self._registry, self._labels)
        self._now = self._clock()        # engine time of the latest step
        self._slots: KVSlotBuffer | None = None   # built on first admit
        self._streams: dict[int, StreamState] = {}
        self._results: dict[int, ServeResult] = {}
        # ids terminated outside a step (fast-rejects, cancels): the
        # next step()/flush() reports them so pollers see them complete
        self._instant: list[int] = []
        self._next_id = 0
        self.stats = ServingStats()

    # -- observability --------------------------------------------------
    def _bind_metrics(self) -> None:
        """Bind every metric handle once; with no registry these are
        all the shared no-op metric, so per-event cost is one empty
        method call (the CI overhead benchmark pins the bound)."""
        m = self._registry
        self._labels = {"engine": self.name} if self.name else {}
        labels = self._labels
        self._pid = (self._tracer.track(self.name or "engine")
                     if self._tracer.enabled else 0)
        self._m_steps = m.counter(
            "repro_steps_total", "scheduler steps taken", **labels)
        self._m_step_seconds = m.histogram(
            "repro_step_seconds",
            "engine-clock duration of one scheduler step", **labels)
        self._m_batch_size = m.histogram(
            "repro_batch_size", "requests coalesced per model forward",
            buckets=COUNT_BUCKETS, **labels)
        self._m_queue_depth = m.gauge(
            "repro_queue_depth",
            "queued classify requests + waiting streams", **labels)
        self._m_backlog = m.gauge(
            "repro_backlog_tokens", "token backlog in the queues",
            **labels)
        self._m_kv_in_use = m.gauge(
            "repro_kv_slots_in_use", "occupied KV decode slots", **labels)
        self._m_admitted = m.counter(
            "repro_admitted_total", "streams admitted into decode slots",
            **labels)
        self._m_preempted = m.counter(
            "repro_preemptions_total",
            "streams preempted to swappable KV state", **labels)
        self._m_resumed = m.counter(
            "repro_resumes_total", "swapped-out streams re-admitted",
            **labels)
        self._m_shed = m.counter(
            "repro_shed_total", "requests fast-rejected at admission",
            **labels)
        self._m_errors = m.counter(
            "repro_forward_errors_total", "model forwards that raised",
            **labels)
        self._m_retries = m.counter(
            "repro_retries_total", "forward retries attempted", **labels)
        self._m_reasons = {
            reason: m.counter(
                "repro_requests_terminal_total",
                "finished requests by terminal reason",
                reason=reason, **labels)
            for reason in (REASON_OK, REASON_DEADLINE, REASON_CANCELLED,
                           REASON_ERROR, REASON_SHED)}
        # handles for the subsystems this engine constructs; binding
        # unconditionally keeps the series present (at 0) even when the
        # subsystem never materializes, so dashboards don't gap
        self._pack_counters = {
            event: m.counter(
                "repro_pack_cache_events_total",
                "plane-group cache lookups by outcome",
                event=event, **labels)
            for event in ("hit", "extend", "miss")}
        self._kv_counters = {
            event: m.counter(
                "repro_kv_slot_events_total",
                "KV slot-buffer transitions", event=event, **labels)
            for event in ("admit", "evict", "swap_out")}

    # -- submission -----------------------------------------------------
    def _admit(self, tokens: int, request_id: int, kind: str) -> bool:
        """Admission control: False fast-rejects the request with a
        terminal ``shed_overload`` result instead of letting the
        backlog (and everyone's latency) grow without bound — either
        because the token backlog exceeds ``max_backlog_tokens`` or
        because the SLO policy predicts the request's TTFT/TBT target
        is already unattainable behind the current backlog."""
        backlog = self._batcher.backlog_tokens()
        if (self._max_backlog is not None
                and backlog + tokens > self._max_backlog):
            return self._shed(request_id, kind, ShedOverload(
                f"backlog {backlog} + request {tokens} tokens exceeds "
                f"max_backlog_tokens={self._max_backlog}"))
        if self._slo is not None:
            verdict = self._slo.admit(backlog + tokens,
                                      self.tokens_per_step(),
                                      stream=kind == "generate")
            if verdict is not None:
                return self._shed(request_id, kind, ShedOverload(verdict))
        return True

    def _shed(self, request_id: int, kind: str,
              error: ShedOverload) -> bool:
        self._terminal(request_id, kind, REASON_SHED, error)
        self.stats.shed += 1
        self._m_shed.inc()
        self._instant.append(request_id)
        return False

    def tokens_per_step(self) -> int:
        """Rough per-step token throughput for SLO prediction: the
        token budget when planning with one, else the decode-slot
        count."""
        if self._step_token_budget is not None:
            return self._step_token_budget
        return self._planner.config.max_slots

    def submit(self, inputs: np.ndarray, mask: np.ndarray | None = None,
               now: float | None = None, deadline: float | None = None,
               ttl: float | None = None) -> int:
        """Queue one single-sequence classification request; returns
        its id.  ``inputs``: (L,) tokens or (L, D) patch features.
        ``deadline`` (absolute clock time) or ``ttl`` (seconds from
        now) bounds how long the request may wait or run — past it the
        request is shed with ``deadline_exceeded``."""
        inputs, mask = check_classify(inputs, mask, self._capacity,
                                      self._config)
        now = self._clock() if now is None else now
        request = QueuedRequest(
            request_id=self._allocate_id(), inputs=inputs, mask=mask,
            arrival=now,
            deadline=resolve_deadline(now, deadline, ttl))
        if self._tracer.enabled:
            self._tracer.instant("submit", now, self._pid,
                                 request.request_id, kind="classify",
                                 tokens=int(request.length))
        # an admission-time shed terminates *now*: stamp it at arrival
        self._now = now
        if not self._admit(request.length, request.request_id,
                           "classify"):
            return request.request_id
        self._batcher.add(request)
        return request.request_id

    def open_stream(self, prompt: np.ndarray, max_new_tokens: int,
                    now: float | None = None,
                    deadline: float | None = None,
                    ttl: float | None = None) -> int:
        """Open an autoregressive generation stream (causal-LM engines
        only); ``prompt``: (L,) token ids.  ``deadline``/``ttl`` bound
        the stream's total lifetime — an expired stream stops where it
        is and frees its KV slot."""
        prompt = check_stream(prompt, max_new_tokens, self._capacity - 1,
                              self._can_decode, self._config)
        now = self._clock() if now is None else now
        stream = StreamState(
            stream_id=self._allocate_id(), tokens=prompt.copy(),
            max_new_tokens=max_new_tokens, arrival=now,
            deadline=resolve_deadline(now, deadline, ttl),
            # request-derived KV budget: never a function of the batch
            kv_capacity=min(self._capacity,
                            prompt.size + max_new_tokens))
        if self._tracer.enabled:
            self._tracer.instant("submit", now, self._pid,
                                 stream.stream_id, kind="generate",
                                 prompt=int(prompt.size),
                                 max_new_tokens=max_new_tokens)
        # an admission-time shed terminates *now*: stamp it at arrival
        self._now = now
        if not self._admit(prompt.size + max_new_tokens,
                           stream.stream_id, "generate"):
            return stream.stream_id
        self._batcher.add_stream(stream)
        self._streams[stream.stream_id] = stream
        return stream.stream_id

    # -- queue introspection (used by the asyncio front end) ------------
    def next_deadline(self) -> float | None:
        return self._batcher.next_deadline()

    def queue_ready(self, now: float) -> bool:
        return self._batcher.ready(now)

    def has_pending(self) -> bool:
        return bool(len(self._batcher) or self._instant
                    or self.streams_pending())

    def streams_pending(self) -> bool:
        """Whether any generation stream is still live (waiting,
        swapped out or decoding): the asyncio front door keeps stepping
        while one is."""
        return any(not s.done for s in self._streams.values())

    # -- occupancy introspection (leak checks, admission control) -------
    def kv_slots_in_use(self) -> int:
        """Occupied KVSlotBuffer slots."""
        return len(self._slots) if self._slots is not None else 0

    def queue_depth(self) -> int:
        """Waiting work: queued classify requests + waiting streams."""
        return len(self._batcher) + self._batcher.stream_count()

    def backlog_tokens(self) -> int:
        return self._batcher.backlog_tokens()

    def outstanding_tokens(self) -> int:
        """Token work this engine still owes: everything waiting in its
        queues plus the remaining generation budget of streams already
        running — the worker tier's least-loaded routing signal."""
        live = self._slots.streams if self._slots is not None else []
        remaining = sum(max(s.max_new_tokens - s.new_tokens, 0)
                        for s in live)
        return self._batcher.backlog_tokens() + remaining

    # -- lifecycle: terminal errors, cancellation, deadlines ------------
    def _terminal(self, request_id: int, kind: str, reason: str,
                  error: Exception,
                  stream: StreamState | None = None) -> None:
        """Record a typed non-ok terminal result."""
        self.stats.record_terminal(reason)
        self._m_reasons[reason].inc()
        if self._tracer.enabled:
            self._tracer.instant("finish", self._now, self._pid,
                                 request_id, reason=reason)
            if stream is not None:
                self._tracer.complete("request", stream.arrival,
                                      self._now - stream.arrival,
                                      self._pid, request_id,
                                      reason=reason, kind=kind)
        self._results[request_id] = ServeResult(
            request_id=request_id, kind=kind,
            logits=(stream.last_logits
                    if stream is not None
                    and stream.last_logits is not None else np.zeros(0)),
            tokens=(stream.tokens.copy() if stream is not None else None),
            batch_sizes=(list(stream.batch_sizes)
                         if stream is not None else []),
            error=error, reason=reason,
            timing=(self._stream_timing(stream)
                    if stream is not None else None))

    def _stream_timing(self, stream: StreamState) -> RequestTiming:
        return RequestTiming(
            arrival=stream.arrival, finished=self._now,
            first_token=(stream.token_times[0]
                         if stream.token_times else None),
            token_times=tuple(stream.token_times))

    def _terminate_stream(self, stream: StreamState, reason: str,
                          error: Exception) -> None:
        """Stop a live stream wherever it is — waiting, swapped out, or
        running in a slot — and free every bit of its KV state (slot
        row or swapped-out caches)."""
        self._batcher.discard_stream(stream.stream_id)
        if stream.slot is not None:
            self._slots.evict(stream)
        stream.evict()
        stream.done = True
        self._terminal(stream.stream_id, "generate", reason, error,
                       stream=stream)

    def cancel(self, request_id: int) -> bool:
        """Cancel a pending request or live stream: it terminates with
        reason ``cancelled`` and every queue entry and KV slot it held
        is released.  Returns False if the request already finished
        (its existing result stands); raises KeyError for ids this
        engine never issued."""
        if request_id in self._results:
            return False
        self._now = self._clock()
        stream = self._streams.get(request_id)
        if stream is not None:
            if stream.done:
                return False
            self._terminate_stream(stream, REASON_CANCELLED,
                                   RequestCancelled(
                                       f"request {request_id} cancelled"))
            self.stats.cancelled += 1
            self._instant.append(request_id)
            return True
        request = self._batcher.discard(request_id)
        if request is None:
            raise KeyError(f"unknown request {request_id}")
        self._terminal(request_id, "classify", REASON_CANCELLED,
                       RequestCancelled(
                           f"request {request_id} cancelled"))
        self.stats.cancelled += 1
        self._instant.append(request_id)
        return True

    def _shed_expired(self, now: float) -> list[int]:
        """Terminate everything whose deadline has passed: queued
        classify requests, and streams in any state (waiting, swapped,
        or holding a KV slot)."""
        completed: list[int] = []
        for request in self._batcher.shed_expired(now):
            self._terminal(request.request_id, "classify",
                           REASON_DEADLINE, DeadlineExceeded(
                               f"request {request.request_id} missed "
                               f"deadline {request.deadline:.6f}"))
            self.stats.expired += 1
            completed.append(request.request_id)
        for stream in list(self._streams.values()):
            if stream.done or not stream.expired(now):
                continue
            self._terminate_stream(stream, REASON_DEADLINE,
                                   DeadlineExceeded(
                                       f"stream {stream.stream_id} missed "
                                       f"deadline {stream.deadline:.6f}"))
            self.stats.expired += 1
            completed.append(stream.stream_id)
        return completed

    def _drain_instant(self) -> list[int]:
        drained, self._instant = self._instant, []
        return drained

    # -- advancing ------------------------------------------------------
    def step(self, now: float | None = None) -> list[int]:
        """One scheduler step: flush every due classification batch,
        then advance the streams (plan admissions / preemptions,
        decode the slot batch).  Returns ids completed during this
        step."""
        if self._faults is not None:
            # injected step latency: burn it before reading the clock
            # so this step (and its deadline checks) observe the delay
            self._faults.latency_check()
        now = self._clock() if now is None else now
        self._now = now
        completed = self._drain_instant()
        completed += self._shed_expired(now)
        while self._batcher.ready(now):
            completed += self._serve_classify(*self._batcher.pop(now))
        completed += self._advance_streams()
        if self._slo is not None:
            # refine the SLO model's step-time estimate from the wall
            # duration this step actually took (no-op on virtual clocks)
            self._slo.observe_step(self._clock() - now)
        self._m_steps.inc()
        if self._registry.enabled:
            # gauges need derived queue walks — skip them entirely on
            # the null registry to keep the uninstrumented path flat
            self._m_step_seconds.observe(self._clock() - now)
            self._m_queue_depth.set(self.queue_depth())
            self._m_backlog.set(self._batcher.backlog_tokens())
            self._m_kv_in_use.set(self.kv_slots_in_use())
        return completed

    def flush(self) -> list[int]:
        """Serve the waiting classification queue immediately,
        ignoring ``max_wait``."""
        self._now = self._clock()
        completed = self._drain_instant()
        completed += self._shed_expired(self._now)
        while len(self._batcher):
            completed += self._serve_classify(*self._batcher.pop())
        return completed

    def drain(self) -> list[int]:
        """Run everything pending to completion (demo / test helper)."""
        completed = self.flush()
        while self.streams_pending():
            self._now = self._clock()
            completed += self._advance_streams()
        return completed

    # -- completion -----------------------------------------------------
    def result(self, request_id: int) -> ServeResult | None:
        """Peek at a finished request's result (None while pending)."""
        return self._results.get(request_id)

    def collect(self, request_id: int) -> ServeResult:
        """Collect a result and release all of its state *without*
        raising its typed terminal error — the tier worker surface:
        workers ship every result (ok or failed) back to the tier and
        let it decide whether to raise.
        Collecting a live generation stream stops it early and frees
        its KV slot, exactly like :meth:`finish`."""
        if request_id in self._results:
            self._streams.pop(request_id, None)
            return self._results.pop(request_id)
        stream = self._streams.get(request_id)
        if stream is None:
            raise KeyError(f"unknown or still-queued request "
                           f"{request_id}")
        self._batcher.discard_stream(request_id)
        if stream.slot is not None:         # running in the slot buffer
            self._slots.evict(stream)
        self._finalize_stream(stream)
        self._streams.pop(request_id, None)
        return self._results.pop(request_id)

    def finish(self, request_id: int) -> ServeResult:
        """Collect a result and release all of its state (raising the
        serve-time error, if the request failed).  Finishing a live
        generation stream stops it early and frees its KV slot."""
        result = self.collect(request_id)
        if result.error is not None:
            raise result.error
        return result

    # -- internals ------------------------------------------------------
    def _allocate_id(self) -> int:
        self._next_id += 1
        return self._next_id - 1

    def _with_retries(self, call):
        """Run one model forward under the fault plan and retry
        policy.  Transient failures (injected or real) are retried up
        to ``retries`` times with exponential backoff; a forward is a
        pure function of its inputs, so a successful retry yields
        bit-identical results.  Exhausted retries re-raise for the
        caller's containment (fail the batch, not the engine)."""
        attempt = 0
        while True:
            try:
                if self._faults is not None:
                    self._faults.kernel_check()
                return call()
            except Exception:            # noqa: BLE001 — retried/reraised
                self.stats.errors += 1
                self._m_errors.inc()
                if attempt >= self._retries:
                    raise
                if self._retry_backoff > 0:
                    self._sleep(self._retry_backoff * (2 ** attempt))
                attempt += 1
                self.stats.retries += 1
                self._m_retries.inc()

    def _serve_classify(self, width: int,
                        requests: list[QueuedRequest]) -> list[int]:
        try:
            batch: CoalescedBatch = coalesce(requests, width)
            predictions, logits, records = self._with_retries(
                lambda: self.engine.predict_many(
                    batch.inputs, batch.mask,
                    collect_records=self._estimate_hw))
        except Exception as error:       # noqa: BLE001
            # fail exactly this batch's requests; traffic queued in
            # other widths/batches must keep flowing
            completed = []
            for request in requests:
                self._terminal(request.request_id, "classify",
                               REASON_ERROR, error)
                completed.append(request.request_id)
            return completed
        self.stats.record_batch(len(requests))
        self._m_batch_size.observe(len(requests))
        slices = estimates = None
        if records is not None:
            # per-step accounting: slice this batch's records into one
            # group per request and charge them in a single shared-
            # simulator pass (each group's estimate is bit-identical
            # to a solo estimate of that request).  No pack cache: a
            # classify request's keys never recur, so caching them
            # would only cost a per-job pack and resident memory
            slices = [[slice_record(r, i, int(batch.lengths[i]),
                                    int(batch.lengths[i]))
                       for r in records]
                      for i in range(len(requests))]
            estimates = self.engine.estimate_many(
                slices, self._hw_config, profiler=self._profiler)
        completed = []
        for i, request in enumerate(requests):
            length = int(batch.lengths[i])
            estimate = sliced = None
            if estimates is not None:
                sliced = slices[i]
                estimate = estimates[i]
                self.stats.hardware.add(estimate)
            if self._per_position:
                row = logits[i, :length].copy()
                prediction = int(row.argmax())
            else:
                row = logits[i].copy()
                prediction = int(predictions[i])
            self._results[request.request_id] = ServeResult(
                request_id=request.request_id, kind="classify",
                logits=row, prediction=prediction, hardware=estimate,
                records=sliced, batch_sizes=[len(requests)],
                timing=RequestTiming(arrival=request.arrival,
                                     finished=self._now,
                                     first_token=self._now))
            self.stats.record_terminal(REASON_OK)
            self._m_reasons[REASON_OK].inc()
            if self._tracer.enabled:
                rid = request.request_id
                self._tracer.complete("queue", request.arrival,
                                      self._now - request.arrival,
                                      self._pid, rid)
                self._tracer.complete("request", request.arrival,
                                      self._now - request.arrival,
                                      self._pid, rid, reason=REASON_OK,
                                      kind="classify",
                                      batch=len(requests))
                self._tracer.instant("finish", self._now, self._pid,
                                     rid, reason=REASON_OK)
            completed.append(request.request_id)
        return completed

    def _forward(self, forward):
        """Run a model call (with retries under the fault plan),
        capturing attention records when hardware accounting is on."""
        def run():
            if self._estimate_hw:
                return self.engine.run_recorded(forward)
            from ..tensor import no_grad
            with no_grad():
                return forward(), None
        return self._with_retries(run)

    # -- stream scheduler -----------------------------------------------
    def _slot_buffer(self) -> KVSlotBuffer:
        if self._slots is None:
            model = self.engine.model
            attention = model.blocks[0].attention
            self._slots = KVSlotBuffer(
                slots=self._planner.config.max_slots,
                num_blocks=len(model.blocks),
                heads=attention.num_heads,
                head_dim=attention.head_dim,
                capacity=self._capacity,
                counters=(self._kv_counters if self._registry.enabled
                          else None))
        return self._slots

    def _advance_streams(self) -> list[int]:
        """One planned step: preempt under pressure, admit waiting
        streams into free slots (fresh ones prefill this step — the
        chunked-prefill piggyback), decode the slot batch once."""
        if (not self._batcher.stream_count()
                and (self._slots is None or not len(self._slots))):
            return []                   # idle: don't even allocate KV
        slots = self._slot_buffer()
        # price the waiting-queue head for the token-budget planner: a
        # fresh stream charges its whole prompt (chunked prefill) plus
        # its decode token; a swapped-out resumer just decodes
        waiting_tokens = [1 if s.swapped else s.length + 1
                          for s in self._batcher.peek_streams(
                              self._planner.config.max_slots)]
        plan = self._planner.plan(slots.streams,
                                  self._batcher.stream_count(),
                                  waiting_tokens=waiting_tokens)
        for stream in plan.preempt:
            slots.swap_out(stream)
            self._batcher.add_stream(stream)
        admitted = self._batcher.pop_streams(plan.admit_slots)
        resumed = [s for s in admitted if s.swapped]
        fresh = [s for s in admitted if not s.swapped]
        if self._tracer.enabled:
            for stream in plan.preempt:
                self._tracer.instant("preempt", self._now, self._pid,
                                     stream.stream_id)
            for stream in admitted:
                self._tracer.instant("admit", self._now, self._pid,
                                     stream.stream_id,
                                     resumed=stream.swapped)
        for stream in resumed:
            caches, stream.caches = stream.caches, None
            slots.admit(stream, caches)
        completed: list[int] = []
        # fresh streams prefill at their own prompt's pad width: one
        # coalesced forward per width present, narrowest first
        by_width: dict[int, list[StreamState]] = {}
        for stream in fresh:
            by_width.setdefault(pad_width(stream.length, self._capacity),
                                []).append(stream)
        for width in sorted(by_width):
            completed += self._prefill(by_width[width], width, slots)
        self.stats.record_step(admitted=len(admitted),
                               preempted=len(plan.preempt),
                               resumed=len(resumed))
        self._m_admitted.inc(len(admitted))
        self._m_preempted.inc(len(plan.preempt))
        self._m_resumed.inc(len(resumed))
        if len(slots):
            caches = slots.batch()
            chunk = list(slots.streams)
            completed += self._decode(chunk, caches)
            slots.advance(caches)
            for stream in chunk:
                if stream.done:
                    slots.evict(stream)
        return completed

    # -- model-facing sub-steps -----------------------------------------
    def _prefill(self, streams: list[StreamState], width: int,
                 slots: KVSlotBuffer) -> list[int]:
        """Coalesced prompt prefill at pad ``width``; survivors move
        straight into the slot buffer."""
        model = self.engine.model
        lengths = np.array([s.length for s in streams], dtype=np.int64)
        tokens = np.zeros((len(streams), width), dtype=np.int64)
        for i, stream in enumerate(streams):
            tokens[i, :stream.length] = stream.tokens
        try:
            (logits, caches), records = self._forward(
                lambda: model.prefill(tokens, lengths))
        except Exception as error:       # noqa: BLE001 — contained
            # fail exactly this prefill chunk (no slots were allocated
            # yet); other streams keep flowing
            return self._fail_chunk(streams, error)
        self.stats.record_batch(len(streams))
        self._m_batch_size.observe(len(streams))
        completed = []
        for i, stream in enumerate(streams):
            size = int(lengths[i])
            if self._tracer.enabled:
                self._tracer.complete("queue", stream.arrival,
                                      self._now - stream.arrival,
                                      self._pid, stream.stream_id)
                self._tracer.complete("prefill-chunk", self._now, 0.0,
                                      self._pid, stream.stream_id,
                                      tokens=size, batch=len(streams))
            trimmed = [
                {"k": cache["k"][i, :, :size],
                 "v": cache["v"][i, :, :size]}
                for cache in caches]
            if records is not None:
                stream.add_records(
                    [slice_record(r, i, size, size) for r in records])
            stream.batch_sizes.append(len(streams))
            stream.append(int(logits[i].argmax()))
            stream.token_times.append(self._now)
            stream.last_logits = logits[i].copy()
            if self._stream_exhausted(stream):
                self._finalize_stream(stream)
                completed.append(stream.stream_id)
            else:
                slots.admit(stream, trimmed)
        return completed

    def _decode(self, chunk: list[StreamState],
                caches: list[dict]) -> list[int]:
        """One coalesced decode forward over ``chunk`` (whose rows are
        the slot batch ``caches``); appends tokens, slices records,
        and finalizes exhausted streams (slot release is the
        scheduler's job — rows were sliced against this forward's
        composition)."""
        model = self.engine.model
        last = np.array([s.tokens[-1] for s in chunk], dtype=np.int64)
        histories = [int(n) for n in caches[0]["lengths"]]
        try:
            logits, records = self._forward(
                lambda: model.decode_step(last, caches))
        except Exception as error:       # noqa: BLE001 — contained
            # fail exactly this decode chunk; the scheduler's done-
            # stream sweep releases the slot rows after the shared
            # buffers are settled
            return self._fail_chunk(chunk, error)
        self.stats.decode_rounds += 1
        self.stats.record_batch(len(chunk))
        self._m_batch_size.observe(len(chunk))
        completed = []
        for i, stream in enumerate(chunk):
            if self._tracer.enabled:
                self._tracer.complete("decode-step", self._now, 0.0,
                                      self._pid, stream.stream_id,
                                      batch=len(chunk))
            if records is not None:
                stream.add_records(
                    [slice_record(r, i, 1, histories[i] + 1)
                     for r in records])
            stream.batch_sizes.append(len(chunk))
            stream.steps_since_admit += 1
            stream.append(int(logits[i].argmax()))
            stream.token_times.append(self._now)
            stream.last_logits = logits[i].copy()
            if self._stream_exhausted(stream):
                self._finalize_stream(stream)
                completed.append(stream.stream_id)
        return completed

    def _fail_chunk(self, streams: list[StreamState],
                    error: Exception) -> list[int]:
        """Terminate the streams of one failed coalesced forward with
        ``engine_error``.  Slot release is deliberately left to the
        scheduler's done-stream sweep, which already evicts finished
        streams once the shared buffers are consistent."""
        for stream in streams:
            stream.done = True
            self._terminal(stream.stream_id, "generate", REASON_ERROR,
                           error, stream=stream)
        return [s.stream_id for s in streams]

    def _stream_exhausted(self, stream: StreamState) -> bool:
        return (stream.new_tokens >= stream.max_new_tokens
                or stream.length >= self._capacity)

    def _finalize_stream(self, stream: StreamState) -> None:
        stream.done = True
        estimate = None
        if self._estimate_hw and stream.records_by_layer:
            estimate = self.engine.estimate_from_records(
                stream.flat_records(), self._hw_config,
                pack_cache=self._pack_cache,
                pack_group=stream.stream_id,
                profiler=self._profiler)
            self.stats.hardware.add(estimate)
        stream.evict()
        self.stats.record_terminal(REASON_OK)
        self._m_reasons[REASON_OK].inc()
        if self._tracer.enabled:
            self._tracer.complete("request", stream.arrival,
                                  self._now - stream.arrival,
                                  self._pid, stream.stream_id,
                                  reason=REASON_OK, kind="generate",
                                  new_tokens=int(stream.new_tokens))
            self._tracer.instant("finish", self._now, self._pid,
                                 stream.stream_id, reason=REASON_OK)
        self._results[stream.stream_id] = ServeResult(
            request_id=stream.stream_id, kind="generate",
            logits=(stream.last_logits if stream.last_logits is not None
                    else np.zeros(0)),
            tokens=stream.tokens.copy(), hardware=estimate,
            records=(stream.flat_records()
                     if stream.records_by_layer else None),
            batch_sizes=list(stream.batch_sizes),
            timing=self._stream_timing(stream))
