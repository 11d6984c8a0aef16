"""Continuous-batching step planner: admission, eviction, preemption.

The :class:`StepPlanner` schedules generation streams with
iteration-level (Orca / vLLM-style) continuous batching over a fixed
pool of decode slots:

* finished streams release their slot in place (no barrier);
* waiting streams are admitted straight into free slots — at most
  ``free`` per step, so prefill work is *chunked* across steps and
  piggybacks alongside the running streams' decode tokens instead of
  stalling them;
* when the waiting queue exceeds the pressure threshold, the
  longest-running streams (largest ``steps_since_admit``) are
  preempted to swappable per-stream KV state and re-enter the back of
  the waiting queue, so fresh arrivals cannot be starved by
  long-running residents.

The planner is pure bookkeeping — it never touches model state — which
keeps every scheduling decision deterministic and testable, and keeps
the bit-exactness argument local to the KV buffer: whatever plan is
chosen, each stream's kernel shapes depend only on its own request.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..obs.metrics import COUNT_BUCKETS, NULL_METRIC, as_registry
from .streams import StreamState


@dataclass(frozen=True)
class SchedulerConfig:
    """Stream-scheduler knobs (``--preempt-after`` on the CLI).

    ``max_slots``: decode slots (the running-set size; defaults to the
    batch policy's ``max_batch_size``).
    ``preempt_after``: decode steps a stream may run while the queue is
    pressured before it is swapped out; ``None`` disables preemption.
    ``pressure``: how many streams must be waiting (beyond the free
    slots that would absorb them) before preemption kicks in.
    ``step_token_budget``: vLLM-style per-step token budget.  Every
    surviving resident costs one decode token, and an admitted *fresh*
    stream additionally charges its whole prompt (the chunked-prefill
    work piggybacked into the step), so admissions are throttled by the
    tokens a step will actually push through the model — not just by
    free decode slots.  ``None`` keeps the slots-only discipline.
    """

    max_slots: int
    preempt_after: int | None = None
    pressure: int = 1
    step_token_budget: int | None = None

    def __post_init__(self):
        if self.max_slots < 1:
            raise ValueError("max_slots must be >= 1")
        if self.preempt_after is not None and self.preempt_after < 1:
            raise ValueError("preempt_after must be >= 1 (or None)")
        if self.pressure < 1:
            raise ValueError("pressure must be >= 1")
        if self.step_token_budget is not None and self.step_token_budget < 1:
            raise ValueError("step_token_budget must be >= 1 (or None)")


@dataclass
class StepPlan:
    """One step's scheduling decisions, in execution order."""

    preempt: list[StreamState] = field(default_factory=list)
    admit_slots: int = 0                 # waiting streams to pull in
    step_tokens: int = 0                 # decode + prefill tokens planned

    @property
    def idle(self) -> bool:
        return not self.preempt and self.admit_slots == 0


class StepPlanner:
    """Plans one scheduler step from queue state alone.

    ``registry``/``labels`` opt into publishing per-plan metrics
    (plans made, planned step tokens, budget-capped admissions); by
    default the planner binds no-op handles and records nothing.
    """

    def __init__(self, config: SchedulerConfig, registry=None,
                 labels: dict | None = None):
        self.config = config
        metrics = as_registry(registry)
        labels = labels or {}
        self._m_plans = metrics.counter(
            "repro_scheduler_plans_total",
            "continuous-scheduler planning passes", **labels)
        self._m_step_tokens = metrics.histogram(
            "repro_scheduler_step_tokens",
            "tokens planned into one step (decode + chunked prefill)",
            buckets=COUNT_BUCKETS, **labels)
        self._m_budget_capped = metrics.counter(
            "repro_scheduler_budget_capped_total",
            "admissions deferred because the step token budget was full",
            **labels)

    def plan(self, running: list[StreamState], waiting: int,
             waiting_tokens: list[int] | None = None) -> StepPlan:
        """Decide preemptions and admissions for this step.

        ``running``: streams currently holding slots (never more than
        ``max_slots``); ``waiting``: how many streams sit in the
        admission queue.  ``waiting_tokens``: per-stream step cost of
        the waiting queue's head, FIFO order — prompt length + 1 for a
        fresh stream (its chunked prefill rides this step), 1 for a
        swapped-out resumer.  Only consulted under a
        ``step_token_budget``.
        """
        plan = StepPlan()
        free = self.config.max_slots - len(running)
        # pressure preemption: waiting streams beyond what free slots
        # absorb evict residents that have held a slot long enough
        pressured = waiting - free
        victims: list[StreamState] = []
        if (self.config.preempt_after is not None
                and pressured >= self.config.pressure):
            eligible = [s for s in running if s.steps_since_admit
                        >= self.config.preempt_after]
            victims = self._longest_running(eligible,
                                            min(pressured, len(eligible)))
            free += len(victims)

        plan.preempt = victims
        plan.admit_slots = max(0, min(free, waiting))
        # every surviving resident decodes one token this step
        plan.step_tokens = len(running) - len(victims)
        slot_admits = plan.admit_slots
        plan.admit_slots, admit_tokens = self._token_budget_cap(
            plan.admit_slots, plan.step_tokens, waiting_tokens)
        plan.step_tokens += admit_tokens
        self._m_plans.inc()
        self._m_step_tokens.observe(plan.step_tokens)
        if slot_admits > plan.admit_slots:
            self._m_budget_capped.inc(slot_admits - plan.admit_slots)
        return plan

    def _token_budget_cap(self, admit_slots: int, decode_tokens: int,
                          waiting_tokens: list[int] | None
                          ) -> tuple[int, int]:
        """Shrink the slot-based admission count so the step's total
        token work (resident decode + admitted streams' prefill/decode
        tokens) fits ``step_token_budget``.  Admission is strictly FIFO
        — the first waiting stream that does not fit stops the scan, so
        a long prompt is never starved by later short ones.  When
        nothing is running and nothing fits, one stream is still
        admitted (a prompt longer than the budget must make progress).
        Returns (admissions, their token cost)."""
        budget = self.config.step_token_budget
        if budget is None or waiting_tokens is None or admit_slots == 0:
            return admit_slots, 0
        admitted = used = 0
        for cost in waiting_tokens[:admit_slots]:
            if decode_tokens + used + cost > budget:
                break
            admitted += 1
            used += cost
        if admitted == 0 and decode_tokens == 0 and waiting_tokens:
            # progress floor: an idle engine always takes one stream
            admitted, used = 1, waiting_tokens[0]
        return admitted, used

    @staticmethod
    def _longest_running(streams: list[StreamState],
                         count: int) -> list[StreamState]:
        """The ``count`` longest-running streams (most decode steps
        since admission; stream id breaks ties deterministically)."""
        ranked = sorted(streams,
                        key=lambda s: (-s.steps_since_admit, s.stream_id))
        return ranked[:count]


@dataclass
class SLOAdmission:
    """SLO-aware admission control: shed work whose latency target is
    already unattainable at submission time.

    The model is deliberately simple and deterministic: an engine
    pushes about ``tokens_per_step`` tokens through the model per
    scheduler step, and one step takes ``step_time`` seconds (a fixed
    estimate by default; :meth:`observe_step` lets the serving engine
    refine it with an EWMA over measured step durations).  A new
    request's best-case time-to-first-token is then

        ``(backlog_tokens / tokens_per_step + 1) * step_time``

    — the steps needed to drain the work already queued ahead of it,
    plus the step that serves its own prefill.  If that exceeds
    ``ttft_target`` the request is shed *now* with a typed
    ``shed_overload`` result instead of queueing into a certain SLO
    miss (fail fast keeps the clients that can still be served inside
    their targets).  ``tbt_target`` below the per-step time is
    unattainable for any stream (decode emits one token per step), so
    it sheds streams regardless of load.
    """

    ttft_target: float | None = None   # seconds; None = no TTFT gate
    tbt_target: float | None = None    # seconds; None = no TBT gate
    step_time: float = 1e-3            # estimated seconds per step
    smoothing: float = 0.25            # EWMA weight for observed steps

    # metric handles; no-ops unless bind_metrics() swaps in live ones.
    # Class attributes, not fields, so dataclasses.replace() clones
    # (one SLOAdmission per tier replica) start unbound.
    _m_admitted = NULL_METRIC
    _m_shed = NULL_METRIC
    _m_predicted_ttft = NULL_METRIC

    def bind_metrics(self, registry, labels: dict | None = None) -> None:
        """Publish admission verdicts + predicted TTFT into a registry."""
        labels = labels or {}
        registry = as_registry(registry)
        self._m_admitted = registry.counter(
            "repro_slo_admitted_total",
            "requests the SLO admission gate let through", **labels)
        self._m_shed = registry.counter(
            "repro_slo_shed_total",
            "requests shed because the SLO target was unattainable",
            **labels)
        self._m_predicted_ttft = registry.histogram(
            "repro_slo_predicted_ttft_seconds",
            "predicted TTFT at admission time", **labels)

    def __post_init__(self):
        if self.ttft_target is not None and self.ttft_target <= 0:
            raise ValueError("ttft_target must be > 0 (or None)")
        if self.tbt_target is not None and self.tbt_target <= 0:
            raise ValueError("tbt_target must be > 0 (or None)")
        if self.step_time <= 0:
            raise ValueError("step_time must be > 0")
        if not 0 < self.smoothing <= 1:
            raise ValueError("smoothing must be in (0, 1]")

    def observe_step(self, duration: float) -> None:
        """Fold one measured step duration into the estimate (zero
        durations — virtual clocks — leave it untouched, so tests stay
        deterministic)."""
        if duration > 0:
            self.step_time = ((1 - self.smoothing) * self.step_time
                              + self.smoothing * duration)

    def predicted_ttft(self, backlog_tokens: int,
                       tokens_per_step: int) -> float:
        steps = backlog_tokens / max(tokens_per_step, 1)
        return (steps + 1.0) * self.step_time

    def admit(self, backlog_tokens: int, tokens_per_step: int,
              stream: bool = True) -> str | None:
        """None to admit, or a human-readable shed reason when the
        targets are unattainable for work queued behind
        ``backlog_tokens`` tokens."""
        if (stream and self.tbt_target is not None
                and self.step_time > self.tbt_target):
            self._m_shed.inc()
            return (f"TBT SLO {self.tbt_target:.4f}s unattainable: one "
                    f"step takes ~{self.step_time:.4f}s")
        if self.ttft_target is not None:
            predicted = self.predicted_ttft(backlog_tokens,
                                            tokens_per_step)
            self._m_predicted_ttft.observe(predicted)
            if predicted > self.ttft_target:
                self._m_shed.inc()
                return (f"TTFT SLO {self.ttft_target:.4f}s unattainable:"
                        f" ~{predicted:.4f}s predicted behind "
                        f"{backlog_tokens} backlog tokens")
        self._m_admitted.inc()
        return None
