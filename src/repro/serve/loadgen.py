"""Trace-driven load generator and SLO measurement harness.

``python -m repro.serve.loadgen`` — and the ``replay_trace`` helper
the tests drive directly — generates realistic request traffic
against the serving stack and measures what production cares about:
per-request time-to-first-token (TTFT), time-between-tokens (TBT),
end-to-end latency percentiles, and aggregate tokens/second.

Everything is seeded and replayable.  A :class:`TraceSpec` describes
the workload (arrival process, prompt/generation length mix, request
count) and expands to the *same* list of :class:`TraceRequest` every
time — one ``np.random.default_rng(seed)`` with a fixed draw order per
request: (1) inter-arrival gap, (2) request kind, (3) prompt length,
(4) prompt tokens, (5) generation budget.  Two arrival processes:

* ``poisson`` — exponential inter-arrival gaps at ``rate`` req/s;
* ``bursty`` — a two-state Markov-modulated Poisson process (MMPP):
  a calm state at ``rate`` and a burst state at ``burst_rate``, with
  per-arrival switch probabilities ``p_enter``/``p_exit``.  This is
  the millions-of-users traffic shape — long quiet stretches broken
  by arrival storms that overrun any fixed provisioning.

``replay_trace`` feeds a trace into any serving core (a
:class:`~repro.serve.engine.ServingEngine` or a replica tier) and
returns a :class:`LoadReport`.  Driven with a :class:`VirtualClock`
the whole replay is deterministic — arrivals land at exact trace times
and every latency number replays bit-identically; driven with the
wall clock it measures real throughput for the CI SLO gate
(``--check --max-ttft-p99 ... --min-tok-s ...``), publishing a
``BENCH_serving_slo.json`` artifact via
:func:`~repro.eval.artifacts.record_bench`.

The command line serves ``--replicas N`` in-process replicas
(:class:`~repro.serve.workers.WorkerTier`), or with ``--procs N`` one
replica per OS process over a shared memory-mapped snapshot
(:class:`~repro.serve.procworkers.ProcessWorkerTier`, recorded as
``BENCH_serving_procs.json``) — the same tier over either link.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from ..eval.artifacts import record_bench


@dataclass(eq=False)
class TraceRequest:
    """One request of an expanded trace (identity comparison only —
    ``tokens`` is an array)."""

    index: int
    arrival: float                      # seconds from trace start
    kind: str                           # "generate" | "classify"
    tokens: np.ndarray                  # prompt (generate) or inputs
    max_new_tokens: int = 0             # generate only
    ttl: float | None = None            # optional per-request lifetime


@dataclass(frozen=True)
class TraceSpec:
    """Seeded description of a workload; ``generate()`` expands it to
    the same request list every time.

    ``prompt_tokens`` / ``new_tokens`` are inclusive ``(lo, hi)``
    ranges sampled uniformly per request; ``classify_fraction`` mixes
    one-shot classification requests into the stream traffic (their
    input length is drawn from ``prompt_tokens`` too).  ``ttl`` bounds
    every request's lifetime (seconds from arrival) — useful for
    deadline-pressure traces.
    """

    seed: int = 0
    requests: int = 32
    process: str = "poisson"            # "poisson" | "bursty"
    rate: float = 100.0                 # calm-state arrivals per second
    burst_rate: float = 1000.0          # burst-state arrivals per second
    p_enter: float = 0.1                # calm -> burst per arrival
    p_exit: float = 0.3                 # burst -> calm per arrival
    prompt_tokens: tuple[int, int] = (1, 8)
    new_tokens: tuple[int, int] = (2, 8)
    vocab_size: int = 64
    classify_fraction: float = 0.0
    ttl: float | None = None

    def __post_init__(self):
        if self.requests < 1:
            raise ValueError("requests must be >= 1")
        if self.process not in ("poisson", "bursty"):
            raise ValueError(f"unknown arrival process {self.process!r}")
        if min(self.rate, self.burst_rate) <= 0:
            raise ValueError("arrival rates must be > 0")
        for name, (lo, hi) in (("prompt_tokens", self.prompt_tokens),
                               ("new_tokens", self.new_tokens)):
            if not 1 <= lo <= hi:
                raise ValueError(f"{name} range must satisfy "
                                 f"1 <= lo <= hi, got ({lo}, {hi})")
        if not 0.0 <= self.classify_fraction <= 1.0:
            raise ValueError("classify_fraction must be in [0, 1]")

    def generate(self) -> list[TraceRequest]:
        """Expand to the request list.  One rng, fixed per-request draw
        order — the replayability contract."""
        rng = np.random.default_rng(self.seed)
        requests: list[TraceRequest] = []
        now = 0.0
        bursting = False
        for index in range(self.requests):
            if self.process == "bursty":
                # state switch is evaluated per arrival (MMPP with
                # per-arrival transitions keeps the draw count fixed)
                flip = rng.random()
                bursting = (flip >= self.p_exit if bursting
                            else flip < self.p_enter)
            rate = self.burst_rate if bursting else self.rate
            now += float(rng.exponential(1.0 / rate))
            kind = ("classify" if rng.random() < self.classify_fraction
                    else "generate")
            length = int(rng.integers(self.prompt_tokens[0],
                                      self.prompt_tokens[1] + 1))
            tokens = rng.integers(0, self.vocab_size, size=length)
            new_tokens = int(rng.integers(self.new_tokens[0],
                                          self.new_tokens[1] + 1))
            requests.append(TraceRequest(
                index=index, arrival=now, kind=kind, tokens=tokens,
                max_new_tokens=(new_tokens if kind == "generate" else 0),
                ttl=self.ttl))
        return requests


class VirtualClock:
    """Injectable deterministic clock: ``clock()`` reads it,
    ``advance`` moves it.  Replays driven by one are bit-identical —
    timings included — run to run."""

    def __init__(self, start: float = 0.0):
        self.now = float(start)

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


@dataclass(eq=False)
class RequestOutcome:
    """One trace request's terminal result with its latency marks."""

    request: TraceRequest
    result: object                      # ServeResult

    @property
    def reason(self) -> str:
        return self.result.reason

    @property
    def ok(self) -> bool:
        return self.result.ok

    @property
    def timing(self):
        return self.result.timing

    @property
    def ttft(self) -> float | None:
        timing = self.result.timing
        return None if timing is None else timing.ttft

    @property
    def latency(self) -> float | None:
        timing = self.result.timing
        return None if timing is None else timing.latency

    @property
    def tbts(self) -> tuple[float, ...]:
        timing = self.result.timing
        return () if timing is None else timing.tbts

    @property
    def new_tokens(self) -> int:
        if self.result.tokens is None:
            return 0
        return max(len(self.result.tokens) - len(self.request.tokens), 0)


def _percentile(values: list[float], q: float) -> float | None:
    return float(np.percentile(values, q)) if values else None


@dataclass
class LoadReport:
    """What one trace replay measured."""

    outcomes: list[RequestOutcome]
    duration: float                     # clock seconds, first submit
                                        # to final completion
    steps: int = 0
    reasons: dict = field(default_factory=dict)

    @property
    def ttfts(self) -> list[float]:
        return [o.ttft for o in self.outcomes
                if o.ok and o.ttft is not None]

    @property
    def tbts(self) -> list[float]:
        return [tbt for o in self.outcomes if o.ok for tbt in o.tbts]

    @property
    def latencies(self) -> list[float]:
        return [o.latency for o in self.outcomes
                if o.ok and o.latency is not None]

    @property
    def generated_tokens(self) -> int:
        return sum(o.new_tokens for o in self.outcomes if o.ok)

    @property
    def tok_s(self) -> float:
        return self.generated_tokens / max(self.duration, 1e-12)

    def metrics(self) -> dict:
        """Flat dict for ``record_bench`` / the CI SLO gate."""
        return {
            "requests": len(self.outcomes),
            "completed_ok": sum(1 for o in self.outcomes if o.ok),
            "reasons": dict(self.reasons),
            "duration_s": self.duration,
            "steps": self.steps,
            "generated_tokens": self.generated_tokens,
            "tok_s": self.tok_s,
            "ttft_p50": _percentile(self.ttfts, 50),
            "ttft_p95": _percentile(self.ttfts, 95),
            "ttft_p99": _percentile(self.ttfts, 99),
            "tbt_p50": _percentile(self.tbts, 50),
            "tbt_p99": _percentile(self.tbts, 99),
            "latency_p50": _percentile(self.latencies, 50),
            "latency_p99": _percentile(self.latencies, 99),
        }

    def check(self, max_ttft_p99: float | None = None,
              min_tok_s: float | None = None,
              max_tbt_p99: float | None = None) -> "LoadReport":
        """SLO gate: raise ``SystemExit`` listing every breached
        target (the CI job's failure mode); returns self when clean."""
        metrics = self.metrics()
        failures = []
        if max_ttft_p99 is not None:
            p99 = metrics["ttft_p99"]
            if p99 is None or p99 > max_ttft_p99:
                failures.append(f"ttft_p99 {p99} > {max_ttft_p99}")
        if max_tbt_p99 is not None:
            p99 = metrics["tbt_p99"]
            if p99 is not None and p99 > max_tbt_p99:
                failures.append(f"tbt_p99 {p99} > {max_tbt_p99}")
        if min_tok_s is not None and metrics["tok_s"] < min_tok_s:
            failures.append(f"tok_s {metrics['tok_s']:.1f} < {min_tok_s}")
        if failures:
            raise SystemExit("SLO check failed: " + "; ".join(failures))
        return self


def replay_trace(core, trace, clock=None,
                 virtual_dt: float = 1e-3) -> LoadReport:
    """Feed a trace into a serving core and measure it.

    ``core`` is anything with the engine surface (``ServingEngine``,
    ``WorkerTier``, ``ProcessWorkerTier``); ``trace`` a :class:`TraceSpec`
    or an expanded request list.  ``clock=None`` runs on a fresh
    :class:`VirtualClock` advanced ``virtual_dt`` per step (fully
    deterministic — the default for tests); any object with an
    ``advance`` attribute is treated as a virtual clock too, and a
    plain callable (``time.monotonic``) runs the replay in real time.

    Requests are submitted with ``now=`` pinned to their exact trace
    arrival, so arrival timestamps — and everything derived from them
    — never depend on the stepping cadence.
    """
    requests = (trace.generate() if isinstance(trace, TraceSpec)
                else list(trace))
    if clock is None:
        clock = VirtualClock()
    virtual = hasattr(clock, "advance")
    start = clock()
    in_flight: dict[int, TraceRequest] = {}
    outcomes: list[RequestOutcome] = []
    reasons: dict[str, int] = {}

    def collect(completed_ids) -> None:
        for request_id in completed_ids:
            request = in_flight.pop(request_id, None)
            if request is None:
                continue
            result = core.result(request_id)
            try:
                core.finish(request_id)  # release engine-side state
            except Exception:            # noqa: BLE001 — typed terminal
                pass                     # failure; result already peeked
            reasons[result.reason] = reasons.get(result.reason, 0) + 1
            outcomes.append(RequestOutcome(request=request,
                                           result=result))

    next_up = 0
    while next_up < len(requests) or in_flight:
        now = clock()
        while (next_up < len(requests)
               and start + requests[next_up].arrival <= now):
            request = requests[next_up]
            arrival = start + request.arrival
            if request.kind == "classify":
                request_id = core.submit(request.tokens, now=arrival,
                                         ttl=request.ttl)
            else:
                request_id = core.open_stream(
                    request.tokens, request.max_new_tokens,
                    now=arrival, ttl=request.ttl)
            in_flight[request_id] = request
            next_up += 1
        collect(core.step(now))
        if virtual:
            # advance one step; when fully idle, jump the dead air to
            # the next arrival (deterministic — the jump target is a
            # trace time, not a measurement)
            gap = virtual_dt
            if not in_flight and next_up < len(requests):
                gap = max(gap,
                          start + requests[next_up].arrival - clock())
            clock.advance(gap)
    # the report sorts by trace index so replays compare positionally
    outcomes.sort(key=lambda o: o.request.index)
    stats = getattr(core, "stats", None)
    values = (stats.values() if isinstance(stats, dict)
              else [stats] if stats is not None else [])
    return LoadReport(outcomes=outcomes, duration=clock() - start,
                      reasons=reasons,
                      steps=sum(s.steps for s in values))


def print_report(report: LoadReport, label: str = "loadgen") -> None:
    metrics = report.metrics()
    def fmt(key, scale=1e3, unit="ms"):
        value = metrics[key]
        return "    -" if value is None else f"{value * scale:7.2f}{unit}"
    print(f"== {label}: {metrics['requests']} requests in "
          f"{metrics['duration_s']:.3f}s ==")
    print(f"  outcomes: {metrics['reasons']}")
    print(f"  TTFT    p50 {fmt('ttft_p50')}  p95 {fmt('ttft_p95')}  "
          f"p99 {fmt('ttft_p99')}")
    print(f"  TBT     p50 {fmt('tbt_p50')}  p99 {fmt('tbt_p99')}")
    print(f"  latency p50 {fmt('latency_p50')}  p99 "
          f"{fmt('latency_p99')}")
    print(f"  throughput {metrics['tok_s']:.1f} tok/s "
          f"({metrics['generated_tokens']} tokens, "
          f"{metrics['steps']} engine steps)")


def main(argv=None) -> None:
    from .batcher import BatchPolicy
    from .procworkers import ProcessWorkerTier
    from .scheduler import SchedulerConfig, SLOAdmission
    from .workers import WorkerTier
    from .__main__ import build_lm_engine

    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.loadgen",
        description="trace-driven load & SLO harness over a "
                    "multi-worker serving tier")
    parser.add_argument("--engine-dir", default=None,
                        help="saved LM snapshot to serve (default: "
                             "build the toy TransformerLM and snapshot "
                             "it to a temp dir)")
    parser.add_argument("--replicas", type=int, default=2)
    parser.add_argument("--procs", type=int, default=None, metavar="N",
                        help="serve through a ProcessWorkerTier of N "
                             "worker processes (one engine replica per "
                             "OS process, shared mmap snapshot) instead "
                             "of the in-process WorkerTier")
    parser.add_argument("--dim", type=int, default=32,
                        help="toy LM model width (default 32; raise it "
                             "so each forward dominates IPC overhead "
                             "in throughput benchmarks)")
    parser.add_argument("--layers", type=int, default=2,
                        help="toy LM transformer layers (default 2)")
    parser.add_argument("--requests", type=int, default=48)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--process", choices=["poisson", "bursty"],
                        default="bursty")
    parser.add_argument("--rate", type=float, default=200.0)
    parser.add_argument("--burst-rate", type=float, default=2000.0)
    parser.add_argument("--new-tokens", type=int, nargs=2,
                        default=(2, 8), metavar=("LO", "HI"))
    parser.add_argument("--prompt-tokens", type=int, nargs=2,
                        default=(1, 8), metavar=("LO", "HI"))
    parser.add_argument("--max-batch-size", type=int, default=4)
    parser.add_argument("--step-token-budget", type=int, default=32)
    parser.add_argument("--ttft-slo", type=float, default=None,
                        help="shed arrivals whose predicted TTFT "
                             "exceeds this many seconds")
    parser.add_argument("--virtual", action="store_true",
                        help="replay on a deterministic virtual clock "
                             "instead of the wall clock")
    parser.add_argument("--check", action="store_true",
                        help="gate the SLO thresholds below (exit "
                             "non-zero on breach)")
    parser.add_argument("--max-ttft-p99", type=float, default=None)
    parser.add_argument("--max-tbt-p99", type=float, default=None)
    parser.add_argument("--min-tok-s", type=float, default=None)
    parser.add_argument("--metrics-port", type=int, default=None,
                        metavar="PORT",
                        help="serve GET /metrics on 127.0.0.1:PORT "
                             "from a background thread during the "
                             "replay (0 = ephemeral)")
    parser.add_argument("--metrics-linger", type=float, default=0.0,
                        metavar="SECONDS",
                        help="keep the --metrics-port endpoint alive "
                             "this long after the replay so an "
                             "external scraper catches the final "
                             "counters")
    parser.add_argument("--metrics-dump", action="store_true",
                        help="print the Prometheus-text exposition "
                             "after the replay")
    parser.add_argument("--trace-export", default=None, metavar="PATH",
                        help="write per-request spans as Chrome "
                             "trace-event JSON (open in Perfetto); "
                             "byte-identical across --virtual replays")
    args = parser.parse_args(argv)
    if args.replicas < 1:
        parser.error("--replicas must be >= 1")
    if args.procs is not None and args.procs < 1:
        parser.error("--procs must be >= 1")
    if args.layers < 1:
        parser.error("--layers must be >= 1")
    if args.dim < 2 or args.dim % 2:
        parser.error("--dim must be a positive even number (the toy "
                     "LM has 2 attention heads)")
    try:
        # the trace's and the serving stack's own checks: a one-line
        # error, no traceback
        trace = TraceSpec(
            seed=args.seed, requests=args.requests,
            process=args.process, rate=args.rate,
            burst_rate=args.burst_rate,
            prompt_tokens=tuple(args.prompt_tokens),
            new_tokens=tuple(args.new_tokens))
        policy = BatchPolicy(max_batch_size=args.max_batch_size,
                             max_wait=0.0)
        SchedulerConfig(max_slots=args.max_batch_size,
                        step_token_budget=args.step_token_budget)
    except ValueError as error:
        parser.error(str(error))

    registry = tracer = metrics_server = None
    if args.metrics_dump or args.metrics_port is not None:
        from ..obs import MetricsRegistry
        registry = MetricsRegistry()
    if args.trace_export:
        from ..obs import TraceRecorder
        tracer = TraceRecorder()
    if args.metrics_port is not None:
        from ..obs import start_metrics_server
        metrics_server = start_metrics_server(registry,
                                              port=args.metrics_port)
        print(f"[metrics] serving http://127.0.0.1:"
              f"{metrics_server.server_address[1]}/metrics")

    with tempfile.TemporaryDirectory() as scratch:
        directory = args.engine_dir
        if directory is None:
            directory = scratch
            build_lm_engine(args.seed, dim=args.dim,
                            num_layers=args.layers).save(directory)
        clock = VirtualClock() if args.virtual else time.monotonic
        slo = (SLOAdmission(ttft_target=args.ttft_slo)
               if args.ttft_slo is not None else None)
        tier_cls = WorkerTier if args.procs is None else ProcessWorkerTier
        with tier_cls.from_snapshot(
                directory, replicas=args.procs or args.replicas,
                policy=policy, clock=clock,
                step_token_budget=args.step_token_budget, slo=slo,
                registry=registry, tracer=tracer) as tier:
            report = replay_trace(tier, trace, clock=clock)

    if args.procs is not None:
        label = (f"{args.process} x{args.procs} worker processes "
                 f"({'virtual' if args.virtual else 'wall'} clock)")
    else:
        label = (f"{args.process} x{args.replicas} replicas "
                 f"({'virtual' if args.virtual else 'wall'} clock)")
    print_report(report, label)
    context = {
        "replicas": args.replicas, "procs": args.procs,
        "process": args.process,
        "seed": args.seed, "requests": args.requests,
        "rate": args.rate, "burst_rate": args.burst_rate,
        "step_token_budget": args.step_token_budget,
        "dim": args.dim, "layers": args.layers,
        "clock": "virtual" if args.virtual else "wall",
        "python": sys.version.split()[0]}
    metrics = report.metrics()
    bench_name = "serving_slo" if args.procs is None else "serving_procs"
    path = record_bench(bench_name, metrics, context=context)
    if path:
        print(f"  [bench] recorded -> {path}")
    if tracer is not None:
        tracer.save(args.trace_export)
        print(f"  [trace] wrote {len(tracer.events)} events to "
              f"{args.trace_export}")
    if metrics_server is not None:
        if args.metrics_linger > 0:
            time.sleep(args.metrics_linger)
        metrics_server.shutdown()
    if args.metrics_dump:
        print(registry.exposition(), end="")
    if args.check:
        report.check(max_ttft_p99=args.max_ttft_p99,
                     min_tok_s=args.min_tok_s,
                     max_tbt_p99=args.max_tbt_p99)
        print("  [check] SLOs met")


if __name__ == "__main__":
    main()
