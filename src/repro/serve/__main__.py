"""Serving demo: ``python -m repro.serve``.

By default builds a small pruned classifier and a causal LM; with
``--engine-dir PATH`` it instead serves one saved
``PrunedInferenceEngine.from_directory`` snapshot (e.g. an entry of the
eval store, or anything ``engine.save`` wrote), with classify requests
for a classifier and generation streams for a causal LM.  Pushes a
burst of mixed-length requests / generation streams through the
dynamic batcher and prints per-request results plus aggregate
hardware accounting (cycles and energy charged per request even
though the traffic was served coalesced).  Streams run on the
step-planned continuous scheduler (``--preempt-after`` enables
preemption under queue pressure); ``--kernel-backend`` picks which
bit-serial kernel backend produces the hardware estimates; each
estimate records the backend that made it.
"""

from __future__ import annotations

import argparse
from dataclasses import replace

import numpy as np

from ..core import PrunedInferenceEngine
from ..hw import AE_LEOPARD, get_backend
from ..models import (ClassifierConfig, LMConfig, TransformerClassifier,
                      TransformerLM)
from . import BatchPolicy, SchedulerConfig, ServingEngine
from .engine import check_new_tokens


def build_classifier_engine(seed: int = 0) -> PrunedInferenceEngine:
    model = TransformerClassifier(ClassifierConfig(
        vocab_size=64, max_seq_len=24, dim=32, num_heads=2,
        num_layers=2, num_classes=2, seed=seed))
    controller = model.make_controller()
    controller.set_threshold_values(np.zeros(2))
    return PrunedInferenceEngine(model, controller)


def build_lm_engine(seed: int = 0, max_seq_len: int = 32,
                    dim: int = 32,
                    num_layers: int = 2) -> PrunedInferenceEngine:
    """Toy causal LM engine; ``dim``/``num_layers`` scale the model so
    throughput benchmarks can make each forward expensive enough to
    dominate scheduling overhead."""
    model = TransformerLM(LMConfig(
        vocab_size=64, max_seq_len=max_seq_len, dim=dim, num_heads=2,
        num_layers=num_layers, seed=seed))
    controller = model.make_controller()
    controller.set_threshold_values(np.zeros(num_layers))
    return PrunedInferenceEngine(model, controller)


def load_engine(directory: str) -> PrunedInferenceEngine:
    """Rebuild a saved engine and check it is servable (single-sequence
    requests; MemN2N's (story, question) pairs don't fit the queue)."""
    engine = PrunedInferenceEngine.from_directory(directory)
    config = getattr(engine.model, "config", None)
    if getattr(config, "max_seq_len", None) is None:
        raise SystemExit(
            f"error: {type(engine.model).__name__} snapshots take "
            "multi-part inputs the serving queue does not model; "
            "serve a TransformerClassifier or TransformerLM snapshot")
    return engine


def engine_kind(engine: PrunedInferenceEngine) -> str:
    """The traffic a model serves: ``generate`` for a causal LM,
    ``classify`` otherwise."""
    return ("generate" if hasattr(engine.model, "decode_step")
            else "classify")


def make_serving(args, engine, hw_config,
                 name: str | None = None) -> ServingEngine:
    return ServingEngine(
        engine, args.policy, estimate_hardware=True, hw_config=hw_config,
        preempt_after=args.preempt_after,
        registry=args.obs_registry, tracer=args.obs_tracer, name=name)


def _random_prompts(args, config, rng) -> list[np.ndarray]:
    """``--streams`` short prompts of token ids."""
    prompt_cap = max(2, min(9, config.max_seq_len // 2))
    return [rng.integers(1, config.vocab_size, size=int(length))
            for length in rng.integers(1, prompt_cap, size=args.streams)]


def _random_requests(args, config, rng) -> list[np.ndarray]:
    """``--requests`` classify inputs: token ids, or patch features for
    continuous-input (ViT-style) classifiers."""
    lengths = rng.integers(3, config.max_seq_len + 1, size=args.requests)
    if config.vocab_size is not None:
        return [rng.integers(0, config.vocab_size, size=int(length))
                for length in lengths]
    return [rng.standard_normal((int(length), config.input_dim))
            for length in lengths]


def print_classify(result) -> None:
    hw = result.hardware
    print(f"  request {result.request_id}: class {result.prediction}  "
          f"batch of {result.batch_sizes[0]}  "
          f"{hw.runtime_ns:8.1f} ns ({hw.speedup_vs_baseline:.2f}x "
          f"vs baseline, pruning {hw.pruning_rate:.0%}, "
          f"kernel {hw.kernel_backend})")


def print_stream(result) -> None:
    hw = result.hardware
    print(f"  stream {result.request_id}: {len(result.tokens)} tokens "
          f"{result.tokens[:8].tolist()}...  coalesced with up to "
          f"{max(result.batch_sizes)} streams  "
          f"{hw.runtime_ns:8.1f} ns ({hw.speedup_vs_baseline:.2f}x, "
          f"kernel {hw.kernel_backend})")


def print_reason_stats(name: str, stats, health: str | None = None
                       ) -> None:
    """One observability line: terminal outcomes by reason code plus
    the reliability counters (and the replica's health in a tier)."""
    reasons = ", ".join(f"{reason}={count}"
                        for reason, count in sorted(stats.reasons.items()))
    line = (f"  [stats] {name}: {stats.completed} terminal "
            f"({reasons or 'none'}); errors={stats.errors} "
            f"retries={stats.retries}")
    if health is not None:
        line += f" health={health}"
    print(line)


def classify_demo(args, engine: PrunedInferenceEngine,
                  hw_config) -> None:
    print("== one-shot classification traffic ==")
    serving = make_serving(args, engine, hw_config, name="classifier")
    rng = np.random.default_rng(args.seed)
    ids = [serving.submit(inputs) for inputs
           in _random_requests(args, engine.model.config, rng)]
    serving.drain()
    for request_id in ids:
        print_classify(serving.finish(request_id))
    stats = serving.stats
    print(f"  -> {stats.completed} requests in {stats.batches} batches "
          f"(mean size {stats.mean_batch_size:.1f}); traffic totals "
          f"{stats.hardware.runtime_ns / 1e3:.1f} us, "
          f"{stats.hardware.energy_pj / 1e6:.2f} uJ "
          f"({stats.hardware.speedup_vs_baseline:.2f}x cycles, "
          f"{stats.hardware.energy_reduction:.2f}x energy vs baseline)")
    if args.stats:
        print_reason_stats("classifier", stats)
    print()


def generate_demo(args, engine: PrunedInferenceEngine,
                  hw_config) -> None:
    print("== concurrent generation streams (continuous scheduler, "
          "KV slot buffer) ==")
    serving = make_serving(args, engine, hw_config, name="lm")
    rng = np.random.default_rng(args.seed)
    ids = [serving.open_stream(prompt, max_new_tokens=args.new_tokens)
           for prompt in _random_prompts(args, engine.model.config, rng)]
    steps = 0
    while serving.has_pending():
        serving.step()
        steps += 1
    for stream_id in ids:
        print_stream(serving.finish(stream_id))
    stats = serving.stats
    print(f"  -> {len(ids)} streams, {stats.decode_rounds} coalesced "
          f"decode rounds over {steps} engine steps; traffic totals "
          f"{stats.hardware.runtime_ns / 1e3:.1f} us "
          f"({stats.hardware.speedup_vs_baseline:.2f}x cycles, "
          f"{stats.hardware.energy_reduction:.2f}x energy vs baseline)")
    print(f"     scheduler: {stats.admitted} admissions, "
          f"{stats.preemptions} preemptions, "
          f"{stats.resumes} resumes over {stats.steps} planned steps")
    if args.stats:
        print_reason_stats("lm", stats)


def tier_demo(args, directory: str, hw_config) -> None:
    from .procworkers import ProcessWorkerTier
    from .workers import WorkerTier

    if args.procs is not None:
        tier_cls, replicas = ProcessWorkerTier, args.procs
        print(f"== multi-process worker tier ({replicas} worker "
              "processes, shared mmap snapshot, least-loaded routing) ==")
    else:
        tier_cls, replicas = WorkerTier, args.replicas
        print(f"== shared-nothing worker tier ({replicas} replicas, "
              "least-loaded routing) ==")
    with tier_cls.from_snapshot(
            directory, replicas=replicas, policy=args.policy,
            estimate_hardware=True, hw_config=hw_config,
            preempt_after=args.preempt_after,
            registry=args.obs_registry, tracer=args.obs_tracer) as tier:
        # traffic shape follows the model, as on the single-engine path
        config = tier.handshake["config"]
        rng = np.random.default_rng(args.seed)
        if tier.handshake["decode"]:
            ids = [tier.open_stream(prompt, max_new_tokens=args.new_tokens)
                   for prompt in _random_prompts(args, config, rng)]
        else:
            ids = [tier.submit(inputs)
                   for inputs in _random_requests(args, config, rng)]
        tier.drain()
        for request_id in ids:
            result = tier.finish(request_id)
            (print_stream if result.kind == "generate"
             else print_classify)(result)
        summary = tier.stats_summary()
        tier_row = summary["tier"]
        reasons = ", ".join(f"{reason}={count}" for reason, count
                            in sorted(tier_row["reasons"].items()))
        print(f"  -> tier: {tier_row['completed']} terminal across "
              f"{tier_row['replicas']} replicas ({reasons or 'none'}); "
              f"shed={tier_row['shed']} errors={tier_row['errors']} "
              f"preemptions={tier_row['preemptions']}")
        for name, row in summary["workers"].items():
            print(f"  -> {name}: {row['completed']} served, "
                  f"{row['outstanding_tokens']} tokens outstanding, "
                  f"health={row['health']}")
            if args.stats:
                print_reason_stats(name, tier.stats[name],
                                   health=row["health"])


# the toy model and the single-engine demo of each kind of traffic
TOYS = {"classify": build_classifier_engine, "generate": build_lm_engine}
DEMOS = {"classify": classify_demo, "generate": generate_demo}
MODES = [*TOYS, "both"]


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="batched serving demo over the pruned engine")
    parser.add_argument("--mode", choices=MODES, default=None,
                        help="traffic to serve: the built-in toy "
                             "classifier, the toy LM, or both (the "
                             "default); with --engine-dir it must name "
                             "the snapshot's kind")
    parser.add_argument("--engine-dir", default=None, metavar="PATH",
                        help="serve a saved PrunedInferenceEngine "
                             "snapshot instead of the built-in toys")
    parser.add_argument("--preempt-after", type=int, default=None,
                        metavar="STEPS",
                        help="preempt streams that ran "
                             "this many decode steps when the waiting "
                             "queue is pressured (default: never)")
    parser.add_argument("--requests", type=int, default=12,
                        help="one-shot requests to submit (classify)")
    parser.add_argument("--streams", type=int, default=6,
                        help="concurrent generation streams")
    parser.add_argument("--new-tokens", type=int, default=8,
                        help="tokens to generate per stream")
    parser.add_argument("--max-batch-size", type=int, default=4)
    parser.add_argument("--max-wait", type=float, default=0.002)
    parser.add_argument("--replicas", type=int, default=1,
                        metavar="N",
                        help="serve the demo traffic through a "
                             "shared-nothing WorkerTier of N engine "
                             "replicas (each rebuilt from the same "
                             "snapshot) instead of one engine")
    parser.add_argument("--procs", type=int, default=None,
                        metavar="N",
                        help="like --replicas but each replica runs in "
                             "its own OS process (ProcessWorkerTier), "
                             "all memory-mapping one shared snapshot")
    parser.add_argument("--stats", action="store_true",
                        help="print per-engine terminal-reason counters "
                             "(and per-replica health in a tier) after "
                             "each demo")
    parser.add_argument("--kernel-backend", default=None,
                        help="bit-serial kernel backend for hardware "
                             "estimates (see repro.hw.backends)")
    parser.add_argument("--metrics-dump", action="store_true",
                        help="print the Prometheus-text metrics "
                             "exposition after the demo (non-server "
                             "snapshot surface)")
    parser.add_argument("--metrics-port", type=int, default=None,
                        metavar="PORT",
                        help="serve GET /metrics on 127.0.0.1:PORT "
                             "from a background thread for the "
                             "duration of the demo (0 = ephemeral)")
    parser.add_argument("--metrics-linger", type=float, default=0.0,
                        metavar="SECONDS",
                        help="keep the --metrics-port endpoint alive "
                             "this long after the demo finishes (lets "
                             "an external scraper catch the final "
                             "counters)")
    parser.add_argument("--trace-export", default=None, metavar="PATH",
                        help="record per-request trace spans and write "
                             "Chrome trace-event JSON here (open in "
                             "Perfetto)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    hw_config = None
    if args.kernel_backend:
        try:
            get_backend(args.kernel_backend)  # typo -> error before traffic
        except KeyError as error:
            parser.error(error.args[0])
        hw_config = replace(AE_LEOPARD, kernel_backend=args.kernel_backend)
    try:
        # the serving stack's own checks: a one-line error, no traceback
        args.policy = BatchPolicy(max_batch_size=args.max_batch_size,
                                  max_wait=args.max_wait)
        SchedulerConfig(max_slots=args.max_batch_size,
                        preempt_after=args.preempt_after)
        check_new_tokens(args.new_tokens)
    except ValueError as error:
        parser.error(str(error))
    if args.requests < 1:
        parser.error("--requests must be >= 1")
    if args.streams < 1:
        parser.error("--streams must be >= 1")
    if args.replicas < 1:
        parser.error("--replicas must be >= 1")
    if args.procs is not None:
        if args.procs < 1:
            parser.error("--procs must be >= 1")
        if args.replicas > 1:
            parser.error("--procs and --replicas are alternatives: "
                         "pick in-process replicas or worker processes")

    engine = None
    if args.engine_dir:
        engine = load_engine(args.engine_dir)
        kind = engine_kind(engine)
        if args.mode not in (None, kind):
            parser.error(f"--mode {args.mode} does not match "
                         f"{args.engine_dir}: it holds a "
                         f"{type(engine.model).__name__}, served as "
                         f"{kind} traffic")

    # observability surfaces are opt-in: without these flags every
    # engine binds no-op handles and the demo runs uninstrumented
    args.obs_registry = None
    args.obs_tracer = None
    metrics_server = None
    if args.metrics_dump or args.metrics_port is not None:
        from ..obs import MetricsRegistry
        args.obs_registry = MetricsRegistry()
    if args.trace_export:
        from ..obs import TraceRecorder
        args.obs_tracer = TraceRecorder()
    if args.metrics_port is not None:
        from ..obs import start_metrics_server
        metrics_server = start_metrics_server(args.obs_registry,
                                              port=args.metrics_port)
        print(f"[metrics] serving http://127.0.0.1:"
              f"{metrics_server.server_address[1]}/metrics")
    try:
        _dispatch(args, hw_config, engine)
    finally:
        if metrics_server is not None:
            if args.metrics_linger > 0:
                import time
                time.sleep(args.metrics_linger)
            metrics_server.shutdown()
        if args.obs_tracer is not None:
            args.obs_tracer.save(args.trace_export)
            print(f"[trace] wrote {len(args.obs_tracer.events)} events "
                  f"to {args.trace_export}")
        if args.metrics_dump:
            print(args.obs_registry.exposition(), end="")


def _dispatch(args, hw_config, engine) -> None:
    """Serve the snapshot ``engine`` (loaded from ``--engine-dir``), or
    the toy models ``--mode`` names, on one engine or a tier."""
    tier = args.replicas > 1 or args.procs is not None
    if engine is not None:
        kind = engine_kind(engine)
        print(f"[engine] {args.engine_dir}: "
              f"{type(engine.model).__name__} ({kind} traffic)")
        if tier:
            tier_demo(args, args.engine_dir, hw_config)
        else:
            DEMOS[kind](args, engine, hw_config)
        return
    for kind in [args.mode] if args.mode in TOYS else list(TOYS):
        toy = TOYS[kind](args.seed)
        if tier:
            import tempfile
            with tempfile.TemporaryDirectory() as scratch:
                toy.save(scratch)
                tier_demo(args, scratch, hw_config)
        else:
            DEMOS[kind](args, toy, hw_config)


if __name__ == "__main__":
    main()
