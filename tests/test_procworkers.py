"""Multi-process worker tier pins.

The headline invariant carries across the process boundary: replaying
the same seeded trace through a ``ProcessWorkerTier`` yields
per-request outputs, masks, hardware estimates *and* latency marks
bit-identical to the in-process ``WorkerTier`` — and to serving every
request alone on a solo engine rebuilt from the same snapshot.
Around it: worker-kill rerouting with zero KV-slot leaks, clean
shutdown with no orphan processes, and the memory-mapped snapshot
loading the workers share pages through.
"""

import asyncio
import multiprocessing
import os
import signal

import numpy as np
import pytest

from repro.core import PrunedInferenceEngine
from repro.core.engine import load_mmap_state
from repro.obs import MetricsRegistry
from repro.serve import (BatchPolicy, ProcessWorkerTier, REASON_CANCELLED,
                         REASON_ERROR, REASON_OK, REASON_SHED,
                         SLOAdmission, ServingEngine, WorkerDied,
                         WorkerTier)
from repro.serve.aio import AsyncServingEngine
from repro.serve.loadgen import TraceSpec, VirtualClock, replay_trace
from tests.test_serving import assert_records_identical, make_lm_engine

VOCAB = 40   # make_lm_engine's vocabulary

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="ProcessWorkerTier needs fork()")


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    directory = tmp_path_factory.mktemp("engine")
    make_lm_engine(0).save(str(directory))
    return str(directory)


def make_proc_tier(snapshot, replicas=2, **kwargs):
    clock = VirtualClock()
    kwargs.setdefault("step_token_budget", 16)
    tier = ProcessWorkerTier.from_snapshot(
        snapshot, replicas=replicas,
        policy=BatchPolicy(max_batch_size=4, max_wait=0.0),
        clock=clock, estimate_hardware=True, **kwargs)
    return tier, clock


def make_inproc_tier(snapshot, replicas=2, **kwargs):
    clock = VirtualClock()
    kwargs.setdefault("step_token_budget", 16)
    tier = WorkerTier.from_snapshot(
        snapshot, replicas=replicas,
        policy=BatchPolicy(max_batch_size=4, max_wait=0.0),
        clock=clock, estimate_hardware=True, **kwargs)
    return tier, clock


def make_solo(snapshot):
    solo_clock = [0.0]
    return ServingEngine(
        PrunedInferenceEngine.from_directory(snapshot),
        BatchPolicy(max_batch_size=1, max_wait=0.0),
        estimate_hardware=True, clock=lambda: solo_clock[0])


# ---------------------------------------------------------------------------
# the headline pin: proc == in-process == solo, bit for bit
# ---------------------------------------------------------------------------

@needs_fork
@pytest.mark.parametrize("seed", [0, 3])
def test_proc_replay_bit_identical_to_inproc_and_solo(snapshot, seed):
    spec = TraceSpec(seed=seed, requests=18, process="bursty",
                     rate=300.0, burst_rate=3000.0, vocab_size=VOCAB)
    tier, clock = make_proc_tier(snapshot)
    try:
        proc = replay_trace(tier, spec, clock=clock)
    finally:
        tier.close()
    inproc_tier, inproc_clock = make_inproc_tier(snapshot)
    inproc = replay_trace(inproc_tier, spec, clock=inproc_clock)

    assert len(proc.outcomes) == spec.requests
    assert proc.reasons == {REASON_OK: spec.requests}
    for a, b in zip(proc.outcomes, inproc.outcomes):
        # outputs, masks, hardware estimates — and the latency marks,
        # because both tiers share one virtual timebase (workers pin
        # their clocks to the parent's `now` per message)
        np.testing.assert_array_equal(a.result.tokens, b.result.tokens)
        np.testing.assert_array_equal(a.result.logits, b.result.logits)
        assert_records_identical(a.result.records, b.result.records)
        assert a.result.hardware == b.result.hardware
        assert a.timing == b.timing
    assert proc.metrics() == inproc.metrics()

    # solo reference: every request served alone (batch size 1)
    solo = make_solo(snapshot)
    for outcome in proc.outcomes:
        request = outcome.request
        stream_id = solo.open_stream(request.tokens,
                                     request.max_new_tokens)
        solo.drain()
        expected = solo.finish(stream_id)
        np.testing.assert_array_equal(outcome.result.tokens,
                                      expected.tokens)
        np.testing.assert_array_equal(outcome.result.logits,
                                      expected.logits)
        assert_records_identical(outcome.result.records,
                                 expected.records)
        assert outcome.result.hardware == expected.hardware


@needs_fork
def test_proc_routing_matches_inproc(snapshot):
    """Least-outstanding-tokens routing runs on parent-side estimates
    resynced from step replies; on a shed-free trace it must place
    every request on the same worker the in-process tier picks."""
    tier, _ = make_proc_tier(snapshot, replicas=3)
    try:
        prompt = np.arange(1, 5, dtype=np.int64)
        ids = [tier.open_stream(prompt, max_new_tokens=4)
               for _ in range(6)]
        owners = [tier._routes[i] for i in ids]
        assert owners == [0, 1, 2, 0, 1, 2]
        tier.drain()
        for request_id in ids:
            assert tier.finish(request_id).ok
        summary = tier.stats_summary()
        assert summary["tier"]["completed"] == 6
        assert all(row["completed"] == 2
                   for row in summary["workers"].values())
    finally:
        tier.close()


# ---------------------------------------------------------------------------
# worker death: reroute, no leaks
# ---------------------------------------------------------------------------

@needs_fork
def test_worker_kill_mid_replay_reroutes_without_leaks(snapshot):
    tier, clock = make_proc_tier(snapshot, replicas=2)
    try:
        rng = np.random.default_rng(1)
        ids = [tier.open_stream(rng.integers(1, VOCAB, size=5), 6,
                                now=clock())
               for _ in range(6)]
        clock.advance(1e-3)
        tier.step(clock())
        os.kill(tier._links[0].proc.pid, signal.SIGKILL)
        tier._links[0].proc.join(timeout=5)
        while tier.has_pending():
            clock.advance(1e-3)
            tier.step(clock())
        results = [tier.finish(i) for i in ids]
        # every request finishes ok on the survivor, and rerouting is
        # invisible in the payloads (outputs depend only on the request)
        assert all(r.reason == REASON_OK for r in results)
        solo = make_solo(snapshot)
        rng = np.random.default_rng(1)
        for result in results:
            stream_id = solo.open_stream(rng.integers(1, VOCAB, size=5),
                                         6)
            solo.drain()
            expected = solo.finish(stream_id)
            np.testing.assert_array_equal(result.tokens,
                                          expected.tokens)
            np.testing.assert_array_equal(result.logits,
                                          expected.logits)
        # the breaker opened, the KV accounting drained to zero
        assert tier.kv_slots_in_use() == 0
        assert tier.outstanding_tokens() == 0
        summary = tier.stats_summary()
        assert summary["workers"]["worker0"]["health"] == "quarantined"
        assert summary["workers"]["worker1"]["health"] == "ok"
        assert summary["tier"]["completed"] == len(ids)
    finally:
        tier.close()


@needs_fork
def test_all_workers_dead_fails_fast_with_typed_errors(snapshot):
    tier, clock = make_proc_tier(snapshot, replicas=1)
    try:
        stream = tier.open_stream(np.arange(1, 5, dtype=np.int64), 4,
                                  now=clock())
        os.kill(tier._links[0].proc.pid, signal.SIGKILL)
        tier._links[0].proc.join(timeout=5)
        clock.advance(1e-3)
        done = tier.step(clock())
        assert done == [stream]
        result = tier.result(stream)
        assert result.reason == REASON_ERROR
        assert not tier.has_pending()
        with pytest.raises(ConnectionError):
            tier.finish(stream)
    finally:
        tier.close()


def _break_step(monkeypatch, tier, index):
    """Make in-process replica ``index``'s engine raise on every step."""
    def boom(*args, **kwargs):
        raise RuntimeError("injected step failure")

    monkeypatch.setattr(tier._links[index].worker.engine, "step", boom)


def test_inline_worker_step_failure_reroutes_bit_identically(
        snapshot, monkeypatch):
    """An exception inside an in-process replica is that worker's
    death, not the caller's: the breaker opens and its streams finish
    on the survivor, bit-identical to solo runs."""
    tier, clock = make_inproc_tier(snapshot, replicas=2)
    rng = np.random.default_rng(1)
    prompts = [rng.integers(1, VOCAB, size=5) for _ in range(6)]
    ids = [tier.open_stream(prompt, 6, now=clock()) for prompt in prompts]
    clock.advance(1e-3)
    tier.step(clock())
    assert tier.kv_slots_in_use() > 0
    _break_step(monkeypatch, tier, 0)
    while tier.has_pending():
        clock.advance(1e-3)
        tier.step(clock())
    results = [tier.finish(i) for i in ids]
    assert all(r.reason == REASON_OK for r in results)
    solo = make_solo(snapshot)
    for prompt, result in zip(prompts, results):
        stream_id = solo.open_stream(prompt, 6)
        solo.drain()
        expected = solo.finish(stream_id)
        np.testing.assert_array_equal(result.tokens, expected.tokens)
        np.testing.assert_array_equal(result.logits, expected.logits)
        assert_records_identical(result.records, expected.records)
        assert result.hardware == expected.hardware
    assert tier.kv_slots_in_use() == 0
    assert tier._links[1].worker.engine.kv_slots_in_use() == 0
    assert tier.outstanding_tokens() == 0
    summary = tier.stats_summary()
    assert summary["workers"]["worker0"]["health"] == "quarantined"
    assert summary["workers"]["worker1"]["health"] == "ok"
    assert summary["tier"]["completed"] == len(ids)


def test_inline_worker_step_failure_without_survivor_fails_fast(
        snapshot, monkeypatch):
    tier, clock = make_inproc_tier(snapshot, replicas=1)
    stream = tier.open_stream(np.arange(1, 5, dtype=np.int64), 4,
                              now=clock())
    clock.advance(1e-3)
    tier.step(clock())
    assert tier.kv_slots_in_use() == 1
    _break_step(monkeypatch, tier, 0)
    clock.advance(1e-3)
    assert tier.step(clock()) == [stream]
    result = tier.result(stream)
    assert result.reason == REASON_ERROR
    assert isinstance(result.error, WorkerDied)
    assert "injected step failure" in str(result.error)
    assert not tier.has_pending()
    assert tier.kv_slots_in_use() == 0
    with pytest.raises(ConnectionError):
        tier.finish(stream)


# ---------------------------------------------------------------------------
# wall clocks and the asyncio front door, over both links
# ---------------------------------------------------------------------------

@needs_fork
@pytest.mark.parametrize("tier_cls", [WorkerTier, ProcessWorkerTier])
def test_wall_clock_workers_measure_their_steps(snapshot, tier_cls):
    """On the wall clock a worker's steps take real time: the step
    histogram records it and the SLO gate's step-time estimate moves.
    The gate starts at a 1-s estimate, above the 0.5-s TBT target, so
    it sheds the first stream; one measured step (smoothing 1) brings
    the estimate down to the real step time and the next stream is
    admitted."""
    registry = MetricsRegistry()
    slo = SLOAdmission(tbt_target=0.5, step_time=1.0, smoothing=1.0)
    prompt = np.arange(1, 5, dtype=np.int64)
    with tier_cls.from_snapshot(
            snapshot, replicas=1,
            policy=BatchPolicy(max_batch_size=4, max_wait=0.0),
            slo=slo, registry=registry) as tier:
        shed = tier.open_stream(prompt, 3)
        tier.step()
        assert tier.result(shed).reason == REASON_SHED
        served = tier.open_stream(prompt, 3)
        tier.drain()
        assert tier.finish(served).ok
    rows = registry.snapshot()["repro_step_seconds"]["series"]
    (steps,) = [row["value"] for row in rows
                if row["labels"] == {"engine": "worker0"}]
    assert steps["count"] >= 2
    assert steps["sum"] > 0.0


@needs_fork
@pytest.mark.parametrize("tier_cls", [WorkerTier, ProcessWorkerTier])
def test_async_front_door_over_tiers(snapshot, tmp_path, tier_cls):
    """The asyncio runner keeps stepping a tier while a worker holds a
    live stream, and wakes for a batch's ``max_wait`` flush time."""
    from tests.test_serving import make_classifier_engine

    classifier = str(tmp_path / "classifier")
    make_classifier_engine(0).save(classifier)
    prompt = np.arange(1, 5, dtype=np.int64)
    solo = make_solo(snapshot)
    stream_id = solo.open_stream(prompt, 6)
    solo.drain()
    expected = solo.finish(stream_id)

    async def serve(directory, max_wait, request):
        tier = tier_cls.from_snapshot(
            directory, replicas=1,
            policy=BatchPolicy(max_batch_size=4, max_wait=max_wait))
        with tier:
            async with AsyncServingEngine(tier) as serving:
                return await asyncio.wait_for(request(serving), 30.0)

    result = asyncio.run(serve(
        snapshot, 0.0, lambda s: s.open_stream(prompt, max_new_tokens=6)))
    assert result.ok and len(result.tokens) == len(prompt) + 6
    np.testing.assert_array_equal(result.tokens, expected.tokens)
    result = asyncio.run(serve(
        classifier, 0.01, lambda s: s.submit(np.arange(1, 9))))
    assert result.ok and result.kind == "classify"


# ---------------------------------------------------------------------------
# run-ahead: wall-clock worker processes step before the step message
# ---------------------------------------------------------------------------

def make_wall_tier(directory, replicas=1):
    """A wall-clock process tier: its workers read their own clocks,
    so each runs its next engine step ahead of the step message."""
    return ProcessWorkerTier.from_snapshot(
        directory, replicas=replicas,
        policy=BatchPolicy(max_batch_size=4, max_wait=0.0),
        estimate_hardware=True, step_token_budget=16)


def assert_matches_solo(result, expected):
    assert result.ok and result.kind == expected.kind
    np.testing.assert_array_equal(result.logits, expected.logits)
    if expected.kind == "generate":
        np.testing.assert_array_equal(result.tokens, expected.tokens)
    else:
        assert result.prediction == expected.prediction
    assert_records_identical(result.records, expected.records)
    # HardwareEstimate is a frozen dataclass: == compares every field
    assert expected.hardware is not None
    assert result.hardware == expected.hardware


def serve_alone(directory, request):
    """``request`` (a prompt and a budget, or classify inputs) served
    alone on a fresh solo engine."""
    solo = make_solo(directory)
    prompt, max_new_tokens = request
    request_id = (solo.open_stream(prompt, max_new_tokens)
                  if max_new_tokens else solo.submit(prompt))
    solo.drain()
    return solo.finish(request_id)


@needs_fork
@pytest.mark.parametrize("replicas", [1, 2])
@pytest.mark.parametrize("kind", ["generate", "classify"])
def test_run_ahead_serves_bit_identically_to_solo(snapshot, tmp_path,
                                                  replicas, kind):
    """Streams and classify requests sent in waves between steps, so
    some land while a worker holds a step, come back bit-identical to
    solo runs — every HardwareEstimate field included."""
    directory = snapshot
    if kind == "classify":
        from tests.test_serving import make_classifier_engine

        directory = str(tmp_path / "classifier")
        make_classifier_engine(0).save(directory)
    rng = np.random.default_rng(replicas)
    requests = [(rng.integers(1, VOCAB, size=int(rng.integers(3, 9))),
                 int(rng.integers(2, 9)) if kind == "generate" else 0)
                for _ in range(12)]
    ids = {}
    with make_wall_tier(directory, replicas) as tier:
        for wave in range(0, len(requests), 3):
            for index in range(wave, wave + 3):
                prompt, max_new_tokens = requests[index]
                request_id = (tier.open_stream(prompt, max_new_tokens)
                              if max_new_tokens else tier.submit(prompt))
                ids[request_id] = index
            tier.step()
        tier.drain()
        results = {ids[i]: tier.finish(i) for i in ids}
        assert tier.kv_slots_in_use() == 0
    for index, request in enumerate(requests):
        assert_matches_solo(results[index], serve_alone(directory,
                                                        request))


@needs_fork
def test_worker_runs_one_step_ahead_of_the_step_messages(snapshot):
    """After N step messages with work pending, a wall-clock worker has
    run N + 1 engine steps: the held one answers the next message.  A
    flush (no scheduler step of its own) reports the count."""
    with make_wall_tier(snapshot) as tier:
        ids = [tier.open_stream(np.arange(1, 5, dtype=np.int64), 12)
               for _ in range(2)]
        for n in range(1, 4):
            assert tier.step() == []
            assert tier.stats["worker0"].steps == n
        tier.flush()
        assert tier.stats["worker0"].steps == 4
        messages = 3
        while tier.has_pending():
            tier.step()
            messages += 1
        assert all(tier.finish(i).ok for i in ids)
        assert tier.stats["worker0"].steps <= messages + 1


@needs_fork
def test_finish_and_cancel_while_a_step_is_held(snapshot):
    """``finish`` collects a stream the held step completed — before
    any step reply reports it — and ``cancel`` stops a stream while a
    step is held, reported by the next step reply."""
    prompt = np.arange(1, 5, dtype=np.int64)
    with make_wall_tier(snapshot) as tier:
        # a 3-token stream takes two engine steps: the step message
        # runs the first, the worker runs the second ahead of the next
        done_early = tier.open_stream(prompt, 3)
        assert tier.step() == []
        result = tier.finish(done_early)
        assert len(result.tokens) == len(prompt) + 3
        assert_matches_solo(result, serve_alone(snapshot, (prompt, 3)))
        assert not tier.has_pending()
        assert tier.step() == []          # the held id is not reported

        live = tier.open_stream(prompt, 12)
        assert tier.step() == []
        assert tier.cancel(live)
        assert tier.step() == [live]
        assert tier.result(live).reason == REASON_CANCELLED
        assert tier.cancel(live) is False
        assert tier.kv_slots_in_use() == 0
        assert not tier.has_pending()


@needs_fork
def test_kill_of_a_worker_holding_a_step_reroutes_without_leaks(
        snapshot):
    rng = np.random.default_rng(1)
    prompts = [rng.integers(1, VOCAB, size=5) for _ in range(6)]
    with make_wall_tier(snapshot, replicas=2) as tier:
        ids = [tier.open_stream(prompt, 6) for prompt in prompts]
        tier.step()          # both workers now run their next step ahead
        proc = tier._links[0].proc
        os.kill(proc.pid, signal.SIGKILL)
        proc.join(timeout=5)
        tier.drain()
        results = [tier.finish(i) for i in ids]
        assert tier.kv_slots_in_use() == 0
        assert tier.outstanding_tokens() == 0
        summary = tier.stats_summary()
        assert summary["workers"]["worker0"]["health"] == "quarantined"
        assert summary["workers"]["worker1"]["kv_slots_in_use"] == 0
    for prompt, result in zip(prompts, results):
        assert_matches_solo(result, serve_alone(snapshot, (prompt, 6)))


@needs_fork
def test_exception_in_a_held_step_reroutes_bit_identically(snapshot,
                                                          monkeypatch):
    """worker0's engine raises in its second step, the one it runs
    ahead: its last words reach the tier at the next step message and
    its streams finish on worker1, bit-identical to solo runs."""
    original = ServingEngine.step

    def step(engine, now=None):
        if engine.name == "worker0" and engine.stats.steps >= 1:
            raise RuntimeError("injected held-step failure")
        return original(engine, now)

    monkeypatch.setattr(ServingEngine, "step", step)   # forks inherit it
    rng = np.random.default_rng(2)
    prompts = [rng.integers(1, VOCAB, size=5) for _ in range(4)]
    with make_wall_tier(snapshot, replicas=2) as tier:
        ids = [tier.open_stream(prompt, 6) for prompt in prompts]
        assert {tier._routes[i] for i in ids} == {0, 1}
        tier.step()
        tier.drain()
        results = [tier.finish(i) for i in ids]
        summary = tier.stats_summary()
        assert summary["workers"]["worker0"]["health"] == "quarantined"
        assert tier.kv_slots_in_use() == 0
    monkeypatch.undo()
    for prompt, result in zip(prompts, results):
        assert_matches_solo(result, serve_alone(snapshot, (prompt, 6)))


# ---------------------------------------------------------------------------
# lifecycle: shutdown, surface, validation
# ---------------------------------------------------------------------------

@needs_fork
def test_clean_shutdown_leaves_no_orphans(snapshot):
    tier, _ = make_proc_tier(snapshot, replicas=2)
    procs = [link.proc for link in tier._links.values()]
    assert all(p.is_alive() for p in procs)
    tier.close()
    assert all(not p.is_alive() for p in procs)
    assert all(p.exitcode == 0 for p in procs)
    tier.close()                          # idempotent


@needs_fork
def test_proc_tier_surface_and_sync_validation(snapshot):
    with pytest.raises(ValueError):
        ProcessWorkerTier.from_snapshot(snapshot, replicas=0)
    tier, clock = make_proc_tier(snapshot, replicas=2)
    try:
        assert tier.outstanding_tokens() == 0
        assert tier.kv_slots_in_use() == 0
        assert not tier.has_pending()
        assert tier.next_deadline() is None
        with pytest.raises(KeyError):
            tier.finish(123)
        with pytest.raises(KeyError):
            tier.cancel(123)
        # invalid submissions raise synchronously in the parent, using
        # the handshake-shipped limits — no async worker round-trip
        with pytest.raises(ValueError, match="prompt length"):
            tier.open_stream(np.zeros(0, dtype=np.int64), 4)
        with pytest.raises(ValueError, match="max_new_tokens"):
            tier.open_stream(np.arange(1, 4, dtype=np.int64), 0)
        with pytest.raises(ValueError, match="deadline"):
            tier.open_stream(np.arange(1, 4, dtype=np.int64), 4,
                             deadline=1.0, ttl=1.0)
        with pytest.raises(ValueError, match="ttl"):
            tier.open_stream(np.arange(1, 4, dtype=np.int64), 4,
                             ttl=0.0)

        stream = tier.open_stream(np.arange(1, 4, dtype=np.int64), 4,
                                  ttl=5.0)
        assert tier.has_pending()
        assert tier.next_deadline() == pytest.approx(5.0)
        assert tier.cancel(stream)
        clock.advance(1e-3)
        tier.step(clock())
        assert not tier.result(stream).ok
        assert tier.cancel(stream) is False
        summary = tier.stats_summary()
        assert set(summary) == {"tier", "workers"}
        assert set(summary["workers"]) == {"worker0", "worker1"}
        assert summary["tier"]["replicas"] == 2
        assert summary["tier"]["reasons"][REASON_CANCELLED] == 1
    finally:
        tier.close()


@needs_fork
def test_proc_classify_traffic(tmp_path):
    """One-shot classification flows over the protocol too, matching
    the in-process tier bit for bit."""
    from tests.test_serving import make_classifier_engine

    make_classifier_engine(0).save(str(tmp_path))
    spec = TraceSpec(seed=1, requests=12, classify_fraction=1.0,
                     vocab_size=50)
    clock = VirtualClock()
    tier = ProcessWorkerTier.from_snapshot(
        str(tmp_path), replicas=2,
        policy=BatchPolicy(max_batch_size=4, max_wait=0.0),
        clock=clock, estimate_hardware=True)
    try:
        proc = replay_trace(tier, spec, clock=clock)
    finally:
        tier.close()
    inproc_clock = VirtualClock()
    inproc_tier = WorkerTier.from_snapshot(
        str(tmp_path), replicas=2,
        policy=BatchPolicy(max_batch_size=4, max_wait=0.0),
        clock=inproc_clock, estimate_hardware=True)
    inproc = replay_trace(inproc_tier, spec, clock=inproc_clock)
    assert proc.reasons == {REASON_OK: 12}
    for a, b in zip(proc.outcomes, inproc.outcomes):
        assert a.result.kind == "classify"
        assert a.result.prediction == b.result.prediction
        np.testing.assert_array_equal(a.result.logits, b.result.logits)
        assert a.result.hardware == b.result.hardware
        assert a.timing == b.timing


# ---------------------------------------------------------------------------
# observability across the boundary
# ---------------------------------------------------------------------------

@needs_fork
def test_proc_tier_merges_worker_metrics_and_traces(snapshot):
    from repro.obs import MetricsRegistry, TraceRecorder

    registry = MetricsRegistry()
    tracer = TraceRecorder()
    tier, clock = make_proc_tier(snapshot, registry=registry,
                                 tracer=tracer)
    try:
        spec = TraceSpec(seed=0, requests=8, vocab_size=VOCAB)
        replay_trace(tier, spec, clock=clock)
        snap = registry.snapshot()
        rows = snap["repro_requests_terminal_total"]["series"]
        completed = {row["labels"]["engine"]: row["value"]
                     for row in rows
                     if row["labels"]["reason"] == REASON_OK}
        assert set(completed) == {"worker0", "worker1"}
        assert sum(completed.values()) == 8
        tracks = {e["args"]["name"] for e in tracer.events
                  if e.get("name") == "process_name"}
        assert tracks == {"worker0", "worker1"}
        # per-request spans crossed the boundary with remapped pids
        assert any(e.get("name") == "request" for e in tracer.events)
    finally:
        tier.close()


# ---------------------------------------------------------------------------
# memory-mapped snapshot loading
# ---------------------------------------------------------------------------

def _rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    raise RuntimeError("no VmRSS")


def test_mmap_from_directory_is_readonly_and_bit_identical(snapshot):
    plain = PrunedInferenceEngine.from_directory(snapshot)
    mapped = PrunedInferenceEngine.from_directory(snapshot, mmap=True)
    reference = dict(plain.model.named_parameters())
    saw_param = False
    for name, param in mapped.model.named_parameters():
        saw_param = True
        assert not param.data.flags.writeable, name
        np.testing.assert_array_equal(param.data, reference[name].data)
    assert saw_param
    tokens = np.arange(1, 6, dtype=np.int64)[None, :]
    np.testing.assert_array_equal(mapped.model.logits(tokens).data,
                                  plain.model.logits(tokens).data)


def _open_cold(directory, barrier):
    barrier.wait()
    state = load_mmap_state(directory)
    with np.load(os.path.join(directory, "weights.npz")) as saved:
        assert sorted(state) == sorted(saved.files)
        for name in saved.files:
            np.testing.assert_array_equal(state[name], saved[name])


@needs_fork
def test_cold_mmap_openers_all_map_the_snapshot(tmp_path):
    """Processes opening a fresh snapshot at the same moment each
    expand the sidecar; a late expander must never delete the sidecar
    an earlier one published while a sibling maps it."""
    ctx = multiprocessing.get_context("fork")
    for trial in range(10):
        directory = str(tmp_path / f"trial{trial}")
        make_lm_engine(trial).save(directory)
        barrier = ctx.Barrier(4)
        openers = [ctx.Process(target=_open_cold,
                               args=(directory, barrier))
                   for _ in range(4)]
        for opener in openers:
            opener.start()
        for opener in openers:
            opener.join(timeout=60)
        assert [o.exitcode for o in openers] == [0] * 4, trial


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="needs /proc RSS accounting")
def test_mmap_second_open_shares_memory(tmp_path):
    """The regression the mmap path exists for: opening the snapshot
    a second time must not duplicate the weights' RSS (same-process
    proxy for N worker processes sharing page-cache pages)."""
    from repro.serve.__main__ import build_lm_engine

    # big enough that the weights dominate interpreter noise
    build_lm_engine(seed=0, dim=256, num_layers=4).save(str(tmp_path))
    before = _rss_kb()
    first = PrunedInferenceEngine.from_directory(str(tmp_path),
                                                 mmap=True)
    first.model.logits(np.arange(1, 6, dtype=np.int64)[None, :])
    after_first = _rss_kb()
    second = PrunedInferenceEngine.from_directory(str(tmp_path),
                                                  mmap=True)
    second.model.logits(np.arange(1, 6, dtype=np.int64)[None, :])
    after_second = _rss_kb()
    first_cost = max(after_first - before, 1)
    second_cost = after_second - after_first
    assert first_cost > 1024, first_cost      # weights actually faulted
    assert second_cost < 0.1 * first_cost, (first_cost, second_cost)
