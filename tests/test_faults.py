"""Reliability layer pins: deterministic fault injection, deadlines,
cancellation, admission control, retry recovery, health-checked
routing, and sweep crash recovery.

The chaos soak at the bottom is the headline invariant: under a seeded
:class:`~repro.serve.faults.FaultPlan` every request terminates with a
result or a *typed* error, no KV slot or queue entry leaks, the run
replays bit-identically, and the requests the chaos did not touch are
bit-identical to serving them solo with no faults at all."""

import numpy as np
import pytest

from repro.serve import (BatchPolicy, DeadlineExceeded, Fault, FaultPlan,
                         HealthPolicy, InjectedKernelError, ModelRouter,
                         REASON_CANCELLED, REASON_DEADLINE, REASON_ERROR,
                         REASON_OK, REASON_SHED, RequestCancelled,
                         ServingEngine, ShedOverload, UnknownModelError)
from tests.test_serving import (assert_records_identical,
                                make_classifier_engine, make_lm_engine,
                                serve_classify, serve_streams)

KNOWN_REASONS = {REASON_OK, REASON_DEADLINE, REASON_CANCELLED,
                 REASON_ERROR, REASON_SHED}


def make_reliable(engine, max_batch_size=3, max_wait=0.0, **kwargs):
    clock = [0.0]
    serving = ServingEngine(
        engine, BatchPolicy(max_batch_size=max_batch_size,
                            max_wait=max_wait),
        estimate_hardware=True, clock=lambda: clock[0],
        sleep=lambda s: None, **kwargs)
    return serving, clock


def assert_no_leaks(serving):
    """Nothing waiting, nothing occupying KV, nothing half-finished."""
    assert serving.kv_slots_in_use() == 0
    assert serving.queue_depth() == 0
    assert serving.backlog_tokens() == 0
    assert not serving.has_pending()
    for stream in serving._streams.values():
        assert stream.done
        assert stream.caches is None and stream.slot is None


# ---------------------------------------------------------------------------
# FaultPlan determinism
# ---------------------------------------------------------------------------

def test_fault_plan_seeded_is_replayable():
    first = FaultPlan.seeded(11, forwards=4, latencies=3, horizon=32)
    second = FaultPlan.seeded(11, forwards=4, latencies=3, horizon=32)
    assert first.faults == second.faults
    assert FaultPlan.seeded(12, forwards=4, horizon=32).faults \
        != first.faults


def test_fault_draw_consumes_events_and_fires_once():
    plan = FaultPlan([Fault(kind="forward", at=1)])
    assert plan.draw("forward") is None           # event 0
    assert plan.draw("forward") is not None       # event 1: armed
    assert plan.draw("forward") is None           # fired exactly once
    assert plan.fired == [Fault(kind="forward", at=1)]

    replay = plan.reset()
    assert replay.fired == []
    assert [replay.draw("forward") is not None for _ in range(3)] \
        == [False, True, False]


def test_fault_worker_matches_target_and_attempt():
    plan = FaultPlan([Fault(kind="worker", at=1, target="a")])
    assert not plan.worker_dies("a", 0)
    assert not plan.worker_dies("b", 1)           # wrong target
    assert plan.worker_dies("a", 1)
    assert not plan.worker_dies("a", 1)           # fired exactly once


def test_fault_validation():
    with pytest.raises(ValueError):
        Fault(kind="gamma-ray", at=0)
    with pytest.raises(ValueError):
        Fault(kind="forward", at=-1)


# ---------------------------------------------------------------------------
# deadlines / TTLs
# ---------------------------------------------------------------------------

def test_classify_deadline_sheds_queued_request():
    serving, clock = make_reliable(make_classifier_engine(0))
    request_id = serving.submit(np.arange(1, 6), ttl=5.0)
    survivor_id = serving.submit(np.arange(1, 6))
    clock[0] = 10.0
    completed = serving.step()
    assert set(completed) == {request_id, survivor_id}
    assert serving.result(request_id).reason == REASON_DEADLINE
    assert serving.result(survivor_id).reason == REASON_OK
    with pytest.raises(DeadlineExceeded):
        serving.finish(request_id)
    assert serving.stats.expired == 1
    assert_no_leaks(serving)


def test_deadline_and_ttl_are_mutually_exclusive():
    serving, _ = make_reliable(make_classifier_engine(0))
    with pytest.raises(ValueError):
        serving.submit(np.arange(3), deadline=4.0, ttl=1.0)
    with pytest.raises(ValueError):
        serving.submit(np.arange(3), ttl=0.0)


def test_stream_deadline_frees_kv_state():
    engine = make_lm_engine(0)
    rng = np.random.default_rng(0)
    prompts = [rng.integers(1, 40, size=4) for _ in range(3)]
    serving, clock = make_reliable(engine)
    doomed = [serving.open_stream(prompts[0], 30, ttl=5.0),
              serving.open_stream(prompts[1], 30, ttl=5.0)]
    survivor = serving.open_stream(prompts[2], 4)
    serving.step()                       # prefill/admit everything
    assert serving.kv_slots_in_use() == 3
    clock[0] = 10.0
    completed = serving.step()           # expiry sweep runs first
    assert set(doomed) <= set(completed)
    for stream_id in doomed:
        assert serving.result(stream_id).reason == REASON_DEADLINE
        with pytest.raises(DeadlineExceeded):
            serving.finish(stream_id)
    while serving.has_pending():
        serving.step()
    result = serving.finish(survivor)
    assert result.ok and len(result.tokens) == len(prompts[2]) + 4
    # the survivor is bit-identical to a solo, no-deadline run
    solo, _ = serve_streams(engine, [prompts[2]], 4, max_batch_size=1)
    np.testing.assert_array_equal(result.tokens, solo[0].tokens)
    np.testing.assert_array_equal(result.logits, solo[0].logits)
    assert serving.stats.expired == 2
    assert_no_leaks(serving)


def test_expired_stream_result_keeps_partial_generation():
    serving, clock = make_reliable(make_lm_engine(1))
    stream_id = serving.open_stream(np.arange(1, 5), 50, ttl=5.0)
    for _ in range(3):
        serving.step()     # prefill+decode piggyback, then 2 decodes
    clock[0] = 10.0
    serving.step()
    result = serving.result(stream_id)
    assert result.reason == REASON_DEADLINE
    assert len(result.tokens) == 4 + 4   # prompt + what it got done
    assert_no_leaks(serving)


# ---------------------------------------------------------------------------
# cancellation
# ---------------------------------------------------------------------------

def test_cancel_queued_classify_request():
    serving, _ = make_reliable(make_classifier_engine(0), max_wait=100.0)
    request_id = serving.submit(np.arange(1, 6))
    assert serving.cancel(request_id) is True
    assert serving.cancel(request_id) is False    # already terminal
    with pytest.raises(KeyError):
        serving.cancel(10_000)
    completed = serving.step()
    assert completed == [request_id]
    with pytest.raises(RequestCancelled):
        serving.finish(request_id)
    assert serving.stats.cancelled == 1
    assert_no_leaks(serving)


def test_cancel_running_stream_frees_kv_state():
    engine = make_lm_engine(0)
    rng = np.random.default_rng(3)
    prompts = [rng.integers(1, 40, size=5) for _ in range(2)]
    serving, _ = make_reliable(engine)
    doomed = serving.open_stream(prompts[0], 30)
    survivor = serving.open_stream(prompts[1], 4)
    serving.step()
    assert serving.kv_slots_in_use() == 2
    assert serving.cancel(doomed) is True
    assert serving.kv_slots_in_use() == 1         # slot freed on cancel
    while serving.has_pending():
        serving.step()
    with pytest.raises(RequestCancelled):
        serving.finish(doomed)
    result = serving.finish(survivor)
    solo, _ = serve_streams(engine, [prompts[1]], 4, max_batch_size=1)
    np.testing.assert_array_equal(result.tokens, solo[0].tokens)
    np.testing.assert_array_equal(result.logits, solo[0].logits)
    assert result.hardware == solo[0].hardware
    assert_no_leaks(serving)


def test_cancel_after_completion_returns_false():
    serving, _ = make_reliable(make_classifier_engine(0))
    request_id = serving.submit(np.arange(1, 6))
    serving.step()
    assert serving.cancel(request_id) is False
    assert serving.finish(request_id).ok


# ---------------------------------------------------------------------------
# admission control (bounded queue)
# ---------------------------------------------------------------------------

def test_backlog_limit_sheds_classify_overload():
    serving, _ = make_reliable(make_classifier_engine(0), max_wait=100.0,
                               max_backlog_tokens=12)
    admitted = serving.submit(np.arange(1, 9))    # 8 tokens queued
    shed = serving.submit(np.arange(1, 9))        # 8 + 8 > 12: shed
    assert serving.result(shed).reason == REASON_SHED
    assert serving.backlog_tokens() == 8          # only one queued
    completed = serving.step()
    assert shed in completed
    with pytest.raises(ShedOverload):
        serving.finish(shed)
    serving.flush()
    assert serving.finish(admitted).ok
    assert serving.stats.shed == 1


def test_backlog_limit_counts_stream_budget():
    serving, _ = make_reliable(make_lm_engine(0), max_backlog_tokens=20)
    # 4 prompt + 10 new = 14 budgeted tokens
    admitted = serving.open_stream(np.arange(1, 5), 10)
    shed = serving.open_stream(np.arange(1, 5), 10)
    assert serving.result(shed).reason == REASON_SHED
    with pytest.raises(ShedOverload):
        serving.finish(shed)
    while serving.has_pending():
        serving.step()
    assert serving.finish(admitted).ok
    assert_no_leaks(serving)


# ---------------------------------------------------------------------------
# forward failures: containment + retry recovery
# ---------------------------------------------------------------------------

def test_forward_failure_fails_only_its_batch():
    engine = make_classifier_engine(0)
    rng = np.random.default_rng(1)
    requests = [rng.integers(0, 50, size=7) for _ in range(4)]
    plan = FaultPlan([Fault(kind="forward", at=0)])
    serving, _ = make_reliable(engine, max_batch_size=2, faults=plan)
    ids = [serving.submit(r) for r in requests]
    serving.step()                       # two batches: first one faulted
    failed, ok = ids[:2], ids[2:]
    for request_id in failed:
        assert serving.result(request_id).reason == REASON_ERROR
        with pytest.raises(InjectedKernelError):
            serving.finish(request_id)
    solo, _ = serve_classify(engine, requests[2:], max_batch_size=1)
    for request_id, expected in zip(ok, solo):
        result = serving.finish(request_id)
        assert result.ok
        np.testing.assert_array_equal(result.logits, expected.logits)
    assert serving.stats.errors == 1


def test_retry_recovers_bit_identically():
    engine = make_lm_engine(2)
    rng = np.random.default_rng(2)
    prompts = [rng.integers(1, 40, size=int(n))
               for n in rng.integers(2, 8, size=4)]
    clean, _ = serve_streams(engine, prompts, 5, max_batch_size=2)

    plan = FaultPlan([Fault(kind="forward", at=0),
                      Fault(kind="forward", at=3)])
    serving, _ = make_reliable(engine, max_batch_size=2, faults=plan,
                               retries=2, retry_backoff=0.001)
    ids = [serving.open_stream(p, 5) for p in prompts]
    while serving.has_pending():
        serving.step()
    for request_id, expected in zip(ids, clean):
        result = serving.finish(request_id)
        assert result.ok
        np.testing.assert_array_equal(result.tokens, expected.tokens)
        np.testing.assert_array_equal(result.logits, expected.logits)
        assert_records_identical(result.records, expected.records)
        assert result.hardware == expected.hardware
    assert serving.stats.retries == 2 and serving.stats.errors == 2
    assert_no_leaks(serving)


def test_exhausted_retries_fail_chunk_without_leaking():
    plan = FaultPlan([Fault(kind="forward", at=i) for i in range(4)])
    serving, _ = make_reliable(make_lm_engine(0), faults=plan, retries=1)
    stream_id = serving.open_stream(np.arange(1, 6), 4)
    while serving.has_pending():
        serving.step()
    assert serving.result(stream_id).reason == REASON_ERROR
    with pytest.raises(InjectedKernelError):
        serving.finish(stream_id)
    assert_no_leaks(serving)


# ---------------------------------------------------------------------------
# health-checked routing
# ---------------------------------------------------------------------------

def make_routed(names_to_plans, clock, policy, fallbacks=None,
                generative=False, max_batch_size=1):
    engines = {}
    for name, plan in names_to_plans.items():
        inner = make_lm_engine(0) if generative \
            else make_classifier_engine(0)
        engines[name] = ServingEngine(
            inner, BatchPolicy(max_batch_size=max_batch_size,
                               max_wait=0.0),
            clock=lambda: clock[0], faults=plan, sleep=lambda s: None)
    return ModelRouter(engines, clock=lambda: clock[0], health=policy,
                       fallbacks=fallbacks)


def test_unknown_model_error_lists_mounted_names():
    clock = [0.0]
    router = make_routed({"alpha": None, "beta": None}, clock,
                         HealthPolicy())
    with pytest.raises(UnknownModelError) as excinfo:
        router.submit(np.arange(3), model="gamma")
    message = str(excinfo.value)
    assert "unknown model 'gamma'" in message
    assert "'alpha'" in message and "'beta'" in message


def test_serve_cli_unknown_model_exits_without_traceback(tmp_path):
    from repro.core import PrunedInferenceEngine
    from repro.serve.__main__ import (build_classifier_engine,
                                      main as serve_main)

    dirs = []
    for i in range(2):
        engine = build_classifier_engine(i)
        dirs.append(engine.save(str(tmp_path / f"m{i}")))
    with pytest.raises(SystemExit) as excinfo:
        serve_main(["--engine-dir", f"a={dirs[0]}",
                    "--engine-dir", f"b={dirs[1]}", "--model", "zzz"])
    message = str(excinfo.value)
    assert "unknown model 'zzz'" in message
    assert "'a'" in message and "'b'" in message
    # sanity: rebuilding from the snapshot really works
    assert PrunedInferenceEngine.from_directory(dirs[0]) is not None


def test_router_backoff_skips_engine_then_retries():
    clock = [0.0]
    policy = HealthPolicy(degraded_after=1, quarantine_after=3,
                          backoff_base=10.0, max_backoff=100.0)
    plan = FaultPlan([Fault(kind="forward", at=0)])
    router = make_routed({"m": plan}, clock, policy, max_batch_size=4)

    first = router.submit(np.arange(1, 6), model="m")
    assert router.step() == [first]      # forward faulted: typed error
    assert router.result(first).reason == REASON_ERROR
    assert router.health_states() == {"m": "degraded"}

    second = router.submit(np.arange(1, 6), model="m")
    clock[0] = 1.0
    assert router.step() == []           # inside backoff: engine skipped
    assert router.has_pending()

    clock[0] = 11.0                      # backoff elapsed: retried
    assert router.step() == [second]
    assert router.finish(second).ok
    assert router.health_states() == {"m": "healthy"}


def test_router_quarantine_reroutes_waiting_streams_to_fallback():
    clock = [0.0]
    policy = HealthPolicy(degraded_after=1, quarantine_after=1)
    plan = FaultPlan([Fault(kind="forward", at=i) for i in range(64)])
    router = make_routed({"bad": plan, "good": None}, clock, policy,
                         fallbacks={"bad": "good"}, generative=True)
    rng = np.random.default_rng(5)
    prompts = [rng.integers(1, 40, size=4) for _ in range(3)]
    ids = [router.open_stream(p, 4, model="bad") for p in prompts]

    completed = router.step()            # slot 0 prefill faults ->
    assert ids[0] in completed           # quarantine + reroute the rest
    assert router.health_states()["bad"] == "quarantined"
    with pytest.raises(InjectedKernelError):
        router.finish(ids[0])

    while router.has_pending():
        router.step()
    for stream_id, prompt in zip(ids[1:], prompts[1:]):
        result = router.finish(stream_id)
        assert result.ok and len(result.tokens) == len(prompt) + 4
    # the rerouted streams really ran on the fallback engine
    assert router.engines["good"].stats.completed == 2
    assert router.engines["bad"].kv_slots_in_use() == 0

    # new traffic for the quarantined model silently lands on the
    # fallback too
    rerouted = router.open_stream(prompts[0], 2, model="bad")
    while router.has_pending():
        router.step()
    assert router.finish(rerouted).ok


def test_router_quarantine_without_fallback_fails_fast():
    clock = [0.0]
    policy = HealthPolicy(degraded_after=1, quarantine_after=1)
    plan = FaultPlan([Fault(kind="forward", at=i) for i in range(64)])
    router = make_routed({"bad": plan}, clock, policy, generative=True)
    ids = [router.open_stream(np.arange(1, 5), 4, model="bad")
           for _ in range(3)]
    completed = router.step()
    # every stream terminated this step: the faulted one plus the
    # waiting work failed fast on quarantine -- nothing stalls
    assert sorted(completed) == sorted(ids)
    assert not router.has_pending()
    for stream_id in ids:
        assert router.result(stream_id).reason == REASON_ERROR

    # and new submissions fast-reject with a typed terminal error
    rejected = router.submit(np.arange(3), model="bad")
    assert rejected in router.step()
    with pytest.raises(Exception, match="quarantined"):
        router.finish(rejected)


def test_router_half_open_probe_reinstates_engine():
    clock = [0.0]
    policy = HealthPolicy(degraded_after=1, quarantine_after=1,
                          cooldown=5.0)
    plan = FaultPlan([Fault(kind="forward", at=0)])
    router = make_routed({"m": plan}, clock, policy, max_batch_size=4)
    doomed = router.submit(np.arange(1, 4), model="m")
    assert router.step() == [doomed]
    assert router.health_states() == {"m": "quarantined"}

    clock[0] = 6.0                       # cooldown elapsed: probe
    router.step()
    assert router.health_states() == {"m": "healthy"}
    request_id = router.submit(np.arange(1, 4), model="m")
    router.step()
    assert router.finish(request_id).ok


# ---------------------------------------------------------------------------
# chaos soak: typed termination, zero leaks, bit-identical replay
# ---------------------------------------------------------------------------

def run_generate_chaos(engine, prompts, plan, clock=None):
    clock = clock if clock is not None else [0.0]
    plan.sleeper = lambda seconds: clock.__setitem__(
        0, clock[0] + seconds)           # injected latency = virtual time
    serving = ServingEngine(
        engine, BatchPolicy(max_batch_size=3, max_wait=0.0),
        estimate_hardware=True, clock=lambda: clock[0],
        faults=plan, retries=1, sleep=lambda s: None)
    ids = []
    for i, prompt in enumerate(prompts):
        ttl = 0.4 if i % 3 == 0 else None
        ids.append(serving.open_stream(prompt, 6, ttl=ttl))
        clock[0] += 0.01
        serving.step()
    guard = 0
    while serving.has_pending():
        clock[0] += 0.01
        serving.step()
        guard += 1
        assert guard < 10_000, "chaos soak failed to drain"
    return serving, ids


@pytest.mark.parametrize("seed", [0, 1])
def test_chaos_soak_generate(seed):
    engine = make_lm_engine(seed)
    rng = np.random.default_rng(seed)
    prompts = [rng.integers(1, 40, size=int(n))
               for n in rng.integers(2, 9, size=9)]
    plan = FaultPlan.seeded(seed, forwards=5, latencies=4, horizon=40,
                            max_seconds=0.3)

    serving, ids = run_generate_chaos(engine, prompts, plan.reset())
    # 1. every request reached a typed terminal state
    reasons = []
    for stream_id in ids:
        result = serving.result(stream_id)
        assert result is not None, f"stream {stream_id} never terminated"
        assert result.reason in KNOWN_REASONS
        reasons.append(result.reason)
    # 2. nothing leaked: no occupied KV slots, no queued work
    assert_no_leaks(serving)
    # 3. untouched requests are bit-identical to solo, fault-free runs
    solo, _ = serve_streams(engine, prompts, 6, max_batch_size=1)
    for stream_id, expected in zip(ids, solo):
        result = serving.result(stream_id)
        if result.reason == REASON_OK:
            np.testing.assert_array_equal(result.tokens, expected.tokens)
            np.testing.assert_array_equal(result.logits, expected.logits)
            assert_records_identical(result.records, expected.records)
            assert result.hardware == expected.hardware
    # 4. the same plan replays the same chaos bit-identically
    replay, replay_ids = run_generate_chaos(engine, prompts,
                                            plan.reset())
    assert [replay.result(i).reason for i in replay_ids] == reasons
    for a, b in zip(ids, replay_ids):
        np.testing.assert_array_equal(serving.result(a).tokens,
                                      replay.result(b).tokens)
    assert replay.stats.errors == serving.stats.errors
    assert replay.stats.expired == serving.stats.expired


def test_latency_fault_trips_deadline_not_engine_error():
    """An injected scheduler stall must surface as the *deadline*
    terminal on TTL'd streams — latency is not an engine failure —
    while untouched streams finish ok, nothing leaks a KV slot, and
    the same plan replays the same outcome."""
    engine = make_lm_engine(0)
    rng = np.random.default_rng(7)
    prompts = [rng.integers(1, 40, size=4) for _ in range(3)]

    def run(plan):
        clock = [0.0]
        plan.sleeper = lambda seconds: clock.__setitem__(
            0, clock[0] + seconds)       # injected latency = virtual time
        serving = ServingEngine(
            engine, BatchPolicy(max_batch_size=3, max_wait=0.0),
            estimate_hardware=True, clock=lambda: clock[0],
            faults=plan, sleep=lambda s: None)
        doomed = [serving.open_stream(prompts[0], 20, ttl=0.5),
                  serving.open_stream(prompts[1], 20, ttl=0.5)]
        survivor = serving.open_stream(prompts[2], 4)
        while serving.has_pending():
            clock[0] += 0.01
            serving.step()
        return serving, doomed, survivor

    # the second step stalls 1 s — far past the 0.5 s TTLs
    plan = FaultPlan([Fault(kind="latency", at=1, seconds=1.0)])
    serving, doomed, survivor = run(plan.reset())
    assert len(plan.reset().faults) == 1

    doomed_tokens = []
    for stream_id in doomed:
        result = serving.result(stream_id)
        assert result.reason == REASON_DEADLINE      # NOT engine_error
        doomed_tokens.append(result.tokens)
        with pytest.raises(DeadlineExceeded):
            serving.finish(stream_id)
    assert serving.stats.errors == 0
    assert serving.stats.expired == 2

    result = serving.finish(survivor)
    assert result.ok and len(result.tokens) == len(prompts[2]) + 4
    solo, _ = serve_streams(engine, [prompts[2]], 4, max_batch_size=1)
    np.testing.assert_array_equal(result.tokens, solo[0].tokens)
    np.testing.assert_array_equal(result.logits, solo[0].logits)
    assert_no_leaks(serving)

    # replay: same plan, same chaos, bit-identical outcomes
    replay, replay_doomed, replay_survivor = run(plan.reset())
    assert [replay.result(i).reason for i in replay_doomed] \
        == [REASON_DEADLINE, REASON_DEADLINE]
    for expected, stream_id in zip(doomed_tokens, replay_doomed):
        np.testing.assert_array_equal(replay.result(stream_id).tokens,
                                      expected)
    assert replay.finish(replay_survivor).ok
    assert replay.stats.expired == serving.stats.expired
    assert_no_leaks(replay)


@pytest.mark.parametrize("seed", [0, 1])
def test_chaos_soak_classify(seed):
    engine = make_classifier_engine(seed)
    rng = np.random.default_rng(seed)
    requests = [rng.integers(0, 50, size=int(n))
                for n in rng.integers(1, 20, size=12)]
    plan = FaultPlan.seeded(100 + seed, forwards=3, horizon=12)
    clock = [0.0]
    serving = ServingEngine(
        engine, BatchPolicy(max_batch_size=2, max_wait=0.0),
        estimate_hardware=True, clock=lambda: clock[0], faults=plan,
        sleep=lambda s: None)
    ids = [serving.submit(r) for r in requests]
    serving.drain()
    solo, _ = serve_classify(engine, requests, max_batch_size=1)
    ok = errors = 0
    for request_id, expected in zip(ids, solo):
        result = serving.result(request_id)
        assert result is not None and result.reason in KNOWN_REASONS
        if result.ok:
            ok += 1
            np.testing.assert_array_equal(result.logits, expected.logits)
            assert result.hardware == expected.hardware
        else:
            errors += 1
    # every fired forward fault failed one whole batch (and only that
    # batch); the armed indices past the traffic's forward count stay
    # silent, which is fine — determinism is what's pinned
    fired = sum(1 for fault in plan.fired if fault.kind == "forward")
    assert fired >= 1
    assert serving.stats.errors == fired
    assert errors >= fired and ok + errors == len(ids)
    assert_no_leaks(serving)


# ---------------------------------------------------------------------------
# sweep crash recovery (worker death, torn saves)
# ---------------------------------------------------------------------------

def test_sweep_survives_worker_death(tmp_path):
    from repro.eval.store import WorkloadStore
    from repro.eval.sweep import run_sweep
    from repro.eval.workloads import TINY, get_workload

    store = WorkloadStore(tmp_path / "store")
    plan = FaultPlan([Fault(kind="worker", at=0,
                            target="memn2n/Task-1")])
    lines = []
    report = run_sweep(["memn2n/Task-1", "memn2n/Task-2"], TINY,
                       store=store, jobs=2, faults=plan,
                       echo=lines.append)
    assert report.failed == []
    finished = {o.workload for o in report.outcomes
                if o.status in ("trained", "cached")}
    assert finished == {"memn2n/Task-1", "memn2n/Task-2"}
    assert any(line.startswith("[retry]") for line in lines)
    for name in finished:
        assert store.contains(get_workload(name), TINY)
        assert store.load(get_workload(name), TINY) is not None


def test_sweep_gives_up_after_repeated_pool_breaks(tmp_path):
    from repro.eval.store import WorkloadStore
    from repro.eval.sweep import MAX_POOL_RETRIES, run_sweep
    from repro.eval.workloads import TINY

    store = WorkloadStore(tmp_path / "store")
    plan = FaultPlan([Fault(kind="worker", at=attempt,
                            target="memn2n/Task-1")
                      for attempt in range(MAX_POOL_RETRIES + 1)])
    report = run_sweep(["memn2n/Task-1"], TINY, store=store, jobs=2,
                       faults=plan)
    assert [o.workload for o in report.failed] == ["memn2n/Task-1"]
    assert "worker pool broke" in report.failed[0].error


def test_sweep_detects_torn_save_and_retrains(tmp_path):
    from repro.eval.store import WorkloadStore
    from repro.eval.sweep import run_sweep
    from repro.eval.workloads import TINY, get_workload

    store = WorkloadStore(tmp_path / "store")
    spec = get_workload("memn2n/Task-1")
    plan = FaultPlan([Fault(kind="save", at=0, target="memn2n/Task-1")])
    report = run_sweep(["memn2n/Task-1"], TINY, store=store, jobs=2,
                       faults=plan)
    assert [o.status for o in report.outcomes] == ["trained"]

    outcomes = store.verify()            # torn write flagged, no crash
    assert [o.status for o in outcomes] == ["corrupt"]
    assert "records.npz" in outcomes[0].detail

    assert store.load(spec, TINY) is None     # corrupt = cache miss
    assert not store.contains(spec, TINY)     # ...and invalidated
    healed = run_sweep(["memn2n/Task-1"], TINY, store=store, jobs=1)
    assert [o.status for o in healed.outcomes] == ["trained"]
    assert store.load(spec, TINY) is not None
    assert [o.status for o in store.verify()] == ["ok"]


def test_store_flags_partial_entry_json(tmp_path):
    import json
    import os

    from repro.eval.store import WorkloadStore
    from repro.eval.sweep import run_sweep
    from repro.eval.workloads import TINY

    store = WorkloadStore(tmp_path / "store")
    run_sweep(["memn2n/Task-1"], TINY, store=store, jobs=1)
    directory = os.path.join(store.root, store.entries()[0]["key"])
    entry_path = os.path.join(directory, "entry.json")
    with open(entry_path) as fh:
        entry = json.load(fh)
    del entry["history"], entry["records"]
    with open(entry_path, "w") as fh:
        json.dump(entry, fh)

    outcomes = store.verify()
    assert [o.status for o in outcomes] == ["corrupt"]
    assert "partial entry.json" in outcomes[0].detail
    assert "history" in outcomes[0].detail


# ---------------------------------------------------------------------------
# sweep progress / ETA
# ---------------------------------------------------------------------------

def test_progress_eta_scales_observed_rate_by_priors():
    import io

    from repro.eval.progress import SweepProgress

    stream = io.StringIO()
    names = ["memn2n/Task-1", "bert_large_glue/MNLI"]   # weights 1 + 7
    progress = SweepProgress(names, stream=stream, clock=lambda: 0.0)
    assert progress.eta_seconds() is None    # no evidence yet
    progress.start("memn2n/Task-1")
    progress.finish("memn2n/Task-1", seconds=2.0)
    # 2 s bought 1 unit; 7 units remain -> 14 s
    assert progress.eta_seconds() == pytest.approx(14.0)
    assert "1/2" in stream.getvalue()
    progress.finish("bert_large_glue/MNLI", seconds=13.0)
    assert progress.eta_seconds() == pytest.approx(0.0)
    progress.close()
    assert stream.getvalue().endswith("\n")


def test_progress_disabled_is_silent():
    import io

    from repro.eval.progress import SweepProgress

    stream = io.StringIO()
    progress = SweepProgress(["memn2n/Task-1"], enabled=False,
                             stream=stream)
    progress.start("memn2n/Task-1")
    progress.finish("memn2n/Task-1", seconds=1.0)
    progress.close()
    assert stream.getvalue() == ""


def test_sweep_drives_progress_events(tmp_path):
    import io

    from repro.eval.progress import SweepProgress
    from repro.eval.store import WorkloadStore
    from repro.eval.sweep import run_sweep
    from repro.eval.workloads import TINY

    store = WorkloadStore(tmp_path / "store")
    stream = io.StringIO()
    progress = SweepProgress(["memn2n/Task-1"], stream=stream,
                             clock=lambda: 0.0)
    run_sweep(["memn2n/Task-1"], TINY, store=store, progress=progress)
    assert progress.done == 1
    assert "1/1" in stream.getvalue()

    # a rerun reports the cache hit through the same progress surface
    cached = SweepProgress(["memn2n/Task-1"], stream=io.StringIO(),
                           clock=lambda: 0.0)
    run_sweep(["memn2n/Task-1"], TINY, store=store, progress=cached)
    assert cached.done == 1


def test_sweep_cli_has_no_progress_flag(capsys):
    from repro.eval.sweep import main as sweep_main

    with pytest.raises(SystemExit):
        sweep_main(["--no-progress", "--list", "--suite", "nope*"])
    assert sweep_main(["--no-progress", "--list",
                       "--suite", "memn2n"]) == 0
    out = capsys.readouterr().out
    assert "memn2n/Task-1" in out


# ---------------------------------------------------------------------------
# router front-door SLO admission
# ---------------------------------------------------------------------------

def test_router_admission_sheds_at_front_door():
    """A router given an ``SLOAdmission`` gate sheds doomed requests
    before they reach any engine queue: the caller gets a typed
    ``shed_overload`` result instantly and the engine's backlog never
    grows."""
    from repro.obs import MetricsRegistry
    from repro.serve import SLOAdmission

    clock = [0.0]
    engine = ServingEngine(
        make_classifier_engine(0),
        BatchPolicy(max_batch_size=4, max_wait=0.0),
        clock=lambda: clock[0], name="cls")
    registry = MetricsRegistry()
    router = ModelRouter(
        {"cls": engine}, clock=lambda: clock[0], registry=registry,
        admission=SLOAdmission(ttft_target=1e-6, step_time=1.0))
    rng = np.random.default_rng(0)
    request_id = router.submit(rng.integers(0, 50, size=5))
    assert engine.queue_depth() == 0       # never enqueued
    assert router.step() == [request_id]
    result = router.result(request_id)
    assert result.reason == REASON_SHED
    with pytest.raises(ShedOverload):
        router.finish(request_id)
    snap = registry.snapshot()
    rows = snap["repro_router_admission_shed_total"]["series"]
    assert sum(row["value"] for row in rows) == 1


def test_router_admission_sheds_streams_on_tbt_target():
    """A between-token target below the step time is unattainable for
    any stream (decode emits one token per step), so streams shed
    regardless of load while classify traffic still passes."""
    from repro.serve import SLOAdmission

    clock = [0.0]
    engine = ServingEngine(
        make_lm_engine(0),
        BatchPolicy(max_batch_size=4, max_wait=0.0),
        clock=lambda: clock[0], name="lm")
    router = ModelRouter(
        {"lm": engine}, clock=lambda: clock[0],
        admission=SLOAdmission(tbt_target=1e-6, step_time=1.0))
    stream = router.open_stream(np.arange(1, 5), max_new_tokens=4)
    router.step()
    assert router.result(stream).reason == REASON_SHED


def test_router_permissive_admission_serves_normally():
    """A loose SLO admits everything — results match a router with no
    admission gate bit for bit."""
    from repro.serve import SLOAdmission

    def run(admission):
        clock = [0.0]
        engine = ServingEngine(
            make_classifier_engine(0),
            BatchPolicy(max_batch_size=4, max_wait=0.0),
            clock=lambda: clock[0], name="cls")
        router = ModelRouter({"cls": engine}, clock=lambda: clock[0],
                             admission=admission)
        rng = np.random.default_rng(7)
        ids = [router.submit(rng.integers(0, 50, size=6))
               for _ in range(5)]
        router.drain()
        return [router.finish(i) for i in ids]

    gated = run(SLOAdmission(ttft_target=1e6, step_time=1e-9))
    open_door = run(None)
    for a, b in zip(gated, open_door):
        assert a.reason == REASON_OK
        assert a.prediction == b.prediction
        np.testing.assert_array_equal(a.logits, b.logits)
