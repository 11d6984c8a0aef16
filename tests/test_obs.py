"""Observability layer pins: metrics, traces, exposition, endpoints.

The headline invariant mirrors the serving ones: observability is a
*read-only window* onto a deterministic system.  Replaying the same
seeded trace through an instrumented worker tier twice on virtual
clocks yields byte-identical Chrome trace exports and equal metrics
snapshots — and instrumenting at all never changes what the engine
computes (same outputs with and without a registry).
"""

import asyncio
import json
import urllib.request

import numpy as np
import pytest

from repro.obs import (KernelProfiler, MetricsRegistry, NULL_REGISTRY,
                       NULL_TRACER, TraceRecorder, log_buckets)
from repro.obs.http import start_metrics_server
from repro.obs.metrics import COUNT_BUCKETS
from repro.serve import BatchPolicy, REASON_OK, ServingEngine, WorkerTier
from repro.serve.loadgen import TraceSpec, VirtualClock, replay_trace
from tests.test_serving import make_lm_engine


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("obs-snap"))
    make_lm_engine().save(directory)
    return directory


# -- metric primitives --------------------------------------------------

def test_counter_only_goes_up():
    registry = MetricsRegistry()
    counter = registry.counter("repro_things_total", "things")
    counter.inc()
    counter.inc(2.5)
    assert counter.sample() == 3.5
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_gauge_moves_both_ways():
    gauge = MetricsRegistry().gauge("repro_depth", "queue depth")
    gauge.set(5)
    gauge.inc(2)
    gauge.dec()
    assert gauge.sample() == 6


def test_histogram_buckets_are_inclusive_upper_bounds():
    registry = MetricsRegistry()
    hist = registry.histogram("repro_size", "sizes",
                              buckets=(1.0, 2.0, 4.0))
    for value in (0.5, 1.0, 1.5, 4.0, 9.0):
        hist.observe(value)
    sample = hist.sample()
    # le=1 captures 0.5 and exactly-1.0; 4.0 lands in le=4; 9 overflows
    assert sample["buckets"] == {1.0: 2, 2.0: 1, 4.0: 1}
    assert sample["count"] == 5
    assert sample["sum"] == pytest.approx(16.0)


def test_log_buckets_are_stable_and_increasing():
    bounds = log_buckets(1e-4, 1.0)
    assert bounds[0] == 1e-4 and bounds[-1] == 1.0
    assert list(bounds) == sorted(set(bounds))
    # rounded to 6 significant digits => identical on every platform
    assert bounds == log_buckets(1e-4, 1.0)
    with pytest.raises(ValueError):
        log_buckets(1.0, 0.5)


def test_registry_get_or_create_and_kind_conflicts():
    registry = MetricsRegistry()
    a = registry.counter("repro_x_total", engine="w0")
    assert registry.counter("repro_x_total", engine="w0") is a
    assert registry.counter("repro_x_total", engine="w1") is not a
    with pytest.raises(ValueError):
        registry.gauge("repro_x_total")
    registry.histogram("repro_h", buckets=(1.0, 2.0))
    with pytest.raises(ValueError):
        registry.histogram("repro_h", buckets=(1.0, 3.0))


def test_null_registry_is_inert():
    counter = NULL_REGISTRY.counter("repro_anything_total")
    counter.inc()
    counter.observe(3)          # any metric method is accepted
    counter.set(9)
    assert counter.sample() is None
    assert NULL_REGISTRY.enabled is False
    assert NULL_REGISTRY.snapshot() == {}
    assert NULL_REGISTRY.exposition() == ""
    NULL_TRACER.instant("x", 0.0)
    NULL_TRACER.complete("x", 0.0, 1.0)
    assert NULL_TRACER.export() == ""


def test_exposition_format():
    registry = MetricsRegistry()
    registry.counter("repro_served_total", "requests served",
                     engine="lm").inc(3)
    registry.gauge("repro_depth", "depth").set(2.0)
    hist = registry.histogram("repro_lat_seconds", "latency",
                              buckets=(0.1, 1.0))
    hist.observe(0.05)
    hist.observe(0.5)
    text = registry.exposition()
    assert "# HELP repro_served_total requests served" in text
    assert "# TYPE repro_served_total counter" in text
    assert 'repro_served_total{engine="lm"} 3' in text
    assert "repro_depth 2" in text            # integral floats lose .0
    lines = text.splitlines()
    assert 'repro_lat_seconds_bucket{le="0.1"} 1' in lines
    assert 'repro_lat_seconds_bucket{le="1"} 2' in lines   # cumulative
    assert 'repro_lat_seconds_bucket{le="+Inf"} 2' in lines
    assert "repro_lat_seconds_sum 0.55" in text
    assert "repro_lat_seconds_count 2" in text
    assert text.endswith("\n")


def test_exposition_escapes_label_values():
    registry = MetricsRegistry()
    registry.counter("repro_weird_total", model='a"b\nc\\d').inc()
    text = registry.exposition()
    assert r'model="a\"b\nc\\d"' in text


# -- trace recorder -----------------------------------------------------

def test_trace_recorder_tracks_and_export(tmp_path):
    tracer = TraceRecorder()
    assert tracer.track("lm") == 1
    assert tracer.track("lm") == 1          # get-or-assign
    assert tracer.track("classifier") == 2
    tracer.instant("submit", ts=1.5, pid=1, tid=7, tokens=4)
    tracer.complete("request", ts=1.5, dur=0.25, pid=1, tid=7)
    payload = json.loads(tracer.export())
    events = payload["traceEvents"]
    kinds = [e["ph"] for e in events]
    assert kinds == ["M", "M", "i", "X"]
    assert events[2]["ts"] == pytest.approx(1.5e6)   # seconds -> us
    assert events[3]["dur"] == pytest.approx(0.25e6)
    path = tmp_path / "sub" / "trace.json"
    tracer.save(str(path))                  # creates parent dirs
    assert json.loads(path.read_text()) == payload


# -- kernel profiler ----------------------------------------------------

def test_kernel_profiler_aggregates():
    registry = MetricsRegistry()
    profiler = KernelProfiler(registry=registry)
    profiler.record(jobs=4, elapsed_s=1e-4)
    profiler.record(jobs=8, elapsed_s=3e-4)
    summary = profiler.summary()
    assert summary["calls"] == 2 and summary["jobs"] == 12
    assert summary["max_jobs_per_call"] == 8
    assert summary["mean_jobs_per_call"] == pytest.approx(6.0)
    assert summary["mean_call_us"] == pytest.approx(200.0)
    assert "repro_kernel_jobs_per_call_count 2" in registry.exposition()
    profiler.clear()
    assert profiler.summary()["calls"] == 0


def test_tile_simulator_reports_kernel_calls(snapshot):
    from repro.core import PrunedInferenceEngine

    engine = PrunedInferenceEngine.from_directory(snapshot)
    profiler = KernelProfiler()
    serving = ServingEngine(engine, BatchPolicy(max_batch_size=4,
                                                max_wait=0.0),
                            estimate_hardware=True, profiler=profiler)
    rng = np.random.default_rng(0)
    ids = [serving.open_stream(rng.integers(1, 40, size=4),
                               max_new_tokens=3) for _ in range(3)]
    serving.drain()
    for request_id in ids:
        assert serving.finish(request_id).ok
    summary = profiler.summary()
    assert summary["calls"] > 0, \
        "hardware-estimated serving must profile kernels"
    assert summary["jobs"] >= summary["calls"]


# -- instrumented serving -----------------------------------------------

def run_traced_tier(snapshot, registry, tracer):
    clock = VirtualClock()
    tier = WorkerTier.from_snapshot(
        snapshot, replicas=2,
        policy=BatchPolicy(max_batch_size=4, max_wait=0.0),
        clock=clock, step_token_budget=32,
        registry=registry, tracer=tracer)
    # token ids from make_lm_engine's 40-word vocabulary
    trace = TraceSpec(seed=3, requests=24, process="bursty",
                      vocab_size=40)
    return replay_trace(tier, trace, clock=clock)


def test_replay_metrics_and_traces_are_deterministic(snapshot):
    """Two virtual-clock replays: byte-identical trace exports and
    equal metrics snapshots — the determinism contract of the layer."""
    runs = []
    for _ in range(2):
        registry, tracer = MetricsRegistry(), TraceRecorder()
        report = run_traced_tier(snapshot, registry, tracer)
        runs.append((report, registry.snapshot(),
                     registry.exposition(), tracer.export()))
    (report_a, snap_a, expo_a, trace_a), \
        (report_b, snap_b, expo_b, trace_b) = runs
    assert report_a.reasons == report_b.reasons
    assert snap_a == snap_b
    assert expo_a == expo_b
    assert trace_a == trace_b               # byte-identical
    assert trace_a.encode() == trace_b.encode()


def test_instrumentation_does_not_change_results(snapshot):
    bare = run_traced_tier(snapshot, None, None)
    traced = run_traced_tier(snapshot, MetricsRegistry(), TraceRecorder())
    assert bare.reasons == traced.reasons
    for a, b in zip(bare.outcomes, traced.outcomes):
        assert a.reason == b.reason
        if a.result.tokens is not None:
            np.testing.assert_array_equal(a.result.tokens,
                                          b.result.tokens)
        assert a.timing == b.timing


def test_engine_metrics_count_what_happened(snapshot):
    registry, tracer = MetricsRegistry(), TraceRecorder()
    report = run_traced_tier(snapshot, registry, tracer)
    snap = registry.snapshot()
    terminal = {tuple(sorted(row["labels"].items())): row["value"]
                for row in snap["repro_requests_terminal_total"]["series"]}
    ok_total = sum(v for (label, *_), v in
                   [((dict(k)["reason"], ), v)
                    for k, v in terminal.items()] if label == REASON_OK)
    assert ok_total == report.reasons.get(REASON_OK, 0)
    steps = {row["labels"]["engine"]: row["value"]
             for row in snap["repro_steps_total"]["series"]}
    assert set(steps) == {"worker0", "worker1"}
    # the metric counts every scheduler invocation (idle ones too), so
    # it bounds the productive step count the report aggregates
    assert sum(steps.values()) >= report.steps > 0
    # every request leaves exactly one lifecycle span per side
    events = json.loads(tracer.export())["traceEvents"]
    by_name = {}
    for event in events:
        by_name.setdefault(event["name"], []).append(event)
    assert len(by_name["submit"]) == len(report.outcomes)
    assert len(by_name["finish"]) == len(report.outcomes)
    assert len(by_name["request"]) == len(report.outcomes)
    tracks = sorted(e["args"]["name"] for e in by_name["process_name"])
    assert tracks == ["worker0", "worker1"]
    assert any(e["name"] == "decode-step" for e in events)


def test_scheduler_and_slo_metrics_publish(snapshot):
    from repro.core import PrunedInferenceEngine
    from repro.serve.scheduler import SLOAdmission

    registry = MetricsRegistry()
    engine = PrunedInferenceEngine.from_directory(snapshot)
    clock = VirtualClock()
    serving = ServingEngine(
        engine, BatchPolicy(max_batch_size=2, max_wait=0.0),
        clock=clock, step_token_budget=8,
        slo=SLOAdmission(ttft_target=10.0), registry=registry)
    rng = np.random.default_rng(1)
    ids = [serving.open_stream(rng.integers(1, 40, size=3),
                               max_new_tokens=4,
                               now=clock()) for _ in range(4)]
    while serving.has_pending():
        serving.step(clock())
        clock.advance(1e-3)
    for request_id in ids:
        serving.finish(request_id)
    snap = registry.snapshot()
    plans = snap["repro_scheduler_plans_total"]["series"][0]["value"]
    assert plans > 0
    admitted = snap["repro_slo_admitted_total"]["series"][0]["value"]
    assert admitted == 4                     # generous target: all pass


# -- HTTP exposition ----------------------------------------------------

def test_threaded_metrics_server_scrapes():
    registry = MetricsRegistry()
    registry.counter("repro_pings_total", "pings").inc(7)
    server = start_metrics_server(registry, port=0)
    try:
        port = server.server_address[1]
        with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/metrics") as response:
            assert response.status == 200
            assert "version=0.0.4" in response.headers["Content-Type"]
            body = response.read().decode()
        assert "repro_pings_total 7" in body
        with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/healthz") as response:
            assert response.read() == b"ok\n"
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(f"http://127.0.0.1:{port}/nope")
        assert err.value.code == 404
    finally:
        server.shutdown()


def test_async_metrics_endpoint(snapshot):
    from repro.serve.aio import AsyncServingEngine

    async def scenario():
        registry = MetricsRegistry()
        core = WorkerTier.from_snapshot(
            snapshot, replicas=1,
            policy=BatchPolicy(max_batch_size=2, max_wait=0.0),
            registry=registry)
        async with AsyncServingEngine(core,
                                      registry=registry) as serving:
            endpoint = await serving.serve_metrics(port=0)
            result = await serving.open_stream(
                np.array([1, 2, 3]), max_new_tokens=2)
            assert result.ok
            body = await asyncio.to_thread(
                lambda: urllib.request.urlopen(endpoint.url).read())
        text = body.decode()
        assert 'repro_requests_terminal_total{engine="worker0",' \
               'reason="ok"} 1' in text
        return text

    asyncio.run(scenario())


def test_async_endpoint_requires_registry(snapshot):
    from repro.serve.aio import AsyncServingEngine

    async def scenario():
        core = WorkerTier.from_snapshot(
            snapshot, replicas=1,
            policy=BatchPolicy(max_batch_size=2, max_wait=0.0))
        async with AsyncServingEngine(core) as serving:
            with pytest.raises(ValueError):
                await serving.serve_metrics()

    asyncio.run(scenario())


# -- store + bench provenance ------------------------------------------

def test_store_events_publish(tmp_path):
    from repro.eval.store import WorkloadStore
    from repro.eval.workloads import QUICK, get_workload

    registry = MetricsRegistry()
    store = WorkloadStore(str(tmp_path / "store"), registry=registry)
    spec = get_workload("memn2n/Task-1")
    assert store.load(spec, QUICK) is None   # cold -> miss

    def events():
        return {row["labels"]["event"]: row["value"] for row in
                registry.snapshot()["repro_store_events_total"]["series"]}

    assert events()["miss"] == 1
    assert events()["hit"] == 0


def test_bench_provenance_recorded(tmp_path, monkeypatch):
    from repro.eval.artifacts import load_bench, record_bench

    monkeypatch.setenv("GITHUB_SHA", "cafe" * 10)
    path = record_bench("obs_probe", {"tok_s": 10.0},
                        directory=str(tmp_path))
    run = load_bench(path)["runs"][-1]
    provenance = run["provenance"]
    assert provenance["git_sha"] == "cafe" * 10
    assert set(provenance) == {"git_sha", "python", "numpy", "platform"}
    assert provenance["python"].count(".") == 2


def test_artifacts_diff_cli(tmp_path, capsys):
    from repro.eval.artifacts import main, record_bench

    a = record_bench("probe_a", {"tok_s": 100.0, "p99": 0.5},
                     directory=str(tmp_path))
    b = record_bench("probe_b", {"tok_s": 150.0, "p99": 0.4},
                     directory=str(tmp_path))
    main(["diff", a, b])
    out = capsys.readouterr().out
    assert "tok_s" in out and "1.5" in out
    with pytest.raises(SystemExit):
        main(["diff", a, str(tmp_path / "missing.json")])


# ---------------------------------------------------------------------------
# fleet aggregation: merging worker snapshots and trace deltas
# ---------------------------------------------------------------------------

def test_merge_snapshot_replaces_series_and_rebuilds_histograms():
    """merge_snapshot folds a worker registry's snapshot in with
    replace-latest semantics, reconstructing the histogram overflow
    bucket (snapshots carry only the bounded buckets)."""
    worker = MetricsRegistry()
    worker.counter("jobs_total", "jobs", engine="worker0").inc(3)
    worker.gauge("depth", "queue depth", engine="worker0").set(7)
    hist = worker.histogram("lat", "latency",
                            buckets=(0.1, 1.0), engine="worker0")
    hist.observe(0.05)
    hist.observe(0.5)
    hist.observe(99.0)                     # lands in +Inf overflow

    parent = MetricsRegistry()
    parent.counter("jobs_total", "jobs", engine="parent").inc(1)
    parent.merge_snapshot(worker.snapshot())
    # two merges are idempotent (replace, not add)
    parent.merge_snapshot(worker.snapshot())

    snap = parent.snapshot()
    jobs = {tuple(r["labels"].items()): r["value"]
            for r in snap["jobs_total"]["series"]}
    assert jobs[(("engine", "worker0"),)] == 3
    assert jobs[(("engine", "parent"),)] == 1    # untouched
    assert snap["depth"]["series"][0]["value"] == 7
    merged = parent.histogram("lat", "latency", buckets=(0.1, 1.0),
                              engine="worker0")
    assert merged.counts == [1, 1, 1]            # overflow rebuilt
    assert merged.count == 3
    assert merged.sum == pytest.approx(99.55)
    assert parent.merge_snapshot(worker.snapshot()) is None
    assert NULL_REGISTRY.merge_snapshot(worker.snapshot()) is None

    with pytest.raises(ValueError, match="cannot merge"):
        parent.merge_snapshot({"x": {"kind": "mystery", "help": "",
                                     "series": [{"labels": {},
                                                 "value": 1}]}})


def test_merge_events_remaps_pids_across_incremental_deltas():
    """merge_events translates a worker recorder's pid numbering into
    the parent's track table, carrying the mapping across deltas (the
    process_name metadata event only appears in the first one)."""
    from repro.obs import TraceRecorder

    worker = TraceRecorder()
    pid = worker.track("worker1")
    worker.instant("submit", 0.0, pid, id=1)
    first_delta = list(worker.events)
    worker.instant("finish", 1.0, pid, id=1)
    second_delta = worker.events[len(first_delta):]

    parent = TraceRecorder()
    parent.track("parent")                 # occupies the worker's pid
    mapping = parent.merge_events(first_delta)
    mapping = parent.merge_events(second_delta, mapping)

    remapped = parent.track("worker1")     # get-or-assign: stable
    assert mapping == {pid: remapped}
    assert remapped != pid                 # collision actually remapped
    merged = [e for e in parent.events
              if e.get("name") in ("submit", "finish")]
    assert [e["name"] for e in merged] == ["submit", "finish"]
    assert all(e["pid"] == remapped for e in merged)
    # pid 0 (no track) passes through unchanged
    parent.merge_events([{"name": "loose", "ph": "i", "ts": 0.0,
                          "pid": 0}])
    assert parent.events[-1]["pid"] == 0
