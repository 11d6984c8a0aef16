"""Trace-driven load & SLO harness pins.

The headline invariant: replaying the same seeded ``TraceSpec``
through the multi-worker tier twice yields bit-identical per-request
outputs, pruning masks, hardware estimates *and* latency marks — and
every request's outputs match serving it alone (batch size 1) on an
engine rebuilt from the same snapshot.  Around it: trace determinism,
the token-budget step planner, SLO-aware admission shedding, and the
worker tier's deterministic least-loaded routing.
"""

import numpy as np
import pytest

from repro.core import PrunedInferenceEngine
from repro.serve import (BatchPolicy, REASON_CANCELLED, REASON_OK,
                         REASON_SHED, ServingEngine, ShedOverload,
                         WorkerTier)
from repro.serve.loadgen import (LoadReport, TraceSpec, VirtualClock,
                                 replay_trace)
from repro.serve.scheduler import (SchedulerConfig, SLOAdmission,
                                   StepPlanner)
from repro.serve.streams import StreamState
from tests.test_serving import assert_records_identical, make_lm_engine

VOCAB = 40   # make_lm_engine's vocabulary


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    """One saved LM engine snapshot every tier in this module
    replicates from."""
    directory = tmp_path_factory.mktemp("engine")
    make_lm_engine(0).save(str(directory))
    return str(directory)


def make_tier(snapshot, replicas=2, **kwargs):
    clock = VirtualClock()
    kwargs.setdefault("step_token_budget", 16)
    tier = WorkerTier.from_snapshot(
        snapshot, replicas=replicas,
        policy=BatchPolicy(max_batch_size=4, max_wait=0.0),
        clock=clock, estimate_hardware=True, **kwargs)
    return tier, clock


# ---------------------------------------------------------------------------
# trace generation
# ---------------------------------------------------------------------------

def test_trace_spec_is_deterministic():
    spec = TraceSpec(seed=7, requests=40, process="bursty",
                     classify_fraction=0.3, vocab_size=VOCAB)
    first, second = spec.generate(), spec.generate()
    assert len(first) == 40
    for a, b in zip(first, second):
        assert a.arrival == b.arrival
        assert a.kind == b.kind
        assert a.max_new_tokens == b.max_new_tokens
        np.testing.assert_array_equal(a.tokens, b.tokens)
    other = TraceSpec(seed=8, requests=40, process="bursty",
                      classify_fraction=0.3, vocab_size=VOCAB).generate()
    assert any(a.arrival != b.arrival for a, b in zip(first, other))


def test_trace_spec_validates():
    with pytest.raises(ValueError):
        TraceSpec(process="weibull")
    with pytest.raises(ValueError):
        TraceSpec(requests=0)
    with pytest.raises(ValueError):
        TraceSpec(prompt_tokens=(5, 2))
    with pytest.raises(ValueError):
        TraceSpec(rate=0.0)
    with pytest.raises(ValueError):
        TraceSpec(classify_fraction=1.5)


@pytest.mark.parametrize("rates", [
    {"rate": float("nan")}, {"burst_rate": float("nan")},
    {"rate": float("inf")}, {"burst_rate": -1.0}],
    ids=["rate-nan", "burst-rate-nan", "rate-inf", "burst-rate-negative"])
def test_trace_spec_rejects_non_finite_rates(rates):
    """A NaN rate compares False to 0 and would make every arrival
    time NaN, which a replay waits for forever."""
    with pytest.raises(ValueError, match="finite and > 0"):
        TraceSpec(process="bursty", **rates)


@pytest.mark.parametrize("target", [0.0, -1.0, float("nan")])
def test_slo_admission_rejects_unattainable_targets(target):
    for name in ("ttft_target", "tbt_target", "step_time"):
        with pytest.raises(ValueError, match=f"{name} must be > 0"):
            SLOAdmission(**{name: target})


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bursty_arrivals_are_burstier_than_poisson(seed):
    """The MMPP trace's inter-arrival coefficient of variation exceeds
    the Poisson trace's (CV 1) — the burst structure is real."""
    def cv(process):
        spec = TraceSpec(seed=seed, requests=400, process=process)
        arrivals = np.array([r.arrival for r in spec.generate()])
        gaps = np.diff(np.concatenate([[0.0], arrivals]))
        return gaps.std() / gaps.mean()

    assert cv("bursty") > cv("poisson") + 0.05


def test_trace_mixes_request_kinds():
    spec = TraceSpec(seed=0, requests=200, classify_fraction=0.5)
    kinds = {r.kind for r in spec.generate()}
    assert kinds == {"classify", "generate"}
    assert all(r.max_new_tokens == 0 for r in spec.generate()
               if r.kind == "classify")


# ---------------------------------------------------------------------------
# the headline pin: bit-identical replay, solo-equivalent outputs
# ---------------------------------------------------------------------------

def run_replay(snapshot, spec, replicas=2):
    tier, clock = make_tier(snapshot, replicas=replicas)
    return replay_trace(tier, spec, clock=clock), tier


@pytest.mark.parametrize("seed", [0, 3])
def test_replay_is_bit_identical_and_matches_solo(snapshot, seed):
    spec = TraceSpec(seed=seed, requests=18, process="bursty",
                     rate=300.0, burst_rate=3000.0, vocab_size=VOCAB)
    first, _ = run_replay(snapshot, spec)
    second, _ = run_replay(snapshot, spec)

    assert len(first.outcomes) == spec.requests
    assert first.reasons == {REASON_OK: spec.requests}
    for a, b in zip(first.outcomes, second.outcomes):
        # outputs, masks, hardware estimates — and the latency marks,
        # because the virtual clock replays time itself
        np.testing.assert_array_equal(a.result.tokens, b.result.tokens)
        np.testing.assert_array_equal(a.result.logits, b.result.logits)
        assert_records_identical(a.result.records, b.result.records)
        assert a.result.hardware == b.result.hardware
        assert a.timing == b.timing
    assert first.metrics() == second.metrics()

    # solo reference: every request served alone (batch size 1) on an
    # engine rebuilt from the same snapshot — placement, batching, and
    # scheduling must be bit-invisible
    solo_clock = [0.0]
    solo = ServingEngine(
        PrunedInferenceEngine.from_directory(snapshot),
        BatchPolicy(max_batch_size=1, max_wait=0.0),
        estimate_hardware=True, clock=lambda: solo_clock[0])
    for outcome in first.outcomes:
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


def test_replay_handles_classify_traffic(tmp_path):
    """One-shot classification traces flow through the same replay —
    served on a classifier-snapshot tier (the classify queue needs a
    masked-input model, which the causal LM is not)."""
    from tests.test_serving import make_classifier_engine

    make_classifier_engine(0).save(str(tmp_path))
    clock = VirtualClock()
    tier = WorkerTier.from_snapshot(
        str(tmp_path), replicas=2,
        policy=BatchPolicy(max_batch_size=4, max_wait=0.0),
        clock=clock, estimate_hardware=True)
    spec = TraceSpec(seed=1, requests=12, classify_fraction=1.0,
                     vocab_size=50)
    report = replay_trace(tier, spec, clock=clock)
    assert report.reasons == {REASON_OK: 12}
    for outcome in report.outcomes:
        assert outcome.result.kind == "classify"
        timing = outcome.timing
        assert timing is not None
        assert timing.latency >= 0.0
        assert timing.first_token == timing.finished


# ---------------------------------------------------------------------------
# worker tier: routing, surface
# ---------------------------------------------------------------------------

def test_tier_routes_least_loaded_deterministically(snapshot):
    tier, _ = make_tier(snapshot, replicas=3)
    prompt = np.arange(1, 5, dtype=np.int64)
    # empty tier: ties break toward the lowest index, then each request
    # lands on the emptiest replica — round-robin under equal load
    ids = [tier.open_stream(prompt, max_new_tokens=4) for _ in range(6)]
    owners = [tier._routes[i] for i in ids]
    assert owners == [0, 1, 2, 0, 1, 2]
    tier.drain()
    for request_id in ids:
        assert tier.finish(request_id).ok


def test_tier_skews_toward_the_lighter_worker(snapshot):
    tier, _ = make_tier(snapshot, replicas=2)
    heavy = tier.open_stream(np.arange(1, 8, dtype=np.int64),
                             max_new_tokens=8)
    light = [tier.open_stream(np.arange(1, 3, dtype=np.int64),
                              max_new_tokens=2) for _ in range(2)]
    # worker0 owes 7+8 tokens, so both small streams pile onto worker1
    # (4 tokens each) before it catches up
    assert tier._routes[heavy] == 0
    assert [tier._routes[i] for i in light] == [1, 1]
    tier.drain()


def test_tier_surface(snapshot):
    with pytest.raises(ValueError):
        WorkerTier.from_snapshot(snapshot, replicas=0)
    tier, clock = make_tier(snapshot, replicas=2)
    assert sorted(tier.stats) == ["worker0", "worker1"]
    assert tier.outstanding_tokens() == 0
    assert tier.kv_slots_in_use() == 0
    assert not tier.has_pending()
    assert tier.next_deadline() is None
    with pytest.raises(KeyError):
        tier.finish(123)
    with pytest.raises(KeyError):
        tier.cancel(123)

    stream = tier.open_stream(np.arange(1, 4, dtype=np.int64), 4,
                              ttl=5.0)
    assert tier.has_pending()
    assert tier.cancel(stream)
    tier.step()
    assert not tier.result(stream).ok
    summary = tier.stats_summary()
    assert set(summary) == {"tier", "workers"}
    assert set(summary["workers"]) == {"worker0", "worker1"}
    for row in summary["workers"].values():
        assert {"health", "completed", "reasons", "shed", "errors",
                "preemptions", "outstanding_tokens",
                "kv_slots_in_use", "queue_depth"} <= set(row)
        assert row["health"] == "ok"
    tier_row = summary["tier"]
    assert tier_row["replicas"] == 2
    assert tier_row["completed"] == sum(
        row["completed"] for row in summary["workers"].values())
    assert tier_row["reasons"][REASON_CANCELLED] == 1


# ---------------------------------------------------------------------------
# token-budget step planning
# ---------------------------------------------------------------------------

def make_stream(stream_id, length=4, steps=0):
    stream = StreamState(
        stream_id=stream_id,
        tokens=np.zeros(length, dtype=np.int64),
        max_new_tokens=8, arrival=0.0)
    stream.steps_since_admit = steps
    return stream


def test_token_budget_counts_chunked_prefill_tokens():
    planner = StepPlanner(SchedulerConfig(max_slots=4,
                                          step_token_budget=8))
    running = [make_stream(0), make_stream(1)]
    # residents decode 2 tokens; the first waiting stream's prefill
    # (4 + 1 tokens) fits (7 <= 8), the next would not (10 > 8)
    plan = planner.plan(running, waiting=3, waiting_tokens=[5, 3, 1])
    assert plan.admit_slots == 1
    assert plan.step_tokens == 7


def test_token_budget_admission_is_strictly_fifo():
    planner = StepPlanner(SchedulerConfig(max_slots=4,
                                          step_token_budget=8))
    running = [make_stream(0)]
    # the head prompt does not fit, so the cheap stream behind it must
    # NOT jump the queue
    plan = planner.plan(running, waiting=2, waiting_tokens=[9, 1])
    assert plan.admit_slots == 0
    assert plan.step_tokens == 1


def test_token_budget_progress_floor_admits_oversized_prompt():
    planner = StepPlanner(SchedulerConfig(max_slots=4,
                                          step_token_budget=8))
    plan = planner.plan([], waiting=1, waiting_tokens=[20])
    assert plan.admit_slots == 1         # idle engine must make progress
    assert plan.step_tokens == 20


def test_no_token_budget_keeps_slot_discipline():
    planner = StepPlanner(SchedulerConfig(max_slots=4))
    plan = planner.plan([make_stream(0)], waiting=5,
                        waiting_tokens=[100, 100, 100])
    assert plan.admit_slots == 3         # slots-only: free slots all fill


def test_scheduler_config_validates_budget():
    with pytest.raises(ValueError):
        SchedulerConfig(max_slots=4, step_token_budget=0)


def test_engine_throttles_admissions_by_token_budget():
    clock = [0.0]
    serving = ServingEngine(
        make_lm_engine(0), BatchPolicy(max_batch_size=4, max_wait=0.0),
        clock=lambda: clock[0], step_token_budget=11)
    prompts = [np.arange(1, 5, dtype=np.int64) for _ in range(3)]
    ids = [serving.open_stream(p, max_new_tokens=3) for p in prompts]
    serving.step()
    # each fresh stream costs prompt(4) + decode(1) = 5 tokens: two fit
    # in the 11-token budget, the third waits despite the free slot
    assert serving.stats.admitted == 2
    serving.step()
    # residents decode 2 tokens, 2 + 5 <= 11: the third stream enters
    assert serving.stats.admitted == 3
    while serving.has_pending():
        serving.step()
    assert [serving.finish(i).ok for i in ids] == [True] * 3


# ---------------------------------------------------------------------------
# SLO-aware admission
# ---------------------------------------------------------------------------

def test_slo_admission_sheds_with_typed_shed_overload():
    clock = [0.0]
    serving = ServingEngine(
        make_lm_engine(0), BatchPolicy(max_batch_size=4, max_wait=0.0),
        clock=lambda: clock[0],
        slo=SLOAdmission(ttft_target=0.5, step_time=1.0))
    stream_id = serving.open_stream(np.arange(1, 5, dtype=np.int64), 4)
    assert serving.step() == [stream_id]
    result = serving.result(stream_id)
    assert result.reason == REASON_SHED
    assert serving.stats.shed == 1
    with pytest.raises(ShedOverload):
        serving.finish(stream_id)


def test_slo_tbt_below_step_time_sheds_streams_not_classify():
    slo = SLOAdmission(tbt_target=0.01, step_time=1.0)
    assert slo.admit(0, 4, stream=True) is not None
    assert slo.admit(0, 4, stream=False) is None


def test_slo_predicted_ttft_and_ewma():
    slo = SLOAdmission(ttft_target=1.0, step_time=0.1, smoothing=0.5)
    assert slo.predicted_ttft(40, 4) == pytest.approx(1.1)
    assert slo.admit(40, 4) is not None
    assert slo.admit(0, 4) is None
    slo.observe_step(0.3)
    assert slo.step_time == pytest.approx(0.2)
    slo.observe_step(0.0)                # virtual clock: no-op
    assert slo.step_time == pytest.approx(0.2)
    with pytest.raises(ValueError):
        SLOAdmission(ttft_target=-1.0)
    with pytest.raises(ValueError):
        SLOAdmission(step_time=0.0)


def test_slo_shedding_under_burst_keeps_survivors_in_target(snapshot):
    """Under an overload burst the SLO gate sheds typed, and every
    request still admitted finishes inside the TTFT target."""
    target = 0.002
    tier, clock = make_tier(
        snapshot, slo=SLOAdmission(ttft_target=target, step_time=1e-3))
    spec = TraceSpec(seed=2, requests=40, process="bursty",
                     rate=200.0, burst_rate=20000.0, vocab_size=VOCAB)
    report = replay_trace(tier, spec, clock=clock)
    assert report.reasons.get(REASON_SHED, 0) > 0
    assert report.reasons[REASON_OK] > 0
    assert set(report.reasons) == {REASON_OK, REASON_SHED}
    for outcome in report.outcomes:
        # the admission model is a prediction, not a guarantee — but
        # shedding must keep every survivor near the target instead of
        # queueing the whole burst into collapse
        if outcome.ok:
            assert outcome.ttft <= 2 * target
    assert tier.stats_summary()["tier"]["shed"] \
        == report.reasons[REASON_SHED]


# ---------------------------------------------------------------------------
# timing marks, report percentiles, SLO gate
# ---------------------------------------------------------------------------

def test_request_timing_marks_follow_the_virtual_clock():
    clock = [0.0]
    serving = ServingEngine(
        make_lm_engine(0), BatchPolicy(max_batch_size=2, max_wait=0.0),
        clock=lambda: clock[0])
    stream_id = serving.open_stream(np.arange(1, 4, dtype=np.int64),
                                    max_new_tokens=3, now=0.0)
    while serving.has_pending():
        clock[0] += 0.01
        serving.step()
    timing = serving.finish(stream_id).timing
    assert timing.arrival == 0.0
    assert timing.ttft == pytest.approx(0.01)      # prefill step
    assert len(timing.token_times) == 3
    # the admitting step piggybacks the first decode onto the prefill,
    # so tokens 1 and 2 share a stamp; the last token lands a step later
    assert timing.tbts == pytest.approx((0.0, 0.01))
    assert timing.latency == pytest.approx(0.02)


def test_load_report_percentiles_and_gate(snapshot):
    spec = TraceSpec(seed=5, requests=16, vocab_size=VOCAB)
    report, _ = run_replay(snapshot, spec)
    metrics = report.metrics()
    assert metrics["completed_ok"] == 16
    # idle arrivals get prefilled at their exact arrival instant on the
    # virtual clock, so TTFT can legitimately be 0.0
    assert 0.0 <= metrics["ttft_p50"] <= metrics["ttft_p99"]
    assert metrics["tbt_p50"] <= metrics["tbt_p99"]
    assert metrics["tok_s"] > 0.0
    assert metrics["generated_tokens"] == report.generated_tokens

    assert report.check(max_ttft_p99=metrics["ttft_p99"] + 1.0,
                        min_tok_s=0.0) is report
    with pytest.raises(SystemExit, match="ttft_p99"):
        report.check(max_ttft_p99=metrics["ttft_p99"] / 2)
    with pytest.raises(SystemExit, match="tok_s"):
        report.check(min_tok_s=metrics["tok_s"] * 10)


def test_empty_percentiles_are_none():
    report = LoadReport(outcomes=[], duration=1.0)
    metrics = report.metrics()
    assert metrics["ttft_p99"] is None
    assert metrics["tok_s"] == 0.0
    with pytest.raises(SystemExit):     # no TTFT at all breaches a gate
        report.check(max_ttft_p99=1.0)


def test_replay_records_bench_artifact(snapshot, tmp_path, monkeypatch):
    from repro.eval import load_bench, record_bench

    monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
    report, _ = run_replay(snapshot, TraceSpec(seed=0, requests=6,
                                               vocab_size=VOCAB))
    path = record_bench("serving_slo", report.metrics(),
                        context={"replicas": 2})
    payload = load_bench(path)
    assert payload["schema"] == 1
    assert payload["runs"][-1]["metrics"]["completed_ok"] == 6
    assert payload["runs"][-1]["context"]["replicas"] == 2
