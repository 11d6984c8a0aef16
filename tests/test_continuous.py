"""Continuous-batching scheduler: per-stream bit-equality pins.

A stream served by the continuous scheduler — admitted into a
partially-filled decode batch, shuffled across KV slots, preempted to
swapped-out state and resumed — must be *bit-identical* (tokens,
logits, pruning masks, hardware estimates) to the same stream served
alone, and its tokens must equal the model's own greedy ``generate``,
under staggered arrivals and preemption/resume."""

import numpy as np
import pytest

from repro.serve import (BatchPolicy, KVSlotBuffer, SchedulerConfig,
                         ServingEngine, StepPlanner, StreamState)
from tests.test_serving import (assert_records_identical,
                                make_classifier_engine, make_lm_engine,
                                serve_classify, serve_streams)


def make_continuous(engine, max_batch_size, preempt_after=None,
                    pressure=1, **policy_kwargs):
    clock = [0.0]
    serving = ServingEngine(
        engine, BatchPolicy(max_batch_size=max_batch_size, max_wait=0.0,
                            **policy_kwargs),
        estimate_hardware=True, clock=lambda: clock[0],
        preempt_after=preempt_after, pressure=pressure)
    return serving, clock


def run_staggered(serving, prompts, max_new_tokens, arrive_every=1):
    """Open one stream every ``arrive_every`` steps, stepping the
    engine between arrivals — mixed arrival traffic, not a burst."""
    ids = []
    for prompt in prompts:
        ids.append(serving.open_stream(prompt, max_new_tokens))
        for _ in range(arrive_every):
            serving.step()
    guard = 0
    while serving.has_pending():
        serving.step()
        guard += 1
        assert guard < 10_000, "continuous scheduler failed to drain"
    return [serving.finish(i) for i in ids]


def assert_streams_identical(got, expected):
    for a, b in zip(got, expected):
        np.testing.assert_array_equal(a.tokens, b.tokens)
        np.testing.assert_array_equal(a.logits, b.logits)
        assert_records_identical(a.records, b.records)
        assert a.hardware == b.hardware


# ---------------------------------------------------------------------------
# continuous vs solo / model.generate equivalence
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1])
def test_continuous_staggered_bit_identical_to_solo(seed):
    engine = make_lm_engine(seed)
    rng = np.random.default_rng(seed)
    prompts = [rng.integers(1, 40, size=int(n))
               for n in rng.integers(1, 9, size=8)]
    solo, _ = serve_streams(engine, prompts, 6, max_batch_size=1)
    serving, _ = make_continuous(engine, max_batch_size=3)
    got = run_staggered(serving, prompts, 6)
    assert_streams_identical(got, solo)
    # the point of continuous batching: arrivals joined a live batch
    assert serving.stats.admitted == len(prompts)
    assert serving.stats.max_batch_size >= 2


def test_continuous_matches_model_generate_per_stream():
    """A reference that owes nothing to the scheduler: each stream's
    served tokens equal the model's own greedy ``generate`` on that
    prompt alone."""
    for seed in (0, 1, 2):
        engine = make_lm_engine(seed)
        rng = np.random.default_rng(seed)
        prompts = [rng.integers(1, 40, size=int(n))
                   for n in rng.integers(1, 9, size=8)]
        serving, _ = make_continuous(engine, max_batch_size=4)
        got = run_staggered(serving, prompts, 5, arrive_every=2)
        for prompt, result in zip(prompts, got):
            np.testing.assert_array_equal(
                result.tokens, engine.model.generate(prompt[None], 5)[0])


def test_continuous_is_the_only_stream_scheduler():
    engine = make_lm_engine(0)
    with pytest.raises(ValueError, match="round-based"):
        ServingEngine(engine, continuous=False)
    serving = ServingEngine(engine, BatchPolicy(max_batch_size=2,
                                                max_wait=0.0))
    stream_id = serving.open_stream(np.arange(1, 4), 3)
    serving.drain()
    assert serving.finish(stream_id).ok
    assert serving.stats.steps > 0          # the step planner ran


def test_preemption_and_resume_stay_bit_identical():
    """More streams than slots + an aggressive time slice: streams are
    swapped out under pressure and resumed later, and nobody's bits
    change."""
    engine = make_lm_engine(1)
    rng = np.random.default_rng(7)
    prompts = [rng.integers(1, 40, size=int(n))
               for n in rng.integers(1, 9, size=9)]
    solo, _ = serve_streams(engine, prompts, 7, max_batch_size=1)
    serving, _ = make_continuous(engine, max_batch_size=3,
                                 preempt_after=2)
    got = run_staggered(serving, prompts, 7)
    assert_streams_identical(got, solo)
    stats = serving.stats
    assert stats.preemptions > 0              # pressure really preempted
    assert stats.resumes == stats.preemptions  # and everyone came back
    assert stats.completed == len(prompts)


def test_preempted_stream_resumes_and_completes():
    engine = make_lm_engine(3)
    rng = np.random.default_rng(3)
    serving, _ = make_continuous(engine, max_batch_size=1,
                                 preempt_after=1)
    first = serving.open_stream(rng.integers(1, 40, size=4), 8)
    serving.step()                            # first occupies the slot
    second = serving.open_stream(rng.integers(1, 40, size=3), 8)
    stream = serving._streams[first]
    preempted_at = None
    for tick in range(64):
        serving.step()
        if stream.swapped and preempted_at is None:
            preempted_at = tick               # swapped out, slot-less
        if not serving.has_pending():
            break
    assert preempted_at is not None
    assert stream.preemptions >= 1
    assert serving.finish(first).tokens.shape[0] == 4 + 8
    assert serving.finish(second).tokens.shape[0] == 3 + 8


def test_mixed_classify_and_streams_continuous():
    """Classification batches flush alongside the continuous stream
    scheduler without perturbing either path's bits."""
    engine = make_lm_engine(0)
    classifier = make_classifier_engine(0)
    rng = np.random.default_rng(11)
    requests = [rng.integers(0, 50, size=int(n))
                for n in rng.integers(1, 25, size=6)]
    prompts = [rng.integers(1, 40, size=int(n))
               for n in rng.integers(1, 9, size=4)]
    solo_cls, _ = serve_classify(classifier, requests, max_batch_size=1)
    solo_lm, _ = serve_streams(engine, prompts, 5, max_batch_size=1)

    cls_serving, _ = make_continuous(classifier, max_batch_size=3)
    lm_serving, _ = make_continuous(engine, max_batch_size=3)
    cls_ids = [cls_serving.submit(r) for r in requests]
    lm_results = run_staggered(lm_serving, prompts, 5)
    cls_serving.drain()
    cls_results = [cls_serving.finish(i) for i in cls_ids]
    assert_streams_identical(lm_results, solo_lm)
    for got, expected in zip(cls_results, solo_cls):
        np.testing.assert_array_equal(got.logits, expected.logits)
        assert got.hardware == expected.hardware


# ---------------------------------------------------------------------------
# scheduler / KV-slot internals
# ---------------------------------------------------------------------------

def _stream(stream_id, steps_since_admit=0):
    return StreamState(stream_id=stream_id,
                       tokens=np.array([1], dtype=np.int64),
                       max_new_tokens=4, arrival=0.0,
                       steps_since_admit=steps_since_admit)


def test_planner_admits_into_free_slots_only():
    planner = StepPlanner(SchedulerConfig(max_slots=4))
    plan = planner.plan([_stream(0), _stream(1)], waiting=5)
    assert plan.admit_slots == 2 and not plan.preempt
    assert planner.plan([], waiting=1).admit_slots == 1
    assert planner.plan([_stream(i) for i in range(4)],
                        waiting=3).admit_slots == 0


def test_planner_preempts_longest_running_under_pressure():
    planner = StepPlanner(SchedulerConfig(max_slots=2, preempt_after=3))
    running = [_stream(0, steps_since_admit=5),
               _stream(1, steps_since_admit=4)]
    plan = planner.plan(running, waiting=1)
    assert [s.stream_id for s in plan.preempt] == [0]
    assert plan.admit_slots == 1
    # below the time slice: nobody preempted, nobody admitted
    young = [_stream(0, steps_since_admit=1),
             _stream(1, steps_since_admit=2)]
    idle = planner.plan(young, waiting=1)
    assert not idle.preempt and idle.admit_slots == 0
    # no pressure threshold reached -> residents keep their slots
    relaxed = StepPlanner(SchedulerConfig(max_slots=2, preempt_after=3,
                                          pressure=2))
    assert not relaxed.plan(running, waiting=1).preempt


def test_kv_slot_buffer_admit_evict_swap_round_trip():
    rng = np.random.default_rng(0)
    buffer = KVSlotBuffer(slots=3, num_blocks=2, heads=2, head_dim=4,
                          capacity=8)
    streams, originals = [], []
    for i, size in enumerate((3, 5, 2)):
        stream = _stream(i)
        stream.kv_capacity = 8
        caches = [{"k": rng.standard_normal((2, size, 4)),
                   "v": rng.standard_normal((2, size, 4))}
                  for _ in range(2)]
        buffer.admit(stream, caches)
        streams.append(stream)
        originals.append(caches)
    assert [s.slot for s in streams] == [0, 1, 2]

    # evicting slot 0 moves the last stream into the hole, bytes intact
    buffer.evict(streams[0])
    assert streams[2].slot == 0 and streams[1].slot == 1
    batch = buffer.batch()
    for block in range(2):
        np.testing.assert_array_equal(
            batch[block]["k"][0, :, :2], originals[2][block]["k"])
        np.testing.assert_array_equal(
            batch[block]["k"][1, :, :5], originals[1][block]["k"])
        # zero padding beyond each stream's rows is preserved
        assert not batch[block]["k"][0, :, 2:].any()

    # swap-out / re-admit round-trips the exact bytes
    buffer.swap_out(streams[1])
    assert streams[1].swapped and streams[1].preemptions == 1
    caches, streams[1].caches = streams[1].caches, None
    for block in range(2):
        np.testing.assert_array_equal(caches[block]["v"],
                                      originals[1][block]["v"])
    buffer.admit(streams[1], caches)
    batch = buffer.batch()
    for block in range(2):
        np.testing.assert_array_equal(
            batch[block]["v"][streams[1].slot, :, :5],
            originals[1][block]["v"])


def assert_slots_zero_padded(buffer):
    """Occupied slots hold zeros past their length; free slots are all
    zero (what ``admit`` relies on for solo-identical padding)."""
    active = len(buffer)
    for block in range(2):
        for store in (buffer._k[block], buffer._v[block]):
            for slot in range(buffer.slots):
                start = int(buffer._lengths[slot]) if slot < active else 0
                assert not store[slot, :, start:].any(), (block, slot)


def test_kv_slot_buffer_churn_keeps_padding_zero():
    """Admit, decode (rows grow past what was admitted), evict from the
    middle, swap out and re-admit, and fail a step before it commits:
    every row a departing stream wrote is zeroed, and only those."""
    from repro.models import LMConfig, TransformerLM
    model = TransformerLM(LMConfig(vocab_size=16, max_seq_len=16, dim=8,
                                   num_heads=2, num_layers=2, seed=3))
    model.make_controller().hard()
    rng = np.random.default_rng(3)
    buffer = KVSlotBuffer(slots=4, num_blocks=2, heads=2, head_dim=4,
                          capacity=16)

    def admit(stream_id, size):
        stream = _stream(stream_id)
        stream.kv_capacity = 16
        buffer.admit(stream, [{"k": rng.standard_normal((2, size, 4)),
                               "v": rng.standard_normal((2, size, 4))}
                              for _ in range(2)])
        return stream

    def decode(steps, commit=True):
        for _ in range(steps):
            batch = buffer.batch()
            model.decode_step(rng.integers(0, 16, size=len(buffer)), batch)
            if commit:
                buffer.advance(batch)

    streams = [admit(i, size) for i, size in enumerate((3, 6, 2, 4))]
    decode(3)
    assert_slots_zero_padded(buffer)
    buffer.evict(streams[1])            # a long stream leaves the middle
    assert_slots_zero_padded(buffer)
    decode(2)
    buffer.swap_out(streams[0])
    assert_slots_zero_padded(buffer)
    swapped, streams[0].caches = streams[0].caches, None
    buffer.admit(streams[0], swapped)
    decode(1)
    assert_slots_zero_padded(buffer)
    streams.append(admit(4, 5))
    decode(1, commit=False)             # written, then failed uncommitted
    for stream in list(buffer.streams):
        buffer.evict(stream)
    assert_slots_zero_padded(buffer)


def test_per_stream_capacity_guard_raises():
    from repro.models import LMConfig, TransformerLM
    model = TransformerLM(LMConfig(vocab_size=16, max_seq_len=8, dim=8,
                                   num_heads=2, num_layers=1))
    buffer = KVSlotBuffer(slots=1, num_blocks=1, heads=2, head_dim=4,
                          capacity=8)
    stream = _stream(0)
    stream.kv_capacity = 2                  # request-derived budget
    buffer.admit(stream, [{"k": np.zeros((2, 2, 4)),
                           "v": np.zeros((2, 2, 4))}])
    with pytest.raises(ValueError, match="per-stream KV capacity"):
        model.decode_step(np.array([1]), buffer.batch())


def test_finish_releases_slot_and_waiting_stream():
    engine = make_lm_engine(0)
    serving, _ = make_continuous(engine, max_batch_size=1)
    rng = np.random.default_rng(1)
    running = serving.open_stream(rng.integers(1, 40, size=3), 10)
    serving.step()
    waiting = serving.open_stream(rng.integers(1, 40, size=3), 10)
    assert serving._streams[running].slot is not None
    serving.finish(running)                 # client hangs up mid-decode
    assert serving.kv_slots_in_use() == 0
    serving.finish(waiting)                 # hangs up before admission
    assert serving._batcher.stream_count() == 0
    assert not serving.has_pending()
