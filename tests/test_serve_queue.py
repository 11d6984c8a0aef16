"""Property-style serving queue tests: the wait-bound flush (no
starvation), FIFO pops, KV-slot release on completion/finish, and
schedule-independent results — all driven by a virtual clock."""

import asyncio

import numpy as np

from repro.serve import AsyncServingEngine, BatchPolicy, ServingEngine
from tests.test_serving import make_classifier_engine, make_lm_engine


def make_clocked(engine, max_batch_size, max_wait):
    clock = [0.0]
    serving = ServingEngine(
        engine, BatchPolicy(max_batch_size=max_batch_size,
                            max_wait=max_wait),
        clock=lambda: clock[0])
    return serving, clock


def test_no_starvation_lone_request_flushes_at_deadline():
    serving, clock = make_clocked(make_classifier_engine(0),
                                  max_batch_size=8, max_wait=1.0)
    rng = np.random.default_rng(0)
    request_id = serving.submit(rng.integers(0, 50, size=5))
    assert serving.step() == []            # t=0: not full, not due
    clock[0] = 0.99
    assert serving.step() == []            # still inside max_wait
    clock[0] = 1.0
    assert serving.step() == [request_id]  # deadline flush, batch of 1
    assert serving.finish(request_id).batch_sizes == [1]


def test_no_starvation_under_continuous_arrivals():
    """New arrivals never push the oldest request past its deadline:
    pops are FIFO, so the oldest request leaves in the next flush."""
    serving, clock = make_clocked(make_classifier_engine(0),
                                  max_batch_size=4, max_wait=0.5)
    rng = np.random.default_rng(1)
    oldest = serving.submit(rng.integers(0, 50, size=6))
    served_at = None
    for tick in range(1, 20):
        clock[0] = tick * 0.1
        serving.submit(rng.integers(0, 50, size=6))
        done = serving.step()
        if oldest in done:
            served_at = clock[0]
            break
    assert served_at is not None and served_at <= 0.5 + 0.1
    result = serving.finish(oldest)
    assert result.prediction is not None


def test_full_batch_flushes_immediately_and_fifo_order():
    serving, clock = make_clocked(make_classifier_engine(0),
                                  max_batch_size=4, max_wait=100.0)
    rng = np.random.default_rng(2)
    ids = [serving.submit(rng.integers(0, 50, size=4)) for _ in range(10)]
    done = serving.step()                  # two full batches, no wait
    assert done == ids[:8]
    assert serving.finish(ids[0]).batch_sizes == [4]
    assert serving.step() == []            # remaining 2 wait for deadline
    clock[0] = 100.0
    assert serving.step() == ids[8:]
    assert serving.finish(ids[9]).batch_sizes == [2]


def test_stream_caches_evicted_on_completion():
    serving, _ = make_clocked(make_lm_engine(0), 4, 0.0)
    rng = np.random.default_rng(3)
    ids = [serving.open_stream(rng.integers(1, 40, size=3),
                               max_new_tokens=4) for _ in range(3)]
    serving.step()                         # prefill + first decode step
    live = [serving._streams[i] for i in ids]
    assert all(s.slot is not None for s in live)
    assert serving.kv_slots_in_use() == 3
    serving.drain()
    assert all(s.slot is None for s in live)     # evicted at completion
    assert serving.kv_slots_in_use() == 0
    for stream_id in ids:
        assert len(serving.finish(stream_id).tokens) == 3 + 4
    assert serving._streams == {}          # finish released all state


def test_finish_stops_stream_early_and_evicts():
    serving, _ = make_clocked(make_lm_engine(0), 4, 0.0)
    rng = np.random.default_rng(4)
    stream_id = serving.open_stream(rng.integers(1, 40, size=4),
                                    max_new_tokens=20)
    serving.step()                         # prefill (+1) and decode (+1)
    state = serving._streams[stream_id]
    assert state.slot is not None
    assert serving.kv_slots_in_use() == 1
    result = serving.finish(stream_id)     # client hangs up early
    assert state.slot is None
    assert serving.kv_slots_in_use() == 0
    assert len(result.tokens) == 4 + 2
    assert serving._streams == {}
    assert not serving.has_pending()


def test_results_deterministic_across_arrival_interleavings():
    """The same request set yields bit-identical per-request results
    whatever the arrival order, gaps, and batch compositions."""
    rng = np.random.default_rng(5)
    requests = [rng.integers(0, 50, size=int(n))
                for n in rng.integers(2, 25, size=9)]
    prompts = [rng.integers(1, 40, size=int(n))
               for n in rng.integers(1, 8, size=4)]

    def run_schedule(order, gap):
        serving, clock = make_clocked(make_classifier_engine(0), 4, 0.05)
        lm, _ = make_clocked(make_lm_engine(0), 3, 0.0)
        ids = {}
        for step, index in enumerate(order):
            clock[0] = step * gap
            ids[index] = serving.submit(requests[index])
            serving.step()
        clock[0] += 1.0
        serving.step()
        stream_ids = {i: lm.open_stream(p, 5)
                      for i, p in enumerate(prompts)}
        lm.drain()
        return ({i: serving.finish(r) for i, r in ids.items()},
                {i: lm.finish(r) for i, r in stream_ids.items()})

    base_cls, base_lm = run_schedule(list(range(9)), 0.0)
    shuffled = [4, 0, 8, 2, 6, 1, 7, 3, 5]
    for order, gap in [(list(range(9)), 0.03), (shuffled, 0.0),
                       (shuffled, 0.06)]:
        got_cls, got_lm = run_schedule(order, gap)
        for i in range(9):
            np.testing.assert_array_equal(got_cls[i].logits,
                                          base_cls[i].logits)
        for i in range(4):
            np.testing.assert_array_equal(got_lm[i].tokens,
                                          base_lm[i].tokens)


def test_oversized_request_rejected_at_submit():
    """A bad request must fail at submit, never poison the batch it
    would have been coalesced into."""
    import pytest
    serving, clock = make_clocked(make_classifier_engine(0), 4, 0.0)
    rng = np.random.default_rng(7)
    good = serving.submit(rng.integers(0, 50, size=5))
    with pytest.raises(ValueError, match="request length 40"):
        serving.submit(rng.integers(0, 50, size=40))
    with pytest.raises(ValueError, match="request length 0"):
        serving.submit(np.zeros(0, dtype=np.int64))
    assert serving.step() == [good]        # neighbour still served


def test_pad_to_beyond_model_capacity_rejected():
    import pytest
    from repro.serve import BatchPolicy, ServingEngine
    with pytest.raises(ValueError, match="pad_to=40 exceeds"):
        ServingEngine(make_classifier_engine(0),
                      BatchPolicy(pad_to=40))


def test_async_serve_error_fails_clients_not_runner():
    """A serve-time error must propagate to the awaiting clients; the
    runner keeps serving later traffic."""

    from types import SimpleNamespace

    class ExplodingEngine:
        def __init__(self):
            self.model = SimpleNamespace(
                config=SimpleNamespace(max_seq_len=8))
            self.calls = 0

        def predict_many(self, inputs, mask, collect_records=False):
            self.calls += 1
            if self.calls == 1:
                raise RuntimeError("model exploded")
            logits = np.zeros((inputs.shape[0], 2))
            return logits.argmax(-1), logits, None

    engine = ExplodingEngine()
    serving = ServingEngine(engine, BatchPolicy(max_batch_size=2,
                                                max_wait=0.005))

    async def main():
        async with AsyncServingEngine(serving) as front:
            first = await asyncio.gather(
                front.submit(np.arange(3)), front.submit(np.arange(4)),
                return_exceptions=True)
            retry = await front.submit(np.arange(3))
            return first, retry

    first, retry = asyncio.run(main())
    assert all(isinstance(r, RuntimeError) for r in first)
    assert retry.prediction == 0           # runner survived the error


def test_batch_policy_from_observed_auto_tunes_buckets():
    """The tuned ladder serves the observed traffic in no more
    batch-slots than any hand-picked ladder of the allowed size,
    always covers the longest request, and a handful of observed
    lengths yields full batches instead of one bucket per length."""
    from itertools import combinations

    import pytest

    from repro.serve import BatchPolicy

    rng = np.random.default_rng(0)
    # bimodal traffic: many short requests, a long tail
    lengths = np.concatenate([rng.integers(3, 9, size=80),
                              rng.integers(40, 65, size=20)]).tolist()

    policy = BatchPolicy.from_observed(lengths, max_buckets=3)
    assert policy.buckets is not None
    assert policy.buckets[-1] == max(lengths)

    size = BatchPolicy.max_batch_size   # the default the tuner assumed

    def served_slots(buckets):
        slots, lower = 0, 0
        for width in buckets:
            count = sum(1 for n in lengths if lower < n <= width)
            slots += -(-count // size) * size * width
            lower = width
        return slots

    best = served_slots(policy.buckets)
    tail = [u for u in sorted(set(lengths)) if u != max(lengths)]
    exhaustive = min(
        served_slots(tuple(sorted(c)) + (max(lengths),))
        for k in range(3) for c in combinations(tail, k))
    assert best <= exhaustive            # the DP is exact
    # bimodal traffic must beat single full-width padding outright
    assert best < served_slots((max(lengths),))

    # 3 observed requests at B=8: one near-full batch at width 9
    # (72 slots) beats a per-length ladder (2 batches, 104 slots)
    few = BatchPolicy.from_observed([4, 4, 9], max_buckets=8)
    assert few.buckets == (9,)
    options = BatchPolicy.ladder_options([4, 4, 9], max_buckets=8)
    assert [o.buckets for o in options] == [(9,), (4, 9)]
    assert options[0].served_slots == 72
    assert options[1].served_slots == 104
    assert options[1].padded_tokens < options[0].padded_tokens
    assert options[0].fullness > options[1].fullness

    with pytest.raises(ValueError, match="positive lengths"):
        BatchPolicy.from_observed([])
    tuned = BatchPolicy.from_observed(lengths, max_buckets=2,
                                      max_batch_size=16)
    assert tuned.max_batch_size == 16    # kwargs shape the slot costs too


def test_batch_policy_from_observed_matches_brute_force():
    """Property test: on randomized small length sets the tuner's DP
    is exact — for every allowed bucket count its ladder serves the
    traffic in exactly the minimum ``served_slots`` over *all* ladders
    (brute-force enumeration of every subset of observed lengths with
    the maximum always included)."""
    from itertools import combinations

    from repro.serve import BatchPolicy

    def served_slots(buckets, lengths, size):
        slots, lower = 0, 0
        for width in buckets:
            count = sum(1 for n in lengths if lower < n <= width)
            slots += -(-count // size) * size * width
            lower = width
        return slots

    for seed in range(8):
        rng = np.random.default_rng(seed)
        lengths = rng.integers(1, 21,
                               size=int(rng.integers(1, 13))).tolist()
        max_buckets = int(rng.integers(1, 5))
        size = int(rng.choice([2, 4, 8]))
        top = max(lengths)
        tail = [u for u in sorted(set(lengths)) if u != top]

        best_by_count = {}          # bucket count -> brute-force optimum
        for k in range(min(max_buckets, len(tail) + 1)):
            best_by_count[k + 1] = min(
                served_slots(tuple(sorted(c)) + (top,), lengths, size)
                for c in combinations(tail, k))

        tuned = BatchPolicy.from_observed(lengths, max_buckets=max_buckets,
                                          max_batch_size=size)
        assert served_slots(tuned.buckets, lengths, size) \
            == min(best_by_count.values()), (seed, lengths, tuned.buckets)
        assert tuned.buckets[-1] == top

        options = BatchPolicy.ladder_options(lengths,
                                             max_buckets=max_buckets,
                                             max_batch_size=size)
        for option in options:
            assert option.served_slots \
                == served_slots(option.buckets, lengths, size)
            assert option.served_slots == best_by_count[len(option.buckets)]


def test_stream_queue_fifo_and_discard():
    """The batcher's stream admission queue pops FIFO by enqueue time
    (planner-driven), and discards waiting streams on early finish."""
    from repro.serve import BatchPolicy, DynamicBatcher
    from repro.serve.streams import StreamState

    batcher = DynamicBatcher(BatchPolicy(), pad_to=8)
    streams = [StreamState(stream_id=i, tokens=np.array([1]),
                           max_new_tokens=1, arrival=float(i))
               for i in range(5)]
    for stream in streams:
        batcher.add_stream(stream)
    assert batcher.stream_count() == 5
    first = batcher.pop_streams(2)
    assert [s.stream_id for s in first] == [0, 1]
    # a preempted stream re-enters at the back, behind earlier waiters
    batcher.add_stream(first[0])
    assert [s.stream_id for s in batcher.pop_streams(None)] \
        == [2, 3, 4, 0]
    batcher.add_stream(streams[1])
    assert batcher.discard_stream(1) and not batcher.discard_stream(9)
    assert batcher.stream_count() == 0


def test_async_concurrent_clients_coalesce():
    engine = make_classifier_engine(0)
    rng = np.random.default_rng(6)
    requests = [rng.integers(0, 50, size=int(n))
                for n in rng.integers(2, 25, size=6)]
    # solo references through the same stack
    from tests.test_serving import serve_classify
    solo, _ = serve_classify(engine, requests, max_batch_size=1)

    serving = ServingEngine(engine, BatchPolicy(max_batch_size=4,
                                                max_wait=0.01))

    async def main():
        async with AsyncServingEngine(serving) as front:
            return await asyncio.gather(
                *[front.submit(r) for r in requests])

    results = asyncio.run(main())
    for got, expected in zip(results, solo):
        np.testing.assert_array_equal(got.logits, expected.logits)
        assert got.prediction == expected.prediction
    assert serving.stats.max_batch_size >= 2   # coalescing happened
    assert serving.stats.completed == len(requests)


# ---------------------------------------------------------------------------
# per-bucket flush sizes
# ---------------------------------------------------------------------------

def test_batch_policy_per_bucket_sizes_pair_sort_and_lookup():
    """``bucket_batch_sizes`` pairs one flush size per ladder entry,
    stays paired when the ladder is sorted, and unknown buckets (the
    ``pad_to`` fallback) use the global ``max_batch_size``."""
    import pytest

    from repro.serve import BatchPolicy

    policy = BatchPolicy(max_batch_size=8, buckets=(16, 4),
                         bucket_batch_sizes=(2, 6))
    assert policy.buckets == (4, 16)
    assert policy.bucket_batch_sizes == (6, 2)
    assert policy.batch_size_for(4) == 6
    assert policy.batch_size_for(16) == 2
    assert policy.batch_size_for(32) == 8     # pad_to fallback bucket

    with pytest.raises(ValueError, match="bucket ladder"):
        BatchPolicy(bucket_batch_sizes=(2,))
    with pytest.raises(ValueError, match="one size per"):
        BatchPolicy(buckets=(4, 16), bucket_batch_sizes=(2,))
    with pytest.raises(ValueError, match=">= 1"):
        BatchPolicy(buckets=(4, 16), bucket_batch_sizes=(2, 0))
    with pytest.raises(ValueError, match="duplicate"):
        BatchPolicy(buckets=(4, 4), bucket_batch_sizes=(2, 3))


def test_dynamic_batcher_flushes_at_per_bucket_sizes():
    """A wide bucket with a small flush size goes due at its own
    threshold and pops at most that many, while narrow buckets keep
    coalescing to the global size."""
    from repro.serve import BatchPolicy, DynamicBatcher, QueuedRequest

    policy = BatchPolicy(max_batch_size=4, max_wait=100.0,
                         buckets=(4, 16), bucket_batch_sizes=(4, 2))
    batcher = DynamicBatcher(policy, pad_to=32)

    def queue(request_id, length, arrival):
        batcher.add(QueuedRequest(
            request_id, np.zeros(length, dtype=np.int64),
            np.ones(length, dtype=bool), arrival))

    queue(0, 3, 0.0)
    queue(1, 3, 0.1)
    queue(2, 10, 0.2)
    assert not batcher.ready(0.3)          # short 2/4, long 1/2
    queue(3, 12, 0.3)
    assert batcher.ready(0.3)              # long bucket hit its cap
    bucket, popped = batcher.pop(0.3)
    assert bucket == 16
    assert [r.request_id for r in popped] == [2, 3]
    assert not batcher.ready(0.4)          # shorts still below 4
    queue(4, 2, 0.4)
    queue(5, 4, 0.5)
    bucket, popped = batcher.pop(0.5)
    assert bucket == 4
    assert [r.request_id for r in popped] == [0, 1, 4, 5]


def test_from_observed_max_batch_tokens_derives_bucket_sizes():
    """``max_batch_tokens`` caps each bucket's flush at
    ``clamp(max_batch_tokens // width, 1, max_batch_size)`` so every
    flush moves roughly the same padded-token volume."""
    import pytest

    from repro.serve import BatchPolicy

    lengths = [4] * 8 + [16] * 8
    policy = BatchPolicy.from_observed(lengths, max_buckets=2,
                                       max_batch_tokens=32,
                                       max_batch_size=8)
    assert policy.buckets == (4, 16)
    assert policy.bucket_batch_sizes == (8, 2)
    assert policy.batch_size_for(4) * 4 <= 32
    assert policy.batch_size_for(16) * 16 <= 32

    floor = BatchPolicy.from_observed(lengths, max_buckets=2,
                                      max_batch_tokens=1)
    assert floor.bucket_batch_sizes == (1, 1)   # clamped up to 1

    untuned = BatchPolicy.from_observed(lengths, max_buckets=2)
    assert untuned.bucket_batch_sizes is None

    with pytest.raises(ValueError, match="max_batch_tokens"):
        BatchPolicy.from_observed(lengths, max_batch_tokens=0)


def test_serving_engine_respects_per_bucket_flush_size():
    """End to end: a wide bucket capped at 2 serves its requests in
    batches of 2 even though the global size is 4 — and stays
    bit-identical to solo serving."""
    from repro.serve import BatchPolicy

    clock = [0.0]
    serving = ServingEngine(
        make_classifier_engine(0),
        BatchPolicy(max_batch_size=4, max_wait=0.0, buckets=(4, 16),
                    bucket_batch_sizes=(4, 2)),
        clock=lambda: clock[0])
    rng = np.random.default_rng(3)
    inputs = [rng.integers(0, 50, size=10) for _ in range(4)]
    ids = [serving.submit(x) for x in inputs]
    serving.drain()
    solo = ServingEngine(make_classifier_engine(0),
                         BatchPolicy(max_batch_size=1, max_wait=0.0))
    for request_id, x in zip(ids, inputs):
        result = serving.finish(request_id)
        assert result.batch_sizes == [2]
        alone = solo.submit(x)
        solo.drain()
        expected = solo.finish(alone)
        assert result.prediction == expected.prediction
        np.testing.assert_array_equal(result.logits, expected.logits)
