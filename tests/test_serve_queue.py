"""Property-style serving queue tests: the wait-bound flush (no
starvation), FIFO pops, KV-slot release on completion/finish, and
schedule-independent results — all driven by a virtual clock."""

import asyncio

import numpy as np
import pytest

from repro.serve import AsyncServingEngine, BatchPolicy, ServingEngine, \
    WorkerTier
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


@pytest.mark.parametrize("front", ["engine", "tier"])
def test_malformed_request_rejected_at_submit_among_good_ones(front,
                                                              tmp_path):
    """A malformed request — a mask of the wrong length, a 2-D input to
    a token model, a token id outside ``[0, vocab_size)`` — raises
    ``ValueError`` at submit on the engine and on the tier (which
    checks against the handshake's model config), and the good
    requests around it all finish ok instead of failing as one
    ``engine_error`` batch."""
    def serve(core, name):
        policy = BatchPolicy(max_batch_size=8, max_wait=0.0)
        if front == "engine":
            return ServingEngine(core, policy)
        core.save(str(tmp_path / name))
        return WorkerTier.from_snapshot(str(tmp_path / name), replicas=1,
                                        policy=policy)

    rng = np.random.default_rng(8)
    classifier = serve(make_classifier_engine(0), "classifier")  # vocab 50
    ids = [classifier.submit(rng.integers(0, 50, size=5))]
    for inputs, mask in [(np.arange(5), np.ones(4, dtype=bool)),
                         (np.zeros((5, 3), dtype=np.int64), None),
                         (np.array([1, 50, 2]), None),
                         (np.array([1, -1, 2]), None),
                         (np.array([1.0, 2.0]), None)]:
        with pytest.raises(ValueError):
            classifier.submit(inputs, mask)
        ids.append(classifier.submit(rng.integers(0, 50, size=7)))
    classifier.drain()
    assert all(classifier.finish(i).ok for i in ids)

    lm = serve(make_lm_engine(0), "lm")                           # vocab 40
    ids = [lm.open_stream(rng.integers(0, 40, size=4), 3)]
    for prompt in (np.array([3, 40]), np.array([-1, 3])):
        with pytest.raises(ValueError, match="token ids"):
            lm.open_stream(prompt, 3)
        ids.append(lm.open_stream(rng.integers(0, 40, size=6), 3))
    lm.drain()
    assert all(lm.finish(i).ok for i in ids)


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


def test_stream_queue_fifo_and_discard():
    """The batcher's stream admission queue pops FIFO by enqueue time
    (planner-driven), and discards waiting streams on early finish."""
    from repro.serve import BatchPolicy, DynamicBatcher
    from repro.serve.streams import StreamState

    batcher = DynamicBatcher(BatchPolicy(), max_len=8)
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
# the pad-width ladder
# ---------------------------------------------------------------------------

def test_pad_width_ladder_boundaries():
    """A request pads to the smallest multiple of 16 positions that
    holds it, capped at the model's max_seq_len."""
    from repro.serve.batcher import PAD_STEP, pad_width

    assert PAD_STEP == 16
    assert pad_width(1, 64) == 16
    assert pad_width(16, 64) == 16
    assert pad_width(17, 64) == 32
    assert [pad_width(n, 64) for n in (32, 33, 48, 49, 64)] \
        == [32, 48, 48, 64, 64]
    assert pad_width(16, 24) == 16
    assert pad_width(17, 24) == 24         # capped at max_seq_len 24
    assert pad_width(24, 24) == 24


def test_dynamic_batcher_flushes_oldest_due_width_first():
    """Requests queue per pad width and a queue is due once it holds
    ``max_batch_size`` requests or its oldest has waited ``max_wait``.
    The due queue holding the oldest request pops first, even ahead of
    a full one; a pop without a clock (flush, drain) takes the oldest
    queue whether it is due or not."""
    from repro.serve import BatchPolicy, DynamicBatcher, QueuedRequest

    batcher = DynamicBatcher(BatchPolicy(max_batch_size=2, max_wait=1.0),
                             max_len=64)

    def queue(request_id, length, arrival):
        batcher.add(QueuedRequest(
            request_id, np.zeros(length, dtype=np.int64),
            np.ones(length, dtype=bool), arrival))

    def pop(now=None):
        width, requests = batcher.pop(now)
        return width, [r.request_id for r in requests]

    queue(0, 3, 0.0)                       # width 16
    queue(1, 40, 0.2)                      # width 48
    queue(2, 20, 0.5)                      # width 32
    assert not batcher.ready(0.5)          # nothing full, nothing old
    queue(3, 30, 1.1)                      # width 32 is now full
    assert batcher.ready(1.1)
    assert pop(1.1) == (16, [0])           # due since 1.0, and oldest
    assert pop(1.1) == (32, [2, 3])        # full
    assert not batcher.ready(1.1)          # width 48 waits until 1.2
    assert batcher.ready(1.2)
    assert pop(1.2) == (48, [1])
    queue(4, 50, 2.0)                      # width 64
    queue(5, 20, 2.1)                      # width 32
    queue(6, 5, 2.2)                       # width 16
    assert not batcher.ready(2.2)
    assert pop() == (64, [4])              # no clock: oldest, not due
    assert pop(3.5) == (32, [5])           # oldest head, not oldest queue
    assert pop(3.5) == (16, [6])
    assert len(batcher) == 0
