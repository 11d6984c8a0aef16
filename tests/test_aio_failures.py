"""AsyncServingEngine failure fan-out pins.

Two distinct error paths reach awaiting clients and must stay
separate: a *scheduler-level* blanket failure (``step()`` itself
raises — a bug, not a model fault) fails every waiting future exactly
once and never kills the runner task; a *per-request* failure (a
contained forward fault surfacing through ``finish()``) reaches only
that request's future while its batch-mates complete normally.  The
deadline/cancellation paths ride the same fan-out."""

import asyncio

import numpy as np
import pytest

from repro.serve import (AsyncServingEngine, BatchPolicy,
                         DeadlineExceeded, Fault, FaultPlan,
                         InjectedKernelError, ServingEngine)
from tests.test_serving import make_classifier_engine, make_lm_engine


def make_async_core(max_batch_size=4, max_wait=0.003, generative=False,
                    **kwargs):
    engine = make_lm_engine(0) if generative else make_classifier_engine(0)
    return ServingEngine(
        engine, BatchPolicy(max_batch_size=max_batch_size,
                            max_wait=max_wait), **kwargs)


def test_blanket_scheduler_failure_fails_all_waiting_exactly_once():
    serving = make_async_core()
    boom = RuntimeError("scheduler bug")

    def broken_step(now=None):
        raise boom

    serving.step = broken_step

    async def main():
        async with AsyncServingEngine(serving) as front:
            results = await asyncio.gather(
                front.submit(np.arange(1, 4)),
                front.submit(np.arange(1, 5)),
                front.submit(np.arange(1, 6)),
                return_exceptions=True)
            return results, dict(front._futures)

    results, leftover = asyncio.run(main())
    # every waiting client saw the one scheduler error, exactly once
    assert all(result is boom for result in results)
    assert leftover == {}                # no future left dangling


def test_blanket_failure_with_live_streams_does_not_hang_close():
    serving = make_async_core(generative=True)
    original_step = serving.step
    state = {"calls": 0}

    def failing_after_prefill(now=None):
        state["calls"] += 1
        if state["calls"] >= 2:          # let prefill run, then break
            raise RuntimeError("scheduler died mid-decode")
        return original_step(now)

    serving.step = failing_after_prefill

    async def main():
        async with AsyncServingEngine(serving) as front:
            return await asyncio.gather(
                front.open_stream(np.arange(1, 5), 6),
                front.open_stream(np.arange(1, 4), 6),
                return_exceptions=True)

    results = asyncio.run(main())        # close() must not spin forever
    assert all(isinstance(result, RuntimeError) for result in results)


def test_per_request_failure_reaches_only_that_future():
    plan = FaultPlan([Fault(kind="forward", at=0)])
    serving = make_async_core(max_batch_size=1, faults=plan)

    async def main():
        async with AsyncServingEngine(serving) as front:
            return await asyncio.gather(
                front.submit(np.arange(1, 6)),
                front.submit(np.arange(1, 6)),
                front.submit(np.arange(1, 6)),
                return_exceptions=True)

    first, second, third = asyncio.run(main())
    # batch #0 (the first request, max_batch_size=1) hit the injected
    # fault; its batch-mates-in-spirit were separate batches and landed
    assert isinstance(first, InjectedKernelError)
    assert second.ok and third.ok
    assert second.prediction == third.prediction


def test_async_deadline_exceeded_raises_to_client():
    serving = make_async_core(max_wait=0.02)

    async def main():
        async with AsyncServingEngine(serving) as front:
            with pytest.raises(DeadlineExceeded):
                await front.submit(np.arange(1, 6), ttl=0.001)
            # the engine survives: later traffic completes normally
            return await front.submit(np.arange(1, 6))

    result = asyncio.run(main())
    assert result.ok
    assert serving.stats.expired == 1


def test_cancelling_awaiting_task_cancels_in_engine():
    serving = make_async_core(max_wait=0.05)

    async def main():
        async with AsyncServingEngine(serving) as front:
            task = asyncio.create_task(front.submit(np.arange(1, 6)))
            await asyncio.sleep(0.001)   # let it enqueue + register
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            # cancel() by id is also exposed on the front door
            request_id = serving.submit(np.arange(1, 4))
            assert front.cancel(request_id) is True
            return await front.submit(np.arange(1, 6))

    result = asyncio.run(main())
    assert result.ok
    assert serving.stats.cancelled == 2
    assert not serving.has_pending()
