"""Awaitable front door over the synchronous serving core.

Concurrent clients ``await submit(...)``; a single runner task watches
the arrival queue and steps the core whenever a batch fills or the
oldest request's ``max_wait`` deadline passes — so requests from
independent coroutines coalesce into shared batches.

The core may be a single :class:`~repro.serve.engine.ServingEngine`
or a replica tier (:class:`~repro.serve.workers.WorkerTier`
in-process, :class:`~repro.serve.procworkers.ProcessWorkerTier` over
worker processes) — both expose the same submit/step/finish surface,
plus the ``streams_pending()`` probe the runner keeps stepping on;
with a tier each request lands on the least-loaded replica, while
every queue is driven by the one runner task.  One front door serves
one model: several models take one front door each.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np

from .engine import ServeResult


class AsyncServingEngine:
    """asyncio wrapper: ``async with AsyncServingEngine(core) as s: ...``

    ``registry`` opts into the Prometheus front door:
    :meth:`serve_metrics` mounts a ``GET /metrics`` endpoint on the
    same event loop (the registry the core engines publish into is
    usually the one passed here, but any registry works)."""

    def __init__(self, serving, clock=time.monotonic, registry=None):
        self._serving = serving
        self._clock = clock
        self._registry = registry
        self._metrics_endpoint = None
        self._futures: dict[int, asyncio.Future] = {}
        self._wake: asyncio.Event | None = None
        self._task: asyncio.Task | None = None
        self._closed = False
        self._broken = False

    async def __aenter__(self) -> "AsyncServingEngine":
        self._wake = asyncio.Event()
        self._task = asyncio.get_running_loop().create_task(self._run())
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    async def serve_metrics(self, host: str = "127.0.0.1",
                            port: int = 0):
        """Mount the Prometheus-text exposition endpoint next to the
        front door; returns the started
        :class:`~repro.obs.http.MetricsEndpoint` (its ``.port`` is the
        bound port — handy with ``port=0``).  Stopped by
        :meth:`close`."""
        if self._registry is None:
            raise ValueError("AsyncServingEngine needs registry= to "
                             "serve /metrics")
        from ..obs.http import MetricsEndpoint
        self._metrics_endpoint = MetricsEndpoint(self._registry,
                                                 host=host, port=port)
        await self._metrics_endpoint.start()
        return self._metrics_endpoint

    async def close(self) -> None:
        self._closed = True
        if self._wake is not None:
            self._wake.set()
        if self._task is not None:
            await self._task
            self._task = None
        if self._metrics_endpoint is not None:
            await self._metrics_endpoint.stop()
            self._metrics_endpoint = None
        for future in self._futures.values():
            if not future.done():
                future.cancel()
        self._futures.clear()

    async def _await_result(self, request_id: int) -> ServeResult:
        """Wait for a request's fan-out; cancelling the awaiting task
        cancels the request inside the core (its queue entries and KV
        state are released, and the terminal result is typed
        ``cancelled``)."""
        future = asyncio.get_running_loop().create_future()
        self._futures[request_id] = future
        self._wake.set()
        try:
            return await future
        except asyncio.CancelledError:
            self._futures.pop(request_id, None)
            try:
                self._serving.cancel(request_id)
            except KeyError:
                pass
            self._wake.set()
            raise

    async def submit(self, inputs: np.ndarray,
                     mask: np.ndarray | None = None,
                     deadline: float | None = None,
                     ttl: float | None = None) -> ServeResult:
        """Queue one request and wait for its result; requests from
        concurrent tasks are dynamically batched together.
        ``deadline``/``ttl`` bound its lifetime (a missed deadline
        raises ``DeadlineExceeded`` here)."""
        if self._task is None:
            raise RuntimeError("engine not started; use 'async with'")
        request_id = self._serving.submit(inputs, mask, deadline=deadline,
                                          ttl=ttl)
        return await self._await_result(request_id)

    async def open_stream(self, prompt: np.ndarray, max_new_tokens: int,
                          deadline: float | None = None,
                          ttl: float | None = None) -> ServeResult:
        """Open a generation stream and wait for its full result."""
        if self._task is None:
            raise RuntimeError("engine not started; use 'async with'")
        request_id = self._serving.open_stream(
            prompt, max_new_tokens, deadline=deadline, ttl=ttl)
        return await self._await_result(request_id)

    def cancel(self, request_id: int) -> bool:
        """Cancel a pending request by id (False if already terminal);
        its awaiting client receives ``RequestCancelled``."""
        cancelled = self._serving.cancel(request_id)
        if self._wake is not None:
            self._wake.set()
        return cancelled

    def _stream_pending(self) -> bool:
        if self._broken:
            # a scheduler-level failure already failed every waiting
            # client; stepping the same broken streams again would
            # spin (or hang close()) forever
            return False
        return self._serving.streams_pending()

    async def _run(self) -> None:
        while not self._closed:
            now = self._clock()
            if self._serving.queue_ready(now) or self._stream_pending():
                self._step(lambda: self._serving.step(now))
                # a decode/prefill step is real work; yield so clients
                # can enqueue between steps instead of blocking the loop
                await asyncio.sleep(0)
                continue
            deadline = self._serving.next_deadline()
            try:
                if deadline is None:
                    await self._wake.wait()
                else:
                    await asyncio.wait_for(self._wake.wait(),
                                           max(deadline - now, 0.0))
            except asyncio.TimeoutError:
                pass
            self._wake.clear()
        # serve whatever is still queued before shutting down
        self._step(self._serving.flush)
        while self._stream_pending():
            self._step(self._serving.step)

    def _step(self, advance) -> None:
        """Advance the core engine; a serve-time error must fail the
        waiting clients, never silently kill the runner task.  Batch
        errors are contained per request by the core, so the blanket
        except only fires on scheduler-level bugs."""
        try:
            completed = advance()
        except Exception as error:       # noqa: BLE001 — fanned out
            # stream errors are not contained per request the way
            # classify batch errors are, so a failure here may leave
            # live streams that can never finish — stop stepping them
            if self._stream_pending():
                self._broken = True
            for future in self._futures.values():
                if not future.done():
                    future.set_exception(error)
            self._futures.clear()
            return
        for request_id in completed:
            future = self._futures.pop(request_id, None)
            try:
                # always collect, even with no waiting future (client
                # cancelled, or a blanket failure cleared it): finish()
                # releases the engine-side result state
                result = self._serving.finish(request_id)
            except Exception as error:   # noqa: BLE001 — per-request
                if future is not None and not future.done():
                    future.set_exception(error)
                continue
            if future is not None and not future.done():
                future.set_result(result)
