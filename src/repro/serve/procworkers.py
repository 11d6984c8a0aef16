"""True multi-process serving: one engine replica per OS process.

``ProcessWorkerTier`` presents the exact
:class:`~repro.serve.workers.WorkerTier` surface — ``submit`` /
``open_stream`` / ``step`` / ``flush`` / ``drain`` / ``finish`` /
``cancel`` / ``stats_summary`` — but each replica's
:class:`~repro.serve.engine.ServingEngine` runs in its **own forked
process**, so N workers occupy N cores instead of time-slicing one
GIL.  The parent is a thin router over a length-prefixed binary
message protocol:

    frame     := 4-byte big-endian length | pickle(payload)
    requests  := ("submit", {...}) | ("open_stream", {...})   one-way
                 ("cancel", {...}) -> ("cancelled", bool)
                 ("finish", {...}) -> ("finished", ServeResult | exc)
                 ("step"|"flush", {now, seq}) -> ("stepped", {...})
                 ("shutdown", None) -> ("bye", None)

``step()`` round-trips **once per worker per step**: the parent sends
every live worker its step message first, then reads the replies —
workers compute their scheduler step concurrently while the parent
waits.  A step reply coalesces everything the parent needs — the
completed :class:`~repro.serve.engine.ServeResult` objects, the load
signals used for least-outstanding-tokens routing, the worker's
:class:`~repro.serve.engine.ServingStats`, a metrics snapshot, and a
trace-event delta — so there is no per-request chatter.

**Zero-copy snapshot sharing.**  Every worker rebuilds its
:class:`~repro.core.PrunedInferenceEngine` with
``from_directory(directory, mmap=True)``: the snapshot's weights are
expanded once into an ``.npy`` sidecar and each process maps the same
read-only pages, so N replicas share one physical copy of the model
in the page cache instead of N private heaps.

**Bit-identity.**  Workers pad, batch, and estimate hardware exactly
like a solo engine — outputs, masks, and hardware estimates depend
only on the request, never on the batch, the replica, or the process
boundary — so proc-tier replays are bit-identical per request to solo
reference runs (pinned by ``tests/test_procworkers.py``).

**Fault tolerance.**  Worker death (socket EOF, kill signal, step
timeout) routes through :class:`~repro.serve.health.EngineHealth` as
:meth:`~repro.serve.health.EngineHealth.mark_dead`, and the dead
worker's in-flight requests are resubmitted to the survivors with
their original arrival stamps and deadlines — bit-identity makes the
reroute invisible in the results.  With no survivors the requests
terminate fast with typed ``engine_error`` results, never stall.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import socket
import struct
import time
from dataclasses import replace

import numpy as np

from ..core.engine import ensure_mmap_weights
from ..obs.metrics import as_registry
from ..obs.tracing import as_tracer
from .batcher import BatchPolicy
from .engine import (REASON_ERROR, RequestTiming, ServeResult,
                     ServingEngine, ServingStats)
from .health import EngineHealth, HealthPolicy
from .workers import tier_rollup

__all__ = ["ProcessWorkerTier", "WorkerDied"]

_HEADER = struct.Struct(">I")


class WorkerDied(ConnectionError):
    """The worker process behind a socket is gone (EOF, crash, or
    step timeout); the tier quarantines it and reroutes its work."""


# -- framing ------------------------------------------------------------
def _send(sock: socket.socket, message) -> None:
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    try:
        sock.sendall(_HEADER.pack(len(payload)) + payload)
    except OSError as error:
        raise WorkerDied(f"send failed: {error}") from error


def _read_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    while n > 0:
        try:
            chunk = sock.recv(min(n, 1 << 20))
        except socket.timeout as error:
            raise WorkerDied("reply timed out") from error
        except OSError as error:
            raise WorkerDied(f"recv failed: {error}") from error
        if not chunk:
            raise WorkerDied("socket closed")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def _recv(sock: socket.socket):
    (length,) = _HEADER.unpack(_read_exact(sock, _HEADER.size))
    return pickle.loads(_read_exact(sock, length))


class _SettableClock:
    """Worker-side engine clock slaved to the parent's: every message
    carries the parent clock's ``now`` and the worker pins its clock
    to it before dispatching, so arrival stamps, deadlines, and
    timings live in one shared timebase — and virtual-clock replays
    stay exactly reproducible across the process boundary."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def __call__(self) -> float:
        return self.value


# -- worker process -----------------------------------------------------
def _worker_main(sock: socket.socket, directory: str, index: int,
                 spec: dict) -> None:
    """Worker process entry: build one engine from the shared snapshot,
    then serve protocol messages until shutdown.  Exits hard with
    ``os._exit`` so a forked pytest process never runs the parent's
    teardown machinery."""
    try:
        from ..core import PrunedInferenceEngine
        from ..obs.metrics import MetricsRegistry
        from ..obs.tracing import TraceRecorder

        clock = _SettableClock()
        registry = MetricsRegistry() if spec["metrics"] else None
        tracer = TraceRecorder() if spec["trace"] else None
        core = PrunedInferenceEngine.from_directory(
            directory, mmap=spec["mmap"])
        engine = ServingEngine(core, policy=spec["policy"], clock=clock,
                               slo=spec["slo"], name=f"worker{index}",
                               registry=registry, tracer=tracer,
                               **spec["engine_kwargs"])
        _send(sock, ("ready", {
            "pad_to": engine._pad_to,
            "capacity": engine._capacity,
            "prefill_width": engine._prefill_width,
            "decode": hasattr(engine.engine.model, "decode_step"),
        }))
        idmap: dict[int, int] = {}     # engine id -> tier id
        inner: dict[int, int] = {}     # tier id -> engine id
        extra: list = []               # synthesized failure results
        traced = 0                     # trace events already shipped

        while True:
            op, payload = _recv(sock)
            if op == "shutdown":
                _send(sock, ("bye", None))
                return
            clock.value = payload["now"]
            if op == "submit":
                tier_id = payload["tier_id"]
                try:
                    eid = engine.submit(
                        payload["inputs"], payload["mask"],
                        now=payload["now"],
                        deadline=payload["deadline"])
                    idmap[eid] = tier_id
                    inner[tier_id] = eid
                except Exception as error:     # noqa: BLE001 — shipped
                    extra.append((tier_id, ServeResult(
                        request_id=tier_id, kind="classify",
                        logits=np.zeros(0), error=error,
                        reason=REASON_ERROR,
                        timing=RequestTiming(arrival=payload["now"],
                                             finished=payload["now"]))))
            elif op == "open_stream":
                tier_id = payload["tier_id"]
                try:
                    eid = engine.open_stream(
                        payload["prompt"], payload["max_new_tokens"],
                        now=payload["now"],
                        deadline=payload["deadline"])
                    idmap[eid] = tier_id
                    inner[tier_id] = eid
                except Exception as error:     # noqa: BLE001 — shipped
                    extra.append((tier_id, ServeResult(
                        request_id=tier_id, kind="generate",
                        logits=np.zeros(0), error=error,
                        reason=REASON_ERROR,
                        timing=RequestTiming(arrival=payload["now"],
                                             finished=payload["now"]))))
            elif op == "cancel":
                eid = inner.get(payload["tier_id"])
                _send(sock, ("cancelled",
                             False if eid is None
                             else engine.cancel(eid)))
            elif op == "finish":
                eid = inner.get(payload["tier_id"])
                if eid is None:
                    _send(sock, ("finished", KeyError(
                        f"unknown request {payload['tier_id']}")))
                else:
                    try:
                        result = engine.collect(eid)
                    except Exception as error:  # noqa: BLE001 — shipped
                        _send(sock, ("finished", error))
                    else:
                        del idmap[eid], inner[payload["tier_id"]]
                        result.request_id = payload["tier_id"]
                        _send(sock, ("finished", result))
            elif op in ("step", "flush"):
                if op == "step":
                    done = engine.step(payload["now"])
                else:
                    done = engine.flush()
                completed, extra = extra, []
                for eid in done:
                    tid = idmap.pop(eid, None)
                    if tid is None:
                        continue
                    del inner[tid]
                    result = engine.collect(eid)
                    # re-badge into the tier-global id space before
                    # shipping: the parent never sees engine ids
                    result.request_id = tid
                    completed.append((tid, result))
                reply = {
                    "seq": payload["seq"],
                    "completed": completed,
                    "outstanding_tokens": engine.outstanding_tokens(),
                    "kv_slots_in_use": engine.kv_slots_in_use(),
                    "queue_depth": engine.queue_depth(),
                    "has_pending": engine.has_pending(),
                    "next_deadline": engine.next_deadline(),
                    "queue_ready": engine.queue_ready(payload["now"]),
                    "last_step_errors": engine.last_step_errors,
                    "stats": engine.stats,
                }
                if registry is not None:
                    reply["metrics"] = registry.snapshot()
                if tracer is not None:
                    reply["trace"] = tracer.events[traced:]
                    traced = len(tracer.events)
                _send(sock, ("stepped", reply))
            else:
                raise ValueError(f"unknown op {op!r}")
    except (WorkerDied, KeyboardInterrupt):
        os._exit(1)
    except BaseException as error:             # noqa: BLE001 — last words
        try:
            _send(sock, ("fatal", f"{type(error).__name__}: {error}"))
        except Exception:                      # noqa: BLE001
            pass
        os._exit(1)
    finally:
        os._exit(0)


# -- parent tier --------------------------------------------------------
class ProcessWorkerTier:
    """N shared-nothing engine replicas, one OS process each, behind
    the :class:`~repro.serve.workers.WorkerTier` surface."""

    def __init__(self, directory: str, procs: int,
                 policy: BatchPolicy | None = None,
                 clock=time.monotonic, mmap: bool = True,
                 health: HealthPolicy | None = None,
                 step_timeout: float = 60.0,
                 registry=None, tracer=None, **engine_kwargs):
        if procs < 1:
            raise ValueError("procs must be >= 1")
        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError("ProcessWorkerTier needs fork() "
                               "(POSIX only)")
        self._clock = clock
        self._registry = as_registry(registry)
        self._tracer = as_tracer(tracer)
        self._m_deaths = self._registry.counter(
            "repro_proc_worker_deaths_total",
            "worker processes lost (EOF, crash, or step timeout)")
        self._m_rerouted = self._registry.counter(
            "repro_proc_reroutes_total",
            "in-flight requests resubmitted off a dead worker")
        slo = engine_kwargs.pop("slo", None)
        engine_kwargs.pop("name", None)
        self._routes: dict[int, int] = {}      # tier id -> worker index
        self._payloads: dict[int, dict] = {}   # in-flight, for reroute
        self._results: dict[int, ServeResult] = {}
        self._instant: list[int] = []          # minted here, unreported
        self._next_id = 0
        self._seq = 0
        self._est: dict[int, int] = {}         # outstanding-token est.
        self._state: dict[int, dict] = {}      # last step reply
        self._trace_maps: dict[int, dict] = {} # worker pid remap tables
        self._dirty: set[int] = set()          # sends since last step
        self.health = {i: EngineHealth(health) for i in range(procs)}
        self._socks: dict[int, socket.socket] = {}
        self._procs: dict[int, multiprocessing.process.BaseProcess] = {}
        if mmap:
            # expand the weight sidecar once, before any fork, so the
            # workers only ever open a published sidecar
            ensure_mmap_weights(directory)
        ctx = multiprocessing.get_context("fork")
        try:
            for index in range(procs):
                spec = {
                    "policy": policy,
                    "mmap": mmap,
                    "metrics": self._registry.enabled,
                    "trace": self._tracer.enabled,
                    "engine_kwargs": engine_kwargs,
                    # one SLOAdmission copy per worker, like WorkerTier,
                    # so EWMA refinement stays per-replica
                    "slo": replace(slo) if slo is not None else None,
                }
                parent_sock, child_sock = socket.socketpair()
                proc = ctx.Process(
                    target=_worker_main,
                    args=(child_sock, directory, index, spec),
                    daemon=True)
                proc.start()
                # close our copy of the child end *now*: once every
                # parent-side dup is gone, a dead worker reads as EOF
                # (and later forks never inherit this worker's end)
                child_sock.close()
                parent_sock.settimeout(step_timeout)
                self._socks[index] = parent_sock
                self._procs[index] = proc
                self._est[index] = 0
            for index in range(procs):
                kind, info = _recv(self._socks[index])
                if kind != "ready":
                    raise RuntimeError(
                        f"worker{index} failed to start: {info}")
                if index == 0:
                    self._pad_to = info["pad_to"]
                    self._capacity = info["capacity"]
                    self._prefill_width = info["prefill_width"]
                    self._decode = info["decode"]
        except BaseException:
            self.close()
            raise

    @classmethod
    def from_snapshot(cls, directory: str, replicas: int,
                      policy: BatchPolicy | None = None,
                      clock=time.monotonic, mmap: bool = True,
                      **engine_kwargs) -> "ProcessWorkerTier":
        """:meth:`WorkerTier.from_snapshot` parity — same signature,
        same semantics, but ``replicas`` worker *processes*."""
        registry = engine_kwargs.pop("registry", None)
        tracer = engine_kwargs.pop("tracer", None)
        return cls(directory, procs=replicas, policy=policy,
                   clock=clock, mmap=mmap, registry=registry,
                   tracer=tracer, **engine_kwargs)

    # -- routing --------------------------------------------------------
    def _live(self) -> list[int]:
        return [i for i in sorted(self._socks)
                if not self.health[i].quarantined]

    def pick_worker(self) -> int:
        """Deterministic least-loaded routing over the live workers:
        fewest estimated outstanding tokens, lowest index breaking
        ties.  The estimate is resynced from every step reply and
        bumped locally per submission, so between steps it tracks the
        in-process tier's live signal exactly (shed-free traces route
        identically)."""
        live = self._live()
        if not live:
            raise WorkerDied("no live workers")
        return min(live, key=lambda i: (self._est[i], i))

    @staticmethod
    def _resolve_deadline(now, deadline, ttl):
        # mirrors ServingEngine._resolve_deadline so validation errors
        # raise synchronously in the caller, not async in a worker
        if deadline is not None and ttl is not None:
            raise ValueError("pass deadline= or ttl=, not both")
        if ttl is not None:
            if ttl <= 0:
                raise ValueError("ttl must be > 0 seconds")
            return now + ttl
        return deadline

    def _track(self, worker: int, payload: dict) -> int:
        tier_id = self._next_id
        self._next_id += 1
        self._payloads[tier_id] = payload
        self._dispatch(worker, tier_id, payload)
        return tier_id

    def _dispatch(self, worker: int, tier_id: int,
                  payload: dict) -> list[int]:
        """Send one submission to ``worker``; on a dead socket the
        failure path reroutes it (and everything else in flight there)
        to the survivors.  Returns any ids terminated by the failure
        handling (no-survivor fast-fails)."""
        self._routes[tier_id] = worker
        message = dict(payload["message"])
        message["tier_id"] = tier_id
        self._est[worker] += payload["tokens"]
        self._dirty.add(worker)
        try:
            _send(self._socks[worker], (payload["op"], message))
        except WorkerDied as error:
            return self._worker_failed(worker, error,
                                       self._clock())
        return []

    def submit(self, inputs: np.ndarray, mask: np.ndarray | None = None,
               now: float | None = None, deadline: float | None = None,
               ttl: float | None = None) -> int:
        inputs = np.asarray(inputs)
        # pre-validate against the handshake so bad requests raise
        # here, synchronously, exactly like the in-process tier
        if inputs.ndim not in (1, 2):
            raise ValueError("submit takes one sequence per request: "
                             f"(L,) or (L, D), got shape {inputs.shape}")
        if not 0 < inputs.shape[0] <= self._pad_to:
            raise ValueError(f"request length {inputs.shape[0]} outside "
                             f"[1, {self._pad_to}]")
        mask = (np.ones(inputs.shape[0], dtype=bool) if mask is None
                else np.asarray(mask, dtype=bool))
        now = self._clock() if now is None else now
        deadline = self._resolve_deadline(now, deadline, ttl)
        return self._track(self.pick_worker(), {
            "op": "submit", "kind": "classify", "arrival": now,
            "deadline": deadline, "tokens": int(inputs.shape[0]),
            "message": {"inputs": inputs, "mask": mask, "now": now,
                        "deadline": deadline},
        })

    def open_stream(self, prompt: np.ndarray, max_new_tokens: int,
                    now: float | None = None,
                    deadline: float | None = None,
                    ttl: float | None = None) -> int:
        if not self._decode:
            raise TypeError("model does not support incremental decode; "
                            "open_stream needs a causal LM")
        if max_new_tokens < 1:
            raise ValueError("max_new_tokens must be >= 1")
        prompt = np.asarray(prompt, dtype=np.int64).reshape(-1)
        limit = min(self._prefill_width, self._capacity - 1)
        if prompt.size == 0 or prompt.size > limit:
            raise ValueError(f"prompt length must be in [1, {limit}]")
        now = self._clock() if now is None else now
        deadline = self._resolve_deadline(now, deadline, ttl)
        return self._track(self.pick_worker(), {
            "op": "open_stream", "kind": "generate", "arrival": now,
            "deadline": deadline,
            "tokens": int(prompt.size) + int(max_new_tokens),
            "message": {"prompt": prompt,
                        "max_new_tokens": max_new_tokens,
                        "now": now, "deadline": deadline},
        })

    # -- worker failure -------------------------------------------------
    def _worker_failed(self, index: int, error: Exception,
                       now: float) -> list[int]:
        """A worker is gone: open its breaker, reap the process, and
        resubmit its in-flight requests to the survivors (original
        arrival stamps and deadlines — bit-identity makes the reroute
        invisible).  With no survivors the orphans terminate *now*
        with typed ``engine_error`` results.  Returns ids terminated
        here."""
        if self.health[index].quarantined:
            return []
        self.health[index].mark_dead(now, error)
        self._m_deaths.inc()
        sock = self._socks.pop(index, None)
        if sock is not None:
            sock.close()
        proc = self._procs.get(index)
        if proc is not None:
            proc.join(timeout=1.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=1.0)
        self._est.pop(index, None)
        self._dirty.discard(index)
        orphans = sorted(tid for tid, w in self._routes.items()
                         if w == index)
        completed: list[int] = []
        for tier_id in orphans:
            del self._routes[tier_id]
            payload = self._payloads.get(tier_id)
            if payload is None:
                continue
            live = self._live()
            if not live:
                del self._payloads[tier_id]
                self._results[tier_id] = ServeResult(
                    request_id=tier_id, kind=payload["kind"],
                    logits=np.zeros(0),
                    error=WorkerDied(
                        f"worker{index} died with no survivors: "
                        f"{error}"),
                    reason=REASON_ERROR,
                    timing=RequestTiming(arrival=payload["arrival"],
                                         finished=now))
                completed.append(tier_id)
                continue
            self._m_rerouted.inc()
            target = min(live, key=lambda i: (self._est[i], i))
            completed += self._dispatch(target, tier_id, payload)
        return completed

    # -- advancing ------------------------------------------------------
    def _round_trip(self, op: str, now: float) -> list[int]:
        """One ``step``/``flush`` fan-out: send every live worker its
        message first, then read the replies — the workers overlap
        their scheduler steps while the parent waits.  Returns tier
        ids completed this round (worker order, deterministic)."""
        self._seq += 1
        pending, self._instant = self._instant, []
        # ids finished by the caller before we reported them drop out,
        # exactly like WorkerTier's _completed_ids route filter
        completed = [tid for tid in pending if tid in self._results]
        message = (op, {"now": now, "seq": self._seq})
        sent = []
        for index in self._live():
            try:
                _send(self._socks[index], message)
            except WorkerDied as error:
                completed += self._worker_failed(index, error, now)
            else:
                sent.append(index)
        for index in sent:
            if self.health[index].quarantined:
                continue               # died while serving another reply
            try:
                kind, reply = _recv(self._socks[index])
                if kind == "fatal":
                    raise WorkerDied(f"worker{index}: {reply}")
                if kind != "stepped" or reply["seq"] != self._seq:
                    raise WorkerDied(
                        f"worker{index}: protocol desync ({kind!r})")
            except WorkerDied as error:
                completed += self._worker_failed(index, error, now)
                continue
            for tier_id, result in reply["completed"]:
                self._results[tier_id] = result
                self._routes.pop(tier_id, None)
                self._payloads.pop(tier_id, None)
                completed.append(tier_id)
            self._est[index] = reply["outstanding_tokens"]
            self._state[index] = reply
            self._dirty.discard(index)
            if self._registry.enabled and "metrics" in reply:
                self._registry.merge_snapshot(reply["metrics"])
            if self._tracer.enabled and "trace" in reply:
                self._trace_maps[index] = self._tracer.merge_events(
                    reply["trace"], self._trace_maps.get(index))
        return completed

    def step(self, now: float | None = None) -> list[int]:
        now = self._clock() if now is None else now
        return self._round_trip("step", now)

    def flush(self) -> list[int]:
        return self._round_trip("flush", self._clock())

    def drain(self) -> list[int]:
        completed = self.flush()
        while self.has_pending():
            completed += self.step()
        return completed

    # -- queue introspection (same surface as WorkerTier) ---------------
    def next_deadline(self) -> float | None:
        deadlines = [p["deadline"] for p in self._payloads.values()
                     if p["deadline"] is not None]
        return min(deadlines) if deadlines else None

    def queue_ready(self, now: float) -> bool:
        # conservative: new submissions since the last reply may be
        # due, else trust each worker's last self-report
        return bool(self._dirty) or any(
            self._state.get(i, {}).get("queue_ready", False)
            for i in self._live())

    def has_pending(self) -> bool:
        return bool(self._payloads) or bool(self._instant)

    def kv_slots_in_use(self) -> int:
        return sum(self._state.get(i, {}).get("kv_slots_in_use", 0)
                   for i in self._live())

    def outstanding_tokens(self) -> int:
        return sum(self._est[i] for i in self._live())

    def queue_depth(self) -> int:
        return sum(self._state.get(i, {}).get("queue_depth", 0)
                   for i in self._live())

    # -- completion -----------------------------------------------------
    def cancel(self, request_id: int) -> bool:
        if request_id in self._results:
            return False
        worker = self._routes.get(request_id)
        if worker is None:
            raise KeyError(f"unknown request {request_id}")
        try:
            _send(self._socks[worker],
                  ("cancel", {"tier_id": request_id,
                              "now": self._clock()}))
            kind, ok = _recv(self._socks[worker])
            if kind != "cancelled":
                raise WorkerDied(f"worker{worker}: protocol desync")
        except WorkerDied as error:
            self._instant += self._worker_failed(worker, error,
                                                 self._clock())
            return self.cancel(request_id)   # follow the reroute
        return ok

    def result(self, request_id: int) -> ServeResult | None:
        return self._results.get(request_id)

    def finish(self, request_id: int) -> ServeResult:
        if request_id in self._results:
            result = self._results.pop(request_id)
            self._routes.pop(request_id, None)
            self._payloads.pop(request_id, None)
            if result.error is not None:
                raise result.error
            return result
        worker = self._routes.get(request_id)
        if worker is None:
            raise KeyError(f"unknown request {request_id}")
        try:
            _send(self._socks[worker],
                  ("finish", {"tier_id": request_id,
                              "now": self._clock()}))
            kind, reply = _recv(self._socks[worker])
            if kind != "finished":
                raise WorkerDied(f"worker{worker}: protocol desync")
        except WorkerDied as error:
            self._instant += self._worker_failed(worker, error,
                                                 self._clock())
            return self.finish(request_id)   # follow the reroute
        self._routes.pop(request_id, None)
        self._payloads.pop(request_id, None)
        if isinstance(reply, Exception):
            raise reply
        if reply.error is not None:
            raise reply.error
        return reply

    # -- observability --------------------------------------------------
    @property
    def workers(self) -> list[int]:
        """Live worker indexes (surface parity helper for ``len``)."""
        return self._live()

    @property
    def stats(self) -> dict[str, ServingStats]:
        """Last :class:`ServingStats` each worker shipped (empty stats
        before its first step reply; dead workers keep their last)."""
        return {f"worker{i}": self._state.get(i, {}).get(
                    "stats", ServingStats())
                for i in sorted(self.health)}

    def stats_summary(self) -> dict[str, dict]:
        """Same rollup shape as :meth:`WorkerTier.stats_summary`, from
        each worker's last step reply; a dead worker keeps its last
        reported numbers under ``health: "quarantined"``."""
        rows = {}
        for index in sorted(self.health):
            state = self._state.get(index, {})
            stats = state.get("stats", ServingStats())
            if self.health[index].quarantined:
                health = "quarantined"
            else:
                health = "erroring" if stats.errors else "ok"
            rows[f"worker{index}"] = {
                "health": health,
                "completed": stats.completed,
                "reasons": dict(stats.reasons),
                "shed": stats.shed,
                "errors": stats.errors,
                "retries": stats.retries,
                "preemptions": stats.preemptions,
                "outstanding_tokens": state.get("outstanding_tokens", 0),
                "kv_slots_in_use": state.get("kv_slots_in_use", 0),
                "queue_depth": state.get("queue_depth", 0),
            }
        return tier_rollup(rows)

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Shut every worker down cleanly (best-effort ``shutdown`` /
        ``bye`` round-trip, then join; a worker that won't exit is
        killed).  Idempotent."""
        for index in sorted(self._socks):
            sock = self._socks[index]
            try:
                _send(sock, ("shutdown", None))
                _recv(sock)
            except Exception:                  # noqa: BLE001
                pass
            sock.close()
        self._socks.clear()
        for proc in self._procs.values():
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=2.0)
        self._procs.clear()

    def __enter__(self) -> "ProcessWorkerTier":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):
        try:
            self.close()
        except Exception:                      # noqa: BLE001
            pass
