"""The replica tier: one model snapshot served by N engine replicas.

``ProcessWorkerTier`` puts N shared-nothing replicas — each a
:class:`~repro.serve.engine.ServingEngine` rebuilt from the same saved
snapshot — behind the engine surface: ``submit`` / ``open_stream`` /
``step`` / ``flush`` / ``drain`` / ``finish`` / ``cancel`` /
``stats_summary``.  The tier alone owns routing, the tier-global
request ids, result plumbing, worker-failure handling and the stats
rollup.  Each replica runs the worker side of one message protocol
(:class:`_Worker`), and the tier reaches it through a *link*:

* a socket link (``ProcessWorkerTier``): the worker runs in its **own
  forked process**, so N workers occupy N cores instead of
  time-slicing one GIL;
* an inline link (:class:`~repro.serve.workers.WorkerTier`): the
  worker runs in this process and the link calls it directly, with
  nothing pickled.

The protocol::

    requests  := ("submit", {...}) | ("open_stream", {...})   one-way
                 ("cancel", {...}) -> ("cancelled", bool)
                 ("finish", {...}) -> ("finished", ServeResult | exc)
                 ("step"|"flush", {now, seq}) -> ("stepped", {...})
                 ("shutdown", None) -> ("bye", None)
    failure   := ("fatal", "Type: message"), then the worker is gone
    frame     := 4-byte big-endian length | pickle(message)  (sockets)

``step()`` round-trips **once per worker per step**: the parent sends
every live worker its step message first, then reads the replies —
forked workers compute their scheduler steps concurrently while the
parent waits.  A step reply coalesces everything the parent needs —
the completed :class:`~repro.serve.engine.ServeResult` objects, the
load signals used for least-outstanding-tokens routing, the worker's
:class:`~repro.serve.engine.ServingStats`, and from a forked worker a
metrics snapshot and a trace-event delta — so there is no per-request
chatter.  In-process workers publish straight into the tier's
registry and tracer instead.

**Run-ahead.**  A forked worker on the wall clock (it reads its own
``time.monotonic``, the tier's timebase) does not sit idle between its
step reply and the next step message.  As soon as it has replied to a
``step`` and its engine still has work a step would do now — a live
stream, or a classify batch already due — it runs its next engine
step and holds the ids that step completed.  The next ``step``
message is answered from the held step, with no second engine step,
and the worker then runs ahead again; a ``flush`` returns the held ids
plus its own.  The engine step so overlaps the parent's reply
handling, the callers' new submissions and the wake-ups on both ends
of the socket.  The contract:

* one engine step per step message, plus at most one held step: the
  worker's ``ServingStats.steps`` is at most its step messages plus one;
* a step message's ``now`` applies only when no step is held — a held
  step read the worker's own clock — and a submission that lands while
  a step is held joins the step after it;
* ``finish`` and ``cancel`` are answered in message order, after any
  held step ends; a request the held step completed can be finished
  before the next step reply reports it;
* an exception in a held step ends the worker with its last words,
  like one in a handled message, and the tier reroutes its in-flight
  requests.

Virtual-clock workers (pinned to the parent's ``now``) and the inline
link stay lockstep, so deterministic replays and their traces do not
move.

**Zero-copy snapshot sharing.**  With ``mmap=True`` (the default for
worker processes) every replica rebuilds its
:class:`~repro.core.PrunedInferenceEngine` with
``from_directory(directory, mmap=True)``: the snapshot's weights are
expanded once into an ``.npy`` sidecar and each process maps the same
read-only pages, so N replicas share one physical copy of the model
in the page cache instead of N private heaps.

**Bit-identity.**  Workers pad, batch, and estimate hardware exactly
like a solo engine — outputs, masks, and hardware estimates depend
only on the request, never on the batch, the replica, the link or the
process boundary — so tier replays are bit-identical per request to
solo reference runs (pinned by ``tests/test_procworkers.py``).

**Fault tolerance.**  A lost worker (socket EOF, kill signal, step
timeout, or an exception raised inside an in-process worker) is
quarantined for good — never probed or reinstated — and its in-flight
requests are resubmitted to the survivors with their original arrival
stamps and deadlines — bit-identity makes the reroute invisible in
the results.  With no survivors the requests terminate fast with
typed ``engine_error`` results, never stall.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import socket
import struct
import time
from collections import deque
from dataclasses import replace

import numpy as np

from ..core.engine import PrunedInferenceEngine, ensure_mmap_weights
from ..obs.metrics import as_registry
from ..obs.tracing import as_tracer
from .batcher import BatchPolicy
from .engine import (REASON_ERROR, RequestTiming, ServeResult,
                     ServingEngine, ServingStats, check_classify,
                     check_stream, resolve_deadline)

__all__ = ["ProcessWorkerTier", "WorkerDied"]

_HEADER = struct.Struct(">I")


class WorkerDied(ConnectionError):
    """A worker is gone (socket EOF, crash, step timeout, or an
    exception inside an in-process worker); the tier quarantines it
    and reroutes its work."""


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


def _last_words(error: BaseException) -> tuple:
    return ("fatal", f"{type(error).__name__}: {error}")


class _SettableClock:
    """Worker-process engine clock slaved to a virtual parent clock:
    every message carries the parent clock's ``now`` and the worker
    pins its clock to it before dispatching, so arrival stamps,
    deadlines, and timings live in one shared timebase — and
    virtual-clock replays stay exactly reproducible across the process
    boundary."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def __call__(self) -> float:
        return self.value


# -- the worker side of the protocol -------------------------------------
def _build_engine(directory: str, index: int, spec: dict, clock,
            registry=None, tracer=None) -> ServingEngine:
    """Replica ``index``: its own engine rebuilt from the snapshot."""
    core = PrunedInferenceEngine.from_directory(directory,
                                                mmap=spec["mmap"])
    return ServingEngine(core, policy=spec["policy"], clock=clock,
                         slo=spec["slo"], name=f"worker{index}",
                         registry=registry, tracer=tracer,
                         **spec["engine_kwargs"])


class _Worker:
    """One replica's side of the protocol: its engine, the maps
    between engine and tier request ids, the failure results it made
    itself, the ids a run-ahead step completed, and how much of its
    trace it has shipped.  ``pin`` is the clock to set from each
    message's ``now`` (virtual-clock worker processes only);
    ``registry`` and ``tracer`` are a worker process's own, shipped
    back in every step reply — an in-process worker's engine publishes
    into the tier's and ships nothing.

    :meth:`handle` serves one message.  :meth:`run_ahead` is called
    only by the loop of a wall-clock worker process, after each
    ``step`` reply: the held step it may run answers the next ``step``
    message (see the module docstring for the contract).  The inline
    link and pinned workers never call it, so they stay lockstep."""

    def __init__(self, engine: ServingEngine,
                 pin: _SettableClock | None = None,
                 registry=None, tracer=None):
        self.engine = engine
        self._pin = pin
        self._registry = registry
        self._tracer = tracer
        self._tier_ids: dict[int, int] = {}     # engine id -> tier id
        self._engine_ids: dict[int, int] = {}   # tier id -> engine id
        self._failed: list = []                 # (tier id, result) made here
        self._held: list[int] | None = None     # ids of a run-ahead step
        self._traced = 0                        # trace events shipped

    def hello(self) -> tuple:
        """The handshake: the limits the tier checks requests against
        before they leave the caller, and the model's config."""
        engine = self.engine
        return ("ready", {
            "pad_to": engine._capacity,
            "prompt_limit": engine._capacity - 1,
            "decode": engine._can_decode,
            "config": engine._config,
        })

    def handle(self, op: str, payload):
        """Serve one message; returns the reply, or None for one-way
        messages."""
        if op == "shutdown":
            return ("bye", None)
        if self._pin is not None:
            self._pin.value = payload["now"]
        if op in ("submit", "open_stream"):
            self._open(op, payload)
            return None
        if op == "cancel":
            eid = self._engine_ids.get(payload["tier_id"])
            return ("cancelled",
                    False if eid is None else self.engine.cancel(eid))
        if op == "finish":
            return ("finished", self._finish(payload["tier_id"]))
        if op in ("step", "flush"):
            return ("stepped", self._step(op, payload))
        raise ValueError(f"unknown op {op!r}")

    def _open(self, op: str, payload: dict) -> None:
        tier_id = payload["tier_id"]
        try:
            if op == "submit":
                eid = self.engine.submit(
                    payload["inputs"], payload["mask"],
                    now=payload["now"], deadline=payload["deadline"])
            else:
                eid = self.engine.open_stream(
                    payload["prompt"], payload["max_new_tokens"],
                    now=payload["now"], deadline=payload["deadline"])
        except Exception as error:     # noqa: BLE001 — shipped
            self._failed.append((tier_id, ServeResult(
                request_id=tier_id,
                kind="classify" if op == "submit" else "generate",
                logits=np.zeros(0), error=error, reason=REASON_ERROR,
                timing=RequestTiming(arrival=payload["now"],
                                     finished=payload["now"]))))
            return
        self._tier_ids[eid] = tier_id
        self._engine_ids[tier_id] = eid

    def _finish(self, tier_id: int):
        eid = self._engine_ids.get(tier_id)
        if eid is None:
            return KeyError(f"unknown request {tier_id}")
        try:
            result = self.engine.collect(eid)
        except Exception as error:     # noqa: BLE001 — shipped
            return error
        del self._tier_ids[eid], self._engine_ids[tier_id]
        result.request_id = tier_id
        return result

    def run_ahead(self) -> None:
        """Run the next engine step now, before its step message, if
        the engine has work a step would do at once (a live stream or
        a due classify batch); hold the ids it completes for the next
        ``step`` or ``flush`` reply.  The engine reads its own clock,
        ``time.monotonic``."""
        engine = self.engine
        if engine.streams_pending() or engine.queue_ready(time.monotonic()):
            self._held = engine.step()

    def _step(self, op: str, payload: dict) -> dict:
        engine = self.engine
        held, self._held = self._held, None
        if op == "flush":
            done = (held or []) + engine.flush()
        elif held is None:
            done = engine.step(payload["now"])
        else:
            # the held step stands in for this one; requests cancelled
            # since it ran are reported now, as a lockstep step would
            done = held + engine._drain_instant()
        completed, self._failed = self._failed, []
        for eid in done:
            tier_id = self._tier_ids.pop(eid, None)
            if tier_id is None:
                continue
            del self._engine_ids[tier_id]
            result = engine.collect(eid)
            # re-badge into the tier-global id space: the parent never
            # sees engine ids
            result.request_id = tier_id
            completed.append((tier_id, result))
        reply = {
            "seq": payload["seq"],
            "completed": completed,
            "outstanding_tokens": engine.outstanding_tokens(),
            "kv_slots_in_use": engine.kv_slots_in_use(),
            "queue_depth": engine.queue_depth(),
            "streams_pending": engine.streams_pending(),
            "next_deadline": engine.next_deadline(),
            "queue_ready": engine.queue_ready(payload["now"]),
            "stats": engine.stats,
        }
        if self._registry is not None:
            reply["metrics"] = self._registry.snapshot()
        if self._tracer is not None:
            reply["trace"] = self._tracer.events[self._traced:]
            self._traced = len(self._tracer.events)
        return reply


def _worker_main(sock: socket.socket, directory: str, index: int,
                 spec: dict) -> None:
    """Worker process entry: build one engine from the shared snapshot,
    then serve protocol messages until shutdown, running ahead after
    each step reply on the wall clock.  Exits hard with
    ``os._exit`` so a forked pytest process never runs the parent's
    teardown machinery."""
    try:
        from ..obs.metrics import MetricsRegistry
        from ..obs.tracing import TraceRecorder

        registry = MetricsRegistry() if spec["metrics"] else None
        tracer = TraceRecorder() if spec["trace"] else None
        # the monotonic clock is system-wide, so a wall-clock worker
        # reads it itself and measures real step durations; any other
        # clock is pinned to the parent's `now` per message
        pin = None if spec["clock"] is time.monotonic \
            else _SettableClock()
        worker = _Worker(
            _build_engine(directory, index, spec, pin or time.monotonic,
                    registry, tracer),
            pin, registry, tracer)
        _send(sock, worker.hello())
        while True:
            op, payload = _recv(sock)
            reply = worker.handle(op, payload)
            if reply is not None:
                _send(sock, reply)
            if op == "shutdown":
                return
            if op == "step" and pin is None:
                worker.run_ahead()
    except (WorkerDied, KeyboardInterrupt):
        os._exit(1)
    except BaseException as error:             # noqa: BLE001 — last words
        try:
            _send(sock, _last_words(error))
        except Exception:                      # noqa: BLE001
            pass
        os._exit(1)
    finally:
        os._exit(0)


# -- links: how the tier reaches a worker ---------------------------------
class _SocketLink:
    """A worker in a forked process, over one end of a socketpair."""

    def __init__(self, sock: socket.socket,
                 proc: multiprocessing.process.BaseProcess):
        self.sock = sock
        self.proc = proc

    def send(self, message) -> None:
        _send(self.sock, message)

    def recv(self):
        return _recv(self.sock)

    def close(self) -> None:
        """Clean shutdown: a ``shutdown``/``bye`` round trip, then
        join (a worker that won't exit is killed)."""
        try:
            self.send(("shutdown", None))
            self.recv()
        except Exception:                      # noqa: BLE001
            pass
        self.reap(timeout=2.0)

    def reap(self, timeout: float = 1.0) -> None:
        self.sock.close()
        self.proc.join(timeout=timeout)
        if self.proc.is_alive():
            self.proc.kill()
            self.proc.join(timeout=timeout)


class _InlineLink:
    """A worker in this process: ``send`` runs its handler at once and
    queues the reply, with nothing pickled.  An exception in the
    handler becomes the ``("fatal", ...)`` reply a crashing process
    sends, and the worker is gone from then on — so the tier's failure
    path reroutes its requests instead of raising into the caller."""

    def __init__(self, worker: _Worker):
        self.worker = worker
        self._replies = deque([worker.hello()])

    def send(self, message) -> None:
        if self.worker is None:
            raise WorkerDied("worker is gone")
        try:
            reply = self.worker.handle(*message)
        except Exception as error:             # noqa: BLE001 — last words
            self.worker = None
            reply = _last_words(error)
        if reply is not None:
            self._replies.append(reply)

    def recv(self):
        if not self._replies:
            raise WorkerDied("no reply pending")
        return self._replies.popleft()

    def close(self) -> None:
        self.worker = None

    reap = close


# -- the tier -------------------------------------------------------------
class ProcessWorkerTier:
    """N shared-nothing engine replicas behind one front door, one
    forked worker process each.  ``handshake`` holds what worker 0
    reported at start: the request limits and the model's config."""

    def __init__(self, directory: str, procs: int,
                 policy: BatchPolicy | None = None,
                 clock=time.monotonic, mmap: bool = True,
                 step_timeout: float = 60.0,
                 registry=None, tracer=None, **engine_kwargs):
        self._links: dict = {}                 # live worker index -> link
        if procs < 1:
            raise ValueError("procs must be >= 1")
        self._clock = clock
        self._step_timeout = step_timeout
        self._registry = as_registry(registry)
        self._tracer = as_tracer(tracer)
        self._m_deaths = self._registry.counter(
            "repro_proc_worker_deaths_total",
            "workers lost (EOF, crash, step timeout or step exception)")
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
        self._replicas = procs
        self._dead: set[int] = set()           # quarantined for good
        if mmap:
            # expand the weight sidecar once, before any worker opens
            # it, so workers only ever open a published sidecar
            ensure_mmap_weights(directory)
        try:
            for index in range(procs):
                self._links[index] = self._spawn(directory, index, {
                    "policy": policy,
                    "mmap": mmap,
                    "engine_kwargs": engine_kwargs,
                    # one SLOAdmission copy per worker, so EWMA
                    # refinement stays per-replica
                    "slo": replace(slo) if slo is not None else None,
                })
                self._est[index] = 0
            for index in range(procs):
                kind, info = self._links[index].recv()
                if kind != "ready":
                    raise RuntimeError(
                        f"worker{index} failed to start: {info}")
                if index == 0:
                    self.handshake = info
        except BaseException:
            self.close()
            raise

    def _spawn(self, directory: str, index: int, spec: dict):
        """Fork worker ``index`` and return its socket link."""
        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError("ProcessWorkerTier needs fork() "
                               "(POSIX only)")
        spec = dict(spec, clock=self._clock,
                    metrics=self._registry.enabled,
                    trace=self._tracer.enabled)
        parent_sock, child_sock = socket.socketpair()
        proc = multiprocessing.get_context("fork").Process(
            target=_worker_main,
            args=(child_sock, directory, index, spec), daemon=True)
        proc.start()
        # close our copy of the child end *now*: once every parent-side
        # dup is gone, a dead worker reads as EOF (and later forks
        # never inherit this worker's end)
        child_sock.close()
        parent_sock.settimeout(self._step_timeout)
        return _SocketLink(parent_sock, proc)

    @classmethod
    def from_snapshot(cls, directory: str, replicas: int,
                      policy: BatchPolicy | None = None,
                      clock=time.monotonic, mmap: bool = True,
                      **engine_kwargs) -> "ProcessWorkerTier":
        """Build a tier of ``replicas`` workers, each rebuilding its own
        :class:`~repro.core.PrunedInferenceEngine` from the saved
        snapshot at ``directory`` — shared-nothing by construction
        (independent caches and queues).  ``mmap=True`` loads each
        replica's weights as read-only memory maps of one shared
        on-disk sidecar instead of private heap copies (see
        :func:`repro.core.engine.load_mmap_state`).  ``registry=`` and
        ``tracer=`` observe the whole tier; ``step_timeout=`` bounds
        how long a worker may take to reply before it counts as dead;
        the other
        ``engine_kwargs`` (``step_token_budget=``, ``preempt_after=``,
        ``slo=``, ``estimate_hardware=``, ...) configure every worker's
        :class:`~repro.serve.engine.ServingEngine` identically — an
        ``slo`` is copied per worker so EWMA refinement stays
        per-replica.  Workers are named ``worker0..N-1`` (their metric
        label and trace track), so don't pass ``name=``."""
        return cls(directory, procs=replicas, policy=policy, clock=clock,
                   mmap=mmap, **engine_kwargs)

    # -- routing --------------------------------------------------------
    def pick_worker(self) -> int:
        """Deterministic least-loaded routing over the live workers:
        fewest estimated outstanding tokens, lowest index breaking
        ties.  The estimate is resynced from every step reply and
        bumped locally per submission, so between steps it tracks each
        engine's own outstanding-token count (shed-free traces route
        as if the tier read the engines directly)."""
        if not self._links:
            raise WorkerDied("no live workers")
        return min(self._links, key=lambda i: (self._est[i], i))

    def _track(self, worker: int, payload: dict) -> int:
        tier_id = self._next_id
        self._next_id += 1
        self._payloads[tier_id] = payload
        self._instant += self._dispatch(worker, tier_id, payload)
        return tier_id

    def _dispatch(self, worker: int, tier_id: int,
                  payload: dict) -> list[int]:
        """Send one submission to ``worker``; if the worker is gone the
        failure path reroutes it (and everything else in flight there)
        to the survivors.  Returns any ids terminated by the failure
        handling (no-survivor fast-fails)."""
        self._routes[tier_id] = worker
        message = dict(payload["message"])
        message["tier_id"] = tier_id
        self._est[worker] += payload["tokens"]
        self._dirty.add(worker)
        try:
            self._links[worker].send((payload["op"], message))
        except WorkerDied as error:
            return self._worker_failed(worker, error, self._clock())
        return []

    def submit(self, inputs: np.ndarray, mask: np.ndarray | None = None,
               now: float | None = None, deadline: float | None = None,
               ttl: float | None = None) -> int:
        inputs, mask = check_classify(inputs, mask,
                                      self.handshake["pad_to"],
                                      self.handshake["config"])
        now = self._clock() if now is None else now
        deadline = resolve_deadline(now, deadline, ttl)
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
        prompt = check_stream(prompt, max_new_tokens,
                              self.handshake["prompt_limit"],
                              self.handshake["decode"],
                              self.handshake["config"])
        now = self._clock() if now is None else now
        deadline = resolve_deadline(now, deadline, ttl)
        return self._track(self.pick_worker(), {
            "op": "open_stream", "kind": "generate", "arrival": now,
            "deadline": deadline,
            "tokens": int(prompt.size) + int(max_new_tokens),
            "message": {"prompt": prompt,
                        "max_new_tokens": max_new_tokens,
                        "now": now, "deadline": deadline},
        })

    # -- worker failure -------------------------------------------------
    def _reply(self, index: int, kind: str):
        """Worker ``index``'s next reply, which must be ``kind``: its
        last words, or any other reply, mean the worker is gone."""
        got, reply = self._links[index].recv()
        if got == "fatal":
            raise WorkerDied(f"worker{index}: {reply}")
        if got != kind:
            raise WorkerDied(f"worker{index}: protocol desync ({got!r})")
        return reply

    def _worker_failed(self, index: int, error: Exception,
                       now: float) -> list[int]:
        """A worker is gone: quarantine it, reap it, and resubmit
        its in-flight requests to the survivors (original arrival
        stamps and deadlines — bit-identity makes the reroute
        invisible).  With no survivors the orphans terminate *now*
        with typed ``engine_error`` results.  Returns ids terminated
        here."""
        link = self._links.pop(index, None)
        if link is None:
            return []
        self._dead.add(index)
        self._m_deaths.inc()
        link.reap()
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
            if not self._links:
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
            completed += self._dispatch(self.pick_worker(), tier_id,
                                        payload)
        return completed

    # -- advancing ------------------------------------------------------
    def _round_trip(self, op: str, now: float) -> list[int]:
        """One ``step``/``flush`` fan-out: send every live worker its
        message first, then read the replies — worker processes
        overlap their scheduler steps while the parent waits.  Returns
        tier ids completed this round (worker order, deterministic)."""
        self._seq += 1
        pending, self._instant = self._instant, []
        # ids the caller finished before we reported them drop out
        completed = [tid for tid in pending if tid in self._results]
        message = (op, {"now": now, "seq": self._seq})
        sent = []
        for index in list(self._links):
            try:
                self._links[index].send(message)
            except WorkerDied as error:
                completed += self._worker_failed(index, error, now)
            else:
                sent.append(index)
        for index in sent:
            if index not in self._links:
                continue               # lost while rerouting another's work
            try:
                reply = self._reply(index, "stepped")
                if reply["seq"] != self._seq:
                    raise WorkerDied(f"worker{index}: protocol desync")
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

    # -- queue introspection (same surface as ServingEngine) ------------
    def _reported(self, key: str) -> list:
        """``key`` from each live worker's last step reply."""
        return [self._state[i][key] for i in self._links
                if i in self._state]

    def next_deadline(self) -> float | None:
        """The earliest of the in-flight requests' deadlines and the
        workers' batch-flush times."""
        deadlines = [p["deadline"] for p in self._payloads.values()
                     if p["deadline"] is not None]
        deadlines += [d for d in self._reported("next_deadline")
                      if d is not None]
        return min(deadlines) if deadlines else None

    def queue_ready(self, now: float) -> bool:
        # conservative: submissions since the last reply may be due,
        # and so is anything whose flush time or deadline has passed
        if self._dirty or any(self._reported("queue_ready")):
            return True
        deadline = self.next_deadline()
        return deadline is not None and deadline <= now

    def has_pending(self) -> bool:
        return bool(self._payloads) or bool(self._instant)

    def streams_pending(self) -> bool:
        """Whether a worker held a live stream at its last step reply."""
        return any(self._reported("streams_pending"))

    def kv_slots_in_use(self) -> int:
        return sum(self._reported("kv_slots_in_use"))

    def outstanding_tokens(self) -> int:
        return sum(self._est.values())

    def queue_depth(self) -> int:
        return sum(self._reported("queue_depth"))

    # -- completion -----------------------------------------------------
    def cancel(self, request_id: int) -> bool:
        if request_id in self._results:
            return False
        worker = self._routes.get(request_id)
        if worker is None:
            raise KeyError(f"unknown request {request_id}")
        try:
            self._links[worker].send(
                ("cancel", {"tier_id": request_id, "now": self._clock()}))
            return self._reply(worker, "cancelled")
        except WorkerDied as error:
            self._instant += self._worker_failed(worker, error,
                                                 self._clock())
            return self.cancel(request_id)   # follow the reroute

    def result(self, request_id: int) -> ServeResult | None:
        return self._results.get(request_id)

    def finish(self, request_id: int) -> ServeResult:
        result = self._results.pop(request_id, None)
        if result is None:
            worker = self._routes.get(request_id)
            if worker is None:
                raise KeyError(f"unknown request {request_id}")
            try:
                self._links[worker].send(
                    ("finish", {"tier_id": request_id,
                                "now": self._clock()}))
                result = self._reply(worker, "finished")
            except WorkerDied as error:
                self._instant += self._worker_failed(worker, error,
                                                     self._clock())
                return self.finish(request_id)   # follow the reroute
            if isinstance(result, Exception):
                raise result                     # still live there
        self._routes.pop(request_id, None)
        self._payloads.pop(request_id, None)
        if result.error is not None:
            raise result.error
        return result

    # -- observability --------------------------------------------------
    @property
    def stats(self) -> dict[str, ServingStats]:
        """Last :class:`ServingStats` each worker reported (empty stats
        before its first step reply; dead workers keep their last)."""
        return {f"worker{i}": self._state.get(i, {}).get(
                    "stats", ServingStats())
                for i in range(self._replicas)}

    def stats_summary(self) -> dict[str, dict]:
        """Tier-level rollup plus the per-worker breakdown, from each
        worker's last step reply.

        ``{"tier": {...}, "workers": {"worker0": {...}, ...}}`` — the
        tier entry sums terminal-reason counts, reliability tallies and
        live load signals across every replica (the numbers
        ``python -m repro.serve --stats --replicas N`` prints), and
        each worker row adds a coarse ``health`` verdict: ``ok`` until
        the worker has contained forward errors, then ``erroring``; a
        dead worker keeps its last numbers under ``quarantined``."""
        keys = ("completed", "shed", "errors", "retries", "preemptions",
                "outstanding_tokens", "kv_slots_in_use", "queue_depth")
        tier = {"replicas": self._replicas, "reasons": {},
                **dict.fromkeys(keys, 0)}
        rows = {}
        for index in range(self._replicas):
            state = self._state.get(index, {})
            stats = state.get("stats", ServingStats())
            if index in self._dead:
                health = "quarantined"
            else:
                health = "erroring" if stats.errors else "ok"
            row = rows[f"worker{index}"] = {
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
            for reason, count in row["reasons"].items():
                tier["reasons"][reason] = (tier["reasons"].get(reason, 0)
                                           + count)
            for key in keys:
                tier[key] += row[key]
        return {"tier": tier, "workers": rows}

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Shut every worker down: a worker process gets a clean
        ``shutdown``/``bye`` round trip and is joined (killed if it
        won't exit).  Idempotent."""
        links, self._links = self._links, {}
        for link in links.values():
            link.close()

    def __enter__(self) -> "ProcessWorkerTier":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):
        try:
            self.close()
        except Exception:                      # noqa: BLE001
            pass
