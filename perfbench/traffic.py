"""Seeded request lists and the single-threaded closed-loop client.

The program under test only ever sees the generated inputs: a request
is a prompt plus a generation budget (generate workloads) or an input
sequence (classify workload).  Every list opens with the same
``CALIBRATION`` requests, whatever the seed, so the paper quantities
measured on them repeat exactly across seeds; the rest of the list is
drawn from the run's seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

VOCAB = 64
CALIBRATION = 8            # seed-independent requests opening every list
CALIBRATION_SEED = 20_220_611
LIST_LENGTH = 512          # the closed loop cycles through the list
CHECKED = 16               # leading requests whose outputs are checked


@dataclass(frozen=True)
class Request:
    tokens: np.ndarray         # prompt (generate) or inputs (classify)
    new_tokens: int = 0        # generation budget; 0 for classify


def _draw(rng: np.random.Generator, kind: str) -> Request:
    if kind == "classifier":
        return Request(rng.integers(0, VOCAB, size=int(rng.integers(16, 65))))
    prompt = rng.integers(0, VOCAB, size=int(rng.integers(4, 17)))
    return Request(prompt, int(rng.integers(16, 33)))


def request_list(kind: str, seed: int) -> list[Request]:
    """Requests for a ``kind`` of model (``"lm"`` or ``"classifier"``):
    ``CALIBRATION`` fixed requests, then the rest of ``LIST_LENGTH``
    drawn from ``seed``."""
    fixed = np.random.default_rng(CALIBRATION_SEED)
    seeded = np.random.default_rng(seed)
    return ([_draw(fixed, kind) for _ in range(CALIBRATION)]
            + [_draw(seeded, kind)
               for _ in range(LIST_LENGTH - CALIBRATION)])


def send(tier, request: Request) -> int:
    if request.new_tokens:
        return tier.open_stream(request.tokens, request.new_tokens)
    return tier.submit(request.tokens)


@dataclass
class Outcome:
    index: int                 # position in the issue order
    request: Request
    sent: float                # client clock at the send call
    done: float                # client clock when step() reported it
    result: object             # ServeResult (None: tier lost it)
    error: str | None = None


def closed_loop(tier, requests: list[Request], clients: int,
                seconds: float | None = None, count: int | None = None,
                warmup: float = 0.0) -> tuple[list[Outcome], float, float]:
    """Drive ``tier`` with ``clients`` closed-loop clients: each sends
    its next request (the next list entry, cycling) as soon as its
    previous one completes.  Sending stops ``warmup + seconds`` after
    the first send, or after ``count`` requests; requests in flight
    then run to completion.

    Results of the first ``CHECKED`` requests are kept whole; later
    ones keep only their terminal reason and timing.

    Returns (outcomes sorted by issue index, start, end) on the
    ``time.monotonic`` clock the engines stamp their timings with;
    ``start`` is the end of the warm-up."""
    in_flight: dict[int, tuple[int, Request, float]] = {}
    outcomes: list[Outcome] = []
    issued = 0
    start = time.monotonic() + warmup
    stop = None if seconds is None else start + seconds

    def more() -> bool:
        if count is not None:
            return issued < count
        return time.monotonic() < stop

    def issue() -> None:
        nonlocal issued
        request = requests[issued % len(requests)]
        sent = time.monotonic()
        in_flight[send(tier, request)] = (issued, request, sent)
        issued += 1

    for _ in range(clients):
        if more():
            issue()
    while in_flight:
        completed = tier.step()
        done = time.monotonic()
        for request_id in completed:
            index, request, sent = in_flight.pop(request_id)
            result = tier.result(request_id)
            if result is not None:
                # the attention records are only the program's input to
                # hardware accounting; holding every served request's
                # records here would inflate the measured memory
                result.records = None
            error = None
            try:
                tier.finish(request_id)
            except Exception as exc:     # noqa: BLE001 — counted failure
                error = f"{type(exc).__name__}: {exc}"
            if result is not None and index >= CHECKED:
                # nor is any output past the checked sample read again;
                # holding it would grow the measured memory with the
                # number of requests served
                result.logits = result.tokens = result.hardware = None
            outcomes.append(Outcome(index, request, sent, done, result,
                                    error))
            if more():
                issue()
    outcomes.sort(key=lambda o: o.index)
    return outcomes, start, time.monotonic()
