"""Sign-magnitude bit-serial Q·K kernels with early termination
(paper §3.2, Fig. 3).

Two entry points into the same hardware semantics:

* ``bitserial_dot_product`` — the scalar reference trace, kept for the
  walkthrough/exactness demos.  One Python iteration per cycle, full
  per-cycle history.  This trace *defines* the semantics every matrix
  backend must reproduce bit-for-bit.
* ``bitserial_cycles_matrix`` — the hot path.  Evaluates an entire
  S_q x S_k score tile through a pluggable kernel backend
  (:mod:`repro.hw.backends`): ``numpy-ref`` is the original
  O(bit-planes) einsum kernel and the test oracle, ``numpy-packed``
  the packed-bitplane fast path.  Select with the
  ``backend=`` argument, ``TileConfig.kernel_backend``, or the
  ``REPRO_KERNEL_BACKEND`` environment variable.

Semantics: keys are sign-magnitude with ``magnitude_bits`` magnitude
bits, processed MSB-first in groups of ``group`` bit-planes per cycle;
the sign plane is consumed in the first cycle.  After each cycle the
DPU knows the partial sum P and a conservative margin M (the largest
value the unprocessed low-order bits could still add).  If
``P + M < threshold`` the score can never survive pruning, and the
DPU terminates early — provably without changing the prune decision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def serial_cycle_count(total_bits: int, group: int) -> int:
    """Cycles to process ``total_bits`` bit-planes (sign included),
    ``group`` planes per cycle."""
    return math.ceil(total_bits / group)


def _plane_schedule(magnitude_bits: int, group: int) -> list[list[int]]:
    """Chunk the plane sequence [sign, MSB..LSB] into per-cycle groups.

    Planes are encoded as -1 for the sign plane and p for the magnitude
    plane of weight 2**p.
    """
    planes = [-1] + list(range(magnitude_bits - 1, -1, -1))
    return [planes[i:i + group] for i in range(0, len(planes), group)]


# ---------------------------------------------------------------------------
# scalar reference trace
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CycleStep:
    cycle: int
    partial_sum: float
    margin: float
    terminated: bool


@dataclass(frozen=True)
class BitSerialTrace:
    cycles: int
    early_terminated: bool
    pruned: bool
    exact_value: float
    history: tuple[CycleStep, ...]


def bitserial_dot_product(q, k, threshold: float, magnitude_bits: int,
                          group: int = 1) -> BitSerialTrace:
    """Reference scalar trace of one dot product's bit-serial schedule."""
    q = np.asarray(q, dtype=np.int64)
    k = np.asarray(k, dtype=np.int64)
    signs = np.sign(k)
    magnitudes = np.abs(k)
    exact = float(q @ k)
    schedule = _plane_schedule(magnitude_bits, group)
    full_cycles = len(schedule)
    # max positive contribution per remaining magnitude unit
    positive = float(np.maximum(q * signs, 0).sum())

    partial = 0.0
    remaining = magnitude_bits
    history: list[CycleStep] = []
    for cycle_index, chunk in enumerate(schedule, start=1):
        for plane in chunk:
            if plane < 0:
                continue  # sign plane: no arithmetic contribution
            bit = (magnitudes >> plane) & 1
            partial += float(q @ (signs * bit)) * (1 << plane)
            remaining -= 1
        margin = positive * ((1 << remaining) - 1)
        terminated = (cycle_index < full_cycles
                      and partial + margin < threshold)
        history.append(CycleStep(cycle_index, partial, margin, terminated))
        if terminated:
            return BitSerialTrace(
                cycles=cycle_index, early_terminated=True, pruned=True,
                exact_value=exact, history=tuple(history))
    return BitSerialTrace(
        cycles=full_cycles, early_terminated=False,
        pruned=exact < threshold, exact_value=exact,
        history=tuple(history))


# ---------------------------------------------------------------------------
# vectorized bit-plane kernel (the hot path, backend-dispatched)
# ---------------------------------------------------------------------------

def bitserial_cycles_matrix(q, k, threshold: float, magnitude_bits: int,
                            group: int, valid: np.ndarray | None = None,
                            margin_scale: float = 1.0,
                            backend: str | None = None
                            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Early-termination cycle counts for a whole score tile.

    ``q``: (S_q, D) integer queries (full precision, bit-parallel);
    ``k``: (S_k, D) integer keys (sign-magnitude, bit-serial).

    Returns ``(cycles, pruned, scores)``:

    * ``cycles[i, j]`` — DPU cycles spent on score (i, j); pruned
      scores terminate as soon as partial-sum + margin drops below the
      threshold, surviving scores take the full schedule.  Positions
      where ``valid`` is False report 0 cycles.
    * ``pruned[i, j]`` — the prune decision.  With the conservative
      margin (``margin_scale=1``) it equals ``scores < threshold``
      exactly; smaller margins terminate earlier but may wrongly prune.
    * ``scores`` — the exact integer dot products, as float64.

    ``backend`` picks the kernel implementation by registry name
    (:mod:`repro.hw.backends`); ``None`` follows the
    ``REPRO_KERNEL_BACKEND`` environment variable and defaults to the
    ``numpy-ref`` reference kernel.  Every registered backend returns
    bit-identical results on integer inputs whose scores stay inside
    float64's exact-integer window.
    """
    from .backends import get_backend

    return get_backend(backend).matrix(
        q, k, threshold, magnitude_bits, group, valid=valid,
        margin_scale=margin_scale)
