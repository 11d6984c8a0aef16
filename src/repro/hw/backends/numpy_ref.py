"""``numpy-ref``: the reference vectorized bit-plane kernel, the test
oracle of the packed kernel the simulator runs.

One batched plane-contribution einsum, a grouped cumulative sum for
the partial sums, and a closed-form conservative margin per plane
group.  It defines the semantics the packed kernel must reproduce
bit-for-bit, so keep it simple and obviously correct — performance
work belongs in :mod:`~repro.hw.backends.packed_common`.  Tests run
the simulator on it by monkeypatching ``repro.hw.tile.kernel`` to
:func:`matrix_many`.
"""

from __future__ import annotations

import numpy as np

from ..bitserial import _plane_schedule
from . import RowActivity, matrix_many_loop


def matrix(q, k, threshold: float, magnitude_bits: int, group: int,
           valid: np.ndarray | None = None, margin_scale: float = 1.0
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Early-termination cycle counts for a whole score tile (see
    :func:`repro.hw.bitserial.bitserial_cycles_matrix` for the full
    contract)."""
    q = np.asarray(q, dtype=np.int64)
    k = np.asarray(k, dtype=np.int64)
    signs = np.sign(k)
    magnitudes = np.abs(k)
    qf = q.astype(np.float64)

    schedule = _plane_schedule(magnitude_bits, group)
    full_cycles = len(schedule)

    # one weighted sign-plane tensor per magnitude plane, MSB..LSB:
    # planes[p] = signs * bit_p(k) * 2^p  -> contribution = q @ planes[p].T
    weights = (1 << np.arange(magnitude_bits - 1, -1, -1,
                              dtype=np.int64))
    bits = (magnitudes[None, :, :] >> np.arange(
        magnitude_bits - 1, -1, -1)[:, None, None]) & 1
    plane_keys = (signs[None, :, :] * bits
                  * weights[:, None, None]).astype(np.float64)
    # (planes, S_q, S_k) contributions in ONE batched matmul pass
    contributions = np.einsum("qd,pkd->pqk", qf, plane_keys,
                              optimize=True)

    # exact scores: sum of all plane contributions (integers in f64)
    scores = contributions.sum(axis=0)

    # largest possible remaining contribution per unit magnitude:
    # only elements with q_i * sign(k_i) > 0 can push the sum up
    positive = (np.maximum(qf, 0.0) @ np.maximum(signs, 0).T
                + np.maximum(-qf, 0.0) @ np.maximum(-signs, 0).T)

    # grouped cumulative partial sums + margins, one pass per cycle
    cycles = np.full(scores.shape, full_cycles, dtype=np.int64)
    terminated = np.zeros(scores.shape, dtype=bool)
    partial = np.zeros_like(scores)
    plane_cursor = 0
    remaining = magnitude_bits
    for cycle_index, chunk in enumerate(schedule, start=1):
        magnitude_planes = sum(1 for plane in chunk if plane >= 0)
        if magnitude_planes:
            stop = plane_cursor + magnitude_planes
            partial = partial + contributions[plane_cursor:stop].sum(axis=0)
            plane_cursor = stop
            remaining -= magnitude_planes
        if cycle_index == full_cycles:
            break
        margin = positive * ((1 << remaining) - 1) * margin_scale
        newly = ~terminated & (partial + margin < threshold)
        if newly.any():
            cycles[newly] = cycle_index
            terminated |= newly

    pruned = terminated | (scores < threshold)
    if valid is not None:
        cycles = np.where(valid, cycles, 0)
    return cycles, pruned, scores


def matrix_many(jobs) -> RowActivity:
    """Row activity of each job's :func:`matrix` tile (the oracle of
    the fused ``packed_common.fused_matrix_many``)."""
    return matrix_many_loop(matrix, jobs)
