"""The bit-serial Q·K kernel: the packed fast path and its oracle.

Every hardware experiment funnels through one kernel, the
early-termination Q·K cycle-count matrix of paper §3.2.  Given
``(q, k, threshold, magnitude_bits, group, valid, margin_scale)`` it
returns ``(cycles, pruned, scores)`` **bit-identical** to the scalar
reference trace (:func:`repro.hw.bitserial.bitserial_dot_product`).

:mod:`~repro.hw.backends.packed_common`
    the kernel the simulator runs: each DPU cycle's plane group sliced
    out of the sign-magnitude keys as one field ``sign * (|k| & ((2^n
    - 1) << lo))``, one fused GEMM over the stacked fields, and an
    integer scan for the margin/termination sweep.  A group's products
    share its power-of-two weight, so the GEMMs are exact in float32
    while ``qmax * (2^group - 1) * D < 2^24`` (every serving shape:
    |q| <= 2047, D = 64, 2 planes per cycle) and run in float64 past
    it.  ``fused_matrix`` evaluates one tile (behind
    :func:`~repro.hw.bitserial.bitserial_cycles_matrix`);
    ``fused_matrix_many`` fuses every job sharing a head-dim and plane
    schedule into one banded GEMM and scan and reduces the padded
    arrays to :class:`RowActivity`, the only quantities the tile
    simulator reads.  ≥2x the oracle at paper-scale tiles (S=512),
    pinned by ``benchmarks/test_kernel_micro.py``.
:mod:`~repro.hw.backends.numpy_ref`
    the original O(bit-planes) einsum kernel, kept as the test oracle:
    ``numpy_ref.matrix`` for one tile, ``numpy_ref.matrix_many`` for
    the row activity of each job's tile (:func:`matrix_many_loop`).

The simulator calls :func:`run_many` with ``repro.hw.tile.kernel``;
tests swap the oracle in by monkeypatching that one name, and the
conformance tests (``tests/test_backends.py``, ``tests/test_fused.py``,
``tests/test_tile.py``) pin both kernels bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np


@dataclass(frozen=True, eq=False)
class KernelJob:
    """One score-tile evaluation request for the batched kernel tier.

    Mirrors the argument list of
    :func:`~repro.hw.bitserial.bitserial_cycles_matrix`.
    """

    q: Any
    k: Any
    threshold: float
    magnitude_bits: int
    group: int
    valid: np.ndarray | None = None
    margin_scale: float = 1.0


@dataclass(frozen=True, eq=False)
class RowActivity:
    """Per-query-row activity of a list of score tiles, in the
    terms the tile simulator charges.

    ``rows[j]`` is job ``j``'s query-row count; the columns of
    ``counts`` hold every job's rows back to back, in job order.
    ``bits[j]`` is the number of key bit-planes job ``j`` consumed:
    over its valid scores, ``min(cycles * group, magnitude_bits + 1)``.
    """

    rows: np.ndarray     # (jobs,) int64
    counts: np.ndarray   # (4, sum(rows)) int64, see the properties
    bits: np.ndarray     # (jobs,) int64

    @property
    def valid(self) -> np.ndarray:
        """Valid scores per row."""
        return self.counts[0]

    @property
    def lane_cycles(self) -> np.ndarray:
        """DPU cycles spent on the row's valid scores."""
        return self.counts[1]

    @property
    def survivors(self) -> np.ndarray:
        """Valid scores that reach the back end under runtime pruning:
        not pruned, or equal to the row's maximum valid score (the
        back end's running-max register always survives)."""
        return self.counts[2]

    @property
    def pruned(self) -> np.ndarray:
        """Valid scores pruned by the threshold."""
        return self.counts[3]

    @classmethod
    def of_tile(cls, cycles, pruned, scores, valid, group: int,
                bit_width: int) -> "RowActivity":
        """Reduce one ``(cycles, pruned, scores)`` tile (the
        :func:`~repro.hw.bitserial.bitserial_cycles_matrix` contract;
        ``valid=None`` means
        every score is valid) to its row activity.  ``bit_width`` caps
        the planes a score consumes at ``group`` per cycle."""
        scores = np.asarray(scores, dtype=np.float64)
        valid = (np.ones(scores.shape, dtype=bool) if valid is None
                 else np.asarray(valid, dtype=bool))
        pruned_valid = pruned & valid
        masked = np.where(valid, scores, -np.inf)
        row_max = masked.max(axis=1, initial=-np.inf, keepdims=True)
        surviving = valid & (~pruned_valid | (masked == row_max))
        counts = np.stack([valid.sum(axis=1), cycles.sum(axis=1),
                           surviving.sum(axis=1),
                           pruned_valid.sum(axis=1)]).astype(np.int64)
        bits = np.minimum(cycles * group, bit_width).sum()
        return cls(np.array([scores.shape[0]], dtype=np.int64), counts,
                   np.array([bits], dtype=np.int64))

    @classmethod
    def concat(cls, parts) -> "RowActivity":
        """The jobs of ``parts``, in order, as one activity."""
        parts = list(parts)
        if not parts:
            return cls(np.zeros(0, dtype=np.int64),
                       np.zeros((4, 0), dtype=np.int64),
                       np.zeros(0, dtype=np.int64))
        return cls(np.concatenate([p.rows for p in parts]),
                   np.concatenate([p.counts for p in parts], axis=1),
                   np.concatenate([p.bits for p in parts]))


def matrix_many_loop(matrix, jobs) -> RowActivity:
    """Reference batched kernel: the row activity of each job's
    ``(cycles, pruned, scores)`` tile under the one-tile kernel
    ``matrix``.

    Defines the semantics the fused kernel must reproduce bit-for-bit.
    """
    return RowActivity.concat(
        RowActivity.of_tile(
            *matrix(job.q, job.k, job.threshold, job.magnitude_bits,
                    job.group, valid=job.valid,
                    margin_scale=job.margin_scale),
            job.valid, job.group, job.magnitude_bits + 1)
        for job in jobs)


def run_many(matrix_many, jobs) -> RowActivity:
    """Row activity of a batch of :class:`KernelJob` under the batched
    kernel ``matrix_many``: the tile simulator's one kernel dispatch."""
    return matrix_many(list(jobs))


__all__ = ["KernelJob", "RowActivity", "run_many", "matrix_many_loop"]
