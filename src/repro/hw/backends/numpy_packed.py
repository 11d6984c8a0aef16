"""``numpy-packed``: the packed-bitplane fast path.

Same semantics as ``numpy-ref``, restructured around the shared
machinery in :mod:`repro.hw.backends.packed_common`:

1. **Packed plane-group fields + a per-key plane cache.**  Each DPU
   cycle's plane group is sliced out of the sign-magnitude keys as one
   integer field — ``sign * (|k| & ((2^n - 1) << lo))`` — so the kernel
   touches O(cycles) small key matrices instead of O(bit-planes) full
   plane tensors.  With a :class:`~repro.hw.backends.PlaneGroupCache`
   the pack happens once per key matrix and decode steps append only
   the new suffix rows.

2. **Fused GEMMs.**  All per-cycle plane groups (plus the sign plane
   needed for the margin) stack into a single ``(cycles+1) * S_k x D``
   operand, so one tile needs exactly two matrix products — and
   ``matrix_many`` goes further, stacking every job that shares a
   head-dim/plane schedule into one banded block-diagonal batched GEMM,
   amortizing per-call BLAS and Python overhead across the many small
   tiles of an estimate.  A group's products share its power-of-two
   weight, so every product is exact in float32 while ``qmax *
   (2^group - 1) * D < 2^24`` and the GEMMs run in float32 at twice the
   dgemm throughput (at serving shapes, always); past the window they
   run in float64.

3. **Integer margin scan.**  The margin/termination sweep — the other
   half of the runtime — runs in int32 whenever partial sums, margins
   and the threshold provably fit, over every cycle boundary at once,
   and one compare per boundary decides termination (the integer
   bound only falls from boundary to boundary).  A cycle count falls
   out of the number of boundaries a score terminated by.
   ``matrix_many`` then reduces each query row to the counts the tile
   simulator charges, inside the padded scan arrays.

Anything outside the provable-exactness windows (huge queries,
``margin_scale != 1``, non-finite thresholds) falls back to float64
passes that replicate the reference operation order exactly.
"""

from __future__ import annotations

import numpy as np

from . import KernelJob, register_backend
from .packed_common import fused_matrix, fused_matrix_many


def matrix(q, k, threshold: float, magnitude_bits: int, group: int,
           valid: np.ndarray | None = None, margin_scale: float = 1.0
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Packed-bitplane evaluation of a whole score tile (contract:
    :func:`repro.hw.bitserial.bitserial_cycles_matrix`)."""
    job = KernelJob(q=q, k=k, threshold=threshold,
                    magnitude_bits=magnitude_bits, group=group,
                    valid=valid, margin_scale=margin_scale)
    return fused_matrix(job)


class NumpyPackedBackend:
    """Packed-bitplane fast path behind the :class:`KernelBackend`
    protocol."""

    name = "numpy-packed"
    description = ("packed plane-group cache + fused GEMM + integer "
                   "margin scan (>=2x numpy-ref at paper-scale tiles; "
                   "batched matrix_many returns fused row activity)")

    @staticmethod
    def matrix(q, k, threshold, magnitude_bits, group, valid=None,
               margin_scale=1.0):
        return matrix(q, k, threshold, magnitude_bits, group,
                      valid=valid, margin_scale=margin_scale)

    @staticmethod
    def matrix_many(jobs, cache=None):
        return fused_matrix_many(jobs, cache=cache)


BACKEND = register_backend(NumpyPackedBackend())
