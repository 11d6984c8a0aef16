"""Pluggable bit-serial kernel backends.

Every hardware experiment funnels through one kernel — the
early-termination Q·K cycle-count matrix — so this package puts that
kernel behind a registry of interchangeable backends.  The contract is
the :class:`KernelBackend` protocol: given the same
``(q, k, threshold, magnitude_bits, group, valid, margin_scale)``
inputs, every backend must return ``(cycles, pruned, scores)``
**bit-identical** to the scalar reference trace
(:func:`repro.hw.bitserial.bitserial_dot_product`); the conformance
matrix in ``tests/test_backends.py`` pins this for every registered
backend.

Shipped backends:

``numpy-packed``
    the default, and the fast path: each DPU cycle's plane group
    sliced out of the sign-magnitude keys as one field ``sign * (|k| &
    ((2^n - 1) << lo))``, one fused GEMM over the stacked fields, and
    an integer scan for the margin/termination sweep.  A group's
    products share its power-of-two weight, so the GEMMs are exact in
    float32 while ``qmax * (2^group - 1) * D < 2^24`` (every serving
    shape: |q| <= 2047, D = 64, 2 planes per cycle) and run in float64
    past it.  ≥2x the reference at paper-scale tiles (S=512-1280),
    pinned by ``benchmarks/test_kernel_micro.py``.
``numpy-ref``
    the original O(bit-planes) einsum kernel — the reference
    semantics, kept as the test oracle every backend is pinned
    against.

Selection precedence: an explicit ``backend=`` argument
(``TileSimulator``, ``bitserial_cycles_matrix``), then
``TileConfig.kernel_backend``, then the ``REPRO_KERNEL_BACKEND``
environment variable, then :data:`DEFAULT_BACKEND`.

The batched tier is what the tile simulator calls.  Backends may
implement ``matrix_many(jobs, cache=None)``, taking a list of
:class:`KernelJob` and returning one :class:`RowActivity` for the
whole list: each job's per-query-row counts (valid scores, DPU lane
cycles, survivors, pruned valid scores) and its key bit-planes, the
only quantities the simulator reads.  A fused implementation
reduces its own padded arrays to these counts instead of handing back
per-job ``(cycles, pruned, scores)`` tiles; ``numpy-packed`` fuses
every job sharing a head-dim and plane schedule into one banded GEMM
and scan.  Backends without ``matrix_many`` are driven through
:func:`run_many`, which falls back to :func:`matrix_many_loop`: the
row activity of each job's ``matrix`` triple, reduced by
:meth:`RowActivity.of_tile`.  That loop is the reference; results are
bit-identical either way, pinned by ``tests/test_fused.py``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Protocol, runtime_checkable

import numpy as np

ENV_VAR = "REPRO_KERNEL_BACKEND"
DEFAULT_BACKEND = "numpy-packed"


@dataclass(frozen=True, eq=False)
class KernelJob:
    """One score-tile evaluation request for the batched kernel tier.

    Mirrors the argument list of :meth:`KernelBackend.matrix`, plus an
    optional ``pack_key``: a hashable identity (stream/layer/head) for
    the key matrix, letting pack-once plane caches reuse packed planes
    across decode steps where K only grows by a suffix.  ``None``
    means "don't cache".
    """

    q: Any
    k: Any
    threshold: float
    magnitude_bits: int
    group: int
    valid: np.ndarray | None = None
    margin_scale: float = 1.0
    pack_key: Any = None


@runtime_checkable
class KernelBackend(Protocol):
    """The backend contract: the exact semantics of the reference
    bit-serial kernel, exposed as a ``matrix`` method.

    ``matrix`` evaluates a whole S_q x S_k score tile and returns
    ``(cycles, pruned, scores)`` with the meaning documented on
    :func:`repro.hw.bitserial.bitserial_cycles_matrix`.  Results must
    be bit-identical to the scalar trace for every input in the
    integer-exact domain (scores within float64's 2**53 window).
    """

    name: str
    description: str

    def matrix(self, q, k, threshold: float, magnitude_bits: int,
               group: int, valid: np.ndarray | None = None,
               margin_scale: float = 1.0
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        ...

    # Optional batched tier returning one RowActivity for the job
    # list.  Backends may omit this — run_many() falls back to the
    # per-job matrix loop — but implementations must stay
    # bit-identical to that loop for every job mix.
    # def matrix_many(self, jobs, cache=None) -> RowActivity: ...


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
        :meth:`KernelBackend.matrix` contract; ``valid=None`` means
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


def matrix_many_loop(backend: KernelBackend, jobs,
                     cache=None) -> RowActivity:
    """Reference ``matrix_many``: the row activity of each job's
    ``matrix`` triple.

    Defines the semantics every fused implementation must reproduce
    bit-for-bit.  ``cache`` is accepted for signature compatibility;
    the loop path re-packs per call and ignores it.
    """
    return RowActivity.concat(
        RowActivity.of_tile(
            *backend.matrix(job.q, job.k, job.threshold,
                            job.magnitude_bits, job.group,
                            valid=job.valid,
                            margin_scale=job.margin_scale),
            job.valid, job.group, job.magnitude_bits + 1)
        for job in jobs)


def run_many(backend: KernelBackend, jobs, cache=None) -> RowActivity:
    """Row activity of a batch of :class:`KernelJob` on ``backend``.

    Dispatches to the backend's fused ``matrix_many`` when it has one,
    else to the per-job loop — callers get identical results either
    way and never need to feature-test the backend.
    """
    jobs = list(jobs)
    fused = getattr(backend, "matrix_many", None)
    if fused is None or not jobs:
        return matrix_many_loop(backend, jobs, cache=cache)
    return fused(jobs, cache=cache)


_REGISTRY: dict[str, KernelBackend] = {}


def register_backend(backend: KernelBackend,
                     replace: bool = False) -> KernelBackend:
    """Add a backend to the registry under ``backend.name``.

    Re-registering an existing name raises unless ``replace=True`` —
    a silent override would make "which kernel ran?" unanswerable.
    """
    name = backend.name
    if not replace and name in _REGISTRY:
        raise ValueError(f"kernel backend {name!r} is already "
                         "registered (pass replace=True to override)")
    _REGISTRY[name] = backend
    return backend


def unregister_backend(name: str) -> None:
    """Remove a backend (test helper; unknown names are a no-op)."""
    _REGISTRY.pop(name, None)


def list_backends() -> list[str]:
    """Names of every registered backend, sorted."""
    return sorted(_REGISTRY)


def resolve_backend_name(name: str | None = None) -> str:
    """Apply the selection precedence: explicit name, then the
    ``REPRO_KERNEL_BACKEND`` environment variable, then the default."""
    if name:
        return name
    return os.environ.get(ENV_VAR) or DEFAULT_BACKEND


def get_backend(name: str | None = None) -> KernelBackend:
    """Look up a backend; ``None`` resolves env var / default.

    Raises ``KeyError`` naming the valid choices for a typo'd or
    unregistered backend.
    """
    resolved = resolve_backend_name(name)
    try:
        return _REGISTRY[resolved]
    except KeyError:
        raise KeyError(
            f"unknown kernel backend {resolved!r}; registered backends: "
            f"{', '.join(list_backends())} (selected via backend= / "
            f"TileConfig.kernel_backend / ${ENV_VAR})") from None


# -- built-in backends ------------------------------------------------------
from . import numpy_ref       # noqa: E402,F401  (registers numpy-ref)
from . import numpy_packed    # noqa: E402,F401  (registers numpy-packed)

from .packed_common import PlaneGroupCache  # noqa: E402

__all__ = ["KernelBackend", "KernelJob", "PlaneGroupCache", "RowActivity",
           "register_backend", "unregister_backend",
           "get_backend", "list_backends", "resolve_backend_name",
           "run_many", "matrix_many_loop",
           "ENV_VAR", "DEFAULT_BACKEND"]
