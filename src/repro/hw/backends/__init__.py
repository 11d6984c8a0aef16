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

``numpy-ref``
    the original O(bit-planes) einsum kernel — the reference
    semantics, and the default.
``numpy-packed``
    the fast path: sign-magnitude key planes packed into per-cycle
    plane-group words, one fused GEMM over the per-key plane cache,
    and an integer scan for the margin/termination sweep.  ≥2x the
    reference at paper-scale tiles (S=512-1280), pinned by
    ``benchmarks/test_kernel_micro.py``.

Selection precedence: an explicit ``backend=`` argument
(``TileSimulator``, ``bitserial_cycles_matrix``), then
``TileConfig.kernel_backend``, then the ``REPRO_KERNEL_BACKEND``
environment variable, then :data:`DEFAULT_BACKEND`.

Beyond per-tile ``matrix`` calls, backends may implement a batched
``matrix_many`` entry point taking a list of :class:`KernelJob` and
returning one ``(cycles, pruned, scores)`` triple per job.  The
serving regime issues many small tiles per step (one per
stream/layer/head), and a fused implementation can amortize per-call
pack/GEMM overhead across them; ``numpy-packed`` fuses all jobs
sharing a head-dim into single GEMMs.  Backends without
``matrix_many`` are driven through :func:`run_many`, which falls back
to a per-job ``matrix`` loop — results are bit-identical either way,
pinned by ``tests/test_fused.py``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Protocol, runtime_checkable

import numpy as np

ENV_VAR = "REPRO_KERNEL_BACKEND"
DEFAULT_BACKEND = "numpy-ref"


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

    # Optional batched tier.  Backends may omit this — run_many()
    # falls back to a per-job matrix loop — but implementations must
    # stay bit-identical to that loop for every job mix.
    # def matrix_many(self, jobs, cache=None): ...


def matrix_many_loop(backend: KernelBackend, jobs, cache=None):
    """Reference ``matrix_many``: a per-job ``matrix`` loop.

    Defines the semantics every fused implementation must reproduce
    bit-for-bit.  ``cache`` is accepted for signature compatibility;
    the loop path re-packs per call and ignores it.
    """
    return [backend.matrix(job.q, job.k, job.threshold,
                           job.magnitude_bits, job.group,
                           valid=job.valid,
                           margin_scale=job.margin_scale)
            for job in jobs]


def run_many(backend: KernelBackend, jobs, cache=None):
    """Evaluate a batch of :class:`KernelJob` on ``backend``.

    Dispatches to the backend's fused ``matrix_many`` when it has one,
    else to the per-job loop — callers get identical results either
    way and never need to feature-test the backend.
    """
    jobs = list(jobs)
    if not jobs:
        return []
    fused = getattr(backend, "matrix_many", None)
    if fused is None:
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

__all__ = ["KernelBackend", "KernelJob", "PlaneGroupCache",
           "register_backend", "unregister_backend",
           "get_backend", "list_backends", "resolve_backend_name",
           "run_many", "matrix_many_loop",
           "ENV_VAR", "DEFAULT_BACKEND"]
