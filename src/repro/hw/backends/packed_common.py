"""Packed-bitplane machinery behind the ``numpy-packed`` backend.

Two pieces live here:

**Pack-once plane-group caches.**  :func:`pack_planes` turns a key
matrix into the ``(cycles + 1, S_k, D)`` plane-group stack the fused
GEMM consumes, and :class:`PlaneGroupCache` memoizes those stacks
under a caller-supplied identity (stream/layer/head).  During decode K
only grows by a suffix, so the cache packs just the new rows and
concatenates; reuse is validated by exact key comparison (full prefix
``array_equal``), so a changed K — a re-quantization after the peak
|K| moved, a preemption swap — can never serve stale planes: it simply
repacks.

**Cross-job fused evaluation.**  :func:`fused_matrix_many` evaluates a
whole batch of :class:`~repro.hw.backends.KernelJob` tiles and returns
their :class:`~repro.hw.backends.RowActivity`.  Jobs are grouped by
everything that must match for the plane schedule to be shared —
head-dim, magnitude bits, plane-group width, margin scale — then
banded by power-of-two (S_q, S_k) buckets and zero-padded to the
band's actual maximum, which makes each chunk of a band
block-diagonal: one stacked ``(n, rows, D) @ (n, D, S_q)`` matmul
(every job's plane stack against its transposed queries) does exactly
the useful per-job products, key-major.  Padding waste is bounded by
the pow2 bucketing, and is nil when a chunk's jobs share a shape, as a
classify request's jobs do.  The margin/termination scan then runs
over every cycle boundary of the padded chunk at once, and the chunk's
rows are reduced in place to per-row counts with axis sums (padding
counts as invalid), so no per-job score tile is ever sliced out.
:func:`fused_matrix` runs the same path for one job and returns its
``(cycles, pruned, scores)`` tile, the conformance API.

Bit-identity is free by construction: every product and partial sum is
an exact integer inside the float32 (< 2**24) / float64 / int32
windows the dtype selection proves, so fusing, padding with zero
rows, or switching scan dtype cannot change a single output bit
relative to the per-job ``matrix`` loop.  ``tests/test_fused.py`` pins
this on randomized mixed-shape job sets.

**Plane groups and the float32 window.**  The packed stack holds each
cycle's plane-group field ``sign * (|k| & ((2^n - 1) << lo))``.  All
products of one group share the power-of-two factor ``2^lo``, which
only shifts the floating-point exponent, so a group's dot products are
exact whenever the unscaled ones are: the float32 window is
``qmax * (2^group - 1) * D < 2^24``.  At serving shapes (12-bit
datapath, 2 planes per cycle, |q| <= 2047, D = 64) every GEMM
therefore runs in float32 (Ozaki et al., "Error-free transformations
of matrix multiplication", Numer. Algorithms 2012: slice the operands
until every floating-point product is exact), and each GEMM result is
already the group's weighted contribution to the score.

**The scan.**  With ``margin_scale == 1`` and every quantity inside
int32 the scan runs on integers, and the margin bound ``partial +
positive * (2^rem - 1)`` never rises from one cycle boundary to the
next and never falls below the final score.  A score's count of
boundaries below the threshold is then its count of boundaries since
termination, and a terminated score is always pruned, so the scan is
one compare per boundary.  Anything else (scaled margins, huge
queries or thresholds) takes a float64 scan that accumulates the
terminated flags in the reference's operation order.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..bitserial import _plane_schedule
from . import RowActivity

# float32 keeps integers exact below 2^24; int32 is safe while
# |partial| + |margin| stays below 2^31 (we require < 2^30 each)
_F32_EXACT = 1 << 24
_I32_SAFE = 1 << 30

# batched-chunk sizing: bound the MACs and operand elements of one
# stacked matmul so paper-scale tiles degrade to per-job chunks (where
# fusion has nothing to amortize) and serving-shaped bands never
# allocate unreasonable intermediates
_MAX_CHUNK_MACS = 1 << 27
_MAX_CHUNK_ELEMENTS = 1 << 24

def _gemm(a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """Stacked (n, M, D) x (n, D, R) -> (n, M, R) products."""
    return np.matmul(a, b, out=out)


@dataclass(frozen=True, eq=False)
class PlaneSpec:
    """Derived plane-schedule constants for a (magnitude_bits, group)
    pair — everything the packed kernels need besides the data."""

    magnitude_bits: int
    group: int
    # (count of magnitude planes, lowest plane) per DPU cycle
    cycle_groups: tuple[tuple[int, int], ...]
    # the cycles that carry magnitude planes, in schedule order
    mag_groups: tuple[tuple[int, int], ...]
    full_cycles: int
    # largest unscaled plane-group field, 2^n - 1 over the cycles
    field_max: int
    # (n_groups, 1, 1): each plane group's magnitude bits, (2^n - 1) << lo
    field_masks: np.ndarray
    # the scan's cycle boundaries (every cycle but the last): the plane
    # groups summed by the first boundary (one more by each later one)
    # and, (boundaries, 1, 1, 1), each boundary's margin factor 2^rem - 1
    boundary_groups: int
    boundary_factors: np.ndarray

    @property
    def n_groups(self) -> int:
        return len(self.mag_groups)


_SPECS: dict[tuple[int, int], PlaneSpec] = {}


def plane_spec(magnitude_bits: int, group: int) -> PlaneSpec:
    """Memoized :class:`PlaneSpec` for a schedule shape."""
    key = (magnitude_bits, group)
    spec = _SPECS.get(key)
    if spec is None:
        schedule = _plane_schedule(magnitude_bits, group)
        cycle_groups = []
        for chunk in schedule:
            planes = [p for p in chunk if p >= 0]
            cycle_groups.append((len(planes), planes[-1] if planes else 0))
        mag_groups = tuple((n, lo) for n, lo in cycle_groups if n)
        field_max = max(((1 << n) - 1 for n, _ in mag_groups), default=0)
        # only the first cycle can lack magnitude planes (the sign
        # plane alone, at group 1), so boundary b has summed
        # boundary_groups + b groups
        first = cycle_groups[0][0] > 0
        remaining = magnitude_bits - sum(n for n, _ in cycle_groups[:1])
        margins = []
        for n, _ in cycle_groups[1:]:
            margins.append((1 << remaining) - 1)
            remaining -= n
        spec = PlaneSpec(
            magnitude_bits, group, tuple(cycle_groups), mag_groups,
            len(schedule), field_max,
            np.array([((1 << n) - 1) << lo for n, lo in mag_groups],
                     dtype=np.int64).reshape(-1, 1, 1),
            int(first),
            np.array(margins, dtype=np.int64).reshape(-1, 1, 1, 1))
        _SPECS[key] = spec
    return spec


def pack_planes(k: np.ndarray, spec: PlaneSpec) -> np.ndarray:
    """Pack a key matrix into its plane-group stack.

    Returns ``(n_groups + 1, s_k, dim)``: the sign plane first, then
    one per-cycle plane-group field matrix ``sign * (|k| & ((2^n - 1)
    << lo))`` per magnitude cycle.  Stored in float32 whenever the
    unscaled fields fit its exact-integer window (always, for groups
    narrower than 24 planes) so cached stacks feed float32 GEMMs
    without conversion; the float64 upcast for huge-query chunks is
    exact either way.
    """
    k = np.asarray(k, dtype=np.int64)
    signs = np.sign(k)
    # the field masks only cover magnitude_bits planes, like the
    # reference, which never reads higher planes of an out-of-range key
    magnitudes = np.abs(k)
    dtype = np.float32 if spec.field_max < _F32_EXACT else np.float64
    s_k, dim = k.shape
    stacked = np.empty((spec.n_groups + 1, s_k, dim), dtype=dtype)
    stacked[0] = signs
    np.multiply(signs, magnitudes & spec.field_masks, out=stacked[1:],
                casting="unsafe")
    return stacked


@dataclass
class _CacheEntry:
    spec: PlaneSpec
    keys: np.ndarray      # int64 copy of the packed K, for validation
    stacked: np.ndarray   # pack_planes(keys, spec)


class PlaneGroupCache:
    """Pack-once plane-group cache keyed by stream/layer/head identity.

    ``planes_for(key, k, spec)`` returns the packed stack for ``k``,
    reusing a cached stack when the key matrix is unchanged and
    packing only the new suffix rows when K merely grew (the decode
    case).  Reuse is gated on exact ``array_equal`` prefix
    validation — any other change (re-quantization, truncation,
    preemption swap-in) is a miss and repacks, so stale planes are
    impossible by construction.  Entries are LRU-bounded.

    ``counters`` optionally mirrors the tallies into live metrics: a
    mapping with ``"hit"``/``"extend"``/``"miss"`` values exposing
    ``inc()`` (:class:`repro.obs.Counter` instances in practice — the
    serving engine binds ``repro_pack_cache_events_total`` series and
    hands them in, keeping this module free of any obs import).
    """

    def __init__(self, max_entries: int = 256, counters=None):
        self.max_entries = max_entries
        self._entries: OrderedDict[Any, _CacheEntry] = OrderedDict()
        self.hits = 0
        self.extended = 0
        self.misses = 0
        self.counters = counters

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop every entry and reset the counters (a fresh cache)."""
        self._entries.clear()
        self.hits = self.extended = self.misses = 0

    def stats(self) -> dict[str, int]:
        """Counters: exact hits, suffix extensions, full repacks."""
        return {"hits": self.hits, "extended": self.extended,
                "misses": self.misses, "entries": len(self._entries)}

    def planes_for(self, key: Any, k: np.ndarray,
                   spec: PlaneSpec) -> np.ndarray:
        k = np.asarray(k, dtype=np.int64)
        entry = self._entries.get(key)
        if (entry is not None and entry.spec is spec
                and k.ndim == 2 and entry.keys.shape[1] == k.shape[1]):
            old_rows = entry.keys.shape[0]
            if old_rows == k.shape[0] and np.array_equal(entry.keys, k):
                self.hits += 1
                if self.counters is not None:
                    self.counters["hit"].inc()
                self._entries.move_to_end(key)
                return entry.stacked
            if 0 < old_rows < k.shape[0] and np.array_equal(
                    entry.keys, k[:old_rows]):
                suffix = pack_planes(k[old_rows:], spec)
                entry.stacked = np.concatenate(
                    [entry.stacked, suffix], axis=1)
                entry.keys = k.copy()
                self.extended += 1
                if self.counters is not None:
                    self.counters["extend"].inc()
                self._entries.move_to_end(key)
                return entry.stacked
        self.misses += 1
        if self.counters is not None:
            self.counters["miss"].inc()
        stacked = pack_planes(k, spec)
        self._entries[key] = _CacheEntry(spec=spec, keys=k.copy(),
                                         stacked=stacked)
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
        return stacked


@dataclass
class _Prepared:
    index: int
    job: Any
    q: np.ndarray
    k: np.ndarray
    valid: np.ndarray | None


@dataclass
class _Chunk:
    """One padded slab of a shape band after its GEMMs and scan.  The
    arrays are key-major, ``(n, s_k_pad, s_q_pad)``: a query row is a
    column."""

    preps: list[_Prepared]
    padded: bool             # some job is smaller than the slab
    valid: np.ndarray | None  # bool, padding False; None: all valid
    score: np.ndarray        # exact scores
    terminated: np.ndarray   # int8, see _scan
    pruned: np.ndarray       # bool


def _integers(values) -> np.ndarray:
    """``values`` as a signed-integer array, copied only when not one
    already."""
    values = np.asarray(values)
    return values if values.dtype.kind == "i" else values.astype(np.int64)


def _evaluate(jobs, cache: PlaneGroupCache | None):
    """Yield ``(spec, chunk)`` for every padded chunk of ``jobs``.

    Jobs without queries or keys have no score and are skipped.
    """
    groups: dict[tuple, list[_Prepared]] = {}
    for index, job in enumerate(jobs):
        q, k = _integers(job.q), _integers(job.k)
        if q.shape[0] == 0 or k.shape[0] == 0:
            continue
        gkey = (q.shape[1], job.magnitude_bits, job.group,
                float(job.margin_scale))
        valid = (None if job.valid is None
                 else np.asarray(job.valid, dtype=bool))
        groups.setdefault(gkey, []).append(
            _Prepared(index, job, q, k, valid))

    for (dim, magnitude_bits, group, margin_scale), preps in \
            groups.items():
        spec = plane_spec(magnitude_bits, group)
        # pow2 shape bands bound padding waste; ascending S_k order
        # keeps same-key growing-K jobs hitting the pack cache in
        # prefix order
        bands: dict[tuple[int, int], list[_Prepared]] = {}
        for prep in preps:
            bkey = (1 << (prep.q.shape[0] - 1).bit_length(),
                    1 << (prep.k.shape[0] - 1).bit_length())
            bands.setdefault(bkey, []).append(prep)
        for bkey in sorted(bands, key=lambda b: (b[1], b[0])):
            band = bands[bkey]
            s_q_pad = max(p.q.shape[0] for p in band)
            s_k_pad = max(p.k.shape[0] for p in band)
            rows_pad = (spec.n_groups + 1) * s_k_pad
            macs = s_q_pad * max(dim, 1) * (rows_pad + s_k_pad)
            elements = max(rows_pad * max(dim, 1), 1)
            per_chunk = max(1, min(_MAX_CHUNK_MACS // max(macs, 1),
                                   _MAX_CHUNK_ELEMENTS // elements))
            for start in range(0, len(band), per_chunk):
                yield spec, _scan(band[start:start + per_chunk], spec,
                                  dim, s_q_pad, s_k_pad, margin_scale,
                                  cache)


def fused_matrix_many(jobs, cache: PlaneGroupCache | None = None
                      ) -> RowActivity:
    """Row activity of a batch of kernel jobs, via banded
    block-diagonal GEMMs; bit-identical to the per-job ``matrix``
    loop (:func:`repro.hw.backends.matrix_many_loop`)."""
    jobs = list(jobs)
    rows = np.array([np.shape(job.q)[0] for job in jobs], dtype=np.int64)
    offsets = np.cumsum(rows) - rows
    counts = np.zeros((4, int(rows.sum())), dtype=np.int64)
    bits = np.zeros(len(jobs), dtype=np.int64)
    for spec, chunk in _evaluate(jobs, cache):
        _reduce_rows(chunk, spec, offsets, counts, bits)
    return RowActivity(rows, counts, bits)


def fused_matrix(job) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One job's ``(cycles, pruned, scores)`` tile (the
    :meth:`~repro.hw.backends.KernelBackend.matrix` contract)."""
    s_q, s_k = np.shape(job.q)[0], np.shape(job.k)[0]
    for spec, chunk in _evaluate([job], None):
        cycles = (spec.full_cycles
                  - chunk.terminated[0].T).astype(np.int64)
        if job.valid is not None:
            cycles = np.where(job.valid, cycles, 0)
        return (cycles, chunk.pruned[0].T.copy(),
                chunk.score[0].T.astype(np.float64))
    return (np.zeros((s_q, s_k), dtype=np.int64),
            np.zeros((s_q, s_k), dtype=bool),
            np.zeros((s_q, s_k), dtype=np.float64))


def _job_planes(prep: _Prepared, spec: PlaneSpec,
                cache: PlaneGroupCache | None) -> np.ndarray:
    key = getattr(prep.job, "pack_key", None)
    if cache is not None and key is not None:
        return cache.planes_for(key, prep.k, spec)
    return pack_planes(prep.k, spec)


def _pad_stack(shape: tuple, dtype, parts, padded: bool) -> np.ndarray:
    """The 2-D ``parts`` stacked into a ``shape`` array of ``dtype``,
    each zero-padded to its slab when ``padded``."""
    if not padded:
        return np.stack(parts, out=np.empty(shape, dtype=dtype))
    out = np.zeros(shape, dtype=dtype)
    for slab, part in zip(out, parts):
        slab[:part.shape[0], :part.shape[1]] = part
    return out


def _stage(chunk: list[_Prepared], spec: PlaneSpec, dim: int,
           s_q_pad: int, s_k_pad: int, padded: bool,
           cache: PlaneGroupCache | None):
    """Pad a chunk's queries, keys and valid masks and run its GEMMs.

    Returns ``(fused, positive, valid, qmax)``: the plane-group
    products ``(n, n_groups + 1, s_k_pad, s_q_pad)`` (the sign plane
    first), the margin base ``(n, s_k_pad, s_q_pad)``, both in the
    GEMM dtype, and the padded valid mask ``(n, s_k_pad, s_q_pad)``,
    or None when every score of the chunk is valid.
    """
    n = len(chunk)
    n_groups = spec.n_groups
    masks = {id(p.valid): p.valid for p in chunk if p.valid is not None}
    if not padded and all(mask.all() for mask in masks.values()):
        valid = None
    elif not masks:
        # only the padding is invalid
        s_q = np.array([p.q.shape[0] for p in chunk])[:, None, None]
        s_k = np.array([p.k.shape[0] for p in chunk])[:, None, None]
        valid = ((np.arange(s_k_pad)[:, None] < s_k)
                 & (np.arange(s_q_pad) < s_q))
    else:
        valid = _pad_stack(
            (n, s_k_pad, s_q_pad), bool,
            [np.broadcast_to(True, (p.k.shape[0], p.q.shape[0]))
             if p.valid is None else p.valid.T for p in chunk],
            padded)
    # the GEMM's right operand, the queries transposed: staged in
    # float32, which keeps every integer below 2^24 and rounds larger
    # ones to at least 2^24, so the peak below still sees them
    queries = [p.q.T for p in chunk]
    q_stack = _pad_stack((n, dim, s_q_pad), np.float32, queries, padded)
    abs_q = np.abs(q_stack)
    qmax = int(abs_q.max())
    # max(..., 2) also covers the |s| @ |q| + s @ q sum in `positive`
    if qmax * max(spec.field_max, 2) * max(dim, 1) >= _F32_EXACT:
        q_stack = _pad_stack(q_stack.shape, np.float64, queries, padded)
        abs_q = np.abs(q_stack)

    # the left operand: every job's plane stack, contiguous
    shape = (n, n_groups + 1, s_k_pad, dim)
    if cache is not None and any(
            getattr(p.job, "pack_key", None) is not None for p in chunk):
        # per-job plane stacks from the pack-once cache (exact hit or
        # suffix extension), copied into the padded band
        planes = _pad_stack(
            (n, n_groups + 1, s_k_pad * dim), q_stack.dtype,
            [_job_planes(p, spec, cache).reshape(n_groups + 1, -1)
             for p in chunk], padded).reshape(shape)
    else:
        # pack the whole padded band in one set of vectorised plane
        # extractions (zero-padded K rows pack to all-zero planes),
        # in int16 whenever every key's magnitude and mask fits
        keys = _pad_stack((n, s_k_pad, dim),
                          np.result_type(*(p.k.dtype for p in chunk)),
                          [p.k for p in chunk], padded)
        kmax = max(-int(keys.min()), int(keys.max()),
                   1 << spec.magnitude_bits)
        keys = keys.astype(np.int16 if kmax < 1 << 15 else np.int64,
                           copy=False)
        # the sign plane, then each cycle's field sign * (|k| & mask)
        planes = np.empty(shape, dtype=q_stack.dtype)
        signs = np.sign(keys)
        planes[:, 0] = signs
        fields = np.bitwise_and(np.abs(keys, out=keys)[:, None],
                                spec.field_masks.astype(keys.dtype))
        np.multiply(fields, signs[:, None], out=planes[:, 1:],
                    casting="unsafe")

    fused = _gemm(planes.reshape(n, (n_groups + 1) * s_k_pad, dim),
                  q_stack).reshape(n, n_groups + 1, s_k_pad, s_q_pad)
    # margin base: sum of q*sign over dims where the product can push
    # the score up = (|s| @ |q| + s @ q) / 2, all integer-exact
    positive = _gemm(np.abs(planes[:, 0]), abs_q)
    np.add(positive, fused[:, 0], out=positive)
    np.multiply(positive, 0.5, out=positive)
    return fused, positive, valid, qmax


def _buffer_like(values: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """An array of ``values``' shape in ``dtype`` to convert ``values``
    into: ``values`` itself, viewed, when the element sizes match (a
    converted element then only overwrites itself)."""
    if values.itemsize == dtype.itemsize:
        return values.view(dtype)
    return np.empty(values.shape, dtype=dtype)


def _scan(chunk: list[_Prepared], spec: PlaneSpec, dim: int,
          s_q_pad: int, s_k_pad: int, margin_scale: float,
          cache: PlaneGroupCache | None) -> _Chunk:
    """The margin/termination scan over one padded chunk, every DPU
    cycle boundary at once.

    ``terminated`` counts the boundaries by which a score had
    terminated, so its cycle count is ``full_cycles - terminated``.
    """
    padded = any(p.q.shape[0] < s_q_pad or p.k.shape[0] < s_k_pad
                 for p in chunk)
    fused, positive, valid, qmax = _stage(chunk, spec, dim, s_q_pad,
                                          s_k_pad, padded, cache)
    n_groups = spec.n_groups
    thresholds = [float(p.job.threshold) for p in chunk]
    margin_bound = (qmax * max(dim, 1)
                    * max((1 << spec.magnitude_bits) - 1, 1))
    int_scan = (margin_scale == 1.0 and margin_bound < _I32_SAFE
                and all(abs(t) < _I32_SAFE for t in thresholds))
    if int_scan:
        scan_dtype = np.dtype(np.int32)
        # lhs is an exact integer, so lhs < th  <=>  lhs < ceil(th)
        thresholds = [math.ceil(t) for t in thresholds]
    else:
        scan_dtype = np.dtype(np.float64)
    th = np.array(thresholds, dtype=scan_dtype)[:, None, None]

    # partial[:, g]: the score after g plane groups (the sign plane's
    # slot holds the empty sum)
    partial = _buffer_like(fused, scan_dtype)
    np.copyto(partial[:, 1:], fused[:, 1:], casting="unsafe")
    partial[:, 0] = 0
    for g in range(2, n_groups + 1):
        np.add(partial[:, g], partial[:, g - 1], out=partial[:, g])
    score = partial[:, n_groups]
    pruned = score < th

    first, bounds = spec.boundary_groups, len(spec.boundary_factors)
    if not bounds:
        terminated = np.zeros(score.shape, dtype=np.int8)
        return _Chunk(chunk, padded, valid, score, terminated, pruned)
    # partial sum + margin at every cycle boundary
    base = _buffer_like(positive, scan_dtype)
    np.copyto(base, positive, casting="unsafe")
    margins = np.multiply(base, spec.boundary_factors, dtype=scan_dtype)
    if margin_scale != 1.0:
        np.multiply(margins, margin_scale, out=margins)
    np.add(margins, partial[:, first:first + bounds].swapaxes(0, 1),
           out=margins)
    below = margins < th
    if not int_scan:
        # a score stays terminated once below
        np.logical_or.accumulate(below, out=below)
        pruned |= below[-1]
    # with exact integers and an unscaled margin the bound never rises
    # from one boundary to the next and never falls below the final
    # score, so `below` is already cumulative and implies score < th
    terminated = np.add.reduce(below.view(np.int8), dtype=np.int8)
    return _Chunk(chunk, padded, valid, score, terminated, pruned)


def _key_sums(values: np.ndarray) -> np.ndarray:
    """Per-row totals of a key-major bool or small-int array."""
    return np.add.reduce(values.view(np.uint8), axis=1, dtype=np.int32)


def _reduce_rows(chunk: _Chunk, spec: PlaneSpec, offsets: np.ndarray,
                 counts: np.ndarray, bits: np.ndarray) -> None:
    """Write a chunk's per-row activity into the rows of its jobs in
    ``counts`` (the layout of :class:`RowActivity`) and its jobs' bit
    totals into ``bits``; padding counts as invalid."""
    valid, score = chunk.valid, chunk.score
    terminated, pruned = chunk.terminated, chunk.pruned
    n, s_k_pad, s_q_pad = score.shape
    if valid is None:
        valid_rows = np.full((n, s_q_pad), s_k_pad, dtype=np.int32)
    else:
        valid_rows = _key_sums(valid)
        np.multiply(terminated, valid, out=terminated)
        np.logical_and(pruned, valid, out=pruned)
        low = (-np.inf if score.dtype.kind == "f"
               else np.iinfo(score.dtype).min)
        score = np.where(valid, score, low)
    lane_cycles = spec.full_cycles * valid_rows - _key_sums(terminated)
    # every pruned valid score but the row's maximum leaves the row
    lost = score < score.max(axis=1, keepdims=True)
    np.logical_and(lost, pruned, out=lost)
    rows = np.stack([valid_rows, lane_cycles,
                     valid_rows - _key_sums(lost), _key_sums(pruned)])

    index = np.array([p.index for p in chunk.preps])
    job_bits = spec.group * lane_cycles.sum(axis=1, dtype=np.int64)
    # a full schedule's last cycle may carry fewer planes than group
    excess = spec.full_cycles * spec.group - (spec.magnitude_bits + 1)
    if excess:
        full = terminated == 0
        if valid is not None:
            full &= valid
        job_bits -= excess * full.sum(axis=(1, 2))
    bits[index] = job_bits
    start = offsets[index[0]]
    if not chunk.padded and index[-1] - index[0] == n - 1:
        # consecutive jobs filling the slab: their rows are contiguous
        counts[:, start:start + n * s_q_pad] = rows.reshape(4, -1)
        return
    s_q = np.array([p.q.shape[0] for p in chunk.preps])
    keep = np.arange(s_q_pad) < s_q[:, None]
    target = (offsets[index][:, None] + np.arange(s_q_pad))[keep]
    counts[:, target] = rows.reshape(4, -1)[:, keep.ravel()]


__all__ = ["PlaneSpec", "plane_spec", "pack_planes", "PlaneGroupCache",
           "fused_matrix", "fused_matrix_many"]
