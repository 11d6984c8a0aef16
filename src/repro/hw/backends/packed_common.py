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
whole batch of :class:`~repro.hw.backends.KernelJob` tiles through
*one* batched GEMM per shape band instead of one GEMM per job.  Jobs
are grouped by everything that must match for the plane schedule to be
shared — head-dim, magnitude bits, plane-group width, margin scale —
then banded by power-of-two (S_q, S_k) buckets and zero-padded to the
band's actual maximum, which makes the batch block-diagonal: a single
stacked ``(n, S_q, D) @ (n, D, rows)`` matmul does exactly the useful
per-job products (padding waste is bounded by the pow2 bucketing,
< 4x worst case and near zero on uniform serving mixes) rather than
the n-fold cross-job waste a dense concatenated GEMM would pay.  The
margin/termination scan then runs once over the whole padded band with
a per-job threshold column, and per-job tiles are sliced back out.

Bit-identity is free by construction: every product and partial sum is
an exact integer inside the float32 (< 2**24) / float64 / int32
windows the dtype selection proves, so fusing, padding with zero
rows, or switching scan dtype cannot change a single output bit
relative to the per-job ``matrix`` loop.  ``tests/test_fused.py`` pins
this on randomized mixed-shape job sets.

**Unscaled plane groups.**  The packed stack holds each cycle's
plane-group field ``sign * ((|k| >> lo) & (2^n - 1))`` *without* its
``2^lo`` weight; the scan applies the weight when it copies a GEMM
result into its lanes.  Scaling by a power of two is exact in every
dtype involved, so this changes no result, but it shrinks the GEMM
operands from scaled group values (at least ``2^(magnitude_bits - 1)``
for the top group) to at most ``2^group - 1``: the float32 window is
``qmax * (2^group - 1) * D < 2^24``.  At serving shapes
(12-bit datapath, 2 planes per cycle, |q| <= 2047, D = 64) every GEMM
therefore runs in float32 (Ozaki et al., "Error-free transformations
of matrix multiplication", Numer. Algorithms 2012: slice the operands
until every floating-point product is exact).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..bitserial import _plane_schedule

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

def _gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b^T over the last two axes, for stacked (n, M, D) x
    (n, R, D) -> (n, M, R) operands."""
    return np.matmul(a, b.swapaxes(-1, -2))


@dataclass(frozen=True)
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
        spec = PlaneSpec(magnitude_bits, group, tuple(cycle_groups),
                         mag_groups, len(schedule), field_max)
        _SPECS[key] = spec
    return spec


def pack_planes(k: np.ndarray, spec: PlaneSpec) -> np.ndarray:
    """Pack a key matrix into its plane-group stack.

    Returns ``(n_groups + 1, s_k, dim)``: one per-cycle plane-group
    field matrix ``sign * ((|k| >> lo) & (2^n - 1))`` per magnitude
    cycle, unscaled (the scan applies ``2^lo``), the sign plane last.
    Stored in float32 whenever the fields fit its exact-integer window
    (always, for groups narrower than 24 planes) so cached stacks feed
    float32 GEMMs without conversion; the float64 upcast for huge-query
    chunks is exact either way.
    """
    k = np.asarray(k, dtype=np.int64)
    signs = np.sign(k)
    # masking to magnitude_bits matches the reference, which only ever
    # reads the magnitude_bits planes of an out-of-range key
    magnitudes = np.abs(k) & ((np.int64(1) << spec.magnitude_bits) - 1)
    dtype = np.float32 if spec.field_max < _F32_EXACT else np.float64
    s_k, dim = k.shape
    stacked = np.empty((spec.n_groups + 1, s_k, dim), dtype=dtype)
    for index, (n, lo) in enumerate(spec.mag_groups):
        field = (magnitudes >> lo) & ((np.int64(1) << n) - 1)
        np.multiply(signs, field, out=stacked[index], casting="unsafe")
    stacked[spec.n_groups] = signs
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
    qmax: int


def _empty_result(job, s_q: int, s_k: int):
    cycles = np.zeros((s_q, s_k), dtype=np.int64)
    pruned = np.zeros((s_q, s_k), dtype=bool)
    scores = np.zeros((s_q, s_k), dtype=np.float64)
    if job.valid is not None:
        cycles = np.where(job.valid, cycles, 0)
    return cycles, pruned, scores


def fused_matrix_many(jobs, cache: PlaneGroupCache | None = None) -> list:
    """Evaluate a batch of kernel jobs via banded block-diagonal GEMMs.

    Returns one ``(cycles, pruned, scores)`` triple per job, in input
    order, bit-identical to calling the packed ``matrix`` per job.
    """
    jobs = list(jobs)
    results: list = [None] * len(jobs)

    # group by everything the plane schedule and scan must share
    groups: dict[tuple, list[_Prepared]] = {}
    for index, job in enumerate(jobs):
        q = np.asarray(job.q, dtype=np.int64)
        k = np.asarray(job.k, dtype=np.int64)
        s_q, s_k = q.shape[0], k.shape[0]
        if s_q == 0 or s_k == 0:
            results[index] = _empty_result(job, s_q, s_k)
            continue
        prep = _Prepared(index, job, q, k,
                         int(np.abs(q).max()) if q.size else 0)
        gkey = (q.shape[1], job.magnitude_bits, job.group,
                float(job.margin_scale))
        groups.setdefault(gkey, []).append(prep)

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
        staged: list[_StagedChunk] = []
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
                staged.append(_stage_chunk(
                    band[start:start + per_chunk], spec, dim,
                    s_q_pad, s_k_pad, cache))
        # one margin/termination scan over every chunk's concatenated
        # (padded) score lanes — the scan cost no longer multiplies
        # with the number of shape bands
        _scan_group(staged, spec, margin_scale, results)
    return results


def _job_planes(prep: _Prepared, spec: PlaneSpec,
                cache: PlaneGroupCache | None) -> np.ndarray:
    key = getattr(prep.job, "pack_key", None)
    if cache is not None and key is not None:
        return cache.planes_for(key, prep.k, spec)
    return pack_planes(prep.k, spec)


@dataclass
class _StagedChunk:
    preps: list[_Prepared]
    s_q_pad: int
    s_k_pad: int
    fused: np.ndarray       # (n, s_q_pad, n_groups + 1, s_k_pad)
    positive: np.ndarray    # (n, s_q_pad, s_k_pad), gemm dtype
    thresholds: np.ndarray  # (n,), float64
    qmax: int


def _stage_chunk(chunk: list[_Prepared], spec: PlaneSpec, dim: int,
                 s_q_pad: int, s_k_pad: int,
                 cache: PlaneGroupCache | None) -> _StagedChunk:
    n = len(chunk)
    n_groups = spec.n_groups
    rows_pad = (n_groups + 1) * s_k_pad
    qmax = max(p.qmax for p in chunk)
    # max(..., 2) also covers the |q|@|s| + q@s sum inside `positive`
    f32_ok = qmax * max(spec.field_max, 2) * max(dim, 1) < _F32_EXACT
    gemm_dtype = np.float32 if f32_ok else np.float64

    use_cache = cache is not None and any(
        getattr(p.job, "pack_key", None) is not None for p in chunk)
    if n == 1 and chunk[0].q.shape[0] == s_q_pad \
            and chunk[0].k.shape[0] == s_k_pad:
        # solo fast path: no padding, the plane stack feeds the GEMM
        # as a reshape view instead of a copy
        stacked = _job_planes(chunk[0], spec, cache)
        if stacked.dtype != gemm_dtype:
            stacked = stacked.astype(gemm_dtype)
        q_stack = chunk[0].q.astype(gemm_dtype)[None]
        plane_stack = stacked.reshape(1, rows_pad, dim)
        abs_sign_stack = np.abs(stacked[n_groups])[None]
    elif use_cache:
        # cached path: per-job plane stacks come from the pack-once
        # cache (exact hit or suffix extension) and are copied into
        # the padded band
        q_stack = np.zeros((n, s_q_pad, dim), dtype=gemm_dtype)
        plane_stack = np.zeros((n, rows_pad, dim), dtype=gemm_dtype)
        abs_sign_stack = np.zeros((n, s_k_pad, dim), dtype=gemm_dtype)
        for i, prep in enumerate(chunk):
            s_q, s_k = prep.q.shape[0], prep.k.shape[0]
            stacked = _job_planes(prep, spec, cache)
            q_stack[i, :s_q] = prep.q
            view = plane_stack[i].reshape(n_groups + 1, s_k_pad, dim)
            view[:, :s_k] = stacked
            abs_sign_stack[i, :s_k] = np.abs(stacked[n_groups])
    else:
        # cacheless path: pack the whole padded band in one set of
        # vectorized plane extractions instead of per-job passes
        # (zero-padded K rows pack to all-zero planes, so padding
        # falls out of the same ops)
        # int32 staging halves pack bandwidth, but only while the
        # downcast can't clip sign or masked magnitude bits
        kmax = max(max(int(p.k.max()), -int(p.k.min()))
                   if p.k.size else 0 for p in chunk)
        key_dtype = (np.int32 if spec.magnitude_bits <= 24
                     and kmax < _I32_SAFE else np.int64)
        q_stack = np.zeros((n, s_q_pad, dim), dtype=gemm_dtype)
        k_stack = np.zeros((n, s_k_pad, dim), dtype=key_dtype)
        for i, prep in enumerate(chunk):
            q_stack[i, :prep.q.shape[0]] = prep.q
            k_stack[i, :prep.k.shape[0]] = prep.k
        signs = np.sign(k_stack)
        magnitudes = np.abs(k_stack)
        np.bitwise_and(magnitudes,
                       key_dtype((1 << spec.magnitude_bits) - 1),
                       out=magnitudes)
        plane_stack = np.empty((n, rows_pad, dim), dtype=gemm_dtype)
        view = plane_stack.reshape(n, n_groups + 1, s_k_pad, dim)
        field = np.empty_like(magnitudes)
        for idx, (n_planes, lo) in enumerate(spec.mag_groups):
            np.right_shift(magnitudes, lo, out=field)
            np.bitwise_and(field, key_dtype((1 << n_planes) - 1),
                           out=field)
            np.multiply(field, signs, out=view[:, idx], casting="unsafe")
        view[:, n_groups] = signs
        abs_sign_stack = np.abs(signs).astype(gemm_dtype)

    big = _gemm(q_stack, plane_stack)
    abs_big = _gemm(np.abs(q_stack), abs_sign_stack)
    fused = big.reshape(n, s_q_pad, n_groups + 1, s_k_pad)

    # margin base: sum of q*sign over dims where the product can push
    # the score up = (|q| @ |s|^T + q @ s^T) / 2, all integer-exact
    positive = (abs_big + fused[:, :, n_groups]) * 0.5

    thresholds = np.array([float(p.job.threshold) for p in chunk])
    return _StagedChunk(chunk, s_q_pad, s_k_pad, fused, positive,
                        thresholds, qmax)


def _scan_group(staged: list[_StagedChunk], spec: PlaneSpec,
                margin_scale: float, results: list) -> None:
    n_groups = spec.n_groups
    qmax = max(st.qmax for st in staged)
    dim = staged[0].preps[0].q.shape[1]
    margin_bound = (qmax * max(dim, 1)
                    * max((1 << spec.magnitude_bits) - 1, 1))
    int_scan = (margin_scale == 1.0 and margin_bound < _I32_SAFE)
    if int_scan:
        for st in staged:
            if not (np.isfinite(st.thresholds).all()
                    and (np.abs(st.thresholds) < _I32_SAFE).all()):
                int_scan = False
                break
    if int_scan:
        scan_dtype = np.int32
    else:
        scan_dtype = np.float64

    # concatenate every chunk's (padded) score lanes into flat scan
    # arrays: one fused scale-and-cast copy per plane row per chunk
    # (the 2^lo plane weight is exact in the GEMM dtype: it only
    # shifts the exponent), then a single scan regardless of how many
    # shape bands the group split into
    total = sum(len(st.preps) * st.s_q_pad * st.s_k_pad
                for st in staged)
    plane_flat = np.empty((n_groups, total), dtype=scan_dtype)
    positive_flat = np.empty(total, dtype=scan_dtype)
    th_flat = np.empty(total, dtype=scan_dtype)
    offset = 0
    for st in staged:
        n, sqp, skp = len(st.preps), st.s_q_pad, st.s_k_pad
        pairs = n * sqp * skp
        shape = (n, sqp, skp)
        weight = st.fused.dtype.type
        for g, (_, lo) in enumerate(spec.mag_groups):
            np.multiply(st.fused[:, :, g, :], weight(1 << lo),
                        out=plane_flat[g, offset:offset + pairs]
                        .reshape(shape), casting="unsafe")
        np.copyto(positive_flat[offset:offset + pairs].reshape(shape),
                  st.positive, casting="unsafe")
        if int_scan:
            # lhs is an exact integer, so lhs < th  <=>  lhs < ceil(th)
            th_scan = np.ceil(st.thresholds).astype(np.int32)
        else:
            th_scan = st.thresholds
        np.copyto(th_flat[offset:offset + pairs].reshape(shape),
                  th_scan[:, None, None], casting="unsafe")
        offset += pairs

    partial = np.zeros(total, dtype=scan_dtype)
    margin_buf = np.empty(total, dtype=scan_dtype)
    below = np.empty(total, dtype=bool)
    terminated = np.zeros(total, dtype=bool)
    terminated_cycles = np.zeros(total, dtype=np.int8)
    remaining = spec.magnitude_bits
    cursor = 0
    for cycle_index, (n_planes, _) in enumerate(spec.cycle_groups,
                                                start=1):
        if n_planes:
            np.add(partial, plane_flat[cursor], out=partial)
            cursor += 1
            remaining -= n_planes
        if cycle_index == spec.full_cycles:
            break
        np.multiply(positive_flat, (1 << remaining) - 1,
                    out=margin_buf)
        if margin_scale != 1.0:
            np.multiply(margin_buf, margin_scale, out=margin_buf)
        np.add(margin_buf, partial, out=margin_buf)
        np.less(margin_buf, th_flat, out=below)
        np.logical_or(terminated, below, out=terminated)
        # a score terminated by cycle c contributes 1 for every later
        # boundary, so cycles = full - sum(terminated-by) recovers the
        # first-termination cycle (and full for survivors)
        np.add(terminated_cycles, terminated, out=terminated_cycles,
               casting="unsafe")

    offset = 0
    for st in staged:
        sqp, skp = st.s_q_pad, st.s_k_pad
        for i, prep in enumerate(st.preps):
            s_q, s_k = prep.q.shape[0], prep.k.shape[0]
            threshold = float(prep.job.threshold)
            base = offset + i * sqp * skp
            tile = slice(base, base + sqp * skp)
            scores = (partial[tile].reshape(sqp, skp)[:s_q, :s_k]
                      .astype(np.float64))
            cycles = (spec.full_cycles
                      - terminated_cycles[tile].reshape(sqp, skp)
                      [:s_q, :s_k]).astype(np.int64)
            pruned = (terminated[tile].reshape(sqp, skp)[:s_q, :s_k]
                      | (scores < threshold))
            if prep.job.valid is not None:
                cycles = np.where(prep.job.valid, cycles, 0)
            results[prep.index] = (cycles, pruned, scores)
        offset += len(st.preps) * sqp * skp


__all__ = ["PlaneSpec", "plane_spec", "pack_planes", "PlaneGroupCache",
           "fused_matrix_many"]
