"""Batched-kernel conformance: ``matrix_many`` vs per-job ``matrix``.

The fused cross-job path (and every backend's batched entry point,
fallback loop included) must return the row activity of calling
``matrix`` per job, bit for bit — regardless of how jobs are banded,
padded, chunked, or whether their packed planes came from a cache.
These tests pin that contract on randomized mixed-shape job sets
including every edge case the solo conformance matrix covers
(all-pruned, empty/partial valid masks, huge-q float64 fallback,
aggressive margins), plus the pack-once cache's reuse/invalidation
semantics.
"""

import numpy as np
import pytest

from repro.hw import backends
from repro.hw.backends import (KernelJob, PlaneGroupCache,
                               matrix_many_loop, run_many)
from repro.hw.backends.packed_common import (fused_matrix_many,
                                             pack_planes, plane_spec)

BACKENDS = ("numpy-ref", "numpy-packed")


def assert_job_matches(actual, expected, context=""):
    for ours, theirs, name in zip(actual, expected,
                                  ("cycles", "pruned", "scores")):
        np.testing.assert_array_equal(ours, theirs,
                                      err_msg=f"{name} {context}")


def assert_activity_matches(actual, expected, context=""):
    for name in ("rows", "counts", "bits"):
        ours, theirs = getattr(actual, name), getattr(expected, name)
        assert ours.dtype == theirs.dtype == np.int64, f"{name} {context}"
        np.testing.assert_array_equal(ours, theirs,
                                      err_msg=f"{name} {context}")


def matrix_loop(backend, jobs):
    """Each job's ``(cycles, pruned, scores)`` tile."""
    return [backend.matrix(job.q, job.k, job.threshold,
                           job.magnitude_bits, job.group, valid=job.valid,
                           margin_scale=job.margin_scale)
            for job in jobs]


def mixed_jobs(rng, count=24, dim_choices=(8, 16, 64)):
    """A serving-step-shaped job mix: mixed shapes/dims/bit-widths,
    causal and empty valid masks, unreachable and -inf thresholds,
    aggressive margins, and huge-q float64-fallback tiles."""
    jobs = []
    for index in range(count):
        dim = int(rng.choice(dim_choices))
        s_q = int(rng.integers(1, 7))
        s_k = int(rng.integers(1, 40))
        magnitude_bits = int(rng.choice((5, 11)))
        group = int(rng.choice((1, 2, 4)))
        limit = (1 << magnitude_bits) - 1
        if index % 7 == 6:          # huge queries: float64 fallback
            q = rng.integers(-(1 << 22), 1 << 22, (s_q, dim))
        else:
            q = rng.integers(-limit, limit + 1, (s_q, dim))
        k = rng.integers(-limit, limit + 1, (s_k, dim))
        threshold = {0: float(rng.integers(-40_000, 40_000)),
                     1: 1e12,       # everything pruned
                     2: -np.inf,    # nothing pruned
                     }[index % 3]
        valid = None
        if index % 4 == 1:
            valid = rng.random((s_q, s_k)) < 0.6
        elif index % 4 == 3:
            valid = np.zeros((s_q, s_k), dtype=bool)
        margin_scale = 0.5 if index % 5 == 4 else 1.0
        jobs.append(KernelJob(
            q=q, k=k, threshold=threshold,
            magnitude_bits=magnitude_bits, group=group, valid=valid,
            margin_scale=margin_scale))
    # degenerate shapes ride along in every mix
    empty = np.zeros((0, 8), dtype=np.int64)
    some = rng.integers(-15, 16, (3, 8))
    jobs.append(KernelJob(q=empty, k=some, threshold=0.0,
                          magnitude_bits=5, group=2))
    jobs.append(KernelJob(q=some, k=empty, threshold=0.0,
                          magnitude_bits=5, group=2))
    return jobs


# ---------------------------------------------------------------------------
# matrix_many == per-job matrix, for every registered backend
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", BACKENDS)
def test_matrix_many_matches_per_job_loop(backend):
    """The batched entry point is bit-identical to the per-job
    ``matrix`` loop on randomized mixed-shape job sets."""
    resolved = backends.get_backend(backend)
    for seed in (0, 1, 2):
        jobs = mixed_jobs(np.random.default_rng(seed))
        fused = run_many(resolved, jobs)
        loop = matrix_many_loop(resolved, jobs)
        assert len(fused.rows) == len(fused.bits) == len(jobs)
        assert_activity_matches(fused, loop,
                                f"(backend={backend}, seed={seed})")


@pytest.mark.parametrize("backend", BACKENDS)
def test_matrix_many_matches_reference_backend(backend):
    """Cross-backend: every backend's batched results equal the
    numpy-ref per-job loop (transitively pins the fused GEMM to the
    scalar trace the solo matrix conformance already covers)."""
    jobs = mixed_jobs(np.random.default_rng(7), count=16)
    reference = matrix_many_loop(backends.get_backend("numpy-ref"), jobs)
    fused = run_many(backends.get_backend(backend), jobs)
    assert_activity_matches(fused, reference, f"(backend={backend})")


def test_run_many_empty_and_fallback():
    """run_many on no jobs is an empty activity; backends without a
    fused tier silently fall back to the per-job loop."""
    for name in BACKENDS:
        empty = run_many(backends.get_backend(name), [])
        assert empty.rows.shape == empty.bits.shape == (0,)
        assert empty.counts.shape == (4, 0)

    class LoopOnly:
        name = "loop-only"
        description = "no matrix_many attribute"

        @staticmethod
        def matrix(q, k, threshold, magnitude_bits, group, valid=None,
                   margin_scale=1.0):
            return backends.get_backend("numpy-ref").matrix(
                q, k, threshold, magnitude_bits, group, valid=valid,
                margin_scale=margin_scale)

    jobs = mixed_jobs(np.random.default_rng(3), count=6)
    fused = run_many(LoopOnly(), jobs)
    reference = matrix_many_loop(backends.get_backend("numpy-ref"), jobs)
    assert_activity_matches(fused, reference, "(loop fallback)")


def test_narrow_integer_inputs_match_int64():
    """int16 tiles (what the quantizers emit) give the int64 tiles'
    activity, including keys at the int16 extremes, whose magnitude
    int16 cannot hold."""
    rng = np.random.default_rng(17)
    wide = mixed_jobs(rng, count=12)
    for job in wide[:3]:
        job.k[0, :2] = (-(1 << 15), (1 << 15) - 1)
    narrow = [KernelJob(q=np.asarray(job.q).astype(np.int16),
                        k=np.asarray(job.k).astype(np.int16),
                        threshold=job.threshold,
                        magnitude_bits=job.magnitude_bits, group=job.group,
                        valid=job.valid, margin_scale=job.margin_scale)
              for job in wide if np.abs(job.q).max(initial=0) < 1 << 15]
    reference = matrix_many_loop(backends.get_backend("numpy-ref"), narrow)
    assert_activity_matches(fused_matrix_many(narrow), reference)


def test_fused_cached_matches_uncached():
    """The same job set through a warm pack cache is bit-identical to
    the cacheless fused path and to the per-job loop."""
    rng = np.random.default_rng(11)
    jobs = [KernelJob(q=rng.integers(-2047, 2048, (2, 32)),
                      k=rng.integers(-2047, 2048, (s_k, 32)),
                      threshold=float(rng.integers(-5000, 5000)),
                      magnitude_bits=11, group=2,
                      pack_key=("stream", i))
            for i, s_k in enumerate((12, 20, 12, 33, 20, 7))]
    cache = PlaneGroupCache()
    cold = fused_matrix_many(jobs, cache=cache)
    warm = fused_matrix_many(jobs, cache=cache)
    bare = fused_matrix_many(jobs)
    loop = matrix_many_loop(backends.get_backend("numpy-ref"), jobs)
    assert_activity_matches(cold, loop, "(cold)")
    assert_activity_matches(warm, loop, "(warm)")
    assert_activity_matches(bare, loop, "(bare)")
    assert cache.stats()["hits"] > 0


# ---------------------------------------------------------------------------
# the float32 GEMM window: qmax * max(2^group - 1, 2) * D < 2^24
# ---------------------------------------------------------------------------

# (largest |q|, GEMM dtype) at D = 64, 12-bit datapath, 2 planes per
# cycle: 2047 is the serving datapath, 87381 * 3 * 64 = 2^24 - 64 is
# the last qmax inside the window, 87382 the first past it
F32_EDGE = [(2047, np.float32), (87381, np.float32), (87382, np.float64)]


def _window_jobs(qmax, rng):
    """Jobs whose plane-group GEMMs reach the window's bound: every
    |q| = qmax and every |k| = 2047 (all plane fields 3) with matching
    signs, so each dot product sums 64 maximal same-sign terms, plus
    random tiles, a causal mask and a decode-shaped grown-K pair."""
    dim = 64
    signs = rng.choice((-1, 1), dim)
    q_max = np.tile(signs * qmax, (3, 1))
    k_max = np.tile(signs * 2047, (5, 1))
    k_max[1] = -k_max[1]                        # most negative score
    jobs = [KernelJob(q=q_max, k=k_max, threshold=0.0,
                      magnitude_bits=11, group=2, pack_key=("max", 0))]
    for index in range(4):
        s_q = int(rng.integers(1, 9))
        s_k = int(rng.integers(1, 24))
        q = rng.integers(-qmax, qmax + 1, (s_q, dim))
        q[0, 0] = qmax
        k = rng.integers(-2047, 2048, (s_k, dim))
        valid = (np.tril(np.ones((s_q, s_k), dtype=bool))
                 if index == 1 else None)
        jobs.append(KernelJob(
            q=q, k=k, threshold=float(rng.integers(-qmax, qmax) * 3000),
            magnitude_bits=11, group=2, valid=valid,
            pack_key=("rand", index)))
    grown = rng.integers(-2047, 2048, (12, dim))
    for s_k in (8, 12):                         # K grows by a suffix
        q = rng.integers(-qmax, qmax + 1, (1, dim))
        q[0, 0] = -qmax
        jobs.append(KernelJob(
            q=q, k=grown[:s_k], threshold=0.0, magnitude_bits=11,
            group=2, pack_key=("grown", 0)))
    return jobs


@pytest.mark.parametrize("qmax,dtype", F32_EDGE)
def test_f32_window_edge_is_bit_identical(qmax, dtype, monkeypatch):
    """On both sides of the float32 window's edge, the packed kernel
    picks the expected GEMM dtype and stays bit-identical to numpy-ref
    through ``matrix`` (the tiles) and ``fused_matrix_many`` (the row
    activity), cached or not."""
    from repro.hw.backends import packed_common

    seen = []
    gemm = packed_common._gemm

    def recording_gemm(a, b, **kwargs):
        seen.append(a.dtype)
        return gemm(a, b, **kwargs)

    monkeypatch.setattr(packed_common, "_gemm", recording_gemm)
    jobs = _window_jobs(qmax, np.random.default_rng(qmax))
    reference = matrix_loop(backends.get_backend("numpy-ref"), jobs)
    activity = matrix_many_loop(backends.get_backend("numpy-ref"), jobs)
    packed = backends.get_backend("numpy-packed")
    solo = matrix_loop(packed, jobs)
    bare = fused_matrix_many(jobs)
    cache = PlaneGroupCache()
    cold = fused_matrix_many(jobs, cache=cache)
    warm = fused_matrix_many(jobs, cache=cache)
    assert cache.stats()["hits"] > 0 and cache.stats()["extended"] > 0
    assert seen and set(seen) == {np.dtype(dtype)}
    for i, expected in enumerate(reference):
        assert_job_matches(solo[i], expected,
                           f"(qmax={qmax}, matrix, job={i})")
    for name, result in (("bare", bare), ("cold", cold), ("warm", warm)):
        assert_activity_matches(result, activity, f"(qmax={qmax}, {name})")
    # the all-maximal tile really reaches the window's bound
    assert reference[0][2].max() == qmax * 2047 * 64


# ---------------------------------------------------------------------------
# pack-once plane-group cache semantics
# ---------------------------------------------------------------------------

def test_cache_hit_extend_invalidate():
    """Exact-match keys hit; suffix-grown K extends (packs only the
    new rows); any other content change is a miss that repacks."""
    rng = np.random.default_rng(19)
    spec = plane_spec(11, 2)
    cache = PlaneGroupCache()
    k = rng.integers(-2047, 2048, (10, 16))

    first = cache.planes_for("s0", k, spec)
    np.testing.assert_array_equal(first, pack_planes(k, spec))
    assert cache.stats() == {"hits": 0, "extended": 0, "misses": 1,
                             "entries": 1}

    again = cache.planes_for("s0", k, spec)
    np.testing.assert_array_equal(again, first)
    assert cache.stats()["hits"] == 1

    # decode step: two new key rows appended — extend, not repack
    grown = np.concatenate([k, rng.integers(-2047, 2048, (2, 16))])
    extended = cache.planes_for("s0", grown, spec)
    np.testing.assert_array_equal(extended, pack_planes(grown, spec))
    assert cache.stats()["extended"] == 1

    # same shape, different content (e.g. requant after a new peak):
    # stale reuse must be impossible — exact validation forces a miss
    changed = grown.copy()
    changed[0, 0] += 1
    repacked = cache.planes_for("s0", changed, spec)
    np.testing.assert_array_equal(repacked, pack_planes(changed, spec))
    assert cache.stats()["misses"] == 2

    # a shrunk K (prefix no longer matches row count) also repacks
    shrunk = cache.planes_for("s0", k[:4], spec)
    np.testing.assert_array_equal(shrunk, pack_planes(k[:4], spec))
    assert cache.stats()["misses"] == 3


def test_cache_distinguishes_spec_and_key():
    """One stream key at two bit-widths packs twice; distinct keys
    never share entries."""
    rng = np.random.default_rng(23)
    cache = PlaneGroupCache()
    k = rng.integers(-31, 32, (6, 8))
    a = cache.planes_for(("s", 0), k, plane_spec(5, 2))
    b = cache.planes_for(("s", 0), k, plane_spec(5, 1))
    c = cache.planes_for(("s", 1), k, plane_spec(5, 2))
    assert cache.stats()["misses"] == 3
    np.testing.assert_array_equal(a, pack_planes(k, plane_spec(5, 2)))
    np.testing.assert_array_equal(b, pack_planes(k, plane_spec(5, 1)))
    np.testing.assert_array_equal(c, a)


def test_cache_lru_eviction_bounds_memory():
    rng = np.random.default_rng(29)
    cache = PlaneGroupCache(max_entries=4)
    spec = plane_spec(5, 2)
    keys = [f"k{i}" for i in range(6)]
    for key in keys:
        cache.planes_for(key, rng.integers(-31, 32, (4, 8)), spec)
    assert len(cache) == 4
    cache.clear()
    assert len(cache) == 0 and cache.stats()["misses"] == 0


def test_decode_shaped_reuse_hits_cache():
    """A growing-K decode loop over several streams mostly extends
    instead of repacking, and stays bit-identical to cacheless runs."""
    rng = np.random.default_rng(31)
    cache = PlaneGroupCache()
    backend = backends.get_backend("numpy-packed")
    streams = {s: rng.integers(-2047, 2048, (8, 32)) for s in range(4)}
    for step in range(6):
        jobs = []
        for s, k in streams.items():
            q = rng.integers(-2047, 2048, (1, 32))
            jobs.append(KernelJob(q=q, k=k, threshold=500.0,
                                  magnitude_bits=11, group=2,
                                  pack_key=("stream", s)))
        cached = run_many(backend, jobs, cache=cache)
        plain = matrix_many_loop(backend, jobs)
        assert_activity_matches(cached, plain, f"(step={step})")
        streams = {s: np.concatenate(
            [k, rng.integers(-2047, 2048, (1, 32))])
            for s, k in streams.items()}
    stats = cache.stats()
    assert stats["extended"] >= 4 * 5       # every post-first step
    assert stats["misses"] == 4             # one cold pack per stream


# ---------------------------------------------------------------------------
# simulator / estimator integration
# ---------------------------------------------------------------------------

def _recorded_jobs(seed=0):
    from repro.hw.workload import job_from_arrays

    rng = np.random.default_rng(seed)
    jobs = []
    for i in range(5):
        s = int(rng.integers(2, 7))
        job = job_from_arrays(rng.standard_normal((s, 16)),
                              rng.standard_normal((s + 3, 16)),
                              threshold=-0.5, layer_index=i % 2, head=i)
        job.metadata["pack_key"] = ("g", i % 2, i)
        jobs.append(job)
    return jobs


def test_tile_simulator_shared_cache_is_bit_identical():
    """TileSimulator results do not depend on whether a pack cache is
    fresh, shared, or pre-warmed by earlier runs."""
    from repro.hw import AE_LEOPARD, TileSimulator

    jobs = _recorded_jobs()
    solo = TileSimulator(AE_LEOPARD, backend="numpy-packed").run(jobs)
    shared_cache = PlaneGroupCache()
    shared = TileSimulator(AE_LEOPARD, backend="numpy-packed",
                           pack_cache=shared_cache)
    first = shared.run(jobs)
    warm = shared.run(jobs)         # second run: all planes cached
    assert shared_cache.stats()["hits"] > 0
    for result in (first, warm):
        assert result.total_cycles == solo.total_cycles
        assert vars(result.counters) == vars(solo.counters)


def test_estimate_many_pack_groups_are_bit_identical():
    """estimate_many with a persistent cache and stable pack groups
    returns the same estimates as solo estimate_from_records calls."""
    import repro.serve.__main__ as serve_main
    from repro.hw import AE_LEOPARD

    engine = serve_main.build_classifier_engine()
    groups = []
    for seed in (0, 1):
        rng = np.random.default_rng(seed)
        inputs = rng.integers(0, 64, (1, 6))
        mask = np.ones((1, 6), dtype=bool)
        _, records = engine.run_recorded(
            lambda: engine.logits_for(inputs, mask))
        groups.append(records)
    from dataclasses import replace
    config = replace(AE_LEOPARD, kernel_backend="numpy-packed")
    cache = PlaneGroupCache()
    batched = engine.estimate_many(groups, config, pack_cache=cache,
                                   pack_groups=["a", "b"])
    # repeat with the warm cache: decode-style reuse, same numbers
    warm = engine.estimate_many(groups, config, pack_cache=cache,
                                pack_groups=["a", "b"])
    solos = [engine.estimate_from_records(records, config)
             for records in groups]
    assert cache.stats()["hits"] > 0
    for estimate, again, solo in zip(batched, warm, solos):
        assert estimate == solo
        assert again == solo
