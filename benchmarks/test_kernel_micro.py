"""Micro-benchmark: the kernel perf ladder.

The hot path of every hardware experiment is
``bitserial_cycles_matrix``; this bench pins two perf baselines while
requiring identical results at each rung:

* the vectorized kernel beats the per-element scalar trace by >= 10x
  on a realistic tile;
* the ``numpy-packed`` backend beats ``numpy-ref`` by >= 2x at a
  paper-scale S=512 tile (the CI gate for the packed fast path);
* the fused ``matrix_many`` path beats the per-job ``matrix`` loop on
  a serving-shaped decode mix: >= 1.5x with a warm pack cache (the
  headline cross-job fusion gate) and >= 1.1x cacheless (the
  regression floor for banding/batch-packing alone), each the median
  of interleaved per-round ratios.

When ``REPRO_BENCH_DIR`` is set (CI does), each gate also appends its
measured numbers to a versioned ``BENCH_kernel_micro.json`` artifact.
"""

import time

import numpy as np

from repro.eval import record_bench
from repro.hw.backends import (KernelJob, PlaneGroupCache, get_backend,
                               matrix_many_loop, run_many)
from repro.hw.bitserial import bitserial_cycles_matrix, bitserial_dot_product

TILE = 48
DIM = 64
MAGNITUDE_BITS = 11
GROUP = 2
THRESHOLD = 100_000.0

PAPER_TILE = 512                 # the paper's long-sequence regime
PACKED_MIN_SPEEDUP = 2.0
FUSED_CACHED_MIN_SPEEDUP = 1.5   # warm pack cache, decode-shaped mix
FUSED_COLD_MIN_SPEEDUP = 1.1     # cacheless fusion regression floor
FUSED_ROUNDS = 21                # interleaved rounds per fused gate


def _make_tile():
    rng = np.random.default_rng(0)
    q = rng.integers(-2047, 2048, (TILE, DIM))
    k = rng.integers(-2047, 2048, (TILE, DIM))
    return q, k


def _scalar_reference(q, k):
    cycles = np.empty((q.shape[0], k.shape[0]), dtype=np.int64)
    pruned = np.empty((q.shape[0], k.shape[0]), dtype=bool)
    for i in range(q.shape[0]):
        for j in range(k.shape[0]):
            trace = bitserial_dot_product(q[i], k[j], THRESHOLD,
                                          MAGNITUDE_BITS, GROUP)
            cycles[i, j] = trace.cycles
            pruned[i, j] = trace.pruned
    return cycles, pruned


def test_kernel_micro_speedup(benchmark):
    q, k = _make_tile()
    cycles_vec, pruned_vec, _ = benchmark(
        lambda: bitserial_cycles_matrix(q, k, THRESHOLD, MAGNITUDE_BITS,
                                        GROUP))

    start = time.perf_counter()
    cycles_ref, pruned_ref = _scalar_reference(q, k)
    scalar_seconds = time.perf_counter() - start

    # identical semantics ...
    np.testing.assert_array_equal(cycles_vec, cycles_ref)
    np.testing.assert_array_equal(pruned_vec, pruned_ref)

    # ... at >= 10x the throughput (typically far more)
    vector_seconds = benchmark.stats.stats.mean
    speedup = scalar_seconds / vector_seconds
    print(f"\nvectorized {vector_seconds * 1e3:.2f} ms vs scalar "
          f"{scalar_seconds * 1e3:.1f} ms -> {speedup:.0f}x")
    assert speedup >= 10.0


def _best_of(fn, rounds: int = 5) -> float:
    fn()                                     # warm up out of the timing
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_packed_backend_speedup_at_paper_scale():
    """CI gate: ``numpy-packed`` must hold >= 2x over ``numpy-ref`` at
    S_q = S_k = 512 while staying bit-identical."""
    rng = np.random.default_rng(1)
    q = rng.integers(-2047, 2048, (PAPER_TILE, DIM))
    k = rng.integers(-2047, 2048, (PAPER_TILE, DIM))
    threshold = 120_000.0
    ref = get_backend("numpy-ref")
    packed = get_backend("numpy-packed")

    ref_result = ref.matrix(q, k, threshold, MAGNITUDE_BITS, GROUP)
    packed_result = packed.matrix(q, k, threshold, MAGNITUDE_BITS, GROUP)
    for ours, theirs, name in zip(packed_result, ref_result,
                                  ("cycles", "pruned", "scores")):
        np.testing.assert_array_equal(ours, theirs, err_msg=name)

    ref_seconds = _best_of(
        lambda: ref.matrix(q, k, threshold, MAGNITUDE_BITS, GROUP))
    packed_seconds = _best_of(
        lambda: packed.matrix(q, k, threshold, MAGNITUDE_BITS, GROUP))
    speedup = ref_seconds / packed_seconds
    print(f"\nnumpy-packed {packed_seconds * 1e3:.1f} ms vs numpy-ref "
          f"{ref_seconds * 1e3:.1f} ms at S={PAPER_TILE} "
          f"-> {speedup:.2f}x")
    record_bench("kernel_micro", {
        "gate": "packed_vs_ref_paper_scale",
        "ref_seconds": ref_seconds, "packed_seconds": packed_seconds,
        "speedup": speedup,
    }, context={"tile": PAPER_TILE, "dim": DIM,
                "magnitude_bits": MAGNITUDE_BITS, "group": GROUP})
    assert speedup >= PACKED_MIN_SPEEDUP


def _serving_step_jobs(streams: int = 96):
    """A decode-regime serving step: one short-q job per live stream
    against that stream's grown key cache (mixed context lengths,
    shared head dim) — the shape ``run_many`` fuses in production."""
    rng = np.random.default_rng(2)
    jobs = []
    for stream in range(streams):
        s_q = int(rng.integers(1, 5))
        s_k = int(rng.integers(48, 129))
        q = rng.integers(-2047, 2048, (s_q, DIM))
        k = rng.integers(-2047, 2048, (s_k, DIM))
        jobs.append(KernelJob(
            q=q, k=k, threshold=float(rng.integers(50_000, 150_000)),
            magnitude_bits=MAGNITUDE_BITS, group=GROUP,
            pack_key=("stream", stream)))
    return jobs


def _interleaved_seconds(timed: dict,
                         rounds: int = FUSED_ROUNDS) -> dict:
    """Wall time of every callable in ``timed`` over ``rounds`` rounds,
    each timed once per round with the order flipped every other
    round.  Interleaving exposes a round's calls to the same host load,
    so per-round ratios cancel it, and their median shrugs off the
    rounds a busy host disturbs — a best-of per side can pair a lucky
    reference with an unlucky candidate."""
    for fn in timed.values():
        fn()                                 # warm up out of the timing
    seconds = {name: [] for name in timed}
    for index in range(rounds):
        order = list(timed) if index % 2 == 0 else list(timed)[::-1]
        for name in order:
            start = time.perf_counter()
            timed[name]()
            seconds[name].append(time.perf_counter() - start)
    return {name: np.array(times) for name, times in seconds.items()}


def test_fused_many_speedup_at_serving_shapes():
    """CI gate: on a decode-shaped job mix, fused ``matrix_many`` must
    hold >= 1.1x over the per-job loop cold and >= 1.5x with a warm
    pack-once cache, while staying bit-identical to the loop.  Each
    speedup is the median of interleaved per-round ratios."""
    packed = get_backend("numpy-packed")
    jobs = _serving_step_jobs()

    loop_results = matrix_many_loop(packed, jobs)
    fused_results = run_many(packed, jobs)
    for name in ("rows", "counts", "bits"):
        np.testing.assert_array_equal(getattr(fused_results, name),
                                      getattr(loop_results, name),
                                      err_msg=name)

    cache = PlaneGroupCache()
    run_many(packed, jobs, cache=cache)      # warm the pack cache
    seconds = _interleaved_seconds({
        "loop": lambda: matrix_many_loop(packed, jobs),
        "cold": lambda: run_many(packed, jobs),
        "warm": lambda: run_many(packed, jobs, cache=cache)})
    loop_seconds, cold_seconds, warm_seconds = (
        float(np.median(seconds[name])) for name in ("loop", "cold", "warm"))
    cold_speedup = float(np.median(seconds["loop"] / seconds["cold"]))
    warm_speedup = float(np.median(seconds["loop"] / seconds["warm"]))
    print(f"\nfused matrix_many over {len(jobs)} decode jobs "
          f"({FUSED_ROUNDS} interleaved rounds, medians): loop "
          f"{loop_seconds * 1e3:.1f} ms, fused cold "
          f"{cold_seconds * 1e3:.1f} ms ({cold_speedup:.2f}x), fused + "
          f"warm cache {warm_seconds * 1e3:.1f} ms "
          f"({warm_speedup:.2f}x)")
    record_bench("kernel_micro", {
        "gate": "fused_many_serving_shapes",
        "loop_seconds": loop_seconds, "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds, "cold_speedup": cold_speedup,
        "warm_speedup": warm_speedup,
    }, context={"jobs": len(jobs), "dim": DIM,
                "magnitude_bits": MAGNITUDE_BITS, "group": GROUP,
                "rounds": FUSED_ROUNDS})
    assert cold_speedup >= FUSED_COLD_MIN_SPEEDUP
    assert warm_speedup >= FUSED_CACHED_MIN_SPEEDUP
