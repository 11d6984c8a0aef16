"""Kernel conformance: the packed kernel and its ``numpy-ref`` oracle.

Both kernels must return ``(cycles, pruned, scores)`` bit-identical to
the scalar reference trace (``bitserial_dot_product``) — these tests
pin that contract on randomized tiles and on the edge cases the tile
simulator actually hits (sign-only first cycles, over-wide groups,
fully-pruned tiles, empty/partial valid masks, aggressive margins).
``test_estimates_match_oracle`` pins it where it matters: whole
hardware estimates, run on the packed kernel and again on the oracle.
"""

import numpy as np
import pytest

from repro.hw.backends import numpy_ref
from repro.hw.bitserial import (bitserial_cycles_matrix,
                                bitserial_dot_product, serial_cycle_count)

# the one-tile entry point of each kernel
KERNELS = {"numpy-ref": numpy_ref.matrix,
           "numpy-packed": bitserial_cycles_matrix}
BACKENDS = list(KERNELS)


def run(name, q, k, threshold, magnitude_bits, group, **kwargs):
    return KERNELS[name](q, k, threshold, magnitude_bits, group, **kwargs)


def scalar_reference(q, k, threshold, magnitude_bits, group):
    cycles = np.empty((q.shape[0], k.shape[0]), dtype=np.int64)
    pruned = np.empty((q.shape[0], k.shape[0]), dtype=bool)
    scores = np.empty((q.shape[0], k.shape[0]), dtype=np.float64)
    for i in range(q.shape[0]):
        for j in range(k.shape[0]):
            trace = bitserial_dot_product(q[i], k[j], threshold,
                                          magnitude_bits, group)
            cycles[i, j] = trace.cycles
            pruned[i, j] = trace.pruned
            scores[i, j] = trace.exact_value
    return cycles, pruned, scores


def assert_matches(actual, expected, context=""):
    for ours, theirs, name in zip(actual, expected,
                                  ("cycles", "pruned", "scores")):
        np.testing.assert_array_equal(ours, theirs,
                                      err_msg=f"{name} {context}")


# ---------------------------------------------------------------------------
# randomized conformance against the scalar trace
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", BACKENDS)
def test_matches_scalar_trace_randomized(backend):
    """Property: on random tiles across bit widths, group sizes and
    thresholds, the backend equals the per-pair scalar trace."""
    rng = np.random.default_rng(17)
    for trial in range(25):
        s_q = int(rng.integers(1, 14))
        s_k = int(rng.integers(1, 14))
        dim = int(rng.integers(1, 24))
        magnitude_bits = int(rng.integers(1, 13))
        group = int(rng.integers(1, magnitude_bits + 3))
        limit = (1 << magnitude_bits) - 1
        q = rng.integers(-2047, 2048, (s_q, dim))
        k = rng.integers(-limit, limit + 1, (s_k, dim))
        threshold = float(rng.integers(-40_000, 40_000))
        result = run(backend, q, k, threshold, magnitude_bits, group)
        expected = scalar_reference(q, k, threshold, magnitude_bits,
                                    group)
        assert_matches(result, expected,
                       f"(backend={backend}, trial={trial}, "
                       f"bits={magnitude_bits}, group={group})")


@pytest.mark.parametrize("backend", BACKENDS)
def test_matches_reference_with_huge_queries(backend):
    """Queries far outside the 12-bit datapath (full-precision q is
    part of the contract) must still match numpy-ref bit-for-bit —
    this drives the packed backend's float64 fallback."""
    rng = np.random.default_rng(23)
    q = rng.integers(-(1 << 22), 1 << 22, (6, 16))
    k = rng.integers(-2047, 2048, (7, 16))
    result = run(backend, q, k, 1e9, 11, 2)
    expected = run("numpy-ref", q, k, 1e9, 11, 2)
    assert_matches(result, expected, f"(backend={backend})")


# ---------------------------------------------------------------------------
# edge cases
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("magnitude_bits,group", [(3, 5), (1, 2), (2, 12)])
def test_group_wider_than_magnitude_bits(backend, magnitude_bits, group):
    """A plane group wider than the magnitude field finishes in one
    cycle; cycle counts and prunes must still match the scalar trace."""
    rng = np.random.default_rng(5)
    limit = (1 << magnitude_bits) - 1
    q = rng.integers(-63, 64, (5, 8))
    k = rng.integers(-limit, limit + 1, (6, 8))
    threshold = 40.0
    assert serial_cycle_count(magnitude_bits + 1, group) == 1
    result = run(backend, q, k, threshold, magnitude_bits, group)
    expected = scalar_reference(q, k, threshold, magnitude_bits, group)
    assert_matches(result, expected, f"(backend={backend})")
    assert (result[0] == 1).all()            # single-cycle schedule


@pytest.mark.parametrize("backend", BACKENDS)
def test_all_scores_pruned(backend):
    """An unreachable threshold prunes everything; early termination
    must still charge at least the sign cycle per score."""
    rng = np.random.default_rng(11)
    q = rng.integers(-2047, 2048, (8, 16))
    k = rng.integers(-2047, 2048, (9, 16))
    cycles, pruned, scores = run(backend, q, k, 1e12, 11, 2)
    assert pruned.all()
    assert (scores < 1e12).all()
    assert (cycles >= 1).all()
    assert (cycles < serial_cycle_count(12, 2)).all()
    expected = scalar_reference(q, k, 1e12, 11, 2)
    assert_matches((cycles, pruned, scores), expected,
                   f"(backend={backend})")


@pytest.mark.parametrize("backend", BACKENDS)
def test_empty_valid_mask_zeroes_all_cycles(backend):
    rng = np.random.default_rng(13)
    q = rng.integers(-100, 100, (4, 8))
    k = rng.integers(-100, 100, (5, 8))
    valid = np.zeros((4, 5), dtype=bool)
    cycles, pruned, scores = run(backend, q, k, 0.0, 6, 2, valid=valid)
    assert (cycles == 0).all()
    # prune decisions and scores are still computed for the whole tile
    np.testing.assert_array_equal(pruned, scores < 0.0)


@pytest.mark.parametrize("backend", BACKENDS)
def test_partial_valid_mask(backend):
    """Invalid positions report zero cycles; valid positions are
    untouched by the mask (identical to the unmasked run)."""
    rng = np.random.default_rng(19)
    q = rng.integers(-512, 512, (6, 12))
    k = rng.integers(-512, 512, (6, 12))
    valid = np.tril(np.ones((6, 6), dtype=bool))     # causal mask
    threshold = 1000.0
    cycles, pruned, scores = run(backend, q, k, threshold, 9, 2,
                                 valid=valid)
    unmasked = run(backend, q, k, threshold, 9, 2)
    assert (cycles[~valid] == 0).all()
    np.testing.assert_array_equal(cycles[valid], unmasked[0][valid])
    np.testing.assert_array_equal(pruned, unmasked[1])
    np.testing.assert_array_equal(scores, unmasked[2])


@pytest.mark.parametrize("backend", BACKENDS)
def test_margin_scale_below_one_misprune_accounting(backend):
    """Aggressive margins (< 1) may wrongly prune but never miss a
    true prune, spend monotonically fewer cycles, and must agree with
    numpy-ref exactly at every scale."""
    rng = np.random.default_rng(7)
    q = rng.integers(-2047, 2048, (16, 24))
    k = rng.integers(-2047, 2048, (16, 24))
    threshold = 60_000.0
    exact = (q @ k.T) < threshold
    totals, wrong, missed = {}, {}, {}
    for scale in (1.0, 0.5, 0.25, 0.0):
        cycles, pruned, scores = run(backend, q, k, threshold, 11, 2,
                                     margin_scale=scale)
        reference = run("numpy-ref", q, k, threshold, 11, 2,
                        margin_scale=scale)
        assert_matches((cycles, pruned, scores), reference,
                       f"(backend={backend}, margin_scale={scale})")
        totals[scale] = int(cycles.sum())
        wrong[scale] = int((pruned & ~exact).sum())
        missed[scale] = int((~pruned & exact).sum())
    assert wrong[1.0] == 0                   # conservative margin: exact
    assert all(count == 0 for count in missed.values())
    scales = (1.0, 0.5, 0.25, 0.0)
    assert all(totals[a] >= totals[b]
               for a, b in zip(scales, scales[1:]))
    assert all(wrong[a] <= wrong[b]
               for a, b in zip(scales, scales[1:]))


@pytest.mark.parametrize("backend", BACKENDS)
def test_matches_tile_simulator_shapes(backend):
    """The exact call shape TileSimulator makes (12-bit datapath,
    serial_bits group, causal valid) agrees across kernels."""
    rng = np.random.default_rng(29)
    q = rng.integers(-2047, 2048, (10, 64))
    k = rng.integers(-2047, 2048, (10, 64))
    valid = np.tril(np.ones((10, 10), dtype=bool))
    result = run(backend, q, k, 30_000.0, 11, 2, valid=valid)
    expected = run("numpy-ref", q, k, 30_000.0, 11, 2, valid=valid)
    assert_matches(result, expected, f"(backend={backend})")


# ---------------------------------------------------------------------------
# whole estimates: the simulator on the packed kernel vs on the oracle
# ---------------------------------------------------------------------------

def _classify_records():
    """Per-request attention records of classify traffic coalesced
    four to a batch (padded, mixed lengths)."""
    from tests.test_serving import (MAX_SEQ, make_classifier_engine,
                                    serve_classify)

    engine = make_classifier_engine(0)
    rng = np.random.default_rng(13)
    requests = [rng.integers(0, 50, size=int(n))
                for n in rng.integers(1, MAX_SEQ + 1, size=6)]
    results, _ = serve_classify(engine, requests, max_batch_size=4)
    return engine, [result.records for result in results]


def _decode_records():
    """Per-stream records of LM streams served four at a time: each
    stream's prefill plus one record per layer per decode step."""
    from tests.test_serving import make_lm_engine, serve_streams

    engine = make_lm_engine(0)
    engine.controller.set_threshold_values(np.full(2, -0.3))
    rng = np.random.default_rng(5)
    prompts = [rng.integers(1, 40, size=int(n))
               for n in rng.integers(1, 9, size=5)]
    results, _ = serve_streams(engine, prompts, 6, max_batch_size=4)
    return engine, [result.records for result in results]


def _paper_scale_records():
    """One causal S = 512 head (the paper's long-sequence regime)."""
    from repro.models.attention import AttentionRecord
    from tests.test_serving import make_classifier_engine

    rng = np.random.default_rng(3)
    q, k = rng.standard_normal((2, 1, 1, 512, 64))
    record = AttentionRecord(
        layer_index=0, scores=q @ k.swapaxes(-1, -2), pruned_mask=None,
        threshold=0.5, valid=np.tril(np.ones((1, 512, 512), dtype=bool)),
        queries=q, keys=k)
    return make_classifier_engine(0), [[record]]


# 20-bit datapath: requantized queries reach |q| = 2^19 - 1, past the
# float32 GEMM window (qmax * 3 * 64 >= 2^24) and the int32 scan window
WIDE = {"qk_bits": 20}


@pytest.mark.parametrize("build,wide", [
    (_classify_records, False), (_decode_records, False),
    (_paper_scale_records, True)],
    ids=["classify", "decode", "paper-scale"])
def test_estimates_match_oracle(build, wide, monkeypatch):
    """``estimate_many`` gives the same ``HardwareEstimate`` and
    ``TileCounters`` on the packed kernel as with the numpy-ref oracle
    swapped in for ``repro.hw.tile.kernel``."""
    import dataclasses

    from repro.hw import AE_LEOPARD, TileSimulator, tile
    from repro.hw.backends import packed_common
    from repro.hw.workload import jobs_from_records

    engine, groups = build()
    config = (dataclasses.replace(AE_LEOPARD, **WIDE) if wide
              else AE_LEOPARD)

    def estimate():
        simulator = TileSimulator(config)
        counters = [simulator.run(jobs_from_records(records)).counters
                    for records in groups]
        return engine.estimate_many(groups, config), counters

    gemm_dtypes = []
    gemm = packed_common._gemm

    def recording_gemm(a, b, **kwargs):
        gemm_dtypes.append(a.dtype)
        return gemm(a, b, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(packed_common, "_gemm", recording_gemm)
        packed = estimate()
    oracle_jobs = []

    def oracle(jobs):
        oracle_jobs.extend(jobs)
        return numpy_ref.matrix_many(jobs)

    monkeypatch.setattr(tile, "kernel", oracle)
    reference = estimate()
    assert oracle_jobs, "the oracle must stand in for the kernel"
    assert set(gemm_dtypes) == {np.dtype(np.float64 if wide
                                         else np.float32)}
    assert packed == reference
    estimates, counters = packed
    assert len(estimates) == len(counters) == len(groups)
    assert all(0 < c.scores_pruned < c.scores_total for c in counters)
