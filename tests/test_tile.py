"""Tile simulator scheduling: the run-wide activity reductions and the
closed-form baseline tile equal a straightforward per-job schedule.

``per_job_run`` below is the simulator's schedule written one job at a
time (kernel per job, then per-row front/back-end demand with plain
numpy reductions); the simulator must reproduce its every field on
mixed-shape job lists.  The only intended difference: the closed-form
baseline computes no scores, so it reports ``scores_pruned == 0``
(nothing prunes on that tile, and no estimate reads the field).
"""

import dataclasses

import numpy as np
import pytest

from repro.hw import (AE_LEOPARD, HP_LEOPARD, TileSimulator,
                      baseline_like, get_backend)
from repro.hw.bitserial import serial_cycle_count
from repro.hw.tile import TileCounters
from repro.hw.workload import HeadJob, job_from_arrays

BASELINE = baseline_like(AE_LEOPARD)
PRUNING_CONFIGS = {
    "ae": AE_LEOPARD,
    "hp": HP_LEOPARD,
    # runtime pruning only: baseline front end, pruned back end
    "pruning-only": dataclasses.replace(BASELINE, runtime_pruning=True),
    # early termination only: every valid score reaches the back end
    "termination-only": dataclasses.replace(AE_LEOPARD,
                                            runtime_pruning=False),
    # narrower datapath, requantized jobs, 3 planes per cycle
    "9x3": dataclasses.replace(AE_LEOPARD, qk_bits=9, serial_bits=3),
}


def per_job_run(config, jobs):
    """Reference schedule: one kernel call and one activity pass per
    job, summed."""
    backend = get_backend("numpy-ref")
    full = serial_cycle_count(config.qk_bits, config.serial_bits)
    counters = TileCounters()
    total = fe_all = be_all = stall = 0
    for job in jobs:
        q, k, threshold = job.quantized_for(config.magnitude_bits)
        valid = job.valid
        if config.early_termination:
            cycles, pruned, scores = backend.matrix(
                q, k, threshold, config.magnitude_bits,
                config.serial_bits, valid=valid)
        else:
            cycles = np.where(valid, full, 0)
            scores = q.astype(np.float64) @ k.T.astype(np.float64)
            pruned = scores < threshold
        pruned_valid = pruned & valid
        surviving = valid.copy()
        if config.runtime_pruning:
            for i in range(valid.shape[0]):
                if valid[i].any():
                    row_max = scores[i][valid[i]].max()
                    surviving[i] &= (~pruned_valid[i]
                                     | (scores[i] == row_max))
        active = valid.any(axis=1)
        fe = int(np.ceil(cycles.sum(axis=1) / config.num_qk_dpus).sum())
        be = int(np.where(active, config.softmax_latency
                          + surviving.sum(axis=1)
                          * config.vpu_cycles_per_score, 0).sum())
        total += max(fe, be)
        fe_all += fe
        be_all += be
        stall += max(0, be - fe)
        counters.add(TileCounters(
            scores_total=int(valid.sum()),
            scores_pruned=int(pruned_valid.sum()),
            survivors=int(surviving.sum()),
            qk_lane_cycles=int(cycles.sum()),
            qk_bits_processed=int(np.minimum(
                cycles * config.serial_bits, config.qk_bits).sum()),
            rows=int(active.sum()), vpu_busy_cycles=be,
            runtime_cycles=max(fe, be)))
    if jobs:
        fill = config.full_score_cycles() + config.softmax_latency
        total += fill
        counters.runtime_cycles += fill
    return dict(total_cycles=total, frontend_cycles=fe_all,
                backend_cycles=be_all, frontend_stall_cycles=stall,
                counters=vars(counters), jobs=len(jobs))


def run_fields(config, jobs):
    result = TileSimulator(config).run(jobs)
    return dict(total_cycles=result.total_cycles,
                frontend_cycles=result.frontend_cycles,
                backend_cycles=result.backend_cycles,
                frontend_stall_cycles=result.frontend_stall_cycles,
                counters=vars(result.counters), jobs=result.jobs)


def mixed_jobs(seed, count=None, valid_kind="mixed"):
    """Mixed-shape jobs: square prefill tiles, decode rows, partial
    random masks, causal masks, and rows with no valid key."""
    rng = np.random.default_rng(seed)
    count = int(rng.integers(1, 12)) if count is None else count
    jobs = []
    for index in range(count):
        if index % 3 == 0:
            s_q = s_k = int(rng.integers(1, 24))
        elif index % 3 == 1:
            s_q, s_k = 1, int(rng.integers(1, 40))
        else:
            s_q, s_k = int(rng.integers(1, 10)), int(rng.integers(1, 30))
        dim = int(rng.choice((8, 16)))
        kind = (("random", "causal", "rows-invalid")[index % 3]
                if valid_kind == "mixed" else valid_kind)
        if kind == "random":
            valid = rng.random((s_q, s_k)) < 0.7
        elif kind == "causal":
            valid = np.tril(np.ones((s_q, s_k), dtype=bool),
                            k=s_k - s_q)
        elif kind == "rows-invalid":
            valid = np.tril(np.ones((s_q, s_k), dtype=bool))
            valid[rng.random(s_q) < 0.4] = False
        else:                                   # "none": all invalid
            valid = np.zeros((s_q, s_k), dtype=bool)
        jobs.append(job_from_arrays(
            rng.standard_normal((s_q, dim)),
            rng.standard_normal((s_k, dim)),
            threshold=float(rng.normal(0.0, 1.0)), valid=valid,
            layer_index=index % 2, head=index))
    return jobs


def without_pruned(fields):
    counters = dict(fields["counters"], scores_pruned=0)
    return dict(fields, counters=counters)


@pytest.mark.parametrize("valid_kind", ["random", "causal",
                                        "rows-invalid", "none", "mixed"])
def test_closed_form_baseline_matches_per_job(valid_kind):
    """The baseline tile's closed form equals the per-job schedule on
    every field, ``scores_pruned`` aside (0 by construction)."""
    for seed in range(6):
        jobs = mixed_jobs(seed, valid_kind=valid_kind)
        got = run_fields(BASELINE, jobs)
        assert got["counters"]["scores_pruned"] == 0
        assert got == without_pruned(per_job_run(BASELINE, jobs))


def test_closed_form_baseline_empty_job_list():
    assert run_fields(BASELINE, []) == per_job_run(BASELINE, [])
    assert TileSimulator(BASELINE).run([]).total_cycles == 0


@pytest.mark.parametrize("name", sorted(PRUNING_CONFIGS))
def test_vectorised_activity_matches_per_job(name):
    """The run-wide activity reductions equal the per-job schedule on
    mixed-shape job lists, for every pruning/termination mix."""
    config = PRUNING_CONFIGS[name]
    for seed in range(8):
        jobs = mixed_jobs(seed)
        assert run_fields(config, jobs) == per_job_run(config, jobs), \
            f"config={name}, seed={seed}"
    assert run_fields(config, []) == per_job_run(config, [])


def edge_tiles(seed):
    """``(q, k, threshold, valid, margin_scale)`` integer tiles of mixed
    shapes and head dims, with aggressive margins, huge queries (past
    the float32 GEMM window), keyless and queryless tiles, all-invalid
    rows and tied row maxima."""
    rng = np.random.default_rng(seed)
    tiles = []
    for index in range(24):
        # two crowded shape bands, plus any shape
        s_q, s_k = ((int(rng.integers(3, 5)), int(rng.integers(17, 33))),
                    (int(rng.integers(5, 9)), int(rng.integers(9, 17))),
                    (int(rng.integers(1, 12)), int(rng.integers(1, 40))),
                    )[index % 3]
        dim = (8, 16)[index % 2]
        limit = 1 << 22 if index % 6 == 5 else 2047
        q = rng.integers(-limit, limit + 1, (s_q, dim))
        k = rng.integers(-2047, 2048, (s_k, dim))
        valid = rng.random((s_q, s_k)) < 0.8
        valid[rng.random(s_q) < 0.3] = False        # all-invalid rows
        if index % 4 == 0 and s_k > 1:
            k[-1] = k[0]                            # tied row maxima
            valid[:, [0, -1]] = True
        threshold = float(np.percentile(q @ k.T, 60))
        margin_scale = 0.5 if index % 5 == 4 else 1.0
        tiles.append((q, k, threshold, valid, margin_scale))
    empty = np.zeros((0, 8), dtype=np.int64)
    some = rng.integers(-2047, 2048, (3, 8))
    tiles.append((some, empty, 0.0, np.zeros((3, 0), dtype=bool), 1.0))
    tiles.append((empty, some, 0.0, np.zeros((0, 3), dtype=bool), 1.0))
    return tiles


def test_vectorised_activity_spans_chunks(monkeypatch):
    """With chunks capped small, job lists split into several shape
    bands and several chunks per band; the fused row activity still
    equals the numpy-ref ``matrix`` loop's, and ``TileSimulator.run``
    the per-job schedule, on edge-case tiles."""
    from repro.hw.backends import (KernelJob, matrix_many_loop,
                                   packed_common, run_many)

    chunks = []
    scan = packed_common._scan

    def recording_scan(chunk, spec, dim, s_q_pad, s_k_pad, *args):
        chunks.append((dim, s_q_pad, s_k_pad))
        return scan(chunk, spec, dim, s_q_pad, s_k_pad, *args)

    monkeypatch.setattr(packed_common, "_MAX_CHUNK_MACS", 1 << 14)
    monkeypatch.setattr(packed_common, "_scan", recording_scan)
    packed, reference = get_backend("numpy-packed"), get_backend("numpy-ref")
    for seed in range(3):
        tiles = edge_tiles(seed)
        kernel_jobs = [KernelJob(q=q, k=k, threshold=threshold,
                                 magnitude_bits=11, group=2, valid=valid,
                                 margin_scale=margin_scale)
                       for q, k, threshold, valid, margin_scale in tiles]
        chunks.clear()
        fused = run_many(packed, kernel_jobs)
        loop = matrix_many_loop(reference, kernel_jobs)
        for name in ("rows", "counts", "bits"):
            np.testing.assert_array_equal(getattr(fused, name),
                                          getattr(loop, name),
                                          err_msg=f"{name} seed={seed}")
        # several bands, and some band split into several chunks
        assert len(set(chunks)) > 1
        assert len(chunks) > len(set(chunks))

        head_jobs = [HeadJob(queries=q, keys=k, threshold=threshold,
                             valid=valid)
                     for q, k, threshold, valid, margin_scale in tiles
                     if margin_scale == 1.0]
        for name in ("ae", "termination-only", "pruning-only"):
            config = PRUNING_CONFIGS[name]
            assert run_fields(config, head_jobs) == \
                per_job_run(config, head_jobs), f"{name} seed={seed}"


def test_keyless_and_queryless_jobs_add_no_work():
    """Jobs with no keys or no queries count as jobs but add no
    cycles or scores."""
    empty_k = HeadJob(queries=np.ones((3, 8), dtype=np.int64),
                      keys=np.zeros((0, 8), dtype=np.int64),
                      threshold=0.0, valid=np.zeros((3, 0), dtype=bool))
    empty_q = HeadJob(queries=np.zeros((0, 8), dtype=np.int64),
                      keys=np.ones((4, 8), dtype=np.int64),
                      threshold=0.0, valid=np.zeros((0, 4), dtype=bool))
    jobs = mixed_jobs(5, count=4)
    for config in (AE_LEOPARD, BASELINE):
        plain = TileSimulator(config).run(jobs)
        padded = TileSimulator(config).run([empty_k] + jobs + [empty_q])
        assert padded.total_cycles == plain.total_cycles
        assert vars(padded.counters) == vars(plain.counters)
        assert padded.jobs == plain.jobs + 2
