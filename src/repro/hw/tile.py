"""Cycle-level tile simulator (paper §4): N_QK bit-serial front-end
DPUs feeding a softmax + xV back-end (V-PU).

The simulator schedules query rows, not scores: one batched kernel
call (``run_many``) returns every job's row activity
(:class:`~repro.hw.backends.RowActivity`: per query row the valid
scores, DPU lane cycles, survivors and pruned scores, per job the key
bit-planes consumed), and rows are then scheduled across DPU lanes and
the V-PU with a few whole-array operations, with no per-score or
per-job pass in Python.  Without early termination (runtime pruning alone)
each job's exact scores and full schedules are reduced to the same row
activity.  A tile with neither early termination nor runtime pruning
(the baseline) needs no kernel at all: its activity follows in closed
form from each row's count of valid keys.

The kernel is :data:`kernel`, the packed-bitplane
``fused_matrix_many``; tests run the simulator on the ``numpy-ref``
oracle by monkeypatching that name to ``numpy_ref.matrix_many``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backends import KernelJob, RowActivity, run_many
from .backends.packed_common import fused_matrix_many
from .bitserial import serial_cycle_count
from .config import TileConfig
from .workload import HeadJob

#: the batched Q·K kernel every early-termination run dispatches to
kernel = fused_matrix_many


@dataclass
class TileCounters:
    """Activity counters consumed by the energy model."""

    scores_total: int = 0          # valid score positions
    scores_pruned: int = 0         # dropped by the learned threshold
    survivors: int = 0             # scores reaching the back end
    qk_lane_cycles: int = 0        # DPU-cycles across all lanes
    qk_bits_processed: int = 0     # K bit-planes consumed
    rows: int = 0                  # query rows with any valid score
    vpu_busy_cycles: int = 0
    runtime_cycles: int = 0        # tile-clock cycles (for leakage)

    def add(self, other: "TileCounters") -> None:
        for name in vars(self):
            setattr(self, name, getattr(self, name) + getattr(other, name))


@dataclass
class TileRunResult:
    config: TileConfig
    total_cycles: int
    frontend_cycles: int
    backend_cycles: int
    frontend_stall_cycles: int
    counters: TileCounters
    jobs: int

    @property
    def pruning_rate(self) -> float:
        return self.counters.scores_pruned / max(self.counters.scores_total,
                                                 1)

    @property
    def vpu_utilization(self) -> float:
        """Back-end demand per front-end cycle; > 1 means the V-PU is
        over-subscribed and throttles the tile."""
        return self.backend_cycles / max(self.frontend_cycles, 1)

    @property
    def runtime_ns(self) -> float:
        return self.total_cycles / self.config.frequency_ghz


class TileSimulator:
    """Simulates job lists on one tile configuration.

    The early-termination schedule comes from the packed kernel
    (:data:`kernel`), whose float32 GEMMs are exact while ``qmax *
    (2^serial_bits - 1) * D < 2^24`` (every serving shape).  The
    baseline tile (:func:`~repro.hw.config.baseline_like`) is computed
    in closed form from ``valid`` counts and reports ``scores_pruned ==
    0``.
    """

    def __init__(self, config: TileConfig, profiler=None):
        """``profiler`` (a :class:`repro.obs.KernelProfiler`) opts into
        timing each fused kernel dispatch: wall time and how many jobs
        rode the call."""
        self.config = config
        self.profiler = profiler

    # -- batched kernel dispatch ----------------------------------------
    def _kernel_many(self, jobs: list[HeadJob], quants: list
                     ) -> RowActivity:
        """One ``run_many`` call over every job in the list — the fused
        kernel packs each band's keys in one pass, amortizes GEMM
        overhead across the whole step and hands back row activity, not
        score tiles."""
        config = self.config
        kernel_jobs = [
            KernelJob(q=q, k=k, threshold=threshold,
                      magnitude_bits=config.magnitude_bits,
                      group=config.serial_bits, valid=job.valid)
            for job, (q, k, threshold) in zip(jobs, quants)]
        if self.profiler is None:
            return run_many(kernel, kernel_jobs)
        from time import perf_counter
        start = perf_counter()
        results = run_many(kernel, kernel_jobs)
        elapsed = perf_counter() - start
        self.profiler.record(jobs=len(kernel_jobs), elapsed_s=elapsed)
        return results

    # -- scheduling, whole-array reductions over a run's jobs ---------
    def _run_baseline(self, jobs: list[HeadJob]):
        """Closed-form activity of a tile with neither early termination
        nor runtime pruning: every valid score takes the full schedule
        and reaches the back end, so a row's work depends only on its
        count of valid keys.  No score is computed, so
        ``scores_pruned`` stays 0 (the baseline prunes nothing; the
        estimates read only its cycles and energy counters)."""
        config = self.config
        full = serial_cycle_count(config.qk_bits, config.serial_bits)
        # jobs of one record batch item share their mask
        sums = {id(job.valid): job.valid for job in jobs}
        sums = {key: mask.sum(axis=1) for key, mask in sums.items()}
        counts = [sums[id(job.valid)] for job in jobs]
        valid_rows = np.concatenate(counts) if counts else np.zeros(0, int)
        active = valid_rows > 0
        # front end: keys of a row round-robin over N_QK lanes
        fe_rows = -(-full * valid_rows // config.num_qk_dpus)
        be_rows = np.where(active, config.softmax_latency
                           + valid_rows * config.vpu_cycles_per_score, 0)
        scores = int(valid_rows.sum())
        counters = TileCounters(
            scores_total=scores, survivors=scores,
            qk_lane_cycles=full * scores,
            qk_bits_processed=min(full * config.serial_bits,
                                  config.qk_bits) * scores,
            rows=int(active.sum()))
        return fe_rows, be_rows, [len(c) for c in counts], counters

    def _run_pruning(self, jobs: list[HeadJob]):
        """Activity of a tile with early termination and/or runtime
        pruning, from the row activity of every job: the kernel's
        with early termination, else that of every valid
        score's full schedule and exact score."""
        config = self.config
        quants = [job.quantized_for(config.magnitude_bits)
                  for job in jobs]
        if config.early_termination:
            activity = self._kernel_many(jobs, quants)
        else:
            full = serial_cycle_count(config.qk_bits, config.serial_bits)
            tiles = []
            for job, (q, k, threshold) in zip(jobs, quants):
                scores = q.astype(np.float64) @ k.T.astype(np.float64)
                tiles.append(RowActivity.of_tile(
                    np.where(job.valid, full, 0), scores < threshold,
                    scores, job.valid, config.serial_bits,
                    config.qk_bits))
            activity = RowActivity.concat(tiles)
        active = activity.valid > 0
        survivors = (activity.survivors if config.runtime_pruning
                     else activity.valid)
        # front end: keys of a row round-robin over N_QK lanes
        fe_rows = -(-activity.lane_cycles // config.num_qk_dpus)
        # back end: per-row softmax pipeline + per-survivor xV work
        be_rows = np.where(active, config.softmax_latency
                           + survivors * config.vpu_cycles_per_score, 0)
        valid, lane_cycles, kept, pruned = activity.counts.sum(axis=1)
        counters = TileCounters(
            scores_total=int(valid), scores_pruned=int(pruned),
            survivors=int(kept if config.runtime_pruning else valid),
            qk_lane_cycles=int(lane_cycles),
            qk_bits_processed=int(activity.bits.sum()),
            rows=int(np.count_nonzero(active)))
        return fe_rows, be_rows, activity.rows, counters

    def run_job(self, job: HeadJob) -> TileRunResult:
        return self.run([job])

    def run(self, jobs: list[HeadJob]) -> TileRunResult:
        config = self.config
        if config.early_termination or config.runtime_pruning:
            fe_rows, be_rows, job_rows, counters = self._run_pruning(jobs)
        else:
            fe_rows, be_rows, job_rows, counters = self._run_baseline(jobs)
        # per-job front/back-end demand: sums over each job's rows
        owner = np.repeat(np.arange(len(job_rows)), job_rows)
        fe_jobs, be_jobs = (
            np.bincount(owner, rows, len(job_rows)).astype(np.int64)
            .tolist() for rows in (fe_rows, be_rows))
        # jobs stream back-to-back through the tile; the pipeline-fill
        # latency is charged once per run, not per job
        total = sum(map(max, fe_jobs, be_jobs))
        if jobs:
            total += config.full_score_cycles() + config.softmax_latency
        counters.vpu_busy_cycles = sum(be_jobs)
        counters.runtime_cycles = total
        return TileRunResult(
            config=config, total_cycles=total,
            frontend_cycles=sum(fe_jobs), backend_cycles=sum(be_jobs),
            frontend_stall_cycles=sum(max(be - fe, 0) for fe, be
                                      in zip(fe_jobs, be_jobs)),
            counters=counters, jobs=len(jobs))
