"""Cycle-level tile simulator (paper §4): N_QK bit-serial front-end
DPUs feeding a softmax + xV back-end (V-PU).

The simulator is fully array-based: one batched kernel call evaluates
every job of a run, then rows are scheduled across DPU lanes and the
V-PU with whole-array reductions over the run's flattened scores — no
per-score or per-job scheduling pass in Python.  A tile with neither
early termination nor runtime pruning (the baseline) needs no kernel
at all: its activity follows in closed form from each row's count of
valid keys.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backends import KernelJob, PlaneGroupCache, get_backend, run_many
from .bitserial import serial_cycle_count
from .config import TileConfig
from .workload import HeadJob

# scores flattened per activity pass: bounds the run-wide temporaries
# of a long job list (about 50 bytes a score) to about 50 MB
_ACTIVITY_CHUNK = 1 << 20


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

    The early-termination schedule comes from the configured kernel
    backend (:mod:`repro.hw.backends`): ``numpy-packed`` by default,
    whose float32 GEMMs are exact while ``qmax * (2^serial_bits - 1) *
    D < 2^24`` (every serving shape), with ``numpy-ref`` kept as the
    oracle it is pinned against.  The baseline tile
    (:func:`~repro.hw.config.baseline_like`) is computed in closed form
    from ``valid`` counts and reports ``scores_pruned == 0``.
    """

    def __init__(self, config: TileConfig, backend: str | None = None,
                 pack_cache: PlaneGroupCache | None = None,
                 profiler=None):
        """``backend`` overrides the kernel backend by registry name;
        otherwise ``config.kernel_backend``, then the
        ``REPRO_KERNEL_BACKEND`` environment variable, decide (see
        :mod:`repro.hw.backends`).  Resolution happens here so a typo
        fails at construction, not mid-run.

        ``pack_cache`` shares a pack-once plane-group cache across
        runs (the serving engines pass a per-engine cache so decode
        steps reuse packed keys).  Jobs opt in by carrying a
        ``pack_key`` in their metadata; backends without a fused tier
        ignore the cache.  Without one (the default) the fused backend
        packs each run's keys in one vectorised pass, the cheaper
        choice when no key matrix recurs.

        ``profiler`` (a :class:`repro.obs.KernelProfiler`) opts into
        timing each fused kernel dispatch: backend name, wall time,
        and how many jobs / distinct plane groups rode the call.
        """
        self.config = config
        self.backend = get_backend(backend or config.kernel_backend)
        self.pack_cache = pack_cache
        self.profiler = profiler

    # -- batched kernel dispatch ----------------------------------------
    def _kernel_many(self, jobs: list[HeadJob], quants: list):
        """One ``run_many`` call over every early-termination kernel
        job in the list — fused backends amortize pack/GEMM overhead
        across the whole step."""
        config = self.config
        if not config.early_termination:
            return [None] * len(jobs)
        kernel_jobs = [
            KernelJob(q=q, k=k, threshold=threshold,
                      magnitude_bits=config.magnitude_bits,
                      group=config.serial_bits, valid=job.valid,
                      pack_key=job.metadata.get("pack_key"))
            for job, (q, k, threshold) in zip(jobs, quants)]
        if self.profiler is None:
            return run_many(self.backend, kernel_jobs,
                            cache=self.pack_cache)
        from time import perf_counter
        start = perf_counter()
        results = run_many(self.backend, kernel_jobs,
                           cache=self.pack_cache)
        elapsed = perf_counter() - start
        groups = len({job.pack_key for job in kernel_jobs})
        self.profiler.record(self.backend.name, jobs=len(kernel_jobs),
                             groups=groups, elapsed_s=elapsed)
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
        counts = [job.valid.sum(axis=1) for job in jobs]
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
        pruning, from the per-score kernel results of every job.  Jobs
        are flattened into run-wide score arrays (in chunks of at most
        ``_ACTIVITY_CHUNK`` scores) and rows reduced over their
        segments, so the cost is a fixed number of array passes rather
        than a Python pass per job."""
        config = self.config
        quants = [job.quantized_for(config.magnitude_bits)
                  for job in jobs]
        kernels = self._kernel_many(jobs, quants)
        full = serial_cycle_count(config.qk_bits, config.serial_bits)
        counters = TileCounters()
        fe_rows, be_rows, job_rows = [], [], []
        chunk, size = [], 0
        for job, (q, k, threshold), kernel in zip(jobs, quants, kernels):
            valid = job.valid
            s_q, s_k = valid.shape
            # a job without keys has no valid score: it adds no work
            job_rows.append(s_q if s_k else 0)
            if not (s_q and s_k):
                continue
            if kernel is None:
                scores = q.astype(np.float64) @ k.T.astype(np.float64)
                kernel = (np.where(valid, full, 0), scores < threshold,
                          scores)
            chunk.append((*kernel, valid))
            size += valid.size
            if size >= _ACTIVITY_CHUNK:
                self._activity(chunk, fe_rows, be_rows, counters)
                chunk, size = [], 0
        if chunk:
            self._activity(chunk, fe_rows, be_rows, counters)
        return (np.concatenate(fe_rows) if fe_rows else np.zeros(0, int),
                np.concatenate(be_rows) if be_rows else np.zeros(0, int),
                job_rows, counters)

    def _activity(self, parts, fe_rows: list, be_rows: list,
                  counters: TileCounters) -> None:
        """Row demands and counters of ``(cycles, pruned, scores,
        valid)`` tiles: appends each row's front/back-end cycles to
        ``fe_rows``/``be_rows`` and adds the score counts to
        ``counters``."""
        config = self.config
        cycles, pruned, scores, valid = (
            np.concatenate([part[i].ravel() for part in parts])
            for i in range(4))
        row_lengths = np.concatenate(
            [np.full(part[3].shape[0], part[3].shape[1]) for part in parts])
        row_starts = np.cumsum(row_lengths) - row_lengths

        pruned_valid = pruned & valid
        if config.runtime_pruning:
            # the back end's running-max register always survives, so a
            # row is never pruned empty — same semantics as the model's
            # HARD mode (models/attention.py)
            masked = np.where(valid, scores, -np.inf)
            row_max = np.repeat(np.maximum.reduceat(masked, row_starts),
                                row_lengths)
            surviving = valid & (~pruned_valid | (masked == row_max))
        else:
            surviving = valid

        active = np.add.reduceat(valid, row_starts, dtype=np.int64) > 0
        # front end: keys of a row round-robin over N_QK lanes
        row_lane_cycles = np.add.reduceat(cycles, row_starts)
        fe_rows.append(-(-row_lane_cycles // config.num_qk_dpus))
        # back end: per-row softmax pipeline + per-survivor xV work
        be_rows.append(np.where(
            active,
            config.softmax_latency
            + np.add.reduceat(surviving, row_starts, dtype=np.int64)
            * config.vpu_cycles_per_score,
            0))
        # the last cycle of a full schedule may carry fewer planes than
        # serial_bits (e.g. 9 bits in 5x2 cycles), so cap per score
        bits_processed = np.minimum(cycles * config.serial_bits,
                                    config.qk_bits)
        counters.add(TileCounters(
            scores_total=int(valid.sum()),
            scores_pruned=int(pruned_valid.sum()),
            survivors=int(surviving.sum()),
            qk_lane_cycles=int(cycles.sum()),
            qk_bits_processed=int(bits_processed.sum()),
            rows=int(active.sum())))

    def run_job(self, job: HeadJob) -> TileRunResult:
        return self.run([job])

    def run(self, jobs: list[HeadJob]) -> TileRunResult:
        config = self.config
        if config.early_termination or config.runtime_pruning:
            fe_rows, be_rows, job_rows, counters = self._run_pruning(jobs)
        else:
            fe_rows, be_rows, job_rows, counters = self._run_baseline(jobs)
        # per-job front/back-end demand: sums over each job's rows
        bounds = np.cumsum([0] + job_rows)
        fe_jobs = np.diff(np.concatenate(([0], np.cumsum(fe_rows)))[bounds])
        be_jobs = np.diff(np.concatenate(([0], np.cumsum(be_rows)))[bounds])
        # jobs stream back-to-back through the tile; the pipeline-fill
        # latency is charged once per run, not per job
        total = int(np.maximum(fe_jobs, be_jobs).sum())
        if jobs:
            total += config.full_score_cycles() + config.softmax_latency
        counters.vpu_busy_cycles = int(be_jobs.sum())
        counters.runtime_cycles = total
        return TileRunResult(
            config=config, total_cycles=total,
            frontend_cycles=int(fe_jobs.sum()),
            backend_cycles=int(be_jobs.sum()),
            frontend_stall_cycles=int(np.maximum(be_jobs - fe_jobs,
                                                 0).sum()),
            counters=counters, jobs=len(jobs))
