"""Per-cycle pipeline trace of one head job on a small tile.

Demo/debug aid: rows issue in order, a row's keys spread round-robin
over the QK DPU lanes, lanes re-sync at row boundaries (double-buffered
issue), and the V-PU consumes completed rows.  Intended for tiny jobs;
the benchmark path uses :class:`~repro.hw.tile.TileSimulator`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitserial import bitserial_cycles_matrix
from .config import TileConfig
from .workload import HeadJob


@dataclass
class PipelineTrace:
    lane_timelines: list[str]
    vpu_timeline: str
    total_cycles: int

    def render(self) -> str:
        width = self.total_cycles
        lines = []
        for lane, timeline in enumerate(self.lane_timelines):
            lines.append(f"  QK-DPU{lane} | {timeline.ljust(width, '.')}")
        lines.append(f"  V-PU    | {self.vpu_timeline.ljust(width, '.')}")
        return "\n".join(lines)


def trace_job(job: HeadJob, config: TileConfig) -> PipelineTrace:
    cycles, pruned, _ = bitserial_cycles_matrix(
        job.queries, job.keys, job.threshold,
        config.magnitude_bits, config.serial_bits, valid=job.valid)
    num_rows, num_keys = job.shape
    lanes = config.num_qk_dpus
    lane_timelines = ["" for _ in range(lanes)]
    vpu_timeline = ""
    vpu_free_at = 0

    for row in range(num_rows):
        # lanes re-sync at row boundaries; stalls render as 's'
        row_start = max(len(t) for t in lane_timelines)
        for lane in range(lanes):
            lane_timelines[lane] = lane_timelines[lane].ljust(row_start, "s")
        for key in np.nonzero(job.valid[row])[0]:
            lane = int(key) % lanes
            lane_timelines[lane] += str(int(key) % 10) * int(cycles[row, key])
        row_done = max(len(t) for t in lane_timelines)
        survivors = int((job.valid[row] & ~pruned[row]).sum())
        busy = config.softmax_latency + survivors * config.vpu_cycles_per_score
        start = max(row_done, vpu_free_at)
        vpu_timeline = vpu_timeline.ljust(start, ".") + "x" * busy
        vpu_free_at = start + busy

    return PipelineTrace(
        lane_timelines=lane_timelines,
        vpu_timeline=vpu_timeline,
        total_cycles=max(vpu_free_at,
                         max(len(t) for t in lane_timelines)),
    )
