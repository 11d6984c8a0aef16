"""Hardware model: the bit-serial kernel (packed fast path plus its
``numpy-ref`` oracle), tile simulator, energy & area."""

from .area import AreaBreakdown, AreaModel
from .bitserial import (bitserial_cycles_matrix, bitserial_dot_product,
                        serial_cycle_count)
from .config import AE_LEOPARD, HP_LEOPARD, TileConfig, baseline_like
from .energy import EnergyBreakdown, EnergyModel
from .tile import TileCounters, TileRunResult, TileSimulator
from .trace import PipelineTrace, trace_job
from .workload import HeadJob, job_from_arrays, jobs_from_records

__all__ = ["bitserial_dot_product", "bitserial_cycles_matrix",
           "serial_cycle_count", "TileConfig", "AE_LEOPARD", "HP_LEOPARD",
           "baseline_like", "TileSimulator", "TileRunResult", "TileCounters",
           "EnergyModel", "EnergyBreakdown", "AreaModel", "AreaBreakdown",
           "HeadJob", "job_from_arrays", "jobs_from_records", "trace_job",
           "PipelineTrace"]
