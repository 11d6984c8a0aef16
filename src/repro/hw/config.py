"""Tile microarchitecture configurations (paper Table 1)."""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class TileConfig:
    name: str
    num_qk_dpus: int            # N_QK — bit-serial QK DPU lanes
    serial_bits: int            # B — bit-planes per cycle (12 = parallel)
    qk_bits: int = 12           # QK datapath width incl. sign
    dim: int = 64               # D — head dimension of the datapath
    key_buffer_kb: int = 48
    value_buffer_kb: int = 64
    frequency_ghz: float = 0.8
    runtime_pruning: bool = True      # back end skips pruned scores
    early_termination: bool = True    # front end stops below-Th scores
    softmax_latency: int = 3          # V-PU per-row pipeline overhead
    vpu_cycles_per_score: int = 1     # V-PU cycles per surviving score

    @property
    def magnitude_bits(self) -> int:
        return self.qk_bits - 1

    @property
    def qk_bit_format(self) -> str:
        return f"{self.qk_bits}x{self.serial_bits}"

    def full_score_cycles(self) -> int:
        from .bitserial import serial_cycle_count
        return serial_cycle_count(self.qk_bits, self.serial_bits)


AE_LEOPARD = TileConfig(name="AE-LeOPArd", num_qk_dpus=6, serial_bits=2)
HP_LEOPARD = TileConfig(name="HP-LeOPArd", num_qk_dpus=8, serial_bits=2)


def baseline_like(config: TileConfig) -> TileConfig:
    """The non-pruning baseline tile: one bit-parallel QK unit with the
    same datapath width, buffers and frequency — iso-area with the AE
    design point (one 12x12 array == six 12x2 arrays)."""
    return replace(config, name="Baseline", num_qk_dpus=1,
                   serial_bits=config.qk_bits, runtime_pruning=False,
                   early_termination=False)
