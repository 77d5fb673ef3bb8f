"""Hardware configuration, peak throughput and cycle accounting.

The datapath is organized as ``pe_blocks`` blocks of ``arrays_per_block``
PE arrays, each array an R x K grid of AND-gate multipliers whose products
are reduced along diagonals into R+K-1 partial-sum registers.  One block
processes one input channel per cycle; one array holds one kernel column.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import ConfigError
from .fixedpoint import FixedPointFormat


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HardwareConfig:
    """Datapath geometry, clocking and on-chip buffer capacities (bytes)."""

    pe_blocks: int = 32
    arrays_per_block: int = 3
    array_rows: int = 8       # R: input column height
    array_cols: int = 3       # K: kernel column height
    clock_hz: float = 5e8
    total_bits: int = 24      # fixed-point width of potentials/params
    frac_bits: int = 8
    spike_sram_bytes: int = 32 * 1024     # each of the two ping-pong halves
    weight_sram_bytes: int = 64 * 1024    # each of the two ping-pong halves
    membrane_sram_bytes: int = 16 * 1024  # each of the two membrane buffers
    temp_sram_bytes: int = 4 * 1024
    boundary_sram_bytes: int = 2368       # 2.3125 KiB

    def __post_init__(self):
        for f in fields(self):
            value, kind = getattr(self, f.name), type(f.default)
            # NaN, infinities and integers past int64 all fail the bound
            if (isinstance(value, bool) or not isinstance(value, (int, kind))
                    or not abs(value) < 2**63):
                raise ConfigError(
                    f"config field {f.name!r} must be a {kind.__name__} of"
                    f" magnitude below 2**63, got {value!r}"
                )
        for name in ("pe_blocks", "arrays_per_block", "array_rows", "array_cols"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        for f in fields(self):
            # zero is legal: a buffer the plan never uses may be absent
            if f.name.endswith("_sram_bytes") and getattr(self, f.name) < 0:
                raise ConfigError(f"{f.name} must be >= 0")
        if self.clock_hz <= 0:
            raise ConfigError("clock_hz must be positive")
        # instantiating the format validates total_bits/frac_bits
        FixedPointFormat(self.total_bits, self.frac_bits)

    @property
    def pe_count(self) -> int:
        return (
            self.pe_blocks * self.arrays_per_block * self.array_rows * self.array_cols
        )

    @property
    def fmt(self) -> FixedPointFormat:
        return FixedPointFormat(self.total_bits, self.frac_bits)

    @property
    def param_bytes(self) -> int:
        """Bytes of one folded parameter (bias or threshold)."""
        return (self.total_bits + 7) // 8

    @property
    def group_size(self) -> int:
        """Input channels a spiking layer maps per pass: one per PE block."""
        return self.pe_blocks

    @property
    def encoding_channels_per_pass(self) -> int:
        """Input channels the encoding layer maps per pass (8 blocks each)."""
        return max(1, self.pe_blocks // 8)

    def replace(self, /, **updates) -> "HardwareConfig":
        current = {f.name: getattr(self, f.name) for f in fields(self)}
        unknown = set(updates) - set(current)
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        current.update(updates)
        return HardwareConfig(**current)


def peak_gops(cfg: HardwareConfig) -> float:
    """Peak throughput: 2 ops (multiply + add) per PE per cycle."""
    return cfg.pe_count * 2 * cfg.clock_hz / 1e9


# ---------------------------------------------------------------------------
# cycle accounting
# ---------------------------------------------------------------------------

@dataclass
class CycleReport:
    """Cycle and PE-activity accounting of one or more schedule passes.

    ``active_pe_cycles`` counts PEs doing work that lands in kept outputs;
    each contributes 2 ops (multiply + add) per cycle.  Warmup cycles are
    the pipeline-fill cycles charged once per weight-register pass; the
    steady-state utilization excludes them, the plain utilization does not.
    """

    total_cycles: int = 0
    warmup_cycles: int = 0
    active_pe_cycles: int = 0
    pe_count: int = 0
    clock_hz: float = 0.0

    @property
    def total_pe_cycles(self) -> int:
        return self.total_cycles * self.pe_count

    @property
    def steady_cycles(self) -> int:
        return self.total_cycles - self.warmup_cycles

    @property
    def utilization(self) -> float:
        if self.total_pe_cycles == 0:
            return 0.0
        return self.active_pe_cycles / self.total_pe_cycles

    @property
    def steady_state_utilization(self) -> float:
        steady_pe = self.steady_cycles * self.pe_count
        if steady_pe == 0:
            return 0.0
        return self.active_pe_cycles / steady_pe

    @property
    def achieved_ops(self) -> int:
        return 2 * self.active_pe_cycles

    @property
    def achieved_gops(self) -> float:
        if self.total_cycles == 0:
            return 0.0
        seconds = self.total_cycles / self.clock_hz
        return self.achieved_ops / seconds / 1e9

    def merged(self, other: "CycleReport") -> "CycleReport":
        if other.total_cycles and self.total_cycles:
            if (other.pe_count, other.clock_hz) != (self.pe_count, self.clock_hz):
                raise ConfigError("cannot merge reports from different configs")
        return CycleReport(
            total_cycles=self.total_cycles + other.total_cycles,
            warmup_cycles=self.warmup_cycles + other.warmup_cycles,
            active_pe_cycles=self.active_pe_cycles + other.active_pe_cycles,
            pe_count=max(self.pe_count, other.pe_count),
            clock_hz=max(self.clock_hz, other.clock_hz),
        )

    def scaled(self, n: int) -> "CycleReport":
        """Accounting of ``n`` repetitions of these passes (``n`` merged copies)."""
        return CycleReport(
            total_cycles=n * self.total_cycles,
            warmup_cycles=n * self.warmup_cycles,
            active_pe_cycles=n * self.active_pe_cycles,
            pe_count=self.pe_count,
            clock_hz=self.clock_hz,
        )

    def validate(self):
        if not 0.0 <= self.utilization <= 1.0:
            raise ConfigError(f"utilization {self.utilization} out of [0, 1]")
        return self
