"""Hardware configuration and processing-element primitives.

The datapath is organized as ``pe_blocks`` blocks of ``arrays_per_block``
PE arrays, each array an R x K grid of AND-gate multipliers whose products
are reduced along diagonals into R+K-1 partial-sum registers.  One block
processes one input channel per cycle; one array holds one kernel column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigError, ScheduleFault, ShapeError
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
    group_size: int = 32      # input channels processed per pass
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
            if (isinstance(value, bool) or not isinstance(value, (int, kind))
                    or not math.isfinite(value)):
                raise ConfigError(
                    f"config field {f.name!r} must be a finite {kind.__name__},"
                    f" got {value!r}"
                )
        for name in ("pe_blocks", "arrays_per_block", "array_rows", "array_cols",
                     "group_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.group_size > self.pe_blocks:
            raise ConfigError("group_size must not exceed pe_blocks")
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
    def encoding_channels_per_pass(self) -> int:
        """Input channels the encoding layer maps per pass (8 blocks each)."""
        return max(1, self.pe_blocks // 8)

    @property
    def total_sram_bytes(self) -> int:
        return (
            2 * self.spike_sram_bytes
            + 2 * self.weight_sram_bytes
            + 2 * self.membrane_sram_bytes
            + self.temp_sram_bytes
            + self.boundary_sram_bytes
        )

    def replace(self, **updates) -> "HardwareConfig":
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
# PE primitives
# ---------------------------------------------------------------------------

def pe_multiply(spike: int, weight_sign: int) -> int:
    """Product of a spike bit and a sign-bit weight: {-1, 0, +1}.

    Weight -1 is stored as sign bit 1, weight +1 as sign bit 0, so the
    product is the two-bit two's-complement value {spike & sign, spike}.
    """
    if spike not in (0, 1) or weight_sign not in (0, 1):
        raise ShapeError("pe_multiply operands must be single bits")
    if not spike:
        return 0
    return -1 if weight_sign else 1


def pe_multiply_bits(spike: int, weight_sign: int) -> tuple[int, int]:
    """The gate-level encoding {high, low} = {s AND w, s} of the product."""
    if spike not in (0, 1) or weight_sign not in (0, 1):
        raise ShapeError("pe_multiply operands must be single bits")
    return (spike & weight_sign, spike)


@dataclass
class PEArrayState:
    """Registers of one R x K PE array.

    ``partial`` holds the R+K-1 diagonal partial-sum registers; each cycle
    they receive the diagonal reduction of one input column against one
    kernel column (the full 1-D convolution of the input column with the
    reversed kernel column).
    """

    rows: int
    cols: int
    weight_col: np.ndarray = field(init=False)
    input_col: np.ndarray = field(init=False)
    partial: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ConfigError("array must have at least 1 row and 1 column")
        self.weight_col = np.zeros(self.cols, dtype=np.uint8)
        self.input_col = np.zeros(self.rows, dtype=np.uint8)
        self.partial = np.zeros(self.rows + self.cols - 1, dtype=np.int64)

    def clear_partial(self):
        self.partial[:] = 0


def pe_array_cycle(
    state: PEArrayState,
    input_col,
    weight_col,
) -> np.ndarray:
    """One array cycle: partial[r + k] += product(input[r], weight[k]).

    Loads the column registers and accumulates every PE's product into its
    diagonal register.  Returns the register file (a view); the added
    contribution is the full 1-D convolution of the input column with the
    weight column as stored, so loading kernel columns reversed makes the
    diagonals line up with correlation-style output rows.
    """
    inp = np.asarray(input_col, dtype=np.uint8)
    wgt = np.asarray(weight_col, dtype=np.uint8)
    if inp.shape != (state.rows,):
        raise ShapeError(f"input column must have {state.rows} bits, got {inp.shape}")
    if wgt.shape != (state.cols,):
        raise ShapeError(f"weight column must have {state.cols} bits, got {wgt.shape}")
    state.input_col = inp
    state.weight_col = wgt
    for r in range(state.rows):
        if not inp[r]:
            continue
        for k in range(state.cols):
            state.partial[r + k] += pe_multiply(int(inp[r]), int(wgt[k]))
    return state.partial


# ---------------------------------------------------------------------------
# accumulator
# ---------------------------------------------------------------------------

def accumulate_stage1(
    array_outputs,
    mode: str = "spiking",
    bitplane_index: int = 0,
) -> np.ndarray:
    """Stage 1: element-wise sum of the block's three array outputs.

    In encoding mode the block's sum is additionally shifted left by its
    bitplane index before it enters the cross-block tree.
    """
    vectors = [np.asarray(v, dtype=np.int64) for v in array_outputs]
    length = vectors[0].shape
    for v in vectors[1:]:
        if v.shape != length:
            raise ShapeError("stage-1 inputs must have equal length")
    total = np.sum(vectors, axis=0)
    if mode == "encoding":
        if not 0 <= bitplane_index <= 7:
            raise ConfigError("bitplane_index must be in [0, 7]")
        total = total << bitplane_index
    elif mode != "spiking":
        raise ConfigError(f"unknown accumulator mode {mode!r}")
    return total


@dataclass
class GroupAccumulator:
    """Last accumulator stage: running sum across sequential channel groups."""

    expected_groups: int
    state: np.ndarray | None = None
    groups_done: int = 0

    def __post_init__(self):
        if self.expected_groups < 1:
            raise ConfigError("expected_groups must be >= 1")


def accumulate_tree(
    block_outputs,
    group_state: GroupAccumulator,
    is_last_group: bool,
    *,
    max_blocks: int = 32,
):
    """Stage 2/3: tree-sum the active blocks, then fold across groups.

    Returns the completed convolution vector on the last group, otherwise
    the updated ``group_state``.  Finalizing before every group has passed
    through is a schedule fault.
    """
    vectors = [np.asarray(v, dtype=np.int64) for v in block_outputs]
    if len(vectors) > max_blocks:
        raise ShapeError(f"{len(vectors)} blocks exceed the {max_blocks}-block tree")
    shape = vectors[0].shape
    for v in vectors[1:]:
        if v.shape != shape:
            raise ShapeError("tree adder inputs must have equal length")
    pass_sum = np.sum(vectors, axis=0)
    if group_state.state is None:
        group_state.state = pass_sum
    else:
        group_state.state = group_state.state + pass_sum
    group_state.groups_done += 1
    if is_last_group:
        if group_state.groups_done != group_state.expected_groups:
            raise ScheduleFault(
                f"emitting after {group_state.groups_done} of "
                f"{group_state.expected_groups} groups"
            )
        return group_state.state
    return group_state


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
    total_pe_cycles: int = 0
    pe_count: int = 0
    clock_hz: float = 0.0

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
            total_pe_cycles=self.total_pe_cycles + other.total_pe_cycles,
            pe_count=max(self.pe_count, other.pe_count),
            clock_hz=max(self.clock_hz, other.clock_hz),
        )

    def scaled(self, n: int) -> "CycleReport":
        """Accounting of ``n`` repetitions of these passes (``n`` merged copies)."""
        return CycleReport(
            total_cycles=n * self.total_cycles,
            warmup_cycles=n * self.warmup_cycles,
            active_pe_cycles=n * self.active_pe_cycles,
            total_pe_cycles=n * self.total_pe_cycles,
            pe_count=self.pe_count,
            clock_hz=self.clock_hz,
        )

    def validate(self):
        if not 0.0 <= self.utilization <= 1.0:
            raise ConfigError(f"utilization {self.utilization} out of [0, 1]")
        if self.achieved_ops != 2 * self.active_pe_cycles:
            raise ConfigError("achieved_ops must equal 2 * active_pe_cycles")
        return self
