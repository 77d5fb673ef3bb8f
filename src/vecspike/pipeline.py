"""Register-level model of the PE arrays and the accumulator.

The schedule streams one input column per PE block per cycle.  A block's
arrays hold the kernel columns of the active output channel, products
reduce along array diagonals, and after a (kw-1)-cycle pipeline fill one
output column completes per cycle.  Input heights taller than the array
are split into row tiles whose edge partial sums are stitched through a
boundary SRAM; input channels beyond the group size are folded across
sequential group passes in the accumulator's last stage.  The encoding
layer maps each of the eight input bitplanes to its own block and
recombines them with a shift-add in the first accumulator stage.
:func:`stream_conv_columns` runs that schedule register by register on one
row tile and one channel group.  Only tests run this module; the run path
computes the same sums as one GEMM per step (:mod:`vecspike.dataflow`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .arch import HardwareConfig
from .core import BinaryWeightTensor
from .errors import ConfigError, InvalidParameterError, ScheduleFault, ShapeError
from .geometry import output_size


# ---------------------------------------------------------------------------
# PE primitives
# ---------------------------------------------------------------------------

def pe_multiply_bits(spike: int, weight_sign: int) -> tuple[int, int]:
    """The gate-level encoding {high, low} = {s AND w, s} of the product."""
    if spike not in (0, 1) or weight_sign not in (0, 1):
        raise ShapeError("pe_multiply operands must be single bits")
    return (spike & weight_sign, spike)


def pe_multiply(spike: int, weight_sign: int) -> int:
    """Product of a spike bit and a sign-bit weight: {-1, 0, +1}.

    Weight -1 is stored as sign bit 1, weight +1 as sign bit 0, so the
    product is the two-bit two's-complement value {spike & sign, spike}
    of :func:`pe_multiply_bits`, decoded as ``low - 2*high``.
    """
    high, low = pe_multiply_bits(spike, weight_sign)
    return low - 2 * high


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
    partial: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ConfigError("array must have at least 1 row and 1 column")
        self.partial = np.zeros(self.rows + self.cols - 1, dtype=np.int64)

    def clear_partial(self):
        self.partial[:] = 0


def pe_array_cycle(
    state: PEArrayState,
    input_col,
    weight_col,
) -> np.ndarray:
    """One array cycle: partial[r + k] += product(input[r], weight[k]).

    Accumulates every PE's product of the two columns into its diagonal
    register.  Returns the register file (a view); the added
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
    for r in range(state.rows):
        if not inp[r]:
            continue
        for k in range(state.cols):
            state.partial[r + k] += pe_multiply(int(inp[r]), int(wgt[k]))
    return state.partial


# ---------------------------------------------------------------------------
# accumulator
# ---------------------------------------------------------------------------

def _vector_sum(vectors, adder: str) -> np.ndarray:
    """Element-wise int64 sum of one or more equal-length vectors."""
    vectors = [np.asarray(v, dtype=np.int64) for v in vectors]
    if not vectors:
        raise ShapeError(f"{adder} needs at least one input")
    if any(v.shape != vectors[0].shape for v in vectors):
        raise ShapeError(f"{adder} inputs must have equal length")
    return np.sum(vectors, axis=0)


def accumulate_stage1(
    array_outputs,
    mode: str = "spiking",
    bitplane_index: int = 0,
) -> np.ndarray:
    """Stage 1: element-wise sum of the outputs of a block's ``kw`` active
    arrays, one per kernel column; the block's idle arrays add nothing.

    In encoding mode the block's sum is additionally shifted left by its
    bitplane index before it enters the cross-block tree.
    """
    total = _vector_sum(array_outputs, "stage-1")
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
    if len(block_outputs) > max_blocks:
        raise ShapeError(f"{len(block_outputs)} blocks exceed the {max_blocks}-block tree")
    pass_sum = _vector_sum(block_outputs, "tree adder")
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
# cycle-by-cycle column stream (small fixtures and cross-checks)
# ---------------------------------------------------------------------------

@dataclass
class ColumnEmission:
    cycle: int
    out_channel: int
    column_index: int
    raw_column: np.ndarray  # R + K - 1 diagonal sums, pre-stitching


@dataclass
class ColumnStreamResult:
    emissions: list[ColumnEmission]
    output: np.ndarray
    warmup_cycles: int
    steady_cycles: int


def stream_conv_columns(
    x,
    weights: BinaryWeightTensor,
    cfg: HardwareConfig,
) -> ColumnStreamResult:
    """Simulate the column pipeline of one tile, register by register.

    Input columns broadcast to every array of a block; array ``a`` holds
    kernel column ``a`` (reversed into its weight register so diagonal
    sums line up with output rows).  Array ``a``'s sums at cycle ``t``
    belong to output column ``t - a``, so a column completes every cycle
    once ``kw - 1`` fill cycles have passed.  Restricted to a single
    tile/group (H <= R, Cin <= group size) and full-height kernels, on
    a [C][H][W] spike map (0 or 1) of the weights' channels; others raise.
    """
    x = np.asarray(x)
    if x.ndim != 3:
        raise ShapeError(f"input must be [C][H][W], got {x.shape}")
    cin, h, w = x.shape
    if cin != weights.in_channels:
        raise ShapeError(f"input has {cin} channels, weights expect {weights.in_channels}")
    if not ((x == 0) | (x == 1)).all():
        raise InvalidParameterError("column stream inputs must be spikes, 0 or 1")
    x = x.astype(np.uint8)
    kh, kw = weights.kernel
    h_out, w_out = output_size(h, w, kh, kw, cfg, encoding=False)
    if kh != cfg.array_cols:
        raise ConfigError("column stream requires kernel height == array_cols")
    if h > cfg.array_rows:
        raise ConfigError("column stream handles a single row tile (H <= R)")
    if cin > cfg.group_size:
        raise ConfigError("column stream handles a single channel group")
    r, k = cfg.array_rows, cfg.array_cols
    cout = weights.out_channels

    signs = weights.sign_bits  # unpacked on each access: read once
    emissions: list[ColumnEmission] = []
    output = np.zeros((cout, h_out, w_out), dtype=np.int64)
    for o in range(cout):
        arrays = [[PEArrayState(r, k) for _ in range(kw)] for _ in range(cin)]
        history: list[list[deque]] = [
            [deque(maxlen=kw) for _ in range(kw)] for _ in range(cin)
        ]
        # weight register: kernel column a, reversed top-to-bottom
        wcols = [
            [signs[o, c, ::-1, a] for a in range(kw)] for c in range(cin)
        ]
        for t in range(w):
            in_cols = np.zeros((cin, r), dtype=np.uint8)
            in_cols[:, :h] = x[:, :, t]
            for c in range(cin):
                for a in range(kw):
                    state = arrays[c][a]
                    state.clear_partial()
                    sums = pe_array_cycle(state, in_cols[c], wcols[c][a])
                    history[c][a].append(sums.copy())
            if t < kw - 1:
                continue
            col = t - (kw - 1)
            block_sums = []
            for c in range(cin):
                aligned = [history[c][a][-(kw - a)] for a in range(kw)]
                block_sums.append(accumulate_stage1(aligned, mode="spiking"))
            acc = GroupAccumulator(expected_groups=1)
            column = accumulate_tree(
                block_sums, acc, is_last_group=True, max_blocks=cfg.pe_blocks
            )
            emissions.append(ColumnEmission(t, o, col, column))
            output[o, :, col] = column[kh - 1 : kh - 1 + h_out]
    return ColumnStreamResult(
        emissions=emissions,
        output=output,
        warmup_cycles=kw - 1,
        steady_cycles=w_out,
    )
