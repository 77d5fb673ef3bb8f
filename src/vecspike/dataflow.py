"""Cycle-approximate model of the vectorwise convolution datapath.

The schedule streams one input column per PE block per cycle.  A block's
arrays hold the kernel columns of the active output channel, products
reduce along array diagonals, and after a (kw-1)-cycle pipeline fill one
output column completes per cycle.  Input heights taller than the array
are split into row tiles whose edge partial sums are stitched through a
boundary SRAM; input channels beyond the group size are folded across
sequential group passes in the accumulator's last stage.  The encoding
layer maps each of the eight input bitplanes to its own block and
recombines them with a shift-add in the first accumulator stage.

Functional outputs are produced by a GEMM-lowered equivalent of the
column-by-column pipeline (integer addition is associative, so the
reassociation is exact).  Channel groups are a leading batch axis
[n_groups][cg], and the encoding layer's bitplanes a second one, so each
row tile is one GEMM: the tile's kh x kw windows become im2col columns
[cg*kh*kw][positions] per group and plane, and one batched product with
the +-1 weights [n_groups][cout][cg*kh*kw] yields every diagonal partial
sum.  The bitplane shift-add and the group fold are int64 sums over the
batch axes; the partial rows accumulate in place into the output.  The
rows a tile edge leaves pending, and so the boundary SRAM's use, follow
from the row tiles alone and are computed once per call by
:func:`_tile_boundary`.

The GEMM runs in float32 or float64, which is exact only while every
partial sum stays below 2**24 or 2**53 in magnitude.  With +-1 weights a
tile's partial sums are bounded by ``max|x| * cg * kh * kw``.  That bound
is computed on every call from the values multiplied, the bitplanes for
the encoding layer (binary input is never assumed); past the float32
limit the GEMM runs in float64, and past the float64 limit in exact
int64.

Cycle counts and PE activity depend only on a layer's geometry, the
config and T, so one function, :func:`conv_layer_report`, computes them;
the schedulers report its result, and :func:`layer_cycle_report` scales it
to T steps for ``run_network`` and ``vecspike bench``.  They follow the
pass structure: output channels outermost, then channel groups, then row
tiles, then columns, with the pipeline fill charged once per
weight-register pass because consecutive column streams overlap one
pass's drain with the next pass's fill.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .arch import (
    CycleReport,
    GroupAccumulator,
    HardwareConfig,
    PEArrayState,
    accumulate_stage1,
    accumulate_tree,
    pe_array_cycle,
)
from .core import (
    ENCODING_SHIFT,
    BinaryWeightTensor,
    FoldedNeuronParams,
    MembraneState,
    SpikeTrain,
    maxpool2_oracle,
)
from .errors import ConfigError, InvalidParameterError, ShapeError

if TYPE_CHECKING:  # pragma: no cover
    from .netconfig import LayerSpec, NetworkDescription


# ---------------------------------------------------------------------------
# tile boundary SRAM
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TileBoundary:
    """Boundary-SRAM use of one convolution step, for one output channel.

    ``deposits`` counts the output rows a tile edge leaves incomplete (each
    stored once), ``peak_rows`` the most rows stored at one time.  Computed
    from geometry by :func:`_tile_boundary`.
    """

    deposits: int
    peak_rows: int


# ---------------------------------------------------------------------------
# GEMM-lowered tile kernel
# ---------------------------------------------------------------------------

# Every integer of magnitude below these limits is exact in float32/float64.
# With +-1 weights no partial sum of a tile's dot products exceeds
# max|x| * cg * kh * kw, so a GEMM whose bound stays below a limit is exact.
FLOAT32_EXACT_LIMIT = 2**24
FLOAT64_EXACT_LIMIT = 2**53

_BITPLANE_SHIFTS = np.arange(8).reshape(8, 1, 1, 1, 1)


def gemm_dtype(bound: int) -> np.dtype:
    """Narrowest GEMM dtype that is exact when no |partial sum| reaches ``bound``.

    float32 below 2**24, float64 below 2**53, otherwise exact int64.
    """
    if bound < FLOAT32_EXACT_LIMIT:
        return np.dtype(np.float32)
    if bound < FLOAT64_EXACT_LIMIT:
        return np.dtype(np.float64)
    return np.dtype(np.int64)


def _tile_partial_rows(
    x_tile: np.ndarray, w_mat: np.ndarray, kh: int, kw: int
) -> np.ndarray:
    """Raw partial-sum rows of one tile: all diagonals, pre-stitching.

    ``x_tile`` is [..., cg, rt, w_in] and ``w_mat`` the [..., cout,
    cg*kh*kw] weights in the GEMM dtype; their leading axes are batch axes
    and broadcast.  The tile is lowered to im2col columns
    [..., cg*kh*kw, positions] and multiplied once.  For ``rt`` input rows
    the result [..., cout, rt + kh - 1, w_out] has ``rt + kh - 1`` rows:
    the first and last ``kh - 1`` carry partial sums that belong to outputs
    shared with the neighbouring tiles.
    """
    *lead, cg, rt, w_in = x_tile.shape
    xp = np.zeros((*lead, cg, rt + 2 * (kh - 1), w_in), dtype=w_mat.dtype)
    xp[..., kh - 1 : kh - 1 + rt, :] = x_tile
    windows = sliding_window_view(xp, (kh, kw), axis=(-2, -1))
    rows, cols = windows.shape[-4], windows.shape[-3]
    im2col = np.moveaxis(windows, (-4, -3), (-2, -1)).reshape(
        *lead, cg * kh * kw, rows * cols
    )
    sums = w_mat @ im2col
    return sums.reshape(*sums.shape[:-1], rows, cols)


@dataclass
class ConvPassResult:
    output: np.ndarray          # [Cout][H_out][W_out] integer conv sums
    report: CycleReport
    boundary: TileBoundary


def _check_kernel(kh: int, kw: int, cfg: HardwareConfig):
    if kw > cfg.arrays_per_block:
        raise ConfigError(
            f"kernel width {kw} exceeds the {cfg.arrays_per_block} arrays per block"
        )
    if kh > cfg.array_cols:
        raise ConfigError(
            f"kernel height {kh} exceeds the {cfg.array_cols}-tall weight column"
        )


def _pass_structure(
    in_channels: int, h_padded: int, w_padded: int, kh: int, kw: int,
    cfg: HardwareConfig, encoding: bool,
):
    """Channel groups, row tiles and output size of one convolution step.

    Groups and tiles are (start, size) pairs.  Raises for a kernel the
    arrays cannot hold or the input cannot fit, and for an encoding layer
    on fewer than 8 PE blocks.
    """
    if encoding and cfg.pe_blocks < 8:
        raise ConfigError("the encoding layer needs 8 PE blocks per channel")
    _check_kernel(kh, kw, cfg)
    h_out = h_padded - kh + 1
    w_out = w_padded - kw + 1
    if h_out < 1 or w_out < 1:
        raise ShapeError(f"{kh}x{kw} kernel does not fit {h_padded}x{w_padded} input")
    size = cfg.encoding_channels_per_pass if encoding else cfg.group_size
    rows = cfg.array_rows
    groups = [(c, min(size, in_channels - c)) for c in range(0, in_channels, size)]
    tiles = [(r, min(rows, h_padded - r)) for r in range(0, h_padded, rows)]
    return groups, tiles, h_out, w_out


def _run_schedule(
    x: np.ndarray,
    weights: BinaryWeightTensor,
    cfg: HardwareConfig,
    encoding: bool,
) -> ConvPassResult:
    """Shared pass structure for spiking and encoding convolutions.

    Channel groups are a batch axis [n_groups][width] (a partial last group
    is zero filled: its idle PE blocks), with the encoding layer's eight
    bitplanes on a second axis in front, so each row tile is one
    :func:`_tile_partial_rows` call.  Each group's partial sums are folded
    in int64 and each tile's rows stitched into the output.  The cycle
    report comes from :func:`conv_layer_report` and the boundary-SRAM use
    from :func:`_tile_boundary`.
    """
    cin, h_in, w_in = x.shape
    kh, kw = weights.kernel
    cout = weights.out_channels
    groups, tiles, h_out, w_out = _pass_structure(cin, h_in, w_in, kh, kw, cfg, encoding)
    n_groups = len(groups)
    width = max((csz for _, csz in groups), default=0)
    batch = np.zeros((n_groups * width, h_in, w_in), dtype=np.int64)
    batch[:cin] = x
    batch = batch.reshape(n_groups, width, h_in, w_in)
    if encoding:
        batch = (batch >> _BITPLANE_SHIFTS) & 1  # [8][n_groups][width][h][w]
    peak = max(int(batch.max(initial=0)), -int(batch.min(initial=0)))
    dtype = gemm_dtype(peak * width * kh * kw)
    w_all = weights.values(dtype)
    if n_groups * width > cin:
        w_all = np.pad(w_all, ((0, 0), (0, n_groups * width - cin), (0, 0), (0, 0)))
    w_mat = w_all.reshape(cout, n_groups, width * kh * kw).swapaxes(0, 1)

    out = np.zeros((cout, h_out, w_out), dtype=np.int64)
    for base, rt in tiles:
        raw = _tile_partial_rows(batch[..., base : base + rt, :], w_mat, kh, kw)
        raw = raw.astype(np.int64)
        if encoding:
            raw = (raw << _BITPLANE_SHIFTS).sum(axis=0)  # first-stage shift-add
        raw = raw.sum(axis=0)  # last-stage group fold
        # raw row p belongs to output row base + p - (kh - 1); rows
        # outside the output range are edge diagonals and are dropped
        g0 = max(base - (kh - 1), 0)
        g1 = min(base + rt, h_out)
        p0 = g0 - base + kh - 1
        out[:, g0:g1] += raw[:, p0 : p0 + g1 - g0]
    report = conv_layer_report(cin, cout, h_in, w_in, kh, kw, cfg, encoding=encoding)
    boundary = _tile_boundary(tiles, h_out, kh, n_groups)
    return ConvPassResult(out, report, boundary)


def _step_input(x, weights: BinaryWeightTensor) -> np.ndarray:
    x = np.asarray(x)
    if x.ndim != 3:
        raise ShapeError(f"input must be [C][H][W], got {x.shape}")
    if x.shape[0] != weights.in_channels:
        raise ShapeError(
            f"input has {x.shape[0]} channels, weights expect {weights.in_channels}"
        )
    return x


def schedule_conv_layer(
    x,
    weights: BinaryWeightTensor,
    cfg: HardwareConfig,
) -> ConvPassResult:
    """Run one spiking-layer convolution step through the datapath model.

    ``x`` is a single time step's spike map [Cin][H][W], already zero
    padded (padding is materialized by the network config, never inside
    the schedule).  Output equals the dense reference convolution exactly.
    """
    return _run_schedule(_step_input(x, weights), weights, cfg, encoding=False)


def schedule_encoding_layer(
    x,
    weights: BinaryWeightTensor,
    cfg: HardwareConfig,
) -> ConvPassResult:
    """Run the multi-bit encoding convolution through the datapath model.

    Each input channel splits into eight 1-bit planes on eight PE blocks
    sharing one weight; the first accumulator stage shifts each block's
    sums by its bitplane index before the cross-block tree, so the result
    equals the integer convolution of the 8-bit input exactly.
    """
    x = _step_input(x, weights)
    if x.size and (x.min() < 0 or x.max() > 255):
        raise InvalidParameterError("encoding input values must be in [0, 255]")
    return _run_schedule(x, weights, cfg, encoding=True)


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
    cycles_per_pass: int
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
    tile/group (H <= R, Cin <= group size) and full-height kernels.
    """
    x = np.asarray(x, dtype=np.uint8)
    cin, h, w = x.shape
    kh, kw = weights.kernel
    _check_kernel(kh, kw, cfg)
    if kh != cfg.array_cols:
        raise ConfigError("column stream requires kernel height == array_cols")
    if h > cfg.array_rows:
        raise ConfigError("column stream handles a single row tile (H <= R)")
    if cin > cfg.group_size:
        raise ConfigError("column stream handles a single channel group")
    r, k = cfg.array_rows, cfg.array_cols
    w_out = w - kw + 1
    h_out = h - kh + 1
    if w_out < 1 or h_out < 1:
        raise ShapeError(f"{kh}x{kw} kernel does not fit {h}x{w} input")
    cout = weights.out_channels

    emissions: list[ColumnEmission] = []
    output = np.zeros((cout, h_out, w_out), dtype=np.int64)
    for o in range(cout):
        arrays = [[PEArrayState(r, k) for _ in range(kw)] for _ in range(cin)]
        history: list[list[deque]] = [
            [deque(maxlen=kw) for _ in range(kw)] for _ in range(cin)
        ]
        # weight register: kernel column a, reversed top-to-bottom
        wcols = [
            [weights.sign_bits[o, c, ::-1, a] for a in range(kw)] for c in range(cin)
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
                while len(aligned) < 3:
                    aligned.append(np.zeros(r + k - 1, dtype=np.int64))
                block_sums.append(accumulate_stage1(aligned[:3], mode="spiking"))
            acc = GroupAccumulator(expected_groups=1)
            column = accumulate_tree(
                block_sums, acc, is_last_group=True, max_blocks=cfg.pe_blocks
            )
            emissions.append(ColumnEmission(t, o, col, column))
            output[o, :, col] = column[kh - 1 : kh - 1 + h_out]
    return ColumnStreamResult(
        emissions=emissions,
        output=output,
        cycles_per_pass=w,
        warmup_cycles=kw - 1,
        steady_cycles=w_out,
    )


# ---------------------------------------------------------------------------
# IF neuron unit
# ---------------------------------------------------------------------------

def if_unit_process(
    conv_out,
    params: FoldedNeuronParams,
    membrane: MembraneState,
) -> tuple[np.ndarray, MembraneState]:
    """Subtract the folded bias, accumulate, compare, fire and reset.

    The encoding layer re-presents the same integer convolution every step
    (it is parked in the second membrane SRAM on chip); the arithmetic is
    the same as for a spiking layer, only the data source differs.
    """
    x = np.asarray(conv_out, dtype=np.int64)
    if x.shape != membrane.potentials.shape:
        raise ShapeError(
            f"conv output {x.shape} does not match membrane {membrane.potentials.shape}"
        )
    if params.channels != x.shape[0]:
        raise ShapeError(
            f"{params.channels} parameter channels for {x.shape[0]} output channels"
        )
    fmt = membrane.fmt
    weighted = (x << fmt.frac_bits) - params.bias_raw[:, None, None]
    fired = membrane.last_output.astype(bool)
    v = np.where(fired, 0, membrane.potentials) + weighted
    fmt.check_raw(v, "membrane potential")
    thr = params.threshold_raw[:, None, None]
    flip = params.flipped[:, None, None]
    spikes = np.where(flip, v <= thr, v >= thr).astype(np.uint8)
    return spikes, MembraneState(v, spikes, fmt)


# ---------------------------------------------------------------------------
# whole-network engine
# ---------------------------------------------------------------------------

@dataclass
class LayerRun:
    index: int
    kind: str
    report: CycleReport
    boundary: TileBoundary | None
    spike_count: int


@dataclass
class EngineRun:
    layer_trains: list[SpikeTrain]
    class_counts: np.ndarray
    layers: list[LayerRun]

    @property
    def total_report(self) -> CycleReport:
        total = CycleReport()
        for layer in self.layers:
            total = total.merged(layer.report)
        return total


def _pad_step(step: np.ndarray, pad: int) -> np.ndarray:
    if pad == 0:
        return step
    return np.pad(step, ((0, 0), (pad, pad), (pad, pad)))


def run_network(
    net: "NetworkDescription",
    weights: Sequence[BinaryWeightTensor | None],
    folded: Sequence[FoldedNeuronParams | None],
    image: np.ndarray,
    time_steps: int,
    cfg: HardwareConfig,
) -> EngineRun:
    """Execute a validated network on the datapath model.

    Layer by layer, all time steps of one layer run before the next so
    membrane potentials never leave the chip.  The encoding convolution is
    computed once and iterated against the residue potential; pooling is
    applied as post-processing on each step's output map.  Spike trains
    are bit-identical to :func:`vecspike.core.run_network_oracle`.
    """
    img = np.asarray(image)
    if img.ndim != 3:
        raise ShapeError(f"image must be [C][H][W], got {img.shape}")
    if time_steps < 1:
        raise InvalidParameterError("time_steps must be >= 1")
    fmt = cfg.fmt

    trains: list[SpikeTrain] = []
    layer_runs: list[LayerRun] = []
    current: np.ndarray | None = None
    for idx, layer in enumerate(net.layers):
        boundary: TileBoundary | None = None
        if layer.kind == "encoding-conv":
            result = schedule_encoding_layer(
                _pad_step(img, layer.padding), weights[idx], cfg
            )
            boundary = result.boundary
            params = folded[idx].scaled_by_pow2(ENCODING_SHIFT)
            membrane = MembraneState.zeros(result.output.shape, fmt)
            steps = []
            for _ in range(time_steps):
                spikes, membrane = if_unit_process(result.output, params, membrane)
                steps.append(spikes)
            current = np.stack(steps)
        elif layer.kind in ("conv", "fc"):
            membrane = None
            steps = []
            for t in range(time_steps):
                step = current[t]
                if layer.kind == "fc":
                    step = step.reshape(-1, 1, 1)
                result = schedule_conv_layer(
                    _pad_step(step, layer.padding), weights[idx], cfg
                )
                boundary = result.boundary
                if membrane is None:
                    membrane = MembraneState.zeros(result.output.shape, fmt)
                spikes, membrane = if_unit_process(result.output, folded[idx], membrane)
                steps.append(spikes)
            current = np.stack(steps)
        elif layer.kind == "maxpool2":
            current = np.stack(
                [maxpool2_oracle(current[t]) for t in range(time_steps)]
            )
        else:
            raise InvalidParameterError(f"unknown layer kind {layer.kind!r}")
        expected = layer.out_shape
        if expected is not None and current.shape[1:] != tuple(expected):
            raise ShapeError(
                f"layer {idx} produced {current.shape[1:]}, expected {tuple(expected)}"
            )
        train = SpikeTrain(current)
        trains.append(train)
        report = layer_cycle_report(layer, cfg, time_steps)
        layer_runs.append(LayerRun(idx, layer.kind, report, boundary, train.spike_count()))

    counts = trains[-1].data.sum(axis=(0, 2, 3)).astype(np.int64)
    return EngineRun(trains, counts, layer_runs)


def _tile_boundary(tiles, h_out: int, kh: int, n_groups: int) -> TileBoundary:
    """Boundary-SRAM use of one convolution step from its row tiles alone.

    During the last channel group, after each row tile but the last, the
    rows from the first incomplete one (``done``) up to ``end`` wait in the
    boundary SRAM: with earlier groups every later row is already touched,
    else only the rows up to the tile's edge.  Both bounds only grow, so
    the stored rows are exactly ``[done, end)`` and the rows below the
    previous ``end`` were deposited before.
    """
    deposits = peak_rows = stored_end = 0
    for base, rt in tiles[:-1]:
        done = max(0, min(base + rt - kh + 1, h_out))
        end = h_out if n_groups > 1 else min(base + rt, h_out)
        deposits += max(0, end - max(done, stored_end))
        stored_end = max(stored_end, end)
        peak_rows = max(peak_rows, end - done)
    return TileBoundary(deposits, peak_rows)


def conv_layer_report(
    in_channels: int,
    out_channels: int,
    h_padded: int,
    w_padded: int,
    kh: int,
    kw: int,
    cfg: HardwareConfig,
    *,
    encoding: bool = False,
) -> CycleReport:
    """Cycle accounting of one convolution step from its geometry alone.

    The only place that turns geometry and config into a
    :class:`CycleReport`: the schedulers, :func:`layer_cycle_report` and
    ``vecspike bench`` all take their reports from it.  Each (output
    channel, channel group) pass fills the pipeline once (``kw - 1``
    cycles) and then streams every row tile's output columns.  Every
    padded input row of every channel (eight bitplane blocks per channel
    for the encoding layer) meets each kernel tap once per output column.
    """
    groups, tiles, _, w_out = _pass_structure(
        in_channels, h_padded, w_padded, kh, kw, cfg, encoding
    )
    passes = out_channels * len(groups)
    blocks_per_channel = 8 if encoding else 1
    total = passes * (kw - 1 + len(tiles) * w_out)
    return CycleReport(
        total_cycles=total,
        warmup_cycles=passes * (kw - 1),
        active_pe_cycles=(
            out_channels * w_out * in_channels * blocks_per_channel
            * kw * h_padded * kh
        ),
        total_pe_cycles=total * cfg.pe_count,
        pe_count=cfg.pe_count,
        clock_hz=cfg.clock_hz,
    ).validate()


def layer_cycle_report(
    layer: "LayerSpec", cfg: HardwareConfig, time_steps: int
) -> CycleReport:
    """Cycle accounting of a validated layer over ``time_steps`` steps.

    fc layers run as 1x1 convolutions over the flattened features, inputs
    are zero padded, the encoding convolution runs once (its result is
    iterated) and spiking layers run once per step.  Layers without
    weights take no datapath cycles.
    """
    if not layer.has_weights:
        return CycleReport()
    channels = layer.in_channels  # flattened features for fc
    h, w = (1, 1) if layer.kind == "fc" else layer.in_shape[1:]
    kh, kw = layer.kernel
    pad = 2 * layer.padding
    encoding = layer.kind == "encoding-conv"
    report = conv_layer_report(
        channels, layer.out_channels, h + pad, w + pad, kh, kw, cfg,
        encoding=encoding,
    )
    return report if encoding else report.scaled(time_steps)
