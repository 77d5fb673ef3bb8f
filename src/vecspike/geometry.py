"""A layer step's passes, cycles and buffer bytes, from its geometry alone.

Row tiles, channel groups, the boundary SRAM and the buffer charges depend
only on one layer's shape, the config and T, so each is computed here
once.  :func:`conv_layer_report` maps geometry to cycles and
:func:`_tile_boundary` gives the rows a tile edge leaves pending;
:func:`layer_accounting` calls both once per layer for ``run_network`` and
``vecspike bench``, and :func:`step_buffers` gives ``pingpong_schedule``
the bytes one step stages.  The engine's functional product is one GEMM
per step whatever the tiling, so it takes only the checks and the output
size, from :func:`output_size`.  The cycles follow the pass structure:
output channels outermost, then channel groups, then row tiles, then
columns, with the pipeline fill charged once per weight-register pass
because consecutive column streams overlap one pass's drain with the next
pass's fill.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .arch import CycleReport, HardwareConfig
from .errors import ConfigError, ShapeError

if TYPE_CHECKING:  # pragma: no cover
    from .netconfig import LayerSpec


@dataclass(frozen=True)
class TileBoundary:
    """Boundary-SRAM use of one convolution step, for one output channel.

    ``deposits`` counts the output rows a tile edge leaves incomplete (each
    stored once), ``peak_rows`` the most rows stored at one time.  Computed
    from geometry by :func:`_tile_boundary`.
    """

    deposits: int
    peak_rows: int


def output_size(
    h_padded: int, w_padded: int, kh: int, kw: int,
    cfg: HardwareConfig, encoding: bool,
) -> tuple[int, int]:
    """Output size ``(h_out, w_out)`` of one convolution step.

    Raises for a kernel the arrays cannot hold or the input cannot fit,
    and for an encoding layer on fewer than 8 PE blocks.
    """
    if encoding and cfg.pe_blocks < 8:
        raise ConfigError("the encoding layer needs 8 PE blocks per channel")
    if kw > cfg.arrays_per_block:
        raise ConfigError(
            f"kernel width {kw} exceeds the {cfg.arrays_per_block} arrays per block"
        )
    if kh > cfg.array_cols:
        raise ConfigError(
            f"kernel height {kh} exceeds the {cfg.array_cols}-tall weight column"
        )
    h_out = h_padded - kh + 1
    w_out = w_padded - kw + 1
    if h_out < 1 or w_out < 1:
        raise ShapeError(f"{kh}x{kw} kernel does not fit {h_padded}x{w_padded} input")
    return h_out, w_out


def pass_structure(
    in_channels: int, h_padded: int, w_padded: int, kh: int, kw: int,
    cfg: HardwareConfig, encoding: bool,
):
    """Channel groups, row tiles and output size of one convolution step.

    Returns the number of channel groups, each one pass of the PE blocks,
    and the row tiles as (start, size) pairs that partition the padded
    input rows.  The cycle model and the boundary SRAM count both.  Raises
    as :func:`output_size` does.
    """
    h_out, w_out = output_size(h_padded, w_padded, kh, kw, cfg, encoding)
    rows = cfg.array_rows
    tiles = [(r, min(rows, h_padded - r)) for r in range(0, h_padded, rows)]
    size = cfg.encoding_channels_per_pass if encoding else cfg.group_size
    return -(-in_channels // size), tiles, h_out, w_out


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
    :class:`CycleReport`: ``run_network`` and ``vecspike bench`` take their
    reports from it through :func:`layer_accounting`.  Each (output
    channel, channel group) pass fills the pipeline once (``kw - 1``
    cycles) and then streams every row tile's output columns.  Every
    padded input row of every channel (eight bitplane blocks per channel
    for the encoding layer) meets each kernel tap once per output column.
    """
    n_groups, tiles, _, w_out = pass_structure(
        in_channels, h_padded, w_padded, kh, kw, cfg, encoding
    )
    passes = out_channels * n_groups
    blocks_per_channel = 8 if encoding else 1
    total = passes * (kw - 1 + len(tiles) * w_out)
    return CycleReport(
        total_cycles=total,
        warmup_cycles=passes * (kw - 1),
        active_pe_cycles=(
            out_channels * w_out * in_channels * blocks_per_channel
            * kw * h_padded * kh
        ),
        pe_count=cfg.pe_count,
        clock_hz=cfg.clock_hz,
    ).validate()


def layer_accounting(
    layer: "LayerSpec", cfg: HardwareConfig, time_steps: int
) -> tuple[CycleReport, TileBoundary]:
    """Cycles over ``time_steps`` steps and boundary use of a validated layer.

    Geometry comes from the annotated ``in_shape`` alone (an fc layer's is
    its flattened input map), inputs are zero padded, the encoding
    convolution runs once (its result is iterated) and spiking layers run
    once per step.  Every step of a layer has the same geometry, so the
    boundary use is one step's.  Layers without weights take no datapath
    cycles and no boundary SRAM.
    """
    if not layer.has_weights:
        return CycleReport(), TileBoundary(0, 0)
    channels, h, w = layer.in_shape
    kh, kw = layer.kernel
    h, w = h + 2 * layer.padding, w + 2 * layer.padding
    encoding = layer.kind == "encoding-conv"
    n_groups, tiles, h_out, _ = pass_structure(channels, h, w, kh, kw, cfg, encoding)
    report = conv_layer_report(
        channels, layer.out_channels, h, w, kh, kw, cfg, encoding=encoding
    )
    boundary = _tile_boundary(tiles, h_out, kh, n_groups)
    return (report if encoding else report.scaled(time_steps)), boundary


def step_buffers(spec: "LayerSpec", cfg: HardwareConfig) -> tuple[int, int]:
    """Bytes one step of a validated weighted layer stages, as the pair
    ``(membrane, boundary)``.

    ``membrane`` is one strip of the conv output, before pooling, per
    pass: ``min(array_rows, H)`` rows of width ``W``, one parameter each.
    ``boundary`` is ``kh - 1`` rows of that width when the padded input is
    taller than the array, else 0.  Unlike :func:`pass_structure` this
    checks no kernel against the arrays, so the buffer trace runs on
    every config.
    """
    _, conv_h, conv_w = spec.out_shape
    rows = cfg.array_rows
    row_bytes = conv_w * cfg.param_bytes
    tiled = spec.in_shape[1] + 2 * spec.padding > rows
    return min(rows, conv_h) * row_bytes, (spec.kernel[0] - 1) * row_bytes if tiled else 0
