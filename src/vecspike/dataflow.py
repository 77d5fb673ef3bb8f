"""The datapath engine: GEMM-lowered convolutions, the IF unit and the run.

Functional outputs are produced by a GEMM-lowered equivalent of the
column-by-column pipeline that :mod:`vecspike.pipeline` models register by
register (integer addition is associative, so the reassociation is
exact).  Each step is one GEMM of the whole padded map, with no halo:
the +-1 weights staged as [kh*cout][kw*cin] against a width-only im2col
[kw*cin][h_in*w_out].  It yields the product of every kernel row ``u``
with every input row ``r``, summed over the kernel
columns and all input channels, and that product belongs to output row
``r - u``.  The stitch is ``kh`` whole-map slice adds, one per kernel row:
that is the PE arrays' diagonal adder.  The row tiles and the channel
groups that the hardware runs as sequential passes, with tile edges
stitched through the boundary SRAM, are both such reassociations: they
shape the cycle and boundary accounting (:mod:`vecspike.geometry`) and
not the product.  The encoding layer's bitplanes join the inner dimension
too: its im2col keeps the 0/1 planes, and each plane ``k``'s weight
columns are scaled by the first-stage shift ``2**k``, so the shift-add is
part of the product.  Only the input operand models the AND gate's spike,
and it stays a bit.  The weight operand of a spiking layer carries output
channels ``o`` and ``o + cout/2`` in one lane (below).

The inputs are what the hardware takes: a spiking layer's PEs AND 1-bit
spikes, so :func:`schedule_conv_layer` takes 0/1 maps, and only the
encoding layer takes multi-bit input, 8-bit pixels that
:func:`schedule_encoding_layer` splits into bitplanes.  Both refuse any
other value with ``InvalidParameterError``.  Every partial sum, from one
kernel row's product to an output row part way through the stitch, is a
sum over a subset of the layer's taps (and, for the encoding layer, of a
pixel's shifted bitplanes, ``x & mask``, never larger than the pixel).
With +-1 weights each is bounded by the layer's geometry alone: ``taps =
cin * kh * kw`` for a spiking layer, ``255 * taps`` for the encoding
layer.  So :func:`stage_weights` makes every choice once per layer, when
the weight SRAM is loaded: the GEMM runs in float32 while that bound is
below 2**24, else in float64, exact below 2**53, which even the encoding
layer would need 3.5e13 taps to reach.  Both schedules take the
:class:`GemmWeights` that :func:`stage_weights` makes once per layer (the
same for every config); ``run_network`` stages each weighted layer so, and
every step's call multiplies that one operand.

A spike sum uses at most 12 of float32's 24 exact bits, so, with ``lane
= 2*taps + 1``, a spiking layer with an even ``cout`` is staged on packed
weight lanes: row ``o`` of its operand is ``w[o] + lane * w[o +
cout/2]``.  Each partial sum is ``lo + lane * hi`` with ``|lo|, |hi| <=
taps``, so it stays below the lane bound ``(lane + 1) * taps``; a layer
packs only while that bound is below 2**24 (``taps <= 2895``), and its
GEMM and stitch run on half the rows.  Since ``lo + taps`` lies in ``[0,
lane)``, an int32 floor division of ``s + taps`` by ``lane`` decodes
``hi`` exactly, and ``lo = s - lane * hi``.  The encoding layer, an odd
``cout`` and a wider spiking layer are staged unpacked.  The schedulers
return the stitched sums only: int32 from a float32 GEMM, whose sums are
all below 2**24, and int64 from a float64 one.

The same bound fixes each layer's membrane.  Where ``bound <<
frac_bits`` stays below ``2**31 - 2**total_bits``, the *int32 room*, no
sum of a shifted step sum, a bias and a membrane value can wrap int32, so
the layer's membrane is int32; else int64.  At the default 24/8 format
the room holds bounds up to 8,323,071, and no format over 30 bits has
any.  The IF unit runs every call in its membrane's dtype and never
promotes it.  The encoding layer's sums are the same every step, so its
shifted, bias-subtracted update is formed once per layer.

VSA configures its PE arrays and IF unit once per layer and streams all
T steps through them, and so does the engine: everything fixed for a
layer is set up once, when ``run_network`` stages it, and each step keeps
one GEMM and a few in-place passes.  The im2col and product buffers live
with the layer's :class:`GemmWeights` and every step's ``np.matmul``
writes into them; a schedule still returns new sums.  Spike trains stay
bit-packed between layers, as the spike SRAMs hold them: each step's
input is unpacked into the layer's one zero-bordered [C][H+2p][W+2p]
buffer, and each step's spikes are packed into the layer's train as they
fire; the pools after a layer OR each of its steps before it is packed,
so no train is unpacked again to be pooled.  The neuron parameters are cast once to the membrane dtype
(:class:`StagedNeuronParams`), with no flip mask where no channel flips;
the comparison fires through a bool view of the uint8 spikes (the
encoding layer's into one reused step map), and the reset reuses one
mask.  The staged bound also stands in for two range scans.
It proves the int32 room, so no step's sums are scanned for it.  And with
``U = (bound << frac_bits) + max|bias|``, or the peak of the encoding
layer's once-formed update, the membrane after step ``t`` (from 1) of a
layer lies within ``t * U``: only a step with ``t * U > raw_max`` scans
it, and as every later step scans too, a fault is raised on the same
step, with the same type and text, as when every step scanned.  At 24/8
and T=8 the only such step of the presets is the last one of cifar10's
4096-input fc layer.

Cycle counts, PE activity and boundary-SRAM use depend only on a layer's
geometry, the config and T; :func:`vecspike.geometry.layer_accounting`
gives them once per layer, and the schedulers return sums only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from .arch import CycleReport, HardwareConfig
from .core import (
    ENCODING_SHIFT,
    BinaryWeightTensor,
    FoldedNeuronParams,
    SpikeTrain,
    TrainRows,
    sign_blocks,
)
from .errors import FixedPointOverflowError, InvalidParameterError, ShapeError
from .fixedpoint import FixedPointFormat
from .geometry import TileBoundary, layer_accounting, output_size

if TYPE_CHECKING:  # pragma: no cover
    from .netconfig import LayerSpec, NetworkDescription


# ---------------------------------------------------------------------------
# GEMM-lowered tile kernel
# ---------------------------------------------------------------------------

# Every integer of magnitude below these limits is exact in float32/float64.
# With +-1 weights no partial sum of a layer's dot products exceeds its
# taps, times 255 for the encoding layer, so a GEMM whose bound stays below
# a limit is exact.  A packed layer's bound is (2*taps + 2) * taps instead
# (:func:`_lanes_fit`).
FLOAT32_EXACT_LIMIT = 2**24
FLOAT64_EXACT_LIMIT = 2**53


def gemm_dtype(bound: int) -> np.dtype:
    """Narrowest GEMM dtype that is exact when no |partial sum| reaches ``bound``.

    float32 below 2**24, else float64.  A bound of 2**53, which float64
    cannot hold, raises ``FixedPointOverflowError``.
    """
    if bound < FLOAT32_EXACT_LIMIT:
        return np.dtype(np.float32)
    if bound < FLOAT64_EXACT_LIMIT:
        return np.dtype(np.float64)
    raise FixedPointOverflowError(f"convolution sum: bound {bound} reaches 2**53")


def _tile_partial_rows(x: np.ndarray, weights: "GemmWeights") -> np.ndarray:
    """Kernel-row products of an input map, before the diagonal stitch.

    ``x`` is a whole padded map [..., cin, h, w_in], with no halo row; it
    is read, never written.  Its leading axes (the encoding layer's
    bitplanes) join the input channels in the inner dimension.  The
    staged operand ``weights.matrix`` is [kh*lanes, kw*taps] in the GEMM
    dtype, where ``taps`` is the size of those leading axes times ``cin``
    and ``lanes`` is ``cout``, or ``cout/2`` for a packed operand
    (:class:`GemmWeights`).  The rows are lowered, in that dtype, to
    width-only im2col columns [kw*taps, h*w_out] and multiplied once, both
    into the layer's workspace (:meth:`GemmWeights.workspace`).  The
    result [kh, lanes, h, w_out] is a view of the product buffer, which the
    layer's next call overwrites: it holds at ``[u, :, r]`` kernel row
    ``u``'s products with input row ``r``, which belong to output row ``r -
    u``.
    """
    *lead, cin, h, w_in = x.shape
    kh, kw = weights.kernel
    w_out = w_in - kw + 1
    im2col, products = weights.workspace((kw, *lead, cin, h, w_out))
    for v in range(kw):  # kernel column v sees columns v .. v + w_out - 1
        im2col[v] = x[..., v : v + w_out]
    np.matmul(weights.matrix, im2col.reshape(-1, h * w_out), out=products)
    return products.reshape(kh, -1, h, w_out)


@dataclass(eq=False)
class GemmWeights:
    """A weighted layer's weights as the one operand of its step GEMMs.

    ``matrix`` is the contiguous [kh*lanes][kw*planes*cin] operand in the
    layer's GEMM dtype (:func:`gemm_dtype`), kernel row by kernel row:
    rows ``u*lanes`` to ``(u+1)*lanes`` hold kernel row ``u``, columns run
    over kernel columns, then bitplanes, then input channels.  A spiking
    layer has one plane of +-1 values.  Where ``packed``, it has ``lanes =
    cout/2`` rows per kernel row, row ``o`` being ``W[o] + lane * W[o +
    cout/2]`` with ``lane = 2*taps + 1``, else ``lanes = cout``.  The
    ``encoding`` layer has eight planes, plane ``k`` scaled by its shift
    ``2**k``.  The operand is the same for every config: channel groups
    and row tiles are passes of the cycle model, not of this product.  The
    weight SRAM holds a layer's weights for all of its time steps, and so
    does this: :func:`stage_weights` makes it once per layer, and every
    step's schedule call takes it, and only it, as its ``weights``;
    :func:`run_network` stages each weighted layer so.
    ``bound`` is the layer's sum bound, ``taps = cin*kh*kw`` or ``255 *
    taps`` for the encoding layer: no step's sum exceeds it in magnitude.
    The layer's GEMM workspace lives here too (:meth:`workspace`), one
    slot that every step overwrites, so the steps of one staged layer run
    one at a time.
    """

    matrix: np.ndarray
    in_channels: int
    kernel: tuple[int, int]
    encoding: bool
    packed: bool
    bound: int
    _workspace: tuple | None = field(default=None, init=False, repr=False)

    def workspace(self, im2col_shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        """The im2col buffer of ``im2col_shape`` [kw, ..., h, w_out] and
        the [kh*lanes][h*w_out] product buffer, both in the GEMM dtype.

        Made for the first map and reused while the map keeps its size; a
        map of another size replaces them.
        """
        if self._workspace is None or self._workspace[0] != im2col_shape:
            h, w_out = im2col_shape[-2:]
            dtype = self.matrix.dtype
            self._workspace = (
                im2col_shape,
                np.empty(im2col_shape, dtype),
                np.empty((len(self.matrix), h * w_out), dtype),
            )
        return self._workspace[1:]


def _lanes_fit(taps: int) -> bool:
    """Whether two channels' sums of ``taps`` +-1 taps share a float32 lane."""
    return (2 * taps + 2) * taps < FLOAT32_EXACT_LIMIT


def stage_weights(weights: BinaryWeightTensor, encoding: bool) -> GemmWeights:
    """Unpack a layer's sign bits once and lay them out as its
    :class:`GemmWeights`.

    The layer's sum bound, ``taps`` or ``255 * taps`` for the
    ``encoding`` layer, is computed here, once, and kept on the result;
    the membrane dtype follows from it too (:func:`_int32_room`).  So is
    every choice of the layer's GEMM: its dtype from that bound; packed
    lanes for a spiking layer with an even ``cout`` while
    :func:`_lanes_fit`; the encoding layer's bitplane shifts.  The +-1
    values are written into the operand a block of lanes at a time, so no
    temporary of its size is made beside it.
    """
    cout, cin, kh, kw = weights.shape
    taps = cin * kh * kw
    bound = 255 * taps if encoding else taps
    dtype = gemm_dtype(bound)
    # [kh][cout][kw][cin]; copying runs of cin is faster than runs of kw
    signs = np.ascontiguousarray(weights.sign_bits.transpose(2, 0, 3, 1))
    packed = not encoding and cout % 2 == 0 and _lanes_fit(taps)
    planes, lanes = (8, cout) if encoding else (1, cout // 2 if packed else cout)
    # W[o] + lane*W[o + lanes] with W = 1 - 2s where packed, else W[o]
    lane = 2 * taps + 1 if packed else 0
    low, high = signs[:, :lanes], signs[:, lanes:]
    matrix = np.empty((kh, lanes, kw, cin), dtype=dtype)
    # a block of lanes at a time, so no temporary reaches the operand's size
    for rows in sign_blocks(lanes, kh * kw * cin):
        out = np.subtract(1 + lane, 2 * low[:, rows], dtype=dtype, out=matrix[:, rows])
        if packed:
            out -= np.multiply(high[:, rows], 2 * lane, dtype=dtype)
    if encoding:
        # [kh][cout][kw][8][cin]: plane k's columns carry the shift 2**k
        shifts = np.left_shift(1, np.arange(8)).astype(dtype)[:, None]
        matrix = matrix[:, :, :, None] * shifts
    matrix = matrix.reshape(kh * lanes, kw * planes * cin)
    return GemmWeights(matrix, cin, (kh, kw), encoding, packed, bound)


def _unpack_lanes(sums: np.ndarray, taps: int) -> np.ndarray:
    """Split packed float32 sums ``low + lane*high`` into int32 [low; high].

    ``lane = 2*taps + 1`` and ``|low|, |high| <= taps``, so ``s + taps``
    is ``high`` times ``lane`` plus a remainder in ``[0, 2*taps] < lane``:
    an int32 floor division recovers ``high``, and the rest is ``low``.
    """
    half = len(sums)
    out = np.empty((2 * half, *sums.shape[1:]), dtype=np.int32)
    low, high = out[:half], out[half:]
    low[...] = sums
    low += taps
    lane = 2 * taps + 1
    np.floor_divide(low, lane, out=high)
    low -= taps
    low -= high * lane
    return out


def _run_schedule(x: np.ndarray, weights: GemmWeights, cfg: HardwareConfig) -> np.ndarray:
    """Shared product and stitch of spiking and encoding convolutions.

    The encoding layer's pixels split into their eight bitplanes, which
    meet the shifted plane columns of its operand.  One
    :func:`_tile_partial_rows` call on the staged operand covers every
    input row.  The diagonal stitch adds kernel row ``u``'s products with
    input row ``r`` into output row ``r - u`` as one slice add per kernel
    row, dropping those that fall outside the output.  Packed lanes are
    decoded once; other sums are cast once, to int32 from float32 and to
    int64 from float64.  Either way the sums returned are a new array,
    never the workspace.
    """
    _, h_in, w_in = x.shape
    kh, kw = weights.kernel
    h_out, _ = output_size(h_in, w_in, kh, kw, cfg, weights.encoding)
    if weights.encoding:
        # [8][cin][h][w]: plane k holds bit k of every pixel
        x = np.unpackbits(x.astype(np.uint8)[None], axis=0, bitorder="little")
    products = _tile_partial_rows(x, weights)
    # diagonal stitch: products[u, :, r] belongs to output row r - u; rows
    # that land outside the output are dropped
    out = products[0, :, :h_out]
    if kh > 1:
        out = out + products[1, :, 1 : 1 + h_out]
    for u in range(2, kh):
        out += products[u, :, u : u + h_out]
    if weights.packed:
        return _unpack_lanes(out, weights.bound)
    return out.astype(np.int32 if out.dtype == np.float32 else np.int64)


def _peak(x: np.ndarray) -> int:
    """``max|x|``, 0 if empty; a bool or unsigned array has no negative value."""
    peak = int(x.max(initial=0))
    return peak if x.dtype.kind in "bu" else max(peak, -int(x.min(initial=0)))


def _step_input(x, weights: GemmWeights, encoding: bool) -> np.ndarray:
    """The checked step map of one schedule call.

    The map must be [C][H][W] integers with the weights' ``C``, each 0 or
    1 for a spiking layer and in [0, 255] for the ``encoding`` layer, and
    the weights must be staged for this layer kind.
    """
    x = np.asarray(x)
    if x.ndim != 3:
        raise ShapeError(f"input must be [C][H][W], got {x.shape}")
    if x.shape[0] != weights.in_channels:
        raise ShapeError(
            f"input has {x.shape[0]} channels, weights expect {weights.in_channels}"
        )
    if x.dtype.kind not in "biu":
        raise InvalidParameterError(f"convolution input must be integers, got {x.dtype}")
    kind, high = ("encoding", 255) if encoding else ("spike", 1)
    if x.size and ((x.dtype.kind == "i" and x.min() < 0) or x.max() > high):
        raise InvalidParameterError(f"{kind} input values must be in [0, {high}]")
    if weights.encoding != encoding:
        raise InvalidParameterError("weights staged for the other layer kind")
    return x


def schedule_conv_layer(x, weights: GemmWeights, cfg: HardwareConfig) -> np.ndarray:
    """Run one spiking-layer convolution step through the datapath model.

    ``x`` is a single time step's spike map [Cin][H][W], already zero
    padded (padding is materialized by the network config, never inside
    the schedule), of a bool or integer dtype with every value 0 or 1;
    any other raises ``InvalidParameterError``.  ``weights`` is the
    layer's :class:`GemmWeights`, staged once by :func:`stage_weights` for
    a spiking layer.
    Returns the [Cout][H_out][W_out] sums, equal to the dense reference
    convolution: int32 when the layer's GEMM runs in float32, else int64.
    Cycles come from :func:`vecspike.geometry.layer_accounting`.
    """
    return _run_schedule(_step_input(x, weights, encoding=False), weights, cfg)


def schedule_encoding_layer(x, weights: GemmWeights, cfg: HardwareConfig) -> np.ndarray:
    """Run the multi-bit encoding convolution through the datapath model.

    ``x`` holds 8-bit pixels, integers in [0, 255].  Each input channel
    splits into eight 1-bit planes on eight PE blocks sharing one weight;
    the first accumulator stage shifts each block's sums by its bitplane
    index before the cross-block tree, so the returned [Cout][H_out][W_out]
    sums equal the integer convolution of the 8-bit input exactly.
    ``weights`` is the layer's :class:`GemmWeights`, staged once by
    :func:`stage_weights` for the encoding layer, and the result dtype is
    as for :func:`schedule_conv_layer`.
    """
    return _run_schedule(_step_input(x, weights, encoding=True), weights, cfg)


# ---------------------------------------------------------------------------
# IF neuron unit
# ---------------------------------------------------------------------------

def _int32_room(bound: int, fmt: FixedPointFormat) -> bool:
    """Whether sums of magnitude up to ``bound`` fit an int32 membrane of ``fmt``.

    The membrane and the bias each lie within ``2**(total_bits - 1)``, so
    a shifted sum below ``2**31 - 2**total_bits`` leaves every
    intermediate of the update inside int32.
    """
    return bound << fmt.frac_bits < 2**31 - 2**fmt.total_bits


@dataclass(eq=False)
class StagedNeuronParams:
    """A layer's :class:`FoldedNeuronParams`, staged once with its membrane:
    the ``neurons`` of every ``if_unit_process(conv_out, neurons)`` call.

    ``membrane`` is the layer's [C][H][W] potentials, int32 or int64 with
    the parameters' channels, else ``ShapeError`` before any write; only
    :func:`if_unit_process` calls with this object write it, one call per
    time step.  The parameters are cast once to its dtype: ``bias`` and
    ``threshold`` are [C][1][1], the threshold raised by one on flipped
    channels (``v <= thr`` is ``not v >= thr + 1``, so one comparison
    serves both polarities), and ``flipped`` is the [C][1][1] flip mask,
    or ``None`` when no channel flips.  ``keep`` is the reused reset mask.

    ``peak`` is U, a bound on every step's |update|, and ``steps`` counts
    the steps taken.  Built directly from plain parameters and a membrane,
    an object has no bound (``peak`` is ``None``) and every call checks
    and scans.  :meth:`for_layer` derives the bound from the layer's
    staged weights.
    """

    params: FoldedNeuronParams
    membrane: np.ndarray
    peak: int | None = field(default=None, init=False)
    steps: int = field(default=0, init=False)
    bias: np.ndarray = field(init=False)
    threshold: np.ndarray = field(init=False)
    flipped: np.ndarray | None = field(init=False)
    keep: np.ndarray = field(init=False)

    def __post_init__(self):
        p, dtype, shape = self.params, self.membrane.dtype, self.membrane.shape
        if dtype not in (np.int32, np.int64):
            raise ShapeError(f"membrane must be int32 or int64, got {dtype}")
        if len(shape) != 3:
            raise ShapeError(f"membrane must be [C][H][W], got {shape}")
        if shape[0] != p.channels:
            raise ShapeError(f"{p.channels} parameter channels for membrane {shape}")
        self.bias = p.bias_raw.astype(dtype)[:, None, None]
        self.threshold = (p.threshold_raw + p.flipped).astype(dtype)[:, None, None]
        self.flipped = p.flipped[:, None, None] if p.flipped.any() else None
        self.keep = np.empty(shape, dtype=bool)

    @classmethod
    def for_layer(
        cls, params: FoldedNeuronParams, weights: GemmWeights, shape: tuple[int, ...]
    ) -> "StagedNeuronParams":
        """Stage ``params`` with a zero membrane of ``shape`` for the
        layer whose sums the schedules compute from ``weights``.

        The membrane is int32 where the sum bound meets the int32 room
        (:func:`_int32_room`), else int64, and ``U = (bound << frac_bits) +
        max|bias|``.  From a zero membrane, |v| <= steps * U, so a step
        with ``steps * U <= raw_max`` cannot leave the format and skips
        the membrane's range scan; every later step scans.  Both hold only
        for sums within the bound, as every schedule call on ``weights``
        returns.
        """
        fmt = params.fmt
        dtype = np.int32 if _int32_room(weights.bound, fmt) else np.int64
        staged = cls(params, np.zeros(shape, dtype=dtype))
        staged.peak = (weights.bound << fmt.frac_bits) + _peak(params.bias_raw)
        return staged


def if_unit_process(conv_out, neurons: StagedNeuronParams) -> np.ndarray:
    """Subtract the folded bias, accumulate, compare, fire and write back.

    ``neurons`` is the layer's :class:`StagedNeuronParams`, staged once and
    passed to every step.  The call updates its membrane in place to the
    sum, or zero where the neuron fired, in the membrane's dtype and the
    format ``neurons.params.fmt``, and returns the uint8 spikes.
    ``conv_out`` must be integer sums of the membrane's shape, else
    ``ShapeError``, and the membrane must hold in-format values, as every
    call that returns leaves it.  An int32 membrane takes only sums whose
    peak meets the int32 room (:func:`_int32_room`), so no intermediate
    can wrap; a larger sum raises ``ShapeError`` before any write, which
    ``run_network`` never passes.  Faults are raised, and worded, exactly
    as the oracle's.

    Staged by :meth:`StagedNeuronParams.for_layer`, as ``run_network``
    stages them, the layer's bound stands in for the int32-room scan, and
    for the membrane's range scan on the steps it clears: the sums must
    then be the schedule's on the staged weights.  The encoding layer
    re-presents the same integer convolution every step (it is parked in
    the second membrane SRAM on chip), so ``run_network`` forms its update
    once per layer (:func:`_if_update`) and fires it each step
    (:func:`_if_fire`), the two halves of this call.
    """
    x = np.asarray(conv_out)
    fmt = neurons.params.fmt
    if x.dtype.kind not in "iu":
        raise ShapeError(f"conv output must be integer sums, got {x.dtype}")
    if x.shape != neurons.membrane.shape:
        raise ShapeError(
            f"conv output {x.shape} does not match the membrane {neurons.membrane.shape}"
        )
    if neurons.peak is None and neurons.membrane.dtype == np.int32:
        if not _int32_room(peak := _peak(x), fmt):
            raise ShapeError(f"conv output peak {peak} leaves no int32 room in {fmt}")
    spikes = np.empty(x.shape, dtype=np.uint8)
    return _if_fire(_if_update(x, neurons, fmt), neurons, fmt, spikes)


def _if_update(x: np.ndarray, neurons: StagedNeuronParams, fmt) -> np.ndarray:
    """The shifted, bias-subtracted update of one IF step.

    In the membrane's dtype: for an int32 one the int32 room is already
    proven; an int64 one shifts through ``fmt.shift_left``, which refuses
    a shift that would wrap.
    """
    if neurons.membrane.dtype == np.int64:
        update = fmt.shift_left(x, fmt.frac_bits, "convolution sum")
    else:
        update = np.left_shift(x, fmt.frac_bits, dtype=np.int32)
    update -= neurons.bias
    return update


def _if_fire(
    update: np.ndarray, neurons: StagedNeuronParams, fmt, out: np.ndarray
) -> np.ndarray:
    """Accumulate ``update`` into the staged membrane, compare, fire into
    the uint8 ``out`` and write back; returns ``out``."""
    v = neurons.membrane
    v += update
    neurons.steps += 1
    if neurons.peak is None or neurons.steps * neurons.peak > fmt.raw_max:
        fmt.check_raw(v, "membrane potential")
    fired = out.view(bool)
    np.greater_equal(v, neurons.threshold, out=fired)
    if neurons.flipped is not None:
        fired ^= neurons.flipped
    np.logical_not(fired, out=neurons.keep)
    v *= neurons.keep
    return out


# ---------------------------------------------------------------------------
# whole-network engine
# ---------------------------------------------------------------------------

@dataclass
class LayerRun:
    index: int
    kind: str
    report: CycleReport
    boundary: TileBoundary
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


def _bordered(shape: tuple[int, int, int], pad: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """A zero [C][H+2p][W+2p] buffer for [C][H][W] maps of ``shape``, and
    the view of its interior that a map is written into."""
    c, h, w = shape
    buffer = np.zeros((c, h + 2 * pad, w + 2 * pad), dtype=dtype)
    return buffer, buffer[:, pad : pad + h, pad : pad + w]


def _or_pool2(spikes: np.ndarray) -> np.ndarray:
    """2x2 OR pooling of the last two axes of a 0/1 map: strided slices
    OR the row pairs; a uint16 view of that contiguous result holds each
    column pair, which fires when it is nonzero."""
    rows = spikes[..., 0::2, :] | spikes[..., 1::2, :]
    return (rows.view(np.uint16) != 0).view(np.uint8)


def _layer_steps(
    layer: "LayerSpec",
    tensor: BinaryWeightTensor,
    params: FoldedNeuronParams,
    source: "np.ndarray | SpikeTrain",
    time_steps: int,
    cfg: HardwareConfig,
) -> Iterator[np.ndarray]:
    """Yield the [C][H][W] spikes of each time step of one weighted layer.

    ``source`` is the image for the encoding layer, else the previous
    layer's packed train.  Everything fixed for the layer is set up here,
    once: the weights and their GEMM workspace (:func:`stage_weights`),
    the neuron parameters with the membrane (:class:`StagedNeuronParams`),
    whose dtype and step bound U follow from the layer's sum bound, and
    one zero-bordered [C][H+2p][W+2p] input buffer.  Each step then
    unpacks its input into that buffer's interior and runs one schedule
    call on the buffer and one IF call.  A yielded map is valid until the
    next is asked for.  The staged layer is dropped when the layer ends,
    so one layer's GEMM operand and workspace are alive at a time.
    """
    fmt = cfg.fmt
    encoding = layer.kind == "encoding-conv"
    staged = stage_weights(tensor, encoding)
    if encoding:
        params = params.scaled_by_pow2(ENCODING_SHIFT)
    neurons = StagedNeuronParams.for_layer(params, staged, layer.out_shape)
    if encoding:
        # scheduled once; every step re-presents the parked result, whose
        # IF update is therefore formed once too, and its peak is U
        image, interior = _bordered(layer.in_shape, layer.padding, source.dtype)
        interior[...] = source
        update = _if_update(schedule_encoding_layer(image, staged, cfg), neurons, fmt)
        neurons.peak = _peak(update)
        spikes = np.empty(layer.out_shape, dtype=np.uint8)
        for _ in range(time_steps):
            yield _if_fire(update, neurons, fmt, spikes)
        return
    padded, interior = _bordered(layer.in_shape, layer.padding, np.uint8)
    for t in range(time_steps):
        interior[...] = source.step(t).reshape(layer.in_shape)
        yield if_unit_process(schedule_conv_layer(padded, staged, cfg), neurons)


def _pooled_runs(layers: Sequence["LayerSpec"]) -> list[list[int]]:
    """The layer indices split into runs: each weighted layer with the
    pools that directly follow it, which pool its output."""
    runs: list[list[int]] = []
    for idx, layer in enumerate(layers):
        if layer.has_weights:
            runs.append([idx])
        elif layer.kind == "maxpool2":
            runs[-1].append(idx)
        else:
            raise InvalidParameterError(f"unknown layer kind {layer.kind!r}")
    return runs


def run_network(
    net: "NetworkDescription",
    weights: Sequence[BinaryWeightTensor | None],
    folded: Sequence[FoldedNeuronParams | None],
    image: np.ndarray,
    time_steps: int,
    cfg: HardwareConfig,
) -> EngineRun:
    """Execute a validated network on the datapath model.

    The inputs pass ``net.check_run_inputs`` before any layer runs.
    Layer by layer, all time steps of one layer run before the next
    so membrane potentials never leave the chip.  Each weighted layer is
    set up once for all of its steps (:func:`_layer_steps`): its weights
    with their GEMM workspace (:func:`stage_weights`, one config-free
    operand), its neuron parameters with its membrane
    (:class:`StagedNeuronParams`), int32 where the layer's sum bound meets
    the int32 room and int64 otherwise, updated in place, and one padded
    step buffer.  Trains stay bit-packed between layers, as in the spike
    SRAMs: a layer unpacks one step of its input at a time into that
    buffer, and each step's spikes are packed into the layer's train as
    they fire (:class:`vecspike.core.TrainRows`), so no layer holds an
    unpacked [T] train.  The pools after a weighted layer OR strided
    slices of each of its steps as it fires (:func:`_or_pool2`), as VSA
    pools the IF unit's output before the spike SRAM, and pack their own
    trains from there.  The encoding convolution is computed once and
    iterated against the residue potential.  Spike trains are
    bit-identical to :func:`vecspike.core.run_network_oracle`.
    """
    img = net.check_run_inputs("run_network", weights, folded, image, time_steps, cfg.fmt)

    trains: list[SpikeTrain] = []
    layer_runs: list[LayerRun] = []
    current: SpikeTrain | None = None
    for run in _pooled_runs(net.layers):
        layer = net.layers[run[0]]
        source = img if layer.kind == "encoding-conv" else current
        rows, *pools = [TrainRows((time_steps, *net.layers[idx].out_shape)) for idx in run]
        for spikes in _layer_steps(layer, weights[run[0]], folded[run[0]], source,
                                   time_steps, cfg):
            rows.add(spikes)
            for pooled in pools:
                spikes = _or_pool2(spikes)
                pooled.add(spikes)
        for idx, built in zip(run, (rows, *pools)):
            current = built.train()
            trains.append(current)
            report, boundary = layer_accounting(net.layers[idx], cfg, time_steps)
            layer_runs.append(LayerRun(idx, net.layers[idx].kind, report, boundary,
                                       current.spike_count()))
    return EngineRun(trains, current.channel_counts(), layer_runs)
