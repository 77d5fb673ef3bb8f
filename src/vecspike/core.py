"""Bit-exact reference model of binary-weight spiking inference.

This module holds the data types the engine shares and the functional
oracle that checks it: a direct integer/fixed-point implementation of
integrate-and-fire dynamics, folded batch normalization, dense binary
convolution, OR-pooling and whole-network execution.  Everything favours
clarity over speed, with four exceptions.  The dense convolution sums one
BLAS product per kernel offset, each on a view of the padded input (no
copy per offset), in float32 when ``max|x| * C * kh * kw`` stays below
2**24, in float64 when it stays below 2**53 and in int64 when it stays
below 2**63; a larger bound, which could wrap int64, raises
``FixedPointOverflowError``.  The whole-network run lays out each weighted
layer's +-1 weights, one [O][C] matrix per offset, once for all of its
time steps, and holds one weighted layer's operand and sums at a time.
Trains stay bit-packed between layers: a layer unpacks its input one
step at a time (two for a pair) and packs each step's spikes into its
train as they fire, so no layer holds an unpacked [T] train.  The run
computes in int32 wherever a step's own data prove int32 exact: a
float32 product's sums lie below 2**24 and come back int32, and a step
is weighed in int32 when its ``max|x| * 2**frac_bits + 2**total_bits``
is below 2**31, so neither the shifted sum less an in-format bias nor
its addition to an in-format membrane can wrap; any other step is
weighed in int64, and the membrane is promoted to int64 once, when the
first such step arrives.  And it
convolves two time steps in one product: with ``taps = C*kh*kw*max|x|``
each step's sum lies in [-taps, taps], so the map ``x[t] + base*x[t+1]``,
``base = 2*taps + 1``, convolves to ``s[t] + base*s[t+1]``, which decodes
as ``s[t+1] = (s + taps) // base`` and ``s[t] = s - base*s[t+1]``.  Steps
pair only while the packed bound ``(base + 1)*taps`` stays below 2**24,
so the product stays float32 under the convolution's own check; the
decoded steps stream into the IF loop one pair at a time.
The engine in ``vecspike.dataflow`` must reproduce these results bit for
bit; it shares no convolution code with this module, so the comparison
stays an independent check.

Conventions
-----------
* Spikes are 0/1 values indexed ``[time][channel][row][col]``.  A
  :class:`SpikeTrain` holds them one bit each, ``ceil(C*H*W/8)`` bytes per
  step, as the spike SRAMs do; the runs compute one step at a time in
  uint8 arrays and pack each step into its train's row as it is made
  (:class:`TrainRows`); :meth:`SpikeTrain.from_rows` is the checked
  constructor from rows packed elsewhere.
* Binary weights are stored as sign bits: bit 1 encodes weight -1, bit 0
  encodes weight +1, i.e. the logical value is ``1 - 2*bit``.  A
  :class:`BinaryWeightTensor` holds them one bit each, packed flat as a
  bundle stores them.
* The IF recurrence is ``V[t+1] = V[t]*(1 - o[t]) + in[t+1]`` with a spike
  whenever the updated potential reaches the threshold (hard reset to zero,
  ties fire).  With a negative normalization gain the comparison direction
  flips to ``<=``.  The oracle resets lazily, on the next step; the
  engine writes zero back when a neuron fires.  ``_if_run`` alone runs it,
  over a stream of weighed inputs (``_weigh``: the sums on the grid, less
  the bias), and yields each step's spikes; it copies the first input
  into its potential and writes no input.
* The first (encoding) layer consumes an 8-bit image, computes its integer
  convolution once, weighs it once and feeds that one array to ``_if_run``
  at every time step.  Its folded bias/threshold are pre-scaled by 256 so
  that the u/256 input normalization stays in integer arithmetic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    FixedPointOverflowError,
    InvalidParameterError,
    ShapeError,
)
from .fixedpoint import DEFAULT_FORMAT, FixedPointFormat

if TYPE_CHECKING:  # pragma: no cover
    from .netconfig import LayerSpec, NetworkDescription

# 8-bit inputs represent u/2**8 of the (0,1) range; folded params shift
# left by this
ENCODING_SHIFT = 8
# integers below these magnitudes are exact in float32 / float64
FLOAT32_EXACT_LIMIT = 2**24
FLOAT64_EXACT_LIMIT = 2**53
# weighed sums and membranes of magnitude below this fit int32
INT32_LIMIT = 2**31
# sign bits that a layer's +-1 operand is written from per block
SIGN_BLOCK = 2**16


def sign_blocks(rows: int, bits_per_row: int) -> list[slice]:
    """Slices over ``rows`` rows of ``bits_per_row`` sign bits, about
    ``SIGN_BLOCK`` bits each: an operand written one such block at a time
    makes no temporary near its own size."""
    block = max(1, SIGN_BLOCK // max(1, bits_per_row))
    return [slice(start, start + block) for start in range(0, rows, block)]


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

def _read_only_bits(data, shape_error: str, value_error: str,
                    per_step: bool) -> tuple[tuple[int, int, int, int], np.ndarray]:
    """Check a 4-D array of 0s and 1s and pack it: its shape, and its bits
    as read-only ``np.packbits`` bytes with clear pad bits.

    ``per_step`` packs one row of ``ceil(C*H*W/8)`` bytes per index of the
    first axis, else the whole array is packed flat.  A wrong rank raises
    ``ShapeError`` with ``shape_error`` formatted with the shape, any other
    value than 0 or 1 ``InvalidParameterError`` with ``value_error``.
    """
    arr = np.asarray(data)
    if arr.ndim != 4:
        raise ShapeError(shape_error.format(arr.shape))
    if arr.dtype.kind in "bu":  # no value below 0: the max decides
        bits = arr.max(initial=0) <= 1
    else:
        bits = ((arr == 0) | (arr == 1)).all()
    if not bits:
        raise InvalidParameterError(value_error)
    if arr.dtype.kind not in "biu":  # np.packbits takes bools and integers
        arr = arr.astype(np.uint8)
    if per_step:
        packed = np.packbits(arr.reshape(len(arr), math.prod(arr.shape[1:])), axis=1)
    else:
        packed = np.packbits(arr, axis=None)
    packed.setflags(write=False)
    return arr.shape, packed


def _checked_packed(packed, shape, per_step: bool, what: str) -> np.ndarray:
    """A read-only copy of ``packed``, once it holds the bits of a 4-D
    ``shape`` as :func:`_read_only_bits` packs them.

    ``packed`` must be uint8 and shaped as those bytes, one row per index
    of the first axis where ``per_step``, else flat, or ``ShapeError``; the
    pad bits of each row's last byte must be clear, else
    ``InvalidParameterError``.  ``what`` names the tensor in the texts.
    """
    packed = np.asarray(packed)
    if len(shape) != 4 or min(shape) < 0:
        raise ShapeError(f"{what} must be 4-D, got shape {shape}")
    bits = math.prod(shape[1:] if per_step else shape)
    expected = (shape[0], -(-bits // 8)) if per_step else (-(-bits // 8),)
    if packed.shape != expected:
        raise ShapeError(f"{what} {shape} packs into {expected} bytes, got {packed.shape}")
    if packed.dtype != np.uint8:
        raise InvalidParameterError(f"packed {what} must be uint8, got {packed.dtype}")
    pad = -bits % 8  # np.packbits fills the low bits of the last byte
    if pad and (packed[..., -1] & ((1 << pad) - 1)).any():
        raise InvalidParameterError(f"packed {what} has set pad bits")
    packed = packed.copy()
    packed.setflags(write=False)
    return packed


def _unpacked(packed: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """A read-only uint8 copy of the bits of :func:`_read_only_bits`:
    ``packed`` holds one row per index of ``shape``'s first axis if it has
    two axes, else the whole array flat."""
    count = math.prod(shape[1:] if packed.ndim == 2 else shape)
    bits = np.unpackbits(packed, axis=-1, count=count).reshape(shape)
    bits.setflags(write=False)
    return bits


class SpikeTrain:
    """Immutable binary activation tensor indexed [time][channel][row][col].

    It is held bit-packed, ``ceil(C*H*W/8)`` bytes per time step, as the
    spike SRAMs and DRAM hold it, and its spike count is taken once, when
    it is built.  ``data`` unpacks a new read-only uint8 copy of the whole
    train on every access, :meth:`step` one step's.  The runs build each
    layer's train one step at a time (:meth:`from_steps`), so no unpacked
    [T] train is made between layers.
    """

    def __init__(self, data):
        data = np.asarray(data)
        self._shape, self._bits = _read_only_bits(
            data, "spike train must be 4-D [T][C][H][W], got {}",
            "spike train elements must be 0 or 1", per_step=True)
        self._count = int(np.count_nonzero(data))  # every element is 0 or 1

    @classmethod
    def _of(cls, shape: tuple[int, int, int, int], rows: np.ndarray,
            count: int) -> "SpikeTrain":
        """The train of ``shape`` held in ``rows``, read-only packed rows
        that are known to be well formed, with ``count`` spikes."""
        train = cls.__new__(cls)
        train._shape, train._bits, train._count = shape, rows, count
        return train

    @classmethod
    def from_rows(cls, rows, shape) -> "SpikeTrain":
        """The train of ``shape`` [T][C][H][W] from its packed rows.

        ``rows`` is uint8 [T][ceil(C*H*W/8)], each row a step's
        ``np.packbits`` bytes; a wrong shape raises ``ShapeError``, set
        pad bits ``InvalidParameterError``.  The rows are copied and their
        spikes counted once.
        """
        shape = tuple(int(n) for n in shape)
        rows = _checked_packed(rows, shape, True, "spike train")
        # a step at a time, and the pad bits are clear
        count = sum(np.count_nonzero(np.unpackbits(row)) for row in rows)
        return cls._of(shape, rows, int(count))

    @classmethod
    def from_steps(cls, steps: Iterable[np.ndarray], shape) -> "SpikeTrain":
        """The train of ``shape`` [T][C][H][W] from ``steps``, which yields
        its T [C][H][W] maps in step order; nonzero elements are spikes.

        Each map is packed into its row as it arrives (:class:`TrainRows`),
        so a generator of steps streams and only one unpacked step need
        exist at a time.  A map of another shape, or another number of maps
        than T, raises ``ShapeError``.
        """
        rows = TrainRows(shape)
        for spikes in steps:
            rows.add(spikes)
        return rows.train()

    @property
    def data(self) -> np.ndarray:
        return _unpacked(self._bits, self._shape)

    def step(self, t: int) -> np.ndarray:
        """Step ``t``'s [C][H][W] spikes, unpacked into a new read-only
        uint8 array."""
        return _unpacked(self._bits[t], self._shape[1:])

    def channel_counts(self) -> np.ndarray:
        """The int64 [C] spike counts per channel over every step and
        position, from the whole train unpacked once."""
        return self.data.sum(axis=(0, 2, 3), dtype=np.int64)

    @property
    def time_steps(self) -> int:
        return self._shape[0]

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self._shape

    def spike_count(self) -> int:
        return self._count

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpikeTrain):
            return NotImplemented
        return self._shape == other._shape and np.array_equal(self._bits, other._bits)

    def __repr__(self) -> str:
        t, c, h, w = self.shape
        return f"SpikeTrain(T={t}, C={c}, H={h}, W={w}, spikes={self.spike_count()})"


class TrainRows:
    """A [T][C][H][W] train's packed rows, filled one step at a time.

    :meth:`add` packs each [C][H][W] map into the next row and counts its
    spikes (nonzero elements) as it arrives, so the unpacked map can be
    dropped at once; :meth:`train` returns the finished
    :class:`SpikeTrain`, holding these rows without a copy.  A map of
    another shape, a map past row T or a train of fewer than T maps
    raises ``ShapeError``.
    """

    def __init__(self, shape):
        self.shape = tuple(int(n) for n in shape)
        self.rows = np.empty((self.shape[0], -(-math.prod(self.shape[1:]) // 8)),
                             dtype=np.uint8)
        self.taken = 0
        self.count = 0

    def add(self, spikes: np.ndarray) -> None:
        taken = self.taken
        if taken == len(self.rows):
            raise ShapeError(f"more than {taken} steps for a train of {taken}")
        if spikes.shape != self.shape[1:]:
            raise ShapeError(f"step {taken} is {spikes.shape}, expected {self.shape[1:]}")
        self.rows[taken] = np.packbits(spikes, axis=None)
        self.count += np.count_nonzero(spikes)
        self.taken = taken + 1

    def train(self) -> SpikeTrain:
        if self.taken != self.shape[0]:
            raise ShapeError(f"{self.taken} steps for a train of {self.shape[0]}")
        self.rows.setflags(write=False)
        return SpikeTrain._of(self.shape, self.rows, int(self.count))


class BinaryWeightTensor:
    """Sign-bit weights in {-1,+1} per (out-channel, in-channel, kh, kw).

    The bits are held packed flat, ``ceil(O*I*kh*kw/8)`` bytes, the bytes
    a bundle stores (``packed``), and :meth:`from_packed` takes those bytes
    as they are.  ``sign_bits`` unpacks a new read-only uint8 copy on every
    access.
    """

    def __init__(self, sign_bits):
        self.shape, self.packed = _read_only_bits(
            sign_bits, "weights must be 4-D [O][I][kh][kw], got {}",
            "sign bits must be 0 or 1", per_step=False)

    @classmethod
    def from_packed(cls, packed, shape) -> "BinaryWeightTensor":
        """The tensor of ``shape`` [O][I][kh][kw] from its flat
        ``np.packbits`` bytes, as a bundle stores them: uint8 of
        ``ceil(O*I*kh*kw/8)`` bytes, else ``ShapeError``, with clear pad
        bits, else ``InvalidParameterError``.  The bytes are copied."""
        tensor = cls.__new__(cls)
        tensor.shape = tuple(int(n) for n in shape)
        tensor.packed = _checked_packed(packed, tensor.shape, False, "weights")
        return tensor

    @property
    def sign_bits(self) -> np.ndarray:
        return _unpacked(self.packed, self.shape)

    def values(self, dtype=np.int64) -> np.ndarray:
        """Logical weights: bit b maps to 1 - 2b."""
        return np.subtract(1, 2 * self.sign_bits, dtype=dtype)

    @property
    def out_channels(self) -> int:
        return self.shape[0]

    @property
    def in_channels(self) -> int:
        return self.shape[1]

    @property
    def kernel(self) -> tuple[int, int]:
        return self.shape[2], self.shape[3]

    def __eq__(self, other) -> bool:
        if not isinstance(other, BinaryWeightTensor):
            return NotImplemented
        return self.shape == other.shape and np.array_equal(self.packed, other.packed)


@dataclass
class BNParams:
    """Per-channel batch-normalization parameters. Scalars broadcast."""

    gamma: np.ndarray
    beta: np.ndarray
    mean: np.ndarray
    var: np.ndarray
    eps: float = 1e-5

    def __post_init__(self):
        self.gamma = np.atleast_1d(np.asarray(self.gamma, dtype=np.float64))
        self.beta = np.atleast_1d(np.asarray(self.beta, dtype=np.float64))
        self.mean = np.atleast_1d(np.asarray(self.mean, dtype=np.float64))
        self.var = np.atleast_1d(np.asarray(self.var, dtype=np.float64))
        if (self.gamma == 0).any():
            raise InvalidParameterError("gamma must be nonzero")
        if (self.var < 0).any():
            raise InvalidParameterError("variance must be >= 0")
        if self.eps < 0:
            raise InvalidParameterError("eps must be >= 0")


@dataclass
class FoldedNeuronParams:
    """Folded per-channel bias/threshold in fixed point.

    bias' = mean - (sigma/gamma)*beta and threshold' = (sigma/gamma)*v_th
    with sigma = sqrt(var + eps).  ``flipped`` marks channels whose gamma
    was negative: dividing the firing condition by a negative gain flips
    the comparison to <=.
    """

    bias_raw: np.ndarray
    threshold_raw: np.ndarray
    flipped: np.ndarray
    fmt: FixedPointFormat = field(default_factory=lambda: DEFAULT_FORMAT)

    def __post_init__(self):
        self.bias_raw = np.atleast_1d(np.asarray(self.bias_raw, dtype=np.int64))
        self.threshold_raw = np.atleast_1d(
            np.asarray(self.threshold_raw, dtype=np.int64)
        )
        self.flipped = np.atleast_1d(np.asarray(self.flipped, dtype=bool))
        if not (
            self.bias_raw.shape == self.threshold_raw.shape == self.flipped.shape
        ):
            raise ShapeError("folded parameter arrays must share one shape")
        fmt = self.fmt
        for name, raw in (("bias", self.bias_raw), ("threshold", self.threshold_raw)):
            if raw.size and (raw.min() < fmt.raw_min or raw.max() > fmt.raw_max):
                raise InvalidParameterError(
                    f"{name} raw outside [{fmt.raw_min}, {fmt.raw_max}] "
                    f"for {fmt.total_bits}-bit format"
                )

    @property
    def channels(self) -> int:
        return self.bias_raw.shape[0]

    def scaled_by_pow2(self, shift: int) -> "FoldedNeuronParams":
        """Exactly scale bias and threshold by 2**shift (raw left shift)."""
        bias = self.fmt.shift_left(self.bias_raw, shift, "scaled bias")
        thr = self.fmt.shift_left(self.threshold_raw, shift, "scaled threshold")
        self.fmt.check_raw(bias, "scaled bias")
        self.fmt.check_raw(thr, "scaled threshold")
        return FoldedNeuronParams(bias, thr, self.flipped.copy(), self.fmt)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FoldedNeuronParams):
            return NotImplemented
        return (
            self.fmt == other.fmt
            and np.array_equal(self.bias_raw, other.bias_raw)
            and np.array_equal(self.threshold_raw, other.threshold_raw)
            and np.array_equal(self.flipped, other.flipped)
        )


# ---------------------------------------------------------------------------
# neuron operations
# ---------------------------------------------------------------------------

def if_step(
    v_prev: int,
    o_prev: int,
    weighted_input: int,
    threshold: int,
    *,
    flipped: bool = False,
    fmt: FixedPointFormat = DEFAULT_FORMAT,
) -> tuple[int, int]:
    """One integrate-and-fire update on raw fixed-point scalars.

    Returns (new potential, spike bit).  A previous spike hard-resets the
    potential to zero before the new input is accumulated; the result is
    therefore independent of ``v_prev`` whenever ``o_prev`` is 1.
    """
    v_new = (0 if o_prev else int(v_prev)) + int(weighted_input)
    fmt.check_raw(v_new, "membrane potential")
    if flipped:
        o_new = 1 if v_new <= threshold else 0
    else:
        o_new = 1 if v_new >= threshold else 0
    return v_new, o_new


def fold_bn(
    params: BNParams,
    v_th: float,
    fmt: FixedPointFormat = DEFAULT_FORMAT,
) -> FoldedNeuronParams:
    """Fold batch normalization into a per-channel bias and threshold.

    The per-step normalized accumulation against v_th is equivalent to
    accumulating the raw convolution output minus
    ``bias' = mean - (sigma/gamma)*beta`` against
    ``threshold' = (sigma/gamma)*v_th``; for negative gamma the comparison
    direction flips.  Both values are rounded half-to-even onto the
    fixed-point grid.
    """
    sigma = np.sqrt(params.var + params.eps)
    ratio = sigma / params.gamma
    bias = params.mean - ratio * params.beta
    threshold = ratio * float(v_th)
    bias_raw = np.atleast_1d(fmt.quantize(bias))
    threshold_raw = np.atleast_1d(fmt.quantize(threshold))
    return FoldedNeuronParams(bias_raw, threshold_raw, params.gamma < 0, fmt)


def spikes_eq3_oracle(
    conv_outputs: Sequence[float],
    params: BNParams,
    v_th: float,
) -> list[int]:
    """Spike train of the un-folded pipeline, in real arithmetic.

    Per step the convolution output is normalized
    (``gamma*(x - mean)/sigma + beta``), accumulated into a membrane with
    hard-reset semantics, and compared against the original v_th.  This
    exists solely as the equivalence oracle for :func:`fold_bn`.
    """
    gamma = float(params.gamma.reshape(-1)[0])
    beta = float(params.beta.reshape(-1)[0])
    mean = float(params.mean.reshape(-1)[0])
    var = float(params.var.reshape(-1)[0])
    sigma = (var + params.eps) ** 0.5
    v = 0.0
    o = 0
    spikes = []
    for x in conv_outputs:
        normalized = gamma * (float(x) - mean) / sigma + beta
        v = (0.0 if o else v) + normalized
        o = 1 if v >= v_th else 0
        spikes.append(o)
    return spikes


# ---------------------------------------------------------------------------
# layer oracles
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class OffsetWeights:
    """A layer's weights laid out for :func:`conv2d_oracle`'s offset products.

    ``values`` is the contiguous float32 [kh][kw][O][C] of +-1 values, one
    [O][C] matrix per kernel offset.  :func:`run_network_oracle` lays out
    each weighted layer once and passes it to every step's call.
    """

    values: np.ndarray


def lay_out_offsets(weights: BinaryWeightTensor) -> OffsetWeights:
    """Unpack a layer's sign bits once and lay them out as its
    :class:`OffsetWeights`.  The +-1 values are written a block of output
    channels at a time, so no temporary of the operand's size is made
    beside it."""
    # [kh][kw][O][C]; the uint8 bits transpose faster than the floats
    signs = np.ascontiguousarray(weights.sign_bits.transpose(2, 3, 0, 1))
    kh, kw, out_channels, in_channels = signs.shape
    values = np.empty(signs.shape, dtype=np.float32)
    for rows in sign_blocks(out_channels, kh * kw * in_channels):
        np.subtract(1, 2 * signs[:, :, rows], dtype=np.float32, out=values[:, :, rows])
    return OffsetWeights(values)


def _peak(x: np.ndarray) -> int:
    """``max|x|`` of an integer array as a Python int; 0 when it is empty."""
    return max(int(x.max(initial=0)), -int(x.min(initial=0)))


def conv2d_oracle(
    inputs,
    weights: BinaryWeightTensor | OffsetWeights,
    padding: int = 0,
) -> np.ndarray:
    """Dense reference convolution with weights in {-1,+1}.

    Accepts a single-step spike map or an unsigned 8-bit tensor shaped
    [C][H][W], of a bool or integer dtype (any other raises
    ``InvalidParameterError``); returns exact integer outputs [O][H'][W'],
    int32 when the product ran in float32 (every sum below 2**24), else
    int64.
    ``weights`` is the layer's tensor, or the :class:`OffsetWeights` laid
    out from it.  Accumulation is a plain sum over receptive-field
    offsets.  The padded input, plus one spare zero row, is written once
    and flattened to [C][(hp+1)*wp]; offset (u, v) multiplies its [O][C]
    weights with the view from ``u*wp + v``, ``h_out*wp`` long.  Each
    output row carries ``wp - w_out`` wrapped columns, dropped once at the
    end.
    """
    if isinstance(weights, BinaryWeightTensor):
        weights = lay_out_offsets(weights)
    kh, kw, out_channels, in_channels = weights.values.shape
    x = np.asarray(inputs)
    if x.ndim != 3:
        raise ShapeError(f"input must be [C][H][W], got {x.shape}")
    if padding < 0:
        raise InvalidParameterError("padding must be >= 0")
    c, h, w = x.shape
    if c != in_channels:
        raise ShapeError(f"input has {c} channels, weights expect {in_channels}")
    hp, wp = h + 2 * padding, w + 2 * padding
    h_out = hp - kh + 1
    w_out = wp - kw + 1
    if h_out < 1 or w_out < 1:
        raise ShapeError(f"{kh}x{kw} kernel does not fit {hp}x{wp} input")
    if x.dtype.kind not in "biu":
        raise InvalidParameterError(f"convolution input must be integers, got {x.dtype}")
    # a float is exact while no |partial sum| reaches its limit; the bound
    # covers the running sum over every offset, not only one offset's product
    bound = _peak(x) * c * kh * kw
    if bound >= 2**63:
        raise FixedPointOverflowError(f"convolution sum: bound {bound} reaches 2**63")
    dtype = (np.float32 if bound < FLOAT32_EXACT_LIMIT
             else np.float64 if bound < FLOAT64_EXACT_LIMIT else np.int64)
    wv = weights.values.astype(dtype, copy=False)
    xp = np.zeros((c, hp + 1, wp), dtype=dtype)
    xp[:, padding : padding + h, padding : padding + w] = x
    flat = xp.reshape(c, (hp + 1) * wp)
    out = np.zeros((out_channels, h_out * wp), dtype=dtype)
    for u in range(kh):
        for v in range(kw):
            start = u * wp + v
            out += np.matmul(wv[u, v], flat[:, start : start + h_out * wp])
    # a float32 product's sums lie below 2**24, so int32 holds them
    exact = np.int32 if dtype is np.float32 else np.int64
    return out.reshape(-1, h_out, wp)[:, :, :w_out].astype(exact)


def maxpool2_oracle(spikes) -> np.ndarray:
    """2x2 max pooling of a binary map; max of bits is logical OR."""
    x = np.asarray(spikes)
    if x.ndim != 3:
        raise ShapeError(f"input must be [C][H][W], got {x.shape}")
    c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"pooling needs even spatial dims, got {h}x{w}")
    return np.maximum(
        np.maximum(x[:, 0::2, 0::2], x[:, 0::2, 1::2]),
        np.maximum(x[:, 1::2, 0::2], x[:, 1::2, 1::2]),
    )


# ---------------------------------------------------------------------------
# network oracle
# ---------------------------------------------------------------------------

def _step_sums(
    maps: Iterable[np.ndarray], peak: int, offsets: OffsetWeights, padding: int
) -> Iterator[np.ndarray]:
    """Yield :func:`conv2d_oracle` of each step map that ``maps`` yields,
    in step order, two steps per product while the packed bound ``(base +
    1)*taps`` stays below 2**24 (see the module docstring); past it, and
    for an odd last step, a step convolves alone.  ``peak`` bounds every
    map's ``max|x|``.  ``maps`` is read one map at a time, or two for a
    pair, so a generator that unpacks each step streams.  ``s + taps`` is
    ``s[t+1]*base`` plus a remainder in ``[0, 2*taps]``, so an integer
    floor division by ``base`` decodes ``s[t+1]``.  A paired product runs
    in float32, so it and both decoded steps are int32; a step convolved
    alone comes back in :func:`conv2d_oracle`'s dtype.
    """
    kh, kw, _, channels = offsets.values.shape
    taps = channels * kh * kw * peak
    base = 2 * taps + 1
    paired = (base + 1) * taps < FLOAT32_EXACT_LIMIT
    maps = iter(maps)
    for first in maps:
        second = next(maps, None) if paired else None
        if second is None:
            yield conv2d_oracle(first, offsets, padding=padding)
            continue
        packed = second.astype(np.int32) * base
        packed += first
        low = conv2d_oracle(packed, offsets, padding=padding)
        high = low + taps
        high //= base
        # low -= base * high without a temporary: scale, subtract, unscale
        high *= base
        low -= high
        high //= base
        yield low
        yield high


def _weigh(x, params: FoldedNeuronParams, fmt: FixedPointFormat) -> np.ndarray:
    """One step's IF input: the conv sums shifted onto the grid, less the bias.

    In int32 when the step's own ``max|x| * 2**frac_bits + 2**total_bits``
    is below 2**31: the bias and any in-format membrane each lie within
    ``2**(total_bits - 1)``, so neither this nor the IF update can wrap.
    Otherwise in int64 through ``fmt.shift_left``, which refuses a shift
    that would wrap.  ``x`` is not written.
    """
    x = np.asarray(x)
    room = INT32_LIMIT - (1 << fmt.total_bits)
    if x.dtype.kind in "iu" and _peak(x) << fmt.frac_bits < room:
        weighted = np.left_shift(x, fmt.frac_bits, dtype=np.int32)
        weighted -= params.bias_raw.astype(np.int32)[:, None, None]
        return weighted
    weighted = fmt.shift_left(x, fmt.frac_bits, "convolution sum")
    weighted -= params.bias_raw[:, None, None]
    return weighted


def _if_run(
    weighted_inputs: Iterable[np.ndarray],
    params: FoldedNeuronParams,
    fmt: FixedPointFormat,
) -> Iterator[np.ndarray]:
    """The IF recurrence over weighed inputs (:func:`_weigh`): yield each
    step's uint8 [C][H][W] spikes, a new array per step.

    Each input is taken only when the previous step's spikes have been
    taken, so a generator of steps streams.  The first input is copied
    into the potential, which keeps its dtype until a wider input arrives
    and is then promoted once; no input is written.  An int32 input must
    meet :func:`_weigh`'s int32 room, so no update wraps.  The potential
    resets lazily, ``V = V*(1 - o) + in`` with ``o`` the previous step's
    spikes, which the recurrence reads and does not write.
    """
    flip = params.flipped
    for t, weighted in enumerate(weighted_inputs):
        if t:
            # a step wider than the membrane promotes it, once
            v = v.astype(np.promote_types(v.dtype, weighted.dtype), copy=False)
            v *= 1 - spikes
            v += weighted
        else:
            v = np.array(weighted)
        fmt.check_raw(v, "membrane potential")
        # an int32 membrane means a format within int32, so the threshold fits
        threshold = params.threshold_raw.astype(v.dtype)[:, None, None]
        spikes = np.empty(v.shape, dtype=np.uint8)
        fired = spikes.view(bool)
        np.greater_equal(v, threshold, out=fired)
        if flip.any():  # a negative gain flips the comparison to <=
            fired[flip] = v[flip] <= threshold[flip]
        yield spikes


def _layer_train(
    layer: "LayerSpec",
    tensor: BinaryWeightTensor,
    params: FoldedNeuronParams,
    source: "np.ndarray | SpikeTrain",
    time_steps: int,
    fmt: FixedPointFormat,
) -> SpikeTrain:
    """All time steps of one weighted layer: its packed [T] train.

    ``source`` is the image for the encoding layer, whose sums are weighed
    once and dropped, else the previous layer's train, unpacked one step
    at a time (two for a pair).  Each step's spikes are packed into the
    train as they fire.  The layer's operand, sums and generators live in
    this call alone, so they are freed before the next layer is laid out.
    """
    if layer.kind == "encoding-conv":
        params = params.scaled_by_pow2(ENCODING_SHIFT)
        weighted = _weigh(conv2d_oracle(source, tensor, padding=layer.padding), params, fmt)
        steps = _if_run(itertools.repeat(weighted, time_steps), params, fmt)
    else:
        # an fc layer is a 1x1 convolution of the flattened map
        maps = (source.step(t).reshape(layer.in_shape) for t in range(time_steps))
        peak = min(source.spike_count(), 1)
        sums = _step_sums(maps, peak, lay_out_offsets(tensor), layer.padding)
        steps = _if_run((_weigh(s, params, fmt) for s in sums), params, fmt)
    return SpikeTrain.from_steps(steps, (time_steps, *layer.out_shape))


@dataclass
class OracleRun:
    """Per-layer spike trains plus final per-class spike counts."""

    layer_trains: list[SpikeTrain]
    class_counts: np.ndarray


def run_network_oracle(
    net: "NetworkDescription",
    weights: Sequence[BinaryWeightTensor | None],
    folded: Sequence[FoldedNeuronParams | None],
    image: np.ndarray,
    time_steps: int,
    fmt: FixedPointFormat = DEFAULT_FORMAT,
) -> OracleRun:
    """Layer-by-layer reference execution of a validated network.

    The encoding layer computes its convolution once on the static 8-bit
    image, weighs it once and feeds the same array to :func:`_if_run` at
    every step; spiking conv layers convolve two steps per product where
    that stays float32 (:func:`_step_sums`), otherwise one, and stream
    each step's weighed sums into :func:`_if_run`; fc layers run as 1x1
    convolutions over the flattened feature vector; pooling is an OR
    reduction of each step's output map.  Trains stay packed between
    layers: each layer unpacks its input one step at a time (two for a
    pair) and packs each step's spikes as they fire
    (:meth:`SpikeTrain.from_steps`).  Each weighted layer runs in its own
    call (:func:`_layer_train`), which lays out its operand once
    (:func:`lay_out_offsets`) for all of its steps and frees it, with the
    layer's sums, before the next layer.  Sums, weighed inputs and
    membranes are int32 wherever each step's data prove it exact (see the
    module docstring).  Deterministic and reproducible bit for bit.

    The inputs pass ``net.check_run_inputs`` before any layer runs.
    """
    img = net.check_run_inputs("run_network_oracle", weights, folded, image, time_steps, fmt)
    if img.min() < 0 or img.max() > 255:
        raise InvalidParameterError("encoding input values must be in [0, 255]")

    trains: list[SpikeTrain] = []
    current: SpikeTrain | None = None
    for idx, layer in enumerate(net.layers):
        if layer.has_weights:
            source = img if layer.kind == "encoding-conv" else current
            current = _layer_train(layer, weights[idx], folded[idx], source, time_steps, fmt)
        elif layer.kind == "maxpool2":
            current = SpikeTrain.from_steps(
                (maxpool2_oracle(current.step(t)) for t in range(time_steps)),
                (time_steps, *layer.out_shape))
        else:
            raise InvalidParameterError(f"unknown layer kind {layer.kind!r}")
        trains.append(current)
    return OracleRun(trains, current.channel_counts())
