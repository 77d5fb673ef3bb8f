"""Bit-exact reference model of binary-weight spiking inference.

This module holds the data types the engine shares and the functional
oracle that checks it: a direct integer/fixed-point implementation of
integrate-and-fire dynamics, folded batch normalization, dense binary
convolution, OR-pooling and whole-network execution.  Everything favours
clarity over speed, with three exceptions.  The dense convolution sums one
BLAS product per kernel offset, each on a view of the padded input (no
copy per offset), in float32 when ``max|x| * C * kh * kw`` stays below
2**24, in float64 when it stays below 2**53 and in int64 when it stays
below 2**63; a larger bound, which could wrap int64, raises
``FixedPointOverflowError``.  The whole-network run lays out each weighted
layer's +-1 weights, one [O][C] matrix per offset, once for all of its
time steps, and writes each step's spikes into one [T] array.  And it
convolves two time steps in one product: with ``taps = C*kh*kw*max|x|``
each step's sum lies in [-taps, taps], so the map ``x[t] + base*x[t+1]``,
``base = 2*taps + 1``, convolves to ``s[t] + base*s[t+1]``, which decodes
exactly as ``s[t+1] = floor((s + taps) / base)`` and
``s[t] = s - base*s[t+1]``.  Steps pair only while the packed bound
``(base + 1)*taps`` stays below 2**24, so the product stays float32 under
the convolution's own check; the decoded steps stream into the IF loop
one pair at a time.
The engine in ``vecspike.dataflow`` must reproduce these results bit for
bit; it shares no convolution code with this module, so the comparison
stays an independent check.

Conventions
-----------
* Spikes are 0/1 values in uint8 tensors indexed ``[time][channel][row][col]``.
* Binary weights are stored as sign bits: bit 1 encodes weight -1, bit 0
  encodes weight +1, i.e. the logical value is ``1 - 2*bit``.
* The IF recurrence is ``V[t+1] = V[t]*(1 - o[t]) + in[t+1]`` with a spike
  whenever the updated potential reaches the threshold (hard reset to zero,
  ties fire).  With a negative normalization gain the comparison direction
  flips to ``<=``.  The oracle resets lazily, on the next step; the
  engine writes zero back when a neuron fires.
* The first (encoding) layer consumes an 8-bit image, computes its integer
  convolution once, and re-accumulates that constant result every time step.
  Its folded bias/threshold are pre-scaled by 256 so that the u/256 input
  normalization stays in integer arithmetic.
"""

from __future__ import annotations

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
    from .netconfig import NetworkDescription

# 8-bit inputs represent u/2**8 of the (0,1) range; folded params shift
# left by this
ENCODING_SHIFT = 8
# integers below these magnitudes are exact in float32 / float64
FLOAT32_EXACT_LIMIT = 2**24
FLOAT64_EXACT_LIMIT = 2**53


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

class SpikeTrain:
    """Immutable binary activation tensor indexed [time][channel][row][col]."""

    def __init__(self, data):
        arr = np.asarray(data)
        if arr.ndim != 4:
            raise ShapeError(f"spike train must be 4-D [T][C][H][W], got {arr.shape}")
        if not ((arr == 0) | (arr == 1)).all():
            raise InvalidParameterError("spike train elements must be 0 or 1")
        arr = arr.astype(np.uint8)
        arr.setflags(write=False)
        self._data = arr

    @property
    def data(self) -> np.ndarray:
        return self._data

    @property
    def time_steps(self) -> int:
        return self._data.shape[0]

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self._data.shape

    def spike_count(self) -> int:
        return int(self._data.sum())

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpikeTrain):
            return NotImplemented
        return self._data.shape == other._data.shape and np.array_equal(
            self._data, other._data
        )

    def __repr__(self) -> str:
        t, c, h, w = self.shape
        return f"SpikeTrain(T={t}, C={c}, H={h}, W={w}, spikes={self.spike_count()})"


class BinaryWeightTensor:
    """Sign-bit weights in {-1,+1} per (out-channel, in-channel, kh, kw)."""

    def __init__(self, sign_bits):
        arr = np.asarray(sign_bits)
        if arr.ndim != 4:
            raise ShapeError(f"weights must be 4-D [O][I][kh][kw], got {arr.shape}")
        if not ((arr == 0) | (arr == 1)).all():
            raise InvalidParameterError("sign bits must be 0 or 1")
        arr = arr.astype(np.uint8)
        arr.setflags(write=False)
        self.sign_bits = arr

    @classmethod
    def from_values(cls, values) -> "BinaryWeightTensor":
        vals = np.asarray(values)
        if vals.size and not np.isin(vals, (-1, 1)).all():
            raise InvalidParameterError("weight values must be -1 or +1")
        return cls((1 - vals) // 2)

    def values(self, dtype=np.int64) -> np.ndarray:
        """Logical weights: bit b maps to 1 - 2b."""
        return np.subtract(1, 2 * self.sign_bits, dtype=dtype)

    @property
    def out_channels(self) -> int:
        return self.sign_bits.shape[0]

    @property
    def in_channels(self) -> int:
        return self.sign_bits.shape[1]

    @property
    def kernel(self) -> tuple[int, int]:
        return self.sign_bits.shape[2], self.sign_bits.shape[3]

    def __eq__(self, other) -> bool:
        if not isinstance(other, BinaryWeightTensor):
            return NotImplemented
        return self.sign_bits.shape == other.sign_bits.shape and np.array_equal(
            self.sign_bits, other.sign_bits
        )


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
    """Lay a layer's sign bits out as its :class:`OffsetWeights`."""
    signs = weights.sign_bits.transpose(2, 3, 0, 1)  # [kh][kw][O][C]
    return OffsetWeights(np.subtract(1, 2 * signs, dtype=np.float32, order="C"))


def conv2d_oracle(
    inputs,
    weights: BinaryWeightTensor | OffsetWeights,
    padding: int = 0,
) -> np.ndarray:
    """Dense reference convolution with weights in {-1,+1}.

    Accepts a single-step spike map or an unsigned 8-bit tensor shaped
    [C][H][W], of a bool or integer dtype (any other raises
    ``InvalidParameterError``); returns exact integer outputs [O][H'][W'].
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
    bound = max(int(x.max(initial=0)), -int(x.min(initial=0))) * c * kh * kw
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
    return out.reshape(-1, h_out, wp)[:, :, :w_out].astype(np.int64)


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
    maps: np.ndarray, offsets: OffsetWeights, padding: int
) -> Iterator[np.ndarray]:
    """Yield :func:`conv2d_oracle` of each step of ``maps`` [T][C][H][W], in
    step order, two steps per product while the packed bound
    ``(base + 1)*taps`` stays below 2**24 (see the module docstring); past
    it, and for an odd last step, a step convolves alone.  The decode is
    exact: ``|s| < 2**24``, and the float64 quotient ``(s + taps) / base``,
    whose exact fraction is a multiple of ``1/base``, floors to ``s[t+1]``.
    """
    kh, kw, _, channels = offsets.values.shape
    taps = channels * kh * kw * max(int(maps.max(initial=0)), -int(maps.min(initial=0)))
    base = 2 * taps + 1
    paired = (base + 1) * taps < FLOAT32_EXACT_LIMIT
    for t in range(0, len(maps), 2 if paired else 1):
        if not paired or t + 1 == len(maps):
            yield conv2d_oracle(maps[t], offsets, padding=padding)
            continue
        packed = maps[t + 1].astype(np.int32) * base
        packed += maps[t]
        low = conv2d_oracle(packed, offsets, padding=padding)
        high = np.floor((low + taps) / base).astype(np.int64)
        low -= base * high
        yield low
        yield high


def _if_run(
    step_inputs: Iterable[np.ndarray],
    params: FoldedNeuronParams,
    fmt: FixedPointFormat,
    time_steps: int | None = None,
) -> np.ndarray:
    """Drive the IF recurrence over integer conv outputs, one per step.

    ``step_inputs`` may be a generator of ``time_steps`` steps (a sequence
    gives its own length); each step is taken only when the previous one
    has been integrated.  The int64 potential resets lazily,
    ``V = V*(1 - o) + in`` with ``o`` the previous step's spikes, and each
    step's spikes are written into one [T][C][H][W] array.
    """
    if time_steps is None:
        time_steps = len(step_inputs)
    bias = params.bias_raw[:, None, None]
    threshold = params.threshold_raw[:, None, None]
    flip = params.flipped
    for t, x in enumerate(step_inputs):
        weighted = fmt.shift_left(x, fmt.frac_bits, "convolution sum")
        weighted -= bias
        if t:
            v *= 1 - spikes[t - 1]
            v += weighted
        else:
            v = weighted
            spikes = np.zeros((time_steps, *v.shape), dtype=np.uint8)
        fmt.check_raw(v, "membrane potential")
        fired = spikes[t].view(bool)
        np.greater_equal(v, threshold, out=fired)
        if flip.any():  # a negative gain flips the comparison to <=
            fired[flip] = v[flip] <= threshold[flip]
    return spikes


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
    image and re-accumulates the constant result every step; spiking conv
    layers convolve two steps per product where that stays float32
    (:func:`_step_sums`), otherwise one; fc layers run as 1x1 convolutions
    over the flattened feature vector; pooling is an OR reduction of each
    step's output map.  Each weighted layer's operand is laid out once
    (:func:`lay_out_offsets`) for all of its steps.  Deterministic and
    reproducible bit for bit.

    The inputs pass ``net.check_run_inputs`` before any layer runs.
    """
    img = net.check_run_inputs("run_network_oracle", weights, folded, image, time_steps)
    if img.min() < 0 or img.max() > 255:
        raise InvalidParameterError("encoding input values must be in [0, 255]")

    trains: list[SpikeTrain] = []
    current: np.ndarray | None = None  # [T][C][H][W] spikes
    for idx, layer in enumerate(net.layers):
        if layer.kind == "encoding-conv":
            conv = conv2d_oracle(img, weights[idx], padding=layer.padding)
            scaled = folded[idx].scaled_by_pow2(ENCODING_SHIFT)
            current = _if_run([conv] * time_steps, scaled, fmt)
        elif layer.kind in ("conv", "fc"):
            offsets = lay_out_offsets(weights[idx])
            # an fc layer is a 1x1 convolution of the flattened map
            maps = current.reshape(time_steps, *layer.in_shape)
            steps = _step_sums(maps, offsets, layer.padding)
            current = _if_run(steps, folded[idx], fmt, time_steps)
        elif layer.kind == "maxpool2":
            current = np.stack(
                [maxpool2_oracle(current[t]) for t in range(time_steps)]
            )
        else:
            raise InvalidParameterError(f"unknown layer kind {layer.kind!r}")
        if current.shape[1:] != layer.out_shape:
            raise ShapeError(
                f"layer {idx} produced {current.shape[1:]}, expected {layer.out_shape}"
            )
        trains.append(SpikeTrain(current))

    counts = trains[-1].data.sum(axis=(0, 2, 3)).astype(np.int64)
    return OracleRun(trains, counts)
