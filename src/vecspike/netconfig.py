"""Network description format, validation, presets and bundle file I/O.

The text grammar mirrors the compact layer strings used to describe the
supported models: dash-separated tokens ``<N>Conv(encoding)``, ``<N>Conv``,
``MP2`` and ``<N>fc``, with an optional per-layer attribute suffix such as
``64Conv{vth=0.5}``.  Convolutions default to 3x3 kernels with same
padding; fc layers run as 1x1 convolutions over the flattened features.

Model bundles (weights plus folded neuron parameters) are stored in a
little-endian container tagged ``VSA1``: a header with the layer table,
bit-packed sign weights, fixed-point folded parameters and a trailing
CRC-32 of the content.
"""

from __future__ import annotations

import math
import re
import struct
import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from .core import BinaryWeightTensor, BNParams, FoldedNeuronParams, fold_bn
from .errors import (
    BadMagicError,
    BundleError,
    ChecksumError,
    InvalidParameterError,
    NetworkParseError,
    ShapeError,
    TruncatedBundleError,
    ValidationError,
)
from .fixedpoint import DEFAULT_FORMAT, FixedPointFormat

BUNDLE_MAGIC = b"VSA1"
BUNDLE_VERSION = 1

LAYER_KINDS = ("encoding-conv", "conv", "maxpool2", "fc")
_KIND_CODES = {kind: code for code, kind in enumerate(LAYER_KINDS)}

DEFAULT_V_TH = 1.0


# ---------------------------------------------------------------------------
# network description
# ---------------------------------------------------------------------------

@dataclass
class LayerSpec:
    """One layer of a network; shape annotations are filled by validate()."""

    kind: str
    out_channels: int = 0
    kernel: tuple[int, int] = (3, 3)
    padding: int = 1
    v_th: float = DEFAULT_V_TH
    in_shape: tuple[int, int, int] | None = field(default=None, compare=False)
    out_shape: tuple[int, int, int] | None = field(default=None, compare=False)

    @property
    def in_channels(self) -> int:
        """Channels seen by the weights: ``in_shape[0]`` for every kind
        (an fc layer's ``in_shape`` is its flattened input map)."""
        if self.in_shape is None:
            raise ValidationError("layer is not shape-annotated yet")
        return self.in_shape[0]

    @property
    def weight_shape(self) -> tuple[int, int, int, int]:
        """Sign-bit tensor shape ``(out_channels, in_channels, kh, kw)``;
        the layer must be shape-annotated (see ``in_channels``)."""
        return (self.out_channels, self.in_channels, *self.kernel)

    @property
    def has_weights(self) -> bool:
        return self.kind in ("encoding-conv", "conv", "fc")


@dataclass
class NetworkDescription:
    """Ordered layers plus the global number of time steps.

    Equality compares the structural description only; shape annotations
    are derived data.
    """

    layers: list[LayerSpec]
    time_steps: int = 8

    @property
    def is_annotated(self) -> bool:
        return all(layer.out_shape is not None for layer in self.layers)

    def check_run_inputs(self, caller: str, weights, folded, image, time_steps: int) -> np.ndarray:
        """The entry check that the engine's and the oracle's runs share,
        naming ``caller``; returns the image as an array.

        The network must be validated, with one weight and one parameter
        entry per layer, neither ``None`` for a weighted layer, an image of
        the first layer's ``in_shape`` and ``time_steps >= 1``.
        """
        if not (self.layers and self.is_annotated):
            raise ValidationError(f"{caller} needs a validated network")
        for name, entries in (("weight", weights), ("parameter", folded)):
            if len(entries) != len(self.layers):
                raise ShapeError(f"{len(entries)} {name} entries for {len(self.layers)} layers")
            for idx, layer in enumerate(self.layers):
                if layer.has_weights and entries[idx] is None:
                    raise ShapeError(f"layer {idx} ({layer.kind}) has no {name} entry")
        img = np.asarray(image)
        if img.shape != self.layers[0].in_shape:
            raise ShapeError(
                f"image shape {img.shape} does not match the network input "
                f"{self.layers[0].in_shape}"
            )
        if time_steps < 1:
            raise InvalidParameterError("time_steps must be >= 1")
        return img


_CONV_RE = re.compile(r"^(\d+)Conv(\(encoding\))?$")
_FC_RE = re.compile(r"^(\d+)fc$")
_ATTR_RE = re.compile(r"^\{vth=([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)\}$")
# a dash outside an attribute block; one inside, as in {vth=-0.5}, is a sign
_LAYER_DASH_RE = re.compile(r"-(?![^{]*\})")


def _parse_token(token: str, column: int) -> LayerSpec:
    attrs = {}
    if "{" in token:
        base, brace, rest = token.partition("{")
        match = _ATTR_RE.match(brace + rest)
        if not match:
            raise NetworkParseError(f"bad attribute block in {token!r}", column)
        attrs["v_th"] = float(match.group(1))
        if not math.isfinite(attrs["v_th"]):
            raise NetworkParseError(f"vth must be finite in {token!r}", column)
        token = base
    if token == "MP2":
        if attrs:
            raise NetworkParseError("MP2 takes no attributes", column)
        return LayerSpec("maxpool2", kernel=(2, 2), padding=0)
    match = _CONV_RE.match(token)
    if match:
        kind = "encoding-conv" if match.group(2) else "conv"
        return LayerSpec(kind, out_channels=int(match.group(1)), **attrs)
    match = _FC_RE.match(token)
    if match:
        return LayerSpec(
            "fc", out_channels=int(match.group(1)), kernel=(1, 1), padding=0, **attrs
        )
    raise NetworkParseError(f"unknown token {token!r}", column)


def parse_network(text: str, time_steps: int = 8) -> NetworkDescription:
    """Parse a dash-separated layer string into a NetworkDescription."""
    stripped = text.strip()
    if not stripped:
        raise NetworkParseError("empty network description")
    layers: list[LayerSpec] = []
    columns: list[int] = []
    column = 1
    for token in _LAYER_DASH_RE.split(stripped):
        if not token:
            raise NetworkParseError("empty layer token", column)
        columns.append(column)
        layers.append(_parse_token(token, column))
        column += len(token) + 1
    encodings = [i for i, l in enumerate(layers) if l.kind == "encoding-conv"]
    if not encodings or encodings[0] != 0:
        raise NetworkParseError(
            "first layer must be an encoding convolution", columns[0]
        )
    if len(encodings) > 1:
        raise NetworkParseError(
            "only one encoding layer is allowed", columns[encodings[1]]
        )
    for idx, layer in enumerate(layers):
        if layer.kind != "maxpool2" and layer.out_channels < 1:
            raise NetworkParseError(
                "layers must declare a positive channel count", columns[idx]
            )
    return NetworkDescription(layers, time_steps=time_steps)


def network_to_string(net: NetworkDescription) -> str:
    """Canonical text form; parse(network_to_string(net)) == net."""
    tokens = []
    for layer in net.layers:
        if layer.kind == "maxpool2":
            tokens.append("MP2")
            continue
        if layer.kind == "encoding-conv":
            token = f"{layer.out_channels}Conv(encoding)"
        elif layer.kind == "conv":
            token = f"{layer.out_channels}Conv"
        else:
            token = f"{layer.out_channels}fc"
        if layer.v_th != DEFAULT_V_TH:
            token += f"{{vth={layer.v_th!r}}}"
        tokens.append(token)
    return "-".join(tokens)


def validate(net: NetworkDescription, input_shape) -> NetworkDescription:
    """Propagate shapes through the network and annotate every layer.

    The only place that lowers an fc layer: it must have a 1x1 kernel and
    no padding, and its ``in_shape`` is the flattened input map
    ``(C*H*W, 1, 1)``, so every later stage treats it as a 1x1
    convolution.  Returns a new, annotated description; the first
    mismatching layer is reported with its index.
    """
    c, h, w = (int(v) for v in input_shape)
    if min(c, h, w) < 1:
        raise ValidationError(f"input shape {input_shape} must be positive")
    if not net.layers:
        raise ValidationError("network has no layers")
    if net.layers[0].kind != "encoding-conv":
        raise ValidationError("first layer must be an encoding convolution", 0)
    annotated = []
    shape = (c, h, w)
    for idx, layer in enumerate(net.layers):
        if layer.kind == "encoding-conv" and idx != 0:
            raise ValidationError("encoding layer only allowed at position 0", idx)
        new = replace(layer)
        new.in_shape = shape
        kh, kw = layer.kernel
        if layer.kind in ("encoding-conv", "conv"):
            ph = shape[1] + 2 * layer.padding - kh + 1
            pw = shape[2] + 2 * layer.padding - kw + 1
            if ph < 1 or pw < 1:
                raise ValidationError(
                    f"{kh}x{kw} kernel does not fit {shape[1]}x{shape[2]} input", idx
                )
            shape = (layer.out_channels, ph, pw)
        elif layer.kind == "fc":
            if layer.kernel != (1, 1) or layer.padding:
                raise ValidationError("fc layers take a 1x1 kernel, unpadded", idx)
            new.in_shape = (math.prod(shape), 1, 1)
            shape = (layer.out_channels, 1, 1)
        elif layer.kind == "maxpool2":
            if shape[1] % 2 or shape[2] % 2:
                raise ValidationError(
                    f"pooling needs even spatial dims, got {shape[1]}x{shape[2]}", idx
                )
            new.out_channels = shape[0]
            shape = (shape[0], shape[1] // 2, shape[2] // 2)
        else:
            raise ValidationError(f"unknown layer kind {layer.kind!r}", idx)
        new.out_shape = shape
        annotated.append(new)
    return NetworkDescription(annotated, time_steps=net.time_steps)


PRESETS: dict[str, tuple[str, tuple[int, int, int]]] = {
    "mnist": (
        "64Conv(encoding)-MP2-64Conv-MP2-128fc-10fc",
        (1, 28, 28),
    ),
    "cifar10": (
        "128Conv(encoding)-128Conv-128Conv-MP2-192Conv-192Conv-192Conv-192Conv"
        "-MP2-256Conv-256Conv-256Conv-256Conv-MP2-256fc-10fc",
        (3, 32, 32),
    ),
}


def preset_network(name: str, time_steps: int = 8) -> tuple[NetworkDescription, tuple]:
    """A built-in network, validated against its canonical input shape."""
    if name not in PRESETS:
        raise InvalidParameterError(
            f"unknown preset {name!r}; available: {sorted(PRESETS)}"
        )
    text, input_shape = PRESETS[name]
    net = validate(parse_network(text, time_steps=time_steps), input_shape)
    return net, input_shape


# ---------------------------------------------------------------------------
# model bundle
# ---------------------------------------------------------------------------

@dataclass
class ModelBundle:
    """A network plus its binary weights and folded neuron parameters."""

    net: NetworkDescription
    weights: list[BinaryWeightTensor | None]
    params: list[FoldedNeuronParams | None]
    fmt: FixedPointFormat = field(default_factory=lambda: DEFAULT_FORMAT)

    def __post_init__(self):
        n = len(self.net.layers)
        if len(self.weights) != n or len(self.params) != n:
            raise ShapeError("weights/params lists must match the layer count")

    def checksum(self) -> int:
        return zlib.crc32(_bundle_payload(self))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModelBundle):
            return NotImplemented
        return (
            self.net == other.net
            and self.fmt == other.fmt
            and self.weights == other.weights
            and self.params == other.params
        )


def _bundle_payload(bundle: ModelBundle) -> bytes:
    net = bundle.net
    parts = [
        struct.pack(
            "<HHIIII",
            BUNDLE_VERSION,
            0,
            bundle.fmt.frac_bits,
            bundle.fmt.total_bits,
            net.time_steps,
            len(net.layers),
        )
    ]
    for idx, layer in enumerate(net.layers):
        weighted = bundle.weights[idx] is not None
        in_channels = bundle.weights[idx].in_channels if weighted else 0
        parts.append(
            struct.pack(
                "<BBBBIIdI",
                _KIND_CODES[layer.kind],
                layer.kernel[0],
                layer.kernel[1],
                layer.padding,
                layer.out_channels,
                in_channels,
                layer.v_th,
                1 if weighted else 0,
            )
        )
    for idx in range(len(net.layers)):
        if bundle.weights[idx] is None:
            continue
        wgt = bundle.weights[idx]
        par = bundle.params[idx]
        parts.append(np.packbits(wgt.sign_bits.ravel()).tobytes())
        for name, raw in (("bias", par.bias_raw), ("threshold", par.threshold_raw)):
            field32 = raw.astype("<i4")
            if not np.array_equal(field32, raw):
                raise BundleError(f"layer {idx}: raw {name} does not fit its 32-bit field")
            parts.append(field32.tobytes())
        parts.append(par.flipped.astype(np.uint8).tobytes())
    return b"".join(parts)


def save_bundle(bundle: ModelBundle, path) -> None:
    payload = _bundle_payload(bundle)
    crc = zlib.crc32(payload)
    with open(path, "wb") as handle:
        handle.write(BUNDLE_MAGIC)
        handle.write(payload)
        handle.write(struct.pack("<I", crc))


class _Cursor:
    def __init__(self, data: bytes):
        self.data = memoryview(data)  # slices share the file's bytes
        self.pos = 0

    def take(self, count: int) -> bytes:
        if self.pos + count > len(self.data):
            raise TruncatedBundleError(
                f"needed {count} bytes at offset {self.pos}, "
                f"only {len(self.data) - self.pos} left"
            )
        chunk = self.data[self.pos : self.pos + count]
        self.pos += count
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load_bundle(path) -> ModelBundle:
    with open(path, "rb") as handle:
        blob = handle.read()
    if len(blob) < len(BUNDLE_MAGIC):
        raise TruncatedBundleError("file shorter than the magic tag")
    if blob[: len(BUNDLE_MAGIC)] != BUNDLE_MAGIC:
        raise BadMagicError(f"expected {BUNDLE_MAGIC!r}, got {blob[:4]!r}")
    if len(blob) < len(BUNDLE_MAGIC) + 4:
        raise TruncatedBundleError("file too short for a checksum")
    payload = blob[len(BUNDLE_MAGIC) : -4]
    cur = _Cursor(payload)

    version, _, frac_bits, total_bits, time_steps, n_layers = cur.unpack("<HHIIII")
    if version != BUNDLE_VERSION:
        raise BadMagicError(f"unsupported bundle version {version}")

    table = []
    for _ in range(n_layers):
        kind_code, kh, kw, padding, out_c, in_c, v_th, weighted = cur.unpack("<BBBBIIdI")
        if kind_code >= len(LAYER_KINDS):
            raise ChecksumError(f"invalid layer kind code {kind_code}")
        table.append((LAYER_KINDS[kind_code], kh, kw, padding, out_c, in_c, v_th, weighted))

    layers: list[LayerSpec] = []
    arrays: list[tuple | None] = []  # unvalidated, signs still packed
    for kind, kh, kw, padding, out_c, in_c, v_th, weighted in table:
        layers.append(
            LayerSpec(kind, out_channels=out_c, kernel=(kh, kw), padding=padding, v_th=v_th)
        )
        if not weighted:
            arrays.append(None)
            continue
        shape = (out_c, in_c, kh, kw)
        packed = np.frombuffer(cur.take((math.prod(shape) + 7) // 8), dtype=np.uint8)
        bias = np.frombuffer(cur.take(4 * out_c), dtype="<i4").astype(np.int64)
        thr = np.frombuffer(cur.take(4 * out_c), dtype="<i4").astype(np.int64)
        flipped = np.frombuffer(cur.take(out_c), dtype=np.uint8).astype(bool)
        arrays.append((shape, packed, bias, thr, flipped))
    if cur.pos != len(payload):
        raise ChecksumError(f"{len(payload) - cur.pos} unexpected trailing bytes")

    (stored_crc,) = struct.unpack("<I", blob[-4:])
    if zlib.crc32(payload) != stored_crc:
        raise ChecksumError("bundle checksum does not match its content")
    for idx, (layer, entry) in enumerate(zip(layers, arrays)):
        if layer.has_weights != (entry is not None):
            raise BundleError(
                f"layer {idx} ({layer.kind}) is saved "
                f"{'without' if layer.has_weights else 'with'} weights"
            )

    # validating constructors run only on checked content, and a field they
    # refuse surfaces as a BundleError, never as a parameter error
    weights: list[BinaryWeightTensor | None] = []
    params: list[FoldedNeuronParams | None] = []
    try:
        fmt = FixedPointFormat(total_bits=total_bits, frac_bits=frac_bits)
        for entry in arrays:
            if entry is None:
                weights.append(None)
                params.append(None)
                continue
            shape, packed, bias, thr, flipped = entry
            bits = np.unpackbits(packed, count=math.prod(shape)).reshape(shape)
            weights.append(BinaryWeightTensor(bits))
            params.append(FoldedNeuronParams(bias, thr, flipped, fmt))
    except InvalidParameterError as exc:
        raise BundleError(f"bundle field out of range: {exc}") from exc
    if time_steps < 1:
        raise BundleError(f"bundle declares {time_steps} time steps")
    net = NetworkDescription(layers, time_steps=time_steps)
    bundle = ModelBundle(net, weights, params, fmt)
    # Every field must be what save_bundle writes: the reserved field zero,
    # weighted 0 or 1, in_channels 0 on a layer without weights, and the
    # pad bits of the packed signs clear.  A pooling layer's out_channels
    # is written back as read and stays accepted: validate() recomputes it.
    if _bundle_payload(bundle) != payload:
        raise BundleError("bundle fields are not in canonical form")
    return bundle


def generate_random_bundle(
    net: NetworkDescription,
    seed: int,
    fmt: FixedPointFormat = DEFAULT_FORMAT,
) -> ModelBundle:
    """Deterministic pseudo-random weights and folded parameters.

    Sign bits are fair coin flips; normalization parameters are drawn as
    gamma in [0.5, 2], beta and mean in [-1, 1], variance in [0.25, 4],
    then folded against each layer's threshold.  The same seed always
    yields a bit-identical bundle.
    """
    if not net.is_annotated:
        raise ValidationError("generate_random_bundle needs a validated network")
    rng = np.random.default_rng(seed)
    weights: list[BinaryWeightTensor | None] = []
    params: list[FoldedNeuronParams | None] = []
    for layer in net.layers:
        if not layer.has_weights:
            weights.append(None)
            params.append(None)
            continue
        signs = rng.integers(0, 2, layer.weight_shape, dtype=np.uint8)
        weights.append(BinaryWeightTensor(signs))
        c = layer.out_channels
        bn = BNParams(
            gamma=rng.uniform(0.5, 2.0, c),
            beta=rng.uniform(-1.0, 1.0, c),
            mean=rng.uniform(-1.0, 1.0, c),
            var=rng.uniform(0.25, 4.0, c),
        )
        params.append(fold_bn(bn, layer.v_th, fmt))
    return ModelBundle(net, weights, params, fmt)


# ---------------------------------------------------------------------------
# raw input tensors
# ---------------------------------------------------------------------------

def save_input_tensor(arr, path) -> None:
    """Write a [C][H][W] unsigned-byte tensor with a C,H,W header."""
    data = np.asarray(arr)
    if data.ndim != 3:
        raise ShapeError(f"input tensor must be [C][H][W], got {data.shape}")
    if data.size and (data.min() < 0 or data.max() > 255):
        raise InvalidParameterError("input tensor values must fit in a byte")
    with open(path, "wb") as handle:
        handle.write(struct.pack("<III", *data.shape))
        handle.write(data.astype(np.uint8).tobytes())


def load_input_tensor(path) -> np.ndarray:
    """Read a tensor written by :func:`save_input_tensor`; a body shorter or
    longer than its C,H,W header declares raises a ``BundleError``."""
    with open(path, "rb") as handle:
        blob = handle.read()
    if len(blob) < 12:
        raise TruncatedBundleError("input tensor file shorter than its header")
    c, h, w = struct.unpack("<III", blob[:12])
    expected = c * h * w
    body = blob[12:]
    if len(body) < expected:
        raise TruncatedBundleError(
            f"input tensor declares {expected} bytes, file has {len(body)}"
        )
    if len(body) > expected:
        raise BundleError(
            f"input tensor declares {expected} bytes, file has "
            f"{len(body) - expected} unexpected trailing bytes"
        )
    return np.frombuffer(body, dtype=np.uint8).reshape(c, h, w).copy()


def random_input(shape, seed: int) -> np.ndarray:
    """Deterministic random 8-bit image for seeded runs."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, tuple(int(v) for v in shape), dtype=np.uint8)
