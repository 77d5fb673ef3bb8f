import copy
import dataclasses
import hashlib
import struct
import zlib

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import layer_texts, listed_parse_network

from vecspike.arch import HardwareConfig
from vecspike.core import BinaryWeightTensor, FoldedNeuronParams, run_network_oracle
from vecspike.dataflow import run_network
from vecspike.errors import (
    BadMagicError,
    BundleError,
    ChecksumError,
    NetworkParseError,
    TruncatedBundleError,
    ValidationError,
)
from vecspike.fixedpoint import FixedPointFormat
from vecspike.netconfig import (
    PRESETS,
    LayerSpec,
    ModelBundle,
    NetworkDescription,
    generate_random_bundle,
    load_bundle,
    load_input_tensor,
    network_to_string,
    parse_network,
    preset_network,
    random_input,
    save_bundle,
    save_input_tensor,
    validate,
)

MNIST = PRESETS["mnist"][0]
CIFAR = PRESETS["cifar10"][0]


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_mnist_string():
    net = parse_network(MNIST)
    assert [l.kind for l in net.layers] == [
        "encoding-conv", "maxpool2", "conv", "maxpool2", "fc", "fc",
    ]
    assert [l.out_channels for l in net.layers if l.kind != "maxpool2"] == [
        64, 64, 128, 10,
    ]


def test_parse_cifar_string():
    net = parse_network(CIFAR)
    weighted = [l.out_channels for l in net.layers if l.kind != "maxpool2"]
    assert weighted == [128, 128, 128, 192, 192, 192, 192, 256, 256, 256, 256, 256, 10]
    assert sum(1 for l in net.layers if l.kind == "maxpool2") == 3


def test_parse_errors_carry_positions():
    with pytest.raises(NetworkParseError):
        parse_network("")
    with pytest.raises(NetworkParseError) as err:
        parse_network("64Conv(encoding)-BOGUS-10fc")
    assert err.value.column == 18
    with pytest.raises(NetworkParseError):
        parse_network("64Conv(encoding)--10fc")
    # the layer rules are validate's, which names the layer
    with pytest.raises(ValidationError) as err:
        validate(parse_network("64Conv-10fc"), (1, 4, 4))  # no encoding layer first
    assert err.value.layer_index == 0
    with pytest.raises(ValidationError) as err:
        validate(parse_network("64Conv(encoding)-8Conv(encoding)"), (1, 4, 4))
    assert err.value.layer_index == 1


def test_parse_vth_attribute():
    net = parse_network("8Conv(encoding){vth=0.5}-4fc{vth=2.0}")
    assert net.layers[0].v_th == 0.5
    assert net.layers[1].v_th == 2.0


def test_parse_print_identity():
    for text in (
        MNIST,
        CIFAR,
        "8Conv(encoding){vth=0.5}-MP2-4fc{vth=2.0}",
    ):
        assert network_to_string(parse_network(text)) == text
    # identity holds structurally after a parse/print/parse loop
    net = parse_network(MNIST)
    assert parse_network(network_to_string(net)) == net


@pytest.mark.parametrize("v_th", [-1.0, 1e-05, 0.5, 2.0])
def test_vth_round_trips_through_the_layer_grammar(v_th):
    net = parse_network("8Conv(encoding)-MP2-4fc")
    net.layers[0].v_th = net.layers[2].v_th = v_th
    text = network_to_string(net)
    assert parse_network(text) == net
    assert network_to_string(parse_network(text)) == text


@pytest.mark.parametrize("v_th", ["1e999", "-1e999", "1e", ".", "1-2", "nan"])
def test_vth_must_be_a_finite_number(v_th):
    with pytest.raises(NetworkParseError) as err:
        parse_network(f"8Conv(encoding)-4fc{{vth={v_th}}}")
    assert err.value.column == 17


def _parsed(parse, text):
    """The description ``parse`` makes of ``text``, or its error's message
    and column."""
    try:
        return parse(text, 3)
    except NetworkParseError as exc:
        return str(exc), exc.column


# the grammar's characters with stray braces, dashes and blanks; no
# newline, which the listed parser's "$" let through before a dash
grammar_texts = st.text("0123456789Conv(encoding)fcMP{vth=}.eE+- ", max_size=30)


@settings(max_examples=200)
@given(text=layer_texts() | grammar_texts)
@example(text="4Conv(encoding){vth=-0.5}-MP2-2fc{vth=+1e-3}")
@example(text="4Conv(encoding){vth=-1}-{vth=2}-}-2fc")
@example(text="4Conv(encoding)-MP2{vth=1}")
@example(text="4Conv(encoding)-2fcMP2")
def test_the_parser_equals_the_listed_parser(text):
    assert _parsed(parse_network, text) == _parsed(listed_parse_network, text)


def test_a_newline_inside_a_token_is_refused():
    with pytest.raises(NetworkParseError, match="unknown token") as err:
        parse_network("4Conv(encoding)\n-2fc")
    assert err.value.column == 1


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_validate_mnist_shape_chain():
    net = validate(parse_network(MNIST), (1, 28, 28))
    shapes = [l.out_shape for l in net.layers]
    assert shapes == [
        (64, 28, 28), (64, 14, 14), (64, 14, 14), (64, 7, 7),
        (128, 1, 1), (10, 1, 1),
    ]
    assert net.layers[4].in_channels == 64 * 7 * 7


def test_validate_cifar_shape_chain():
    net = validate(parse_network(CIFAR), (3, 32, 32))
    assert net.layers[-1].out_shape == (10, 1, 1)
    assert net.layers[-2].in_channels == 256 * 4 * 4


def test_validate_lowers_fc_to_its_flattened_input_map():
    net, _ = preset_network("mnist")
    fc128, fc10 = net.layers[4], net.layers[5]
    assert (fc128.in_shape, fc128.in_channels) == ((3136, 1, 1), 3136)
    assert (fc10.in_shape, fc10.in_channels) == ((128, 1, 1), 128)


@pytest.mark.parametrize("kernel, padding", [((3, 3), 0), ((1, 1), 1)])
def test_validate_rejects_an_fc_layer_that_is_not_1x1(kernel, padding):
    from vecspike.netconfig import LayerSpec, NetworkDescription

    net = NetworkDescription([
        LayerSpec("encoding-conv", out_channels=4),
        LayerSpec("fc", out_channels=3, kernel=kernel, padding=padding),
    ])
    with pytest.raises(ValidationError) as err:
        validate(net, (1, 4, 4))
    assert err.value.layer_index == 1


@pytest.mark.parametrize("text, shape", [
    (MNIST, (1, 28, 28)),
    (CIFAR, (3, 32, 32)),
    ("4Conv(encoding){vth=0.5}-MP2-MP2-3fc", (1, 8, 8)),
    ("4Conv(encoding)-MP2-MP2-3fc", (1, 6, 6)),  # refused at the second pool
])
def test_validate_leaves_its_input_unannotated_and_unchanged(text, shape):
    net = parse_network(text)
    before = copy.deepcopy(net)
    try:
        validated = validate(net, shape)
    except ValidationError:
        validated = None
    assert net == before and repr(net) == repr(before)
    assert all(layer.in_shape is layer.out_shape is None for layer in net.layers)
    assert net.compute_layers == ()
    if validated is not None:
        assert not {id(layer) for layer in validated.layers} & {id(layer) for layer in net.layers}


def test_validate_refuses_an_unknown_layer_kind():
    layers = [LayerSpec("encoding-conv", 4), LayerSpec("bogus", 4)]
    with pytest.raises(ValidationError, match="unknown layer kind 'bogus'") as err:
        validate(NetworkDescription(layers), (1, 4, 4))
    assert err.value.layer_index == 1


def test_validate_rejects_odd_pooling():
    with pytest.raises(ValidationError) as err:
        validate(parse_network("4Conv(encoding)-MP2"), (1, 7, 8))
    assert err.value.layer_index == 1


def test_validate_rejects_oversized_kernel():
    from vecspike.netconfig import LayerSpec, NetworkDescription

    net = NetworkDescription(
        [LayerSpec("encoding-conv", out_channels=4, padding=0)]
    )
    with pytest.raises(ValidationError) as err:
        validate(net, (1, 2, 2))
    assert err.value.layer_index == 0


@pytest.mark.parametrize("text, index", [
    ("0Conv(encoding)-4Conv", 0),
    ("4Conv(encoding)-MP2-0Conv", 2),
    ("4Conv(encoding)-0fc", 1),
])
def test_validate_refuses_a_weighted_layer_with_no_channels(text, index):
    with pytest.raises(ValidationError, match="positive channel count") as err:
        validate(parse_network(text), (1, 4, 4))
    assert err.value.layer_index == index


def test_validate_refuses_a_hand_built_layer_with_no_channels():
    net = NetworkDescription([
        LayerSpec("encoding-conv", out_channels=4),
        LayerSpec("conv", out_channels=0),
        LayerSpec("fc", out_channels=10, kernel=(1, 1), padding=0),
    ])
    with pytest.raises(ValidationError, match="positive channel count") as err:
        validate(net, (1, 4, 4))
    assert err.value.layer_index == 1


def test_validate_refuses_a_loaded_bundle_layer_with_no_channels(tmp_path):
    # a bundle loads a layer table unchecked; validate is its gate too
    bundle = generate_random_bundle(validate(parse_network("4Conv(encoding)-4Conv"),
                                             (1, 4, 4)), seed=0)
    par = bundle.params[1]
    empty = FoldedNeuronParams(par.bias_raw[:0], par.threshold_raw[:0], par.flipped[:0],
                               par.fmt)
    weights = [bundle.weights[0], BinaryWeightTensor(bundle.weights[1].sign_bits[:0])]
    zero = ModelBundle(parse_network("4Conv(encoding)-0Conv"), weights,
                       [bundle.params[0], empty], bundle.fmt)
    save_bundle(zero, tmp_path / "zero.vsa")
    loaded = load_bundle(tmp_path / "zero.vsa")
    assert loaded == zero
    with pytest.raises(ValidationError, match="positive channel count") as err:
        validate(loaded.net, (1, 4, 4))
    assert err.value.layer_index == 1


_GATE_TEXT, _GATE_SHAPE = "4Conv(encoding)-MP2-4Conv-3fc", (1, 4, 4)


def _gated_consumers():
    """Every consumer of a network, as (caller, call of a network)."""
    bundle = generate_random_bundle(validate(parse_network(_GATE_TEXT), _GATE_SHAPE), seed=0)
    image = random_input(_GATE_SHAPE, 0)
    run = (bundle.weights, bundle.params, image, 2)
    return [
        ("run_network", lambda net: run_network(net, *run, HardwareConfig())),
        ("run_network_oracle", lambda net: run_network_oracle(net, *run)),
        ("generate_random_bundle", lambda net: generate_random_bundle(net, seed=0)),
        ("check_trains_fit", lambda net: net.check_trains_fit(2)),
    ]


@pytest.mark.parametrize("source", ["parsed", "replace_copy"])
def test_every_consumer_refuses_a_network_validate_did_not_return(source):
    # a replace() copy keeps the annotated layers but not the table that
    # only validate writes, so it is refused like a parsed network
    validated = validate(parse_network(_GATE_TEXT), _GATE_SHAPE)
    net = (parse_network(_GATE_TEXT) if source == "parsed"
           else dataclasses.replace(validated))
    for caller, consume in _gated_consumers():
        consume(validated)
        with pytest.raises(ValidationError, match=f"{caller} needs a validated network"):
            consume(net)


def test_preset_network_annotated():
    net, input_shape = preset_network("mnist")
    assert input_shape == (1, 28, 28)
    assert [rec.index for rec in net.compute_layers] == [0, 2, 4, 5]


# ---------------------------------------------------------------------------
# bundles
# ---------------------------------------------------------------------------

def _mnist_bundle(seed=0):
    net = validate(parse_network(MNIST), (1, 28, 28))
    return generate_random_bundle(net, seed=seed)


def test_bundle_round_trip(tmp_path):
    bundle = _mnist_bundle()
    path = tmp_path / "model.vsa"
    save_bundle(bundle, path)
    loaded = load_bundle(path)
    assert loaded == bundle
    assert loaded.checksum() == bundle.checksum()


def test_bundles_that_differ_in_one_threshold_compare_unequal():
    bundle = _mnist_bundle()
    par = bundle.params[0]
    threshold = par.threshold_raw.copy()
    threshold[0] += 1
    params = [FoldedNeuronParams(par.bias_raw, threshold, par.flipped, par.fmt),
              *bundle.params[1:]]
    other = ModelBundle(bundle.net, bundle.weights, params, bundle.fmt)
    assert other != bundle and not other == bundle
    assert dataclasses.replace(other, params=bundle.params) == bundle


@pytest.mark.parametrize(
    "index, message",
    [(2, r"layer 2 \(conv\) is saved without weights"),
     (1, r"layer 1 \(maxpool2\) is saved with weights")],
    ids=["conv_without", "pooling_with"],
)
def test_bundle_whose_weighted_flag_contradicts_the_layer_kind(tmp_path, index, message):
    # CRC-valid and canonical, yet a conv layer loaded with no weights
    # (weights[2] None) or a pooling layer with some
    net = validate(parse_network("4Conv(encoding)-MP2-4Conv"), (1, 4, 4))
    bundle = generate_random_bundle(net, seed=0)
    if net.layers[index].has_weights:
        bundle.weights[index] = bundle.params[index] = None
    else:
        signs = np.zeros(net.layers[index].weight_shape, dtype=np.uint8)
        bundle.weights[index] = BinaryWeightTensor(signs)
        bundle.params[index] = bundle.params[0]
    path = tmp_path / "model.vsa"
    save_bundle(bundle, path)
    with pytest.raises(BundleError, match=message):
        load_bundle(path)


def test_save_bundle_refuses_parameters_its_32_bit_fields_cannot_hold(tmp_path):
    # at 36 fractional bits the folded biases lie near +-2**35; written as
    # int32 they came back as other values, with no error
    net = validate(parse_network("2Conv(encoding)-2fc"), (1, 4, 4))
    bundle = generate_random_bundle(net, seed=3, fmt=FixedPointFormat(48, 36))
    assert bundle.params[0].bias_raw.tolist() == [-41261146566, 38124110346]
    with pytest.raises(BundleError, match="layer 0: raw bias"):
        save_bundle(bundle, tmp_path / "model.vsa")
    assert not (tmp_path / "model.vsa").exists()


def test_save_bundle_refuses_parameters_in_another_format(tmp_path):
    # the header states the bundle's format, and raws are read back in it:
    # 30/12 raws under a 24/8 header came back 16 times larger
    net = validate(parse_network("2Conv(encoding)-2fc"), (1, 4, 4))
    fine = generate_random_bundle(net, seed=3, fmt=FixedPointFormat(30, 12))
    bundle = ModelBundle(net, fine.weights, fine.params, FixedPointFormat(24, 8))
    with pytest.raises(BundleError, match=r"^layer 0: parameters use .*30.*, the bundle "):
        save_bundle(bundle, tmp_path / "model.vsa")
    assert not (tmp_path / "model.vsa").exists()


def test_bundle_determinism():
    assert _mnist_bundle(0).checksum() == _mnist_bundle(0).checksum()
    assert _mnist_bundle(0).checksum() != _mnist_bundle(1).checksum()


def test_bundle_seed_zero_reference_checksum():
    # frozen at first generation; any change to the generator or the
    # serialization layout is a breaking change and must show up here
    assert _mnist_bundle(0).checksum() == 878716613


@pytest.mark.parametrize("preset, digest", [
    ("mnist", "d38382f6c9de3f7b9972cb7a04211f9038e7797fd5e3481e8966485225388c9e"),
    ("cifar10", "318c8c3451655a0878ec2a34401bac8995e7c7a89eb5a8646c3607f0baba5158"),
])
def test_preset_bundle_bytes_are_pinned(tmp_path, preset, digest):
    # the whole VSA1 file: packed sign bits, parameters, header and CRC
    path = tmp_path / "model.vsa"
    save_bundle(generate_random_bundle(preset_network(preset, 8)[0], 0), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_bundle_with_set_sign_pad_bits_is_refused(tmp_path):
    # layer 0 has 2*1*3*3 = 18 sign bits: its third byte holds 6 pad bits,
    # which save_bundle writes clear and load_bundle must find clear
    net = validate(parse_network("2Conv(encoding)-2fc"), (1, 4, 4))
    bundle = generate_random_bundle(net, seed=0)
    path = tmp_path / "model.vsa"
    save_bundle(bundle, path)
    blob = bytearray(path.read_bytes())
    last = 4 + struct.calcsize("<HHIIII") + 2 * struct.calcsize("<BBBBIIdI") + 2
    assert blob[last] & 0x3F == 0
    blob[last] |= 0x3F
    struct.pack_into("<I", blob, len(blob) - 4, zlib.crc32(blob[4:-4]))
    path.write_bytes(bytes(blob))
    with pytest.raises(BundleError, match="^bundle fields are not in canonical form$"):
        load_bundle(path)
    blob[last] &= 0xC0
    struct.pack_into("<I", blob, len(blob) - 4, zlib.crc32(blob[4:-4]))
    path.write_bytes(bytes(blob))
    assert load_bundle(path) == bundle


def test_bundle_bad_magic(tmp_path):
    path = tmp_path / "model.vsa"
    save_bundle(_mnist_bundle(), path)
    data = bytearray(path.read_bytes())
    data[:4] = b"NOPE"
    path.write_bytes(bytes(data))
    with pytest.raises(BadMagicError):
        load_bundle(path)


def test_bundle_checksum_error(tmp_path):
    path = tmp_path / "model.vsa"
    save_bundle(_mnist_bundle(), path)
    data = bytearray(path.read_bytes())
    data[100] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(ChecksumError):
        load_bundle(path)


def test_bundle_truncation_error(tmp_path):
    path = tmp_path / "model.vsa"
    save_bundle(_mnist_bundle(), path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(TruncatedBundleError):
        load_bundle(path)


def test_every_single_bit_flip_raises_a_bundle_error(tmp_path):
    # header, layer table, weights, parameters and CRC: a flip anywhere
    # (the fixed-point format fields included) must surface as a BundleError
    net = validate(parse_network("2Conv(encoding)-MP2-2Conv-2fc"), (1, 4, 4))
    path = tmp_path / "model.vsa"
    save_bundle(generate_random_bundle(net, seed=3), path)
    data = path.read_bytes()
    escapes = []
    for bit in range(8 * len(data)):
        flipped = bytearray(data)
        flipped[bit // 8] ^= 1 << (bit % 8)
        path.write_bytes(bytes(flipped))
        try:
            load_bundle(path)
            escapes.append((bit, "loaded"))
        except BundleError:
            pass
        except Exception as exc:  # noqa: BLE001 - collect every escape
            escapes.append((bit, type(exc).__name__))
    assert escapes == []


def _tiny_bundle_bytes(tmp_path):
    net = validate(parse_network("2Conv(encoding)-MP2-2Conv-2fc"), (1, 4, 4))
    path = tmp_path / "model.vsa"
    save_bundle(generate_random_bundle(net, seed=3), path)
    return path, path.read_bytes()


def _corrupt(data, op, pos, run):
    pos %= len(data) + 1
    if op == "overwrite":
        return data[:pos] + run + data[pos + len(run):]
    if op == "insert":
        return data[:pos] + run + data[pos:]
    if op == "delete":
        return data[:pos] + data[pos + len(run):]
    if op == "truncate":
        return data[:pos]
    return data + run  # append


@given(
    op=st.sampled_from(["overwrite", "insert", "delete", "truncate", "append"]),
    pos=st.integers(0, 2**16),
    run=st.binary(min_size=1, max_size=16),
)
def test_every_byte_run_corruption_raises_a_bundle_error(
    tmp_path_factory, op, pos, run
):
    path, data = _tiny_bundle_bytes(tmp_path_factory.mktemp("bundle"))
    corrupted = _corrupt(data, op, pos, run)
    assume(corrupted != data)
    path.write_bytes(corrupted)
    with pytest.raises(BundleError):
        load_bundle(path)


# A 2Conv(encoding)-2fc bundle's header holds frac_bits at offset 8 and
# total_bits at 12; layer 0's first bias follows the header, the two table
# entries and its 18 packed sign bits.
_FIRST_BIAS = 4 + struct.calcsize("<HHIIII") + 2 * struct.calcsize("<BBBBIIdI") + 3


@pytest.mark.parametrize("edits", [
    [(8, "<I", 0), (12, "<I", 24)],
    [(8, "<I", 8), (12, "<I", 8)],
    [(8, "<I", 8), (12, "<I", 63)],
    [(8, "<I", 8), (12, "<I", 100)],
    [(_FIRST_BIAS, "<i", 2**30)],  # fits int32, not the 24-bit format
], ids=["frac_0", "total_8", "total_63", "total_100", "bias_2**30"])
def test_bundle_field_outside_its_format_is_a_bundle_error(tmp_path, edits):
    # each edit goes in under a fresh CRC, so it reaches the field checks
    net = validate(parse_network("2Conv(encoding)-2fc"), (1, 4, 4))
    path = tmp_path / "model.vsa"
    save_bundle(generate_random_bundle(net, seed=3), path)
    blob = bytearray(path.read_bytes())
    for offset, code, value in edits:
        struct.pack_into(code, blob, offset, value)
    struct.pack_into("<I", blob, len(blob) - 4, zlib.crc32(blob[4:-4]))
    path.write_bytes(bytes(blob))
    with pytest.raises(BundleError, match="out of range"):
        load_bundle(path)


def test_generate_requires_validated_net():
    with pytest.raises(ValidationError):
        generate_random_bundle(parse_network(MNIST), seed=0)


# ---------------------------------------------------------------------------
# input tensors
# ---------------------------------------------------------------------------

def test_input_tensor_round_trip(tmp_path):
    image = random_input((3, 5, 4), seed=9)
    path = tmp_path / "input.bin"
    save_input_tensor(image, path)
    assert np.array_equal(load_input_tensor(path), image)


def test_input_tensor_truncation(tmp_path):
    path = tmp_path / "input.bin"
    save_input_tensor(random_input((3, 5, 4), seed=9), path)
    data = path.read_bytes()
    path.write_bytes(data[:20])
    with pytest.raises(TruncatedBundleError):
        load_input_tensor(path)


def test_input_tensor_trailing_bytes(tmp_path):
    path = tmp_path / "input.bin"
    save_input_tensor(random_input((3, 5, 4), seed=9), path)
    path.write_bytes(path.read_bytes() + b"\x01")
    with pytest.raises(BundleError, match="1 unexpected trailing bytes"):
        load_input_tensor(path)


def test_random_input_deterministic():
    assert np.array_equal(random_input((2, 3, 3), 4), random_input((2, 3, 3), 4))
