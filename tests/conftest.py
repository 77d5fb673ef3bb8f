import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from vecspike import geometry
from vecspike.errors import NetworkParseError
from vecspike.geometry import step_buffers
from vecspike.memmodel import (
    BufferModel,
    BufferTrace,
    ComputeLayer,
    FusionPlan,
    LayerTraffic,
    TraceEvent,
    _plan_layers,
    compute_layers,
)
from vecspike.netconfig import LayerSpec, NetworkDescription, validate

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
settings.load_profile("ci")


def brute_conv2d(x, weight_values, pad=0):
    """Exhaustive convolution by nested loops; the tests' own oracle."""
    x = np.asarray(x, dtype=np.int64)
    w = np.asarray(weight_values, dtype=np.int64)
    o_ch, in_ch, kh, kw = w.shape
    c, h, wd = x.shape
    assert c == in_ch
    xp = np.zeros((c, h + 2 * pad, wd + 2 * pad), dtype=np.int64)
    xp[:, pad : pad + h, pad : pad + wd] = x
    ho = xp.shape[1] - kh + 1
    wo = xp.shape[2] - kw + 1
    out = np.zeros((o_ch, ho, wo), dtype=np.int64)
    for o in range(o_ch):
        for i in range(ho):
            for j in range(wo):
                acc = 0
                for ci in range(in_ch):
                    for u in range(kh):
                        for v in range(kw):
                            acc += int(w[o, ci, u, v]) * int(xp[ci, i + u, j + v])
                out[o, i, j] = acc
    return out


def record_matmul_dtypes(monkeypatch):
    """Patch ``np.matmul`` to record the dtype of each call's second operand
    (the oracle's input for one kernel offset); returns the growing list.

    Each operand must be a 2-D view with unit-stride rows, not a copy.  The
    engine's tile products call ``np.matmul`` too, so a test that records
    the oracle's alone runs no engine while patched."""
    seen = []
    matmul = np.matmul

    def spy(a, b, *args, **kwargs):
        assert b.ndim == 2 and b.strides[-1] == b.itemsize and b.base is not None
        seen.append(b.dtype)
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    return seen


def stitching_ledger(h_in, kh, rows, n_groups):
    """(deposits, consumes, peak_rows) of row-by-row pending stitching.

    The tests' own boundary-SRAM reference: every row a tile touches joins
    a pending set; in the last group, rows whose receptive field ends
    inside the tile complete, and the rest are deposited at each tile edge.
    No row may stay pending after the last tile.
    """
    h_out = h_in - kh + 1
    tiles = [(base, min(rows, h_in - base)) for base in range(0, h_in, rows)]
    pending, resident = set(), set()
    deposits = consumes = peak = 0
    for gi in range(n_groups):
        for si, (base, rt) in enumerate(tiles):
            pending |= {
                base + p - (kh - 1) for p in range(rt + kh - 1)
            } & set(range(h_out))
            if gi == n_groups - 1:
                done = {g for g in pending if g + kh - 1 <= base + rt - 1}
                consumes += len(done & resident)
                resident -= done
                pending -= done
                if si < len(tiles) - 1:
                    deposits += len(pending - resident)
                    resident |= pending
                    peak = max(peak, len(resident))
    assert not pending
    return deposits, consumes, peak


def step_boundary(cin, h, w, kh, kw, cfg, encoding=False):
    """(deposits, peak_rows) the engine charges one convolution step: its
    closed form over the row tiles and groups of the step's pass structure."""
    n_groups, tiles, h_out, _ = geometry.pass_structure(cin, h, w, kh, kw, cfg, encoding)
    boundary = geometry._tile_boundary(tiles, h_out, kh, n_groups)
    return boundary.deposits, boundary.peak_rows


def random_network(rng, *, max_layers=4, max_dim=16, max_channels=64):
    """A random validated network within the acceptance envelope."""
    c = int(rng.choice([1, 3]))
    h = int(rng.integers(4, max_dim + 1))
    w = int(rng.integers(4, max_dim + 1))
    input_shape = (c, h, w)

    def rand_vth():
        return float(np.round(rng.uniform(0.5, 2.0), 3))

    layers = [
        LayerSpec(
            "encoding-conv",
            out_channels=int(rng.integers(2, max_channels + 1)),
            padding=int(rng.integers(0, 2)) if min(h, w) >= 3 else 1,
            v_th=rand_vth(),
        )
    ]
    shape = (layers[0].out_channels,) + _conv_out(h, w, layers[0].padding)
    n_extra = int(rng.integers(0, max_layers))
    for _ in range(n_extra):
        choices = ["conv", "fc"]
        if shape[1] % 2 == 0 and shape[2] % 2 == 0 and min(shape[1], shape[2]) >= 2:
            choices.append("maxpool2")
        kind = str(rng.choice(choices))
        if kind == "conv":
            pad = int(rng.integers(0, 2))
            if min(shape[1], shape[2]) < 3 and pad == 0:
                pad = 1
            layer = LayerSpec(
                "conv",
                out_channels=int(rng.integers(2, max_channels + 1)),
                padding=pad,
                v_th=rand_vth(),
            )
            shape = (layer.out_channels,) + _conv_out(shape[1], shape[2], pad)
        elif kind == "fc":
            layer = LayerSpec(
                "fc",
                out_channels=int(rng.integers(2, max_channels + 1)),
                kernel=(1, 1),
                padding=0,
                v_th=rand_vth(),
            )
            shape = (layer.out_channels, 1, 1)
        else:
            layer = LayerSpec("maxpool2", kernel=(2, 2), padding=0)
            shape = (shape[0], shape[1] // 2, shape[2] // 2)
        layers.append(layer)
    net = validate(NetworkDescription(layers), input_shape)
    return net, input_shape


def _conv_out(h, w, pad, k=3):
    return (h + 2 * pad - k + 1, w + 2 * pad - k + 1)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


# Layer texts of the network grammar, valid and not, for the parser and
# the CLI's exit contract.

vth_attrs = st.just("") | (st.floats(-4, 4) | st.sampled_from([0.0, 1e-300, 1e300])).map(
    lambda v: f"{{vth={v!r}}}")
junk_tokens = (st.sampled_from(["", "BOGUS", "Conv", "8FC", "MP3", "MP2{vth=1}", "4fc{vth=}"])
               | st.text("0123456789Conv(encoding)fcMP{vth=}.e-", max_size=10))


@st.composite
def layer_texts(draw):
    """1-6 dash-joined layer tokens, N in 0..8 with an optional vth; the
    first is an encoding layer half the time, and one token in five is junk."""
    tokens = []
    for position in range(draw(st.integers(1, 6))):
        if draw(st.integers(0, 4)) == 0:
            token = draw(junk_tokens)
        elif position == 0 and draw(st.booleans()):
            token = f"{draw(st.integers(0, 8))}Conv(encoding)"
        else:
            token = draw(st.sampled_from(["{}Conv(encoding)", "{}Conv", "{}fc", "MP2"]))
            if token != "MP2":
                token = token.format(draw(st.integers(0, 8))) + draw(vth_attrs)
        tokens.append(token)
    return "-".join(tokens)


# The layer-text parser as a regex split at every dash that no "}" follows
# before the next "{", and a separate pattern per token kind.  The tests'
# reference for :func:`vecspike.netconfig.parse_network`, which splits
# plain text with str.split and matches each token once.

_LISTED_CONV_RE = re.compile(r"^(\d+)Conv(\(encoding\))?$")
_LISTED_FC_RE = re.compile(r"^(\d+)fc$")
_LISTED_ATTR_RE = re.compile(r"^\{vth=([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)\}$")
_LISTED_DASH_RE = re.compile(r"-(?![^{]*\})")


def _listed_parse_token(token, column):
    attrs = {}
    if "{" in token:
        base, brace, rest = token.partition("{")
        match = _LISTED_ATTR_RE.match(brace + rest)
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
    match = _LISTED_CONV_RE.match(token)
    if match:
        kind = "encoding-conv" if match.group(2) else "conv"
        return LayerSpec(kind, out_channels=int(match.group(1)), **attrs)
    match = _LISTED_FC_RE.match(token)
    if match:
        return LayerSpec(
            "fc", out_channels=int(match.group(1)), kernel=(1, 1), padding=0, **attrs
        )
    raise NetworkParseError(f"unknown token {token!r}", column)


def listed_parse_network(text, time_steps=8):
    """Parse a dash-separated layer string into a NetworkDescription."""
    stripped = text.strip()
    if not stripped:
        raise NetworkParseError("empty network description")
    layers = []
    column = 1
    for token in _LISTED_DASH_RE.split(stripped):
        if not token:
            raise NetworkParseError("empty layer token", column)
        layers.append(_listed_parse_token(token, column))
        column += len(token) + 1
    return NetworkDescription(layers, time_steps=time_steps)


# The traffic sweep's plan and network generators (perfbench/workloads.py),
# copied so that the tests do not import the benchmark.

def fusion_plans(n):
    """Every plan of singletons and adjacent pairs over n compute layers."""
    if n == 0:
        return [()]
    plans = [((0,),) + tuple(tuple(i + 1 for i in g) for g in rest)
             for rest in fusion_plans(n - 1)]
    if n >= 2:
        plans += [((0, 1),) + tuple(tuple(i + 2 for i in g) for g in rest)
                  for rest in fusion_plans(n - 2)]
    return plans


def random_network_text(rng):
    """A valid network of eight compute layers: encoding, 5 convs, 2 fc."""
    channels = (16, 32, 64, 128, 192, 256)
    size = rng.choice((16, 32))
    shape = (rng.choice((1, 3)), size, size)
    tokens = [f"{rng.choice(channels)}Conv(encoding)"]
    for _ in range(5):
        if size % 2 == 0 and size >= 4 and rng.random() < 0.4:
            tokens.append("MP2")
            size //= 2
        tokens.append(f"{rng.choice(channels)}Conv")
    if size % 2 == 0 and size >= 4 and rng.random() < 0.5:
        tokens.append("MP2")
    tokens += [f"{rng.choice((64, 128, 256))}fc", "10fc"]
    return "-".join(tokens), shape


def stepwise_pingpong(net, time_steps, cfg, plan=None):
    """The ping-pong schedule walked step by step: every time step of every
    group visit stages each buffer use through ``BufferModel.write`` and
    appends its events to a list.  The tests' reference for
    :func:`vecspike.memmodel.pingpong_schedule`, which stages two steps per
    visit and generates its events on demand."""
    if plan is None:
        plan = FusionPlan.unfused(len(compute_layers(net)))
    layers, _ = _plan_layers(net, plan, time_steps)
    rows = listed_dram_rows(layers, plan)

    buffers = {name: BufferModel(name, size) for name, size in (
        ("spike0", cfg.spike_sram_bytes),  # spike ping-pong pair
        ("spike1", cfg.spike_sram_bytes),
        ("weight", 2 * cfg.weight_sram_bytes),  # weight ping-pong pair
        ("membrane0", cfg.membrane_sram_bytes),
        ("membrane1", cfg.membrane_sram_bytes),  # second membrane
        ("temp", cfg.temp_sram_bytes),  # output staging
        ("boundary", cfg.boundary_sram_bytes),  # tile boundary
    )}
    spike0, spike1, weight, membrane0, membrane1, temp, boundary = buffers.values()
    events: list[TraceEvent] = []

    for group in plan.groups:
        weight.write(sum(layers[pos].sign_bytes for pos in group))
        for pos in group:
            events.append(TraceEvent(-1, pos, "weight", "write", layers[pos].sign_bytes,
                                     ("weights", pos)))

        step_rows = []
        for slot, pos in enumerate(group):
            layer = layers[pos]
            charge, edge = step_buffers(layer.spec, cfg)
            out_c, out_h, _ = layer.out_shape
            step_rows.append((
                slot, pos, membrane1 if slot else membrane0, charge,
                layer.spec.kind == "encoding-conv", edge,
                layer.map_bytes, max(1, math.ceil(out_c * out_h / 8)),
                rows[pos][2],
            ))
        image, in_map, _ = rows[group[0]]
        for step in range(time_steps):
            spike = spike1 if step % 2 else spike0
            # the static 8-bit image is staged once; the encoding layer then
            # iterates its parked convolution from the second membrane
            in_bytes = in_map + (0 if step else image)
            if in_bytes:
                in_tag = ("image",) if image else ("input", group[0] - 1, step)
                spike.write(in_bytes, 1)
                events.append(TraceEvent(step, group[0], spike.name, "write", in_bytes, in_tag))
                events.append(TraceEvent(step, group[0], spike.name, "read", in_bytes, in_tag))

            for slot, pos, membrane, charge, encoding, edge, fused, column, out_map in step_rows:
                membrane.write(charge, 1)
                if encoding:  # it parks its conv-result strip in the second membrane
                    membrane1.write(charge, 1)
                if edge:
                    boundary.write(edge, 1)
                out_tag = ("input", pos, step)
                if not out_map:
                    # fused intermediate: the whole per-step map parks in
                    # temp SRAM and feeds the second layer directly
                    temp.write(fused, 1)
                    events.append(TraceEvent(step, pos, "temp", "write", fused, out_tag))
                    events.append(TraceEvent(step, pos, "temp", "read", fused, out_tag))
                    continue
                if slot:
                    # the pair's output replaces the consumed entries of the
                    # first layer's input buffer on its way off chip
                    spike.write(max(in_bytes, out_map), 1)
                    events.append(TraceEvent(step, pos, spike.name, "write", out_map, out_tag))
                    events.append(TraceEvent(step, pos, spike.name, "read", out_map, out_tag))
                else:
                    # standalone output streams through temp a column at a time
                    temp.write(column, 1)
                events.append(TraceEvent(step, pos, "dram", "write", out_map, out_tag))
    return BufferTrace(events, buffers)


# The memory model's table, planner and ledger as separate passes: the
# compute-layer records from a scan of weighted-layer starts, the planner
# over a list of weight bytes, and the ledger over a list of DRAM rows with
# its totals summed afterwards.  The tests' reference for the one-pass
# walks of :mod:`vecspike.memmodel`.

def listed_build_compute_layers(layers):
    """The compute-layer records of a shape-annotated layer list whose
    first layer is weighted.  A weighted layer hands on the map of the last
    layer before the next weighted one, and its label is its kind, with
    ``+pool`` when pooling follows it."""
    starts = [idx for idx, layer in enumerate(layers) if layer.kind != "maxpool2"]
    records = []
    for idx, end in zip(starts, starts[1:] + [len(layers)]):
        spec, out_shape = layers[idx], layers[end - 1].out_shape
        label = spec.kind + ("+pool" if end - idx > 1 else "")
        # the packed signs, and one step of the packed map: ceil(bits / 8)
        signs, map_bytes = -(-math.prod(spec.weight_shape) // 8), -(-math.prod(out_shape) // 8)
        records.append(ComputeLayer(idx, spec, out_shape, signs, map_bytes, label))
    return tuple(records)


def listed_plan_fusion(net, cfg):
    """Greedy front-to-back pairing of adjacent eligible layers."""
    layers = compute_layers(net)
    weights = [layer.weight_bytes(cfg.param_bytes) for layer in layers]
    weight_capacity = 2 * cfg.weight_sram_bytes
    groups = []
    pos = 0
    while pos < len(layers):
        if pos + 1 < len(layers):
            weights_fit = weights[pos] + weights[pos + 1] <= weight_capacity
            intermediate_fit = layers[pos].map_bytes <= cfg.temp_sram_bytes
            if weights_fit and intermediate_fit:
                groups.append((pos, pos + 1))
                pos += 2
                continue
        groups.append((pos,))
        pos += 1
    return FusionPlan(groups)


def listed_dram_rows(layers, plan):
    """Per compute layer, ``(image, in_map, out_map)``: the bytes of the
    8-bit image, read once by the first layer at full byte width, and of
    the bit-packed maps it reads and writes per time step."""
    on_chip = {group[0] for group in plan.groups if len(group) == 2}
    rows = []
    in_map = 0
    for pos, layer in enumerate(layers):
        out_map = 0 if pos in on_chip else layer.map_bytes
        rows.append((0 if pos else math.prod(layer.spec.in_shape), in_map, out_map))
        in_map = out_map
    return rows


def listed_simulate_traffic(net, plan, time_steps, cfg):
    """DRAM byte counts per layer under a fusion plan: the records, then
    ``layer_fusion`` and the four totals, as the ledger names them."""
    layers, _ = _plan_layers(net, plan, time_steps)
    rows = listed_dram_rows(layers, plan)
    records = []
    for layer, (image, in_map, out_map) in zip(layers, rows):
        note = "8-bit image input" if image else "" if in_map else "input fused on chip"
        if not out_map:
            note = (note + "; " if note else "") + "output fused on chip"
        records.append(
            LayerTraffic(
                layer.index,
                layer.spec.kind + ("+pool" if layer.out_shape != layer.spec.out_shape else ""),
                note,
                layer.weight_bytes(cfg.param_bytes),
                image + in_map * time_steps,
                out_map * time_steps,
            )
        )
    weights = sum(r.weight_bytes_read for r in records)
    inputs = sum(r.input_spike_bytes_read for r in records)
    outputs = sum(r.output_spike_bytes_written for r in records)
    return (records, any(not row[2] for row in rows),
            weights, inputs, outputs, weights + inputs + outputs)
