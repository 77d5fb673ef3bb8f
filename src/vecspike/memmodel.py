"""On-chip buffer model, DRAM traffic ledger and two-layer fusion.

Spike maps are bit-packed (one bit per spike per time step) and every
layer is visited once: all time steps of a layer run before the next, so
weights cross DRAM exactly once regardless of T and membrane potentials
never leave the chip at all.  Fusing two adjacent layers keeps the
intermediate spike maps on chip, removing one write and one read of every
intermediate map from the ledger.

Pooling is absorbed into its producer's post-processing: a ``MP2`` token
never breaks fusion adjacency, and the producing layer's DRAM output is
the pooled map.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .arch import HardwareConfig
from .errors import CapacityFault, PlanError, ReadBeforeWriteFault

if TYPE_CHECKING:  # pragma: no cover
    from .netconfig import LayerSpec, NetworkDescription


# ---------------------------------------------------------------------------
# byte accounting
# ---------------------------------------------------------------------------

def spike_map_bytes(channels: int, height: int, width: int, time_steps: int) -> int:
    """Bit-packed spike traffic: ceil(C*H*W / 8) bytes per time step."""
    return math.ceil(channels * height * width / 8) * time_steps


def weight_bytes(
    out_channels: int,
    in_channels: int,
    kh: int,
    kw: int,
    param_bytes: int = 3,
) -> int:
    """Sign bits packed to bytes plus per-channel folded bias and threshold."""
    signs = math.ceil(out_channels * in_channels * kh * kw / 8)
    return signs + out_channels * 2 * param_bytes


# ---------------------------------------------------------------------------
# compute-layer view (pooling absorbed)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComputeLayer:
    """A weighted layer with any following pooling folded into its output."""

    index: int                    # index in the original layer list
    kind: str
    in_shape: tuple[int, int, int]
    out_shape: tuple[int, int, int]   # after absorbed pooling
    weight_shape: tuple[int, int, int, int]
    pooled: bool
    padding: int = 0

    def weight_traffic_bytes(self, param_bytes: int) -> int:
        o, i, kh, kw = self.weight_shape
        return weight_bytes(o, i, kh, kw, param_bytes)

    def sign_bytes(self) -> int:
        return weight_bytes(*self.weight_shape, param_bytes=0)

    def out_map_bytes(self, time_steps: int) -> int:
        return spike_map_bytes(*self.out_shape, time_steps)


def compute_layers(net: "NetworkDescription") -> list[ComputeLayer]:
    """Collapse the layer list to weighted layers with pooling absorbed."""
    if not net.is_annotated:
        raise PlanError("network must be validated before planning")
    result: list[ComputeLayer] = []
    for idx, layer in enumerate(net.layers):
        if layer.kind == "maxpool2":
            if not result:
                raise PlanError("pooling cannot precede the first weighted layer")
            prev = result[-1]
            result[-1] = ComputeLayer(
                prev.index,
                prev.kind,
                prev.in_shape,
                layer.out_shape,
                prev.weight_shape,
                pooled=True,
                padding=prev.padding,
            )
            continue
        kh, kw = layer.kernel
        result.append(
            ComputeLayer(
                idx,
                layer.kind,
                layer.in_shape,
                layer.out_shape,
                (layer.out_channels, layer.in_channels, kh, kw),
                pooled=False,
                padding=layer.padding,
            )
        )
    return result


# ---------------------------------------------------------------------------
# fusion planning
# ---------------------------------------------------------------------------

@dataclass
class FusionPlan:
    """Ordered groups of compute-layer positions, each of size 1 or 2."""

    groups: list[tuple[int, ...]]

    def __post_init__(self):
        flat = [i for group in self.groups for i in group]
        if flat != list(range(len(flat))):
            raise PlanError(
                "plan must cover every compute layer exactly once, in order"
            )
        for group in self.groups:
            if len(group) not in (1, 2):
                raise PlanError("fusion groups must have size 1 or 2")

    @property
    def layer_count(self) -> int:
        return sum(len(group) for group in self.groups)

    def fused_intermediates(self) -> list[int]:
        """Compute-layer positions whose output map stays on chip."""
        return [group[0] for group in self.groups if len(group) == 2]

    @classmethod
    def unfused(cls, n_layers: int) -> "FusionPlan":
        return cls([(i,) for i in range(n_layers)])

    @classmethod
    def from_json_file(cls, path) -> "FusionPlan":
        try:
            with open(path) as handle:
                data = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise PlanError(f"cannot read fusion plan: {exc}") from exc
        if not isinstance(data, list) or not all(
            isinstance(group, list) for group in data
        ):
            raise PlanError("fusion plan must be a JSON list of index groups")
        for group in data:
            for i in group:
                if isinstance(i, bool) or not isinstance(i, int):
                    raise PlanError(f"fusion plan index {i!r} is not an integer")
        return cls([tuple(group) for group in data])

    def to_json(self) -> str:
        return json.dumps([list(group) for group in self.groups])


def plan_fusion(net: "NetworkDescription", cfg: HardwareConfig) -> FusionPlan:
    """Greedy front-to-back pairing of adjacent eligible layers.

    A pair is eligible when both layers' weights fit the weight SRAM
    together and one time step of the intermediate spike map fits the temp
    SRAM.  Unpaired layers simply run standalone.
    """
    layers = compute_layers(net)
    weight_capacity = 2 * cfg.weight_sram_bytes
    groups: list[tuple[int, ...]] = []
    pos = 0
    while pos < len(layers):
        if pos + 1 < len(layers):
            first, second = layers[pos], layers[pos + 1]
            weights_fit = (
                first.weight_traffic_bytes(cfg.param_bytes)
                + second.weight_traffic_bytes(cfg.param_bytes)
                <= weight_capacity
            )
            intermediate_fit = (
                spike_map_bytes(*first.out_shape, 1) <= cfg.temp_sram_bytes
            )
            if weights_fit and intermediate_fit:
                groups.append((pos, pos + 1))
                pos += 2
                continue
        groups.append((pos,))
        pos += 1
    return FusionPlan(groups)


# ---------------------------------------------------------------------------
# traffic ledger
# ---------------------------------------------------------------------------

@dataclass
class LayerTraffic:
    layer_index: int
    kind: str
    note: str
    weight_bytes_read: int
    input_spike_bytes_read: int
    output_spike_bytes_written: int

    @property
    def total(self) -> int:
        return (
            self.weight_bytes_read
            + self.input_spike_bytes_read
            + self.output_spike_bytes_written
        )


@dataclass
class TrafficLedger:
    records: list[LayerTraffic]
    tick_batching: bool
    layer_fusion: bool

    @property
    def weight_total(self) -> int:
        return sum(r.weight_bytes_read for r in self.records)

    @property
    def input_total(self) -> int:
        return sum(r.input_spike_bytes_read for r in self.records)

    @property
    def output_total(self) -> int:
        return sum(r.output_spike_bytes_written for r in self.records)

    @property
    def total_bytes(self) -> int:
        return sum(r.total for r in self.records)

    def itemized(self) -> list[dict]:
        return [
            {
                "layer": r.layer_index,
                "kind": r.kind,
                "note": r.note,
                "weight_bytes_read": r.weight_bytes_read,
                "input_spike_bytes_read": r.input_spike_bytes_read,
                "output_spike_bytes_written": r.output_spike_bytes_written,
                "total": r.total,
            }
            for r in self.records
        ]


def simulate_traffic(
    net: "NetworkDescription",
    plan: FusionPlan,
    time_steps: int,
    cfg: HardwareConfig,
    tick_batching: bool = True,
) -> TrafficLedger:
    """DRAM byte counts per layer under a fusion plan.

    Weights cross once per layer visit (once in total with tick batching,
    once per time step without).  The first layer reads the static 8-bit
    image once at full byte width; every other non-fused boundary moves
    bit-packed spike maps for all T steps.  Intermediates of fused pairs
    contribute neither a write nor a read.
    """
    layers = compute_layers(net)
    if plan.layer_count != len(layers):
        raise PlanError(
            f"plan covers {plan.layer_count} layers, network has {len(layers)}"
        )
    on_chip = set(plan.fused_intermediates())
    visits = 1 if tick_batching else time_steps
    records = []
    for pos, layer in enumerate(layers):
        wbytes = layer.weight_traffic_bytes(cfg.param_bytes) * visits
        if pos == 0:
            c, h, w = layer.in_shape
            in_bytes = c * h * w  # 8-bit image, read once
            note = "8-bit image input"
        elif (pos - 1) in on_chip:
            in_bytes = 0
            note = "input fused on chip"
        else:
            in_bytes = spike_map_bytes(*layer.in_shape, time_steps)
            note = ""
        if pos in on_chip:
            out_bytes = 0
            note = (note + "; " if note else "") + "output fused on chip"
        else:
            out_bytes = layer.out_map_bytes(time_steps)
        records.append(
            LayerTraffic(
                layer.index,
                layer.kind + ("+pool" if layer.pooled else ""),
                note,
                wbytes,
                in_bytes,
                out_bytes,
            )
        )
    return TrafficLedger(records, tick_batching, layer_fusion=bool(on_chip))


def fusion_savings(
    net: "NetworkDescription", plan: FusionPlan, time_steps: int
) -> int:
    """The identity value: sum of 2 x (intermediate map bytes) over pairs."""
    layers = compute_layers(net)
    return sum(
        2 * layers[pos].out_map_bytes(time_steps)
        for pos in plan.fused_intermediates()
    )


# ---------------------------------------------------------------------------
# buffer model and ping-pong schedule
# ---------------------------------------------------------------------------

@dataclass
class BufferModel:
    """One on-chip buffer: capacity, occupancy and access counters."""

    name: str
    capacity: int
    occupancy: int = 0
    peak: int = 0
    reads: int = 0
    writes: int = 0

    def write(self, nbytes: int):
        self.occupancy = nbytes
        if self.occupancy > self.capacity:
            raise CapacityFault(
                f"{self.name}: {self.occupancy} bytes exceed capacity {self.capacity}"
            )
        self.peak = max(self.peak, self.occupancy)
        self.writes += 1

    def read(self):
        self.reads += 1


@dataclass
class TraceEvent:
    step: int
    layer_index: int
    buffer: str
    op: str          # "write" | "read"
    nbytes: int
    tag: tuple       # (producer layer position, step) identity of the data


@dataclass
class BufferTrace:
    events: list[TraceEvent]
    buffers: dict[str, BufferModel]


def pingpong_schedule(
    net: "NetworkDescription",
    time_steps: int,
    cfg: HardwareConfig,
    plan: FusionPlan | None = None,
) -> BufferTrace:
    """Trace buffer traffic and assert capacities and write-before-read.

    Spike buffers alternate across time steps, weight buffers across layer
    visits (a single layer may span both halves; a fused pair must).  The
    temp SRAM stages output columns on their way to DRAM or, when fused,
    to the next layer; membranes live in per-pass working slices and are
    never traced to DRAM.  Any violation raises a fault.
    """
    layers = compute_layers(net)
    if plan is None:
        plan = FusionPlan.unfused(len(layers))
    if plan.layer_count != len(layers):
        raise PlanError(
            f"plan covers {plan.layer_count} layers, network has {len(layers)}"
        )

    capacities = {
        "spike0": cfg.spike_sram_bytes,  # spike ping-pong pair
        "spike1": cfg.spike_sram_bytes,
        "weight": 2 * cfg.weight_sram_bytes,  # weight ping-pong pair
        "membrane0": cfg.membrane_sram_bytes,
        "membrane1": cfg.membrane_sram_bytes,  # second membrane
        "temp": cfg.temp_sram_bytes,  # output staging
        "boundary": cfg.boundary_sram_bytes,  # tile boundary
    }
    buffers = {name: BufferModel(name, size) for name, size in capacities.items()}
    events: list[TraceEvent] = []
    written_to_dram: set[tuple] = set()
    param = cfg.param_bytes

    def emit(step, layer_pos, buffer, op, nbytes, tag):
        events.append(TraceEvent(step, layer_pos, buffer, op, nbytes, tag))

    for group in plan.groups:
        group_layers = [layers[pos] for pos in group]
        sign_total = sum(l.sign_bytes() for l in group_layers)
        buffers["weight"].write(sign_total)
        for pos in group:
            emit(-1, pos, "weight", "write", layers[pos].sign_bytes(), ("weights", pos))

        for step in range(time_steps):
            spike_buf = buffers[f"spike{step % 2}"]
            first = group_layers[0]
            if group[0]:
                in_tag = ("input", group[0] - 1, step)
                if in_tag not in written_to_dram:
                    raise ReadBeforeWriteFault(
                        f"layer {first.index} reads step {step} before it was produced"
                    )
                in_bytes = spike_map_bytes(*first.in_shape, 1)
                spike_buf.write(in_bytes)
                emit(step, group[0], spike_buf.name, "write", in_bytes, in_tag)
                spike_buf.read()
                emit(step, group[0], spike_buf.name, "read", in_bytes, in_tag)
            elif step == 0:
                # static 8-bit image: staged once, then the encoding layer
                # iterates its parked convolution from the second membrane
                in_tag = ("image",)
                in_bytes = first.in_shape[0] * first.in_shape[1] * first.in_shape[2]
                spike_buf.write(in_bytes)
                emit(step, group[0], spike_buf.name, "write", in_bytes, in_tag)
                spike_buf.read()
                emit(step, group[0], spike_buf.name, "read", in_bytes, in_tag)
            else:
                in_bytes = 0

            for slot, (pos, layer) in enumerate(zip(group, group_layers)):
                # membranes hold one output strip per pass; the encoding
                # layer parks its conv-result strip in the second buffer
                out_c, out_h, out_w = layer.out_shape
                strip = min(cfg.array_rows, out_h) * out_w * param
                residue = buffers["membrane1" if slot else "membrane0"]
                residue.write(strip)
                residue.read()
                if layer.kind == "encoding-conv":
                    buffers["membrane1"].write(strip)
                    buffers["membrane1"].read()
                if layer.kind != "fc":
                    o, i, kh, kw = layer.weight_shape
                    rows_padded = layer.in_shape[1] + 2 * layer.padding
                    cols_out = layer.in_shape[2] + 2 * layer.padding - kw + 1
                    if rows_padded > cfg.array_rows and kh > 1:
                        boundary_strip = (kh - 1) * cols_out * param
                        buffers["boundary"].write(boundary_strip)
                        buffers["boundary"].read()
                out_map = spike_map_bytes(*layer.out_shape, 1)
                out_tag = ("input", pos, step)
                if slot == 0 and len(group) == 2:
                    # fused intermediate: the whole per-step map parks in
                    # temp SRAM and feeds the second layer directly
                    buffers["temp"].write(out_map)
                    emit(step, pos, "temp", "write", out_map, out_tag)
                    buffers["temp"].read()
                    emit(step, pos, "temp", "read", out_map, out_tag)
                    continue
                if slot == 1:
                    # the pair's output replaces the consumed entries of the
                    # first layer's input buffer on its way off chip
                    spike_buf.write(max(in_bytes, out_map))
                    emit(step, pos, spike_buf.name, "write", out_map, out_tag)
                    spike_buf.read()
                    emit(step, pos, spike_buf.name, "read", out_map, out_tag)
                else:
                    # standalone output streams through temp a column at a time
                    column = max(1, math.ceil(out_c * out_h / 8))
                    buffers["temp"].write(column)
                    buffers["temp"].read()
                emit(step, pos, "dram", "write", out_map, out_tag)
                written_to_dram.add(out_tag)
    return BufferTrace(events, buffers)
