"""On-chip buffer model, DRAM traffic ledger and two-layer fusion.

Spike maps are bit-packed (one bit per spike per time step) and every
layer is visited once: all time steps of a layer run before the next, so
weights cross DRAM exactly once regardless of T and membrane potentials
never leave the chip at all.  Fusing two adjacent layers keeps the
intermediate spike maps on chip, removing one write and one read of every
intermediate map from the ledger.

Pooling is absorbed into its producer's post-processing: a ``MP2`` token
never breaks fusion adjacency, and the producing layer's DRAM output is
the pooled map.  A compute layer keeps its validated ``LayerSpec``, so the
shapes before pooling (weights, input, the conv output that the IF unit
integrates) are read from the spec and only the pooled map is its own.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .arch import HardwareConfig
from .errors import CapacityFault, InvalidParameterError, PlanError
from .geometry import step_buffers

if TYPE_CHECKING:  # pragma: no cover
    from .netconfig import LayerSpec, NetworkDescription


# ---------------------------------------------------------------------------
# byte accounting
# ---------------------------------------------------------------------------

def spike_map_bytes(channels: int, height: int, width: int, time_steps: int) -> int:
    """Bit-packed spike traffic: ceil(C*H*W / 8) bytes per time step."""
    return math.ceil(channels * height * width / 8) * time_steps


def weight_bytes(
    out_channels: int, in_channels: int, kh: int, kw: int, param_bytes: int
) -> int:
    """Sign bits packed to bytes plus per-channel folded bias and threshold."""
    signs = math.ceil(out_channels * in_channels * kh * kw / 8)
    return signs + out_channels * 2 * param_bytes


# ---------------------------------------------------------------------------
# compute-layer view (pooling absorbed)
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class ComputeLayer:
    """A validated weighted layer (``spec``, shapes before pooling) and the
    map it hands on, ``out_shape``, with any following pooling absorbed."""

    index: int  # index in the original layer list
    spec: "LayerSpec"
    out_shape: tuple[int, int, int]

    @property
    def pooled(self) -> bool:
        return self.out_shape != self.spec.out_shape


def compute_layers(net: "NetworkDescription") -> list[ComputeLayer]:
    """Collapse the layer list to weighted layers with pooling absorbed."""
    if not net.layers:
        raise PlanError("network has no layers")
    result: list[ComputeLayer] = []
    for idx, layer in enumerate(net.layers):
        if layer.out_shape is None:
            raise PlanError("network must be validated before planning")
        if layer.kind != "maxpool2":
            result.append(ComputeLayer(idx, layer, layer.out_shape))
        elif not result:
            raise PlanError("pooling cannot precede the first weighted layer")
        else:
            result[-1].out_shape = layer.out_shape
    return result


# ---------------------------------------------------------------------------
# fusion planning
# ---------------------------------------------------------------------------

@dataclass
class FusionPlan:
    """Ordered groups of compute-layer positions, each of size 1 or 2."""

    groups: list[tuple[int, ...]]

    def __post_init__(self):
        pos, sized = 0, True
        for group in self.groups:
            sized = sized and len(group) in (1, 2)
            for i in group:
                if i != pos:
                    raise PlanError("plan must cover every compute layer exactly once, in order")
                pos += 1
        if not sized:
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
    def from_json(cls, text: str) -> "FusionPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise PlanError(f"fusion plan is not valid JSON: {exc}") from exc
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
    weights = [weight_bytes(*l.spec.weight_shape, cfg.param_bytes) for l in layers]
    weight_capacity = 2 * cfg.weight_sram_bytes
    groups: list[tuple[int, ...]] = []
    pos = 0
    while pos < len(layers):
        if pos + 1 < len(layers):
            weights_fit = weights[pos] + weights[pos + 1] <= weight_capacity
            intermediate_fit = spike_map_bytes(*layers[pos].out_shape, 1) <= cfg.temp_sram_bytes
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


def _plan_layers(
    net: "NetworkDescription", plan: FusionPlan, time_steps: int
) -> list[ComputeLayer]:
    """The network's compute layers; raises unless T >= 1 and ``plan`` covers each."""
    if time_steps < 1:
        raise InvalidParameterError("time_steps must be >= 1")
    layers = compute_layers(net)
    if plan.layer_count != len(layers):
        raise PlanError(f"plan covers {plan.layer_count} layers, network has {len(layers)}")
    return layers


def _dram_rows(layers: list[ComputeLayer], plan: FusionPlan) -> list[tuple[int, int, int]]:
    """Per compute layer, ``(image, in_map, out_map)``: the bytes of the
    8-bit image, read once by the first layer at full byte width, and of
    the bit-packed maps it reads and writes per time step.  A layer reads
    the map its predecessor wrote; a fused pair's intermediate stays on
    chip and moves 0 bytes."""
    on_chip = set(plan.fused_intermediates())
    rows = []
    in_map = 0
    for pos, layer in enumerate(layers):
        out_map = 0 if pos in on_chip else spike_map_bytes(*layer.out_shape, 1)
        rows.append((0 if pos else math.prod(layer.spec.in_shape), in_map, out_map))
        in_map = out_map
    return rows


def simulate_traffic(
    net: "NetworkDescription",
    plan: FusionPlan,
    time_steps: int,
    cfg: HardwareConfig,
) -> TrafficLedger:
    """DRAM byte counts per layer under a fusion plan.

    Tick batching is the only mode: all T steps of a layer run in one
    visit, so its weights cross DRAM once whatever T is.  The image
    crosses once and each map T times, as :func:`_dram_rows` states.
    """
    layers = _plan_layers(net, plan, time_steps)
    rows = _dram_rows(layers, plan)
    records = []
    for layer, (image, in_map, out_map) in zip(layers, rows):
        note = "8-bit image input" if image else "" if in_map else "input fused on chip"
        if not out_map:
            note = (note + "; " if note else "") + "output fused on chip"
        records.append(
            LayerTraffic(
                layer.index,
                layer.spec.kind + ("+pool" if layer.pooled else ""),
                note,
                weight_bytes(*layer.spec.weight_shape, cfg.param_bytes),
                image + in_map * time_steps,
                out_map * time_steps,
            )
        )
    return TrafficLedger(records, layer_fusion=any(not row[2] for row in rows))


def fusion_savings(
    net: "NetworkDescription", plan: FusionPlan, time_steps: int
) -> int:
    """The identity value: sum of 2 x (intermediate map bytes) over pairs."""
    layers = _plan_layers(net, plan, time_steps)
    return sum(
        2 * spike_map_bytes(*layers[pos].out_shape, time_steps)
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
        """Hold ``nbytes`` until the next write; one that does not fit raises first."""
        if nbytes > self.capacity:
            raise CapacityFault(
                f"{self.name}: {nbytes} bytes exceed capacity {self.capacity}"
            )
        self.occupancy = nbytes
        self.peak = max(self.peak, nbytes)
        self.writes += 1

    def stage(self, nbytes: int):
        """A write of ``nbytes``, held until the buffer's next write, and a read."""
        self.write(nbytes)
        self.reads += 1


@dataclass(slots=True)
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
    """Trace buffer traffic and assert capacities.

    Spike buffers alternate across time steps, weight buffers across layer
    visits (a single layer may span both halves; a fused pair must).  The
    temp SRAM stages output columns on their way to DRAM or, when fused,
    to the next layer.  What crosses DRAM is the plan's :func:`_dram_rows`,
    as in :func:`simulate_traffic`.  A group visit builds one step row per
    layer, used at every step: :func:`vecspike.geometry.step_buffers`
    charges, encoding flag, fused temp bytes, column bytes and DRAM map.
    Every buffer use but the weight load is one :meth:`BufferModel.stage`.
    Maps staged in the spike and temp buffers are traced as a write and a
    read event; membrane and boundary slices are counted, not traced.  A
    DRAM write is an event only.  A capacity violation raises a fault.  No
    map is read before its DRAM write: :class:`FusionPlan` admits only
    in-order groups of one or two layers, so a group's predecessor wrote its map.
    """
    if plan is None:
        plan = FusionPlan.unfused(len(compute_layers(net)))
    layers = _plan_layers(net, plan, time_steps)
    rows = _dram_rows(layers, plan)

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
        signs = [weight_bytes(*layers[pos].spec.weight_shape, param_bytes=0) for pos in group]
        weight.write(sum(signs))
        for pos, nbytes in zip(group, signs):
            events.append(TraceEvent(-1, pos, "weight", "write", nbytes, ("weights", pos)))

        step_rows = []
        for slot, pos in enumerate(group):
            layer = layers[pos]
            charge = step_buffers(layer.spec, cfg)
            out_c, out_h, _ = layer.out_shape
            step_rows.append((
                slot, pos, membrane1 if slot else membrane0, charge["membrane"],
                layer.spec.kind == "encoding-conv", charge["boundary"],
                spike_map_bytes(*layer.out_shape, 1), max(1, math.ceil(out_c * out_h / 8)),
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
                spike.stage(in_bytes)
                events.append(TraceEvent(step, group[0], spike.name, "write", in_bytes, in_tag))
                events.append(TraceEvent(step, group[0], spike.name, "read", in_bytes, in_tag))

            for slot, pos, membrane, charge, encoding, edge, fused, column, out_map in step_rows:
                membrane.stage(charge)
                if encoding:  # it parks its conv-result strip in the second membrane
                    membrane1.stage(charge)
                if edge:
                    boundary.stage(edge)
                out_tag = ("input", pos, step)
                if not out_map:
                    # fused intermediate: the whole per-step map parks in
                    # temp SRAM and feeds the second layer directly
                    temp.stage(fused)
                    events.append(TraceEvent(step, pos, "temp", "write", fused, out_tag))
                    events.append(TraceEvent(step, pos, "temp", "read", fused, out_tag))
                    continue
                if slot:
                    # the pair's output replaces the consumed entries of the
                    # first layer's input buffer on its way off chip
                    spike.stage(max(in_bytes, out_map))
                    events.append(TraceEvent(step, pos, spike.name, "write", out_map, out_tag))
                    events.append(TraceEvent(step, pos, spike.name, "read", out_map, out_tag))
                else:
                    # standalone output streams through temp a column at a time
                    temp.stage(column)
                events.append(TraceEvent(step, pos, "dram", "write", out_map, out_tag))
    return BufferTrace(events, buffers)
