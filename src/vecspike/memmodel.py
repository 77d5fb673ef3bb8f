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
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from .arch import HardwareConfig
from .errors import CapacityFault, PlanError, ReadBeforeWriteFault
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

@dataclass(frozen=True)
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
    if not net.is_annotated:
        raise PlanError("network must be validated before planning")
    result: list[ComputeLayer] = []
    for idx, layer in enumerate(net.layers):
        if layer.kind != "maxpool2":
            result.append(ComputeLayer(idx, layer, layer.out_shape))
        elif not result:
            raise PlanError("pooling cannot precede the first weighted layer")
        else:
            result[-1] = replace(result[-1], out_shape=layer.out_shape)
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
                weight_bytes(*first.spec.weight_shape, cfg.param_bytes)
                + weight_bytes(*second.spec.weight_shape, cfg.param_bytes)
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


def _plan_layers(net: "NetworkDescription", plan: FusionPlan) -> list[ComputeLayer]:
    """The network's compute layers; raises unless ``plan`` covers each one."""
    layers = compute_layers(net)
    if plan.layer_count != len(layers):
        raise PlanError(f"plan covers {plan.layer_count} layers, network has {len(layers)}")
    return layers


def simulate_traffic(
    net: "NetworkDescription",
    plan: FusionPlan,
    time_steps: int,
    cfg: HardwareConfig,
) -> TrafficLedger:
    """DRAM byte counts per layer under a fusion plan.

    Tick batching is the only mode: all T steps of a layer run in one
    visit, so its weights cross DRAM once whatever T is.  The first layer
    reads the static 8-bit image once at full byte width; every other
    non-fused boundary moves bit-packed spike maps for all T steps.
    Intermediates of fused pairs contribute neither a write nor a read.
    """
    layers = _plan_layers(net, plan)
    on_chip = set(plan.fused_intermediates())
    records = []
    for pos, layer in enumerate(layers):
        if pos == 0:
            in_bytes = math.prod(layer.spec.in_shape)  # 8-bit image, read once
            note = "8-bit image input"
        elif (pos - 1) in on_chip:
            in_bytes = 0
            note = "input fused on chip"
        else:
            in_bytes = spike_map_bytes(*layer.spec.in_shape, time_steps)
            note = ""
        if pos in on_chip:
            out_bytes = 0
            note = (note + "; " if note else "") + "output fused on chip"
        else:
            out_bytes = spike_map_bytes(*layer.out_shape, time_steps)
        records.append(
            LayerTraffic(
                layer.index,
                layer.spec.kind + ("+pool" if layer.pooled else ""),
                note,
                weight_bytes(*layer.spec.weight_shape, cfg.param_bytes),
                in_bytes,
                out_bytes,
            )
        )
    return TrafficLedger(records, layer_fusion=bool(on_chip))


def fusion_savings(
    net: "NetworkDescription", plan: FusionPlan, time_steps: int
) -> int:
    """The identity value: sum of 2 x (intermediate map bytes) over pairs."""
    layers = _plan_layers(net, plan)
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
    to the next layer.  A layer step's membrane and boundary charges are
    its :func:`vecspike.geometry.step_buffers`, read once per visit.  Every
    buffer use except the weight load is one ``stage``: a write, held until
    the buffer's next write, and a read.  Maps staged in the
    spike and temp buffers are traced as a write and a read event;
    membrane and boundary slices are counted, not traced.  A DRAM write is
    an event only.  Any violation raises a fault.
    """
    if plan is None:
        plan = FusionPlan.unfused(len(compute_layers(net)))
    layers = _plan_layers(net, plan)

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

    def stage(name, nbytes, step=0, pos=0, tag=None, traced=None):
        """A write of ``nbytes`` and a read; when tagged, both are traced
        as ``traced`` bytes (default ``nbytes``)."""
        buf = buffers[name]
        buf.write(nbytes)
        buf.read()
        if tag is not None:
            shown = nbytes if traced is None else traced
            events.append(TraceEvent(step, pos, name, "write", shown, tag))
            events.append(TraceEvent(step, pos, name, "read", shown, tag))

    for group in plan.groups:
        group_layers = [layers[pos] for pos in group]
        signs = [weight_bytes(*l.spec.weight_shape, param_bytes=0) for l in group_layers]
        buffers["weight"].write(sum(signs))
        for pos, nbytes in zip(group, signs):
            events.append(TraceEvent(-1, pos, "weight", "write", nbytes, ("weights", pos)))

        charges = [step_buffers(l.spec, cfg) for l in group_layers]
        first = group_layers[0]
        for step in range(time_steps):
            spike = f"spike{step % 2}"
            if group[0]:
                in_tag = ("input", group[0] - 1, step)
                if in_tag not in written_to_dram:
                    raise ReadBeforeWriteFault(
                        f"layer {first.index} reads step {step} before it was produced"
                    )
                in_bytes = spike_map_bytes(*first.spec.in_shape, 1)
            else:
                # static 8-bit image: staged once, then the encoding layer
                # iterates its parked convolution from the second membrane
                in_tag = ("image",)
                in_bytes = math.prod(first.spec.in_shape) if step == 0 else 0
            if in_bytes:
                stage(spike, in_bytes, step, group[0], in_tag)

            for slot, (pos, layer, charge) in enumerate(zip(group, group_layers, charges)):
                stage("membrane1" if slot else "membrane0", charge["membrane"])
                if layer.spec.kind == "encoding-conv":
                    # the encoding layer parks its conv-result strip in the
                    # second membrane
                    stage("membrane1", charge["membrane"])
                if charge["boundary"]:
                    stage("boundary", charge["boundary"])
                out_map = spike_map_bytes(*layer.out_shape, 1)
                out_tag = ("input", pos, step)
                if slot == 0 and len(group) == 2:
                    # fused intermediate: the whole per-step map parks in
                    # temp SRAM and feeds the second layer directly
                    stage("temp", out_map, step, pos, out_tag)
                    continue
                if slot == 1:
                    # the pair's output replaces the consumed entries of the
                    # first layer's input buffer on its way off chip
                    stage(spike, max(in_bytes, out_map), step, pos, out_tag, out_map)
                else:
                    # standalone output streams through temp a column at a time
                    out_c, out_h, _ = layer.out_shape
                    stage("temp", max(1, math.ceil(out_c * out_h / 8)))
                events.append(TraceEvent(step, pos, "dram", "write", out_map, out_tag))
                written_to_dram.add(out_tag)
    return BufferTrace(events, buffers)
