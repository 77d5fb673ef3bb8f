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

Each network's compute-layer table is built once, by
:func:`vecspike.netconfig.validate` in its own loop over the layers, and
kept on the validated description; every walk reads it through
:func:`compute_layers`, and a network that ``validate`` did not return
cannot be planned.  Each walk is one pass over the table, and every byte
count is an integer ceiling, exact at any size.

A DRAM ledger sums its totals in its one pass from three identities over
the table and the plan's on-chip positions: the weights are the summed
sign bytes plus the folded parameters of the summed output channels; the
outputs are T x the map of every layer not kept on chip; the inputs are
the image, plus the outputs, less T x the last layer's map, since each
layer reads what its predecessor wrote and the last layer is never kept
on chip.  Its per-layer records come from :func:`_dram_rows` when they
are first read, over the layers and the on-chip set the call captured,
not the plan.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from .arch import HardwareConfig
from .errors import CapacityFault, InvalidParameterError, PlanError
from .geometry import step_buffers

if TYPE_CHECKING:  # pragma: no cover
    from .netconfig import LayerSpec, NetworkDescription


# ---------------------------------------------------------------------------
# byte accounting
# ---------------------------------------------------------------------------

def _folded_param_bytes(out_channels: int, param_bytes: int) -> int:
    """A folded bias and a threshold per output channel."""
    return 2 * out_channels * param_bytes


# ---------------------------------------------------------------------------
# compute-layer view (pooling absorbed)
# ---------------------------------------------------------------------------

class ComputeLayer(NamedTuple):
    """A validated weighted layer (``spec``, shapes before pooling) and the
    map it hands on, ``out_shape``, with any following pooling absorbed.

    It carries the per-layer facts every traffic walk reads and no config
    changes: ``sign_bytes``, the packed sign bits, ``ceil(cout*cin*kh*kw /
    8)``; ``map_bytes``, one step of the bit-packed map it hands on,
    ``ceil(C*H*W / 8)``; and ``label``, the ledger's kind (``"conv+pool"``
    for a pooled conv).  :meth:`weight_bytes` adds the folded parameters.
    ``validate`` builds each record in its loop over the layers, with
    ``tuple.__new__`` rather than the generated ``__new__``: a ``maxpool2``
    rebuilds the previous record with its own map and a ``+pool`` label.
    Records are immutable because every walk of the network shares the one
    table.
    """

    index: int  # index in the original layer list
    spec: "LayerSpec"
    out_shape: tuple[int, int, int]
    sign_bytes: int
    map_bytes: int
    label: str

    def weight_bytes(self, param_bytes: int) -> int:
        """The sign bits plus a folded bias and a threshold per output channel."""
        return self.sign_bytes + _folded_param_bytes(self.spec.out_channels, param_bytes)


def compute_layers(net: "NetworkDescription") -> tuple[ComputeLayer, ...]:
    """The network's weighted layers with pooling absorbed: the table that
    :func:`vecspike.netconfig.validate` built.  A network that ``validate``
    did not return, an empty or a ``dataclasses.replace`` copy among them,
    has no table and raises :class:`PlanError`."""
    if not net.compute_layers:
        raise PlanError("network must be validated before planning")
    return net.compute_layers


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
        return sum(map(len, self.groups))

    @classmethod
    def unfused(cls, n_layers: int) -> "FusionPlan":
        return cls([(i,) for i in range(n_layers)])

    @classmethod
    def from_json(cls, text: str) -> "FusionPlan":
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as exc:  # bad syntax, long integers, deep nesting
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
    param_bytes = cfg.param_bytes
    weight_capacity = 2 * cfg.weight_sram_bytes
    temp_capacity = cfg.temp_sram_bytes
    groups: list[tuple[int, ...]] = []
    # the previous layer while it waits for a partner: its weight bytes,
    # or None, and whether its map fits the temp SRAM
    held, held_fits = None, False
    for pos, layer in enumerate(compute_layers(net)):
        weights = layer.weight_bytes(param_bytes)
        if held is not None and held_fits and held + weights <= weight_capacity:
            groups.append((pos - 1, pos))
            held = None
            continue
        if held is not None:
            groups.append((pos - 1,))
        held, held_fits = weights, layer.map_bytes <= temp_capacity
    if held is not None:
        groups.append((pos,))
    return FusionPlan(groups)


# ---------------------------------------------------------------------------
# traffic ledger
# ---------------------------------------------------------------------------

@dataclass(slots=True)
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


class TrafficLedger:
    """A plan's DRAM bytes: the totals that :func:`simulate_traffic` sums
    from the compute-layer table, ``layer_fusion`` (whether the plan keeps
    any map on chip) and the per-layer records.

    ``records`` is built from :func:`_dram_rows` the first time it is
    read, and kept.  The ledger holds the call's compute layers, on-chip
    positions, T and parameter width, not the :class:`FusionPlan` or the
    network, so editing either afterwards changes neither the totals nor
    the records.
    """

    __slots__ = ("layer_fusion", "weight_total", "input_total", "output_total",
                 "total_bytes", "_layers", "_on_chip", "_time_steps", "_param_bytes",
                 "_records")

    def __init__(self, layers: tuple[ComputeLayer, ...], on_chip: set[int],
                 time_steps: int, param_bytes: int,
                 weight_total: int, input_total: int, output_total: int):
        self._layers, self._on_chip = layers, on_chip
        self._time_steps, self._param_bytes = time_steps, param_bytes
        self._records = None
        self.layer_fusion = bool(on_chip)
        self.weight_total = weight_total
        self.input_total = input_total
        self.output_total = output_total
        self.total_bytes = weight_total + input_total + output_total

    @property
    def records(self) -> list[LayerTraffic]:
        """Per compute layer in order, its :class:`LayerTraffic`: the image
        crosses once and each map T times, as :func:`_dram_rows` states."""
        if self._records is None:
            time_steps, param_bytes = self._time_steps, self._param_bytes
            records = []
            for layer, image, in_map, out_map in _dram_rows(self._layers, self._on_chip):
                note = "8-bit image input" if image else "" if in_map else "input fused on chip"
                if not out_map:
                    note = (note + "; " if note else "") + "output fused on chip"
                records.append(LayerTraffic(
                    layer.index, layer.label, note, layer.weight_bytes(param_bytes),
                    image + in_map * time_steps, out_map * time_steps))
            self._records = records
        return self._records


def _plan_layers(
    net: "NetworkDescription", plan: FusionPlan, time_steps: int
) -> tuple[tuple[ComputeLayer, ...], set[int]]:
    """The network's compute layers and the positions whose output map a
    fused pair keeps on chip, from one walk of the plan's groups; raises
    unless T >= 1 and ``plan`` covers each layer.  A pair's on-chip
    position is the count of layers the groups before it cover, its first
    index in every plan :class:`FusionPlan` admits, so the last layer is
    never on chip."""
    if time_steps < 1:
        raise InvalidParameterError("time_steps must be >= 1")
    layers = compute_layers(net)
    covered, on_chip = 0, set()
    for group in plan.groups:
        if len(group) == 2:
            on_chip.add(covered)
        covered += len(group)
    if covered != len(layers):
        raise PlanError(f"plan covers {covered} layers, network has {len(layers)}")
    return layers, on_chip


def _dram_rows(
    layers: tuple[ComputeLayer, ...], on_chip: set[int]
) -> Iterator[tuple[ComputeLayer, int, int, int]]:
    """Per compute layer in order, ``(layer, image, in_map, out_map)``: the
    bytes of the 8-bit image, read once by the first layer at full byte
    width, and of the bit-packed maps it reads and writes per time step.
    A layer reads the map its predecessor wrote; a fused pair's
    intermediate, a position in ``on_chip``, stays on chip and moves 0
    bytes.  The rows are generated as the caller's walk asks for them."""
    image, in_map = math.prod(layers[0].spec.in_shape), 0
    for pos, layer in enumerate(layers):
        out_map = 0 if pos in on_chip else layer.map_bytes
        yield layer, image, in_map, out_map
        image, in_map = 0, out_map


def simulate_traffic(
    net: "NetworkDescription",
    plan: FusionPlan,
    time_steps: int,
    cfg: HardwareConfig,
) -> TrafficLedger:
    """DRAM byte counts under a fusion plan: the totals, summed in one loop
    over the compute-layer table, and the per-layer records, built only
    when read (:class:`TrafficLedger`).

    Tick batching is the only mode: all T steps of a layer run in one
    visit, so its weights cross DRAM once whatever T is.  The image
    crosses once and each map T times, as :func:`_dram_rows` states, so
    the totals are three identities over the table:

    * weights: the summed ``sign_bytes`` plus :func:`_folded_param_bytes`
      of the summed output channels;
    * outputs: T x the ``map_bytes`` of every layer not kept on chip;
    * inputs: the image, plus the outputs, less T x the last layer's map,
      since each layer reads what its predecessor wrote and the last layer
      is never kept on chip.
    """
    layers, on_chip = _plan_layers(net, plan, time_steps)
    signs = channels = maps = 0
    for pos, layer in enumerate(layers):
        signs += layer.sign_bytes
        channels += layer.spec.out_channels
        if pos not in on_chip:
            maps += layer.map_bytes
    param_bytes = cfg.param_bytes
    outputs = maps * time_steps
    inputs = math.prod(layers[0].spec.in_shape) + outputs - layers[-1].map_bytes * time_steps
    return TrafficLedger(layers, on_chip, time_steps, param_bytes,
                         signs + _folded_param_bytes(channels, param_bytes), inputs, outputs)


def fusion_savings(
    net: "NetworkDescription", plan: FusionPlan, time_steps: int
) -> int:
    """The identity value: sum of 2 x (intermediate map bytes) over pairs."""
    layers, on_chip = _plan_layers(net, plan, time_steps)
    return 2 * time_steps * sum(layers[pos].map_bytes for pos in on_chip)


# ---------------------------------------------------------------------------
# buffer model and ping-pong schedule
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class BufferModel:
    """One on-chip buffer: capacity, occupancy and access counters.

    Every access is one :meth:`write`: a weight load is a write alone, and
    a map or slice staged on its way through the buffer is a write that
    is then read once (``reads=1``).
    """

    name: str
    capacity: int
    occupancy: int = 0
    peak: int = 0
    reads: int = 0
    writes: int = 0

    def write(self, nbytes: int, reads: int = 0, times: int = 1):
        """Hold ``nbytes`` until the next write and count ``reads`` reads of
        them, ``times`` times over: the buffer ends as after that many
        single writes, and ``times=0`` changes nothing.  A write that does
        not fit raises before it changes anything, whatever ``times`` is."""
        if nbytes > self.capacity:
            raise CapacityFault(
                f"{self.name}: {nbytes} bytes exceed capacity {self.capacity}"
            )
        if times:
            self.occupancy = nbytes
            if nbytes > self.peak:
                self.peak = nbytes
            self.writes += times
            self.reads += reads * times


@dataclass(slots=True)
class TraceEvent:
    step: int
    layer_index: int
    buffer: str
    op: str          # "write" | "read"
    nbytes: int
    tag: tuple       # (producer layer position, step) identity of the data


def _event(step: int, entry: tuple) -> TraceEvent:
    """The event of a template entry, ``(layer position, buffer, op,
    nbytes, tag)``, at ``step``: a buffer of ``None`` is the step's spike
    half, and an ``("input", producer)`` tag gets the step's number."""
    pos, buffer, op, nbytes, tag = entry
    if buffer is None:
        buffer = "spike1" if step % 2 else "spike0"
    if tag[0] == "input":
        tag += (step,)
    return TraceEvent(step, pos, buffer, op, nbytes, tag)


class TraceEvents:
    """The trace's events: an iterable with a length, generated in walk
    order as it is walked, and not indexed.

    Each group visit is its weight loads (step -1) and its runs of steps,
    ``(template, first step, count)``: the steps of a run differ only in
    their step numbers and spike halves.  The length is the count
    :func:`pingpong_schedule` summed while it built the templates; each
    walk builds every :class:`TraceEvent` afresh.
    """

    __slots__ = ("_visits", "_len")

    def __init__(self, visits: list[tuple[tuple, list]], count: int):
        self._visits = visits
        self._len = count

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[TraceEvent]:
        for loads, runs in self._visits:
            for entry in loads:
                yield _event(-1, entry)
            for template, start, count in runs:
                for step in range(start, start + count):
                    for entry in template:
                        yield _event(step, entry)


@dataclass
class BufferTrace:
    events: TraceEvents
    buffers: dict[str, BufferModel]


def _stage_run(group, step_rows, in_bytes: int, in_tag: tuple, start: int, count: int,
               spike0, spike1, membrane1, temp, boundary) -> tuple:
    """Stage a run of ``count`` steps of a group visit from step
    ``start``, which stage the same bytes, with one counted write per
    stage and spike half, as :func:`pingpong_schedule` states; return the
    run's event template."""
    first, second = (spike1, spike0) if start % 2 else (spike0, spike1)
    on_first, on_second = (count + 1) // 2, count // 2
    events = []
    if in_bytes:
        first.write(in_bytes, 1, on_first)
        second.write(in_bytes, 1, on_second)
        events += [(group[0], None, "write", in_bytes, in_tag),
                   (group[0], None, "read", in_bytes, in_tag)]
    for slot, pos, membrane, charge, encoding, edge, fused, column, out_map in step_rows:
        membrane.write(charge, 1, count)
        if encoding:  # it parks its conv-result strip in the second membrane
            membrane1.write(charge, 1, count)
        if edge:
            boundary.write(edge, 1, count)
        out_tag = ("input", pos)
        if not out_map:
            # fused intermediate: the whole per-step map parks in temp
            # SRAM and feeds the second layer directly
            temp.write(fused, 1, count)
            events += [(pos, "temp", "write", fused, out_tag),
                       (pos, "temp", "read", fused, out_tag)]
            continue
        if slot:
            # the pair's output replaces the consumed entries of the first
            # layer's input buffer on its way off chip
            first.write(max(in_bytes, out_map), 1, on_first)
            second.write(max(in_bytes, out_map), 1, on_second)
            events += [(pos, None, "write", out_map, out_tag),
                       (pos, None, "read", out_map, out_tag)]
        else:
            # standalone output streams through temp a column at a time
            temp.write(column, 1, count)
        events.append((pos, "dram", "write", out_map, out_tag))
    return tuple(events)


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
    as in :func:`simulate_traffic`.  A group visit takes each layer's row
    and, in the same loop, its weight load and its step row:
    :func:`vecspike.geometry.step_buffers` charges, encoding flag, fused
    temp bytes, column bytes (one output column, ``ceil(C*H / 8)``) and
    DRAM map.  Every buffer use but the
    weight load is a stage, a write read once.  Maps staged in the spike
    and temp buffers are traced as a write and a read event; membrane and
    boundary slices are counted, not traced.  A DRAM write is an event
    only.  A capacity violation raises a fault.  No map is read before its
    DRAM write: :class:`FusionPlan` admits only in-order groups of one or
    two layers, so a group's predecessor wrote its map.

    Only step 0 of the first group stages the static 8-bit image, and the
    other steps of a visit stage the same bytes: only the spike half
    alternates, and both halves have one capacity.  So a visit's steps
    fall into at most two runs, step 0 with the image and the steps
    without it.  A run builds its step template once and writes each
    stage with a count: a spike stage on the half of the run's first step
    for the run's steps of that parity, then on the other half for the
    rest, and any other stage for every step of the run.  A stage that
    does not fit raises at the run's first step, at the stage and with
    the text of a stepwise walk, and a counted write leaves a buffer as
    that many single writes do.  The events are a :class:`TraceEvents`
    over the runs' templates, and their count, summed here as each
    template is built, is its length: nothing is walked to build it.
    """
    if plan is None:
        plan = FusionPlan.unfused(len(compute_layers(net)))
    rows = _dram_rows(*_plan_layers(net, plan, time_steps))

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
    visits, events = [], 0

    for group in plan.groups:
        # the plan's groups cover the layers in order, so each group takes
        # the next rows; the first layer's row gives the group's input
        loads, step_rows, signs = [], [], 0
        for slot, pos in enumerate(group):
            layer, layer_image, layer_in_map, out_map = next(rows)
            if not slot:
                image, in_map = layer_image, layer_in_map
            signs += layer.sign_bytes
            loads.append((pos, "weight", "write", layer.sign_bytes, ("weights", pos)))
            charge, edge = step_buffers(layer.spec, cfg)
            out_c, out_h, _ = layer.out_shape
            step_rows.append((
                slot, pos, membrane1 if slot else membrane0, charge,
                layer.spec.kind == "encoding-conv", edge,
                layer.map_bytes, -(-out_c * out_h // 8), out_map,
            ))
        weight.write(signs)
        events += len(loads)
        in_tag = ("image",) if image else ("input", group[0] - 1)
        # the static 8-bit image is staged once; the encoding layer then
        # iterates its parked convolution from the second membrane
        if image:
            runs = [(image + in_map, 0, 1), (in_map, 1, time_steps - 1)]
        else:
            runs = [(in_map, 0, time_steps)]
        templates = []
        for in_bytes, start, count in runs:
            if count:
                template = _stage_run(group, step_rows, in_bytes, in_tag, start, count,
                                      spike0, spike1, membrane1, temp, boundary)
                templates.append((template, start, count))
                events += len(template) * count
        visits.append((tuple(loads), templates))
    return BufferTrace(TraceEvents(visits, events), buffers)
