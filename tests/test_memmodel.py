import dataclasses
import hashlib
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    fusion_plans,
    listed_build_compute_layers,
    listed_plan_fusion,
    listed_simulate_traffic,
    random_network_text,
    stepwise_pingpong,
)
from vecspike.arch import HardwareConfig
from vecspike.errors import CapacityFault, InvalidParameterError, PlanError
from vecspike.memmodel import (
    BufferModel,
    FusionPlan,
    compute_layers,
    fusion_savings,
    pingpong_schedule,
    plan_fusion,
    simulate_traffic,
)
from vecspike.netconfig import (
    PRESETS,
    NetworkDescription,
    network_to_string,
    parse_network,
    preset_network,
    validate,
)

CFG = HardwareConfig()


# ---------------------------------------------------------------------------
# byte accounting
# ---------------------------------------------------------------------------

def _table(text, input_shape):
    return compute_layers(validate(parse_network(text), input_shape))


def test_spike_map_bytes():
    # map_bytes is one step of the bit-packed map a layer hands on
    (layer,) = _table("1Conv(encoding)", (1, 1, 8))
    assert layer.map_bytes == 1
    (layer,) = _table("128Conv(encoding)", (1, 32, 32))
    assert 8 * layer.map_bytes == 131072
    _, layer = _table("1Conv(encoding)-10fc", (1, 1, 1))
    assert 8 * layer.map_bytes == 16  # ceil(10/8) = 2 per step


def test_weight_bytes():
    _, layer = _table("1Conv(encoding)-1fc", (1, 1, 1))
    assert layer.weight_bytes(param_bytes=3) == 1 + 6
    _, layer = _table("64Conv(encoding)-64Conv", (1, 3, 3))
    assert layer.weight_bytes(param_bytes=3) == 4608 + 64 * 6


HUGE = 2**60 + 1  # a float ceiling of HUGE / 8 drops the + 1


def test_byte_counts_are_exact_past_float_precision():
    conv, fc = _table(f"{HUGE}Conv(encoding)-10fc", (1, 4, 4))
    assert conv.map_bytes == 2**61 + 2  # 16 * HUGE bits per step
    assert conv.weight_bytes(param_bytes=3) == 9 * 2**57 + 2 + 6 * HUGE
    # the fc layer takes the flattened 16 * HUGE inputs
    assert fc.weight_bytes(param_bytes=3) == 20 * HUGE + 60


def test_the_table_and_the_trace_count_huge_layers_exactly():
    net = validate(parse_network(f"{HUGE}Conv(encoding)", 1), (1, 1, 1))
    (layer,) = compute_layers(net)
    assert (layer.sign_bytes, layer.map_bytes) == (9 * 2**57 + 2, 2**57 + 1)
    cfg = CFG.replace(weight_sram_bytes=2**62, temp_sram_bytes=2**62)
    trace = pingpong_schedule(net, 1, cfg)
    # one output column of HUGE channels, one row tall, staged in temp
    assert trace.buffers["temp"].peak == 2**57 + 1
    assert [e.nbytes for e in trace.events if e.buffer == "dram"] == [2**57 + 1]


# ---------------------------------------------------------------------------
# compute-layer view and fusion planning
# ---------------------------------------------------------------------------

def test_compute_layers_absorb_pooling():
    net, _ = preset_network("mnist")
    layers = compute_layers(net)
    assert [l.spec.kind for l in layers] == ["encoding-conv", "conv", "fc", "fc"]
    assert [l.label for l in layers] == ["encoding-conv+pool", "conv+pool", "fc", "fc"]
    assert layers[0].out_shape == (64, 14, 14)
    assert layers[1].out_shape == (64, 7, 7)
    assert layers[2].spec.weight_shape == (128, 64 * 7 * 7, 1, 1)


def test_one_table_per_network():
    # validate builds the compute-layer table once, and every walk of the
    # network reads that table and builds none: walks of a description
    # whose table carries other bytes and labels report those
    text, shape = PRESETS["mnist"]
    net = validate(parse_network(text), shape)
    table = compute_layers(net)
    plan = plan_fusion(net, CFG)
    fused = sum(len(group) == 2 for group in plan.groups)
    ledger, saving = simulate_traffic(net, plan, 8, CFG), fusion_savings(net, plan, 8)
    net.compute_layers = tuple(rec._replace(sign_bytes=rec.sign_bytes + 1,
                                            map_bytes=rec.map_bytes + 1, label="x")
                               for rec in table)
    assert compute_layers(net) is net.compute_layers
    other = simulate_traffic(net, plan, 8, CFG)
    assert [r.kind for r in other.records] == ["x"] * len(table)
    assert other.weight_total == ledger.weight_total + len(table)
    assert fusion_savings(net, plan, 8) == saving + 2 * 8 * fused
    loads = [e.nbytes for e in pingpong_schedule(net, 8, CFG, plan).events if e.step < 0]
    assert loads == [rec.sign_bytes + 1 for rec in table]


def test_compute_layer_records_are_frozen():
    # AttributeError is the base class of dataclasses.FrozenInstanceError
    net, _ = preset_network("mnist")
    table = compute_layers(net)
    assert isinstance(table, tuple)
    with pytest.raises(AttributeError):
        table[0].out_shape = (1, 1, 1)
    with pytest.raises(AttributeError):
        table[0].map_bytes = 0


def test_planning_leaves_the_description_unchanged():
    net, shape = preset_network("mnist")
    text, shown = network_to_string(net), repr(net)
    plan = plan_fusion(net, CFG)
    simulate_traffic(net, plan, 8, CFG)
    pingpong_schedule(net, 8, CFG, plan)
    assert net == validate(parse_network(text, net.time_steps), shape)
    assert (network_to_string(net), repr(net)) == (text, shown)


def test_plan_single_layer_net():
    net = validate(parse_network("4Conv(encoding)"), (1, 6, 6))
    plan = plan_fusion(net, CFG)
    assert plan.groups == [(0,)]


def test_plan_small_pair_fuses():
    net = validate(parse_network("4Conv(encoding)-4Conv"), (1, 6, 6))
    plan = plan_fusion(net, CFG)
    assert plan.groups == [(0, 1)]


def test_plan_rejects_oversized_pairs():
    # one step of the intermediate map must fit the temp SRAM
    tiny_temp = CFG.replace(temp_sram_bytes=8)
    net = validate(parse_network("4Conv(encoding)-4Conv"), (1, 10, 10))
    plan = plan_fusion(net, tiny_temp)
    assert plan.groups == [(0,), (1,)]


def test_plan_validation():
    with pytest.raises(PlanError):
        FusionPlan([(0,), (2,)])  # gap
    with pytest.raises(PlanError):
        FusionPlan([(1, 0)])  # out of order
    with pytest.raises(PlanError):
        FusionPlan([(0, 1, 2)])  # too large


def test_plan_json_round_trip():
    plan = FusionPlan([(0, 1), (2,)])
    assert FusionPlan.from_json(plan.to_json()).groups == plan.groups
    for bad in ("{}", "[[0]"):
        with pytest.raises(PlanError):
            FusionPlan.from_json(bad)


# ---------------------------------------------------------------------------
# traffic ledger
# ---------------------------------------------------------------------------

def test_single_layer_totals():
    net = validate(parse_network("4Conv(encoding)"), (1, 6, 6))
    ledger = simulate_traffic(net, FusionPlan.unfused(1), 8, CFG)
    rec = ledger.records[0]
    assert rec.weight_bytes_read == 5 + 2 * 4 * CFG.param_bytes  # ceil(36/8) signs
    assert rec.input_spike_bytes_read == 36  # 8-bit image, read once
    assert rec.output_spike_bytes_written == 8 * 18  # 4*6*6 bits, 8 steps
    assert ledger.total_bytes == rec.total


def test_fused_pair_saving_is_twice_the_intermediate():
    net = validate(parse_network("4Conv(encoding)-4Conv"), (1, 6, 6))
    unfused = simulate_traffic(net, FusionPlan.unfused(2), 8, CFG)
    fused = simulate_traffic(net, FusionPlan([(0, 1)]), 8, CFG)
    intermediate = 8 * 18  # 4*6*6 bits, 8 steps
    assert unfused.total_bytes - fused.total_bytes == 2 * intermediate
    assert fusion_savings(net, FusionPlan([(0, 1)]), 8) == 2 * intermediate
    # fused boundary: no write from the producer, no read by the consumer
    assert fused.records[0].output_spike_bytes_written == 0
    assert fused.records[1].input_spike_bytes_read == 0


def test_savings_identity_on_presets():
    for name in ("mnist", "cifar10"):
        net, _ = preset_network(name)
        layers = compute_layers(net)
        plan = plan_fusion(net, CFG)
        unfused = simulate_traffic(net, FusionPlan.unfused(len(layers)), 8, CFG)
        fused = simulate_traffic(net, plan, 8, CFG)
        assert unfused.total_bytes - fused.total_bytes == fusion_savings(net, plan, 8)


def test_weight_bytes_counted_once_regardless_of_t():
    net, _ = preset_network("mnist")
    layers = compute_layers(net)
    plan = FusionPlan.unfused(len(layers))
    for steps in (1, 4, 8):
        ledger = simulate_traffic(net, plan, steps, CFG)
        assert ledger.weight_total == simulate_traffic(net, plan, 1, CFG).weight_total


def test_traffic_monotonic_in_t():
    net, _ = preset_network("mnist")
    layers = compute_layers(net)
    plan = FusionPlan.unfused(len(layers))
    previous = None
    for steps in (1, 2, 4, 8):
        ledger = simulate_traffic(net, plan, steps, CFG)
        if previous is not None:
            for old, new in zip(previous.records, ledger.records):
                assert new.input_spike_bytes_read >= old.input_spike_bytes_read
                assert new.output_spike_bytes_written >= old.output_spike_bytes_written
                assert new.weight_bytes_read == old.weight_bytes_read
        previous = ledger


def test_plan_network_mismatch():
    # mnist has 4 compute layers; each plan covers fewer or more, and every
    # function that walks a plan refuses it with the same message
    net, _ = preset_network("mnist")
    plans = [
        FusionPlan.unfused(2),
        FusionPlan([(0, 1)]),
        FusionPlan([(0,), (1,), (2,), (3, 4)]),
        FusionPlan([(0,), (1,), (2,), (3,), (4, 5)]),
    ]
    walks = [
        lambda plan: simulate_traffic(net, plan, 8, CFG),
        lambda plan: pingpong_schedule(net, 8, CFG, plan),
        lambda plan: fusion_savings(net, plan, 8),
    ]
    for plan in plans:
        message = f"plan covers {plan.layer_count} layers, network has 4"
        for walk in walks:
            with pytest.raises(PlanError, match=message):
                walk(plan)


def _walks(net, plan):
    """Every memory-model entry point that reads the compute-layer table."""
    return [
        lambda: compute_layers(net),
        lambda: plan_fusion(net, CFG),
        lambda: simulate_traffic(net, plan, 2, CFG),
        lambda: pingpong_schedule(net, 2, CFG, plan),
        lambda: pingpong_schedule(net, 2, CFG),
        lambda: fusion_savings(net, plan, 2),
    ]


def test_walks_refuse_a_network_with_no_layers():
    # validate() refuses an empty network, so it has no table to walk
    for walk in _walks(NetworkDescription([], 8), FusionPlan([])):
        with pytest.raises(PlanError, match="network must be validated before planning"):
            walk()


def test_walks_refuse_an_unvalidated_network():
    # only validate() writes the table: a parsed network has none, nor has
    # a replace() copy of a validated one, so no walk plans either
    text, shape = PRESETS["mnist"]
    validated = validate(parse_network(text), shape)
    plan = plan_fusion(validated, CFG)
    for net in (parse_network(text), dataclasses.replace(validated)):
        for walk in _walks(net, plan):
            with pytest.raises(PlanError, match="network must be validated before planning"):
                walk()


@pytest.mark.parametrize("time_steps", [0, -2])
def test_walks_refuse_time_steps_below_one(time_steps):
    # every function that walks a plan refuses T < 1 with the same message
    net, _ = preset_network("mnist")
    plan = plan_fusion(net, CFG)
    walks = [
        lambda: simulate_traffic(net, plan, time_steps, CFG),
        lambda: pingpong_schedule(net, time_steps, CFG, plan),
        lambda: fusion_savings(net, plan, time_steps),
    ]
    for walk in walks:
        with pytest.raises(InvalidParameterError, match="time_steps must be >= 1"):
            walk()


# ---------------------------------------------------------------------------
# buffers and ping-pong schedule
# ---------------------------------------------------------------------------

def test_buffer_capacity_fault():
    buf = BufferModel("b", capacity=10)
    buf.write(10)
    buf.write(4, reads=1)  # a stage: a write read once
    assert (buf.occupancy, buf.peak, buf.reads, buf.writes) == (4, 10, 1, 2)
    # a write or stage that does not fit faults before it changes anything
    for reads in (0, 1):
        with pytest.raises(CapacityFault, match="b: 11 bytes exceed capacity 10"):
            buf.write(11, reads=reads)
        assert (buf.occupancy, buf.peak, buf.reads, buf.writes) == (4, 10, 1, 2)


@pytest.mark.parametrize("times", [0, 1, 3])
def test_counted_write_equals_single_writes(times):
    counted, single = BufferModel("b", capacity=10), BufferModel("b", capacity=10)
    for buf in (counted, single):
        buf.write(9)
    counted.write(6, reads=1, times=times)
    for _ in range(times):
        single.write(6, reads=1)
    stats = (single.occupancy, single.peak, single.reads, single.writes)
    assert (counted.occupancy, counted.peak, counted.reads, counted.writes) == stats
    if not times:
        assert stats == (9, 9, 0, 1)  # times=0 changes nothing


@pytest.mark.parametrize("times", [0, 1, 5])
def test_an_oversized_counted_write_faults_before_any_change(times):
    buf = BufferModel("b", capacity=10)
    buf.write(4, reads=1)
    with pytest.raises(CapacityFault, match="b: 11 bytes exceed capacity 10"):
        buf.write(11, reads=1, times=times)
    assert (buf.occupancy, buf.peak, buf.reads, buf.writes) == (4, 4, 1, 1)


@pytest.mark.parametrize("time_steps", [1, 2, 3, 8])
def test_the_events_count_and_walk_the_same_list_twice(time_steps):
    # readers take the length and walk the events in order; none indexes
    net, _ = preset_network("mnist", time_steps)
    events = pingpong_schedule(net, time_steps, CFG, plan_fusion(net, CFG)).events
    listed = list(events)
    assert len(events) == len(listed)
    assert list(events) == listed


def _schedule_outcome(schedule, net, time_steps, cfg, plan):
    """A schedule's fault text, or its events, their count and every
    buffer's (peak, reads, writes, occupancy)."""
    try:
        trace = schedule(net, time_steps, cfg, plan)
    except CapacityFault as fault:
        return str(fault)
    stats = {name: (b.peak, b.reads, b.writes, b.occupancy) for name, b in trace.buffers.items()}
    return list(trace.events), len(trace.events), stats


@pytest.mark.parametrize("preset", ["mnist", "cifar10"])
@pytest.mark.parametrize("time_steps", [2, 3])
@pytest.mark.parametrize("greedy", [False, True])
def test_the_schedule_walks_presets_as_the_stepwise_walk(preset, time_steps, greedy):
    # T's parity decides which spike half holds the last write
    net, _ = preset_network(preset, time_steps)
    plan = plan_fusion(net, CFG) if greedy else None
    mine = _schedule_outcome(pingpong_schedule, net, time_steps, CFG, plan)
    assert mine == _schedule_outcome(stepwise_pingpong, net, time_steps, CFG, plan)
    assert not isinstance(mine, str)


@settings(max_examples=40, deadline=None)
@given(
    net_seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from((0.25, 0.5, 1.0, 2.0)),
    time_steps=st.integers(1, 9),
)
def test_the_schedule_walks_as_the_stepwise_walk(net_seed, scale, time_steps):
    # each run of equal steps staged once with counted writes: the same
    # fault text, or the same events and buffer statistics, as staging
    # every step
    text, shape = random_network_text(random.Random(net_seed))
    net = validate(parse_network(text, time_steps), shape)
    cfg = CFG.replace(**{f: int(getattr(CFG, f) * scale) for f in SRAM_FIELDS})
    for groups in fusion_plans(len(compute_layers(net))):
        plan = FusionPlan(list(groups))
        assert (_schedule_outcome(pingpong_schedule, net, time_steps, cfg, plan)
                == _schedule_outcome(stepwise_pingpong, net, time_steps, cfg, plan))


@st.composite
def pooled_network_texts(draw):
    """A network whose weighted layers may each be followed by several
    ``MP2`` layers, down to a 1x1 map, with its input shape."""
    size = draw(st.sampled_from((4, 8, 16, 32)))
    shape = (draw(st.sampled_from((1, 3))), size, size)
    tokens = [f"{draw(st.integers(1, 64))}Conv(encoding)"]
    for kind in draw(st.lists(st.sampled_from(("Conv", "fc")), max_size=4)):
        for _ in range(draw(st.integers(0, 3))):
            if size % 2 == 0:
                tokens.append("MP2")
                size //= 2
        if kind == "fc":
            size = 1
        tokens.append(f"{draw(st.integers(1, 64))}{kind}")
    return "-".join(tokens), shape


network_texts = (
    st.integers(0, 2**32 - 1).map(lambda seed: random_network_text(random.Random(seed)))
    | pooled_network_texts()
)


@settings(max_examples=40, deadline=None)
@given(
    source=network_texts,
    total_bits=st.integers(6, 39),
    scale=st.floats(0.25, 2.0),
    time_steps=st.integers(1, 9),
)
def test_the_one_pass_walks_equal_the_listed_walks(source, total_bits, scale, time_steps):
    # parameters of 1 to 5 bytes; the table, the planner and the ledger of
    # every plan as the separate passes of conftest compute them
    text, shape = source
    net = validate(parse_network(text, time_steps), shape)
    cfg = CFG.replace(total_bits=total_bits, frac_bits=min(8, total_bits - 1),
                      **{f: int(getattr(CFG, f) * scale) for f in SRAM_FIELDS})
    assert net.compute_layers == listed_build_compute_layers(net.layers)
    assert plan_fusion(net, cfg) == listed_plan_fusion(net, cfg)
    plans = fusion_plans(len(compute_layers(net)))
    for k, groups in enumerate(plans):
        plan = FusionPlan(list(groups))
        listed = listed_simulate_traffic(net, plan, time_steps, cfg)
        ledger = simulate_traffic(net, plan, time_steps, cfg)
        totals = (ledger.layer_fusion, ledger.weight_total, ledger.input_total,
                  ledger.output_total, ledger.total_bytes)
        # the ledger keeps the call's plan: an edit before the records'
        # first read changes neither them nor the totals
        plan.groups[:] = plans[k - 1]
        records = ledger.records
        assert (records, *totals) == listed
        assert ledger.records == list(records)
        assert (ledger.layer_fusion, ledger.weight_total, ledger.input_total,
                ledger.output_total, ledger.total_bytes) == totals
        # the totals are the records' sums, and fusion is a record that
        # writes no output
        assert totals == (
            any(not r.output_spike_bytes_written for r in records),
            sum(r.weight_bytes_read for r in records),
            sum(r.input_spike_bytes_read for r in records),
            sum(r.output_spike_bytes_written for r in records),
            sum(r.total for r in records),
        )


def test_pingpong_alternates_spike_buffers():
    net = validate(parse_network("4Conv(encoding)-4Conv"), (1, 6, 6))
    trace = pingpong_schedule(net, 2, CFG)
    # the spiking layer's input maps alternate across the two buffers
    writes = [
        e for e in trace.events
        if e.layer_index == 1 and e.op == "write" and e.buffer.startswith("spike")
    ]
    assert [e.buffer for e in writes] == ["spike0", "spike1"]


def test_pingpong_fused_intermediate_never_hits_dram():
    net = validate(parse_network("4Conv(encoding)-4Conv"), (1, 6, 6))
    trace = pingpong_schedule(net, 4, CFG, FusionPlan([(0, 1)]))
    dram_tags = {e.tag for e in trace.events if e.buffer == "dram"}
    assert all(tag[1] == 1 for tag in dram_tags)  # only the second layer's maps


def test_pingpong_mnist_runs_clean_at_default_capacities():
    net, _ = preset_network("mnist")
    trace = pingpong_schedule(net, 8, CFG)
    for buf in trace.buffers.values():
        assert buf.peak <= buf.capacity
    # fused plan stays clean too
    pingpong_schedule(net, 8, CFG, plan_fusion(net, CFG))


def test_pingpong_dram_conservation():
    # every DRAM spike-map write is read at most once, by its consumer
    net, _ = preset_network("mnist")
    trace = pingpong_schedule(net, 8, CFG)
    written = [e.tag for e in trace.events if e.buffer == "dram" and e.op == "write"]
    assert len(written) == len(set(written))
    reads = [
        e for e in trace.events if e.buffer.startswith("spike") and e.op == "read"
    ]
    read_tags = [e.tag for e in reads if e.tag[0] == "input"]
    assert len(read_tags) == len(set(read_tags))


def test_pingpong_capacity_fault_on_small_spike_sram():
    net, _ = preset_network("mnist")
    with pytest.raises(CapacityFault):
        pingpong_schedule(net, 8, CFG.replace(spike_sram_bytes=64))


def test_pingpong_capacity_fault_on_small_weight_sram():
    net, _ = preset_network("mnist")
    with pytest.raises(CapacityFault):
        pingpong_schedule(net, 8, CFG.replace(weight_sram_bytes=1024))


def test_first_fault_follows_the_stage_order():
    # weights load first; each step then stages the input map, the membrane
    # strip, the boundary rows and the output, so the first buffer too
    # small is the one named
    net = validate(parse_network("4Conv(encoding)-4Conv", 2), (1, 10, 10))
    cfg = CFG.replace(**{f: 0 for f in SRAM_FIELDS})
    for field, name in [("weight_sram_bytes", "weight"), ("spike_sram_bytes", "spike0"),
                        ("membrane_sram_bytes", "membrane0"),
                        ("boundary_sram_bytes", "boundary"), ("temp_sram_bytes", "temp")]:
        with pytest.raises(CapacityFault, match=f"^{name}: "):
            pingpong_schedule(net, 2, cfg)
        cfg = cfg.replace(**{field: getattr(CFG, field)})
    pingpong_schedule(net, 2, cfg)


def test_membranes_hold_a_strip_of_the_conv_output_before_pooling():
    # the IF unit integrates the 4x8x8 conv output, not the pooled 4x4x4
    # map: 8 rows x 8 columns x 3 bytes per strip
    net = validate(parse_network("4Conv(encoding)-MP2-4Conv", 2), (1, 8, 8))
    buffers = pingpong_schedule(net, 2, CFG).buffers
    assert buffers["membrane0"].peak == buffers["membrane1"].peak == 192
    with pytest.raises(CapacityFault, match="membrane0: 192 bytes exceed capacity 100"):
        pingpong_schedule(net, 2, CFG.replace(membrane_sram_bytes=100))


# ---------------------------------------------------------------------------
# the trace's DRAM bytes against the ledger, over random networks
# ---------------------------------------------------------------------------

SRAM_FIELDS = (
    "spike_sram_bytes",
    "weight_sram_bytes",
    "membrane_sram_bytes",
    "temp_sram_bytes",
    "boundary_sram_bytes",
)


@given(
    net_seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from((0.5, 1.0, 2.0)),
    time_steps=st.sampled_from((1, 4, 8)),
)
def test_pingpong_dram_bytes_equal_the_ledger(net_seed, scale, time_steps):
    text, shape = random_network_text(random.Random(net_seed))
    net = validate(parse_network(text, time_steps), shape)
    cfg = CFG.replace(**{f: int(getattr(CFG, f) * scale) for f in SRAM_FIELDS})
    layers = compute_layers(net)
    for groups in fusion_plans(len(layers)):
        plan = FusionPlan(list(groups))
        ledger = simulate_traffic(net, plan, time_steps, cfg)
        try:
            events = pingpong_schedule(net, time_steps, cfg, plan).events
        except CapacityFault:
            continue
        for pos, (layer, rec) in enumerate(zip(layers, ledger.records)):
            mine = [e for e in events if e.layer_index == pos]
            assert sum(
                e.nbytes for e in mine if e.buffer == "dram"
            ) == rec.output_spike_bytes_written
            assert sum(
                e.nbytes for e in mine
                if e.buffer.startswith("spike") and e.op == "write"
                and (e.tag == ("image",) or e.tag[:2] == ("input", pos - 1))
            ) == rec.input_spike_bytes_read
            params = 2 * layer.spec.out_channels * cfg.param_bytes
            assert sum(
                e.nbytes for e in mine if e.buffer == "weight"
            ) == rec.weight_bytes_read - params
        # a later layer stages an earlier layer's map only after its DRAM write
        in_dram = set()
        for e in events:
            if e.buffer == "dram":
                in_dram.add(e.tag)
            elif (e.buffer.startswith("spike") and e.op == "write"
                  and e.tag[0] == "input" and e.layer_index > e.tag[1]):
                assert e.tag in in_dram


# sha256 over a seeded sweep of the traffic path: random networks x SRAM
# scales x every fusion plan x T in {1, 8}.  Per network, scale and T it
# takes the greedy plan's groups; per plan, every ledger record, every
# ping-pong trace event and each buffer's statistics, or the capacity
# fault's message.  Where TRACE_SHA256 and BUFFER_STATS_SHA256 cover the
# two presets, this covers faults, tiny SRAMs and every plan shape.
SWEEP_SHA256 = "27ba143d522a09257bad468bf1fca53560f9c6f4cd942263af94dd7c092acb43"


def test_golden_traffic_sweep():
    rng = random.Random(26)
    digest = hashlib.sha256()
    for _ in range(4):
        text, shape = random_network_text(rng)
        for scale in (0.5, 1.0, 2.0):
            cfg = CFG.replace(**{f: int(getattr(CFG, f) * scale) for f in SRAM_FIELDS})
            for steps in (1, 8):
                net = validate(parse_network(text, steps), shape)
                digest.update(repr(plan_fusion(net, cfg).groups).encode())
                for groups in fusion_plans(len(compute_layers(net))):
                    plan = FusionPlan(list(groups))
                    ledger = simulate_traffic(net, plan, steps, cfg)
                    digest.update(repr(ledger.layer_fusion).encode())
                    for r in ledger.records:
                        fields = (r.layer_index, r.kind, r.note, r.weight_bytes_read,
                                  r.input_spike_bytes_read, r.output_spike_bytes_written)
                        digest.update(repr(fields).encode())
                    try:
                        trace = pingpong_schedule(net, steps, cfg, plan)
                    except CapacityFault as fault:
                        digest.update(str(fault).encode())
                        continue
                    for e in trace.events:
                        fields = (e.step, e.layer_index, e.buffer, e.op, e.nbytes, e.tag)
                        digest.update(repr(fields).encode())
                    for b in trace.buffers.values():
                        fields = (b.name, b.peak, b.reads, b.writes, b.occupancy)
                        digest.update(repr(fields).encode())
    assert digest.hexdigest() == SWEEP_SHA256
