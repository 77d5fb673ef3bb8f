import json
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import fusion_plans, random_network_text
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
    spike_map_bytes,
    weight_bytes,
)
from vecspike.netconfig import NetworkDescription, parse_network, preset_network, validate

CFG = HardwareConfig()


# ---------------------------------------------------------------------------
# byte accounting
# ---------------------------------------------------------------------------

def test_spike_map_bytes():
    assert spike_map_bytes(1, 1, 8, 1) == 1
    assert spike_map_bytes(128, 32, 32, 8) == 131072
    assert spike_map_bytes(10, 1, 1, 8) == 16  # ceil(10/8) = 2 per step


def test_weight_bytes():
    assert weight_bytes(1, 1, 1, 1, param_bytes=3) == 1 + 6
    assert weight_bytes(64, 64, 3, 3, param_bytes=3) == 4608 + 64 * 6


# ---------------------------------------------------------------------------
# compute-layer view and fusion planning
# ---------------------------------------------------------------------------

def test_compute_layers_absorb_pooling():
    net, _ = preset_network("mnist")
    layers = compute_layers(net)
    assert [l.spec.kind for l in layers] == ["encoding-conv", "conv", "fc", "fc"]
    assert layers[0].pooled and layers[1].pooled
    assert layers[0].out_shape == (64, 14, 14)
    assert layers[1].out_shape == (64, 7, 7)
    assert layers[2].spec.weight_shape == (128, 64 * 7 * 7, 1, 1)


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


def test_plan_json_round_trip(tmp_path):
    plan = FusionPlan([(0, 1), (2,)])
    path = tmp_path / "plan.json"
    path.write_text(plan.to_json())
    assert FusionPlan.from_json_file(path).groups == plan.groups
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    with pytest.raises(PlanError):
        FusionPlan.from_json_file(bad)


# ---------------------------------------------------------------------------
# traffic ledger
# ---------------------------------------------------------------------------

def test_single_layer_totals():
    net = validate(parse_network("4Conv(encoding)"), (1, 6, 6))
    ledger = simulate_traffic(net, FusionPlan.unfused(1), 8, CFG)
    rec = ledger.records[0]
    assert rec.weight_bytes_read == weight_bytes(4, 1, 3, 3, CFG.param_bytes)
    assert rec.input_spike_bytes_read == 36  # 8-bit image, read once
    assert rec.output_spike_bytes_written == spike_map_bytes(4, 6, 6, 8)
    assert ledger.total_bytes == rec.total


def test_fused_pair_saving_is_twice_the_intermediate():
    net = validate(parse_network("4Conv(encoding)-4Conv"), (1, 6, 6))
    unfused = simulate_traffic(net, FusionPlan.unfused(2), 8, CFG)
    fused = simulate_traffic(net, FusionPlan([(0, 1)]), 8, CFG)
    intermediate = spike_map_bytes(4, 6, 6, 8)
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


def test_walks_refuse_a_network_with_no_layers():
    # an empty layer list passed is_annotated, and simulate_traffic
    # returned an empty ledger; validate() refuses the same network
    net = NetworkDescription([], 8)
    plan = FusionPlan([])
    walks = [
        lambda: compute_layers(net),
        lambda: plan_fusion(net, CFG),
        lambda: simulate_traffic(net, plan, 2, CFG),
        lambda: pingpong_schedule(net, 2, CFG, plan),
        lambda: pingpong_schedule(net, 2, CFG),
        lambda: fusion_savings(net, plan, 2),
    ]
    for walk in walks:
        with pytest.raises(PlanError, match="network has no layers"):
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
    assert buf.peak == 10
    with pytest.raises(CapacityFault):
        buf.write(11)


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
