"""Acceptance suite: one test per criterion, tolerances pinned.

Each test prints a PASS line on success (run with -s or -rA to see them);
a failing criterion shows up as a normal pytest failure.
"""

import json
import time

import numpy as np
import pytest

from conftest import random_network, step_boundary, stitching_ledger
from vecspike import cli
from vecspike.arch import HardwareConfig, peak_gops
from vecspike.core import (
    BinaryWeightTensor,
    BNParams,
    conv2d_oracle,
    fold_bn,
    if_step,
    run_network_oracle,
    spikes_eq3_oracle,
)
from vecspike.dataflow import (
    run_network,
    schedule_conv_layer,
    schedule_encoding_layer,
    stage_weights,
)
from vecspike.fixedpoint import DEFAULT_FORMAT
from vecspike.geometry import conv_layer_report
from vecspike.memmodel import (
    FusionPlan,
    compute_layers,
    fusion_savings,
    simulate_traffic,
)
from vecspike.netconfig import generate_random_bundle, preset_network
from vecspike.pipeline import stream_conv_columns

CFG = HardwareConfig()
FMT = DEFAULT_FORMAT


def _announce(number, name):
    print(f"\nACCEPTANCE {number} {name}: PASS")


# ---------------------------------------------------------------------------
# 1. engine/oracle bit-exactness on randomized networks
# ---------------------------------------------------------------------------

def test_criterion_1_bit_exactness():
    rng = np.random.default_rng(2024)
    cases = 200
    started = time.monotonic()
    for case in range(cases):
        net, input_shape = random_network(rng, max_dim=16, max_channels=64)
        bundle = generate_random_bundle(net, seed=case)
        image = rng.integers(0, 256, input_shape, dtype=np.uint8)
        steps = int(rng.integers(1, 9))
        oracle = run_network_oracle(net, bundle.weights, bundle.params, image, steps)
        engine = run_network(net, bundle.weights, bundle.params, image, steps, CFG)
        for idx, (a, b) in enumerate(zip(oracle.layer_trains, engine.layer_trains)):
            assert a == b, f"case {case}: spike trains differ at layer {idx}"
        assert np.array_equal(oracle.class_counts, engine.class_counts), (
            f"case {case}: class counts differ"
        )
    elapsed = time.monotonic() - started
    assert elapsed < 120.0, f"{cases} cases took {elapsed:.1f}s, budget is 120s"
    _announce(1, f"bit-exactness ({cases} random nets, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 2. folded normalization equals the per-step normalized pipeline
# ---------------------------------------------------------------------------

def _folded_reference_margin(x, params, v_th):
    gamma = float(params.gamma[0])
    sigma = float(np.sqrt(params.var[0] + params.eps))
    ratio = sigma / gamma
    bias = float(params.mean[0]) - ratio * float(params.beta[0])
    threshold = ratio * v_th
    v, o = 0.0, 0
    margin = np.inf
    for xi in x:
        v = (0.0 if o else v) + (float(xi) - bias)
        margin = min(margin, abs(v - threshold))
        o = (v <= threshold) if gamma < 0 else (v >= threshold)
    return margin


def test_criterion_2_bn_fold_equivalence():
    rng = np.random.default_rng(7_000)
    margin = 2.0**-6  # 2**(-frac_bits + 2) at the default 8 fractional bits
    assert margin == 2.0 ** (-FMT.frac_bits + 2)
    required = 1000
    checked = 0
    negative_seen = 0
    while checked < required:
        steps = int(rng.integers(1, 9))
        x = rng.integers(-20, 21, steps)
        gamma = float(rng.choice([-1.0, 1.0])) * rng.uniform(0.5, 2.0)
        params = BNParams(
            gamma,
            rng.uniform(-1.0, 1.0),
            rng.uniform(-1.0, 1.0),
            rng.uniform(0.25, 4.0),
        )
        v_th = rng.uniform(0.5, 2.0)
        if _folded_reference_margin(x, params, v_th) <= margin:
            continue  # near-threshold cases are excluded, never tolerated
        folded = fold_bn(params, v_th)
        v, o = 0, 0
        folded_spikes = []
        for xi in x:
            weighted = (int(xi) << FMT.frac_bits) - int(folded.bias_raw[0])
            v, o = if_step(
                v, o, weighted, int(folded.threshold_raw[0]),
                flipped=bool(folded.flipped[0]),
            )
            folded_spikes.append(o)
        assert folded_spikes == spikes_eq3_oracle(x, params, v_th), (
            f"case {checked}: gamma={gamma}, x={x.tolist()}"
        )
        checked += 1
        negative_seen += gamma < 0
    assert negative_seen > 100  # both gamma signs genuinely covered
    _announce(2, f"fold equivalence ({checked} cases, {negative_seen} with gamma<0)")


# ---------------------------------------------------------------------------
# 3. column schedule on the 5x5 input / 3x3 kernel fixture
# ---------------------------------------------------------------------------

def test_criterion_3_column_schedule_fixture():
    cfg = HardwareConfig(array_rows=5)  # the 5x3 array variant
    rng = np.random.default_rng(5)
    x = rng.integers(0, 2, (1, 5, 5), dtype=np.uint8)
    weights = BinaryWeightTensor(rng.integers(0, 2, (1, 1, 3, 3), dtype=np.uint8))
    stream = stream_conv_columns(x, weights, cfg)
    assert stream.steady_cycles == 3, "3 output columns must take 3 steady cycles"
    assert stream.warmup_cycles == 2  # reported separately
    assert len(stream.emissions) == 3
    for emission in stream.emissions:
        assert emission.raw_column.shape == (7,), "columns are 7 tall pre-stitching"
    assert np.array_equal(stream.output, conv2d_oracle(x, weights))
    staged = stage_weights(weights, False)
    assert np.array_equal(schedule_conv_layer(x, staged, cfg), stream.output)
    report = conv_layer_report(1, 1, 5, 5, 3, 3, cfg)
    assert report.steady_cycles == 3
    assert report.warmup_cycles == 2
    _announce(3, "5x5/3x3 fixture: 3 steady cycles, 7-tall columns")


# ---------------------------------------------------------------------------
# 4. peak throughput and steady-state utilization
# ---------------------------------------------------------------------------

def test_criterion_4_peak_throughput_and_utilization():
    assert peak_gops(CFG) == 2304.0
    report = conv_layer_report(128, 128, 32, 32, 3, 3, CFG)
    assert report.steady_state_utilization == 1.0
    assert report.utilization >= 0.95
    # the geometry the report describes schedules exactly
    rng = np.random.default_rng(6)
    x = rng.integers(0, 2, (128, 32, 32), dtype=np.uint8)
    weights = BinaryWeightTensor(
        rng.integers(0, 2, (128, 128, 3, 3), dtype=np.uint8)
    )
    scheduled = schedule_conv_layer(x, stage_weights(weights, False), CFG)
    assert np.array_equal(scheduled, conv2d_oracle(x, weights))
    _announce(
        4,
        f"peak 2304 GOPS, steady utilization 1.0, "
        f"with warmup {report.utilization:.4f}",
    )


# ---------------------------------------------------------------------------
# 5. DRAM traffic reproduction on the cifar10 preset
# ---------------------------------------------------------------------------

def test_criterion_5_traffic_reproduction():
    net, _ = preset_network("cifar10", time_steps=8)
    layers = compute_layers(net)
    baseline = simulate_traffic(net, FusionPlan.unfused(len(layers)), 8, CFG)
    # reference pairing: every second adjacent pair, skipping the pooled
    # 128-channel stage and both fc layers
    plan = FusionPlan([(0, 1), (2,), (3, 4), (5, 6), (7, 8), (9, 10), (11,), (12,)])
    fused = simulate_traffic(net, plan, 8, CFG)

    saving = baseline.total_bytes - fused.total_bytes
    identity = fusion_savings(net, plan, 8)
    assert saving == identity, "savings identity must hold exactly"
    assert saving == 524288  # 512 KiB of intermediate maps kept on chip

    pct = 100.0 * saving / baseline.total_bytes
    assert 30.3 <= pct <= 40.3, f"reduction {pct:.2f}% outside 35.3 +/- 5"

    print("\n  itemized ledger (bytes):")
    for rec in fused.records:
        print(
            f"    layer {rec.layer_index:>2} {rec.kind:<18} "
            f"weights={rec.weight_bytes_read:>7} in={rec.input_spike_bytes_read:>7} "
            f"out={rec.output_spike_bytes_written:>7}  {rec.note}"
        )
    print(
        f"  unfused {baseline.total_bytes} B ({baseline.total_bytes / 1024:.3f} KiB) "
        f"vs published 1450.172 KiB"
    )
    print(
        f"  fused   {fused.total_bytes} B ({fused.total_bytes / 1024:.3f} KiB) "
        f"vs published 938.172 KiB"
    )
    published = 1484976  # 1450.171875 KiB
    print(
        f"  unfused ledger {baseline.total_bytes:,} B against the published "
        f"{published:,} B, a gap of {baseline.total_bytes - published:,} B"
    )
    _announce(5, f"traffic: saving 512 KiB exactly, reduction {pct:.2f}%")


# ---------------------------------------------------------------------------
# 6. encoding-layer bitplane identity
# ---------------------------------------------------------------------------

def test_criterion_6_bitplane_identity():
    rng = np.random.default_rng(88)
    for case in range(100):
        h = int(rng.integers(3, 33))
        w = int(rng.integers(3, 33))
        cout = int(rng.integers(1, 9))
        x = rng.integers(0, 256, (3, h, w), dtype=np.uint8)
        weights = BinaryWeightTensor(
            rng.integers(0, 2, (cout, 3, 3, 3), dtype=np.uint8)
        )
        out = schedule_encoding_layer(x, stage_weights(weights, True), CFG)
        assert np.array_equal(out, conv2d_oracle(x, weights)), (
            f"case {case} diverged"
        )
    _announce(6, "bitplane identity (100 random 8-bit inputs)")


# ---------------------------------------------------------------------------
# 7. tile and group decomposition equivalence
# ---------------------------------------------------------------------------

def test_criterion_7_tile_and_group_equivalence():
    rng = np.random.default_rng(4242)
    # vertical tiling: heights up to 32 rows against the 8-row array
    for case in range(100):
        h = int(rng.integers(9, 33))
        w = int(rng.integers(3, 13))
        cin = int(rng.integers(1, 9))
        cout = int(rng.integers(1, 5))
        x = rng.integers(0, 2, (cin, h, w), dtype=np.uint8)
        weights = BinaryWeightTensor(
            rng.integers(0, 2, (cout, cin, 3, 3), dtype=np.uint8)
        )
        out = schedule_conv_layer(x, stage_weights(weights, False), CFG)
        assert np.array_equal(out, conv2d_oracle(x, weights)), (
            f"tiling case {case} diverged"
        )
        deposits, _, peak_rows = stitching_ledger(h, 3, CFG.array_rows, 1)
        assert step_boundary(cin, h, w, 3, 3, CFG) == (deposits, peak_rows), (
            f"tiling case {case} boundary diverged"
        )
    # channel grouping: widths up to 128 channels against the 32-wide group
    for case in range(100):
        cin = int(rng.integers(33, 129))
        cout = int(rng.integers(1, 5))
        h = int(rng.integers(3, 9))
        w = int(rng.integers(3, 9))
        x = rng.integers(0, 2, (cin, h, w), dtype=np.uint8)
        weights = BinaryWeightTensor(
            rng.integers(0, 2, (cout, cin, 3, 3), dtype=np.uint8)
        )
        out = schedule_conv_layer(x, stage_weights(weights, False), CFG)
        assert np.array_equal(out, conv2d_oracle(x, weights)), (
            f"grouping case {case} diverged"
        )
    _announce(7, "tile stitching and channel grouping (100 cases each)")


# ---------------------------------------------------------------------------
# 8. deterministic reports
# ---------------------------------------------------------------------------

def test_criterion_8_deterministic_reports(tmp_path):
    blobs = []
    for name in ("first.json", "second.json"):
        out = tmp_path / name
        code = cli.main(
            [
                "run", "--net", "mnist", "--timesteps", "8", "--seed", "1",
                "--verify", "--report", "json", "--out", str(out),
                "--deterministic",
            ]
        )
        assert code == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1], "deterministic runs must be byte-identical"
    report = json.loads(blobs[0])
    assert report["oracle_match"] is True
    _announce(8, "byte-identical deterministic reports")
