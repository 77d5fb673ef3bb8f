import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import vecspike.dataflow as dataflow
from conftest import brute_conv2d, random_network, stitching_ledger
from vecspike.arch import CycleReport, HardwareConfig
from vecspike.core import (
    BinaryWeightTensor,
    BNParams,
    FoldedNeuronParams,
    MembraneState,
    conv2d_oracle,
    fold_bn,
    run_network_oracle,
)
from vecspike.dataflow import (
    conv_layer_report,
    gemm_dtype,
    if_unit_process,
    run_network,
    schedule_conv_layer,
    schedule_encoding_layer,
    stream_conv_columns,
)
from vecspike.errors import (
    ConfigError,
    FixedPointOverflowError,
    InvalidParameterError,
    ShapeError,
)
from vecspike.fixedpoint import DEFAULT_FORMAT
from vecspike.netconfig import generate_random_bundle, parse_network, validate

FMT = DEFAULT_FORMAT
Q = FMT.quantize
CFG = HardwareConfig()


def _random_case(rng, cin, h, w, cout, k=3):
    x = rng.integers(0, 2, (cin, h, w), dtype=np.uint8)
    weights = BinaryWeightTensor(rng.integers(0, 2, (cout, cin, k, k), dtype=np.uint8))
    return x, weights


# ---------------------------------------------------------------------------
# conv schedule
# ---------------------------------------------------------------------------

def test_single_pe_single_cycle():
    x = np.ones((1, 1, 1), dtype=np.uint8)
    w = BinaryWeightTensor(np.ones((1, 1, 1, 1), dtype=np.uint8))  # weight -1
    result = schedule_conv_layer(x, w, CFG)
    assert result.output.tolist() == [[[-1]]]
    assert result.report.total_cycles == 1
    assert result.report.warmup_cycles == 0


def test_schedule_matches_oracle_basic(rng):
    for _ in range(10):
        cin = int(rng.integers(1, 8))
        cout = int(rng.integers(1, 8))
        h, w = int(rng.integers(3, 10)), int(rng.integers(3, 10))
        x, weights = _random_case(rng, cin, h, w, cout)
        result = schedule_conv_layer(x, weights, CFG)
        assert np.array_equal(result.output, conv2d_oracle(x, weights))


def test_schedule_tiling_matches_untiled_oracle(rng):
    # heights beyond the 8-row array force multi-tile stitching
    for h in (9, 16, 17, 24, 32):
        x, weights = _random_case(rng, 3, h, 6, 4)
        result = schedule_conv_layer(x, weights, CFG)
        assert np.array_equal(result.output, conv2d_oracle(x, weights))
        deposits, consumes, peak_rows = stitching_ledger(h, 3, CFG.array_rows, 1)
        assert deposits == consumes
        assert (result.boundary.deposits, result.boundary.peak_rows) == (
            deposits, peak_rows
        )
        assert result.boundary.deposits > 0


def test_schedule_grouping_matches_ungrouped_oracle(rng):
    # channel counts beyond the 32-wide group force sequential group passes
    for cin in (33, 64, 100, 128):
        x, weights = _random_case(rng, cin, 6, 6, 3)
        result = schedule_conv_layer(x, weights, CFG)
        assert np.array_equal(result.output, conv2d_oracle(x, weights))


def test_schedule_boundary_rows_count(rng):
    # each tile transition leaves kernel-height-minus-one pending rows
    x, weights = _random_case(rng, 1, 16, 5, 1)
    result = schedule_conv_layer(x, weights, CFG)
    assert result.boundary.peak_rows == 2
    assert result.boundary.deposits == 2  # one transition, two rows


def test_schedule_rejects_oversized_kernels():
    x = np.zeros((1, 8, 8), dtype=np.uint8)
    wide = BinaryWeightTensor(np.zeros((1, 1, 3, 4), dtype=np.uint8))
    tall = BinaryWeightTensor(np.zeros((1, 1, 4, 3), dtype=np.uint8))
    with pytest.raises(ConfigError):
        schedule_conv_layer(x, wide, CFG)
    with pytest.raises(ConfigError):
        schedule_conv_layer(x, tall, CFG)


def test_schedule_cycle_formula(rng):
    # 32x32 valid conv, 128 channels each way: 4 groups x 4 tiles
    x, weights = _random_case(rng, 128, 32, 32, 2)
    result = schedule_conv_layer(x, weights, CFG)
    w_out = 30
    expected_total = 2 * 4 * (2 + 4 * w_out)
    assert result.report.total_cycles == expected_total
    assert result.report.steady_state_utilization == 1.0


def test_conv_layer_report_matches_schedule(rng):
    for _ in range(8):
        cin = int(rng.integers(1, 40))
        cout = int(rng.integers(1, 6))
        h, w = int(rng.integers(3, 20)), int(rng.integers(3, 12))
        x, weights = _random_case(rng, cin, h, w, cout)
        result = schedule_conv_layer(x, weights, CFG)
        analytic = conv_layer_report(cin, cout, h, w, 3, 3, CFG)
        assert analytic == result.report


@st.composite
def _geometries(draw):
    pe_blocks = draw(st.integers(8, 32))
    cfg = HardwareConfig(
        pe_blocks=pe_blocks,
        group_size=draw(st.integers(1, pe_blocks)),
        array_rows=draw(st.integers(1, 8)),
    )
    kh, kw = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    shape = (
        draw(st.integers(1, 70)),
        draw(st.integers(kh, 20)),
        draw(st.integers(kw, 7)),
    )
    return cfg, shape, (draw(st.integers(1, 4)), kh, kw), draw(st.integers(0, 2**32))


@given(_geometries(), st.booleans())
# one-row tiles under a 3-tall kernel: the first tile completes no row
@example((HardwareConfig(group_size=4, array_rows=1), (9, 5, 4), (2, 3, 3), 0), False)
@example((HardwareConfig(array_rows=1), (3, 6, 3), (3, 3, 2), 1), True)
# a partial last channel group (8 + 8 + 3, or 4 + 1 encoding) over 4 row tiles
@example(
    (HardwareConfig(group_size=8, array_rows=3), (19, 10, 5), (2, 3, 3), 2), False
)
@example((HardwareConfig(array_rows=3), (5, 10, 4), (2, 3, 2), 3), True)
def test_schedules_equal_oracle_across_geometry(geometry, encoding):
    cfg, (cin, h, w), (cout, kh, kw), seed = geometry
    rng = np.random.default_rng(seed)
    weights = BinaryWeightTensor(rng.integers(0, 2, (cout, cin, kh, kw), dtype=np.uint8))
    if encoding:
        x = rng.integers(0, 256, (cin, h, w))
        result = schedule_encoding_layer(x, weights, cfg)
        group = cfg.encoding_channels_per_pass
    else:
        x = rng.integers(*rng.choice([(0, 2), (-9, 10)]), (cin, h, w))
        result = schedule_conv_layer(x, weights, cfg)
        group = cfg.group_size
    assert np.array_equal(result.output, conv2d_oracle(x, weights))
    assert result.report == conv_layer_report(
        cin, cout, h, w, kh, kw, cfg, encoding=encoding
    )
    n_groups = -(-cin // group)
    deposits, consumes, peak_rows = stitching_ledger(h, kh, cfg.array_rows, n_groups)
    assert deposits == consumes
    assert (result.boundary.deposits, result.boundary.peak_rows) == (deposits, peak_rows)


def test_tile_boundary_closed_form_equals_stitching_ledger():
    # every geometry with h <= 24, kh <= 5, up to 9 array rows, 1-2 groups
    cases = 0
    for rows in range(1, 10):
        for kh in range(1, 6):
            cfg = HardwareConfig(array_rows=rows, array_cols=kh, group_size=1)
            for h in range(kh, 25):
                for n_groups in (1, 2):
                    groups, tiles, h_out, _ = dataflow._pass_structure(
                        n_groups, h, 1, kh, 1, cfg, encoding=False
                    )
                    assert len(groups) == n_groups
                    boundary = dataflow._tile_boundary(tiles, h_out, kh, n_groups)
                    deposits, _, peak_rows = stitching_ledger(h, kh, rows, n_groups)
                    assert (boundary.deposits, boundary.peak_rows) == (
                        deposits, peak_rows
                    ), (h, kh, rows, n_groups)
                    cases += 1
    assert cases == 1980


@pytest.mark.parametrize(
    "schedule, cin, high",
    [(schedule_conv_layer, 70, 2), (schedule_encoding_layer, 6, 256)],
)
def test_one_tile_kernel_call_per_row_tile(rng, monkeypatch, schedule, cin, high):
    # 3 conv groups of 32, or 2 encoding groups of 4, over 3 row tiles
    seen = _record_gemm_dtypes(monkeypatch)
    x = rng.integers(0, high, (cin, 17, 5))
    weights = BinaryWeightTensor(rng.integers(0, 2, (4, cin, 3, 3), dtype=np.uint8))
    assert np.array_equal(schedule(x, weights, CFG).output, conv2d_oracle(x, weights))
    assert len(seen) == 3


@pytest.mark.parametrize("schedule", [schedule_conv_layer, schedule_encoding_layer])
def test_zero_input_channels_give_zero_sums(schedule):
    x = np.zeros((0, 9, 5), dtype=np.uint8)
    weights = BinaryWeightTensor(np.zeros((3, 0, 3, 3), dtype=np.uint8))
    result = schedule(x, weights, CFG)
    assert result.output.shape == (3, 7, 3)
    assert np.array_equal(result.output, conv2d_oracle(x, weights))


def test_schedules_reject_batched_input():
    w = BinaryWeightTensor(np.zeros((1, 1, 1, 1), dtype=np.uint8))
    with pytest.raises(ShapeError):
        schedule_conv_layer(np.zeros((2, 1, 3, 3), dtype=np.uint8), w, CFG)
    with pytest.raises(ShapeError):
        schedule_encoding_layer(np.zeros((2, 1, 3, 3), dtype=np.uint8), w, CFG)


# ---------------------------------------------------------------------------
# GEMM exactness bound
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "bound, dtype",
    [
        (0, np.float32),
        (2**24 - 1, np.float32),
        (2**24, np.float64),
        (2**53 - 1, np.float64),
        (2**53, np.int64),
    ],
)
def test_gemm_dtype_edges(bound, dtype):
    assert gemm_dtype(bound) == np.dtype(dtype)


def _record_gemm_dtypes(monkeypatch):
    seen = []
    kernel = dataflow._tile_partial_rows

    def spy(x_tile, w_mat, kh, kw):
        seen.append(w_mat.dtype)
        return kernel(x_tile, w_mat, kh, kw)

    monkeypatch.setattr(dataflow, "_tile_partial_rows", spy)
    return seen


@pytest.mark.parametrize(
    "limits, dtype",
    [((2**24, 2**53), np.float32), ((1, 2**53), np.float64), ((1, 1), np.int64)],
)
def test_lowered_limits_run_each_gemm_path_exactly(rng, monkeypatch, limits, dtype):
    monkeypatch.setattr(dataflow, "FLOAT32_EXACT_LIMIT", limits[0])
    monkeypatch.setattr(dataflow, "FLOAT64_EXACT_LIMIT", limits[1])
    seen = _record_gemm_dtypes(monkeypatch)
    x, weights = _random_case(rng, 40, 11, 6, 3)
    assert np.array_equal(
        schedule_conv_layer(x, weights, CFG).output, brute_conv2d(x, weights.values())
    )
    pixels = rng.integers(0, 256, (5, 10, 6))
    enc_weights = BinaryWeightTensor(weights.sign_bits[:, :5])
    assert np.array_equal(
        schedule_encoding_layer(pixels, enc_weights, CFG).output,
        brute_conv2d(pixels, enc_weights.values()),
    )
    assert seen and set(seen) == {np.dtype(dtype)}


@pytest.mark.parametrize("magnitude, dtype", [(2**20, np.float64), (2**50, np.int64)])
def test_large_inputs_take_the_wide_path_exactly(rng, monkeypatch, magnitude, dtype):
    seen = _record_gemm_dtypes(monkeypatch)
    x = rng.integers(-magnitude, magnitude, (3, 9, 5))
    x[0, 0, 0] = magnitude
    weights = BinaryWeightTensor(rng.integers(0, 2, (2, 3, 3, 3), dtype=np.uint8))
    assert np.array_equal(
        schedule_conv_layer(x, weights, CFG).output, brute_conv2d(x, weights.values())
    )
    assert set(seen) == {np.dtype(dtype)}


# ---------------------------------------------------------------------------
# encoding schedule
# ---------------------------------------------------------------------------

def test_encoding_zero_input():
    w = BinaryWeightTensor(np.zeros((2, 1, 3, 3), dtype=np.uint8))
    result = schedule_encoding_layer(np.zeros((1, 5, 5), dtype=np.uint8), w, CFG)
    assert not result.output.any()


def test_encoding_bitplane_recomposition():
    # pixel value 5 = bits 0 and 2, +1 weight: shift-add recovers 5
    w = BinaryWeightTensor(np.zeros((1, 1, 1, 1), dtype=np.uint8))
    x = np.array([[[5]]], dtype=np.uint8)
    result = schedule_encoding_layer(x, w, CFG)
    assert result.output.tolist() == [[[5]]]


def test_encoding_matches_integer_oracle(rng):
    for _ in range(10):
        h, w = int(rng.integers(3, 12)), int(rng.integers(3, 12))
        x = rng.integers(0, 256, (3, h, w), dtype=np.uint8)
        weights = BinaryWeightTensor(rng.integers(0, 2, (4, 3, 3, 3), dtype=np.uint8))
        result = schedule_encoding_layer(x, weights, CFG)
        assert np.array_equal(result.output, conv2d_oracle(x, weights))


def test_encoding_grouping_beyond_block_budget(rng):
    # more than pe_blocks/8 input channels forces grouped passes
    x = rng.integers(0, 256, (6, 5, 5), dtype=np.int64)
    weights = BinaryWeightTensor(rng.integers(0, 2, (2, 6, 3, 3), dtype=np.uint8))
    result = schedule_encoding_layer(x, weights, CFG)
    assert np.array_equal(result.output, conv2d_oracle(x, weights))
    assert result.report.total_cycles == conv_layer_report(
        6, 2, 5, 5, 3, 3, CFG, encoding=True
    ).total_cycles


def test_encoding_rejects_out_of_range_values():
    w = BinaryWeightTensor(np.zeros((1, 1, 1, 1), dtype=np.uint8))
    with pytest.raises(InvalidParameterError):
        schedule_encoding_layer(np.array([[[256]]]), w, CFG)


# ---------------------------------------------------------------------------
# cycle-by-cycle column stream
# ---------------------------------------------------------------------------

def test_column_stream_five_by_five_fixture(rng):
    cfg = HardwareConfig(array_rows=5)
    x = rng.integers(0, 2, (1, 5, 5), dtype=np.uint8)
    w = BinaryWeightTensor(rng.integers(0, 2, (1, 1, 3, 3), dtype=np.uint8))
    result = stream_conv_columns(x, w, cfg)
    assert result.steady_cycles == 3
    assert result.warmup_cycles == 2
    assert len(result.emissions) == 3
    assert all(e.raw_column.shape == (7,) for e in result.emissions)
    assert np.array_equal(result.output, conv2d_oracle(x, w))


def test_column_stream_matches_schedule_and_oracle(rng):
    for _ in range(5):
        cin = int(rng.integers(1, 4))
        cout = int(rng.integers(1, 3))
        h = int(rng.integers(3, 9))
        w = int(rng.integers(3, 9))
        x, weights = _random_case(rng, cin, h, w, cout)
        stream = stream_conv_columns(x, weights, CFG)
        sched = schedule_conv_layer(x, weights, CFG)
        assert np.array_equal(stream.output, sched.output)
        assert np.array_equal(stream.output, conv2d_oracle(x, weights))


def test_column_stream_constraints():
    x = np.zeros((1, 9, 5), dtype=np.uint8)
    w = BinaryWeightTensor(np.zeros((1, 1, 3, 3), dtype=np.uint8))
    with pytest.raises(ConfigError):
        stream_conv_columns(x, w, CFG)  # taller than one tile


# ---------------------------------------------------------------------------
# IF unit
# ---------------------------------------------------------------------------

def _plain_params(channels, threshold_real, bias_real=0.0):
    return FoldedNeuronParams(
        np.full(channels, Q(bias_real)),
        np.full(channels, Q(threshold_real)),
        np.zeros(channels, dtype=bool),
    )


def test_if_unit_zero_input_no_spikes():
    membrane = MembraneState.zeros((2, 3, 3))
    spikes, membrane = if_unit_process(
        np.zeros((2, 3, 3), dtype=np.int64), _plain_params(2, 1.0), membrane
    )
    assert not spikes.any()
    assert not membrane.potentials.any()


def test_if_unit_threshold_boundary_fires():
    membrane = MembraneState.zeros((1, 1, 1))
    spikes, _ = if_unit_process(
        np.array([[[1]]], dtype=np.int64), _plain_params(1, 1.0), membrane
    )
    assert spikes[0, 0, 0] == 1


def test_if_unit_encoding_iterate_period_two():
    # constant x with x < threshold <= 2x: spikes on steps 2 and 4
    params = _plain_params(1, 1.5)
    membrane = MembraneState.zeros((1, 1, 1))
    x = np.array([[[1]]], dtype=np.int64)
    pattern = []
    for _ in range(4):
        spikes, membrane = if_unit_process(x, params, membrane)
        pattern.append(int(spikes[0, 0, 0]))
    assert pattern == [0, 1, 0, 1]


def test_if_unit_flipped_channels():
    params = FoldedNeuronParams(
        np.zeros(2, dtype=np.int64),
        np.array([Q(1.0), Q(-1.0)]),
        np.array([False, True]),
    )
    membrane = MembraneState.zeros((2, 1, 1))
    conv = np.array([[[2]], [[-2]]], dtype=np.int64)
    spikes, _ = if_unit_process(conv, params, membrane)
    assert spikes[:, 0, 0].tolist() == [1, 1]


def test_if_unit_shape_mismatch_and_overflow():
    params = _plain_params(1, 1.0)
    with pytest.raises(ShapeError):
        if_unit_process(
            np.zeros((2, 1, 1), dtype=np.int64), params, MembraneState.zeros((1, 1, 1))
        )
    huge = np.full((1, 1, 1), FMT.raw_max, dtype=np.int64)
    with pytest.raises(FixedPointOverflowError):
        if_unit_process(huge, params, MembraneState.zeros((1, 1, 1)))


# ---------------------------------------------------------------------------
# whole-network engine
# ---------------------------------------------------------------------------

def test_engine_matches_oracle_on_random_nets(rng):
    for case in range(8):
        net, input_shape = random_network(rng, max_dim=12, max_channels=24)
        bundle = generate_random_bundle(net, seed=case)
        image = rng.integers(0, 256, input_shape, dtype=np.uint8)
        steps = int(rng.integers(1, 9))
        oracle = run_network_oracle(net, bundle.weights, bundle.params, image, steps)
        engine = run_network(net, bundle.weights, bundle.params, image, steps, CFG)
        assert all(
            a == b for a, b in zip(oracle.layer_trains, engine.layer_trains)
        )
        assert np.array_equal(oracle.class_counts, engine.class_counts)


def test_engine_matches_oracle_with_negative_gamma(rng):
    net = validate(parse_network("4Conv(encoding)-6Conv"), (1, 6, 6))
    bundle = generate_random_bundle(net, seed=11)
    params = []
    for layer, p in zip(net.layers, bundle.params):
        c = layer.out_channels
        signs = np.where(rng.random(c) < 0.5, -1.0, 1.0)
        bn = BNParams(
            gamma=signs * rng.uniform(0.5, 2.0, c),
            beta=rng.uniform(-1, 1, c),
            mean=rng.uniform(-1, 1, c),
            var=rng.uniform(0.25, 4.0, c),
        )
        params.append(fold_bn(bn, layer.v_th))
    image = rng.integers(0, 256, (1, 6, 6), dtype=np.uint8)
    oracle = run_network_oracle(net, bundle.weights, params, image, 8)
    engine = run_network(net, bundle.weights, params, image, 8, CFG)
    assert all(a == b for a, b in zip(oracle.layer_trains, engine.layer_trains))


def test_engine_layer_reports_equal_the_merged_step_reports(rng, monkeypatch):
    # LayerRun.report is computed from geometry; it must equal the merge of
    # the reports of the schedule calls run_network makes, one per step
    calls = []

    def recording(schedule):
        def wrapper(x, weights, cfg):
            result = schedule(x, weights, cfg)
            calls.append((weights, result.report))
            return result
        return wrapper

    for name in ("schedule_conv_layer", "schedule_encoding_layer"):
        monkeypatch.setattr(dataflow, name, recording(getattr(dataflow, name)))
    for case in range(6):
        net, input_shape = random_network(rng, max_dim=12, max_channels=40)
        bundle = generate_random_bundle(net, seed=case)
        image = rng.integers(0, 256, input_shape, dtype=np.uint8)
        steps = int(rng.integers(1, 6))
        calls.clear()
        engine = run_network(net, bundle.weights, bundle.params, image, steps, CFG)
        for run, weights in zip(engine.layers, bundle.weights):
            merged = CycleReport()
            for w, report in calls:
                if w is weights:
                    merged = merged.merged(report)
            assert run.report == merged
        n_spiking = sum(layer.kind in ("conv", "fc") for layer in net.layers)
        assert len(calls) == 1 + n_spiking * steps


def test_engine_reports_time_step_scaling(rng):
    # spiking convolutions run per step; the encoding conv runs once
    net = validate(parse_network("4Conv(encoding)-4Conv"), (1, 6, 6))
    bundle = generate_random_bundle(net, seed=1)
    image = rng.integers(0, 256, (1, 6, 6), dtype=np.uint8)
    run1 = run_network(net, bundle.weights, bundle.params, image, 1, CFG)
    run4 = run_network(net, bundle.weights, bundle.params, image, 4, CFG)
    assert (
        run1.layers[0].report.total_cycles == run4.layers[0].report.total_cycles
    )
    assert (
        run4.layers[1].report.total_cycles
        == 4 * run1.layers[1].report.total_cycles
    )
