import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import vecspike.core as core
import vecspike.dataflow as dataflow
import vecspike.geometry as geometry
from conftest import (
    brute_conv2d,
    random_network,
    record_matmul_dtypes,
    step_boundary,
    stitching_ledger,
)
from vecspike.arch import CycleReport, HardwareConfig
from vecspike.core import (
    ENCODING_SHIFT,
    BinaryWeightTensor,
    BNParams,
    FoldedNeuronParams,
    SpikeTrain,
    conv2d_oracle,
    fold_bn,
    maxpool2_oracle,
    run_network_oracle,
)
from vecspike.dataflow import (
    StagedNeuronParams,
    gemm_dtype,
    if_unit_process,
    run_network,
    schedule_conv_layer,
    schedule_encoding_layer,
    stage_weights,
)
from vecspike.errors import (
    ConfigError,
    FixedPointOverflowError,
    InvalidParameterError,
    ShapeError,
    ValidationError,
)
from vecspike.fixedpoint import DEFAULT_FORMAT, FixedPointFormat
from vecspike.geometry import conv_layer_report, layer_accounting
from vecspike.netconfig import (
    generate_random_bundle,
    parse_network,
    preset_network,
    random_input,
    validate,
)
from vecspike.pipeline import stream_conv_columns

FMT = DEFAULT_FORMAT
Q = FMT.quantize
CFG = HardwareConfig()
README = Path(__file__).resolve().parents[1] / "README.md"


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
    assert schedule_conv_layer(x, stage_weights(w, False), CFG).tolist() == [[[-1]]]
    report = conv_layer_report(1, 1, 1, 1, 1, 1, CFG)
    assert report.total_cycles == 1
    assert report.warmup_cycles == 0


def test_schedule_matches_oracle_basic(rng):
    for _ in range(10):
        cin = int(rng.integers(1, 8))
        cout = int(rng.integers(1, 8))
        h, w = int(rng.integers(3, 10)), int(rng.integers(3, 10))
        x, weights = _random_case(rng, cin, h, w, cout)
        out = schedule_conv_layer(x, stage_weights(weights, False), CFG)
        assert np.array_equal(out, conv2d_oracle(x, weights))


def test_schedule_tiling_matches_untiled_oracle(rng):
    # heights beyond the 8-row array force multi-tile stitching
    for h in (9, 16, 17, 24, 32):
        x, weights = _random_case(rng, 3, h, 6, 4)
        out = schedule_conv_layer(x, stage_weights(weights, False), CFG)
        assert np.array_equal(out, conv2d_oracle(x, weights))
        deposits, consumes, peak_rows = stitching_ledger(h, 3, CFG.array_rows, 1)
        assert deposits == consumes
        assert step_boundary(3, h, 6, 3, 3, CFG) == (deposits, peak_rows)
        assert deposits > 0


def test_schedule_grouping_matches_ungrouped_oracle(rng):
    # channel counts beyond the 32-wide group force sequential group passes
    for cin in (33, 64, 100, 128):
        x, weights = _random_case(rng, cin, 6, 6, 3)
        out = schedule_conv_layer(x, stage_weights(weights, False), CFG)
        assert np.array_equal(out, conv2d_oracle(x, weights))


def test_schedule_boundary_rows_count():
    # each tile transition leaves kernel-height-minus-one pending rows
    deposits, peak_rows = step_boundary(1, 16, 5, 3, 3, CFG)
    assert peak_rows == 2
    assert deposits == 2  # one transition, two rows


def test_schedule_rejects_oversized_kernels():
    x = np.zeros((1, 8, 8), dtype=np.uint8)
    wide = stage_weights(BinaryWeightTensor(np.zeros((1, 1, 3, 4), dtype=np.uint8)), False)
    tall = stage_weights(BinaryWeightTensor(np.zeros((1, 1, 4, 3), dtype=np.uint8)), False)
    with pytest.raises(ConfigError):
        schedule_conv_layer(x, wide, CFG)
    with pytest.raises(ConfigError):
        schedule_conv_layer(x, tall, CFG)


def test_schedule_cycle_formula():
    # 32x32 valid conv, 128 input and 2 output channels: 4 groups x 4 tiles
    report = conv_layer_report(128, 2, 32, 32, 3, 3, CFG)
    w_out = 30
    expected_total = 2 * 4 * (2 + 4 * w_out)
    assert report.total_cycles == expected_total
    assert report.steady_state_utilization == 1.0


@st.composite
def _geometries(draw):
    cfg = HardwareConfig(
        pe_blocks=draw(st.integers(1, 32)), array_rows=draw(st.integers(1, 8))
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
@example((HardwareConfig(pe_blocks=4, array_rows=1), (9, 5, 4), (2, 3, 3), 0), False)
@example((HardwareConfig(array_rows=1), (3, 6, 3), (3, 3, 2), 1), True)
# a partial last channel group (8 + 8 + 3, or 4 + 1 encoding) over 4 row tiles
@example(
    (HardwareConfig(pe_blocks=8, array_rows=3), (19, 10, 5), (2, 3, 3), 2), False
)
@example((HardwareConfig(array_rows=3), (5, 10, 4), (2, 3, 2), 3), True)
def test_schedules_equal_oracle_across_geometry(geometry, encoding):
    cfg, (cin, h, w), (cout, kh, kw), seed = geometry
    assume(cfg.pe_blocks >= 8 or not encoding)  # a pixel's 8 bitplanes need 8 blocks
    rng = np.random.default_rng(seed)
    weights = BinaryWeightTensor(rng.integers(0, 2, (cout, cin, kh, kw), dtype=np.uint8))
    staged = stage_weights(weights, encoding)
    if encoding:
        x = rng.integers(0, 256, (cin, h, w))
        out = schedule_encoding_layer(x, staged, cfg)
        group = cfg.encoding_channels_per_pass
    else:
        x = rng.integers(0, 2, (cin, h, w))
        out = schedule_conv_layer(x, staged, cfg)
        group = cfg.group_size
    assert np.array_equal(out, conv2d_oracle(x, weights))
    # weights staged once serve every later call, under any config: nothing
    # of one call's input may reach the next through the tile buffer
    schedule, other = (
        (schedule_encoding_layer, schedule_conv_layer) if encoding
        else (schedule_conv_layer, schedule_encoding_layer)
    )
    for step in (x[:, ::-1], x):
        for step_cfg in (cfg, HardwareConfig()):
            assert np.array_equal(
                schedule(step, staged, step_cfg), conv2d_oracle(step, weights)
            )
    # they are staged for one layer kind, and the other's scheduler refuses them
    with pytest.raises(InvalidParameterError, match="^weights staged for "):
        other(x % 2, staged, cfg)
    n_groups = -(-cin // group)
    deposits, consumes, peak_rows = stitching_ledger(h, kh, cfg.array_rows, n_groups)
    assert deposits == consumes
    assert step_boundary(cin, h, w, kh, kw, cfg, encoding) == (deposits, peak_rows)


def test_tile_boundary_closed_form_equals_stitching_ledger():
    # every geometry with h <= 24, kh <= 5, up to 9 array rows, 1-2 groups
    cases = 0
    for rows in range(1, 10):
        for kh in range(1, 6):
            cfg = HardwareConfig(array_rows=rows, array_cols=kh, pe_blocks=1)
            for h in range(kh, 25):
                for n_groups in (1, 2):
                    groups, tiles, h_out, _ = geometry.pass_structure(
                        n_groups, h, 1, kh, 1, cfg, encoding=False
                    )
                    assert groups == n_groups
                    boundary = geometry._tile_boundary(tiles, h_out, kh, n_groups)
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
    # 3 conv groups of 32, or 2 encoding groups of 4, over 3 row tiles: the
    # groups and tiles are passes of the cycle model only, so the step's
    # product is one tile-kernel call on the whole map
    seen = _record_gemm_dtypes(monkeypatch)
    x = rng.integers(0, high, (cin, 17, 5))
    weights = BinaryWeightTensor(rng.integers(0, 2, (4, cin, 3, 3), dtype=np.uint8))
    staged = stage_weights(weights, schedule is schedule_encoding_layer)
    assert np.array_equal(schedule(x, staged, CFG), conv2d_oracle(x, weights))
    assert len(seen) == 1


@pytest.mark.parametrize("kh", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("cout", [3, 4])
def test_whole_map_stitch_equals_brute_force(rng, kh, cout):
    # one slice add per kernel row, from one row (h_in == kh) to several
    # row tiles, on full (odd cout) and packed (even cout) weight lanes
    cfg = HardwareConfig(array_rows=4, array_cols=5)
    for h in (kh, kh + 1, 9, 13):
        x = rng.integers(0, 2, (5, h, 4))
        weights = BinaryWeightTensor(rng.integers(0, 2, (cout, 5, kh, 2), dtype=np.uint8))
        out = schedule_conv_layer(x, stage_weights(weights, False), cfg)
        assert out.shape == (cout, h - kh + 1, 3)
        assert np.array_equal(out, brute_conv2d(x, weights.values()))


@pytest.mark.parametrize(
    "case, dtype",
    [
        ("packed", np.int32),
        ("float32", np.int32),
        ("encoding", np.int32),
        ("float64", np.int64),
    ],
)
def test_schedule_sums_are_int32_from_float32_gemms_else_int64(
    rng, monkeypatch, case, dtype
):
    # every float32 sum is below 2**24, so it leaves the GEMM as int32
    if case == "float64":  # the layer's 27 taps reach a lowered limit
        monkeypatch.setattr(dataflow, "FLOAT32_EXACT_LIMIT", 27)
    cout = 3 if case == "float32" else 4
    x = rng.integers(0, 256 if case == "encoding" else 2, (3, 9, 5))
    x[0, 0, 0] = 255 if case == "encoding" else 1
    weights = BinaryWeightTensor(rng.integers(0, 2, (cout, 3, 3, 3), dtype=np.uint8))
    schedule = schedule_encoding_layer if case == "encoding" else schedule_conv_layer
    out = schedule(x, stage_weights(weights, case == "encoding"), CFG)
    assert out.dtype == np.dtype(dtype)
    assert np.array_equal(out, brute_conv2d(x, weights.values()))


@pytest.mark.parametrize("schedule", [schedule_conv_layer, schedule_encoding_layer])
def test_zero_input_channels_give_zero_sums(schedule):
    x = np.zeros((0, 9, 5), dtype=np.uint8)
    weights = BinaryWeightTensor(np.zeros((3, 0, 3, 3), dtype=np.uint8))
    out = schedule(x, stage_weights(weights, schedule is schedule_encoding_layer), CFG)
    assert out.shape == (3, 7, 3)
    assert np.array_equal(out, conv2d_oracle(x, weights))


def test_schedules_reject_batched_input():
    w = BinaryWeightTensor(np.zeros((1, 1, 1, 1), dtype=np.uint8))
    with pytest.raises(ShapeError):
        schedule_conv_layer(
            np.zeros((2, 1, 3, 3), dtype=np.uint8), stage_weights(w, False), CFG)
    with pytest.raises(ShapeError):
        schedule_encoding_layer(
            np.zeros((2, 1, 3, 3), dtype=np.uint8), stage_weights(w, True), CFG)


@pytest.mark.parametrize(
    "schedule, encoding",
    [(schedule_encoding_layer, False), (schedule_conv_layer, True)],
    ids=["spiking-staged", "encoding-staged"],
)
def test_schedules_refuse_weights_staged_for_the_other_layer_kind(
    rng, monkeypatch, schedule, encoding
):
    # a 0/1 map of the weights' channels is valid input for either kind, so
    # only the layer kind the operand was staged for is refused, before any
    # product
    weights = BinaryWeightTensor(rng.integers(0, 2, (2, 3, 3, 3), dtype=np.uint8))
    staged = stage_weights(weights, encoding)
    seen = _record_gemm_dtypes(monkeypatch)
    with pytest.raises(
        InvalidParameterError, match="^weights staged for the other layer kind$"
    ):
        schedule(rng.integers(0, 2, (3, 5, 5)), staged, CFG)
    assert seen == []


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
        (2**53, None),  # float64 cannot hold it; an encoding layer needs 3.5e13 taps
    ],
)
def test_gemm_dtype_edges(bound, dtype):
    if dtype is None:
        with pytest.raises(FixedPointOverflowError, match=r"^convolution sum: .* 2\*\*53$"):
            gemm_dtype(bound)
    else:
        assert gemm_dtype(bound) == np.dtype(dtype)


@given(arrays(
    st.sampled_from([np.bool_, np.uint8, np.uint64, np.int8, np.int32, np.int64]),
    array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4),
))
@example(np.array([0, 255], dtype=np.uint8))
@example(np.array([2**63, 2**64 - 1], dtype=np.uint64))
@example(np.array([-128, 127], dtype=np.int8))
@example(np.array([-(2**31), 5], dtype=np.int32))
@example(np.array([-(2**63), 2**63 - 1], dtype=np.int64))
@example(np.zeros((2, 0), dtype=np.bool_))
@example(np.zeros(0, dtype=np.int8))
def test_peak_is_the_largest_magnitude(x):
    assert dataflow._peak(x) == max((abs(int(v)) for v in x.flat), default=0)


@pytest.mark.parametrize("engine", [True, False], ids=["engine", "oracle"])
def test_convolution_refuses_a_bound_int64_cannot_hold(engine):
    weights = BinaryWeightTensor(np.zeros((1, 2, 1, 1), dtype=np.uint8))  # +1
    if engine:
        # the engine takes spikes only: no such sum reaches its GEMM
        staged = stage_weights(weights, False)
        for value in (2**62 - 1, 2**62):
            with pytest.raises(InvalidParameterError, match=r"must be in \[0, 1\]$"):
                schedule_conv_layer(np.full((2, 1, 1), value), staged, CFG)
        return
    # the largest bound that passes, 2 * (2**62 - 1), is summed exactly
    assert conv2d_oracle(np.full((2, 1, 1), 2**62 - 1), weights).tolist() == [[[2**63 - 2]]]
    # 2 * 2**62 would wrap to -2**63
    with pytest.raises(FixedPointOverflowError, match="^convolution sum: "):
        conv2d_oracle(np.full((2, 1, 1), 2**62), weights)


@pytest.mark.parametrize(
    "conv",
    [
        lambda x, w: schedule_conv_layer(x, stage_weights(w, False), CFG),
        lambda x, w: schedule_encoding_layer(x, stage_weights(w, True), CFG),
        conv2d_oracle,
    ],
    ids=["conv", "encoding", "oracle"],
)
def test_convolutions_refuse_inputs_that_are_not_integers(conv):
    weights = BinaryWeightTensor(np.zeros((1, 1, 1, 1), dtype=np.uint8))  # +1
    # a float is refused, an integral one too, rather than truncated
    for value in (1.5, 255.9, 1.0):
        with pytest.raises(InvalidParameterError, match="must be integers"):
            conv(np.full((1, 1, 1), value), weights)
    assert conv(np.ones((1, 1, 1), dtype=bool), weights).tolist() == [[[1]]]


def _record_gemm_dtypes(monkeypatch, key=lambda w_mat, kh: w_mat.dtype):
    seen = []
    kernel = dataflow._tile_partial_rows

    def spy(x_tile, weights):
        seen.append(key(weights.matrix, weights.kernel[0]))
        return kernel(x_tile, weights)

    monkeypatch.setattr(dataflow, "_tile_partial_rows", spy)
    return seen


@pytest.mark.parametrize(
    "limits, dtype", [((2**24, 2**53), np.float32), ((1, 2**53), np.float64)]
)
def test_lowered_limits_run_each_gemm_path_exactly(rng, monkeypatch, limits, dtype):
    monkeypatch.setattr(dataflow, "FLOAT32_EXACT_LIMIT", limits[0])
    monkeypatch.setattr(dataflow, "FLOAT64_EXACT_LIMIT", limits[1])
    seen = _record_gemm_dtypes(monkeypatch)
    x, weights = _random_case(rng, 40, 11, 6, 3)
    assert np.array_equal(
        schedule_conv_layer(x, stage_weights(weights, False), CFG),
        brute_conv2d(x, weights.values()),
    )
    pixels = rng.integers(0, 256, (5, 10, 6))
    enc_weights = BinaryWeightTensor(weights.sign_bits[:, :5])
    assert np.array_equal(
        schedule_encoding_layer(pixels, stage_weights(enc_weights, True), CFG),
        brute_conv2d(pixels, enc_weights.values()),
    )
    assert seen and set(seen) == {np.dtype(dtype)}


@pytest.mark.parametrize(
    "schedule, cin, x_max, limit",
    [(schedule_conv_layer, 64, 1, 2**9), (schedule_encoding_layer, 8_000, 255, 2**24)],
    ids=["conv", "encoding"],
)
def test_layer_bound_not_group_bound_picks_the_gemm_dtype(
    rng, monkeypatch, schedule, cin, x_max, limit
):
    # one group's bound is below the float32 limit (conv: 32 * 9 spikes
    # under a limit lowered to 2**9; encoding: one bitplane, 1 * 4 * 9) but
    # the layer's, x_max * cin * 9, is not, so the GEMM and the fold must
    # run in float64; at 2**24 the folded sum of the all +1 encoding
    # channel is odd and above the limit, which float32 cannot hold
    assert x_max * cin * 9 >= limit
    monkeypatch.setattr(dataflow, "FLOAT32_EXACT_LIMIT", limit)
    seen = _record_gemm_dtypes(monkeypatch)
    x = rng.integers(x_max // 2, x_max + 1, (cin, 3, 4))
    x[:, :, :3] = x_max
    x[0, 0, 0] -= 1
    signs = rng.integers(0, 2, (2, cin, 3, 3), dtype=np.uint8)
    signs[0] = 0
    weights = BinaryWeightTensor(signs)
    out = schedule(x, stage_weights(weights, schedule is schedule_encoding_layer), CFG)
    assert out[0, 0, 0] == x_max * cin * 9 - 1 >= limit
    assert np.array_equal(out, brute_conv2d(x, weights.values()))
    assert set(seen) == {np.dtype(np.float64)}


def test_mnist_runs_every_gemm_in_float32(monkeypatch):
    # the fast path: a silent fallback to float64 fails here, not only in
    # the benchmark; the engine's tile kernel and the oracle's per-offset
    # matmul are recorded separately
    net, shape = preset_network("mnist", 8)
    bundle = generate_random_bundle(net, seed=0)
    image = random_input(shape, 0)
    engine_dtypes = _record_gemm_dtypes(monkeypatch)
    engine = run_network(net, bundle.weights, bundle.params, image, 8, CFG)
    oracle_dtypes = record_matmul_dtypes(monkeypatch)
    oracle = run_network_oracle(net, bundle.weights, bundle.params, image, 8)
    assert len(engine_dtypes) == 25 and set(engine_dtypes) == {np.dtype(np.float32)}
    assert oracle_dtypes and set(oracle_dtypes) == {np.dtype(np.float32)}
    assert all(e == o for e, o in zip(engine.layer_trains, oracle.layer_trains))


# ---------------------------------------------------------------------------
# packed weight lanes
# ---------------------------------------------------------------------------

def _record_gemm_rows(monkeypatch):
    # output rows per kernel row: cout, or cout/2 on packed lanes
    return _record_gemm_dtypes(monkeypatch, lambda w_mat, kh: w_mat.shape[0] // kh)


@pytest.mark.parametrize("taps, lanes", [(2895, 1), (2896, 2)])
def test_weight_lanes_pack_up_to_the_float32_lane_bound(rng, monkeypatch, taps, lanes):
    # (2*taps + 2) * taps < 2**24 holds for 2895 taps, not for 2896
    seen = _record_gemm_rows(monkeypatch)
    x = rng.integers(0, 2, (taps, 1, 1))
    weights = BinaryWeightTensor(rng.integers(0, 2, (2, taps, 1, 1), dtype=np.uint8))
    # a packed layer stages one [kh*cout/2][kw*cin] operand, and no other
    staged = dataflow.stage_weights(weights, False)
    assert staged.packed == (lanes == 1) and staged.matrix.shape == (lanes, taps)
    out = schedule_conv_layer(x, staged, CFG)
    assert np.array_equal(out, brute_conv2d(x, weights.values()))
    assert seen == [lanes]


def test_packed_lanes_hold_their_extremes_exactly(monkeypatch):
    # all-ones spikes against all +1 and all -1 output channels put each
    # lane at +-taps, the packed sums at +-(lane + 1) * taps, over the whole
    # map of two row tiles
    cin, (h, w) = 321, (10, 5)
    taps = cin * 9
    assert (2 * taps + 2) * taps < 2**24
    seen = _record_gemm_rows(monkeypatch)
    signs = np.zeros((4, cin, 3, 3), dtype=np.uint8)
    signs[1:3] = 1  # +1, -1, -1, +1: lanes (0, 2) and (1, 3) are opposite
    out = schedule_conv_layer(np.ones((cin, h, w), dtype=np.uint8),
                              stage_weights(BinaryWeightTensor(signs), False), CFG)
    expected = np.array([taps, -taps, -taps, taps])[:, None, None]
    assert np.array_equal(out, np.broadcast_to(expected, (4, h - 2, w - 2)))
    assert seen == [2]


@pytest.mark.parametrize("case", ["odd_cout", "lowered_limit"])
def test_calls_outside_the_lane_bound_run_unpacked(rng, monkeypatch, case):
    cout = 3 if case == "odd_cout" else 4
    x = rng.integers(0, 2, (6, 9, 5))
    weights = BinaryWeightTensor(rng.integers(0, 2, (cout, 6, 3, 3), dtype=np.uint8))
    if case == "lowered_limit":
        # the lane bound of 6 * 9 taps reaches the lowered limit, so the
        # layer is staged unpacked, and its full matrix still runs in float32
        taps = 6 * 9
        monkeypatch.setattr(dataflow, "FLOAT32_EXACT_LIMIT", (2 * taps + 2) * taps)
    staged = dataflow.stage_weights(weights, False)
    assert not staged.packed and staged.matrix.shape == (3 * cout, 3 * 6)
    rows = _record_gemm_rows(monkeypatch)
    dtypes = _record_gemm_dtypes(monkeypatch)
    out = schedule_conv_layer(x, staged, CFG)
    assert np.array_equal(out, brute_conv2d(x, weights.values()))
    assert rows == [cout] and set(dtypes) == {np.dtype(np.float32)}


@given(_geometries())
def test_packed_schedule_equals_brute_force(geometry):
    # spikes on cout/2 lanes of any small geometry
    cfg, (cin, h, w), (half, kh, kw), seed = geometry
    rng = np.random.default_rng(seed)
    cin = min(cin, 12)
    weights = BinaryWeightTensor(
        rng.integers(0, 2, (2 * half, cin, kh, kw), dtype=np.uint8)
    )
    x = rng.integers(0, 2, (cin, h, w))
    with pytest.MonkeyPatch.context() as patch:
        rows = _record_gemm_rows(patch)
        out = schedule_conv_layer(x, stage_weights(weights, False), cfg)
    assert np.array_equal(out, brute_conv2d(x, weights.values()))
    assert set(rows) == {half}


# ---------------------------------------------------------------------------
# encoding schedule
# ---------------------------------------------------------------------------

def test_encoding_zero_input():
    w = BinaryWeightTensor(np.zeros((2, 1, 3, 3), dtype=np.uint8))
    out = schedule_encoding_layer(
        np.zeros((1, 5, 5), dtype=np.uint8), stage_weights(w, True), CFG)
    assert not out.any()


def test_encoding_bitplane_recomposition():
    # pixel value 5 = bits 0 and 2, +1 weight: shift-add recovers 5
    w = BinaryWeightTensor(np.zeros((1, 1, 1, 1), dtype=np.uint8))
    x = np.array([[[5]]], dtype=np.uint8)
    assert schedule_encoding_layer(x, stage_weights(w, True), CFG).tolist() == [[[5]]]


def test_encoding_matches_integer_oracle(rng):
    for _ in range(10):
        h, w = int(rng.integers(3, 12)), int(rng.integers(3, 12))
        x = rng.integers(0, 256, (3, h, w), dtype=np.uint8)
        weights = BinaryWeightTensor(rng.integers(0, 2, (4, 3, 3, 3), dtype=np.uint8))
        out = schedule_encoding_layer(x, stage_weights(weights, True), CFG)
        assert np.array_equal(out, conv2d_oracle(x, weights))


def test_encoding_grouping_beyond_block_budget(rng):
    # more than pe_blocks/8 input channels forces grouped passes
    x = rng.integers(0, 256, (6, 5, 5), dtype=np.int64)
    weights = BinaryWeightTensor(rng.integers(0, 2, (2, 6, 3, 3), dtype=np.uint8))
    out = schedule_encoding_layer(x, stage_weights(weights, True), CFG)
    assert np.array_equal(out, conv2d_oracle(x, weights))


def test_encoding_rejects_out_of_range_values():
    w = stage_weights(BinaryWeightTensor(np.zeros((1, 1, 1, 1), dtype=np.uint8)), True)
    for value in (256, -1):
        with pytest.raises(InvalidParameterError, match=r"must be in \[0, 255\]$"):
            schedule_encoding_layer(np.array([[[value]]]), w, CFG)


# ---------------------------------------------------------------------------
# cycle-by-cycle column stream (vecspike.pipeline)
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
        sched = schedule_conv_layer(x, stage_weights(weights, False), CFG)
        assert np.array_equal(stream.output, sched)
        assert np.array_equal(stream.output, conv2d_oracle(x, weights))


@pytest.mark.parametrize("arrays", [1, 2, 3, 4, 5])
def test_column_stream_uses_every_kernel_column(rng, arrays):
    cfg = HardwareConfig(arrays_per_block=arrays)
    for kw in range(1, arrays + 1):
        x = rng.integers(0, 2, (2, cfg.array_rows, kw + 4), dtype=np.uint8)
        weights = BinaryWeightTensor(
            rng.integers(0, 2, (2, 2, cfg.array_cols, kw), dtype=np.uint8)
        )
        stream = stream_conv_columns(x, weights, cfg)
        assert np.array_equal(stream.output, conv2d_oracle(x, weights))


def test_column_stream_constraints():
    x = np.zeros((1, 9, 5), dtype=np.uint8)
    w = BinaryWeightTensor(np.zeros((1, 1, 3, 3), dtype=np.uint8))
    with pytest.raises(ConfigError):
        stream_conv_columns(x, w, CFG)  # taller than one tile


@pytest.mark.parametrize("shape, message", [
    ((3, 3), r"input must be \[C\]\[H\]\[W\], got \(3, 3\)"),
    ((1, 1, 3, 3), r"input must be \[C\]\[H\]\[W\], got \(1, 1, 3, 3\)"),
    ((2, 5, 5), "input has 2 channels, weights expect 3"),
    ((4, 5, 5), "input has 4 channels, weights expect 3"),
])
def test_column_stream_refuses_a_map_the_oracle_refuses(shape, message):
    # worded as conv2d_oracle words it
    w = BinaryWeightTensor(np.zeros((1, 3, 3, 3), dtype=np.uint8))
    x = np.zeros(shape, dtype=np.uint8)
    for conv in (stream_conv_columns, lambda x, w, cfg: conv2d_oracle(x, w)):
        with pytest.raises(ShapeError, match=message):
            conv(x, w, CFG)


@pytest.mark.parametrize("value", [2, 256, 257, -1])
def test_column_stream_refuses_inputs_other_than_spikes(value):
    # a uint8 cast would stream 256 as 0 and 257 as 1, and a pixel check
    # would pass 2; the engine refuses what the register-level model refuses
    w = BinaryWeightTensor(np.zeros((1, 1, 3, 3), dtype=np.uint8))
    for conv, weights in (
        (stream_conv_columns, w), (schedule_conv_layer, stage_weights(w, False))
    ):
        with pytest.raises(InvalidParameterError):
            conv(np.full((1, 3, 3), value), weights, CFG)


# ---------------------------------------------------------------------------
# IF unit
# ---------------------------------------------------------------------------

def _plain_params(channels, threshold_real, bias_real=0.0):
    return FoldedNeuronParams(
        np.full(channels, Q(bias_real)),
        np.full(channels, Q(threshold_real)),
        np.zeros(channels, dtype=bool),
    )


def _neurons(params, *shape, dtype=np.int64):
    """``params`` staged directly, with no bound, on a zero membrane."""
    return StagedNeuronParams(params, np.zeros(shape, dtype=dtype))


def test_if_unit_zero_input_no_spikes():
    neurons = _neurons(_plain_params(2, 1.0), 2, 3, 3)
    spikes = if_unit_process(np.zeros((2, 3, 3), dtype=np.int64), neurons)
    assert not spikes.any()
    assert not neurons.membrane.any()


def test_if_unit_threshold_boundary_fires():
    spikes = if_unit_process(
        np.array([[[1]]], dtype=np.int64), _neurons(_plain_params(1, 1.0), 1, 1, 1)
    )
    assert spikes[0, 0, 0] == 1


def test_if_unit_encoding_iterate_period_two():
    # constant x with x < threshold <= 2x: spikes on steps 2 and 4
    neurons = _neurons(_plain_params(1, 1.5), 1, 1, 1)
    x = np.array([[[1]]], dtype=np.int64)
    pattern = []
    for _ in range(4):
        spikes = if_unit_process(x, neurons)
        pattern.append(int(spikes[0, 0, 0]))
    assert pattern == [0, 1, 0, 1]


def test_if_unit_flipped_channels():
    params = FoldedNeuronParams(
        np.zeros(2, dtype=np.int64),
        np.array([Q(1.0), Q(-1.0)]),
        np.array([False, True]),
    )
    conv = np.array([[[2]], [[-2]]], dtype=np.int64)
    spikes = if_unit_process(conv, _neurons(params, 2, 1, 1))
    assert spikes[:, 0, 0].tolist() == [1, 1]


def test_if_unit_shape_mismatch_and_overflow():
    params = _plain_params(1, 1.0)
    with pytest.raises(ShapeError):
        if_unit_process(np.zeros((2, 1, 1), dtype=np.int64), _neurons(params, 1, 1, 1))
    huge = np.full((1, 1, 1), FMT.raw_max, dtype=np.int64)
    with pytest.raises(FixedPointOverflowError):
        if_unit_process(huge, _neurons(params, 1, 1, 1))
    # a membrane with other channels than the parameters is refused when
    # the layer is staged, and left unwritten
    membrane = np.full((2, 1, 1), 7, dtype=np.int64)
    with pytest.raises(ShapeError, match=r"^1 parameter channels for membrane \(2, 1, 1\)"):
        StagedNeuronParams(params, membrane)
    assert membrane.tolist() == [[[7]], [[7]]]
    # so is a membrane that is not [C][H][W], which the [C][1][1] bias
    # would otherwise meet inside numpy on the first call
    flat = np.zeros((1, 2), np.int64)
    with pytest.raises(ShapeError, match=r"^membrane must be \[C\]\[H\]\[W\], got \(1, 2\)$"):
        StagedNeuronParams(FoldedNeuronParams([0], [256], [False]), flat)


@pytest.mark.parametrize("conv_sum", [1.9, 0.9])
def test_if_unit_and_oracle_refuse_a_fractional_sum(conv_sum):
    # truncation would fire 1.9 as 1 and integrate 0.9 as 0
    params = _plain_params(1, 1.0)
    x = np.array([[[conv_sum]]])
    with pytest.raises(ShapeError):
        if_unit_process(x, _neurons(params, 1, 1, 1))
    with pytest.raises(InvalidParameterError):
        list(core._if_run([core._weigh(x, params, FMT)], params, FMT))


def test_if_unit_writes_back_the_sum_or_zero_where_it_fired():
    params = _plain_params(1, 1.0)
    neurons = _neurons(params, 1, 1, 2)
    membrane = neurons.membrane
    spikes = if_unit_process(np.array([[[0, 1]]]), neurons)
    assert spikes.dtype == np.uint8 and spikes.tolist() == [[[0, 1]]]
    assert membrane.tolist() == [[[0, 0]]]
    if_unit_process(np.array([[[-3, 2]]]), StagedNeuronParams(_plain_params(1, 9.0), membrane))
    assert membrane.tolist() == [[[Q(-3.0), Q(2.0)]]]
    # a membrane the IF unit cannot run in is refused when the layer is
    # staged, and left unwritten
    for dtype in (np.int16, np.float64):
        other = np.full((1, 1, 2), 7, dtype=dtype)
        with pytest.raises(ShapeError, match="^membrane must be int32 or int64, got "):
            StagedNeuronParams(params, other)
        assert other.tolist() == [[[7, 7]]]
    wide = FixedPointFormat(62, 56)
    wide_params = FoldedNeuronParams([0], [wide.quantize(1.0)], [False], wide)
    with pytest.raises(ShapeError):
        if_unit_process(np.zeros((1, 1, 2), dtype=np.int64),
                        StagedNeuronParams(wide_params, membrane.astype(np.int32)))


@pytest.mark.parametrize(
    "conv_sum, potential",
    [
        (256, 0),  # 256 << 56 wrapped to 0: no spike, no fault
        (257, 0),  # wrapped to 1.0, which fired
        (-257, 0),
        (127, 2**61 - 1),  # the shift fits; the sum wraps out of the format
    ],
)
def test_if_unit_refuses_a_wrapping_left_shift(conv_sum, potential):
    wide = FixedPointFormat(62, 56)
    params = FoldedNeuronParams([0], [wide.quantize(1.0)], [False], wide)
    x = np.full((1, 1, 1), conv_sum, dtype=np.int64)
    neurons = StagedNeuronParams(params, np.full((1, 1, 1), potential, dtype=np.int64))
    with pytest.raises(FixedPointOverflowError):
        if_unit_process(x, neurons)


@st.composite
def _if_cases(draw):
    fmt = draw(st.sampled_from([FixedPointFormat(24, 8), FixedPointFormat(12, 4)]))
    steps, *shape = (draw(st.integers(1, n)) for n in (8, 4, 4, 4))
    # small sums fire and reset often; the widest reach every overflow path
    scale = draw(st.sampled_from([4, 2 ** (fmt.total_bits - fmt.frac_bits - 1), 2**63 - 1]))
    sums = draw(arrays(np.int64, (steps, *shape), elements=st.integers(-scale, scale)))
    raws = st.integers(fmt.raw_min, fmt.raw_max)
    near = st.integers(-4 * fmt.scale, 4 * fmt.scale)
    channels = shape[0]
    params = FoldedNeuronParams(
        draw(arrays(np.int64, channels, elements=st.one_of(near, raws))),
        draw(arrays(np.int64, channels, elements=st.one_of(near, raws))),
        draw(arrays(np.bool_, channels)),
        fmt,
    )
    return sums, params, fmt


@given(_if_cases())
# a spike at step 1, then a sum whose shift by 4 would wrap at step 2
@example((
    np.array([100, 2**59]).reshape(2, 1, 1, 1),
    FoldedNeuronParams([0], [0], [False], FixedPointFormat(12, 4)),
    FixedPointFormat(12, 4),
))
def test_engine_write_back_equals_the_oracle_lazy_reset(case):
    # the engine zeroes a fired neuron at once, the oracle on its next step:
    # spikes agree at every step, or both fault at the same step alike
    sums, params, fmt = case
    neurons = _neurons(params, *sums.shape[1:])
    for t in range(1, len(sums) + 1):
        try:
            weighted = (core._weigh(s, params, fmt) for s in sums[:t])
            expected = list(core._if_run(weighted, params, fmt))
        except FixedPointOverflowError as exc:
            with pytest.raises(FixedPointOverflowError) as info:
                if_unit_process(sums[t - 1], neurons)
            assert str(info.value) == str(exc)
            return
        spikes = if_unit_process(sums[t - 1], neurons)
        assert np.array_equal(spikes, expected[-1]), t


_PAST_INT32 = 2**23 - 2**16  # << 8 reaches 2**31 - 2**24: past the int32 room


@given(_if_cases())
@example((  # the first sum past the int32 room
    np.full((1, 1, 1, 1), _PAST_INT32),
    FoldedNeuronParams([0], [0], [False], FMT),
    FMT,
))
@example((  # one less is taken
    np.full((1, 1, 1, 1), _PAST_INT32 - 1),
    FoldedNeuronParams([0], [0], [False], FMT),
    FMT,
))
@example((  # 2**23 - 256 in the membrane, then (2**23 - 1) << 8: refused, kept
    np.array([2**15 - 1, 2**23 - 1]).reshape(2, 1, 1, 1),
    FoldedNeuronParams([0], [FMT.raw_max], [False], FMT),
    FMT,
))
@example((  # the lowest bias, and 2**23 - 256 in the membrane, under the
    # largest sum in the room: int32 holds 2**31 - 512, which faults
    np.array([-1, _PAST_INT32 - 1]).reshape(2, 1, 1, 1),
    FoldedNeuronParams([FMT.raw_min], [FMT.raw_max], [False], FMT),
    FMT,
))
@example((  # a spike at step 1, then a sum past the room at step 2
    np.array([100, 2**59]).reshape(2, 1, 1, 1),
    FoldedNeuronParams([0], [0], [False], FixedPointFormat(12, 4)),
    FixedPointFormat(12, 4),
))
def test_int32_write_back_equals_the_oracle_lazy_reset(case):
    # as for int64 membranes: spikes and membranes agree with an int64
    # engine at every step, or all fault at the same step with the
    # oracle's text; a sum past the int32 room is refused before any write
    sums, params, fmt = case
    neurons = _neurons(params, *sums.shape[1:], dtype=np.int32)
    wide = _neurons(params, *sums.shape[1:])
    for t in range(1, len(sums) + 1):
        if int(np.abs(sums[t - 1]).max()) << fmt.frac_bits >= 2**31 - 2**fmt.total_bits:
            kept = neurons.membrane.copy()
            with pytest.raises(ShapeError, match=" leaves no int32 room "):
                if_unit_process(sums[t - 1], neurons)
            assert np.array_equal(neurons.membrane, kept), t
            return
        try:
            weighted = (core._weigh(s, params, fmt) for s in sums[:t])
            expected = list(core._if_run(weighted, params, fmt))
        except FixedPointOverflowError as exc:
            with pytest.raises(FixedPointOverflowError) as info:
                if_unit_process(sums[t - 1], neurons)
            assert str(info.value) == str(exc)
            return
        spikes = if_unit_process(sums[t - 1], neurons)
        assert np.array_equal(spikes, expected[-1]), t
        if_unit_process(sums[t - 1], wide)
        assert np.array_equal(neurons.membrane, wide.membrane), t


def test_only_a_layer_staging_bounds_the_neuron_params_and_they_keep_to_their_membrane():
    # for_layer takes U from the staged weights' sum bound and the bias;
    # an object built directly has no bound, so its sums are checked and
    # its membrane scanned every step; each object writes its own membrane
    params = _plain_params(2, 1.0, bias_real=-2.0)
    weights = dataflow.stage_weights(
        BinaryWeightTensor(np.zeros((2, 3, 1, 1), dtype=np.uint8)), False)
    staged = StagedNeuronParams.for_layer(params, weights, (2, 1, 2))
    assert staged.peak == (3 << FMT.frac_bits) + Q(2.0)
    assert staged.membrane.dtype == np.int32 and not staged.membrane.any()
    x = np.array([[[1, 0]], [[0, 1]]])
    plain = _neurons(params, 2, 1, 2)
    expected = if_unit_process(x, plain)
    assert np.array_equal(if_unit_process(x, staged), expected)
    assert np.array_equal(staged.membrane, plain.membrane) and staged.steps == 1
    fmt = FixedPointFormat(30, 2)
    params = FoldedNeuronParams([fmt.raw_max], [fmt.raw_max], [False], fmt)
    unbounded = StagedNeuronParams(params, np.full((1, 1, 1), fmt.raw_min, dtype=np.int32))
    assert unbounded.peak is None
    with pytest.raises(ShapeError, match=r"^conv output peak 268435466 leaves no int32"):
        if_unit_process(np.full((1, 1, 1), 2**28 + 10), unbounded)
    assert unbounded.membrane.tolist() == [[[fmt.raw_min]]]


def test_if_unit_refuses_a_sum_past_the_int32_room():
    # a shifted sum of 2**30 + 40 leaves a 30-bit format no int32 room; the
    # bias and the membrane at the format's opposite edges bring it back
    # inside, which an int64 membrane takes and an int32 one is refused
    fmt = FixedPointFormat(30, 2)
    params = FoldedNeuronParams([fmt.raw_max], [fmt.raw_max], [False], fmt)
    neurons = StagedNeuronParams(params, np.full((1, 1, 1), fmt.raw_min, dtype=np.int32))
    x = np.full((1, 1, 1), 2**28 + 10)
    with pytest.raises(
        ShapeError, match=r"^conv output peak 268435466 leaves no int32 room in Fixed"
    ):
        if_unit_process(x, neurons)
    assert neurons.membrane.tolist() == [[[fmt.raw_min]]]
    wide = StagedNeuronParams(params, neurons.membrane.astype(np.int64))
    spikes = if_unit_process(x, wide)
    assert spikes.tolist() == [[[0]]] and wide.membrane.tolist() == [[[41]]]


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


def test_each_layer_membrane_follows_its_sum_bound(monkeypatch):
    # at 30/18 the int32 room holds bounds below 2**12: the encoding
    # layer's 255 * 9 meets it, the fc layer's 16 * 16 * 16 taps do not
    fmt = FixedPointFormat(30, 18)
    net = validate(parse_network("16Conv(encoding)-8fc"), (1, 16, 16))
    bundle = generate_random_bundle(net, seed=0, fmt=fmt)
    image = np.random.default_rng(0).integers(0, 4, (1, 16, 16), dtype=np.uint8)
    membranes = []
    fire = dataflow._if_fire

    def recording(update, neurons, fmt, out):
        membranes.append(neurons.membrane.dtype)
        return fire(update, neurons, fmt, out)

    monkeypatch.setattr(dataflow, "_if_fire", recording)
    cfg = HardwareConfig(total_bits=30, frac_bits=18)
    engine = run_network(net, bundle.weights, bundle.params, image, 4, cfg)
    assert membranes == [np.int32] * 4 + [np.int64] * 4
    oracle = run_network_oracle(net, bundle.weights, bundle.params, image, 4, fmt)
    assert all(a == b for a, b in zip(oracle.layer_trains, engine.layer_trains))
    assert all(train.spike_count() for train in engine.layer_trains)


def test_preset_layers_keep_int32_membranes_at_the_default_format():
    # the 24/8 room holds bounds up to 8,323,071, far above the presets'
    # largest, cifar10's encoding layer: 255 * 3 * 3 * 3
    assert dataflow._int32_room(8_323_071, FMT)
    assert not dataflow._int32_room(8_323_072, FMT)
    bounds = [
        dataflow.stage_weights(
            BinaryWeightTensor(np.zeros(layer.weight_shape, dtype=np.uint8)),
            layer.kind == "encoding-conv",
        ).bound
        for name in ("mnist", "cifar10")
        for layer in preset_network(name, 8)[0].layers
        if layer.has_weights
    ]
    assert max(bounds) == 255 * 27 == 6885


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
    # LayerRun.report is computed once per layer; it must equal the merge of
    # the reports of the schedule calls run_network makes, one per step,
    # each taken from the geometry of the call
    calls = []

    def recording(schedule, encoding):
        def wrapper(x, weights, cfg):
            kh, kw = weights.kernel
            cout = len(weights.matrix) // kh * (2 if weights.packed else 1)
            report = conv_layer_report(
                weights.in_channels, cout, *x.shape[1:],
                kh, kw, cfg, encoding=encoding,
            )
            calls.append((weights, report))
            return schedule(x, weights, cfg)
        return wrapper

    for name, encoding in (
        ("schedule_conv_layer", False), ("schedule_encoding_layer", True)
    ):
        monkeypatch.setattr(dataflow, name, recording(getattr(dataflow, name), encoding))
    for case in range(6):
        net, input_shape = random_network(rng, max_dim=12, max_channels=40)
        bundle = generate_random_bundle(net, seed=case)
        image = rng.integers(0, 256, input_shape, dtype=np.uint8)
        steps = int(rng.integers(1, 6))
        calls.clear()
        engine = run_network(net, bundle.weights, bundle.params, image, steps, CFG)
        # each weighted layer's calls share the weights staged for it
        staged = iter(dict.fromkeys(w for w, _ in calls))
        for run, weights in zip(engine.layers, bundle.weights):
            layer_weights = None if weights is None else next(staged)
            merged = CycleReport()
            for w, report in calls:
                if w is layer_weights:
                    merged = merged.merged(report)
            assert run.report == merged
        n_spiking = sum(layer.kind in ("conv", "fc") for layer in net.layers)
        assert len(calls) == 1 + n_spiking * steps


def test_run_network_refuses_a_network_that_is_not_validated():
    text = "4Conv(encoding)-4Conv"
    bundle = generate_random_bundle(validate(parse_network(text), (1, 4, 4)), seed=0)
    image = random_input((1, 4, 4), 0)
    with pytest.raises(ValidationError, match="needs a validated network"):
        run_network(parse_network(text), bundle.weights, bundle.params, image, 2, CFG)


@pytest.mark.parametrize("defect", ["weights", "params", "null_weight"])
def test_run_network_refuses_lists_shorter_than_the_layers(defect):
    # a list one entry short, or a weighted layer's weight entry None
    net = validate(parse_network("4Conv(encoding)-MP2-4Conv"), (1, 4, 4))
    bundle = generate_random_bundle(net, seed=0)
    weights, params = list(bundle.weights), list(bundle.params)
    if defect == "null_weight":
        weights[2] = None
        message = r"layer 2 \(conv\) has no weight entry"
    else:
        (weights if defect == "weights" else params).pop()
        message = "entries for 3 layers"
    with pytest.raises(ShapeError, match=message):
        run_network(net, weights, params, random_input((1, 4, 4), 0), 2, CFG)


def test_run_network_names_an_image_of_the_wrong_shape():
    net = validate(parse_network("4Conv(encoding)-4Conv"), (1, 4, 4))
    bundle = generate_random_bundle(net, seed=0)
    image = random_input((1, 6, 6), 0)
    with pytest.raises(ShapeError, match=r"image shape \(1, 6, 6\) .* \(1, 4, 4\)"):
        run_network(net, bundle.weights, bundle.params, image, 2, CFG)


@pytest.mark.parametrize(
    "defect, error, message",
    [
        ("out_channels", ShapeError,
         "layer 2 (conv) weights are (32, 64, 3, 3), expected (64, 64, 3, 3)"),
        ("kernel", ShapeError,
         "layer 2 (conv) weights are (64, 64, 5, 5), expected (64, 64, 3, 3)"),
        ("param_channels", ShapeError,
         "layer 2 (conv) parameters cover 5 channels, expected 64"),
        ("param_fmt", InvalidParameterError,
         "layer 0 (encoding-conv) parameters use "
         f"{FixedPointFormat(24, 12)}, the run {FMT}"),
    ],
    ids=["out_channels", "kernel", "param_channels", "param_fmt"],
)
def test_both_runs_refuse_a_bundle_that_does_not_fit(monkeypatch, defect, error, message):
    # before this check the oracle broadcast a wrong channel count into a
    # bare ValueError, the two runs refused a 5x5 kernel with different
    # errors, and both fired from parameters read at the wrong scale
    net, shape = preset_network("mnist", 2)
    bundle = generate_random_bundle(net, seed=0)
    weights, params = list(bundle.weights), list(bundle.params)
    if defect in ("out_channels", "kernel"):
        bad = (32, 64, 3, 3) if defect == "out_channels" else (64, 64, 5, 5)
        weights[2] = BinaryWeightTensor(np.zeros(bad, dtype=np.uint8))
    elif defect == "param_channels":
        p = params[2]
        params[2] = FoldedNeuronParams(p.bias_raw[:5], p.threshold_raw[:5], p.flipped[:5])
    else:
        wide = FixedPointFormat(24, 12)
        params = [
            None if p is None
            else FoldedNeuronParams(p.bias_raw, p.threshold_raw, p.flipped, wide)
            for p in params
        ]

    def refuse(*args, **kwargs):
        raise AssertionError("a layer ran before the entry checks")

    monkeypatch.setattr(core, "conv2d_oracle", refuse)
    monkeypatch.setattr(dataflow, "stage_weights", refuse)
    image = random_input(shape, 0)
    with pytest.raises(error) as oracle:
        run_network_oracle(net, weights, params, image, 2)
    with pytest.raises(error) as engine:
        run_network(net, weights, params, image, 2, CFG)
    assert str(oracle.value) == str(engine.value) == message


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


@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(1, 5),
    st.integers(1, 5),
    st.integers(0, 2**32 - 1),
)
@example(1, 1, 1, 1, 0)
def test_engine_pooling_matches_oracle_per_step(steps, channels, half_h, half_w, seed):
    train = np.random.default_rng(seed).integers(
        0, 2, (steps, channels, 2 * half_h, 2 * half_w), dtype=np.uint8
    )
    pooled = dataflow._or_pool2(train)
    expected = np.stack([maxpool2_oracle(step) for step in train])
    assert pooled.dtype == expected.dtype == np.uint8
    assert np.array_equal(pooled, expected)


@pytest.mark.parametrize("steps", [1, 3, 8])
def test_fc_after_pooling_reports_as_a_flattened_1x1_convolution(steps):
    net = validate(parse_network("4Conv(encoding)-MP2-6Conv-MP2-5fc"), (1, 8, 8))
    report, _ = layer_accounting(net.layers[-1], CFG, steps)
    assert report == conv_layer_report(6 * 2 * 2, 5, 1, 1, 1, 1, CFG).scaled(steps)


@pytest.mark.parametrize("preset, weighted", [("mnist", 4), ("cifar10", 13)])
def test_run_network_accounts_each_weighted_layer_once(monkeypatch, preset, weighted):
    # cycles and boundary use are fixed by a layer's geometry, so they are
    # computed once per layer, not once per time step
    calls = {"conv_layer_report": 0, "_tile_boundary": 0}

    def counting(name):
        original = getattr(geometry, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(geometry, name, counting(name))
    net, shape = preset_network(preset, 8)
    bundle = generate_random_bundle(net, seed=0)
    image = random_input(shape, 0)
    run_network(net, bundle.weights, bundle.params, image, 8, CFG)
    assert sum(layer.has_weights for layer in net.layers) == weighted
    assert calls == {"conv_layer_report": weighted, "_tile_boundary": weighted}


@pytest.mark.parametrize("preset, weighted, tiles", [("mnist", 4, 25), ("cifar10", 13, 97)])
def test_run_network_stages_each_weighted_layer_once(monkeypatch, preset, weighted, tiles):
    staged = []
    stage = dataflow.stage_weights

    def counting(*args):
        staged.append(stage(*args))
        return staged[-1]

    monkeypatch.setattr(dataflow, "stage_weights", counting)
    seen = _record_gemm_dtypes(monkeypatch, lambda w_mat, kh: w_mat)
    net, shape = preset_network(preset, 8)
    bundle = generate_random_bundle(net, seed=0)
    run_network(net, bundle.weights, bundle.params, random_input(shape, 0), 8, CFG)
    assert len(staged) == weighted
    # one GEMM for the encoding layer, one per step for every other, each
    # on its layer's staged operand itself: no per-call cast or copy
    operands = [staged[0].matrix] + [s.matrix for s in staged[1:] for _ in range(8)]
    assert len(seen) == tiles == len(operands) == 1 + (weighted - 1) * 8
    assert all(a is b for a, b in zip(seen, operands))


def test_every_gemm_operand_of_the_engine_is_a_bit(rng, monkeypatch):
    # the PEs are AND gates: every tile, the encoding layer's
    # bitplanes included, holds only 0 and 1, never pixels
    tiles = []
    kernel = dataflow._tile_partial_rows

    def spy(x_tile, weights):
        tiles.append((x_tile.ndim, bool(np.isin(x_tile, (0, 1)).all())))
        return kernel(x_tile, weights)

    monkeypatch.setattr(dataflow, "_tile_partial_rows", spy)
    for net, shape in (preset_network("mnist", 8), random_network(rng, max_channels=40)):
        bundle = generate_random_bundle(net, seed=0)
        run_network(net, bundle.weights, bundle.params, random_input(shape, 0), 2, CFG)
    assert any(ndim == 4 for ndim, _ in tiles)  # the encoding bitplanes
    assert all(bits for _, bits in tiles)


@pytest.mark.parametrize(
    "schedule, cin, h, w, kernel, high",
    [
        (schedule_conv_layer, 5, 19, 7, (3, 3), 2),
        (schedule_conv_layer, 40, 17, 6, (2, 3), 2),
        (schedule_encoding_layer, 3, 17, 6, (3, 3), 256),
    ],
    ids=["conv", "conv-2x3", "encoding"],
)
def test_no_gemm_operand_holds_a_halo_row(
    rng, monkeypatch, schedule, cin, h, w, kernel, high
):
    # the step's one GEMM multiplies the padded input's own rows, and does
    # 2*kh*kw*cout*cin*h*w_out flops, none on a zero halo row; spike inputs
    # run on cout/2 packed weight lanes, and the encoding layer's 8
    # bitplanes fold into the inner dimension K = kw*8*cin
    tiles, flops = [], 0
    kernel_fn = dataflow._tile_partial_rows

    def spy(x_tile, weights):
        nonlocal flops
        tiles.append(np.array(x_tile))
        m, k = weights.matrix.shape
        n = x_tile.shape[-2] * (x_tile.shape[-1] - weights.kernel[1] + 1)
        flops += 2 * m * k * n
        return kernel_fn(x_tile, weights)

    monkeypatch.setattr(dataflow, "_tile_partial_rows", spy)
    x = rng.integers(0, high, (cin, h, w))
    cout, (kh, kw) = 4, kernel
    weights = BinaryWeightTensor(rng.integers(0, 2, (cout, cin, kh, kw), dtype=np.uint8))
    staged = stage_weights(weights, schedule is schedule_encoding_layer)
    assert np.array_equal(schedule(x, staged, CFG), conv2d_oracle(x, weights))
    assert len(tiles) == 1
    rows = tiles[0]
    if schedule is schedule_encoding_layer:
        rows = np.tensordot(2 ** np.arange(8), rows, axes=1)
    assert np.array_equal(rows, x)
    planes, lanes = (8, cout) if schedule is schedule_encoding_layer else (1, cout // 2)
    assert flops == 2 * kh * kw * lanes * cin * h * (w - kw + 1) * planes


def test_readme_states_the_presets_gemm_flops():
    # 2*M*K*N per GEMM on the staged operands at T=8, N being the padded
    # map's rows times w_out; the encoding layer is scheduled once and every
    # other layer once per step, and a packed operand has half the rows
    readme = " ".join(README.read_text(encoding="utf-8").split())
    gflop = {}
    for name in ("cifar10", "mnist"):
        net, _ = preset_network(name, 8)
        packed = unpacked = 0
        for layer in net.layers:
            if not layer.has_weights:
                continue
            encoding = layer.kind == "encoding-conv"
            staged = stage_weights(
                BinaryWeightTensor(np.zeros(layer.weight_shape, dtype=np.uint8)), encoding
            )
            (m, k), pad = staged.matrix.shape, layer.padding
            _, h, w = layer.in_shape
            n = (h + 2 * pad) * (w + 2 * pad - layer.kernel[1] + 1)
            flops = 2 * m * k * n * (1 if encoding else 8)
            packed += flops
            unpacked += 2 * flops if staged.packed else flops
        gflop[name] = (packed / 1e9, unpacked / 1e9)
    cifar10, mnist = gflop["cifar10"], gflop["mnist"]
    assert round(cifar10[0], 3) == 6.862 and round(cifar10[1], 3) == 13.648
    assert round(mnist[0], 4) == 0.0802 and round(mnist[1], 4) == 0.1463
    assert (
        f"A cifar10 image's GEMMs do {cifar10[0]:.2f} GFLOP ({cifar10[1]:.2f} "
        f"unpacked), and an mnist image's {mnist[0]:.3f} ({mnist[1]:.3f} unpacked)."
    ) in readme


def test_encoding_layer_forms_its_if_update_once(monkeypatch):
    # the encoding sums repeat every step, so their update is formed once
    # per layer; spiking layers form one per step, inside if_unit_process
    calls = {"_if_update": 0, "if_unit_process": 0}

    def counting(name):
        original = getattr(dataflow, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(dataflow, name, counting(name))
    net = validate(parse_network("4Conv(encoding)-MP2-6Conv-5fc"), (1, 6, 6))
    bundle = generate_random_bundle(net, seed=2)
    image = random_input((1, 6, 6), 2)
    engine = run_network(net, bundle.weights, bundle.params, image, 5, CFG)
    oracle = run_network_oracle(net, bundle.weights, bundle.params, image, 5)
    assert calls == {"_if_update": 1 + 2 * 5, "if_unit_process": 2 * 5}
    assert all(a == b for a, b in zip(engine.layer_trains, oracle.layer_trains))


@pytest.mark.parametrize("total_bits", [24, 40])
def test_encoding_membrane_faults_at_the_oracle_step_and_text(total_bits):
    # 255 * 9 << 8 per step, never firing, leaves a 24-bit format at step
    # 15; a 40-bit format (int64 membrane) holds all 16 steps
    cfg = HardwareConfig(total_bits=total_bits)
    net = validate(parse_network("2Conv(encoding)"), (1, 3, 3))
    weights = [BinaryWeightTensor(np.zeros((2, 1, 3, 3), dtype=np.uint8))]
    threshold = cfg.fmt.raw_max >> ENCODING_SHIFT  # scaled, just inside the format
    params = [FoldedNeuronParams([0, 0], [threshold] * 2, [False] * 2, cfg.fmt)]
    image = np.full((1, 3, 3), 255, dtype=np.uint8)
    try:
        oracle = run_network_oracle(net, weights, params, image, 16, cfg.fmt)
    except FixedPointOverflowError as exc:
        assert total_bits == 24
        with pytest.raises(FixedPointOverflowError) as info:
            run_network(net, weights, params, image, 16, cfg)
        assert str(info.value) == str(exc)
        assert "raw 8812800 " in str(exc)  # 15 * 587520
        return
    assert total_bits == 40
    engine = run_network(net, weights, params, image, 16, cfg)
    assert engine.layer_trains[0] == oracle.layer_trains[0]


def _record_scans(monkeypatch):
    """Every IF step of the engine, in order: the membrane's shape and
    dtype, the step number and whether the membrane was range-scanned."""
    log, scans = [], []
    check = FixedPointFormat.check_raw

    def checking(self, raw, context="value"):
        if context == "membrane potential":
            scans.append(raw)
        return check(self, raw, context)

    fire = dataflow._if_fire

    def firing(update, neurons, fmt, out):
        scans.clear()
        try:
            return fire(update, neurons, fmt, out)
        finally:
            v = neurons.membrane
            log.append((v.shape, v.dtype, neurons.steps, bool(scans)))

    monkeypatch.setattr(FixedPointFormat, "check_raw", checking)
    monkeypatch.setattr(dataflow, "_if_fire", firing)
    return log


def _steps_past_the_bound(net, bundle, image, time_steps, fmt):
    """Per weighted layer, the steps t with t * U > raw_max, which alone
    need the membrane's range scan.  U is a spiking layer's
    ``(taps << frac_bits) + max|bias|``, and the peak of the encoding
    layer's update, weighed here by the oracle."""
    steps = []
    for layer, weights, params in zip(net.layers, bundle.weights, bundle.params):
        if weights is None:
            continue
        if layer.kind == "encoding-conv":
            sums = conv2d_oracle(image, weights, layer.padding)
            update = core._weigh(sums, params.scaled_by_pow2(ENCODING_SHIFT), fmt)
            peak = int(np.abs(update.astype(np.int64)).max())
        else:
            taps = int(np.prod(weights.shape[1:]))
            peak = (taps << fmt.frac_bits) + int(np.abs(params.bias_raw).max())
        steps.append([t for t in range(1, time_steps + 1) if t * peak > fmt.raw_max])
    return steps


@pytest.mark.parametrize(
    "case, past",
    [
        ("mnist", {}),
        # 8 * (4096 << 8) alone is raw_max + 1: cifar10's first fc layer,
        # weighted layer 11, is past its bound on step 8 only
        ("cifar10", {11: [8]}),
        # a 9248-input fc layer clears three steps
        ("fc9248", {1: [4, 5, 6]}),
    ],
)
def test_membranes_scan_on_exactly_the_steps_past_the_bound(monkeypatch, case, past):
    if case == "fc9248":
        shape, steps = (1, 34, 34), 6
        net = validate(parse_network("8Conv(encoding)-4fc"), shape)
    else:
        steps = 8
        net, shape = preset_network(case, steps)
    bundle = generate_random_bundle(net, seed=0)
    image = random_input(shape, 0)
    log = _record_scans(monkeypatch)
    engine = run_network(net, bundle.weights, bundle.params, image, steps, CFG)
    expected = _steps_past_the_bound(net, bundle, image, steps, FMT)
    assert {i: s for i, s in enumerate(expected) if s} == past
    assert len(log) == steps * len(expected)
    assert [step for _, _, step, _ in log] == list(range(1, steps + 1)) * len(expected)
    scanned = [
        [step for _, _, step, scan in log[i * steps : (i + 1) * steps] if scan]
        for i in range(len(expected))
    ]
    assert scanned == expected
    oracle = run_network_oracle(net, bundle.weights, bundle.params, image, steps)
    assert all(a == b for a, b in zip(oracle.layer_trains, engine.layer_trains))


@pytest.mark.parametrize(
    "fmt, dtype, first",
    [(FixedPointFormat(24, 8), np.int32, 10), (FixedPointFormat(40, 26), np.int64, 3)],
    ids=["int32", "int64"],
)
def test_a_membrane_past_its_bound_faults_at_the_oracle_step_and_text(
    monkeypatch, fmt, dtype, first
):
    # every spike is 1 (the encoding threshold is 0) and every weight +1,
    # so each fc step adds U = taps << frac_bits itself: after step t the
    # membrane is t * U, and it leaves the format on the first step that
    # the bound rule scans
    net = validate(parse_network("33Conv(encoding)-2fc"), (1, 10, 10))
    weights = [BinaryWeightTensor(np.zeros(layer.weight_shape, dtype=np.uint8))
               for layer in net.layers]
    params = [
        FoldedNeuronParams([0] * 33, [0] * 33, [False] * 33, fmt),
        FoldedNeuronParams([0, 0], [fmt.raw_max] * 2, [False] * 2, fmt),
    ]
    image = np.full((1, 10, 10), 255, dtype=np.uint8)
    peak = (33 * 10 * 10) << fmt.frac_bits
    assert (first - 1) * peak <= fmt.raw_max < first * peak
    with pytest.raises(FixedPointOverflowError) as oracle:
        run_network_oracle(net, weights, params, image, first + 2, fmt)
    log = _record_scans(monkeypatch)
    cfg = HardwareConfig(total_bits=fmt.total_bits, frac_bits=fmt.frac_bits)
    with pytest.raises(FixedPointOverflowError) as engine:
        run_network(net, weights, params, image, first + 2, cfg)
    assert str(engine.value) == str(oracle.value)
    assert str(oracle.value).startswith(f"membrane potential: raw {first * peak} ")
    fc = [(v_dtype, step, scan) for shape, v_dtype, step, scan in log if shape == (2, 1, 1)]
    assert fc == [(np.dtype(dtype), t, t == first) for t in range(1, first + 1)]


def test_each_spiking_layer_reuses_one_product_buffer_and_returns_owned_sums(monkeypatch):
    # the im2col and product buffers live with the staged layer; each
    # schedule call returns new sums that no later call writes
    products, results = [], []
    kernel = dataflow._tile_partial_rows

    def spy(x, weights):
        out = kernel(x, weights)
        products.append((weights, out))
        return out

    schedule = dataflow.schedule_conv_layer

    def recording(x, weights, cfg):
        sums = schedule(x, weights, cfg)
        results.append((sums, sums.copy()))
        return sums

    monkeypatch.setattr(dataflow, "_tile_partial_rows", spy)
    monkeypatch.setattr(dataflow, "schedule_conv_layer", recording)
    net, shape = preset_network("mnist", 8)
    bundle = generate_random_bundle(net, seed=0)
    run_network(net, bundle.weights, bundle.params, random_input(shape, 0), 8, CFG)
    layers = {}
    for weights, out in products:
        layers.setdefault(weights, []).append(out.base)
    spiking = [bases for weights, bases in layers.items() if not weights.encoding]
    assert [len(bases) for bases in spiking] == [8, 8, 8]
    assert all(base is bases[0] for bases in spiking for base in bases)
    buffers = [bases[0] for bases in layers.values()]
    assert len(results) == 24
    for sums, copy in results:
        assert not any(np.shares_memory(sums, buffer) for buffer in buffers)
        assert np.array_equal(sums, copy)


@pytest.mark.parametrize("total_bits, dtype", [(24, np.int32), (30, np.int32), (31, np.int64)])
def test_run_network_membranes_are_int32_up_to_30_bits(monkeypatch, total_bits, dtype):
    cfg = HardwareConfig(total_bits=total_bits)
    seen = []
    process = dataflow.if_unit_process

    def spy(conv_out, neurons):
        seen.append(neurons)
        return process(conv_out, neurons)

    monkeypatch.setattr(dataflow, "if_unit_process", spy)
    net = validate(parse_network("4Conv(encoding)-MP2-6Conv-5fc"), (1, 6, 6))
    bundle = generate_random_bundle(net, seed=3, fmt=cfg.fmt)
    image = random_input((1, 6, 6), 3)
    engine = run_network(net, bundle.weights, bundle.params, image, 4, cfg)
    oracle = run_network_oracle(net, bundle.weights, bundle.params, image, 4, cfg.fmt)
    assert {neurons.membrane.dtype for neurons in seen} == {np.dtype(dtype)}
    # configured once per layer: every step of a spiking layer gets the
    # layer's one staged object
    conv, fc = seen[0], seen[4]
    assert seen == [conv] * 4 + [fc] * 4 and conv is not fc
    assert all(a == b for a, b in zip(engine.layer_trains, oracle.layer_trains))


def _traced_peak(run):
    """The tracemalloc peak of ``run()`` above what was traced before it."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_the_engine_peaks_at_most_6_mib_on_cifar10():
    # trains stay packed between layers and each step's input is unpacked
    # into the layer's one padded buffer, so the 128x32x32 layers peak
    # near 5.1 MiB and the 4096-input fc layer, whose 4 MiB +-1 operand is
    # built with no second temporary of its size, near 5.8 MiB
    net, shape = preset_network("cifar10", 8)
    bundle = generate_random_bundle(net, seed=0)
    image = random_input(shape, 0)
    engine = _traced_peak(
        lambda: run_network(net, bundle.weights, bundle.params, image, 8, CFG))
    assert engine <= 6.0 * 2**20


@pytest.mark.parametrize("preset, mib", [("cifar10", 6.0), ("mnist", 2.25)])
def test_a_verify_item_peaks_at_most(preset, mib):
    # a verify item runs both, so the higher peak is the item's.  With
    # every [T] train unpacked beside the GEMM workspace, cifar10 read
    # 7.18 (engine) and 6.96 MiB (oracle), mnist 2.44 and 2.43 MiB
    net, shape = preset_network(preset, 8)
    bundle = generate_random_bundle(net, seed=0)
    image = random_input(shape, 0)
    engine = _traced_peak(
        lambda: run_network(net, bundle.weights, bundle.params, image, 8, CFG))
    oracle = _traced_peak(
        lambda: run_network_oracle(net, bundle.weights, bundle.params, image, 8))
    assert max(engine, oracle) <= mib * 2**20


def test_the_runs_build_every_train_from_packed_steps():
    # neither run packs or rescans a whole unpacked train: SpikeTrain's
    # constructor from unpacked data goes unused
    net = validate(parse_network("4Conv(encoding)-MP2-6Conv-5fc"), (1, 8, 8))
    bundle = generate_random_bundle(net, seed=2)
    image = random_input((1, 8, 8), 2)

    def refuse(*args):
        raise AssertionError("a whole unpacked train was packed")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SpikeTrain, "__init__", refuse)
        engine = run_network(net, bundle.weights, bundle.params, image, 3, CFG)
        oracle = run_network_oracle(net, bundle.weights, bundle.params, image, 3)
    assert engine.layer_trains == oracle.layer_trains
    assert np.array_equal(engine.class_counts, oracle.class_counts)
    for train in engine.layer_trains:
        assert train == SpikeTrain(train.data)
        assert train.spike_count() == int(train.data.sum())
    last = engine.layer_trains[-1].data
    assert np.array_equal(engine.class_counts, last.sum(axis=(0, 2, 3)))


def test_the_engine_pools_each_step_as_its_layer_fires(monkeypatch):
    # a pool, or a chain of pools, takes its layer's unpacked step before it
    # is packed, so only the weighted layers after the first unpack a train
    net = validate(parse_network("4Conv(encoding)-MP2-MP2-3fc"), (1, 8, 8))
    bundle = generate_random_bundle(net, seed=3)
    image = random_input((1, 8, 8), 3)
    steps = []
    unpack = SpikeTrain.step

    def spy(train, t):
        steps.append(t)
        return unpack(train, t)

    monkeypatch.setattr(SpikeTrain, "step", spy)
    engine = run_network(net, bundle.weights, bundle.params, image, 3, CFG)
    assert steps == [0, 1, 2]
    monkeypatch.undo()
    oracle = run_network_oracle(net, bundle.weights, bundle.params, image, 3)
    assert engine.layer_trains == oracle.layer_trains
    assert [(run.index, run.kind) for run in engine.layers] == [
        (0, "encoding-conv"), (1, "maxpool2"), (2, "maxpool2"), (3, "fc")]
    for run, train in zip(engine.layers, engine.layer_trains):
        assert train.shape == (3, *net.layers[run.index].out_shape)
        assert run.spike_count == train.spike_count() == int(train.data.sum())
        assert run.report == layer_accounting(net.layers[run.index], CFG, 3)[0]


def test_the_runs_need_no_numpy_2_popcount(monkeypatch):
    # np.bitwise_count first shipped in NumPy 2.0 and the package allows 1.24
    net = validate(parse_network("4Conv(encoding)-MP2-6Conv-5fc"), (1, 8, 8))
    bundle = generate_random_bundle(net, seed=4)
    image = random_input((1, 8, 8), 4)
    monkeypatch.delattr(np, "bitwise_count", raising=False)
    engine = run_network(net, bundle.weights, bundle.params, image, 3, CFG)
    oracle = run_network_oracle(net, bundle.weights, bundle.params, image, 3)
    assert engine.layer_trains == oracle.layer_trains
    for train, run in zip(engine.layer_trains, engine.layers):
        count = int(train.data.sum())
        assert run.spike_count == train.spike_count() == count
        rows = np.packbits(train.data.reshape(3, -1), axis=1)
        assert SpikeTrain.from_rows(rows, train.shape).spike_count() == count
