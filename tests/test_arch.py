import numpy as np
import pytest

from vecspike.arch import CycleReport, HardwareConfig, peak_gops
from vecspike.errors import ConfigError, ScheduleFault, ShapeError
from vecspike.pipeline import (
    GroupAccumulator,
    PEArrayState,
    accumulate_stage1,
    accumulate_tree,
    pe_array_cycle,
    pe_multiply,
    pe_multiply_bits,
)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_default_config_geometry():
    cfg = HardwareConfig()
    assert cfg.pe_count == 32 * 3 * 8 * 3 == 2304
    # a spiking pass maps one input channel per PE block
    assert cfg.group_size == cfg.pe_blocks == 32
    assert HardwareConfig(pe_blocks=16).group_size == 16
    assert cfg.encoding_channels_per_pass == 4
    assert cfg.param_bytes == 3
    # the default buffer split sums to 230.3125 KiB
    sram = (2 * (cfg.spike_sram_bytes + cfg.weight_sram_bytes + cfg.membrane_sram_bytes)
            + cfg.temp_sram_bytes + cfg.boundary_sram_bytes)
    assert sram == int(230.3125 * 1024)


def test_config_validation():
    with pytest.raises(ConfigError, match="unknown config fields"):
        HardwareConfig().replace(group_size=32)  # derived from pe_blocks
    with pytest.raises(ConfigError):
        HardwareConfig(pe_blocks=0)
    with pytest.raises(ConfigError):
        HardwareConfig(clock_hz=0)
    with pytest.raises(ConfigError):
        HardwareConfig().replace(nonsense=1)


@pytest.mark.parametrize(
    "fields",
    [
        {"arrays_per_block": 2.5},
        {"clock_hz": float("nan")},
        {"clock_hz": float("inf")},
        {"array_rows": True},
        {"pe_blocks": "32"},
        {"pe_blocks": 10**400},
        {"clock_hz": 1e300},
    ],
)
def test_config_rejects_wrongly_typed_fields(fields):
    with pytest.raises(ConfigError):
        HardwareConfig(**fields)


@pytest.mark.parametrize(
    "name",
    ["spike_sram_bytes", "weight_sram_bytes", "membrane_sram_bytes",
     "temp_sram_bytes", "boundary_sram_bytes"],
)
def test_config_rejects_negative_sram_capacities(name):
    with pytest.raises(ConfigError):
        HardwareConfig(**{name: -1})
    # an absent buffer is legal; using it faults as modeled
    assert getattr(HardwareConfig(**{name: 0}), name) == 0


def test_peak_gops_values():
    assert peak_gops(HardwareConfig()) == 2304.0
    one_pe = HardwareConfig(
        pe_blocks=1, arrays_per_block=1, array_rows=1, array_cols=1,
        clock_hz=1e9,
    )
    assert peak_gops(one_pe) == 2.0
    small = HardwareConfig(
        pe_blocks=16, arrays_per_block=1, array_rows=8, array_cols=1,
        clock_hz=2e8,
    )
    assert small.pe_count == 128
    assert peak_gops(small) == pytest.approx(51.2)


def test_halved_clock_halves_peak():
    cfg = HardwareConfig()
    assert peak_gops(cfg.replace(clock_hz=cfg.clock_hz / 2)) == 1152.0


# ---------------------------------------------------------------------------
# PE primitives (vecspike.pipeline, the register-level model)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "spike,sign,value,bits",
    [
        (0, 0, 0, (0, 0)),
        (0, 1, 0, (0, 0)),
        (1, 0, 1, (0, 1)),
        (1, 1, -1, (1, 1)),
    ],
)
def test_pe_multiply_truth_table(spike, sign, value, bits):
    assert pe_multiply(spike, sign) == value
    assert pe_multiply_bits(spike, sign) == bits
    # the bit pattern is the two-bit two's-complement encoding of the value
    hi, lo = bits
    assert -2 * hi + lo == value


def test_pe_multiply_matches_sign_arithmetic():
    for spike in (0, 1):
        for sign in (0, 1):
            assert pe_multiply(spike, sign) == spike * (1 - 2 * sign)


def test_pe_array_cycle_zero_input_leaves_registers_unchanged():
    state = PEArrayState(rows=4, cols=3)
    state.partial[:] = 7
    pe_array_cycle(state, np.zeros(4, dtype=np.uint8), np.ones(3, dtype=np.uint8))
    assert (state.partial == 7).all()


def test_pe_array_cycle_all_ones_diagonal_profile():
    # 5 input bits against 3 positive weights: seven diagonal sums
    state = PEArrayState(rows=5, cols=3)
    sums = pe_array_cycle(state, np.ones(5, dtype=np.uint8), np.zeros(3, dtype=np.uint8))
    assert sums.tolist() == [1, 2, 3, 3, 3, 2, 1]


def test_pe_array_cycle_equals_one_dim_convolution(rng):
    # partial[r + k] += in[r] * w[k] is exactly np.convolve of the two
    # register contents (correlation semantics come from loading kernel
    # columns reversed, which the column stream does at weight-load time)
    for _ in range(20):
        state = PEArrayState(rows=8, cols=3)
        inp = rng.integers(0, 2, 8, dtype=np.uint8)
        signs = rng.integers(0, 2, 3, dtype=np.uint8)
        sums = pe_array_cycle(state, inp, signs)
        signed = 1 - 2 * signs.astype(np.int64)
        expected = np.convolve(inp.astype(np.int64), signed)
        assert np.array_equal(sums, expected)
        # per-cycle register bound
        assert np.abs(sums).max() <= min(8, 3)


def test_pe_array_cycle_rejects_bad_columns():
    state = PEArrayState(rows=8, cols=3)
    with pytest.raises(ShapeError):
        pe_array_cycle(state, np.zeros(4, dtype=np.uint8), np.zeros(3, dtype=np.uint8))
    with pytest.raises(ShapeError):
        pe_array_cycle(state, np.zeros(8, dtype=np.uint8), np.zeros(2, dtype=np.uint8))


# ---------------------------------------------------------------------------
# accumulator (vecspike.pipeline)
# ---------------------------------------------------------------------------

def test_stage1_sums_three_arrays():
    zero = accumulate_stage1([np.zeros(4)] * 3)
    assert not zero.any()
    total = accumulate_stage1([[1, 2], [3, 4], [5, 6]])
    assert total.tolist() == [9, 12]


def test_stage1_encoding_shift():
    shifted = accumulate_stage1([[1, 0, 1], [0, 0, 0], [0, 0, 0]],
                                mode="encoding", bitplane_index=2)
    assert shifted.tolist() == [4, 0, 4]


def test_stage1_length_mismatch():
    with pytest.raises(ShapeError):
        accumulate_stage1([[1, 2], [1], [1, 2]])


def test_stage1_and_tree_refuse_no_inputs():
    with pytest.raises(ShapeError, match="stage-1 needs at least one input"):
        accumulate_stage1([])
    with pytest.raises(ShapeError, match="tree adder needs at least one input"):
        accumulate_tree([], GroupAccumulator(1), True)


def test_tree_sums_and_passthrough():
    acc = GroupAccumulator(expected_groups=1)
    out = accumulate_tree([np.zeros(3, dtype=np.int64)] * 32, acc, True)
    assert not out.any()
    acc = GroupAccumulator(expected_groups=1)
    vectors = [np.zeros(3, dtype=np.int64) for _ in range(32)]
    vectors[7] = np.array([1, -2, 3])
    out = accumulate_tree(vectors, acc, True)
    assert out.tolist() == [1, -2, 3]


def test_tree_group_split_equals_single_pass(rng):
    blocks = [rng.integers(-3, 4, 5) for _ in range(64)]
    single = np.sum(blocks, axis=0)
    acc = GroupAccumulator(expected_groups=2)
    accumulate_tree(blocks[:32], acc, False)
    out = accumulate_tree(blocks[32:], acc, True)
    assert np.array_equal(out, single)


def test_tree_emitting_before_last_group_faults():
    acc = GroupAccumulator(expected_groups=3)
    accumulate_tree([np.zeros(2)], acc, False)
    with pytest.raises(ScheduleFault):
        accumulate_tree([np.zeros(2)], acc, True)


def test_tree_too_many_blocks():
    acc = GroupAccumulator(expected_groups=1)
    with pytest.raises(ShapeError):
        accumulate_tree([np.zeros(2)] * 40, acc, True, max_blocks=32)


# ---------------------------------------------------------------------------
# cycle report
# ---------------------------------------------------------------------------

def test_cycle_report_identities():
    report = CycleReport(
        total_cycles=100, warmup_cycles=10, active_pe_cycles=450,
        pe_count=10, clock_hz=1e9,
    ).validate()
    assert report.steady_cycles == 90
    assert report.utilization == 0.45
    assert report.steady_state_utilization == 0.5
    assert report.achieved_ops == 900
    assert report.achieved_gops == pytest.approx(9.0)


def test_cycle_report_merge():
    a = CycleReport(10, 1, 50, 10, 1e9)
    b = CycleReport(20, 2, 100, 10, 1e9)
    merged = a.merged(b)
    assert merged.total_cycles == 30
    assert merged.active_pe_cycles == 150
    assert merged.utilization == 0.5
    with pytest.raises(ConfigError):
        a.merged(CycleReport(5, 0, 10, 20, 1e9))


@pytest.mark.parametrize("n", [1, 2, 8])
def test_cycle_report_scaled_equals_repeated_merge(n):
    report = CycleReport(10, 1, 50, 10, 1e9)
    merged = report
    for _ in range(n - 1):
        merged = merged.merged(report)
    assert report.scaled(n) == merged
