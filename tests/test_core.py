import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import brute_conv2d, random_network, record_matmul_dtypes
from vecspike.core import (
    BinaryWeightTensor,
    BNParams,
    FoldedNeuronParams,
    SpikeTrain,
    _if_run,
    _peak,
    _step_sums,
    _weigh,
    conv2d_oracle,
    fold_bn,
    if_step,
    lay_out_offsets,
    maxpool2_oracle,
    run_network_oracle,
    spikes_eq3_oracle,
)
from vecspike.errors import (
    FixedPointOverflowError,
    InvalidParameterError,
    ShapeError,
    ValidationError,
)
from vecspike.fixedpoint import DEFAULT_FORMAT, FixedPointFormat
from vecspike.netconfig import (
    NetworkDescription,
    generate_random_bundle,
    parse_network,
    preset_network,
    random_input,
    validate,
)

FMT = DEFAULT_FORMAT
Q = FMT.quantize


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

def test_spike_train_validates_and_freezes():
    train = SpikeTrain(np.zeros((2, 1, 2, 2), dtype=np.uint8))
    assert train.shape == (2, 1, 2, 2)
    with pytest.raises(ValueError):
        train.data[0, 0, 0, 0] = 1
    for bad in (2, -1, 0.5, np.nan):
        with pytest.raises(InvalidParameterError):
            SpikeTrain(np.full((1, 1, 1, 1), bad))
        with pytest.raises(InvalidParameterError):
            BinaryWeightTensor(np.full((1, 1, 1, 1), bad))
    with pytest.raises(ShapeError):
        SpikeTrain(np.zeros((1, 1, 1)))


BIT_CASES = [
    (2, np.uint8, False), (-1, np.int8, False), (0.5, np.float64, False),
    (1, np.uint8, True), (1, np.int8, True), (1.0, np.float64, True),
    (True, bool, True),
]


def _one_bit(value, dtype):
    data = np.zeros((2, 1, 2, 2), dtype=dtype)
    data[1, 0, 1, 0] = value
    return data


@pytest.mark.parametrize("value, dtype, ok", BIT_CASES)
def test_spike_train_checks_every_dtype_alike(value, dtype, ok):
    # bool and unsigned trains are checked by their max alone
    data = _one_bit(value, dtype)
    if ok:
        train = SpikeTrain(data)
        assert train.spike_count() == 1
        assert train.data.dtype == np.uint8 and not train.data.flags.writeable
    else:
        with pytest.raises(InvalidParameterError,
                           match="^spike train elements must be 0 or 1$"):
            SpikeTrain(data)


@pytest.mark.parametrize("value, dtype, ok", BIT_CASES)
def test_weight_bits_check_every_dtype_alike(value, dtype, ok):
    # the same shared check as spike trains, with the weights' own text
    data = _one_bit(value, dtype)
    if ok:
        bits = BinaryWeightTensor(data).sign_bits
        assert bits.dtype == np.uint8 and bits.sum() == 1
        assert not bits.flags.writeable
    else:
        with pytest.raises(InvalidParameterError, match="^sign bits must be 0 or 1$"):
            BinaryWeightTensor(data)


@pytest.mark.parametrize("dtype", [bool, np.uint8])
def test_spike_count_counts_every_spike(rng, dtype):
    data = rng.integers(0, 2, (3, 4, 5, 6)).astype(dtype)
    train = SpikeTrain(data)
    assert train.spike_count() == int(data.sum())
    assert type(train.spike_count()) is int


def test_binary_weights_sign_convention():
    # sign bit 1 encodes -1, sign bit 0 encodes +1
    w = BinaryWeightTensor(np.array([[[[0, 1]]]]))
    assert w.values().tolist() == [[[[1, -1]]]]
    assert BinaryWeightTensor((1 - w.values()) // 2) == w


BIT_DTYPES = [bool, np.uint8, np.int8, np.float64]


@st.composite
def _bit_arrays(draw, shape=None):
    """A 4-D array of 0s and 1s in one of the dtypes the types accept; most
    sizes are not a multiple of 8."""
    if shape is None:
        shape = tuple(draw(st.lists(st.integers(0, 5), min_size=4, max_size=4)))
    size = int(np.prod(shape))
    bits = draw(st.lists(st.integers(0, 1), min_size=size, max_size=size))
    dtype = draw(st.sampled_from(BIT_DTYPES))
    return np.array(bits, dtype=dtype).reshape(shape)


@st.composite
def _bit_array_pairs(draw):
    """An array of :func:`_bit_arrays` and a second one: the same values in
    another dtype, another draw of the same shape, or any other array."""
    a = draw(_bit_arrays())
    b = draw(st.one_of(
        st.sampled_from(BIT_DTYPES).map(a.astype),
        _bit_arrays(a.shape),
        _bit_arrays(),
    ))
    return a, b


PACKED_TYPES = [(SpikeTrain, lambda x: x.data),
                (BinaryWeightTensor, lambda x: x.sign_bits)]


@given(_bit_array_pairs())
# flat bits that agree, packed into the same byte, in two shapes
@example((np.ones((1, 1, 1, 8), dtype=np.uint8), np.ones((1, 1, 2, 4), dtype=np.uint8)))
def test_packed_types_round_trip_and_compare_by_shape_and_value(pair):
    a, b = pair
    for cls, bits_of in PACKED_TYPES:
        x, y = cls(a), cls(b)
        bits = bits_of(x)
        assert bits.dtype == np.uint8 and not bits.flags.writeable
        assert bits.shape == a.shape and np.array_equal(bits, a)
        assert x.shape == a.shape
        assert (x == y) == (a.shape == b.shape and np.array_equal(a, b))
    train = SpikeTrain(a)
    assert train.spike_count() == np.count_nonzero(a)
    assert train.time_steps == a.shape[0]


@pytest.mark.parametrize("cls", [SpikeTrain, BinaryWeightTensor])
def test_packed_types_retain_one_bit_per_element(cls):
    # a dropped 8 MiB input leaves ceil(n/8) bytes and a small fixed overhead
    shape = (8, 16, 256, 256)
    n = int(np.prod(shape))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        data = np.zeros(shape, dtype=np.uint8)
        data[..., ::3] = 1
        kept = cls(data)
        del data
        retained = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert kept.shape == shape
    assert retained <= -(-n // 8) + 16 * 1024


@settings(deadline=None)
@given(_bit_arrays())
def test_a_train_from_packed_rows_equals_the_unpacked_one(a):
    # rows as np.packbits writes them, pad bits clear, build the same train
    # with the same count; one step unpacks as the whole train's slice
    bits = a.astype(np.uint8)
    rows = np.packbits(bits.reshape(len(a), int(np.prod(a.shape[1:]))), axis=1)
    train = SpikeTrain.from_rows(rows, a.shape)
    assert train == SpikeTrain(a)
    assert train.spike_count() == SpikeTrain(a).spike_count() == np.count_nonzero(a)
    assert type(train.spike_count()) is int
    assert SpikeTrain.from_steps(iter(bits), a.shape) == train
    for t in range(len(a)):
        step = train.step(t)
        assert step.dtype == np.uint8 and not step.flags.writeable
        assert np.array_equal(step, a[t])
    assert np.array_equal(train.channel_counts(), np.count_nonzero(a, axis=(0, 2, 3)))
    weights = BinaryWeightTensor.from_packed(np.packbits(bits), a.shape)
    assert weights == BinaryWeightTensor(a)
    assert np.array_equal(weights.sign_bits, a)


def test_packed_rows_of_a_wrong_shape_or_with_set_pad_bits_are_refused():
    # [2][1][1][3]: two rows of one byte, each with five pad bits
    rows = np.array([[0b10100000], [0b01100000]], dtype=np.uint8)
    shape = (2, 1, 1, 3)
    assert SpikeTrain.from_rows(rows, shape).spike_count() == 4
    for bad in (rows[:1], np.vstack([rows, rows]), np.hstack([rows, rows]), rows[0]):
        with pytest.raises(ShapeError):
            SpikeTrain.from_rows(bad, shape)
    with pytest.raises(ShapeError):
        SpikeTrain.from_rows(rows, (2, 3))
    with pytest.raises(InvalidParameterError, match="^packed spike train must be uint8"):
        SpikeTrain.from_rows(rows.astype(np.int16), shape)
    for pad in (0b1, 0b10000):
        with pytest.raises(InvalidParameterError, match="^packed spike train has set pad bits$"):
            SpikeTrain.from_rows(rows | np.uint8([[0], [pad]]), shape)
    # 18 sign bits: three flat bytes, the last with six pad bits
    flat = np.zeros(3, dtype=np.uint8)
    assert BinaryWeightTensor.from_packed(flat, (2, 1, 3, 3)).shape == (2, 1, 3, 3)
    with pytest.raises(ShapeError):
        BinaryWeightTensor.from_packed(flat[:2], (2, 1, 3, 3))
    with pytest.raises(ShapeError):
        BinaryWeightTensor.from_packed(flat.reshape(1, 3), (2, 1, 3, 3))
    with pytest.raises(InvalidParameterError, match="^packed weights has set pad bits$"):
        BinaryWeightTensor.from_packed(flat | np.uint8([0, 0, 0b100000]), (2, 1, 3, 3))


def test_a_train_from_steps_refuses_a_step_of_another_shape_or_count():
    steps = np.zeros((2, 1, 2, 2), dtype=np.uint8)
    assert SpikeTrain.from_steps(iter(steps), steps.shape).shape == (2, 1, 2, 2)
    with pytest.raises(ShapeError, match=r"^step 1 is \(1, 4\), expected \(1, 2, 2\)$"):
        SpikeTrain.from_steps([steps[0], steps[1].reshape(1, 4)], steps.shape)
    with pytest.raises(ShapeError, match="^1 steps for a train of 2$"):
        SpikeTrain.from_steps(iter(steps[:1]), steps.shape)
    with pytest.raises(ShapeError, match="^more than 2 steps for a train of 2$"):
        SpikeTrain.from_steps(iter(np.zeros((3, 1, 2, 2), np.uint8)), steps.shape)


def test_a_train_from_steps_counts_nonzero_elements():
    # any nonzero element is a spike, packed as a 1 and counted once
    steps = np.array([[[[0, 2], [7, 0]]], [[[1, 0], [0, 0]]]], dtype=np.int16)
    train = SpikeTrain.from_steps(iter(steps), steps.shape)
    assert train == SpikeTrain(steps != 0)
    assert train.spike_count() == 3 and type(train.spike_count()) is int


def test_bn_params_validation():
    with pytest.raises(InvalidParameterError):
        BNParams(gamma=0.0, beta=0.0, mean=0.0, var=1.0)
    with pytest.raises(InvalidParameterError):
        BNParams(gamma=1.0, beta=0.0, mean=0.0, var=-1.0)


# ---------------------------------------------------------------------------
# if_step
# ---------------------------------------------------------------------------

def test_if_step_zero_case():
    assert if_step(0, 0, 0, Q(1.0)) == (0, 0)


def test_if_step_accumulates_and_fires():
    # V=0.5, in=0.6 -> V=1.1 >= 1.0, fires
    v, o = if_step(Q(0.5), 0, Q(0.6), Q(1.0))
    assert v == Q(0.5) + Q(0.6)
    assert o == 1


def test_if_step_hard_reset_discards_previous_potential():
    # after a spike the old potential is zeroed before accumulating
    v, o = if_step(Q(1.1), 1, Q(0.3), Q(1.0))
    assert v == Q(0.3)
    assert o == 0


def test_if_step_tie_fires():
    _, o = if_step(0, 0, Q(1.0), Q(1.0))
    assert o == 1


def test_if_step_flipped_comparison():
    _, o = if_step(0, 0, Q(-2.0), Q(-1.0), flipped=True)
    assert o == 1
    _, o = if_step(0, 0, Q(-0.5), Q(-1.0), flipped=True)
    assert o == 0


@given(
    st.integers(min_value=-(2**20), max_value=2**20),
    st.integers(min_value=-(2**20), max_value=2**20),
    st.integers(min_value=-(2**20), max_value=2**20),
)
def test_if_step_after_spike_is_independent_of_potential(v_prev, x, threshold):
    assert if_step(v_prev, 1, x, threshold) == if_step(0, 0, x, threshold)


@given(
    st.integers(min_value=-(2**15), max_value=2**15),
    st.integers(min_value=-(2**15), max_value=2**15),
    st.integers(min_value=1, max_value=100),
)
def test_firing_decision_is_scale_invariant(x, threshold, c):
    # multiplying accumulated input and threshold by c > 0 keeps the bit
    _, o_base = if_step(0, 0, x, threshold)
    _, o_scaled = if_step(0, 0, x * c, threshold * c)
    assert o_base == o_scaled


def test_if_step_overflow_is_reported():
    with pytest.raises(FixedPointOverflowError):
        if_step(FMT.raw_max, 0, 1, 0)


WIDE = FixedPointFormat(62, 56)


@pytest.mark.parametrize("conv_sum", [256, 257, -257])
def test_oracle_if_refuses_a_wrapping_left_shift(conv_sum):
    # conv_sum << 56 leaves int64: 256 wrapped to 0 (no spike, no fault)
    # and 257 to 1.0, which fired
    params = FoldedNeuronParams([0], [WIDE.quantize(1.0)], [False], WIDE)
    with pytest.raises(FixedPointOverflowError, match="convolution sum"):
        list(_if_run([_weigh(np.full((1, 1, 1), conv_sum), params, WIDE)], params, WIDE))


def test_if_run_reads_one_repeated_input_as_separate_copies(rng):
    # the encoding layer feeds one weighed array at every step: the
    # recurrence copies it into its potential and writes no input
    params = FoldedNeuronParams([0, 0], [Q(1.0), Q(-0.5)], [False, True])
    weighted = rng.integers(Q(-1.5), Q(1.5), (2, 3, 4))
    before = weighted.copy()
    repeated = np.stack(list(_if_run(itertools.repeat(weighted, 5), params, FMT)))
    assert np.array_equal(weighted, before)
    copies = np.stack(list(_if_run([weighted.copy() for _ in range(5)], params, FMT)))
    assert np.array_equal(repeated, copies)
    assert 0 < repeated[1:].sum() < repeated[1:].size


def test_scaled_params_refuse_a_wrapping_left_shift():
    # 2**56 << 8 wrapped to 0
    params = FoldedNeuronParams([2**56], [1], [False], WIDE)
    with pytest.raises(FixedPointOverflowError, match="scaled bias"):
        params.scaled_by_pow2(8)


@pytest.mark.parametrize(
    "bias, threshold", [(-2**63, Q(1.0)), (0, FMT.raw_max + 1)], ids=["bias", "threshold"]
)
def test_folded_params_refuse_raws_outside_their_format(bias, threshold):
    # a bias of -2**63 wrapped a sum of 2**55 - 1 back into the format:
    # no spike, a membrane of -256 and no fault
    with pytest.raises(InvalidParameterError, match="outside"):
        FoldedNeuronParams([bias], [threshold], [False])


# ---------------------------------------------------------------------------
# fold_bn
# ---------------------------------------------------------------------------

def test_fold_bn_identity():
    folded = fold_bn(BNParams(1.0, 0.0, 0.0, 1.0, eps=0.0), v_th=1.0)
    assert folded.bias_raw.tolist() == [0]
    assert folded.threshold_raw.tolist() == [Q(1.0)]
    assert not folded.flipped[0]


def test_fold_bn_direct_evaluation():
    folded = fold_bn(BNParams(2.0, 1.0, 0.5, 4.0, eps=0.0), v_th=1.0)
    assert folded.bias_raw.tolist() == [Q(-0.5)]
    assert folded.threshold_raw.tolist() == [Q(1.0)]
    assert not folded.flipped[0]


def test_fold_bn_negative_gamma_flips_comparison():
    folded = fold_bn(BNParams(-1.0, 0.0, 0.0, 1.0, eps=0.0), v_th=1.0)
    assert folded.bias_raw.tolist() == [0]
    assert folded.threshold_raw.tolist() == [Q(-1.0)]
    assert folded.flipped[0]


def test_fold_bn_rejects_zero_gamma():
    with pytest.raises(InvalidParameterError):
        fold_bn(BNParams(np.array([1.0, 0.0]), 0.0, 0.0, 1.0), v_th=1.0)


def test_fold_bn_per_channel_arrays():
    folded = fold_bn(
        BNParams(
            gamma=np.array([1.0, -2.0]),
            beta=np.array([0.0, 1.0]),
            mean=np.array([0.0, 0.5]),
            var=np.array([1.0, 4.0]),
            eps=0.0,
        ),
        v_th=1.0,
    )
    assert folded.channels == 2
    assert folded.flipped.tolist() == [False, True]
    assert folded.bias_raw.tolist() == [0, Q(0.5 + 1.0)]  # 0.5 - (2/-2)*1
    assert folded.threshold_raw.tolist() == [Q(1.0), Q(-1.0)]


# ---------------------------------------------------------------------------
# eq-3 oracle and fold equivalence
# ---------------------------------------------------------------------------

def test_eq3_oracle_trivial_and_accumulation():
    identity = BNParams(1.0, 0.0, 0.0, 1.0, eps=0.0)
    assert spikes_eq3_oracle([0, 0, 0], identity, 1.0) == [0, 0, 0]
    assert spikes_eq3_oracle([0.6, 0.6], identity, 1.0) == [0, 1]


def _folded_reference_margin(x, params, v_th):
    """Exact real-arithmetic folded accumulation; smallest threshold gap."""
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


def _run_folded_fixed_point(x, folded):
    v, o = 0, 0
    spikes = []
    for xi in x:
        weighted = (int(xi) << FMT.frac_bits) - int(folded.bias_raw[0])
        v, o = if_step(
            v, o, weighted, int(folded.threshold_raw[0]),
            flipped=bool(folded.flipped[0]),
        )
        spikes.append(o)
    return spikes


def test_folded_path_matches_eq3_oracle_outside_margin():
    rng = np.random.default_rng(99)
    margin = 2.0 ** (-FMT.frac_bits + 2)
    checked = 0
    while checked < 200:
        steps = int(rng.integers(1, 9))
        x = rng.integers(-20, 21, steps)
        gamma = float(rng.choice([-1, 1])) * rng.uniform(0.5, 2.0)
        params = BNParams(
            gamma, rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0.25, 4)
        )
        v_th = rng.uniform(0.5, 2.0)
        if _folded_reference_margin(x, params, v_th) <= margin:
            continue
        folded = fold_bn(params, v_th)
        assert _run_folded_fixed_point(x, folded) == spikes_eq3_oracle(x, params, v_th)
        checked += 1


# ---------------------------------------------------------------------------
# conv and pooling oracles
# ---------------------------------------------------------------------------

def test_conv_oracle_zero_input():
    w = BinaryWeightTensor(np.zeros((2, 1, 3, 3), dtype=np.uint8))
    out = conv2d_oracle(np.zeros((1, 5, 5), dtype=np.uint8), w)
    assert out.shape == (2, 3, 3)
    assert not out.any()


def test_conv_oracle_identity():
    w = BinaryWeightTensor(np.zeros((1, 1, 1, 1), dtype=np.uint8))  # +1
    out = conv2d_oracle(np.ones((1, 1, 1), dtype=np.uint8), w)
    assert out.tolist() == [[[1]]]


def test_conv_oracle_five_by_five_matches_exhaustive_sum(rng):
    x = rng.integers(0, 2, (1, 5, 5), dtype=np.uint8)
    w = BinaryWeightTensor(rng.integers(0, 2, (1, 1, 3, 3), dtype=np.uint8))
    out = conv2d_oracle(x, w)
    assert out.shape == (1, 3, 3)
    assert np.array_equal(out, brute_conv2d(x, w.values()))


@pytest.mark.parametrize("pad", [0, 1])
def test_conv_oracle_matches_brute_force(rng, pad):
    for _ in range(10):
        cin, cout = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        h, w = int(rng.integers(3, 8)), int(rng.integers(3, 8))
        x = rng.integers(0, 2, (cin, h, w), dtype=np.uint8)
        wgt = BinaryWeightTensor(rng.integers(0, 2, (cout, cin, 3, 3), dtype=np.uint8))
        assert np.array_equal(
            conv2d_oracle(x, wgt, padding=pad), brute_conv2d(x, wgt.values(), pad)
        )


def test_conv_oracle_exact_beyond_the_float64_bound(rng):
    # 2**50 * 2 channels * 9 offsets passes 2**53: the oracle must go int64
    x = rng.integers(-(2**50), 2**50, (2, 5, 5))
    x[0, 0, 0] = 2**50
    w = BinaryWeightTensor(rng.integers(0, 2, (2, 2, 3, 3), dtype=np.uint8))
    assert np.array_equal(conv2d_oracle(x, w), brute_conv2d(x, w.values()))


@pytest.mark.parametrize(
    "limits, dtype",
    [((2**24, 2**53), np.float32), ((1, 2**53), np.float64), ((1, 1), np.int64)],
)
def test_conv_oracle_float_limit_selects_the_path(rng, monkeypatch, limits, dtype):
    import vecspike.core as core

    monkeypatch.setattr(core, "FLOAT32_EXACT_LIMIT", limits[0])
    monkeypatch.setattr(core, "FLOAT64_EXACT_LIMIT", limits[1])
    seen = record_matmul_dtypes(monkeypatch)
    x = rng.integers(0, 256, (3, 6, 7))
    w = BinaryWeightTensor(rng.integers(0, 2, (4, 3, 3, 2), dtype=np.uint8))
    assert np.array_equal(conv2d_oracle(x, w, padding=1), brute_conv2d(x, w.values(), 1))
    assert len(seen) == 6 and set(seen) == {np.dtype(dtype)}


@pytest.mark.parametrize(
    "x_max, k, dtype",
    [(1_864_135, 3, np.float32), (2**20, 4, np.float64)],
    ids=["2**24-1", "2**24"],
)
def test_conv_oracle_float32_limit_boundary(rng, monkeypatch, x_max, k, dtype):
    # one channel, so the bound x_max * k * k is 2**24 - 1, then 2**24; the
    # first window and an all +1 output channel reach it, the other is random
    assert x_max * k * k in (2**24 - 1, 2**24)
    seen = record_matmul_dtypes(monkeypatch)
    x = rng.integers(x_max - 9, x_max + 1, (1, k + 2, k + 1))
    x[:, :k, :k] = x_max
    signs = rng.integers(0, 2, (2, 1, k, k), dtype=np.uint8)
    signs[0] = 0
    w = BinaryWeightTensor(signs)
    out = conv2d_oracle(x, w)
    assert out[0, 0, 0] == x_max * k * k
    assert np.array_equal(out, brute_conv2d(x, w.values()))
    assert set(seen) == {np.dtype(dtype)}


def test_conv_oracle_is_linear_in_input(rng):
    w = BinaryWeightTensor(rng.integers(0, 2, (3, 2, 3, 3), dtype=np.uint8))
    a = rng.integers(-5, 6, (2, 6, 6))
    b = rng.integers(-5, 6, (2, 6, 6))
    assert np.array_equal(
        conv2d_oracle(a, w) + conv2d_oracle(b, w), conv2d_oracle(a + b, w)
    )


def test_conv_oracle_dimension_mismatch():
    w = BinaryWeightTensor(np.zeros((1, 2, 3, 3), dtype=np.uint8))
    with pytest.raises(ShapeError):
        conv2d_oracle(np.zeros((1, 5, 5)), w)
    with pytest.raises(ShapeError):
        conv2d_oracle(np.zeros((2, 2, 2)), w)  # kernel does not fit


# limits that force each arithmetic path, zero bound included
_DTYPE_PATHS = {
    np.float32: (2**24, 2**53),
    np.float64: (0, 2**53),
    np.int64: (0, 0),
}


@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(0, 2),
    st.integers(0, 5),
    st.integers(0, 2),
    st.integers(0, 2),
    st.sampled_from(list(_DTYPE_PATHS)),
    st.integers(0, 2**32 - 1),
)
@example(4, 4, 0, 3, 0, 0, np.float32, 0)
@example(1, 4, 2, 0, 0, 0, np.float64, 1)
@example(4, 1, 1, 5, 0, 1, np.int64, 2)
def test_conv_oracle_matches_brute_force_on_any_geometry(
    kh, kw, pad, cin, extra_h, extra_w, dtype, seed
):
    # H and W reach down to the kernel (h_out = w_out = 1), where the
    # wrapped columns and the spare row matter most
    import vecspike.core as core

    rng = np.random.default_rng(seed)
    h = max(1, kh - 2 * pad) + extra_h
    w = max(1, kw - 2 * pad) + extra_w
    x = rng.integers(-255, 256, (cin, h, w))
    weights = BinaryWeightTensor(
        rng.integers(0, 2, (int(rng.integers(1, 4)), cin, kh, kw), dtype=np.uint8)
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "FLOAT32_EXACT_LIMIT", _DTYPE_PATHS[dtype][0])
        mp.setattr(core, "FLOAT64_EXACT_LIMIT", _DTYPE_PATHS[dtype][1])
        seen = record_matmul_dtypes(mp)
        out = conv2d_oracle(x, weights, padding=pad)
    # a float32 product's sums lie below 2**24: they come back int32
    assert out.dtype == (np.int32 if dtype is np.float32 else np.int64)
    assert np.array_equal(out, brute_conv2d(x, weights.values(), pad))
    assert len(seen) == kh * kw and set(seen) == {np.dtype(dtype)}


def test_maxpool_oracle():
    assert not maxpool2_oracle(np.zeros((1, 4, 4), dtype=np.uint8)).any()
    x = np.zeros((1, 2, 2), dtype=np.uint8)
    x[0, 1, 0] = 1
    assert maxpool2_oracle(x).tolist() == [[[1]]]
    with pytest.raises(ShapeError):
        maxpool2_oracle(np.zeros((1, 3, 4), dtype=np.uint8))


def test_maxpool_oracle_matches_window_max(rng):
    x = rng.integers(0, 2, (3, 4, 4), dtype=np.uint8)
    pooled = maxpool2_oracle(x)
    assert pooled.dtype == x.dtype
    for c in range(3):
        for i in range(2):
            for j in range(2):
                window = x[c, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
                assert pooled[c, i, j] == window.max()


# ---------------------------------------------------------------------------
# network oracle
# ---------------------------------------------------------------------------

def _identity_bundle(net):
    """Random signs but identity normalization (bias 0, threshold v_th)."""
    bundle = generate_random_bundle(net, seed=5)
    params = []
    for layer, p in zip(net.layers, bundle.params):
        if p is None:
            params.append(None)
        else:
            identity = BNParams(
                np.ones(layer.out_channels),
                np.zeros(layer.out_channels),
                np.zeros(layer.out_channels),
                np.ones(layer.out_channels),
                eps=0.0,
            )
            params.append(fold_bn(identity, layer.v_th))
    bundle.params = params
    return bundle


def test_network_oracle_zero_image_zero_spikes():
    net = validate(parse_network("4Conv(encoding)-MP2-4Conv-3fc"), (1, 8, 8))
    bundle = _identity_bundle(net)
    run = run_network_oracle(
        net, bundle.weights, bundle.params, np.zeros((1, 8, 8), dtype=np.uint8), 4
    )
    for train in run.layer_trains:
        assert train.spike_count() == 0
    assert run.class_counts.tolist() == [0, 0, 0]


def test_network_oracle_constant_input_reaccumulates():
    # one-pixel encoding layer, +1 weight, threshold 0.5: input 255 counts as
    # 255/256 per step, crossing 0.5 every step after every reset
    net = validate(parse_network("1Conv(encoding)", time_steps=6), (1, 3, 3))
    weights = [BinaryWeightTensor(np.zeros((1, 1, 3, 3), dtype=np.uint8))]  # +1
    params = [
        FoldedNeuronParams(
            np.array([0]), np.array([Q(0.5)]), np.array([False])
        )
    ]
    image = np.full((1, 3, 3), 255, dtype=np.uint8)
    run = run_network_oracle(net, weights, params, image, 6)
    center = run.layer_trains[0].data[:, 0, 1, 1]
    assert center.tolist() == [1, 1, 1, 1, 1, 1]


def test_network_oracle_is_deterministic(rng):
    net = validate(
        parse_network("8Conv(encoding)-MP2-8Conv-MP2-16fc-10fc"), (1, 8, 8)
    )
    bundle = generate_random_bundle(net, seed=3)
    image = rng.integers(0, 256, (1, 8, 8), dtype=np.uint8)
    first = run_network_oracle(net, bundle.weights, bundle.params, image, 8)
    second = run_network_oracle(net, bundle.weights, bundle.params, image, 8)
    assert all(a == b for a, b in zip(first.layer_trains, second.layer_trains))
    assert np.array_equal(first.class_counts, second.class_counts)


def test_network_oracle_rejects_bad_input():
    net = validate(parse_network("2Conv(encoding)"), (1, 4, 4))
    bundle = generate_random_bundle(net, seed=0)
    with pytest.raises(InvalidParameterError):
        run_network_oracle(
            net, bundle.weights, bundle.params, np.full((1, 4, 4), 300), 2
        )
    with pytest.raises(InvalidParameterError):
        run_network_oracle(
            net, bundle.weights, bundle.params, np.zeros((1, 4, 4)), 0
        )


def _no_layer_runs(monkeypatch):
    import vecspike.core as core

    def refuse(*args, **kwargs):
        raise AssertionError("a layer ran before the entry checks")

    monkeypatch.setattr(core, "conv2d_oracle", refuse)


def test_network_oracle_refuses_a_network_that_is_not_validated(monkeypatch):
    text = "4Conv(encoding)-MP2-4Conv"
    bundle = generate_random_bundle(validate(parse_network(text), (1, 4, 4)), seed=0)
    _no_layer_runs(monkeypatch)
    with pytest.raises(ValidationError, match="needs a validated network"):
        run_network_oracle(
            parse_network(text), bundle.weights, bundle.params, random_input((1, 4, 4), 0), 2
        )


@pytest.mark.parametrize("defect", ["weights", "params", "null_weight"])
def test_network_oracle_refuses_lists_shorter_than_the_layers(monkeypatch, defect):
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
    _no_layer_runs(monkeypatch)
    with pytest.raises(ShapeError, match=message):
        run_network_oracle(net, weights, params, random_input((1, 4, 4), 0), 2)


def test_network_oracle_names_an_image_of_the_wrong_shape(monkeypatch):
    net = validate(parse_network("4Conv(encoding)-MP2-4Conv"), (1, 4, 4))
    bundle = generate_random_bundle(net, seed=0)
    _no_layer_runs(monkeypatch)
    with pytest.raises(ShapeError, match=r"image shape \(1, 6, 6\) .* \(1, 4, 4\)"):
        run_network_oracle(net, bundle.weights, bundle.params, random_input((1, 6, 6), 0), 2)


@pytest.mark.parametrize(
    "preset, weighted, convolutions", [("mnist", 4, 17), ("cifar10", 13, 53)]
)
def test_network_oracle_lays_out_each_weighted_layer_once(
    monkeypatch, preset, weighted, convolutions
):
    # the weights are laid out once per layer, not once per time step; the
    # encoding layer convolves once, every other weighted layer once per
    # pair of steps, or once a step where the pair would leave float32
    import vecspike.core as core

    calls = {"lay_out_offsets": 0, "conv2d_oracle": 0}

    def counting(name):
        original = getattr(core, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(core, name, counting(name))
    net, shape = preset_network(preset, 8)
    bundle = generate_random_bundle(net, seed=0)
    run_network_oracle(net, bundle.weights, bundle.params, random_input(shape, 0), 8)
    assert calls == {"lay_out_offsets": weighted, "conv2d_oracle": convolutions}


# the largest C*kh*kw*max|x| whose packed pair, bound (2*taps + 2)*taps,
# stays below 2**24
_PAIR_TAPS = max(t for t in range(4096) if (2 * t + 2) * t < 2**24)


@st.composite
def _pair_cases(draw):
    """Two steps of a map, weights and padding.  ``peak``, the map's max|x|,
    is 1 for spikes, 0 for an all-zero map, or any value up to one past
    the pairing limit; each step is random, all ``peak`` or all zero."""
    kh, kw, pad, cin = (draw(st.integers(1, 5)), draw(st.integers(1, 5)),
                        draw(st.integers(0, 2)), draw(st.integers(1, 4)))
    h = max(1, kh - 2 * pad) + draw(st.integers(0, 3))
    w = max(1, kw - 2 * pad) + draw(st.integers(0, 3))
    limit = _PAIR_TAPS // (cin * kh * kw)
    peak = draw(st.sampled_from([0, 1, 2, limit, limit + 1]) | st.integers(2, limit + 1))
    signed = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    maps = np.zeros((2, cin, h, w), dtype=np.int64)
    for t in range(2):
        fill = draw(st.sampled_from(["random", "peak", "zero"]))
        if fill == "random":
            maps[t] = rng.integers(-peak if signed else 0, peak + 1, (cin, h, w))
        elif fill == "peak":
            maps[t] = peak
    maps[1, 0, 0, 0] = -peak if signed else peak  # max|x| is peak
    signs = draw(st.sampled_from(["random", "plus", "minus"]))
    out_c = draw(st.integers(1, 3))
    bits = {"random": rng.integers(0, 2, (out_c, cin, kh, kw)),
            "plus": np.zeros((out_c, cin, kh, kw)),
            "minus": np.ones((out_c, cin, kh, kw))}[signs]
    return maps, BinaryWeightTensor(bits.astype(np.uint8)), pad, peak <= limit


@given(_pair_cases())
@example((np.full((2, 1, 3, 3), _PAIR_TAPS), BinaryWeightTensor(np.ones((1, 1, 1, 1))), 0, True))
@example((np.full((2, 1, 3, 3), _PAIR_TAPS), BinaryWeightTensor(np.zeros((1, 1, 1, 1))), 0, True))
@example((np.full((2, 1, 3, 3), _PAIR_TAPS + 1), BinaryWeightTensor(np.ones((1, 1, 1, 1))), 1, False))
@example((np.full((2, 2, 4, 4), -7), BinaryWeightTensor(np.ones((2, 2, 3, 3))), 1, True))
def test_a_decoded_pair_equals_two_step_convolutions(case):
    # one float32 product of x[0] + base*x[1] decodes to both steps' sums,
    # at the extremes -taps and +taps too; past the limit each step
    # convolves alone
    import vecspike.core as core

    maps, weights, pad, paired = case
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        conv = core.conv2d_oracle
        mp.setattr(core, "conv2d_oracle", lambda *a, **k: calls.append(1) or conv(*a, **k))
        seen = record_matmul_dtypes(mp)
        decoded = list(_step_sums(maps, _peak(maps), lay_out_offsets(weights), pad))
    assert len(decoded) == 2
    for t in range(2):
        expected = conv2d_oracle(maps[t], weights, padding=pad)
        # every product here runs in float32, so each step decodes in int32
        assert decoded[t].dtype == np.int32 and np.array_equal(decoded[t], expected), t
    assert len(calls) == (1 if paired else 2)
    if paired:
        assert set(seen) == {np.dtype(np.float32)}


@pytest.mark.parametrize("steps, calls", [(1, 1), (2, 1), (3, 2), (8, 4)])
def test_step_sums_pair_the_steps_in_order_and_an_odd_last_one_alone(
    monkeypatch, rng, steps, calls
):
    import vecspike.core as core

    maps = rng.integers(0, 2, (steps, 3, 5, 5), dtype=np.uint8)
    weights = BinaryWeightTensor(rng.integers(0, 2, (2, 3, 3, 3), dtype=np.uint8))
    count = []
    conv = core.conv2d_oracle
    monkeypatch.setattr(core, "conv2d_oracle", lambda *a, **k: count.append(1) or conv(*a, **k))
    decoded = list(_step_sums(maps, _peak(maps), lay_out_offsets(weights), 1))
    assert len(count) == calls
    assert len(decoded) == steps
    for t in range(steps):
        assert np.array_equal(decoded[t], conv(maps[t], weights, padding=1)), t


@pytest.mark.parametrize("preset", ["mnist", "cifar10"])
def test_network_oracle_convolves_below_the_float32_limit(monkeypatch, preset):
    # every product, paired or not, has max|x|*C*kh*kw below 2**24
    import vecspike.core as core

    bounds = []
    conv = core.conv2d_oracle

    def spy(inputs, weights, padding=0):
        x = np.asarray(inputs)
        kh, kw = (weights.kernel if isinstance(weights, BinaryWeightTensor)
                  else weights.values.shape[:2])
        bounds.append(max(int(x.max()), -int(x.min())) * x.shape[0] * kh * kw)
        return conv(inputs, weights, padding)

    monkeypatch.setattr(core, "conv2d_oracle", spy)
    seen = record_matmul_dtypes(monkeypatch)
    net, shape = preset_network(preset, 8)
    bundle = generate_random_bundle(net, seed=0)
    run_network_oracle(net, bundle.weights, bundle.params, random_input(shape, 0), 8)
    assert bounds and max(bounds) < 2**24
    assert set(seen) == {np.dtype(np.float32)}


def test_network_oracle_integrates_each_pair_before_convolving_the_next(monkeypatch):
    # the decoded steps stream into the IF loop: pair k is integrated
    # before pair k + 1 is convolved, and an odd last step runs alone; the
    # encoding layer's constant sums are weighed once for all 5 steps
    import vecspike.core as core

    events = []
    conv, weigh = core.conv2d_oracle, core._weigh
    monkeypatch.setattr(core, "conv2d_oracle",
                        lambda *a, **k: events.append("conv") or conv(*a, **k))
    monkeypatch.setattr(core, "_weigh", lambda *a: events.append("if") or weigh(*a))
    net = validate(parse_network("4Conv(encoding)-4Conv"), (1, 6, 6))
    bundle = generate_random_bundle(net, seed=0)
    run_network_oracle(net, bundle.weights, bundle.params, random_input((1, 6, 6), 0), 5)
    assert events == ["conv", "if"] + ["conv", "if", "if"] * 2 + ["conv", "if"]


def _promoting_case(channels, fault):
    # at 30/24 a weighed step takes int32 while max|x| < 64.  The encoding
    # neurons all fire at steps 1 and 3 alone, so the fc sums of channel 0
    # (all +1, bias raw_max) read 0, n, 0, n: the membrane is promoted at
    # step 1.  With 64 inputs channel 0 sinks to -(2**29 - 1), then
    # 64 << 24 brings it back to 2, and no fault; with 192 it reaches
    # 2**31 + 2, which a membrane kept in int32 would wrap.  Channel 1
    # sums 16 and fires at steps 1 and 3.
    fmt = FixedPointFormat(30, 24)
    net = validate(parse_network(f"{channels}Conv(encoding)-2fc"), (1, 1, 1))
    fc_signs = np.zeros((2, channels, 1, 1), dtype=np.uint8)
    fc_signs[1, (channels + 16) // 2:] = 1
    weights = [BinaryWeightTensor(np.zeros((channels, 1, 3, 3), dtype=np.uint8)),
               BinaryWeightTensor(fc_signs)]
    params = [FoldedNeuronParams([-2**14] * channels, [2**15] * channels,
                                 [False] * channels, fmt),
              FoldedNeuronParams([fmt.raw_max, 0], [fmt.scale] * 2, [False] * 2, fmt)]
    image = np.zeros((1, 1, 1), dtype=np.uint8)
    # the encoding layer weighs once, then the fc steps up to the fault
    dtypes = [np.int32] + ([np.int32, np.int64] if fault else [np.int32, np.int64] * 2)
    return net, weights, params, image, fmt, 4, (dtypes, fault)


def _bundle_case(net, shape, fmt, steps, dtype=None):
    bundle = generate_random_bundle(net, seed=0, fmt=fmt)
    # the encoding layer weighs once, every other weighted layer once a step
    weighs = sum(1 if layer.kind == "encoding-conv" else steps
                 for layer in net.layers if layer.has_weights)
    expect = None if dtype is None else ([dtype] * weighs, None)
    return net, bundle.weights, bundle.params, random_input(shape, 0), fmt, steps, expect


@st.composite
def _width_cases(draw):
    """A random network, format and T, expecting no dtypes and no outcome."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    net, shape = random_network(rng, max_dim=10, max_channels=16)
    total = draw(st.integers(6, 39))
    fmt = FixedPointFormat(total, draw(st.integers(1, min(total - 1, 12))))
    steps = draw(st.integers(1, 4))
    try:
        return _bundle_case(net, shape, fmt, steps)
    except FixedPointOverflowError:  # a bias or threshold off a narrow format
        assume(False)


def _oracle_outcome(case):
    net, weights, params, image, fmt, steps, _ = case
    try:
        run = run_network_oracle(net, weights, params, image, steps, fmt)
    except FixedPointOverflowError as exc:
        return type(exc), str(exc)
    return [train.data.tobytes() for train in run.layer_trains], run.class_counts.tolist()


@settings(max_examples=40, deadline=None)
@given(_width_cases())
@example(_bundle_case(*preset_network("mnist", 4), FMT, 4, np.int32))
@example(_bundle_case(*preset_network("cifar10", 2), FMT, 2, np.int32))
@example(_bundle_case(*preset_network("mnist", 4), FixedPointFormat(32, 16), 4, np.int64))
@example(_promoting_case(64, None))
@example(_promoting_case(192, "membrane potential: raw 2147483650 "))
def test_the_int32_width_rule_changes_no_oracle_outcome(case):
    # the oracle as built against the oracle with every step in int64:
    # the same trains and counts, or the same fault, type and text
    import vecspike.core as core

    seen = []
    with pytest.MonkeyPatch.context() as mp:
        weigh = core._weigh

        def recording(*args):
            weighted = weigh(*args)
            seen.append(weighted.dtype)
            return weighted

        mp.setattr(core, "_weigh", recording)
        built = _oracle_outcome(case)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "INT32_LIMIT", 0)
        wide = _oracle_outcome(case)
    assert built == wide
    if case[-1] is not None:
        dtypes, fault = case[-1]
        assert seen == dtypes
        if fault:
            assert built[0] is FixedPointOverflowError and fault in built[1]
        else:
            assert isinstance(built[0], list)
