import ast

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import brute_conv2d, record_matmul_dtypes
from vecspike.core import (
    BinaryWeightTensor,
    BNParams,
    FoldedNeuronParams,
    SpikeTrain,
    _if_run,
    _step_sums,
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


def test_binary_weights_sign_convention():
    # sign bit 1 encodes -1, sign bit 0 encodes +1
    w = BinaryWeightTensor(np.array([[[[0, 1]]]]))
    assert w.values().tolist() == [[[[1, -1]]]]
    again = BinaryWeightTensor.from_values(w.values())
    assert again == w


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
        _if_run([np.full((1, 1, 1), conv_sum)], params, WIDE)


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
    w = BinaryWeightTensor.from_values(np.ones((1, 1, 1, 1), dtype=np.int64))
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


def test_core_imports_nothing_from_dataflow():
    import vecspike.core as core

    with open(core.__file__) as handle:
        tree = ast.parse(handle.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert imported and not any("dataflow" in name for name in imported)


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
    assert out.dtype == np.int64
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
    weights = [BinaryWeightTensor.from_values(np.ones((1, 1, 3, 3), dtype=np.int64))]
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
        decoded = list(_step_sums(maps, lay_out_offsets(weights), pad))
    assert len(decoded) == 2
    for t in range(2):
        expected = conv2d_oracle(maps[t], weights, padding=pad)
        assert decoded[t].dtype == np.int64 and np.array_equal(decoded[t], expected), t
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
    decoded = list(_step_sums(maps, lay_out_offsets(weights), 1))
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
    # before pair k + 1 is convolved, and an odd last step runs alone
    import vecspike.core as core

    events = []
    conv, shift = core.conv2d_oracle, FixedPointFormat.shift_left

    def shift_spy(self, raw, shift_by, context="value"):
        if context == "convolution sum":
            events.append("if")
        return shift(self, raw, shift_by, context)

    monkeypatch.setattr(core, "conv2d_oracle",
                        lambda *a, **k: events.append("conv") or conv(*a, **k))
    monkeypatch.setattr(FixedPointFormat, "shift_left", shift_spy)
    net = validate(parse_network("4Conv(encoding)-4Conv"), (1, 6, 6))
    bundle = generate_random_bundle(net, seed=0)
    run_network_oracle(net, bundle.weights, bundle.params, random_input((1, 6, 6), 0), 5)
    assert events == ["conv"] + ["if"] * 5 + ["conv", "if", "if"] * 2 + ["conv", "if"]
