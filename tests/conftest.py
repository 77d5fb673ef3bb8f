import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from vecspike import geometry
from vecspike.netconfig import LayerSpec, NetworkDescription, validate

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
settings.load_profile("ci")


def brute_conv2d(x, weight_values, pad=0):
    """Exhaustive convolution by nested loops; the tests' own oracle."""
    x = np.asarray(x, dtype=np.int64)
    w = np.asarray(weight_values, dtype=np.int64)
    o_ch, in_ch, kh, kw = w.shape
    c, h, wd = x.shape
    assert c == in_ch
    xp = np.zeros((c, h + 2 * pad, wd + 2 * pad), dtype=np.int64)
    xp[:, pad : pad + h, pad : pad + wd] = x
    ho = xp.shape[1] - kh + 1
    wo = xp.shape[2] - kw + 1
    out = np.zeros((o_ch, ho, wo), dtype=np.int64)
    for o in range(o_ch):
        for i in range(ho):
            for j in range(wo):
                acc = 0
                for ci in range(in_ch):
                    for u in range(kh):
                        for v in range(kw):
                            acc += int(w[o, ci, u, v]) * int(xp[ci, i + u, j + v])
                out[o, i, j] = acc
    return out


def record_matmul_dtypes(monkeypatch):
    """Patch ``np.matmul`` to record the dtype of each call's second operand
    (the oracle's input for one kernel offset); returns the growing list.

    Each operand must be a 2-D view with unit-stride rows, not a copy.  The
    engine's tile products call ``np.matmul`` too, so a test that records
    the oracle's alone runs no engine while patched."""
    seen = []
    matmul = np.matmul

    def spy(a, b, *args, **kwargs):
        assert b.ndim == 2 and b.strides[-1] == b.itemsize and b.base is not None
        seen.append(b.dtype)
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    return seen


def stitching_ledger(h_in, kh, rows, n_groups):
    """(deposits, consumes, peak_rows) of row-by-row pending stitching.

    The tests' own boundary-SRAM reference: every row a tile touches joins
    a pending set; in the last group, rows whose receptive field ends
    inside the tile complete, and the rest are deposited at each tile edge.
    No row may stay pending after the last tile.
    """
    h_out = h_in - kh + 1
    tiles = [(base, min(rows, h_in - base)) for base in range(0, h_in, rows)]
    pending, resident = set(), set()
    deposits = consumes = peak = 0
    for gi in range(n_groups):
        for si, (base, rt) in enumerate(tiles):
            pending |= {
                base + p - (kh - 1) for p in range(rt + kh - 1)
            } & set(range(h_out))
            if gi == n_groups - 1:
                done = {g for g in pending if g + kh - 1 <= base + rt - 1}
                consumes += len(done & resident)
                resident -= done
                pending -= done
                if si < len(tiles) - 1:
                    deposits += len(pending - resident)
                    resident |= pending
                    peak = max(peak, len(resident))
    assert not pending
    return deposits, consumes, peak


def step_boundary(cin, h, w, kh, kw, cfg, encoding=False):
    """(deposits, peak_rows) the engine charges one convolution step: its
    closed form over the row tiles and groups of the step's pass structure."""
    n_groups, tiles, h_out, _ = geometry.pass_structure(cin, h, w, kh, kw, cfg, encoding)
    boundary = geometry._tile_boundary(tiles, h_out, kh, n_groups)
    return boundary.deposits, boundary.peak_rows


def random_network(rng, *, max_layers=4, max_dim=16, max_channels=64):
    """A random validated network within the acceptance envelope."""
    c = int(rng.choice([1, 3]))
    h = int(rng.integers(4, max_dim + 1))
    w = int(rng.integers(4, max_dim + 1))
    input_shape = (c, h, w)

    def rand_vth():
        return float(np.round(rng.uniform(0.5, 2.0), 3))

    layers = [
        LayerSpec(
            "encoding-conv",
            out_channels=int(rng.integers(2, max_channels + 1)),
            padding=int(rng.integers(0, 2)) if min(h, w) >= 3 else 1,
            v_th=rand_vth(),
        )
    ]
    shape = (layers[0].out_channels,) + _conv_out(h, w, layers[0].padding)
    n_extra = int(rng.integers(0, max_layers))
    for _ in range(n_extra):
        choices = ["conv", "fc"]
        if shape[1] % 2 == 0 and shape[2] % 2 == 0 and min(shape[1], shape[2]) >= 2:
            choices.append("maxpool2")
        kind = str(rng.choice(choices))
        if kind == "conv":
            pad = int(rng.integers(0, 2))
            if min(shape[1], shape[2]) < 3 and pad == 0:
                pad = 1
            layer = LayerSpec(
                "conv",
                out_channels=int(rng.integers(2, max_channels + 1)),
                padding=pad,
                v_th=rand_vth(),
            )
            shape = (layer.out_channels,) + _conv_out(shape[1], shape[2], pad)
        elif kind == "fc":
            layer = LayerSpec(
                "fc",
                out_channels=int(rng.integers(2, max_channels + 1)),
                kernel=(1, 1),
                padding=0,
                v_th=rand_vth(),
            )
            shape = (layer.out_channels, 1, 1)
        else:
            layer = LayerSpec("maxpool2", kernel=(2, 2), padding=0)
            shape = (shape[0], shape[1] // 2, shape[2] // 2)
        layers.append(layer)
    net = validate(NetworkDescription(layers), input_shape)
    return net, input_shape


def _conv_out(h, w, pad, k=3):
    return (h + 2 * pad - k + 1, w + 2 * pad - k + 1)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


# The traffic sweep's plan and network generators (perfbench/workloads.py),
# copied so that the tests do not import the benchmark.

def fusion_plans(n):
    """Every plan of singletons and adjacent pairs over n compute layers."""
    if n == 0:
        return [()]
    plans = [((0,),) + tuple(tuple(i + 1 for i in g) for g in rest)
             for rest in fusion_plans(n - 1)]
    if n >= 2:
        plans += [((0, 1),) + tuple(tuple(i + 2 for i in g) for g in rest)
                  for rest in fusion_plans(n - 2)]
    return plans


def random_network_text(rng):
    """A valid network of eight compute layers: encoding, 5 convs, 2 fc."""
    channels = (16, 32, 64, 128, 192, 256)
    size = rng.choice((16, 32))
    shape = (rng.choice((1, 3)), size, size)
    tokens = [f"{rng.choice(channels)}Conv(encoding)"]
    for _ in range(5):
        if size % 2 == 0 and size >= 4 and rng.random() < 0.4:
            tokens.append("MP2")
            size //= 2
        tokens.append(f"{rng.choice(channels)}Conv")
    if size % 2 == 0 and size >= 4 and rng.random() < 0.5:
        tokens.append("MP2")
    tokens += [f"{rng.choice((64, 128, 256))}fc", "10fc"]
    return "-".join(tokens), shape
