from pathlib import Path

import pytest

import vecspike
from vecspike.arch import HardwareConfig
from vecspike.errors import ConfigError, ShapeError
from vecspike.geometry import layer_accounting, output_size, pass_structure, step_buffers
from vecspike.memmodel import pingpong_schedule
from vecspike.netconfig import (
    LayerSpec,
    NetworkDescription,
    parse_network,
    preset_network,
    validate,
)

CFG = HardwareConfig()
PACKAGE = Path(vecspike.__file__).parent


@pytest.mark.parametrize("module", ["memmodel.py", "cli.py"])
def test_array_geometry_is_read_only_through_geometry(module):
    assert "array_rows" not in (PACKAGE / module).read_text()


def test_step_buffers_charge_a_strip_and_the_pending_kernel_rows():
    net, _ = preset_network("cifar10", 1)
    # a 32x32 conv, padded to 34 rows, on 8-row arrays: 3-byte parameters
    assert step_buffers(net.layers[1], CFG) == (8 * 32 * 3, 2 * 32 * 3)
    # the fc layer's 1x1 map fits one tile: no boundary
    assert step_buffers(net.layers[-1], CFG) == (3, 0)


def test_step_buffers_charge_no_boundary_for_a_single_tile_or_row_kernel():
    net = validate(parse_network("4Conv(encoding)"), (1, 6, 6))
    assert step_buffers(net.layers[0], CFG)[1] == 0  # 8 padded rows
    layers = [LayerSpec("encoding-conv", 4), LayerSpec("conv", 4, kernel=(1, 3))]
    tall = validate(NetworkDescription(layers), (1, 12, 12))
    assert step_buffers(tall.layers[0], CFG)[1] == 2 * 12 * 3
    assert step_buffers(tall.layers[1], CFG) == (8 * 12 * 3, 0)


@pytest.mark.parametrize(
    "cfg", [CFG.replace(pe_blocks=4), CFG.replace(array_cols=2)]
)
def test_step_buffers_run_where_the_pass_structure_refuses(cfg):
    # the buffer trace models any config; only the datapath needs the
    # kernel to fit the arrays and the encoding layer its eight blocks
    net, _ = preset_network("mnist", 2)
    with pytest.raises(ConfigError):
        layer_accounting(net.layers[0], cfg, 2)
    assert step_buffers(net.layers[0], cfg) == step_buffers(net.layers[0], CFG)
    pingpong_schedule(net, 2, cfg)


@pytest.mark.parametrize(
    "h, w, kh, kw, cfg, encoding, error",
    [
        (10, 6, 3, 3, CFG, False, None),
        (3, 3, 3, 3, CFG, True, None),
        (2, 6, 3, 3, CFG, False, ShapeError),
        (10, 6, 3, 4, CFG, False, ConfigError),
        (10, 6, 4, 3, CFG, False, ConfigError),
        (10, 6, 3, 3, CFG.replace(pe_blocks=4), True, ConfigError),
    ],
)
def test_output_size_checks_as_the_pass_structure_does(h, w, kh, kw, cfg, encoding, error):
    if error is None:
        size = output_size(h, w, kh, kw, cfg, encoding)
        assert size == (h - kh + 1, w - kw + 1)
        assert pass_structure(5, h, w, kh, kw, cfg, encoding)[2:] == size
        return
    for call in (lambda: output_size(h, w, kh, kw, cfg, encoding),
                 lambda: pass_structure(5, h, w, kh, kw, cfg, encoding)):
        with pytest.raises(error):
            call()
