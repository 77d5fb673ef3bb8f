import csv
import dataclasses
import io
import json
import re
import shlex
import struct
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import fusion_plans, layer_texts
from vecspike import cli, dataflow, errors
from vecspike.arch import HardwareConfig
from vecspike.core import BinaryWeightTensor, SpikeTrain
from vecspike.fixedpoint import FixedPointFormat
from vecspike.netconfig import (
    parse_network,
    preset_network,
    random_input,
    save_input_tensor,
    validate,
    generate_random_bundle,
    save_bundle,
)

SMALL_NET = "4Conv(encoding)-MP2-4Conv-3fc"


def run_cli(args):
    return cli.main(args)


def test_run_small_net_with_verify(tmp_path, capsys):
    code = run_cli(
        [
            "run", "--net", SMALL_NET, "--input-shape", "1,8,8",
            "--timesteps", "3", "--verify", "--report", "text",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "oracle match: exact" in out


def test_run_mnist_preset_smoke(tmp_path):
    out = tmp_path / "report.json"
    code = run_cli(
        [
            "run", "--net", "mnist", "--timesteps", "2", "--verify",
            "--report", "json", "--out", str(out), "--deterministic",
        ]
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["schema"] == 1
    assert data["oracle_match"] is True
    assert data["peak_gops"] == 2304.0
    assert len(data["layers"]) == 6
    assert "generated_at" not in data


def test_run_zero_timesteps_is_an_argument_error():
    assert run_cli(["run", "--net", "mnist", "--timesteps", "0"]) == cli.EXIT_ARGS


def test_run_negative_seed_is_an_argument_error(capsys):
    assert run_cli(["run", "--net", "mnist", "--seed", "-1"]) == cli.EXIT_ARGS
    assert "--seed must be >= 0" in capsys.readouterr().err


def test_run_unknown_net_is_an_argument_error():
    assert (
        run_cli(["run", "--net", "nonexistent", "--timesteps", "2"]) == cli.EXIT_ARGS
    )


def test_run_bad_net_string_is_a_validation_error():
    assert (
        run_cli(
            ["run", "--net", "4Conv(encoding)-BOGUS", "--input-shape", "1,8,8"]
        )
        == cli.EXIT_VALIDATION
    )


def test_run_wrong_bundle_is_a_validation_error(tmp_path):
    net = validate(parse_network("8Conv(encoding)"), (1, 8, 8))
    bundle_path = tmp_path / "model.vsa"
    save_bundle(generate_random_bundle(net, 0), bundle_path)
    code = run_cli(
        [
            "run", "--net", SMALL_NET, "--input-shape", "1,8,8",
            "--bundle", str(bundle_path),
        ]
    )
    assert code == cli.EXIT_VALIDATION


def test_run_capacity_fault_exit_code(tmp_path):
    config = tmp_path / "hw.json"
    config.write_text(json.dumps({"spike_sram_bytes": 16}))
    code = run_cli(
        [
            "run", "--net", "mnist", "--timesteps", "2",
            "--config", str(config), "--out", str(tmp_path / "r.txt"),
        ]
    )
    assert code == cli.EXIT_FAULT


def test_run_verify_mismatch_exit_code(tmp_path, monkeypatch):
    real_oracle = cli.run_network_oracle

    def corrupted(*args, **kwargs):
        result = real_oracle(*args, **kwargs)
        flipped = result.layer_trains[-1].data.copy()
        flipped[0] ^= 1
        result.layer_trains[-1] = SpikeTrain(flipped)
        return result

    monkeypatch.setattr(cli, "run_network_oracle", corrupted)
    code = run_cli(
        [
            "run", "--net", SMALL_NET, "--input-shape", "1,8,8",
            "--timesteps", "2", "--verify", "--out", str(tmp_path / "r.txt"),
        ]
    )
    assert code == cli.EXIT_VERIFY_MISMATCH


def test_run_csv_row_count(tmp_path):
    out = tmp_path / "report.csv"
    code = run_cli(
        [
            "run", "--net", SMALL_NET, "--input-shape", "1,8,8",
            "--timesteps", "2", "--report", "csv", "--out", str(out),
        ]
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out.read_text())))
    net = parse_network(SMALL_NET)
    assert len(rows) == 1 + len(net.layers) + 1  # header + layers + totals


def test_run_deterministic_reports_are_byte_identical(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code = run_cli(
            [
                "run", "--net", SMALL_NET, "--input-shape", "1,8,8",
                "--timesteps", "3", "--seed", "7", "--verify",
                "--report", "json", "--out", str(out), "--deterministic",
            ]
        )
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_run_reads_network_from_file(tmp_path):
    net_file = tmp_path / "net.txt"
    net_file.write_text(SMALL_NET + "\n")
    code = run_cli(
        [
            "run", "--net", str(net_file), "--input-shape", "1,8,8",
            "--timesteps", "2", "--verify", "--out", str(tmp_path / "r.txt"),
        ]
    )
    assert code == 0


def test_run_matching_bundle_file_accepted(tmp_path):
    net = validate(parse_network(SMALL_NET, time_steps=4), (1, 8, 8))
    bundle_path = tmp_path / "model.vsa"
    save_bundle(generate_random_bundle(net, 12), bundle_path)
    code = run_cli(
        [
            "run", "--net", SMALL_NET, "--input-shape", "1,8,8",
            "--bundle", str(bundle_path), "--timesteps", "4", "--verify",
            "--out", str(tmp_path / "r.txt"),
        ]
    )
    assert code == 0


@pytest.mark.parametrize("bundle_steps, code", [(9, cli.EXIT_VALIDATION), (2, 0)])
def test_run_bundle_time_steps_must_equal_timesteps(tmp_path, capsys, bundle_steps, code):
    net = validate(parse_network(SMALL_NET, time_steps=bundle_steps), (1, 8, 8))
    bundle_path = tmp_path / "model.vsa"
    save_bundle(generate_random_bundle(net, 3), bundle_path)
    assert run_cli([
        "run", "--net", SMALL_NET, "--input-shape", "1,8,8", "--timesteps", "2",
        "--bundle", str(bundle_path), "--verify", "--out", str(tmp_path / "r.txt"),
    ]) == code
    if code:
        assert "9 time steps, --timesteps is 2" in capsys.readouterr().err


def _mnist_bundle(tmp_path, fmt=FixedPointFormat()):
    net, _ = preset_network("mnist", 2)
    bundle_path = tmp_path / "mnist.vsa"
    save_bundle(generate_random_bundle(net, 0, fmt), bundle_path)
    return bundle_path


def test_run_bundle_with_another_fixed_point_format(tmp_path, capsys):
    bundle_path = _mnist_bundle(tmp_path, FixedPointFormat(24, 4))
    args = [
        "run", "--net", "mnist", "--bundle", str(bundle_path), "--timesteps", "2",
        "--verify", "--out", str(tmp_path / "r.txt"),
    ]
    assert run_cli(args) == cli.EXIT_VALIDATION
    assert "validation error: layer 0 (encoding-conv) parameters use" in (
        capsys.readouterr().err
    )
    config = tmp_path / "hw.json"
    config.write_text(json.dumps({"frac_bits": 4}))
    assert run_cli(args + ["--config", str(config)]) == 0
    assert "oracle match: exact" in (tmp_path / "r.txt").read_text()


def test_run_bundle_for_another_input_size_stops_before_the_engine(
    tmp_path, monkeypatch, capsys
):
    # the fc weights of a 28x28 bundle do not fit a 32x32 input: the
    # engine's entry check refuses them before any layer is staged
    bundle_path = _mnist_bundle(tmp_path)

    def stage(*args):
        raise AssertionError("a layer was staged")

    monkeypatch.setattr(dataflow, "stage_weights", stage)
    code = run_cli(
        [
            "run", "--net", "mnist", "--bundle", str(bundle_path),
            "--input-shape", "1,32,32", "--timesteps", "2",
        ]
    )
    assert code == cli.EXIT_VALIDATION
    assert "validation error: layer 4 (fc) weights are" in capsys.readouterr().err


def _small_bundle_with_layer(tmp_path, index, weights, params):
    """A CRC-valid bundle for SMALL_NET on (1,4,4), T=2, whose layer
    ``index`` carries ``weights`` and ``params`` instead of its own."""
    net = validate(parse_network(SMALL_NET, time_steps=2), (1, 4, 4))
    bundle = generate_random_bundle(net, 0)
    bundle.weights[index], bundle.params[index] = weights, params
    bundle_path = tmp_path / "model.vsa"
    save_bundle(bundle, bundle_path)
    return bundle_path


def _run_small_bundle(tmp_path, bundle_path):
    return run_cli([
        "run", "--net", SMALL_NET, "--input-shape", "1,4,4", "--timesteps", "2",
        "--bundle", str(bundle_path), "--out", str(tmp_path / "r.txt"),
    ])


def test_run_bundle_without_a_weighted_layers_weights_is_refused(tmp_path, capsys):
    bundle_path = _small_bundle_with_layer(tmp_path, 2, None, None)
    assert _run_small_bundle(tmp_path, bundle_path) == cli.EXIT_VALIDATION
    assert "layer 2 (conv) is saved without weights" in capsys.readouterr().err


def test_run_bundle_with_weights_on_a_pooling_layer_is_refused(tmp_path, capsys):
    net = validate(parse_network(SMALL_NET, time_steps=2), (1, 4, 4))
    signs = np.zeros(net.layers[1].weight_shape, dtype=np.uint8)
    params = generate_random_bundle(net, 0).params[0]
    bundle_path = _small_bundle_with_layer(
        tmp_path, 1, BinaryWeightTensor(signs), params
    )
    assert _run_small_bundle(tmp_path, bundle_path) == cli.EXIT_VALIDATION
    assert "layer 1 (maxpool2) is saved with weights" in capsys.readouterr().err


def test_run_input_tensor_with_trailing_bytes_is_refused(tmp_path, capsys):
    input_path = tmp_path / "input.bin"
    save_input_tensor(random_input((1, 8, 8), seed=3), input_path)
    with open(input_path, "ab") as handle:
        handle.write(b"\0\0\0")
    code = run_cli([
        "run", "--net", SMALL_NET, "--input", str(input_path),
        "--timesteps", "2", "--out", str(tmp_path / "r.txt"),
    ])
    assert code == cli.EXIT_VALIDATION
    assert "3 unexpected trailing bytes" in capsys.readouterr().err


def test_run_reads_input_tensor_file(tmp_path):
    image = random_input((1, 8, 8), seed=3)
    input_path = tmp_path / "input.bin"
    save_input_tensor(image, input_path)
    code = run_cli(
        [
            "run", "--net", SMALL_NET, "--input", str(input_path),
            "--timesteps", "2", "--verify", "--out", str(tmp_path / "r.txt"),
        ]
    )
    assert code == 0


def test_run_fusion_toggle_difference_equals_savings_identity(tmp_path):
    from vecspike.arch import HardwareConfig
    from vecspike.memmodel import fusion_savings, plan_fusion

    reports = {}
    for fusion in ("on", "off"):
        out = tmp_path / f"{fusion}.json"
        assert run_cli(
            [
                "run", "--net", SMALL_NET, "--input-shape", "1,8,8",
                "--timesteps", "4", "--fusion", fusion, "--report", "json",
                "--out", str(out), "--deterministic",
            ]
        ) == 0
        reports[fusion] = json.loads(out.read_text())
    assert (
        reports["on"]["class_counts"] == reports["off"]["class_counts"]
    )
    saving = (
        reports["off"]["traffic"]["total_bytes"]
        - reports["on"]["traffic"]["total_bytes"]
    )
    net = validate(parse_network(SMALL_NET), (1, 8, 8))
    plan = plan_fusion(net, HardwareConfig())
    assert saving == fusion_savings(net, plan, 4)


def test_traffic_command_prints_reduction(capsys):
    code = run_cli(["traffic", "--net", "cifar10", "--timesteps", "8"])
    out = capsys.readouterr().out
    assert code == 0
    assert "reduction:" in out
    assert "unfused total:" in out


def test_traffic_single_layer_zero_reduction(capsys):
    code = run_cli(
        ["traffic", "--net", "4Conv(encoding)", "--input-shape", "1,6,6"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "reduction:     0.0%" in out


def test_traffic_explicit_plan_file(tmp_path, capsys):
    from vecspike.memmodel import FusionPlan, fusion_savings
    from vecspike.netconfig import preset_network

    plan_path = tmp_path / "plan.json"
    plan_path.write_text("[[0, 1], [2], [3]]")
    code = run_cli(
        [
            "traffic", "--net", "mnist", "--timesteps", "8",
            "--fusion-plan", str(plan_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    saving_line = next(l for l in out.splitlines() if l.startswith("saving:"))
    reported = int(saving_line.split()[1])
    net, _ = preset_network("mnist")
    assert reported == fusion_savings(net, FusionPlan([(0, 1), (2,), (3,)]), 8)


def test_traffic_invalid_plan_file(tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text("[[0, 2]]")
    assert (
        run_cli(["traffic", "--net", "mnist", "--fusion-plan", str(plan)])
        == cli.EXIT_VALIDATION
    )


@pytest.mark.parametrize("command", ["run", "traffic"])
@pytest.mark.parametrize("shape", ["1,28", "1,28,28,4", "1,x,28"])
def test_malformed_input_shape_is_an_argument_error(command, shape):
    assert (
        run_cli([command, "--net", SMALL_NET, "--input-shape", shape])
        == cli.EXIT_ARGS
    )


@pytest.mark.parametrize("command", ["run", "traffic"])
@pytest.mark.parametrize("shape", ["1,-5,4", "0,4,4", "1,4,0"])
def test_non_positive_input_shape_is_a_validation_error(command, shape):
    assert (
        run_cli([command, "--net", "2Conv(encoding)-2fc", "--input-shape", shape])
        == cli.EXIT_VALIDATION
    )


@pytest.mark.parametrize("text", ["[1, 2]", '[["a"]]', "[[0.5]]", "[[true]]", '{"0": 1}'])
def test_traffic_malformed_plan_json_is_a_validation_error(tmp_path, text):
    plan = tmp_path / "plan.json"
    plan.write_text(text)
    assert (
        run_cli(["traffic", "--net", "mnist", "--fusion-plan", str(plan)])
        == cli.EXIT_VALIDATION
    )


def test_bench_reports_peak(tmp_path, capsys):
    assert run_cli(["bench", "--timesteps", "2"]) == 0
    out = capsys.readouterr().out
    assert "peak throughput: 2304.0 GOPS" in out
    assert "mnist:" in out and "cifar10:" in out


def test_bench_halved_clock(tmp_path, capsys):
    config = tmp_path / "hw.json"
    config.write_text(json.dumps({"clock_hz": 2.5e8}))
    assert run_cli(["bench", "--config", str(config), "--timesteps", "2"]) == 0
    assert "peak throughput: 1152.0 GOPS" in capsys.readouterr().out


@pytest.mark.parametrize("command", [["bench"], ["run", "--net", "mnist", "--verify"]])
def test_pe_blocks_alone_sets_both_pass_widths(tmp_path, command):
    # 16 blocks map 16 channels per spiking pass and 2 per encoding pass
    config = tmp_path / "hw.json"
    config.write_text(json.dumps({"pe_blocks": 16}))
    args = ["--timesteps", "2", "--config", str(config), "--out", str(tmp_path / "out")]
    assert run_cli(command + args) == 0


def test_bench_achieved_below_peak(capsys):
    assert run_cli(["bench", "--timesteps", "2"]) == 0
    out = capsys.readouterr().out
    for line in out.splitlines():
        if line.startswith(("mnist:", "cifar10:")):
            achieved = float(line.rsplit("achieved", 1)[1].split("GOPS")[0])
            assert achieved <= 2304.0


def test_bad_config_json(tmp_path):
    config = tmp_path / "hw.json"
    config.write_text("not json")
    assert (
        run_cli(["bench", "--config", str(config)]) == cli.EXIT_VALIDATION
    )
    config.write_text(json.dumps({"bogus_field": 3}))
    assert (
        run_cli(["bench", "--config", str(config)]) == cli.EXIT_VALIDATION
    )


@pytest.mark.parametrize(
    "fields",
    [
        {"pe_blocks": "x"},
        {"array_cols": True},
        {"array_rows": 8.5},
        {"spike_sram_bytes": None},
        {"clock_hz": "fast"},
        {"clock_hz": False},
        {"clock_hz": float("nan")},
        {"clock_hz": float("inf")},
    ],
)
def test_wrongly_typed_config_field_is_a_validation_error(tmp_path, fields):
    config = tmp_path / "hw.json"
    config.write_text(json.dumps(fields))
    for command in (["bench"], ["traffic", "--net", "mnist"]):
        assert run_cli(command + ["--config", str(config)]) == cli.EXIT_VALIDATION


def test_negative_sram_capacity_is_a_validation_error(tmp_path):
    config = tmp_path / "hw.json"
    config.write_text(json.dumps({"spike_sram_bytes": -5, "weight_sram_bytes": -1}))
    for command in (
        ["bench", "--timesteps", "2"],
        ["traffic", "--net", "mnist"],
        ["run", "--net", "mnist", "--timesteps", "2"],
    ):
        code = run_cli(command + ["--config", str(config), "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_VALIDATION


def test_integer_clock_is_accepted(tmp_path, capsys):
    config = tmp_path / "hw.json"
    config.write_text(json.dumps({"clock_hz": 250000000}))
    assert run_cli(["bench", "--config", str(config), "--timesteps", "2"]) == 0
    assert "peak throughput: 1152.0 GOPS" in capsys.readouterr().out


def test_run_report_without_deterministic_adds_only_a_timestamp(tmp_path):
    reports = []
    for flags in ([], ["--deterministic"]):
        out = tmp_path / "report.json"
        assert run_cli([
            "run", "--net", SMALL_NET, "--input-shape", "1,8,8", "--timesteps", "2",
            "--report", "json", "--out", str(out), *flags,
        ]) == 0
        reports.append(json.loads(out.read_text()))
    stamped, deterministic = reports
    assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d", stamped.pop("generated_at"))
    assert stamped == deterministic


def test_run_net_with_signed_and_exponent_thresholds(tmp_path):
    text = "4Conv(encoding){vth=-0.5}-2fc{vth=1e-05}"
    out = tmp_path / "report.json"
    assert run_cli([
        "run", "--net", text, "--input-shape", "1,4,4", "--timesteps", "2",
        "--verify", "--report", "json", "--out", str(out), "--deterministic",
    ]) == 0
    data = json.loads(out.read_text())
    assert data["oracle_match"] is True
    assert parse_network(data["network"]) == parse_network(text)


MNIST_ON_4_BLOCKS = {"pe_blocks": 4}
LONG_DIGITS = "9" * 5000


@pytest.mark.parametrize("args, config, code, message", [
    (["bench", "--config", "{tmp}/missing.json"], None, 2, "error: cannot read config"),
    (["bench"], [1], 3, "error: config must be a JSON object"),
    (["bench"], {"bogus": 3}, 3, "validation error: unknown config fields"),
    (["bench"], {"self": 3}, 3, "validation error: unknown config fields"),
    # one PE block maps one channel per spiking pass: the width is derived
    (["bench"], {"group_size": 32}, 3, "validation error: unknown config fields"),
    (["bench", "--config", "{tmp}"], None, 2, "error: cannot read config"),
    (["bench", "--config", "{tmp}/bad.txt"], None, 3, "error: config is not UTF-8 text"),
    (["bench"], MNIST_ON_4_BLOCKS, 3, "validation error: the encoding layer needs 8"),
    (["run", "--net", "mnist", "--timesteps", "2"], MNIST_ON_4_BLOCKS, 3,
     "validation error: the encoding layer needs 8"),
    (["run", "--net", "{tmp}"], None, 2, "error: cannot read network file"),
    (["run", "--net", "{tmp}/missing.txt"], None, 2, "error: no such preset or file"),
    # a missing path is not read as a layer string, though it holds "fc"
    (["run", "--net", "{tmp}/fcnets/missing.txt", "--input-shape", "1,4,4"], None, 2,
     "error: no such preset or file"),
    (["run", "--net", "{tmp}/bad.txt"], None, 3, "error: network file is not UTF-8 text"),
    (["traffic", "--net", "mnist", "--fusion-plan", "{tmp}/missing.json"], None, 2,
     "error: cannot read fusion plan"),
    (["traffic", "--net", "mnist", "--fusion-plan", "{tmp}"], None, 2,
     "error: cannot read fusion plan"),
    (["traffic", "--net", "mnist", "--fusion-plan", "{tmp}/bad.txt"], None, 3,
     "error: fusion plan is not UTF-8 text"),
    (["run", "--net", SMALL_NET, "--input", "{tmp}/missing.bin"], None, 2,
     "error: cannot read input tensor"),
    (["run", "--net", SMALL_NET], None, 2, "error: need --input, --input-shape"),
    (["traffic", "--net", SMALL_NET], None, 2, "error: need --input-shape"),
    (["run", "--net", "4Conv(encoding){vth=1e999}-2fc", "--input-shape", "1,4,4"],
     None, 3, "validation error: vth must be finite"),
    (["run", "--net", "4Conv(encoding){vth=1e}-2fc", "--input-shape", "1,4,4"],
     None, 3, "validation error: bad attribute block"),
    (["run", "--net", "4Conv(encoding){vth=1e300}-2fc", "--input-shape", "1,4,4"],
     None, 4, "fault: quantize: 8.07930038958702e+299 outside"),
    # the layer rules are validate's alone, and each names its layer
    (["run", "--net", "64Conv-10fc", "--input-shape", "1,4,4"], None, 3,
     "validation error: layer 0: first layer must be an encoding convolution"),
    (["traffic", "--net", "64Conv(encoding)-8Conv(encoding)", "--input-shape", "1,4,4"],
     None, 3, "validation error: layer 1: encoding layer only allowed at position 0"),
    (["run", "--net", "4Conv(encoding)-0Conv-10fc", "--input-shape", "1,4,4"], None, 3,
     "validation error: layer 1: weighted layers must declare a positive channel count"),
    # integers past the interpreter's 4300-digit limit on int(str)
    (["traffic", "--net", LONG_DIGITS + "Conv(encoding)-10fc", "--input-shape", "1,4,4"],
     None, 3, "validation error: 5000-digit channel count (column 1)"),
    (["bench", "--config", "{tmp}/long_config.json"], None, 3,
     "error: config is not valid JSON: Exceeds the limit"),
    (["traffic", "--net", "mnist", "--fusion-plan", "{tmp}/long_plan.json"], None, 3,
     "validation error: fusion plan is not valid JSON: Exceeds the limit"),
    # nesting past the interpreter's recursion limit
    (["bench", "--config", "{tmp}/deep.json"], None, 3,
     "error: config is not valid JSON: maximum recursion depth exceeded"),
    (["traffic", "--net", "mnist", "--fusion-plan", "{tmp}/deep.json"], None, 3,
     "validation error: fusion plan is not valid JSON: maximum recursion depth exceeded"),
], ids=[
    "missing_config", "config_list", "unknown_field", "field_self", "field_group_size",
    "config_directory", "config_not_utf8", "bench_4_blocks", "run_4_blocks",
    "net_directory", "missing_net_file", "missing_net_path_with_fc", "net_file_not_utf8",
    "missing_plan", "plan_directory", "plan_not_utf8", "missing_input", "run_no_shape",
    "traffic_no_shape", "vth_inf", "vth_no_exponent", "vth_off_format",
    "no_encoding_first", "second_encoding", "zero_channels", "long_net_integer",
    "long_config_integer", "long_plan_integer", "deep_config", "deep_plan",
])
def test_cli_input_error_exit_code_and_message(tmp_path, capsys, args, config, code, message):
    (tmp_path / "bad.txt").write_bytes(b"\xff\xfe")  # not UTF-8
    (tmp_path / "long_config.json").write_text(f'{{"pe_blocks": {LONG_DIGITS}}}')
    (tmp_path / "long_plan.json").write_text(f"[[{LONG_DIGITS}]]")
    (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
    args = [arg.replace("{tmp}", str(tmp_path)) for arg in args]
    if config is not None:
        (tmp_path / "hw.json").write_text(json.dumps(config))
        args += ["--config", str(tmp_path / "hw.json")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a cast of inf or NaN warns
        assert run_cli(args + ["--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1  # one line


FAULT_FAMILY = (
    errors.CapacityFault,
    errors.FixedPointOverflowError,
    errors.ScheduleFault,
)


@pytest.mark.parametrize(
    "error",
    [
        cls for cls in vars(errors).values()
        if isinstance(cls, type) and issubclass(cls, errors.SimulatorError)
    ],
    ids=lambda cls: cls.__name__,
)
def test_each_simulator_error_exits_with_its_family_code(monkeypatch, capsys, error):
    def bench(args):
        raise error("raised")

    monkeypatch.setattr(cli, "cmd_bench", bench)
    fault = issubclass(error, FAULT_FAMILY)
    assert run_cli(["bench"]) == (cli.EXIT_FAULT if fault else cli.EXIT_VALIDATION)
    prefix = "fault" if fault else "validation error"
    assert capsys.readouterr().err == f"{prefix}: raised\n"


def test_out_of_memory_exits_3_with_one_line(monkeypatch, capsys):
    # stands in for a real allocation that fails, such as an input of
    # 1x400000x400000
    def random_input(shape, seed):
        raise MemoryError("Unable to allocate 149. GiB for an array")

    monkeypatch.setattr(cli, "random_input", random_input)
    code = run_cli(["run", "--net", "8Conv(encoding)-4fc", "--input-shape", "1,4,4"])
    assert code == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "error: out of memory: Unable to allocate 149. GiB for an array\n")


_PAST_NUMPY_T = ["1000000000000000000", "9223372036854775808"]


@pytest.mark.parametrize("verify", [[], ["--verify"]], ids=["run", "verify"])
@pytest.mark.parametrize("steps", _PAST_NUMPY_T)
def test_run_refuses_a_train_past_numpys_largest_array(capsys, steps, verify):
    # np.empty raised a ValueError for these, which left a traceback
    code = run_cli(["run", "--net", "mnist", "--timesteps", steps, *verify])
    assert code == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == (
        f"validation error: time_steps {steps}: the (64, 28, 28) layer's [T] "
        "spike train exceeds numpy's largest array\n")


@pytest.mark.parametrize("steps", _PAST_NUMPY_T)
def test_traffic_takes_a_t_past_numpys_largest_array(capsys, steps):
    # the memory model counts bytes in Python integers and holds no train
    assert run_cli(["traffic", "--net", "mnist", "--timesteps", steps]) == 0
    assert "reduction:" in capsys.readouterr().out


def test_traffic_counts_bytes_exactly_past_float_precision(capsys):
    # 2**60 + 1 channels: a float ceiling printed ...704 for layer 0 and
    # the fc weights 20 bytes short
    huge = 2**60 + 1
    code = run_cli(["traffic", "--net", f"{huge}Conv(encoding)-10fc",
                    "--input-shape", "1,4,4", "--timesteps", "1"])
    assert code == 0
    rows = capsys.readouterr().out.splitlines()[4:6]
    signs = -(-huge * 9 // 8)
    assert rows[0].split()[:5] == [
        "0", "encoding-conv", str(signs + 6 * huge), "16", str(2 * huge)]
    assert rows[1].split()[:5] == ["1", "fc", str(20 * huge + 60), str(2 * huge), "2"]


# 10**320 output channels: past a float's range, and past numpy's largest
# array, which refuses it without allocating
_PAST_FLOAT_NET = "4Conv(encoding)-1" + "0" * 320 + "fc"


def test_run_refuses_a_layer_past_a_floats_range_with_one_line(capsys):
    code = run_cli(["run", "--net", _PAST_FLOAT_NET, "--input-shape", "1,4,4"])
    assert code == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("validation error: time_steps 8: the (1" + "0" * 320)
    assert err.endswith("spike train exceeds numpy's largest array\n")
    assert err.count("\n") == 1


def test_traffic_exits_3_on_a_byte_count_past_a_floats_range(capsys):
    code = run_cli(["traffic", "--net", _PAST_FLOAT_NET, "--input-shape", "1,4,4"])
    assert code == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "error: number out of range: int too large to convert to float\n")


# past numpy's largest array, 2**63 - 1 bytes, while the trains fit: the
# fc layer's 2**58 x 64 sign weights, and a 1 x 4e9 x 4e9 input image.
# numpy refuses both without allocating; the rule refuses them first.
_WIDE_FC_NET = "4Conv(encoding)-288230376151711744fc"
_WIDE_FC_ERROR = ("layer 1 (fc): the (288230376151711744, 64, 1, 1) sign-weight "
                  "tensor exceeds numpy's largest array")
_HUGE_IMAGE = (1, 4000000000, 4000000000)
_HUGE_IMAGE_ERROR = "the (1, 4000000000, 4000000000) input image exceeds numpy's largest array"


@pytest.mark.parametrize("net, shape, message", [
    (_WIDE_FC_NET, "1,4,4", _WIDE_FC_ERROR),
    ("4Conv(encoding)-10fc", "1,4000000000,4000000000", _HUGE_IMAGE_ERROR),
], ids=["weights", "image"])
def test_run_refuses_an_array_past_numpys_largest_with_one_line(capsys, net, shape, message):
    # each left a ValueError traceback from rng.integers and exited 1
    assert run_cli(["run", "--net", net, "--input-shape", shape]) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == f"validation error: {message}\n"


def test_the_bundle_and_the_image_refuse_arrays_past_numpys_largest():
    net = validate(parse_network(_WIDE_FC_NET), (1, 4, 4))
    net.check_trains_fit(8)  # the trains fit; the weights do not
    with pytest.raises(errors.InvalidParameterError, match=re.escape(_WIDE_FC_ERROR)):
        generate_random_bundle(net, 0)
    with pytest.raises(errors.InvalidParameterError, match=re.escape(_HUGE_IMAGE_ERROR)):
        random_input(_HUGE_IMAGE, 0)


def _readme_cli_commands() -> list[str]:
    """The README "CLI" section's ``sh`` block, one command a line, with
    continuation lines joined and comments dropped."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## CLI\n+```sh\n(.*?)^```", readme, re.M | re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [line for line in map(str.strip, lines) if line and not line.startswith("#")]


def test_the_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = [shlex.split(line) for line in _readme_cli_commands()]
    for words in commands:
        if words[0] == "echo":
            text, redirect, path = words[1:]
            assert redirect == ">"
            (tmp_path / path).write_text(text + "\n")
        else:
            assert words[0] == "vecspike"
            assert run_cli(words[1:]) == 0, shlex.join(words)
    assert {words[1] for words in commands if words[0] == "vecspike"} == {
        "run", "traffic", "bench"}
    assert json.loads((tmp_path / "report.json").read_text())["oracle_match"] is True


# ---------------------------------------------------------------------------
# the exit-code contract under random config and plan JSON
# ---------------------------------------------------------------------------

CONTRACT_CODES = {0, 2, 3, 4, 5}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
config_fields = st.sampled_from([f.name for f in dataclasses.fields(HardwareConfig)])
config_objects = st.dictionaries(
    config_fields,
    st.integers(1, 64) | st.integers(-2, 2**64) | st.floats() | json_values,
    max_size=4,
) | st.dictionaries(config_fields | st.text(max_size=6), json_values, max_size=3)
plan_documents = (
    st.sampled_from([[list(g) for g in plan] for plan in fusion_plans(4)])
    | st.lists(st.lists(st.integers(-1, 4), max_size=3), max_size=5)
    | json_values
)


def _exit_code(tmp_path_factory, command, flag, document):
    path = tmp_path_factory.mktemp("contract") / "doc.json"
    path.write_text(json.dumps(document))
    return run_cli(command + [flag, str(path), "--out", str(path.with_suffix(".out"))])


@given(config=config_objects)
@example(config={"pe_blocks": 10**400})
@example(config={"clock_hz": 10**400})
def test_random_config_keeps_the_exit_contract(tmp_path_factory, config):
    for command in (["bench", "--timesteps", "2"], ["traffic", "--net", "mnist"]):
        code = _exit_code(tmp_path_factory, command, "--config", config)
        assert code in CONTRACT_CODES


@given(plan=plan_documents)
def test_random_fusion_plan_keeps_the_exit_contract(tmp_path_factory, plan):
    command = ["traffic", "--net", "mnist"]
    assert _exit_code(tmp_path_factory, command, "--fusion-plan", plan) in CONTRACT_CODES


@settings(max_examples=50, deadline=None)
@given(text=layer_texts(),
       shape=st.tuples(st.integers(1, 2), st.integers(1, 8), st.integers(1, 8)))
@example(text="--", shape=(1, 1, 1))  # argparse read "--net=--" as an empty list
@example(text=LONG_DIGITS + "Conv(encoding)-10fc", shape=(1, 4, 4))
def test_random_layer_text_keeps_the_exit_contract(tmp_path_factory, text, shape):
    out = tmp_path_factory.mktemp("grammar") / "out"
    net = "--net=" + text  # one argument, though it starts with a dash
    shape = "--input-shape=" + ",".join(map(str, shape))
    for command in (["traffic"], ["run", "--timesteps", "1"]):
        assert run_cli(command + [net, shape, "--out", str(out)]) in CONTRACT_CODES


# Bundle layout after the 4-byte magic: one header struct, then one table
# entry per layer.  Each field is (byte offset in the file, struct code).
_HEADER, _ENTRY = "<HHIIII", "<BBBBIIdI"


def _struct_fields(base, fmt):
    return [
        (base + struct.calcsize("<" + fmt[1:i + 1]), code)
        for i, code in enumerate(fmt[1:])
    ]


def _bundle_fields(n_layers):
    fields = _struct_fields(4, _HEADER)
    first = 4 + struct.calcsize(_HEADER)
    for layer in range(n_layers):
        fields += _struct_fields(first + layer * struct.calcsize(_ENTRY), _ENTRY)
    return fields


def _field_values(code):
    if code == "d":
        return st.floats() | st.sampled_from([0.0, -1.0, 1.5])
    top = 2 ** (8 * struct.calcsize(code)) - 1
    return st.sampled_from([0, 1, 2, 3, 8, 24, top // 2 + 1, top]) | st.integers(0, top)


def _run_edited_bundle(path, field, value):
    """Save a SMALL_NET bundle, set one field under a fresh CRC, so the edit
    gets past the checksum to the field checks, and run it; the exit code."""
    net = validate(parse_network(SMALL_NET, time_steps=2), (1, 8, 8))
    offset, code = field
    save_bundle(generate_random_bundle(net, 5), path)
    blob = bytearray(path.read_bytes())
    struct.pack_into("<" + code, blob, offset, value)
    struct.pack_into("<I", blob, len(blob) - 4, zlib.crc32(blob[4:-4]))
    path.write_bytes(bytes(blob))
    return run_cli([
        "run", "--net", SMALL_NET, "--input-shape", "1,8,8", "--timesteps", "2",
        "--bundle", str(path), "--verify", "--out", str(path.with_suffix(".out")),
    ])


@given(data=st.data())
def test_edited_bundle_field_keeps_the_run_exit_contract(tmp_path_factory, data):
    # one header or layer-table field set to an edge or random value
    field = data.draw(st.sampled_from(_bundle_fields(4)))
    value = data.draw(_field_values(field[1]))
    path = tmp_path_factory.mktemp("bundle") / "model.vsa"
    assert _run_edited_bundle(path, field, value) in CONTRACT_CODES


# Index into _bundle_fields(4): the header's 6 fields, then 8 per layer;
# SMALL_NET's layer 1 is the pooling layer and layer 2 a convolution.
@pytest.mark.parametrize("index, value", [
    (1, 1),  # the reserved u16
    (4, 0),  # the header's time_steps
    (6 + 8 * 1 + 5, 1),  # in_channels of the pooling layer
    (6 + 8 * 2 + 7, 2),  # weighted of the convolution
], ids=["reserved", "time_steps", "pooling_in_channels", "weighted"])
def test_non_canonical_bundle_field_is_a_validation_error(tmp_path, index, value):
    field = _bundle_fields(4)[index]
    assert _run_edited_bundle(tmp_path / "model.vsa", field, value) == cli.EXIT_VALIDATION
