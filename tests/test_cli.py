import csv
import dataclasses
import io
import json
import re
import struct
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import fusion_plans
from vecspike import cli, errors
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


def test_run_bundle_with_another_fixed_point_format(tmp_path):
    bundle_path = _mnist_bundle(tmp_path, FixedPointFormat(24, 4))
    args = [
        "run", "--net", "mnist", "--bundle", str(bundle_path), "--timesteps", "2",
        "--verify", "--out", str(tmp_path / "r.txt"),
    ]
    assert run_cli(args) == cli.EXIT_VALIDATION
    config = tmp_path / "hw.json"
    config.write_text(json.dumps({"frac_bits": 4}))
    assert run_cli(args + ["--config", str(config)]) == 0
    assert "oracle match: exact" in (tmp_path / "r.txt").read_text()


def test_run_bundle_for_another_input_size_stops_before_the_engine(
    tmp_path, monkeypatch
):
    bundle_path = _mnist_bundle(tmp_path)

    def engine(*args):
        raise AssertionError("the engine ran")

    monkeypatch.setattr(cli, "run_network", engine)
    code = run_cli(
        [
            "run", "--net", "mnist", "--bundle", str(bundle_path),
            "--input-shape", "1,32,32", "--timesteps", "2",
        ]
    )
    assert code == cli.EXIT_VALIDATION


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
        {"group_size": True},
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


MNIST_ON_4_BLOCKS = {"pe_blocks": 4, "group_size": 4}


@pytest.mark.parametrize("args, config, code, message", [
    (["bench", "--config", "{tmp}/missing.json"], None, 2, "error: cannot read config"),
    (["bench"], [1], 3, "error: config must be a JSON object"),
    (["bench"], {"bogus": 3}, 3, "validation error: unknown config fields"),
    (["bench"], {"self": 3}, 3, "validation error: unknown config fields"),
    (["bench"], MNIST_ON_4_BLOCKS, 3, "validation error: the encoding layer needs 8"),
    (["run", "--net", "mnist", "--timesteps", "2"], MNIST_ON_4_BLOCKS, 3,
     "validation error: the encoding layer needs 8"),
    (["run", "--net", "{tmp}"], None, 2, "error: cannot read network file"),
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
], ids=[
    "missing_config", "config_list", "unknown_field", "field_self", "bench_4_blocks",
    "run_4_blocks", "net_directory", "missing_input", "run_no_shape", "traffic_no_shape",
    "vth_inf", "vth_no_exponent", "vth_off_format",
])
def test_cli_input_error_exit_code_and_message(tmp_path, capsys, args, config, code, message):
    args = [arg.replace("{tmp}", str(tmp_path)) for arg in args]
    if config is not None:
        (tmp_path / "hw.json").write_text(json.dumps(config))
        args += ["--config", str(tmp_path / "hw.json")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a cast of inf or NaN warns
        assert run_cli(args + ["--out", str(tmp_path / "out")]) == code
    assert capsys.readouterr().err.startswith(message)


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
