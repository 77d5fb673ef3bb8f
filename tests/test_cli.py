import csv
import io
import json

import numpy as np
import pytest

from vecspike import cli
from vecspike.core import SpikeTrain
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
    net = validate(parse_network(SMALL_NET), (1, 8, 8))
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


def _mnist_bundle(tmp_path, fmt=FixedPointFormat()):
    net, _ = preset_network("mnist")
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


def test_integer_clock_is_accepted(tmp_path, capsys):
    config = tmp_path / "hw.json"
    config.write_text(json.dumps({"clock_hz": 250000000}))
    assert run_cli(["bench", "--config", str(config), "--timesteps", "2"]) == 0
    assert "peak throughput: 1152.0 GOPS" in capsys.readouterr().out
