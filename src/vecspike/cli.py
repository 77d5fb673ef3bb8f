"""Command-line interface: run simulations, traffic studies and benchmarks.

Exit codes (scriptable CI gating):
  0  success
  2  argument or file-access error
  3  network/bundle validation error
  4  capacity or datapath fault
  5  engine/oracle verification mismatch

A network or input too large to allocate exits 3 with one line, "error:
out of memory", not a traceback, and so does a byte count too large for a
float ("error: number out of range").
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .arch import CycleReport, HardwareConfig, peak_gops
from .core import run_network_oracle
from .dataflow import run_network
from .errors import (
    CapacityFault,
    FixedPointOverflowError,
    ScheduleFault,
    SimulatorError,
)
from .geometry import layer_accounting
from .memmodel import (
    FusionPlan,
    compute_layers,
    pingpong_schedule,
    plan_fusion,
    simulate_traffic,
)
from .netconfig import (
    PRESETS,
    NetworkDescription,
    generate_random_bundle,
    load_bundle,
    load_input_tensor,
    network_to_string,
    parse_network,
    preset_network,
    random_input,
    validate,
)
from .report import LayerReportRow, RunReport

EXIT_OK = 0
EXIT_ARGS = 2
EXIT_VALIDATION = 3
EXIT_FAULT = 4
EXIT_VERIFY_MISMATCH = 5


class _CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _read_text(path: str, what: str) -> str:
    """A UTF-8 text file: unreadable exits 2, undecodable 3."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise _CliError(f"cannot read {what}: {exc}", EXIT_ARGS) from exc
    except UnicodeDecodeError as exc:
        raise _CliError(f"{what} is not UTF-8 text: {exc}", EXIT_VALIDATION) from exc


def _load_config(path: str | None) -> HardwareConfig:
    if path is None:
        return HardwareConfig()
    try:
        data = json.loads(_read_text(path, "config"))
    except (ValueError, RecursionError) as exc:  # bad syntax, long integers, deep nesting
        raise _CliError(f"config is not valid JSON: {exc}", EXIT_VALIDATION) from exc
    if not isinstance(data, dict):
        raise _CliError("config must be a JSON object", EXIT_VALIDATION)
    return HardwareConfig().replace(**data)


def _resolve_network(
    source: str, time_steps: int
) -> tuple[NetworkDescription, tuple | None]:
    """A preset name, a file holding a layer string, or the string itself;
    a source with a path separator is a file."""
    if source in PRESETS:
        return preset_network(source, time_steps)
    if os.path.exists(source):
        text = _read_text(source, "network file")
    elif ("Conv" in source or "fc" in source) and not os.path.dirname(source):
        text = source
    else:
        raise _CliError(f"no such preset or file: {source!r}", EXIT_ARGS)
    return parse_network(text, time_steps=time_steps), None


def _input_shape(args, default: tuple | None) -> tuple | None:
    """``--input-shape C,H,W`` as three integers, else ``default``."""
    if not args.input_shape:
        return default
    try:
        c, h, w = (int(v) for v in args.input_shape.split(","))
    except ValueError as exc:
        raise _CliError("--input-shape must be C,H,W", EXIT_ARGS) from exc
    if min(c, h, w) < 1:
        raise _CliError(f"--input-shape {c},{h},{w} must be positive", EXIT_VALIDATION)
    return (c, h, w)


def _resolve_input(args, input_shape) -> np.ndarray:
    if args.input:
        try:
            return load_input_tensor(args.input)
        except OSError as exc:
            raise _CliError(f"cannot read input tensor: {exc}", EXIT_ARGS) from exc
    input_shape = _input_shape(args, input_shape)
    if input_shape is None:
        raise _CliError(
            "need --input, --input-shape, or a preset network", EXIT_ARGS
        )
    return random_input(input_shape, args.seed)


def _positive_timesteps(args) -> int:
    if args.timesteps < 1:
        raise _CliError("--timesteps must be >= 1", EXIT_ARGS)
    return args.timesteps


def _write_output(text: str, path: str | None):
    if path:
        with open(path, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def cmd_run(args) -> int:
    time_steps = _positive_timesteps(args)
    if args.seed < 0:
        raise _CliError("--seed must be >= 0", EXIT_ARGS)
    cfg = _load_config(args.config)
    net, preset_shape = _resolve_network(args.net, time_steps)
    image = _resolve_input(args, preset_shape)
    net = validate(net, image.shape)

    if args.bundle:
        bundle = load_bundle(args.bundle)
        bundle_net = validate(bundle.net, image.shape)
        # weight shapes and the format are the runs' own entry check
        if bundle_net.layers != net.layers:
            raise _CliError(
                "bundle was built for a different network", EXIT_VALIDATION
            )
        if bundle.net.time_steps != time_steps:
            raise _CliError(
                f"bundle declares {bundle.net.time_steps} time steps, "
                f"--timesteps is {time_steps}", EXIT_VALIDATION,
            )
        net = bundle_net
    else:
        net.check_trains_fit(time_steps)  # before any weights are drawn
        bundle = generate_random_bundle(net, args.seed, cfg.fmt)

    engine = run_network(net, bundle.weights, bundle.params, image, time_steps, cfg)

    oracle_match: bool | None = None
    if args.verify:
        oracle = run_network_oracle(
            net, bundle.weights, bundle.params, image, time_steps, cfg.fmt
        )
        oracle_match = all(
            e == o for e, o in zip(engine.layer_trains, oracle.layer_trains)
        ) and np.array_equal(engine.class_counts, oracle.class_counts)

    fusion_on = args.fusion == "on"
    layers = compute_layers(net)
    plan = plan_fusion(net, cfg) if fusion_on else FusionPlan.unfused(len(layers))
    traffic = simulate_traffic(net, plan, time_steps, cfg)
    pingpong_schedule(net, time_steps, cfg, plan)  # raises on capacity faults

    traffic_by_layer = {r.layer_index: r for r in traffic.records}
    rows = []
    for run in engine.layers:
        layer = net.layers[run.index]
        rec = traffic_by_layer.get(run.index)
        rows.append(
            LayerReportRow(
                index=run.index,
                kind=run.kind,
                out_shape=layer.out_shape,
                cycles=run.report.total_cycles,
                warmup_cycles=run.report.warmup_cycles,
                utilization=run.report.utilization,
                spike_count=run.spike_count,
                weight_bytes_read=rec.weight_bytes_read if rec else 0,
                input_spike_bytes_read=rec.input_spike_bytes_read if rec else 0,
                output_spike_bytes_written=rec.output_spike_bytes_written if rec else 0,
                boundary_rows_peak=run.boundary.peak_rows,
                boundary_deposits=run.boundary.deposits,
            )
        )
    report = RunReport(
        network=network_to_string(net),
        input_shape=tuple(image.shape),
        time_steps=time_steps,
        layers=rows,
        totals=engine.total_report,
        traffic=traffic,
        peak_gops=peak_gops(cfg),
        class_counts=[int(v) for v in engine.class_counts],
        oracle_match=oracle_match,
        deterministic=args.deterministic,
    )
    _write_output(report.render(args.report), args.out)
    if oracle_match is False:
        return EXIT_VERIFY_MISMATCH
    return EXIT_OK


# ---------------------------------------------------------------------------
# traffic
# ---------------------------------------------------------------------------

def cmd_traffic(args) -> int:
    time_steps = _positive_timesteps(args)
    cfg = _load_config(args.config)
    net, preset_shape = _resolve_network(args.net, time_steps)
    input_shape = _input_shape(args, preset_shape)
    if input_shape is None:
        raise _CliError("need --input-shape or a preset network", EXIT_ARGS)
    net = validate(net, input_shape)
    layers = compute_layers(net)
    if args.fusion_plan == "auto":
        plan = plan_fusion(net, cfg)
    else:
        plan = FusionPlan.from_json(_read_text(args.fusion_plan, "fusion plan"))

    baseline = simulate_traffic(net, FusionPlan.unfused(len(layers)), time_steps, cfg)
    fused = simulate_traffic(net, plan, time_steps, cfg)
    saving = baseline.total_bytes - fused.total_bytes
    pct = 100.0 * saving / baseline.total_bytes if baseline.total_bytes else 0.0

    lines = [
        f"network: {network_to_string(net)}",
        f"time steps: {time_steps}   fusion plan: {plan.to_json()}",
        "",
        f"{'layer':>5} {'kind':<18} {'weights':>10} {'in':>10} {'out':>10} "
        f"{'note'}",
    ]
    for rec in fused.records:
        lines.append(
            f"{rec.layer_index:>5} {rec.kind:<18} {rec.weight_bytes_read:>10} "
            f"{rec.input_spike_bytes_read:>10} {rec.output_spike_bytes_written:>10} "
            f"{rec.note}"
        )
    lines += [
        "",
        f"unfused total: {baseline.total_bytes} bytes "
        f"({baseline.total_bytes / 1024:.3f} KiB)",
        f"fused total:   {fused.total_bytes} bytes "
        f"({fused.total_bytes / 1024:.3f} KiB)",
        f"saving:        {saving} bytes ({saving / 1024:.3f} KiB)",
        f"reduction:     {pct:.1f}%",
    ]
    _write_output("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def cmd_bench(args) -> int:
    time_steps = _positive_timesteps(args)
    cfg = _load_config(args.config)
    lines = [
        f"config: {cfg.pe_count} PEs at {cfg.clock_hz / 1e6:.0f} MHz",
        f"peak throughput: {peak_gops(cfg):.1f} GOPS",
        "",
    ]
    for name in sorted(PRESETS):
        net, _ = preset_network(name, time_steps)
        totals = CycleReport()
        for layer in net.layers:
            totals = totals.merged(layer_accounting(layer, cfg, time_steps)[0])
        lines.append(
            f"{name}: {totals.total_cycles} cycles/inference at T={time_steps}, "
            f"utilization {totals.utilization:.3f}, "
            f"achieved {totals.achieved_gops:.1f} GOPS"
        )
    _write_output("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vecspike",
        description=(
            "Functional and cycle-approximate simulator for a vectorwise "
            "binary-weight spiking-CNN accelerator."
        ),
        epilog=(
            "exit codes: 0 ok, 2 argument/file error, 3 validation error, "
            "4 capacity or datapath fault, 5 verification mismatch"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate a network and report results")
    run.add_argument("--net", required=True,
                     help="preset name (mnist, cifar10), layer string, or file")
    run.add_argument("--bundle", help="model bundle file (default: random from seed)")
    run.add_argument("--input", help="raw input tensor file")
    run.add_argument("--input-shape", help="C,H,W when generating a random input")
    run.add_argument("--timesteps", type=int, default=8)
    run.add_argument("--fusion", choices=("on", "off"), default="on")
    run.add_argument("--verify", action="store_true",
                     help="also run the reference model and compare bit-exactly")
    run.add_argument("--report", choices=("json", "csv", "text"), default="text")
    run.add_argument("--out", help="write the report here instead of stdout")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--config", help="hardware config JSON file")
    run.add_argument("--deterministic", action="store_true",
                     help="omit timestamps so identical runs are byte-identical")
    run.set_defaults(func=cmd_run)

    traffic = sub.add_parser("traffic", help="DRAM traffic study without the datapath")
    traffic.add_argument("--net", required=True)
    traffic.add_argument("--timesteps", type=int, default=8)
    traffic.add_argument("--fusion-plan", default="auto",
                         help="'auto' or a JSON file of layer-index groups")
    traffic.add_argument("--input-shape", help="C,H,W for non-preset networks")
    traffic.add_argument("--config", help="hardware config JSON file")
    traffic.add_argument("--out")
    traffic.set_defaults(func=cmd_traffic)

    bench = sub.add_parser("bench", help="peak and per-preset throughput")
    bench.add_argument("--config", help="hardware config JSON file")
    bench.add_argument("--timesteps", type=int, default=8)
    bench.add_argument("--out")
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for name, value in vars(args).items():
            if isinstance(value, list):  # argparse reads "--net=--" as no value
                raise _CliError(f"--{name.replace('_', '-')} needs a value", EXIT_ARGS)
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (CapacityFault, FixedPointOverflowError, ScheduleFault) as exc:
        print(f"fault: {exc}", file=sys.stderr)
        return EXIT_FAULT
    except SimulatorError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError as exc:
        print(f"error: out of memory: {exc or 'allocation failed'}", file=sys.stderr)
        return EXIT_VALIDATION
    except OverflowError as exc:
        print(f"error: number out of range: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_ARGS


def console_main() -> None:  # pragma: no cover - thin wrapper
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    console_main()
