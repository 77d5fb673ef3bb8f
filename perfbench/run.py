"""Simulator benchmark: host time and memory that vecspike takes.

Run from the repository root:

    python3 perfbench/run.py --workload mnist_batch --seed 0 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off, in host
seconds scaled by the host's sampled speed (see ``hostspeed``).  ``--trace
1`` is a separate run that wraps the simulator's public functions and
reports per-layer metrics in raw host seconds.  Modeled numbers (cycles,
DRAM bytes, spikes) are never tuned here: they enter ``modeled_digest``,
which must repeat exactly for a seed.  The last line of standard output is
the result object; the line before it and ``.perfbench_out/`` hold the
details (provenance, digest, raw host figures, spans).  The exit code is
nonzero when any item failed its correctness check.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from collections import Counter
from pathlib import Path

import hostspeed
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("cifar10_verify", "mnist_batch", "traffic_sweep")
SETUP_PROBES = 5
P90_MIN_ITEMS = 100
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "items_per_s": "1/s",
    "item_s_p50": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def cap_threads() -> tuple[int, int]:
    """Cap BLAS/OpenMP threads at nproc before numpy loads; never raise them."""
    nproc = len(os.sched_getaffinity(0))
    threads = nproc
    for var in THREAD_VARS:
        try:
            threads = min(threads, max(1, int(os.environ[var])))
        except (KeyError, ValueError):
            pass
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    return threads, nproc


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # smoke-test sizes and the set-up probe; not part of the measured runs
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def install_spans(tracer):
    """Wrap the public functions of each simulator module."""
    from vecspike import core, dataflow, memmodel, netconfig, report

    for name in ("parse_network", "validate", "generate_random_bundle",
                 "save_bundle", "load_bundle", "random_input"):
        tracer.wrap(netconfig, name, f"netconfig.{name}")

    def conv_kind(args):
        fc = tuple(args[0].shape[1:]) == (1, 1)
        return "dataflow.schedule_conv_layer." + ("fc" if fc else "conv")

    def passes(per_pass):
        def count(tr, args):
            c, h, _ = args[0].shape
            cfg = args[2]
            tr.count("tile_passes",
                     math.ceil(c / per_pass(cfg)) * math.ceil(h / cfg.array_rows))
        return count

    tracer.wrap(dataflow, "run_network", "dataflow.run_network")
    tracer.wrap(dataflow, "schedule_conv_layer", conv_kind,
                counter=passes(lambda cfg: cfg.group_size))
    tracer.wrap(dataflow, "schedule_encoding_layer", "dataflow.schedule_encoding_layer",
                counter=passes(lambda cfg: cfg.encoding_channels_per_pass))
    tracer.wrap(dataflow, "if_unit_process", "dataflow.if_unit_process")
    tracer.wrap(core, "run_network_oracle", "core.run_network_oracle")
    tracer.wrap(core, "conv2d_oracle", "core.conv2d_oracle")
    for name in ("plan_fusion", "simulate_traffic", "fusion_savings",
                 "pingpong_schedule"):
        tracer.wrap(memmodel, name, f"memmodel.{name}")
    tracer.wrap(memmodel.FusionPlan, "__post_init__", "memmodel.FusionPlan")
    tracer.wrap(report.RunReport, "render", "report.render")


# name -> (unit, better); every name is printed by each ``--trace 1`` run.
PER_LAYER = {
    "netconfig.validate.s": ("s", "lower"),
    "netconfig.generate_random_bundle.s": ("s", "lower"),
    "netconfig.bundle_roundtrip.s": ("s", "lower"),
    "netconfig.bundle_bytes": ("bytes", "lower"),
    "netconfig.random_input.s": ("s", "lower"),
    "netconfig.parse_network.s": ("s/item", "lower"),
    "netconfig.validate.item_s": ("s/item", "lower"),
    "netconfig.self_s": ("s/item", "lower"),
    "dataflow.run_network.s": ("s/item", "lower"),
    "dataflow.run_network.self_s": ("s/item", "lower"),
    "dataflow.schedule_conv_layer.conv.s": ("s/item", "lower"),
    "dataflow.schedule_conv_layer.conv.calls": ("calls/item", "lower"),
    "dataflow.schedule_conv_layer.fc.s": ("s/item", "lower"),
    "dataflow.schedule_conv_layer.fc.calls": ("calls/item", "lower"),
    "dataflow.schedule_encoding_layer.s": ("s/item", "lower"),
    "dataflow.schedule_encoding_layer.calls": ("calls/item", "lower"),
    "dataflow.if_unit_process.s": ("s/item", "lower"),
    "dataflow.if_unit_process.calls": ("calls/item", "lower"),
    "dataflow.tile_passes": ("passes/item", "lower"),
    "dataflow.us_per_tile_pass": ("us", "lower"),
    "dataflow.ns_per_pe_op": ("ns", "lower"),
    "dataflow.self_s": ("s/item", "lower"),
    "core.run_network_oracle.s": ("s/item", "lower"),
    "core.run_network_oracle.self_s": ("s/item", "lower"),
    "core.conv2d_oracle.s": ("s/item", "lower"),
    "core.conv2d_oracle.calls": ("calls/item", "lower"),
    "core.self_s": ("s/item", "lower"),
    "memmodel.plan_fusion.s": ("s/item", "lower"),
    "memmodel.plan_fusion.calls": ("calls/item", "lower"),
    "memmodel.simulate_traffic.s": ("s/item", "lower"),
    "memmodel.simulate_traffic.calls": ("calls/item", "lower"),
    "memmodel.pingpong_schedule.s": ("s/item", "lower"),
    "memmodel.pingpong_schedule.calls": ("calls/item", "lower"),
    "memmodel.fusion_savings.s": ("s/item", "lower"),
    "memmodel.trace_events": ("events/item", "lower"),
    "memmodel.capacity_faults": ("faults/item", "lower"),
    "memmodel.us_per_trace_event": ("us", "lower"),
    "memmodel.self_s": ("s/item", "lower"),
    "report.render.s": ("s/item", "lower"),
    "report.bytes": ("bytes/item", "lower"),
    "report.self_s": ("s/item", "lower"),
    "arch.total_cycles": ("cycles/item", "lower"),
    "arch.warmup_cycles": ("cycles/item", "lower"),
    "arch.active_pe_cycles": ("cycles/item", "lower"),
    "bench.item.self_s": ("s/item", "lower"),
    "trace.items_per_s": ("1/s", "higher"),
    "trace.layer_share": ("ratio", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

MODULES = ("netconfig", "dataflow", "core", "memmodel", "report")


def layer_metrics(tracer, n_items, elapsed, stats, bundle_bytes, span_s) -> dict:
    ITEM, SETUP = tracing.ITEM, tracing.SETUP

    def total(name, phase=ITEM):
        return tracer.total[(phase, name)]

    def per_item(value):
        return value / n_items

    def ratio(num, den):
        return num / den if den else 0.0

    v = {}
    for f in ("validate", "generate_random_bundle", "bundle_roundtrip", "random_input"):
        v[f"netconfig.{f}.s"] = total(f"netconfig.{f}", SETUP)
    v["netconfig.bundle_bytes"] = bundle_bytes
    v["netconfig.validate.item_s"] = per_item(total("netconfig.validate"))
    tile_passes = tracer.counts[(ITEM, "tile_passes")]
    v["dataflow.tile_passes"] = per_item(tile_passes)
    kernel_s = sum(total(n) for n in (
        "dataflow.schedule_conv_layer.conv", "dataflow.schedule_conv_layer.fc",
        "dataflow.schedule_encoding_layer"))
    v["dataflow.us_per_tile_pass"] = 1e6 * ratio(kernel_s, tile_passes)
    v["dataflow.ns_per_pe_op"] = 1e9 * ratio(
        total("dataflow.run_network"), stats["active_pe_cycles"])
    v["memmodel.trace_events"] = per_item(stats["trace_events"])
    v["memmodel.capacity_faults"] = per_item(stats["capacity_faults"])
    v["memmodel.us_per_trace_event"] = 1e6 * ratio(
        total("memmodel.pingpong_schedule"), stats["trace_events"])
    v["report.bytes"] = per_item(stats["report_bytes"])
    for name in ("total_cycles", "warmup_cycles", "active_pe_cycles"):
        v[f"arch.{name}"] = per_item(stats[name])
    item_wall = total("bench.item")
    v["trace.items_per_s"] = ratio(n_items, elapsed)
    v["trace.layer_share"] = ratio(
        sum(tracer.module_self(ITEM, m) for m in MODULES), item_wall)
    item_spans = sum(c for (phase, _), c in tracer.calls.items() if phase == ITEM)
    v["trace.overhead_ratio"] = ratio(item_spans * span_s, item_wall)
    # The rest follow from their names: <span>.s, <span>.calls, <span>.self_s
    # and <module>.self_s, per item of the timed region.
    for name in PER_LAYER.keys() - v.keys():
        span, _, kind = name.rpartition(".")
        if kind == "s":
            v[name] = per_item(total(span))
        elif kind == "calls":
            v[name] = per_item(tracer.calls[(ITEM, span)])
        elif span in MODULES:
            v[name] = per_item(tracer.module_self(ITEM, span))
        else:
            v[name] = per_item(tracer.self_time[(ITEM, span)])
    return {name: {"value": v[name], "unit": unit}
            for name, (unit, _) in PER_LAYER.items()}


def probe_setup(args) -> tuple[list[float], list[float]]:
    """Host seconds from starting a fresh process to its first timed item,
    and the host slowdown each probe measured right after."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--setup-only"] + (["--tiny"] if args.tiny else [])
    samples, slowdowns = [], []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            rest = proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        samples.append(ready - start)
        slowdowns.append(float(rest))
    return samples, slowdowns


def provenance(blas_threads, nproc) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads,
        "nproc": nproc,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "vecspike" / "__init__.py").is_file():
        print(f"error: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    blas_threads, nproc = cap_threads()
    for path in (str(ROOT / "src"), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads  # imports numpy, so only after cap_threads

    tracer = tracing.Tracer()
    if args.trace:
        install_spans(tracer)
        tracer.active = True
    try:
        return _measure(args, workloads, tracer, blas_threads, nproc)
    finally:
        tracer.restore()


def _measure(args, workloads, tracer, blas_threads, nproc) -> int:
    OUT.mkdir(exist_ok=True)
    wl = workloads.make(args.workload, args.seed, tiny=args.tiny, workdir=str(OUT))
    with tracer.span("bench.setup"):
        wl.setup(tracer)
    if args.setup_only:
        print("ready", flush=True)
        print(hostspeed.slowdown_now())
        return 0

    # Only aggregates and the digest's records are kept, so memory does not
    # grow with the number of items a run completes.
    records: dict[int, dict] = {}
    failures: dict[int, str] = {}
    faults: Counter = Counter()
    stats: Counter = Counter()  # per-item counts of the timed items

    def attempt(i, timed=True):
        try:
            res = wl.run_item(i)
        except Exception:  # noqa: BLE001 - an item that raises is a failed item
            failures[i] = traceback.format_exc(limit=4)
            return
        if i < wl.digest_items:
            records[i] = res.record
        if timed:
            stats.update(res.stats)
        if res.record.get("fault"):
            faults[res.record["fault"]] += 1
        if res.failure:
            failures[i] = res.failure

    # Untraced runs sample the host's speed while they measure; see hostspeed.
    sampler = hostspeed.Sampler()
    # Per-item scaled seconds, scaled as each item ends; a compact array, so
    # that peak RSS barely grows with the number of items a run completes.
    scaled = array("d")
    host_s = 0.0
    with contextlib.nullcontext() if args.trace else sampler:
        start = time.perf_counter()
        n = 0
        while wl.max_items is None or n < wl.max_items:
            tracer.item = n
            spent = sampler.spent
            t0 = time.perf_counter()
            with tracer.span("bench.item"):
                attempt(n)
            end = time.perf_counter()
            tracer.item = None
            host = end - t0 - (sampler.spent - spent)
            host_s += host
            if not args.trace:
                scaled.append(host / sampler.slowdown(t0, end))
            n += 1
            if end - start >= args.seconds:
                break
    tracer.active = False

    # Untimed: finish the items the digest covers, then the deferred checks.
    for i in range(n, wl.digest_items):
        attempt(i, timed=False)
    failures.update(wl.check_after())
    modeled_digest = workloads.record_digest(
        [wl.describe()] + [records.get(i, {"error": True}) for i in range(wl.digest_items)]
    )

    attempted = max(n, wl.digest_items)
    completed = sum(1 for i in range(n) if i not in failures)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(blas_threads, nproc),
        "timed_items": n,
        "timed_s": host_s,
        "attempted": attempted,
        "failed": len(failures),
        "failed_ratio": len(failures) / attempted,
        "failures": {str(k): v for k, v in sorted(failures.items())[:5]},
        "modeled_digest": modeled_digest,
        "digest_items": wl.digest_items,
        "modeled_faults": dict(faults),
    }

    if args.trace:
        metrics = layer_metrics(tracer, n, host_s, stats, wl.bundle_bytes,
                                tracing.span_cost())
        tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        setup_raw, setup_slowdowns = probe_setup(args)
        values = {
            "items_per_s": completed / sum(scaled),
            "item_s_p50": statistics.median(scaled),
            "setup_s": statistics.median(
                raw / slow for raw, slow in zip(setup_raw, setup_slowdowns)),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        detail["host"] = {
            "items_per_s": completed / host_s,
            "setup_s": statistics.median(setup_raw),
            "setup_samples_s": setup_raw,
            "setup_slowdowns": setup_slowdowns,
            "slowdown_median": statistics.median(sampler.slowdowns),
            "slowdown_samples": len(sampler.slowdowns),
        }
        if len(scaled) >= P90_MIN_ITEMS:
            detail["item_s_p90"] = statistics.quantiles(scaled, n=10)[-1]
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}

    correct = not failures
    result = {"correct": correct, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    detail["result"] = result
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(detail, fh, indent=2, sort_keys=True)
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
