"""The benchmark's in-process path, at tiny sizes and under its tracer.

perfbench wraps simulator functions from the outside and reads what they
take and return: the schedules' ``(x, weights, cfg)`` arguments, and
``LayerRun.report`` and ``.boundary``.  Running one item of each workload
here keeps that API under the tier-1 suite.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

from vecspike import geometry  # noqa: E402


@pytest.mark.parametrize("name", ["cifar10_verify", "mnist_batch", "traffic_sweep"])
def test_one_traced_item_of_each_workload(tmp_path, name):
    tracer = tracing.Tracer()
    run.install_spans(tracer)
    tracer.active = True
    try:
        wl = workloads.make(name, 0, tiny=True, workdir=str(tmp_path))
        wl.setup(tracer)
        tracer.item = 0
        assert wl.run_item(0).failure is None
        assert wl.check_after() == {}
    finally:
        tracer.restore()
    if name != "traffic_sweep":
        assert tracer.counts[(tracing.ITEM, "tile_passes")] > 0


def _expected_schedule_counts(net, time_steps, cfg):
    """Calls per span name and tile passes, derived from the network: the
    encoding layer is scheduled once, every other weighted layer per step,
    and each of those steps makes one ``if_unit_process`` call."""
    calls = {}
    passes = 0
    for layer in net.layers:
        if not layer.has_weights:
            continue
        encoding = layer.kind == "encoding-conv"
        channels, h, w = layer.in_shape
        pad = 2 * layer.padding
        n_groups, tiles, _, _ = geometry.pass_structure(
            channels, h + pad, w + pad, *layer.kernel, cfg, encoding
        )
        steps = 1 if encoding else time_steps
        name = "dataflow." + (
            "schedule_encoding_layer" if encoding
            else "schedule_conv_layer." + ("fc" if layer.kind == "fc" else "conv")
        )
        calls[name] = calls.get(name, 0) + steps
        if not encoding:
            calls["dataflow.if_unit_process"] = (
                calls.get("dataflow.if_unit_process", 0) + time_steps
            )
        passes += steps * n_groups * len(tiles)
    return calls, passes


def test_traced_schedule_counts_equal_the_network_pass_structure(tmp_path):
    # the per-layer report reads x from args[0] and cfg from args[2] of
    # the schedules, reached through the module attributes it wraps; the
    # IF span is one call per step of each spiking layer
    tracer = tracing.Tracer()
    run.install_spans(tracer)
    tracer.active = True
    try:
        wl = workloads.make("cifar10_verify", 0, tiny=True, workdir=str(tmp_path))
        wl.setup(tracer)
        tracer.item = 0
        assert wl.run_item(0).failure is None
    finally:
        tracer.restore()
    calls, passes = _expected_schedule_counts(wl.net, wl.time_steps, wl.cfg)
    assert set(calls) == {
        "dataflow.schedule_encoding_layer",
        "dataflow.schedule_conv_layer.conv",
        "dataflow.schedule_conv_layer.fc",
        "dataflow.if_unit_process",
    }
    for name, expected in calls.items():
        assert tracer.calls[(tracing.ITEM, name)] == expected, name
    assert tracer.counts[(tracing.ITEM, "tile_passes")] == passes
