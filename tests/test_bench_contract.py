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
