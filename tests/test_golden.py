"""Byte-for-byte golden outputs of the deterministic CLI commands.

The fixtures under ``tests/golden/`` pin modeled numbers (cycles,
utilization, spikes, traffic bytes) so that a refactor of the engine or the
accounting cannot drift unnoticed.  Regenerate a fixture only for a change
that is meant to move a modeled number, by running the listed command with
``--out tests/golden/<file>``.
"""

import hashlib
from pathlib import Path

import pytest

from vecspike import cli
from vecspike.arch import HardwareConfig
from vecspike.errors import CapacityFault
from vecspike.memmodel import FusionPlan, compute_layers, pingpong_schedule, plan_fusion
from vecspike.netconfig import preset_network

GOLDEN = Path(__file__).parent / "golden"
RUN = ["run", "--timesteps", "8", "--seed", "0", "--deterministic"]

CASES = {
    "run_mnist.json": RUN + ["--net", "mnist", "--report", "json"],
    "run_cifar10.json": RUN + ["--net", "cifar10", "--report", "json"],
    "run_mnist.csv": RUN + ["--net", "mnist", "--report", "csv"],
    "run_mnist.txt": RUN + ["--net", "mnist", "--report", "text"],
    "bench_t8.txt": ["bench", "--timesteps", "8"],
    "bench_t3.txt": ["bench", "--timesteps", "3"],
    "traffic_cifar10.txt": ["traffic", "--net", "cifar10"],
    # between them, every note form of the ledger and both pooled kinds
    "traffic_mnist_pairs.txt": ["traffic", "--net", "mnist",
                                "--fusion-plan", str(GOLDEN / "plan_mnist_pairs.json")],
    "traffic_mnist_middle.txt": ["traffic", "--net", "mnist",
                                 "--fusion-plan", str(GOLDEN / "plan_mnist_middle.json")],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path):
    out = tmp_path / name
    assert cli.main(CASES[name] + ["--out", str(out)]) == cli.EXIT_OK
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


# sha256 over every ping-pong trace event field, in order: both presets,
# unfused and greedy plans, T in {1, 8}, then one capacity fault's message.
# Buffer peaks are left out, so a change to staged sizes alone keeps it.
TRACE_SHA256 = "102f0c95e915641e1f9d6d5294aed6b951c11b38101ab4d9bc921818edd701cd"


def test_golden_pingpong_trace():
    cfg = HardwareConfig()
    digest = hashlib.sha256()
    for name in ("mnist", "cifar10"):
        for steps in (1, 8):
            net, _ = preset_network(name, steps)
            unfused = FusionPlan.unfused(len(compute_layers(net)))
            for plan in (unfused, plan_fusion(net, cfg)):
                for e in pingpong_schedule(net, steps, cfg, plan).events:
                    fields = (e.step, e.layer_index, e.buffer, e.op, e.nbytes, e.tag)
                    digest.update(repr(fields).encode())
    net, _ = preset_network("mnist", 8)
    with pytest.raises(CapacityFault) as fault:
        pingpong_schedule(net, 8, cfg.replace(spike_sram_bytes=64))
    digest.update(str(fault.value).encode())
    assert digest.hexdigest() == TRACE_SHA256


# sha256 over each buffer's (name, peak, reads, writes, occupancy) after the
# ping-pong schedule, for the same presets, plans and T as TRACE_SHA256:
# the staged sizes that the trace hash leaves out.
BUFFER_STATS_SHA256 = "b1715c6cc5bee5f623ae96f10bcf62602eb2a731d35989b0d7728841003ed4f1"


def test_golden_pingpong_buffer_statistics():
    cfg = HardwareConfig()
    digest = hashlib.sha256()
    for name in ("mnist", "cifar10"):
        for steps in (1, 8):
            net, _ = preset_network(name, steps)
            unfused = FusionPlan.unfused(len(compute_layers(net)))
            for plan in (unfused, plan_fusion(net, cfg)):
                buffers = pingpong_schedule(net, steps, cfg, plan).buffers
                for b in buffers.values():
                    fields = (b.name, b.peak, b.reads, b.writes, b.occupancy)
                    digest.update(repr(fields).encode())
    assert digest.hexdigest() == BUFFER_STATS_SHA256
