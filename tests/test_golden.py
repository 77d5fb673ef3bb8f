"""Byte-for-byte golden outputs of the deterministic CLI commands.

The fixtures under ``tests/golden/`` pin modeled numbers (cycles,
utilization, spikes, traffic bytes) so that a refactor of the engine or the
accounting cannot drift unnoticed.  Regenerate a fixture only for a change
that is meant to move a modeled number, by running the listed command with
``--out tests/golden/<file>``.
"""

from pathlib import Path

import pytest

from vecspike import cli

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
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path):
    out = tmp_path / name
    assert cli.main(CASES[name] + ["--out", str(out)]) == cli.EXIT_OK
    assert out.read_bytes() == (GOLDEN / name).read_bytes()
