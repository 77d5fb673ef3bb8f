"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench -q

Every workload prints every declared metric with its unit, a corrupted
engine or traffic result (made by wrapping a function here, never by
editing the simulator) counts as a failure, and the benchmark refuses to
run where the simulator's sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402


def bench(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "0",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def parse(stdout):
    lines = stdout.strip().splitlines()
    assert lines[-2].startswith("detail ")
    return json.loads(lines[-2][len("detail "):]), json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_prints_with_name_and_unit(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    detail, result = parse(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in declared}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    for key in ("python", "numpy", "blas", "blas_threads", "nproc"):
        assert key in detail["provenance"]
    assert detail["provenance"]["blas_threads"] <= detail["provenance"]["nproc"]


def test_modeled_digest_repeats_for_a_seed():
    digests = {parse(bench("traffic_sweep", t).stdout)[0]["modeled_digest"]
               for t in (0, 1)}
    assert len(digests) == 1


def _flip_one_spike(original):
    from vecspike.core import SpikeTrain

    def corrupted(*args, **kwargs):
        out = original(*args, **kwargs)
        data = out.layer_trains[-1].data.copy()
        data[0, 0, 0, 0] ^= 1
        out.layer_trains[-1] = SpikeTrain(data)
        return out

    return corrupted


@pytest.mark.parametrize("workload, module, name, corrupt", [
    ("cifar10_verify", "dataflow", "run_network", _flip_one_spike),
    ("mnist_batch", "dataflow", "run_network", _flip_one_spike),
    ("traffic_sweep", "memmodel", "fusion_savings",
     lambda f: lambda *a, **k: f(*a, **k) + 1),
])
def test_corrupted_output_counts_as_failure(workload, module, name, corrupt,
                                            monkeypatch, capsys):
    target = __import__(f"vecspike.{module}", fromlist=[name])
    monkeypatch.setattr(target, name, corrupt(getattr(target, name)))
    monkeypatch.setattr(run, "cap_threads", lambda: (1, 1))
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    code = run.main(["--workload", workload, "--seed", "0", "--seconds", "0.2",
                     "--trace", "0", "--tiny"])
    _, result = parse(capsys.readouterr().out)
    assert code != 0
    assert result["correct"] is False and result["failed"] >= 1


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("mnist_batch", 0, cwd=tmp_path,
                 script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_item0_of_seed0_matches_the_cli_report():
    import cli_check

    assert cli_check.main(["mnist_batch"]) == 0
