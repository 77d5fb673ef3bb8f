"""Cross-check the benchmark's modeled numbers against the ``vecspike`` CLI.

    python3 perfbench/cli_check.py mnist_batch       # about 2 s
    python3 perfbench/cli_check.py cifar10_verify    # about 2.5 min

Runs item 0 of seed 0 through the workload, and ``vecspike run --net
<preset> --timesteps 8 --seed 0 --deterministic --report json`` in a
subprocess, then compares cycles, active PE-cycles, DRAM bytes, per-layer
spikes and class counts.  It also prints the ``modeled_digest`` that a
benchmark run whose digest covers item 0 alone (``cifar10_verify``) must
print for seed 0.  Exits nonzero on any difference.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PRESETS = {"cifar10_verify": "cifar10", "mnist_batch": "mnist"}


def cli_report(workload: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-m", "vecspike.cli", "run", "--net", PRESETS[workload],
         "--timesteps", "8", "--seed", "0", "--deterministic", "--report", "json"],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1 or argv[0] not in PRESETS:
        print(f"usage: cli_check.py {{{','.join(PRESETS)}}}", file=sys.stderr)
        return 2
    workload = argv[0]
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import tracing
    import workloads

    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    wl = workloads.make(workload, 0, workdir=str(out))
    wl.setup(tracing.Tracer())
    item = wl.run_item(0)
    failures = wl.check_after()
    cli = workloads.report_record(cli_report(workload))
    digest = workloads.record_digest([wl.describe(), cli])
    print(json.dumps({"benchmark_item0": item.record, "cli": cli}, sort_keys=True))
    print(f"modeled_digest of item 0 from the CLI report: {digest}")
    if item.failure or failures or item.record != cli:
        print("MISMATCH", file=sys.stderr)
        return 1
    print("match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
