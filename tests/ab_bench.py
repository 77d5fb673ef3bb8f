"""Paired benchmark runs of the working tree against another revision.

Run from anywhere inside the repository:

    python3 tests/ab_bench.py --against HEAD~1 --workload traffic_sweep \
        --pairs 10 --seconds 15 --seed 7001

Both sides run from snapshots under one temporary directory, which is
removed at the end: ``REV`` unpacked with ``git archive``, and the working
tree copied file by file (:func:`snapshot`), so that neither side reads
its sources from another place than the other.  Pair ``i`` runs
``perfbench/run.py --workload W --seed SEED+i --seconds S`` once in each
tree, each in its own process with ``PYTHONDONTWRITEBYTECODE=1`` so that
both compile their sources alike; even pairs run the revision first, odd
pairs the working tree.  Before pair 1 each tree runs once with pair 1's
arguments, revision first, and those figures are discarded.
Every pair is printed, then, for each end-to-end metric that
``BENCHMARK.json`` lists, each side's median and quartiles, the pairs
the working tree won (ties count for neither side) and one verdict,
decided by :func:`verdict` from the series and the metric's ``bound``.
A pair whose two runs report different ``modeled_digest`` values, or a
run that fails, is reported and ends the script with exit code 1; the
verdicts do not change the exit code.

The file is not a test module: pytest does not collect it, and it edits
nothing under ``perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, metavar="REV",
                        help="git revision to compare with the working tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=0, help="seed of the first pair")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    return args


def unpack(rev: str, into: Path) -> None:
    """Write the files of ``rev`` under ``into``, as ``git archive`` does."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def snapshot(into: Path) -> None:
    """Copy the working tree's files under ``into``: every file that ``git
    ls-files --cached --others --exclude-standard`` lists, so uncommitted
    edits and untracked files are kept and ignored ones are left out."""
    listed = subprocess.run(
        ["git", "-C", str(ROOT), "ls-files", "-z", "--cached", "--others",
         "--exclude-standard"], check=True, capture_output=True).stdout
    for name in filter(None, listed.decode().split("\0")):
        source = ROOT / name
        if source.is_file():  # a tracked file deleted from the tree is skipped
            target = into / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark process in ``tree``: its metric values and digest."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode or len(lines) < 2:
        raise RuntimeError(f"{tree}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    detail = json.loads(lines[-2].removeprefix("detail "))
    result = json.loads(lines[-1])
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    return {"values": values, "digest": detail["modeled_digest"]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(base: list[float], head: list[float], higher: bool, bound: float) -> str:
    """The verdict on one metric from paired series, ``base[i]`` against
    ``head[i]``, where ``higher`` says which way is better and ``bound``
    is the worsening the benchmark allows, as a fraction of the base's
    median.  The first that holds of:

    * ``gain``: the head wins at least nine tenths of the pairs (ties
      count for neither side) and its median is better than the base's by
      more than the base's interquartile spread;
    * ``worse``: the head's median is worse than the base's by more than
      ``bound``;
    * ``unresolved``: the base's interquartile spread is wider than
      ``bound``, unless every head run is better than every base run;
    * ``no change``.
    """
    sign = 1 if higher else -1  # from here on, higher is better
    base, head = [sign * v for v in base], [sign * v for v in head]
    won = sum(h > b for b, h in zip(base, head))
    (b1, b2, b3), (_, h2, _) = quartiles(base), quartiles(head)
    spread, limit = b3 - b1, bound * abs(b2)
    if 10 * won >= 9 * len(base) and h2 - b2 > spread:
        return "gain"
    if b2 - h2 > limit:
        return "worse"
    if spread > limit and min(head) <= max(base):
        return "unresolved"
    return "no change"


def main(argv=None) -> int:
    args = parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    runs: dict[str, list[dict]] = {"base": [], "head": []}
    ok = True
    with tempfile.TemporaryDirectory(prefix="ab_bench-") as tmp:
        trees = {"base": Path(tmp) / "base", "head": Path(tmp) / "head"}
        for tree in trees.values():
            tree.mkdir()
        unpack(args.against, trees["base"])
        snapshot(trees["head"])
        # one untimed run of each tree first: pair 1 would otherwise find
        # a cold tree, and its first side read slow
        for side in ("base", "head"):
            run_once(trees[side], args.workload, args.seed, args.seconds)
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            pair = {side: run_once(trees[side], args.workload, seed, args.seconds)
                    for side in order}
            for side in runs:
                runs[side].append(pair[side])
            same = pair["base"]["digest"] == pair["head"]["digest"]
            ok = ok and same
            cells = "  ".join(
                f"{m['name']} {pair['base']['values'][m['name']]:.6g} -> "
                f"{pair['head']['values'][m['name']]:.6g}" for m in metrics)
            print(f"pair {i + 1} seed {seed} first {order[0]}: {cells}"
                  + ("" if same else "  DIGEST MISMATCH"), flush=True)

    print(f"\n{args.pairs} pairs, {args.workload}, {args.seconds:g} s, "
          f"{args.against} (base) against the working tree (head)")
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        base = [run["values"][name] for run in runs["base"]]
        head = [run["values"][name] for run in runs["head"]]
        won = sum((h > b) if higher else (h < b) for b, h in zip(base, head))
        (b1, b2, b3), (h1, h2, h3) = quartiles(base), quartiles(head)
        print(f"{name} ({metric['unit']}, {metric['better']} is better): "
              f"base median {b2:.6g} [q1 {b1:.6g}, q3 {b3:.6g}]  "
              f"head median {h2:.6g} [q1 {h1:.6g}, q3 {h3:.6g}]  "
              f"change {100 * (h2 / b2 - 1):+.1f}%  head won {won}/{args.pairs}  "
              f"verdict: {verdict(base, head, higher, metric['bound'])}")
    if not ok:
        print("modeled_digest differs between the trees", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
