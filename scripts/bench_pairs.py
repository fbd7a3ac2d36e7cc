"""Benchmark a change against a parent commit in alternated pairs.

Usage, from the repository root:

    python3 scripts/bench_pairs.py PARENT_REV --pairs 10 --seconds 30

The change side is the working tree.  Each run gets a fresh copy of its
side in a new temporary directory: ``git archive PARENT_REV`` for the
parent, the tracked and untracked non-ignored files for the change.  So
no run finds a bytecode cache, and ``.git`` is only read.  Pair i runs
both sides on seed first_seed + i of every workload, ``perfbench/run.py
--trace 0``; the side that runs first alternates from pair to pair.

For each workload and end-to-end metric of the change's BENCHMARK.json
it prints both sides' median with the first and third quartile
(``statistics.quantiles(values, n=4)``), the change in the median, and
in how many pairs the change was better.  A gain is met when the change
is better in at least nine of ten pairs and its median beats the
parent's by more than the parent's interquartile range.  The run ends
with one JSON line (``trajectory``) that holds the settings, the gain
rule and every workload's rows, for a ``BENCH_<n>.json`` file.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GAIN_RULE = ("better in at least 0.9 of the pairs, and the median better than the "
             "parent's by more than the parent's interquartile range (q3 - q1)")


def export(side: str, rev: str, dest: Path) -> None:
    """Write the files of one side into dest: the parent revision, or the
    working tree's tracked and untracked non-ignored files."""
    if side == "parent":
        tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True)
        return
    names = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                            "--exclude-standard"], cwd=ROOT, capture_output=True,
                           check=True).stdout.decode().split("\0")
    for name in filter(None, names):
        src = ROOT / name
        if src.is_file():  # a tracked file deleted in the working tree is skipped
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def run_side(side: str, rev: str, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run from a fresh copy of the side; its metric values."""
    with tempfile.TemporaryDirectory(prefix=f"bench-{side}-") as tmp:
        export(side, rev, Path(tmp))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{side} {workload} seed {seed}: "
                           f"{proc.stdout.splitlines()[-2]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarize(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> list[dict]:
    """One row per metric over (parent, change) pairs of metric values.

    metrics are BENCHMARK.json's end-to-end entries; "better" says which
    direction wins.  A pair is a win when the change is strictly better.
    """
    rows = []
    for m in metrics:
        name, sign = m["name"], 1 if m["better"] == "higher" else -1
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        pq, cq = quartiles(parent), quartiles(change)
        gap = sign * (cq[1] - pq[1])
        rows.append({"name": name, "parent": pq, "change": cq, "wins": wins,
                     "pairs": len(pairs),
                     "delta": (cq[1] - pq[1]) / pq[1] if pq[1] else 0.0,
                     "gain": wins >= 0.9 * len(pairs) and gap > pq[2] - pq[0]})
    return rows


def trajectory(args: argparse.Namespace, rows: dict[str, list[dict]]) -> str:
    """One JSON line: the run's settings, the gain rule, and for each
    workload its summarize rows keyed by metric name."""
    return json.dumps({
        "parent": args.parent, "pairs": args.pairs, "seconds": args.seconds,
        "first_seed": args.first_seed, "gain_rule": GAIN_RULE,
        "workloads": {workload: {row["name"]: {key: row[key] for key in
                                               ("parent", "change", "wins", "delta", "gain")}
                                 for row in workload_rows}
                      for workload, workload_rows in rows.items()}})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", metavar="PARENT_REV")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", dest="workloads",
                        help="workload to run (repeatable; default all)")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    rows = {}
    for workload in workloads:
        pairs = []
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            got = {side: run_side(side, args.parent, workload, seed, args.seconds)
                   for side in order}
            pairs.append((got["parent"], got["change"]))
            print(f"{workload} seed {seed}: {json.dumps(got)}", flush=True)
        rows[workload] = summarize(pairs, spec["end_to_end"])
        for row in rows[workload]:
            (p1, pm, p3), (c1, cm, c3) = row["parent"], row["change"]
            print(f"{workload:15s} {row['name']:16s} change {cm:.6g} ({c1:.6g}-{c3:.6g}) "
                  f"parent {pm:.6g} ({p1:.6g}-{p3:.6g}) {row['delta']:+.1%} "
                  f"better in {row['wins']}/{row['pairs']}"
                  f"{' gain met' if row['gain'] else ''}", flush=True)
    print(trajectory(args, rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
