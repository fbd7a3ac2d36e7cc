"""Run the benchmark on several seeds and print each metric's spread.

Usage, from the repository root:

    python3 perfbench/spread.py --workload fit-sweep --runs 10

For each end-to-end metric it prints the median of the runs and the
distance between the first and third quartile as a share of that median
(``statistics.quantiles(values, n=4)``), next to the metric's bound from
BENCHMARK.json.  Seeds are first_seed, first_seed + 1, ...
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", "0"], cwd=ROOT, capture_output=True, text=True,
            check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        print(seed, json.dumps({k: v["value"] for k, v in
                                result["metrics"].items()}), flush=True)
        if not result["correct"]:
            print(proc.stdout.splitlines()[-2], file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        spread = (q3 - q1) / med
        print(f"{m['name']:16s} median {med:.6g} spread {spread:.4f} "
              f"bound {m['bound']} {'ok' if spread < m['bound'] / 3 else 'WIDE'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
