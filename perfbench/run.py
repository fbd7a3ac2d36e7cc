"""Benchmark: time to a checked answer from the oddeuler CLI.

Runs the CLI the way a researcher does: one command at a time, each in a
fresh Python process (closed loop, one client).  Each child times the
import of ``oddeuler.cli`` (set-up) and then ``oddeuler.cli.main(argv)``
with stdout captured; this process checks every output against
reference.json.

Usage, from the repository root:

    python3 perfbench/run.py --workload verify-catalog --seed 1 \
        --seconds 30 --trace 0

Workloads:
  verify-catalog  ``verify --format csv`` over the shipped catalog.
  lemma-check     ``lemma-check --format csv`` (kmax 20, 160 rows).
  fit-sweep       144 ``fit`` ops (24 sums x digits 30/40/52 x K 1000/3000),
                  shuffled by the seed; every pass runs all of them.

With ``--trace 0`` whole passes repeat while the next one should end
within ``--seconds`` (at least one pass), and the
end-to-end metrics of BENCHMARK.json are reported, each time scaled to
a nominal host speed (see at_nominal_speed).  With ``--trace 1``
one pass runs, each op once plain and once under the outside-in tracer
of spans.py, and the per-layer metrics are reported.  The last line of
stdout is the result object; the line before it holds the environment
and the failure detail.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
SETUP_SAMPLES = 7
HARD_LIMIT_S = 170
DEADLINE = time.monotonic() + HARD_LIMIT_S
WORKLOADS = ("verify-catalog", "lemma-check", "fit-sweep")
# Times are reported at the host speed at which child.HostProbe takes
# this long: about its time on a 2-vCPU Xeon VM outside slow spells.
PROBE_NOMINAL_S = 0.0009


# The functions whose outermost calls are a long command's units of work:
# one per catalog entry, one per lemma row.
UNITS = {
    "verify-catalog": ["oddeuler.identities:verify"],
    "lemma-check": ["oddeuler.summation:lemma1_aux", "oddeuler.summation:lemma2_g",
                    "oddeuler.summation:lemma3_f"],
}


def make_pass(workload: str, rng: random.Random) -> list[dict]:
    """The ops of one pass over the workload."""
    if workload == "verify-catalog":
        return [{"argv": ["verify", "--format", "csv"]}]
    if workload == "lemma-check":
        return [{"argv": ["lemma-check", "--format", "csv"]}]
    ops = checks.fit_ops()
    rng.shuffle(ops)
    return ops


def spawn(job: dict) -> dict:
    """Run child.py on one job in a fresh interpreter; wait for it.

    The child is killed if it would outlast the run's hard deadline.
    """
    job = {"src": str(SRC), "path": [p for p in sys.path if p], **job}
    timeout = DEADLINE - time.monotonic()
    if timeout <= 0:
        return {"error": f"not started: past the {HARD_LIMIT_S} s run limit"}
    try:
        proc = subprocess.run([sys.executable, "-S", str(CHILD), json.dumps(job)],
                              capture_output=True, text=True, cwd=ROOT,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"child killed at the {HARD_LIMIT_S} s run limit"}
    if proc.returncode != 0:
        return {"error": proc.stderr.strip()[-500:] or f"exit {proc.returncode}"}
    return json.loads(proc.stdout.splitlines()[-1])


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment() -> dict:
    import mpmath
    import mpmath.libmp
    return {"python": platform.python_version(),
            "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND,
            "nproc": len(os.sched_getaffinity(0)),
            "git_commit": git_commit(),
            "src_lines": sum(len(p.read_text().splitlines())
                             for p in sorted(SRC.rglob("*.py")))}


def p90(values: list[float]) -> float:
    """90th percentile once ten samples lie beyond it, else the median."""
    if len(values) < 100:
        return statistics.median(values)
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def at_nominal_speed(result: dict) -> tuple[float, float]:
    """Wall and CPU seconds of one op, scaled to the nominal host speed.

    Each unit of work is scaled by PROBE_NOMINAL_S over the probe time
    next to it, and the rest of the op by the probe time next to the op.
    An op with no units named is one unit.
    """
    units = result.get("units") or [[result["wall_s"], result["cpu_s"],
                                      result["probe_s"]]]
    wall = result["wall_s"] - sum(u[0] for u in units)
    cpu = result["cpu_s"] - sum(u[1] for u in units)
    scale = PROBE_NOMINAL_S / result["probe_s"]
    wall, cpu = wall * scale, cpu * scale
    for unit_wall, unit_cpu, probe_s in units:
        wall += unit_wall * PROBE_NOMINAL_S / probe_s
        cpu += unit_cpu * PROBE_NOMINAL_S / probe_s
    return wall, cpu


def measure(workload: str, seed: int, seconds: float):
    """Untraced runs: repeat whole passes while the next one should end
    within `seconds`; at least one pass.  Every child's import is a set-up
    sample; import-only children top them up to SETUP_SAMPLES."""
    rng = random.Random(seed)
    done = []
    passes = 0
    start = time.perf_counter()
    while True:
        for op in make_pass(workload, rng):
            result = spawn({"argv": op["argv"], "units": UNITS.get(workload),
                            "capture": workload == "fit-sweep"})
            done.append((result, checks.check(workload, op, result)))
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / passes > seconds or time.monotonic() > DEADLINE:
            break
    timed = [r for r, o in done if "wall_s" in r and (o.ok or o.known_miss)]
    if not timed:
        return {}, {}, [o for _, o in done], 0
    setups = timed + [spawn({}) for _ in range(SETUP_SAMPLES - len(timed))]
    setups = [r for r in setups if "import_s" in r]
    walls, cpus = zip(*(at_nominal_speed(r) for r in timed))
    digits = [o.digits for _, o in done if o.digits is not None]
    metrics = {
        "wall_s": statistics.median(walls),
        "wall_s_p90": p90(walls),
        "cpu_s": statistics.median(cpus),
        "setup_s": statistics.median(r["import_s"] * PROBE_NOMINAL_S
                                     / r["import_probe_s"] for r in setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
        "achieved_digits": min(digits) if digits else 0.0,
        "ok_share": sum(o.ok for _, o in done) / len(done),
    }
    unscaled = {"wall_s": statistics.median(r["wall_s"] for r in timed),
                "setup_s": statistics.median(r["import_s"] for r in setups),
                "probe_s": statistics.median(r["probe_s"] for r in timed)}
    return metrics, unscaled, [o for _, o in done], len(timed)


def trace(workload: str, seed: int, layers: list[dict]):
    """One pass; each op runs plain, then traced, in separate children."""
    totals: dict[str, dict] = {}
    keys: set[str] = set()
    plain, traced, outcomes = [], [], []
    for op in make_pass(workload, random.Random(seed)):
        capture = workload == "fit-sweep"
        units = UNITS.get(workload)
        base = spawn({"argv": op["argv"], "capture": capture, "units": units})
        result = spawn({"argv": op["argv"], "capture": capture, "units": units,
                        "trace": True, "layers": layers})
        outcomes += [checks.check(workload, op, base),
                     checks.check(workload, op, result)]
        if "wall_s" not in base or "layers" not in result:
            continue
        plain.append(at_nominal_speed(base)[0])
        traced.append(at_nominal_speed(result)[0])
        for name, row in result["layers"].items():
            acc = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for stat in ("calls", "s", "self_s"):
                acc[stat] += row[stat]
            keys.update(row.get("keys", ()))
    metrics = {f"{name}.{stat}": value
               for name, row in totals.items() for stat, value in row.items()}
    calls = metrics.get("summation.evaluate_sum.calls", 0)
    metrics["summation.evaluate_sum.distinct"] = len(keys)
    metrics["summation.evaluate_sum.unique_ratio"] = \
        len(keys) / calls if calls else 1.0
    if plain:
        metrics["trace.overhead_ratio"] = \
            statistics.median(traced) / statistics.median(plain)
    return metrics, outcomes, len(traced)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "oddeuler" / "cli.py").is_file() or not spec_path.is_file():
        print(f"no oddeuler sources under {SRC}, or no {spec_path.name}: "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(SRC))

    if args.trace:
        layers = json.loads((HERE / "layers.json").read_text())
        values, outcomes, samples = trace(args.workload, args.seed, layers)
        unscaled = {}
        wanted = spec["per_layer"]
    else:
        values, unscaled, outcomes, samples = measure(
            args.workload, args.seed, args.seconds)
        wanted = spec["end_to_end"]

    failures = [o.message for o in outcomes if not o.ok and not o.known_miss]
    known = sum(o.known_miss for o in outcomes)
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": environment(),
        "ops": len(outcomes),
        "timed_samples": samples,
        "unscaled_medians": unscaled,
        "fail_rate": (len(failures) + known) / len(outcomes),
        "known_fit_misses": known,
        "known_fit_misses_per_pass_at_seed":
            len(checks.REFERENCE["fit_known_misses"])
            if args.workload == "fit-sweep" else 0,
        "failures": failures[:10],
    }
    print(json.dumps(detail))
    result = {
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0),
                                "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
