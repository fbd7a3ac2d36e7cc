"""Run one oddeuler CLI command in this fresh process and report on it.

Usage: python3 -S child.py '<json job>'

The job names the package's ``src`` directory, the module search path of
the parent (so that ``-S`` can skip the site-packages start-up hooks,
which are not part of oddeuler) and, optionally, the CLI argv, whether
to trace, which functions to time as units of work, and whether to
capture the value the sum engine hands to the fitter.  Without an argv
the child only times the import (a set-up sample).  The child prints one
JSON line: import seconds, and for a command its exit code, captured
stdout, wall and CPU seconds of ``oddeuler.cli.main``, the peak RSS of
this process and the host probe's time next to the command (see
HostProbe); with unit functions named, also the wall and CPU seconds of
each of their outermost calls in order, each with the probe's time next
to it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

from spans import Tracer, rebind, resolve


def _capture_sum_values(identities, sink: list) -> None:
    # One extra call frame per evaluation: records what fit_value is given.
    inner = identities.evaluate_sum

    def capturing(*args, **kwargs):
        result = inner(*args, **kwargs)
        sink.append(result.value)
        return result

    rebind(identities, "evaluate_sum", capturing)


class HostProbe:
    """Times a fixed mpmath loop that runs no oddeuler code.

    The shared host has slow spells, from seconds to minutes long, in
    which all Python code runs up to about 1.8x slower.  The probe's time
    next to a piece of work measures the host's speed at that moment, so
    the parent can scale the work's time to a fixed host speed.  The time
    spent in the probe itself is summed, so that it can be taken out of
    the time of the command around it.
    """

    STEPS = 150
    DPS = 55

    def __init__(self, mp):
        self.mp = mp
        self.wall = 0.0
        self.cpu = 0.0

    def __call__(self) -> float:
        mp = self.mp
        c0, t0 = time.process_time(), time.perf_counter()
        with mp.workdps(self.DPS):
            x, y = mp.mpf(1), mp.mpf(3) / 7
            for i in range(1, self.STEPS):
                x = x * y + mp.mpf(i) / (i + 1)
        wall = time.perf_counter() - t0
        self.wall += wall
        self.cpu += time.process_time() - c0
        return wall


def _time_units(targets: list[str], probe: HostProbe, sink: list) -> None:
    # One extra call frame per unit of work (a catalog entry, a lemma
    # row): appends [wall, cpu, probe] seconds of each outermost call, in
    # order, where probe is the mean probe time just before and after it.
    depth = [0]
    for target in targets:
        owner, attr, fn = resolve(target)

        def timed(*args, _fn=fn, **kwargs):
            outer = depth[0] == 0
            depth[0] += 1
            before = probe() if outer else 0.0
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                return _fn(*args, **kwargs)
            finally:
                wall = time.perf_counter() - t0
                cpu = time.process_time() - c0
                depth[0] -= 1
                if outer:
                    sink.append([wall, cpu, (before + probe()) / 2])

        rebind(owner, attr, timed)


def main() -> int:
    job = json.loads(sys.argv[1])
    src = os.path.realpath(job["src"])
    sys.path[:0] = [src] + job["path"]
    t0 = time.perf_counter()
    import oddeuler.cli as cli
    import_s = time.perf_counter() - t0
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"oddeuler imported from {cli.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import mpmath as mp
    probe = HostProbe(mp)
    probe()  # first call warms the probe's code paths
    result = {"import_s": import_s, "import_probe_s": probe()}
    argv = job.get("argv")
    if argv is not None:
        tracer = None
        if job.get("trace"):
            # The spans' clock stands still while the host probe runs.
            tracer = Tracer(lambda: time.perf_counter() - probe.wall)
            tracer.install(job["layers"])
        values: list = []
        if job.get("capture"):
            import oddeuler.identities as identities
            _capture_sum_values(identities, values)
        units: list = []
        if job.get("units"):
            _time_units(job["units"], probe, units)
        before = probe()
        probe.wall = probe.cpu = 0.0
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            wall_s = time.perf_counter() - t0 - probe.wall
            cpu_s = time.process_time() - c0 - probe.cpu
        probe_s = (before + probe()) / 2
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result.update(rc=rc, stdout=out.getvalue(), stderr=err.getvalue()[-2000:],
                      wall_s=wall_s, cpu_s=cpu_s, probe_s=probe_s,
                      peak_rss_mb=rss_kb / 1024)
        if units:
            result["units"] = units
        if values:
            result["values"] = [mp.nstr(v, 70) for v in values]
        if tracer is not None:
            result["layers"] = tracer.summary()
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    # Skip interpreter teardown: the report is written and nothing else
    # is held open.
    os._exit(main())
