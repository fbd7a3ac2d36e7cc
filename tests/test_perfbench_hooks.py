"""The benchmark's hooks into the package still resolve.

perfbench/run.py times the functions named in its UNITS table as units of
work, and perfbench/layers.json names the functions its tracer wraps.
Both name package functions as text, so a rename would otherwise only
show up in a traced benchmark run.  This only reads perfbench/.
"""

import importlib.util
import json
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_timed_and_traced_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports checks
    run, spans = _load("run"), _load("spans")
    layers = json.loads((PERFBENCH / "layers.json").read_text())
    assert set(run.UNITS) <= set(run.WORKLOADS)
    targets = [t for layer in layers for t in layer["targets"]]
    targets += [t for units in run.UNITS.values() for t in units]
    assert "oddeuler.summation:lemma3_f" in targets
    for target in targets:
        owner, attr, fn = spans.resolve(target)
        assert callable(fn) and getattr(owner, attr) is fn, target
