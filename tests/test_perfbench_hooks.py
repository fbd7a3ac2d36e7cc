"""The benchmark's hooks into the package still resolve.

perfbench/run.py times the functions named in its UNITS table as units of
work, and perfbench/layers.json names the functions its tracer wraps.
Both name package functions as text, so a rename would otherwise only
show up in a traced benchmark run; and the benchmark's checks want one
unit per lemma row and per catalog entry, and one sum per fit op.  This
only reads perfbench/.
"""

import importlib.util
import json
from pathlib import Path

import pytest

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


def _count_outermost(spans, targets: list[str]) -> tuple[list, list]:
    # wrap each target the way perfbench's child does, counting the
    # outermost calls; returns the count and the (owner, attr, fn) to restore
    count, depth, restore = [0], [0], []
    for target in targets:
        owner, attr, fn = spans.resolve(target)

        def counted(*args, _fn=fn, **kwargs):
            count[0] += depth[0] == 0
            depth[0] += 1
            try:
                return _fn(*args, **kwargs)
            finally:
                depth[0] -= 1

        spans.rebind(owner, attr, counted)
        restore.append((owner, attr, fn))
    return count, restore


@pytest.mark.parametrize("argv, units", [
    (["lemma-check", "--kmax", "3", "--format", "csv"], 24),
    (["verify", "--family", "T1_*", "--format", "csv"], None),
    (["fit", "h1/k^2", "--weight", "3", "--K", "1000"], 1),
])
def test_one_unit_of_work_per_row_entry_and_fit(monkeypatch, capsys, argv, units):
    # the benchmark times one outermost lemma call per lemma row, one
    # identities.verify per catalog entry, and reads one evaluate_sum per
    # fit op; batching the sums first must not change those counts
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run, spans = _load("run"), _load("spans")
    import oddeuler.cli as cli
    from oddeuler.identities import catalog, select
    if argv[0] == "fit":
        targets = ["oddeuler.identities:evaluate_sum"]
    else:
        targets = run.UNITS["lemma-check" if argv[0] == "lemma-check" else "verify-catalog"]
    if units is None:
        units = len(select(catalog(), family=argv[2]))
    count, restore = _count_outermost(spans, targets)
    try:
        rc = cli.main(argv)
    finally:
        for owner, attr, fn in restore:
            spans.rebind(owner, attr, fn)
    capsys.readouterr()
    assert rc == 0
    assert count[0] == units
