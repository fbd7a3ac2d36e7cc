"""scripts/regen_catalog.py rebuilds the shipped catalog byte for byte."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_regen_reproduces_shipped_catalog(tmp_path, monkeypatch):
    # refits every derived entry and re-parses every transcribed one, so
    # this guards the parsers, the fit and the catalog encoding end to end
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(
        "regen_catalog", ROOT / "scripts" / "regen_catalog.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    script.OUT = tmp_path / "catalog.jsonl"
    script.main()
    shipped = ROOT / "src" / "oddeuler" / "data" / "catalog.jsonl"
    assert script.OUT.read_bytes() == shipped.read_bytes()
