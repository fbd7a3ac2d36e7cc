"""scripts/bench_pairs.py: the summary of alternated benchmark pairs."""

import argparse
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "wall_s", "better": "lower"}, {"name": "ok_share", "better": "higher"}]


def _pairs(parent, change, name):
    return [({name: p}, {name: c}) for p, c in zip(parent, change)]


def test_summary_of_a_clear_gain():
    # ten pairs: the change is faster in nine, by more than the parent's IQR
    parent = [1.0, 1.1, 0.9, 1.05, 0.95, 1.0, 1.02, 0.98, 1.01, 0.99]
    change = [0.8, 0.85, 0.7, 0.82, 0.78, 0.8, 0.81, 0.79, 1.2, 0.8]
    (row,) = bench_pairs.summarize(_pairs(parent, change, "wall_s"), METRICS[:1])
    assert row["name"] == "wall_s" and row["pairs"] == 10 and row["wins"] == 9
    assert row["parent"] == pytest.approx((0.9725, 1.0, 1.0275))
    assert row["change"] == pytest.approx((0.7875, 0.8, 0.8275))
    assert row["delta"] == pytest.approx(-0.2)
    assert row["gain"]


def test_summary_direction_ties_and_no_gain():
    # higher is better: ties are no win, and eight wins of ten meet no gain
    parent = [0.7, 0.7, 0.7, 0.7, 0.7, 0.7, 0.7, 0.7, 0.7, 0.7]
    change = [0.8, 0.8, 0.8, 0.8, 0.8, 0.8, 0.8, 0.8, 0.7, 0.6]
    (row,) = bench_pairs.summarize(_pairs(parent, change, "ok_share"), METRICS[1:])
    assert row["wins"] == 8
    assert row["parent"] == pytest.approx((0.7, 0.7, 0.7))
    assert row["change"][1] == pytest.approx(0.8)
    assert row["delta"] == pytest.approx(1 / 7)
    assert not row["gain"]


def test_summary_of_a_single_pair():
    (row,) = bench_pairs.summarize([({"wall_s": 2.0}, {"wall_s": 3.0})], METRICS[:1])
    assert row["parent"] == (2.0, 2.0, 2.0) and row["change"] == (3.0, 3.0, 3.0)
    assert row["wins"] == 0 and row["delta"] == pytest.approx(0.5) and not row["gain"]


def test_trajectory_line_parses_and_carries_the_rows():
    rows = {"fit-sweep": bench_pairs.summarize(
        _pairs([1.0, 1.2, 0.9], [0.8, 1.3, 0.85], "wall_s"), METRICS[:1])}
    args = argparse.Namespace(parent="abc123", pairs=3, seconds=30.0, first_seed=1)
    line = bench_pairs.trajectory(args, rows)
    assert "\n" not in line
    got = json.loads(line)
    assert {key: got[key] for key in ("parent", "pairs", "seconds", "first_seed")} == \
        {"parent": "abc123", "pairs": 3, "seconds": 30.0, "first_seed": 1}
    assert got["gain_rule"] == bench_pairs.GAIN_RULE
    (row,) = rows["fit-sweep"]
    assert got["workloads"] == {"fit-sweep": {"wall_s": {
        "parent": list(row["parent"]), "change": list(row["change"]),
        "wins": 2, "delta": row["delta"], "gain": False}}}
