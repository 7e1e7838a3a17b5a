"""The committed benchmark records come in comparable before/after pairs.

A gain counts only with a committed BENCH_<workload>_before.json and
BENCH_<workload>_after.json, each the run.json of one untraced
`perfbench/run.py` run. A tagged pair,
BENCH_<workload>_<tag>_{before,after}.json, lets several claims on one
workload keep their own pairs; every pair, tagged or not, is checked alike.
This test only reads those files and BENCHMARK.json.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
RECORD = re.compile(r"BENCH_(?P<workload>{})(?:_(?P<tag>[A-Za-z0-9-]+))?"
                    r"_(?P<side>before|after)\.json".format("|".join(map(re.escape, WORKLOADS))))


def _records() -> dict:
    """{pair name: {side: record}} for every committed BENCH_*.json that is
    named like one; a pair is named by its workload, then its tag if any."""
    found = {}
    for path in sorted(ROOT.glob("BENCH_*.json")):
        match = RECORD.fullmatch(path.name)
        if match:
            pair = "_".join(filter(None, (match["workload"], match["tag"])))
            found.setdefault(pair, {})[match["side"]] = json.loads(path.read_text())
    return found


def test_committed_bench_records_are_named_by_workload_and_side():
    names = [path.name for path in ROOT.glob("BENCH_*.json")]
    assert names, "no BENCH_*.json pair is committed"
    assert [name for name in names if not RECORD.fullmatch(name)] == []


@pytest.mark.parametrize("name", sorted(_records()))
def test_bench_records_form_a_comparable_pair(name):
    pair = _records()[name]
    assert set(pair) == {"before", "after"}, f"{name} has only {sorted(pair)}"
    workload = RECORD.fullmatch(f"BENCH_{name}_before.json")["workload"]
    before, after = pair["before"], pair["after"]
    for record in (before, after):
        assert record["workload"] == workload
        assert record["trace"] == 0
        for metric in BENCHMARK["end_to_end"]:
            entry = record["metrics"][metric["name"]]
            assert entry["unit"] == metric["unit"]
            assert isinstance(entry["value"], (int, float))
    assert before["seed"] == after["seed"]
    assert before["seconds"] == after["seconds"]
