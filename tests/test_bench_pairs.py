"""The committed benchmark records come in comparable before/after pairs.

A gain counts only with a committed BENCH_<workload>_before.json and
BENCH_<workload>_after.json, each the run.json of one untraced
`perfbench/run.py` run. This test only reads those files and
BENCHMARK.json.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RECORD = re.compile(r"BENCH_(?P<workload>.+)_(?P<side>before|after)\.json")


def _records() -> dict:
    """{workload: {side: record}} for every committed BENCH_*.json that is
    named like one."""
    found = {}
    for path in sorted(ROOT.glob("BENCH_*.json")):
        match = RECORD.fullmatch(path.name)
        if match:
            found.setdefault(match["workload"], {})[match["side"]] = json.loads(path.read_text())
    return found


def test_committed_bench_records_are_named_by_workload_and_side():
    names = [path.name for path in ROOT.glob("BENCH_*.json")]
    assert names, "no BENCH_*.json pair is committed"
    assert [name for name in names if not RECORD.fullmatch(name)] == []


@pytest.mark.parametrize("workload", sorted(_records()))
def test_bench_records_form_a_comparable_pair(workload):
    pair = _records()[workload]
    assert set(pair) == {"before", "after"}, f"{workload} has only {sorted(pair)}"
    assert workload in {w["name"] for w in BENCHMARK["workloads"]}
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
