"""Each committed benchmark record parses and covers the benchmark.

A record, ``BENCH_<n>.json`` at the root of the repository, holds for each
workload of ``BENCHMARK.json`` the last line that

    python3 bench/run.py --workload W --seed 1 --seconds 25 --trace 0

printed, with the commit the measured tree is based on, the host's core
count and the Python version.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_a_record_is_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_record_names_every_end_to_end_metric(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert isinstance(record["base_commit"], str) and len(record["base_commit"]) == 40
    assert isinstance(record["cpu_count"], int) and record["cpu_count"] >= 1
    assert isinstance(record["python"], str) and record["python"]
    workloads = [workload["name"] for workload in BENCHMARK["workloads"]]
    assert sorted(record["workloads"]) == sorted(workloads)
    for name in workloads:
        line = record["workloads"][name]
        assert line["correct"] is True and line["failed"] == 0, name
        for metric in BENCHMARK["end_to_end"]:
            value = line["metrics"][metric["name"]]
            assert value["unit"] == metric["unit"], (name, metric["name"])
            assert isinstance(value["value"], (int, float)) and value["value"] > 0, (
                name, metric["name"]
            )
