"""The benchmark records committed at the repository root.

Each ``BENCH_<n>.json`` holds the paired parent/change measurements of one
performance change. It must be strict JSON (no NaN or infinity tokens) and
name only workloads and metrics that ``BENCHMARK.json`` declares, so that a
record cannot drift from the benchmark it claims to come from.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def _strict_load(path):
    def reject(token):
        raise ValueError(f"{path.name}: non-finite token {token}")
    return json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)


def _declared():
    bench = _strict_load(ROOT / "BENCHMARK.json")
    workloads = {w["name"] for w in bench["workloads"]}
    metrics = {m["name"] for m in bench["end_to_end"] + bench["per_layer"]}
    return workloads, metrics


def test_records_are_committed():
    assert RECORDS, "no BENCH_*.json at the repository root"


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_names_only_declared_workloads_and_metrics(path):
    workloads, metrics = _declared()
    record = _strict_load(path)
    assert record["workloads"], "a record measures at least one workload"
    for name, measured in record["workloads"].items():
        assert name in workloads, f"{path.name}: undeclared workload {name!r}"
        undeclared = set(measured) - metrics
        assert not undeclared, f"{path.name}: {name}: undeclared metrics {sorted(undeclared)}"
        for metric, sides in measured.items():
            for side in ("parent", "change"):
                stats = sides[side]
                assert stats["q1"] <= stats["median"] <= stats["q3"], (path.name, name, metric)
