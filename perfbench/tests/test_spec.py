"""BENCHMARK.json, perfbench/spec.json and the code must agree."""

import json
import os

import pytest

from perfbench import bench
from perfbench.workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="module")
def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "perfbench", "spec.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_contract_keys(contract):
    assert set(contract) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert contract["command"] == ["python3", "perfbench/run.py"]
    assert contract["paths"] == ["perfbench"]
    for workload in contract["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in contract["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in contract["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}


def test_setup_time_has_the_largest_bound(contract):
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_result_line_metrics_match_the_code(contract, spec):
    assert [(m["name"], m["unit"]) for m in contract["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in contract["per_layer"]] == list(bench.PER_LAYER)
    carried = [m["name"] for m in spec["end_to_end"] if m["in_result_line"]]
    assert carried == [name for name, _ in bench.END_TO_END]
    carried = [m["name"] for m in spec["per_layer"] if m["in_result_line"]]
    assert carried == [name for name, _ in bench.PER_LAYER]


def test_every_printed_metric_is_declared_with_its_unit(spec):
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    printed = dict(bench.END_TO_END)
    printed.update(bench.EXTRA_UNITS)
    printed.update(bench.PER_LAYER)
    assert printed == declared


def test_workloads_match_the_code(contract, spec):
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    listed = [w["name"] for w in spec["workloads"] if w["in_benchmark_json"]]
    assert [w["name"] for w in contract["workloads"]] == listed
    for row in spec["workloads"]:
        assert row["in_benchmark_json"] or row["why_not_in_benchmark_json"]


def test_per_layer_rows_name_only_declared_metrics_and_workloads(spec):
    applies = {m["name"]: set(m["workloads"]) for m in spec["end_to_end"]}
    workloads = {w["name"] for w in spec["workloads"]}
    for row in spec["per_layer"]:
        for target in row["should_move"]:
            assert target["metric"] in applies, row["name"]
            assert target["workload"] in workloads, row["name"]
            assert target["workload"] in applies[target["metric"]], (row["name"], target)


def test_end_to_end_rows_name_only_declared_workloads(spec):
    workloads = {w["name"] for w in spec["workloads"]}
    for row in spec["end_to_end"]:
        assert set(row["workloads"]) <= workloads
        assert row["better"] in ("lower", "higher")
