"""Self-test of the benchmark harness at a tiny trace length.

Run from the repository root with::

    PYTHONPATH=src python -m pytest benchmarks/suite -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
DECLARATION = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in DECLARATION["workloads"]]
LENGTH = 4000


def run_bench(out: Path, *extra: str, script: Path = HERE / "run.py",
              cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, str(script), "--length", str(LENGTH),
               "--seconds", "0", "--out", str(out), *extra]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def parse(stdout: str):
    """({(workload, metric): (value, unit)}, final JSON document)."""
    lines = stdout.strip().splitlines()
    table = {}
    for line in lines[:-1]:
        workload, metric, value, unit = line.split()
        table[(workload, metric)] = (float(value), unit)
    return table, json.loads(lines[-1])


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("traced")
    return out, run_bench(out, "--trace", "1")


def test_every_end_to_end_metric_is_printed_for_every_workload(tmp_path):
    run = run_bench(tmp_path)
    assert run.returncode == 0, run.stderr
    table, document = parse(run.stdout)
    assert document["correct"] and document["failed"] == 0
    for workload in WORKLOADS:
        for metric in DECLARATION["end_to_end"]:
            value, unit = table[(workload, metric["name"])]
            assert unit == metric["unit"]
            assert value > 0


def test_every_per_layer_metric_is_printed_for_every_workload(traced):
    out, run = traced
    assert run.returncode == 0, run.stderr
    table, document = parse(run.stdout)
    assert document["correct"]
    for workload in WORKLOADS:
        layers = json.loads((out / workload / "layers.json").read_text())
        for metric in DECLARATION["per_layer"]:
            value, unit = table[(workload, metric["name"])]
            assert unit == metric["unit"]
            assert value >= 0
            assert metric["name"] in layers["metrics"]
    merged = json.loads((out / "layers.json").read_text())
    assert sorted(merged) == sorted(WORKLOADS)


def test_spans_nest_and_self_times_are_not_negative(traced):
    out, run = traced
    assert run.returncode == 0, run.stderr
    for workload in WORKLOADS:
        spans = json.loads((out / workload / "spans.json").read_text())
        roots = [span["name"] for span in spans if span["parent"] is None]
        assert roots == ["setup", "rep"]
        for span in spans:
            assert span["start"] <= span["end"]
            if span["parent"] is not None:
                parent = spans[span["parent"]]
                assert parent["start"] <= span["start"]
                assert span["end"] <= parent["end"]
        layers = json.loads((out / workload / "layers.json").read_text())
        for per_name in layers["self_s"].values():
            assert all(seconds >= 0 for seconds in per_name.values())


@pytest.mark.parametrize("workload, seed, cell", [
    ("hot_loop", "0", "omnetpp/STEM"),
    # LRU cells do not depend on the seed, so the golden recorded at
    # seed 0 still applies at seed 3.
    ("campaign_cold", "3", "ammp/LRU"),
])
def test_a_tampered_golden_fails_the_run(tmp_path, workload, seed, cell):
    golden = tmp_path / "golden.json"
    golden.write_text(json.dumps({
        "seed": 0, "length": LENGTH, "cells": {cell: "0" * 16},
    }))
    run = run_bench(tmp_path, "--workload", workload, "--seed", seed,
                    "--golden", str(golden))
    assert run.returncode != 0
    table, document = parse(run.stdout)
    assert not document["correct"] and document["failed"] >= 1
    assert document["metrics"]["cell_ok_ratio"]["value"] < 1.0
    assert table[(workload, "cell_fail_ratio")][0] > 0
    assert cell in run.stderr


def test_a_checkout_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    suite = tmp_path / "benchmarks" / "suite"
    suite.mkdir(parents=True)
    for path in HERE.glob("*.py"):
        shutil.copy(path, suite / path.name)
    run = run_bench(tmp_path / "out", script=suite / "run.py", cwd=tmp_path)
    assert run.returncode != 0
    assert "correct" not in run.stdout
