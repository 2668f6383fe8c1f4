"""Tests of the benchmark itself: the exactness gate and the trace counts.

    python3 -m pytest perfbench -q

The traced runs take about a minute in all, most of it solve-phi.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys

import pytest

from run import child_env
from tracer import STABLE_COUNTS, UNITS
from workloads import HERE, ROOT, WORKLOADS, gate, load_expected


def cli_output(workload):
    proc = subprocess.run(
        [sys.executable, "-m", "qosp.cli", *WORKLOADS[workload]],
        capture_output=True, text=True, cwd=ROOT, env=child_env(), check=False)
    return proc.returncode, proc.stdout


def traced_metrics(workload):
    proc = subprocess.run(
        [sys.executable, str(HERE / "tracer.py"), "--workload", workload, "--traced"],
        capture_output=True, text=True, cwd=ROOT, env=child_env(), check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] == 0, result["problems"]
    return result["metrics"]


@pytest.fixture(scope="module")
def solve_phi_output():
    return cli_output("solve-phi")


def test_gate_accepts_recorded_solve_phi_values(solve_phi_output):
    rc, out = solve_phi_output
    attempted, failed, problems = gate("solve-phi", rc, out)
    assert (failed, problems) == (0, [])
    assert attempted >= 10


@pytest.mark.parametrize("section, key, value", [
    ("bilinear", "2,2", "3/41"),
    ("cross_pair", "2,2", "-7/41"),
    ("cross_pair", "1,1", "-1/1"),
])
def test_gate_rejects_corrupted_expected_value(solve_phi_output, section, key, value):
    rc, out = solve_phi_output
    expected = copy.deepcopy(load_expected())
    expected[section][key] = value
    _, failed, _ = gate("solve-phi", rc, out, expected)
    assert failed == 1


def test_gate_rejects_changed_solve_phi_output(solve_phi_output):
    rc, out = solve_phi_output
    payload = json.loads(out)
    payload["bilinear"]["1,1"] = "1/7"
    assert gate("solve-phi", rc, json.dumps(payload))[1] == 1
    assert gate("solve-phi", 1, out)[1] == 1
    assert gate("solve-phi", rc, out[:-20])[1] == 1


def test_gate_rejects_failed_verify_check():
    rc, out = cli_output("frt-spins")
    attempted, failed, _ = gate("frt-spins", rc, out)
    assert failed == 0 and attempted > 40
    payload = json.loads(out)
    payload[0]["checks"][3]["pass"] = False
    _, failed, problems = gate("frt-spins", rc, json.dumps(payload))
    assert failed == 1 and payload[0]["checks"][3]["name"] in problems[0]
    assert gate("frt-spins", 1, out)[1] == 1
    assert gate("frt-spins", rc, "[]")[1] == 1


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(workload):
    first, second = traced_metrics(workload), traced_metrics(workload)
    assert set(first) == set(UNITS)
    assert {k: first[k] for k in STABLE_COUNTS} == {k: second[k] for k in STABLE_COUNTS}
    assert first["report.failed"] == 0 and first["report.checks"] > 0


def test_benchmark_json_lists_the_emitted_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert {w["name"] for w in bench["workloads"]} == set(WORKLOADS)
    assert [m["name"] for m in bench["per_layer"]] == [*UNITS, "trace.overhead_ratio"]
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        **UNITS, "trace.overhead_ratio": "ratio"}
    assert {m["name"] for m in bench["end_to_end"]} == {"wall_s", "cpu_s", "peak_rss_mb", "setup_s"}
