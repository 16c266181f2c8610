"""The benchmark's own tests: repeatable counts, seeded inputs, exit codes.

Run from the repository root (not part of the tier-1 suite; about a
minute)::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import run  # noqa: E402
from meter import REFERENCE_S, Meter  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Per-layer metrics read off a host clock; all others are counts or
#: ratios of counts and must repeat exactly.
HOST_UNITS = {"s", "us", "ns", "1/s"}
#: Simulated-clock and fairness metrics, exact for a given seed.
EXACT_SUMMARY = {"sim_latency_p50_us", "sim_latency_p99_us",
                 "sim_goodput_mb_s", "jain_served_ratio",
                 "k2_combos_checked"}


def traced(workload: str, seed: int) -> dict:
    args = argparse.Namespace(workload=workload, seed=seed, seconds=1)
    return run.spawn(ROOT, args, "trace", time.monotonic() + 170)


def repeatable(report: dict) -> dict:
    units = dict(LAYER_METRICS)
    layers = {name: value for name, value in report["layers"].items()
              if units[name] not in HOST_UNITS
              and name != "trace.overhead_ratio"}
    summary = {name: value for name, value in report["summary"].items()
               if name in EXACT_SUMMARY}
    return {"layers": layers, "summary": summary,
            "attempted": report["attempted"], "failed": report["failed"],
            "inputs": report["inputs"], "problems": report["problems"]}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_repeats_and_new_seed_changes_inputs(workload):
    first = repeatable(traced(workload, 11))
    second = repeatable(traced(workload, 11))
    assert first["problems"] == []
    assert first == second
    other = repeatable(traced(workload, 12))
    assert other["problems"] == []
    assert other["inputs"] != first["inputs"]


def test_benchmark_json_lists_what_the_code_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        LAYER_METRICS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "peak_rss_mb", "ops_per_s"}
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    assert sorted(run.WORKLOAD_NAMES) == sorted(WORKLOADS)


def test_meter_folds_a_short_remainder_into_the_last_chunk():
    meter = Meter(10)
    meter.begin()
    for ops in (6, 6, 10, 5):
        meter.note(0.5)
        meter.add(ops)
    meter.end()
    assert [chunk[0] for chunk in meter.chunks] == [12, 15]
    assert [len(chunk[3]) for chunk in meter.chunks] == [2, 2]
    assert meter.operations == 27
    short = Meter(10)
    short.begin()
    short.add(4)
    short.end()
    assert [chunk[0] for chunk in short.chunks] == [4]


def test_meter_scales_noted_durations_by_their_chunk_speed():
    meter = Meter(1)
    meter.rounds = [[(1, 1.0, [REFERENCE_S], [0.1, 0.2]),
                     (1, 1.0, [2 * REFERENCE_S], [0.4])]]
    assert meter.scaled_notes() == pytest.approx([0.1, 0.2, 0.2])


def bench(cwd: Path, *argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds",
         "1", *argv], cwd=cwd, capture_output=True, text=True, timeout=180)


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = bench(tmp_path, "--workload", "verify")
    assert result.returncode != 0
    assert result.stdout.strip() == ""


def test_a_failed_gate_fails_the_run(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    golden = tmp_path / "perfbench" / "golden" / "verify_builtin.json"
    data = json.loads(golden.read_text())
    data["scenarios"][0]["violating"] += 1
    golden.write_text(json.dumps(data))
    result = bench(tmp_path, "--workload", "verify")
    assert result.returncode == 1
    assert "GATE FAILED" in result.stdout
    assert json.loads(result.stdout.splitlines()[-1])["correct"] is False
