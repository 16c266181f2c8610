"""The repository's benchmark: one workload, one seed, every metric.

Run from the repository root::

    python3 perfbench/run.py --workload soak --seed 7 --seconds 10 --trace 0

Each run compiles the package's ``.pyc`` files, then starts the workload
in processes of its own (``worker.py``) with ``PYTHONHASHSEED`` pinned:

* ``--trace 0``: four set-up-only processes and one measuring process;
  ``setup_s`` is the median of the five set-up times, and the
  measuring process gives the other end-to-end metrics;
* ``--trace 1``: one untraced and one traced process over the same
  work; the traced one gives the per-layer metrics and the difference
  in throughput between the two is the tracing overhead.

Human-readable lines come first, every end-to-end metric under its own
name (``requests_per_s``, ``rtt_p50_us``, ...).  The last line is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``,
the metrics being those ``BENCHMARK.json`` lists for the mode.  The exit
code is 0 only when every correctness gate passed.  See README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

from meter import reference_samples, speed

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("soak", "wire", "verify", "hunt")
#: Set-up-only processes per untraced run (plus the measuring one).
SETUP_PROBES = 4
#: Wall-clock limit for one whole run, all processes included.
RUN_LIMIT_S = 170.0
#: Reference samples taken here just before and just after each worker.
AROUND_SAMPLES = 5
#: How far a worker's machine speed may lie outside the speeds sampled
#: around it before the run warns that the program itself may have
#: slowed the interpreter (which the reference kernel divides out).
#: Under heavy neighbour load on a 2-vCPU VM, about 2 % of worker
#: processes strayed further than this; a ``sys.setprofile`` hook in
#: the program made its worker read three times slower.
SPEED_TOLERANCE = 0.3


class WorkerError(RuntimeError):
    """A workload process failed or ran past the run's time limit."""


def spawn(root: Path, args: argparse.Namespace, mode: str,
          deadline: float, spans: str = "") -> Dict[str, Any]:
    """Run one worker process to completion; return its JSON report."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--mode", mode]
    if spans:
        command += ["--spans", spans]
    before = speed(reference_samples(AROUND_SAMPLES))
    env["PERFBENCH_SPAWNED"] = repr(time.monotonic())
    proc = subprocess.Popen(command, cwd=root, env=env,
                            stdout=subprocess.PIPE)
    try:
        stdout, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError(f"{mode} process ran past the time limit")
    if proc.returncode != 0:
        raise WorkerError(f"{mode} process exited with {proc.returncode}")
    after = speed(reference_samples(AROUND_SAMPLES))
    report = json.loads(stdout.decode("utf-8").splitlines()[-1])
    inside = report.get("speed", report["setup_speed"])
    low, high = sorted((before, after))
    report["around"] = (before, after)
    report["warnings"] = []
    if not (low * (1 - SPEED_TOLERANCE) <= inside
            <= high * (1 + SPEED_TOLERANCE)):
        report["warnings"].append(
            f"{mode} process ran at machine speed {inside:.3f}, "
            f"{before:.3f} before it and {after:.3f} after: the program "
            "may slow the interpreter itself, which the reference "
            "kernel divides out")
    return report


def end_to_end(root: Path, args: argparse.Namespace,
               deadline: float) -> Dict[str, Any]:
    setups = [spawn(root, args, "setup", deadline)
              for _ in range(SETUP_PROBES)]
    report = spawn(root, args, "measure", deadline)
    setups.append(report)
    report["warnings"] = [w for s in setups for w in s["warnings"]]
    report["metrics"] = {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
        "ops_per_s": (report["ops_per_s"], "1/s"),
    }
    report["setup_samples"] = [(s["setup_s"], s["raw_setup_s"],
                                s["setup_speed"]) for s in setups]
    return report


def per_layer(root: Path, args: argparse.Namespace,
              deadline: float) -> Dict[str, Any]:
    from tracing import LAYER_METRICS

    untraced = spawn(root, args, "measure", deadline)
    spans = root / ".perfbench" / f"spans-{args.workload}-{args.seed}.jsonl"
    report = spawn(root, args, "trace", deadline, spans=str(spans))
    layers = report["layers"]
    layers["trace.overhead_ops_per_s"] = (untraced["ops_per_s"]
                                          - report["ops_per_s"])
    layers["trace.overhead_ratio"] = (layers["trace.overhead_ops_per_s"]
                                      / untraced["ops_per_s"])
    report["problems"] = untraced["problems"] + report["problems"]
    report["warnings"] += untraced["warnings"]
    report["metrics"] = {name: (layers[name], unit)
                         for name, unit in LAYER_METRICS}
    report["untraced_ops_per_s"] = untraced["ops_per_s"]
    report["spans_file"] = str(spans.relative_to(root))
    return report


def print_summary(args: argparse.Namespace,
                  report: Dict[str, Any]) -> None:
    """The human-readable lines above the JSON result."""
    ops_name = report["ops_name"]
    print(f"perfbench {args.workload}: seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}")
    rows: List[tuple] = []
    if args.trace:
        rows.append(("traced " + ops_name, report["ops_per_s"], "1/s"))
        rows.append(("untraced " + ops_name, report["untraced_ops_per_s"],
                     "1/s"))
        rows += [(n, v, u) for n, (v, u) in report["metrics"].items()]
    else:
        metrics = report["metrics"]
        rows.append(("setup_s", *metrics["setup_s"]))
        rows.append(("peak_rss_mb", *metrics["peak_rss_mb"]))
        rows.append((ops_name, *metrics["ops_per_s"]))
        rows += [(n, v, u) for n, (v, u) in report["summary"].items()]
    for name, value, unit in rows:
        print(f"  {name:44s} {value:>16.6g} {unit}")
    print(f"  attempted {report['attempted']}, failed {report['failed']}, "
          f"inputs {report['inputs']}")
    print(f"  {ops_name} on the host clock {report['raw_ops_per_s']:.6g} "
          f"1/s at machine speed {report['speed']:.3f} over "
          f"{report['chunks']} chunks ({report['around'][0]:.3f} before, "
          f"{report['around'][1]:.3f} after)")
    if args.trace:
        print(f"  spans written to {report['spans_file']}")
    else:
        print("  set-up samples (s at reference speed / host clock / "
              "speed): " + ", ".join(f"{a:.4f}/{b:.4f}/{c:.3f}"
                                     for a, b, c in report["setup_samples"]))
    for warning in report["warnings"]:
        print(f"  WARNING: {warning}")
    for problem in report["problems"]:
        print(f"  GATE FAILED: {problem}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: src/repro not found; run from the repository "
              "root", file=sys.stderr)
        return 2
    # Byte-compile before the first counted process so no run pays it.
    for tree in (root / "src", HERE):
        if not compileall.compile_dir(str(tree), quiet=1):
            print(f"perfbench: cannot compile {tree}", file=sys.stderr)
            return 2

    try:
        report = (per_layer if args.trace else end_to_end)(
            root, args, deadline)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print_summary(args, report)
    print(json.dumps({
        "correct": not report["problems"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in report["metrics"].items()},
    }))
    return 0 if not report["problems"] else 1


if __name__ == "__main__":
    sys.exit(main())
