"""Fault-injection benchmark: recovery latency, retries, goodput.

Drives the hardened DMA path (:meth:`repro.core.api.DmaChannel.
dma_reliable`) on a page-bounded workstation while an
:class:`~repro.faults.injector.Injector` applies Bernoulli fault plans
of increasing rate, and records per method and rate:

* success rate (operations that ultimately moved the right bytes);
* recovery: how many successes needed at least one retry or the kernel
  fallback, and the mean/max recovery latency in simulated µs;
* retry / completion-timeout / kernel-fallback counts;
* goodput: payload bytes landed per simulated second, versus the
  fault-free baseline of the same method.

Everything is written as one JSON file
(``benchmarks/results/BENCH_faults.json`` by default) so CI can track
fault-tolerance without parsing tables.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_faults.py           # full
    PYTHONPATH=src python benchmarks/bench_faults.py --quick   # CI smoke
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import List, Optional

if __package__ in (None, ""):  # `python benchmarks/bench_faults.py`
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent
                           / "src"))

from repro.core.api import DmaChannel
from repro.core.machine import MachineConfig, Workstation
from repro.faults.injector import Injector
from repro.faults.plan import bernoulli_plan
from repro.faults.retry import RetryPolicy
from repro.units import to_us, us

DEFAULT_OUTPUT = (pathlib.Path(__file__).resolve().parent
                  / "results" / "BENCH_faults.json")

METHODS = ("keyed", "extshadow", "repeated5", "pal")
RATES = (0.0, 0.02, 0.05, 0.1, 0.2)
QUICK_METHODS = ("keyed", "extshadow")
QUICK_RATES = (0.0, 0.05, 0.2)

#: Tighter-than-default policy so benchmark runs stay short: the
#: completion timeout still comfortably exceeds a 4 KiB transfer
#: (~80 µs at 400 Mb/s) and the per-op backoff stays in the µs range.
BENCH_POLICY = RetryPolicy(max_attempts=4, base_backoff=us(2),
                           completion_timeout=us(500))

TRANSFER_BYTES = 4096


def bench_cell(method: str, rate: float, ops: int, seed: int) -> dict:
    """One (method, fault-rate) cell of the benchmark matrix."""
    ws = Workstation(MachineConfig(method=method, page_bounded=True,
                                   seed=seed))
    proc = ws.kernel.spawn("bench")
    ws.kernel.enable_user_dma(proc)
    src = ws.kernel.alloc_buffer(proc, 8192)
    dst = ws.kernel.alloc_buffer(proc, 8192)
    ws.ram.write(src.paddr, bytes(range(256)) * (TRANSFER_BYTES // 256))
    expected = ws.ram.read(src.paddr, TRANSFER_BYTES)
    chan = DmaChannel(ws, proc)

    injector = None
    if rate > 0.0:
        plan = bernoulli_plan(rate, seed=seed)
        injector = Injector(plan, ws.sim).attach(ws)

    successes = recovered = 0
    recovery_us: List[float] = []
    t0 = ws.sim.now
    for _ in range(ops):
        ws.ram.write(dst.paddr, b"\0" * TRANSFER_BYTES)
        result = chan.dma_reliable(src.vaddr, dst.vaddr, TRANSFER_BYTES,
                                   policy=BENCH_POLICY)
        landed = ws.ram.read(dst.paddr, TRANSFER_BYTES) == expected
        if result.ok and landed:
            successes += 1
            if result.recovered:
                recovered += 1
                recovery_us.append(to_us(result.recovery_time))
    elapsed = ws.sim.now - t0
    if injector is not None:
        injector.detach()

    stats = ws.stats
    goodput = (successes * TRANSFER_BYTES / (elapsed / 1e12)
               if elapsed else 0.0)
    return {
        "method": method,
        "fault_rate": rate,
        "ops": ops,
        "successes": successes,
        "success_rate": round(successes / ops, 4) if ops else None,
        "recovered": recovered,
        "mean_recovery_us": (round(sum(recovery_us) / len(recovery_us), 3)
                             if recovery_us else 0.0),
        "max_recovery_us": (round(max(recovery_us), 3)
                            if recovery_us else 0.0),
        "retries": stats.counter("dma.retries").value,
        "completion_timeouts":
            stats.counter("dma.completion_timeouts").value,
        "kernel_fallbacks": stats.counter("dma.kernel_fallbacks").value,
        "retry_exhausted": stats.counter("dma.retry_exhausted").value,
        "faults_injected": (injector.plan.total_fired
                            if injector is not None else 0),
        "goodput_mbytes_per_s": round(goodput / 1e6, 3),
    }


def build_report(quick: bool = False, ops: Optional[int] = None,
                 seed: int = 7) -> dict:
    """Run the whole matrix and return the JSON-ready report dict."""
    methods = QUICK_METHODS if quick else METHODS
    rates = QUICK_RATES if quick else RATES
    n_ops = ops if ops is not None else (20 if quick else 100)
    cells = [bench_cell(method, rate, n_ops, seed)
             for method in methods for rate in rates]

    baselines = {c["method"]: c["goodput_mbytes_per_s"]
                 for c in cells if c["fault_rate"] == 0.0}
    for cell in cells:
        base = baselines.get(cell["method"])
        cell["goodput_vs_faultfree"] = (
            round(cell["goodput_mbytes_per_s"] / base, 4)
            if base else None)

    return {
        "benchmark": "fault_recovery",
        "generated_by": "benchmarks/bench_faults.py",
        "quick": quick,
        "python": sys.version.split()[0],
        "seed": seed,
        "transfer_bytes": TRANSFER_BYTES,
        "policy": {
            "max_attempts": BENCH_POLICY.max_attempts,
            "base_backoff_us": to_us(BENCH_POLICY.base_backoff),
            "completion_timeout_us": to_us(BENCH_POLICY.completion_timeout),
        },
        "cells": cells,
        "all_recovered": all(c["success_rate"] == 1.0 for c in cells),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark DMA fault recovery; emit JSON.")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: fewer methods/rates/ops")
    parser.add_argument("--ops", type=int, default=None,
                        help="operations per cell (default 100, quick 20)")
    parser.add_argument("--seed", type=int, default=7,
                        help="fault-plan and machine seed")
    parser.add_argument("--output", type=pathlib.Path,
                        default=DEFAULT_OUTPUT,
                        help=f"output path (default {DEFAULT_OUTPUT})")
    args = parser.parse_args(argv)
    if args.ops is not None and args.ops < 1:
        parser.error(f"--ops must be >= 1, got {args.ops}")

    report = build_report(quick=args.quick, ops=args.ops, seed=args.seed)
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(report, indent=2) + "\n")

    for cell in report["cells"]:
        print(f"{cell['method']:10s} rate {cell['fault_rate']:<5} "
              f"ok {cell['successes']:>3}/{cell['ops']:<3} "
              f"retries {cell['retries']:>3} "
              f"fallbacks {cell['kernel_fallbacks']:>2} "
              f"mean-recovery {cell['mean_recovery_us']:>9.3f} us "
              f"goodput {cell['goodput_mbytes_per_s']:>8.3f} MB/s "
              f"({cell['goodput_vs_faultfree']})")
    print(f"all operations recovered: {report['all_recovered']}")
    print(f"wrote {args.output}")
    return 0 if report["all_recovered"] else 1


if __name__ == "__main__":
    sys.exit(main())
