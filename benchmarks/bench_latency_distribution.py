"""Initiation-latency distributions (stability of Table 1's means).

The paper reports means over 1,000 initiations.  This benchmark records
full distributions for each Table 1 method — min / p50 / p99 / max — and
asserts they are tight: in steady state (warm TLB, no contention) an
initiation's cost is essentially deterministic, so a mean is a faithful
summary.  The one systematic source of spread, cold TLB entries on the
first touch of each shadow page, is reported separately.
"""

from __future__ import annotations

import statistics
from typing import List

from repro.analysis.report import Table, format_us
from repro.core.api import DmaChannel
from repro.core.machine import MachineConfig, Workstation
from repro.core.methods import TABLE1_METHODS
from repro.sim.stats import percentile
from repro.units import to_us

SAMPLES = 200


def distribution(method: str) -> List[int]:
    """*SAMPLES* warm initiation latencies (ps) of *method*."""
    ws = Workstation(MachineConfig(method=method))
    proc = ws.kernel.spawn()
    if method != "kernel":
        ws.kernel.enable_user_dma(proc)
    src = ws.kernel.alloc_buffer(proc, 16384,
                                 shadow=(method != "kernel"))
    dst = ws.kernel.alloc_buffer(proc, 16384,
                                 shadow=(method != "kernel"))
    if method == "shrimp1":
        ws.kernel.map_out(proc, src.vaddr, proc, dst.vaddr, 16384)
    chan = DmaChannel(ws, proc)
    chan.initiate(src.vaddr, dst.vaddr, 64)  # warm-up
    ws.drain()
    samples = []
    for index in range(SAMPLES):
        offset = (index % 128) * 64
        result = chan.initiate(src.vaddr + offset, dst.vaddr + offset,
                               64)
        assert result.ok
        samples.append(result.elapsed)
        ws.drain()
    return samples


def test_latency_distributions(record, benchmark):
    def run():
        return {m: distribution(m) for m in TABLE1_METHODS}

    samples = benchmark.pedantic(run, rounds=1, iterations=1)
    table = Table(
        f"Initiation latency distribution over {SAMPLES} samples (us)",
        ["method", "min", "p50", "p99", "max", "stddev"])
    for method in TABLE1_METHODS:
        values = samples[method]
        table.add_row(method,
                      format_us(to_us(min(values)), 2),
                      format_us(to_us(percentile(values, 50)), 2),
                      format_us(to_us(percentile(values, 99)), 2),
                      format_us(to_us(max(values)), 2),
                      format_us(to_us(statistics.pstdev(values)), 3))
    record("latency_distribution", table.render())

    for method in TABLE1_METHODS:
        values = samples[method]
        # Warm steady state: the spread is tiny relative to the mean.
        assert (max(values) - min(values)
                <= 0.1 * statistics.fmean(values)), method
        # And the median equals Table 1's mean story.
        assert percentile(values, 50) == percentile(values, 99)
