"""Checker speed: naive replay oracle vs prefix-sharing incremental DFS.

The incremental checker must (a) return bit-identical
:class:`~repro.verify.model_check.CheckResult` objects and (b) beat the
naive oracle by at least 3x on the Fig. 8 worst case (two 3-access
adversaries against the 5-instruction victim: 9240 interleavings).
"""

from __future__ import annotations

import time

from repro.analysis.report import Table
from repro.verify.adversary import builtin_scenarios, fig8_scenario
from repro.verify.incremental import CheckStats, check_scenario_incremental
from repro.verify.model_check import check_scenario


def test_incremental_speedup_worst_case(record, benchmark):
    """Fig. 8 worst case: >= 3x over the naive oracle, same result."""
    scenario = fig8_scenario(2)

    t0 = time.perf_counter()
    naive = check_scenario(scenario)
    naive_s = time.perf_counter() - t0

    stats = CheckStats()
    run = lambda: check_scenario_incremental(scenario, stats=stats)
    incremental = benchmark.pedantic(run, rounds=1, iterations=1)
    t0 = time.perf_counter()
    check_scenario_incremental(scenario)
    inc_s = time.perf_counter() - t0

    speedup = naive_s / inc_s
    table = Table("Incremental checker vs naive oracle (Fig. 8, 2 adv)",
                  ["metric", "naive", "incremental"])
    table.add_row("wall seconds", f"{naive_s:.3f}", f"{inc_s:.3f}")
    table.add_row("orders/second",
                  f"{naive.total_interleavings / naive_s:.0f}",
                  f"{incremental.total_interleavings / inc_s:.0f}")
    table.add_row("accesses delivered", stats.naive_accesses,
                  stats.accesses_delivered)
    table.add_row("speedup", "1.0x", f"{speedup:.1f}x")
    record("checker_speed", table.render())

    assert incremental == naive
    assert stats.accesses_delivered < stats.naive_accesses
    assert speedup >= 3.0


def test_incremental_differential_all_builtins(record, benchmark):
    """Every built-in scenario: incremental == naive, bit for bit."""
    scenarios = builtin_scenarios()

    def run():
        return [(check_scenario(s), check_scenario_incremental(s))
                for s in scenarios]

    pairs = benchmark.pedantic(run, rounds=1, iterations=1)
    table = Table("Differential: naive oracle vs incremental checker",
                  ["scenario", "orders", "violating", "identical"])
    for scenario, (naive, inc) in zip(scenarios, pairs):
        table.add_row(scenario.name, naive.total_interleavings,
                      naive.violating_interleavings,
                      "yes" if naive == inc else "NO")
    record("checker_differential", table.render())
    assert all(naive == inc for naive, inc in pairs)
