"""Differential tests: incremental checker vs the naive replay oracle.

The contract is strict: :func:`check_scenario_incremental` must return a
:class:`~repro.verify.model_check.CheckResult` that compares **equal** —
counts, per-property tallies, and retained examples, in order — to what
the naive oracle returns, on every built-in scenario, with the
transposition table on or off (a harness whose fingerprint never
repeats turns it off).
"""

from __future__ import annotations

import itertools

import pytest

from tests.conftest import assert_no_cyclic_garbage, drop_fingerprint_caches

import repro.verify.incremental as incremental
from repro.errors import VerificationError
from repro.verify.adversary import builtin_scenarios, fig8_scenario
from repro.verify.faulted import FAULT_HARDENED_METHODS
from repro.verify.incremental import (
    SMALL_SCENARIO_CUTOVER,
    CheckStats,
    check_scenario_incremental,
)
from repro.verify.interleave import (
    AccessSpec,
    enumerate_interleavings,
    interleaving_count,
)
from repro.verify.model_check import check_scenario, make_harness
from repro.verify.synth import verify_method_under_k_faults

SCENARIOS = builtin_scenarios()
SCENARIO_IDS = [s.name for s in SCENARIOS]


@pytest.mark.parametrize("scenario", SCENARIOS, ids=SCENARIO_IDS)
def test_differential_with_transposition(scenario):
    assert check_scenario_incremental(scenario) == check_scenario(scenario)


def unmemoized_harness(scenario):
    """A checker harness whose fingerprint never repeats, so the DFS
    never reuses a subtree and expands every node."""
    harness = make_harness(scenario)
    harness.fingerprint = itertools.count().__next__
    return harness


@pytest.mark.parametrize("scenario", SCENARIOS, ids=SCENARIO_IDS)
def test_differential_without_transposition(scenario):
    assert (check_scenario_incremental(
        scenario, harness=unmemoized_harness(scenario))
        == check_scenario(scenario))


def test_examples_match_naive_order_and_cap():
    """Retained examples are the naive oracle's, in its order."""
    scenario = builtin_scenarios()[0]  # fig5: has violations
    for cap in (0, 1, 3, 100):
        naive = check_scenario(scenario, max_examples=cap)
        inc = check_scenario_incremental(scenario, max_examples=cap)
        assert inc.examples == naive.examples
        assert len(inc.examples) <= cap


def test_stats_show_prefix_sharing():
    """The tree walk delivers far fewer accesses than naive replay."""
    stats = CheckStats()
    result = check_scenario_incremental(fig8_scenario(2), stats=stats)
    assert stats.leaves == result.total_interleavings == 9240
    assert stats.naive_accesses == 9240 * 11
    assert stats.accesses_delivered < stats.naive_accesses // 10
    assert stats.accesses_saved == (stats.naive_accesses
                                    - stats.accesses_delivered)
    assert 0.0 < stats.delivery_ratio < 0.1
    assert stats.snapshots == stats.restores


def test_transposition_reduces_work():
    """On fig8-2adv the table's 518 hits leave 1,241 deliveries of the
    29,887 the same walk makes with no fingerprint that repeats."""
    with_table = CheckStats()
    without_table = CheckStats()
    scenario = fig8_scenario(2)
    check_scenario_incremental(scenario, stats=with_table)
    check_scenario_incremental(scenario, stats=without_table,
                               harness=unmemoized_harness(scenario))
    assert (with_table.transposition_hits,
            with_table.accesses_delivered) == (518, 1241)
    assert (without_table.transposition_hits,
            without_table.accesses_delivered) == (0, 29887)
    assert with_table.leaves == without_table.leaves == 9240


def test_progress_callback_fires_and_reaches_total():
    seen = []
    result = check_scenario_incremental(
        fig8_scenario(2), progress=seen.append, progress_every=500)
    assert seen, "progress callback never fired"
    assert seen == sorted(seen)
    assert seen[-1] <= result.total_interleavings == 9240


def test_max_interleavings_cap_raises():
    with pytest.raises(VerificationError):
        check_scenario_incremental(fig8_scenario(2), max_interleavings=100)


def test_cached_fingerprint_equals_cold_at_every_node(monkeypatch):
    """The transposition table keys on cached fingerprints; at every DFS
    node of the built-in suite and of a k=2 fault sample each equals
    one recomputed cold.  The fingerprint leaves out RAM and the event
    queue because nothing fires under the journal: RAM never changes,
    and the queue holds exactly one completion per started transfer,
    which the transfer history names."""
    nodes = 0

    def checked_harness(scenario):
        harness = make_harness(scenario)
        cached = harness.fingerprint

        def fingerprint():
            nonlocal nodes
            value = cached()
            drop_fingerprint_caches(harness)
            assert value == cached()
            queue = sorted((when, label)
                           for when, _, _, label in harness.sim._queue)
            assert queue == sorted(
                (t.started_at + t.duration, f"dma-complete[{t.size}B]")
                for t in harness.engine.transfer_engine.history)
            assert harness.sim.events_fired == 0
            nodes += 1
            return value

        harness.fingerprint = fingerprint
        return harness

    monkeypatch.setattr(incremental, "make_harness", checked_harness)
    for scenario in SCENARIOS:
        check_scenario_incremental(scenario)
    for method in FAULT_HARDENED_METHODS:
        verify_method_under_k_faults(method, k=2, max_combos=100, seed=7)
    assert nodes > 15_000


def orders(scenario) -> int:
    return interleaving_count([len(s) for s in scenario.streams])


@pytest.mark.parametrize("scenario", [
    next(s for s in SCENARIOS if orders(s) >= SMALL_SCENARIO_CUTOVER),
    next(s for s in SCENARIOS if orders(s) < SMALL_SCENARIO_CUTOVER),
], ids=["dfs", "fast-replay"])
def test_finished_check_leaves_no_cyclic_garbage(scenario):
    """A finished check frees its harness and memo table by reference
    counting: nothing is left for the cyclic garbage collector."""
    check_scenario_incremental(scenario)  # warm imports and caches
    with assert_no_cyclic_garbage():
        check_scenario_incremental(scenario)


def test_enumerating_interleavings_leaves_no_cyclic_garbage():
    """The tuple enumerator (the shrinker's and the proof's) frees
    everything it built by reference counting, like the shared one."""
    streams = [[AccessSpec(pid, "store", 0, 0), AccessSpec(pid, "load", 8)]
               for pid in (1, 2)]
    with assert_no_cyclic_garbage():
        assert len(list(enumerate_interleavings(streams))) == 6
