"""Differential tests: incremental checker vs the naive replay oracle.

The contract is strict: :func:`check_scenario_incremental` must return a
:class:`~repro.verify.model_check.CheckResult` that compares **equal** —
counts, per-property tallies, and retained examples, in order — to what
the naive oracle returns, on every built-in scenario, with the
transposition table on or off.
"""

from __future__ import annotations

import pytest

from repro.errors import VerificationError
from repro.verify.adversary import builtin_scenarios, fig8_scenario
from repro.verify.incremental import CheckStats, check_scenario_incremental
from repro.verify.model_check import check_scenario

SCENARIOS = builtin_scenarios()
SCENARIO_IDS = [s.name for s in SCENARIOS]


@pytest.mark.parametrize("scenario", SCENARIOS, ids=SCENARIO_IDS)
def test_differential_with_transposition(scenario):
    assert check_scenario_incremental(scenario) == check_scenario(scenario)


@pytest.mark.parametrize("scenario", SCENARIOS, ids=SCENARIO_IDS)
def test_differential_without_transposition(scenario):
    assert (check_scenario_incremental(scenario, use_transposition=False)
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
    with_table = CheckStats()
    without_table = CheckStats()
    scenario = fig8_scenario(2)
    check_scenario_incremental(scenario, stats=with_table)
    check_scenario_incremental(scenario, use_transposition=False,
                               stats=without_table)
    assert with_table.transposition_hits > 0
    assert with_table.accesses_delivered < without_table.accesses_delivered
    assert without_table.transposition_hits == 0
    assert with_table.leaves == without_table.leaves


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
