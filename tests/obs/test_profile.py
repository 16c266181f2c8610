"""Unit tests for the wall-clock phase profiler and its checker hook."""

from repro.obs.profile import PhaseProfiler
from repro.verify.adversary import builtin_scenarios, fig8_scenario
from repro.verify.incremental import CheckStats, check_scenario_incremental
from repro.verify.model_check import check_scenario


def test_phase_context_manager_accumulates():
    profiler = PhaseProfiler()
    with profiler.phase("work"):
        pass
    with profiler.phase("work"):
        pass
    assert profiler.counts["work"] == 2
    assert profiler.seconds["work"] >= 0.0


def test_count_without_timing():
    profiler = PhaseProfiler()
    profiler.count("hit")
    profiler.count("hit", 3)
    assert profiler.counts["hit"] == 4
    assert "hit" not in profiler.seconds


def test_merge_folds_both_dicts():
    a = PhaseProfiler()
    a.add_seconds("x", 1.0)
    b = PhaseProfiler()
    b.add_seconds("x", 2.0)
    b.count("y")
    a.merge(b)
    assert a.seconds["x"] == 3.0
    assert a.counts["x"] == 2
    assert a.counts["y"] == 1


def test_report_shape():
    profiler = PhaseProfiler()
    profiler.add_seconds("snapshot", 0.5, n=5)
    profiler.count("expansion", 7)
    report = profiler.report()
    assert report["snapshot"]["count"] == 5
    assert report["snapshot"]["seconds"] == 0.5
    assert report["snapshot"]["mean_us"] == 100000.0
    assert report["expansion"] == {"seconds": 0.0, "count": 7,
                                   "mean_us": 0.0}


def test_table_renders():
    profiler = PhaseProfiler()
    profiler.add_seconds("leaf", 0.001, n=2)
    text = profiler.table().render()
    assert "Phase profile" in text
    assert "leaf" in text


def test_checker_profiler_counts_match_stats():
    """Phase counts mirror the CheckStats work accounting, on the DFS
    (fig8 with one adversary) and on fast replay (fig6-repeated4)."""
    fig6 = next(s for s in builtin_scenarios()
                if s.name == "fig6-repeated4")
    for scenario, dfs in ((fig8_scenario(1), True), (fig6, False)):
        profiler = PhaseProfiler()
        stats = CheckStats()
        profiled = check_scenario_incremental(scenario, profiler=profiler,
                                              stats=stats)
        # The profiled result is identical to the unprofiled / naive ones.
        assert profiled == check_scenario_incremental(scenario)
        assert profiled == check_scenario(scenario)
        assert stats.snapshots > 0
        assert profiler.counts["snapshot"] == stats.snapshots
        assert profiler.counts["restore"] == stats.restores
        assert profiler.counts["deliver"] == stats.accesses_delivered
        assert (profiler.counts.get("transposition_hit", 0)
                == stats.transposition_hits)
        assert ("expansion" in profiler.counts) == dfs
        assert profiler.seconds["deliver"] > 0.0
