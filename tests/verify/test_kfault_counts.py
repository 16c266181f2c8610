"""The checker's work on a k=2 fault campaign, pinned check by check.

``compare_bench`` gates the built-in scenarios' journal and delivery
counts; this fixture pins the rest of the checker's deterministic work
where most of it is spent, on fault campaigns.  For a seeded 40-combo
k=2 sample of each fault-hardened method it records, for every check in
campaign order, every ``CheckStats`` counter plus the result's order
counts and per-property violation counts.  A change that makes the
checker do more (or different) work on any variant moves a number here.

After a change that is meant to move these numbers, regenerate with::

    PYTHONPATH=src python tests/verify/test_kfault_counts.py
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, Dict, List

from repro.verify.faulted import FAULT_HARDENED_METHODS
from repro.verify.incremental import CheckStats, check_scenario_incremental
from repro.verify.synth import verify_method_under_k_faults

FIXTURE = Path(__file__).parent / "fixtures" / "kfault_k2_counts.json"
K, MAX_COMBOS, SEED = 2, 40, 7


def campaign_counts() -> Dict[str, List[Dict[str, Any]]]:
    """method -> one record per check of its sampled k=2 campaign."""
    out: Dict[str, List[Dict[str, Any]]] = {}
    for method in FAULT_HARDENED_METHODS:
        records: List[Dict[str, Any]] = []

        def check(scenario, **kwargs):
            stats = CheckStats()
            result = check_scenario_incremental(scenario, stats=stats,
                                                **kwargs)
            records.append({
                "scenario": scenario.name,
                "total_interleavings": result.total_interleavings,
                "violating_interleavings": result.violating_interleavings,
                "violations_by_property": sorted(
                    result.violations_by_property.items()),
                "stats": dataclasses.asdict(stats),
            })
            return result

        verify_method_under_k_faults(method, k=K, max_combos=MAX_COMBOS,
                                     seed=SEED, checker=check)
        out[method] = records
    return out


def test_kfault_campaign_counts_match_fixture():
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    # JSON turns the (prop, count) pairs into lists.
    actual = json.loads(json.dumps(campaign_counts()))
    assert sorted(actual) == sorted(expected)
    for method in expected:
        assert len(actual[method]) == len(expected[method]), method
        for have, want in zip(actual[method], expected[method]):
            assert have == want, (method, want["scenario"])


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(campaign_counts(), indent=1) + "\n",
                       encoding="utf-8")
