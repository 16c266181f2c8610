"""The hunt's walk, pinned method by method at two seeds.

Which candidate the hunt checks next depends on the bandit's credits,
so a change to how they are earned moves the walk.  For seeds 7 and 42
(round 0 of the repository benchmark's hunt at each seed) this fixture
records, for every hunt method at 300 candidates, whether it found an
attack, how many candidates and duplicates it drew, and how many
orders and deliveries its checks took.  The six hardened methods run
all 300 candidates, so a changed credit anywhere shows here.

After a change that is meant to move these numbers, regenerate with::

    PYTHONPATH=src python tests/verify/test_hunt_walk.py
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List

import pytest

from repro.verify.synth.search import HUNT_METHODS, HuntConfig, run_hunt

FIXTURE = Path(__file__).parent / "fixtures" / "hunt_walk.json"
SEEDS, MAX_CANDIDATES = (7, 42), 300
FIELDS = ("found", "candidates", "duplicates", "interleavings",
          "accesses_delivered")


def hunt_walk(seed: int) -> List[Dict[str, Any]]:
    """One record per hunt method at *seed*."""
    reports = run_hunt(HUNT_METHODS, HuntConfig(
        seed=seed, max_candidates=MAX_CANDIDATES))
    return [{"method": r.method, **{f: getattr(r, f) for f in FIELDS}}
            for r in reports]


@pytest.mark.parametrize("seed", SEEDS)
def test_hunt_walk_matches_fixture(seed):
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))[str(seed)]
    assert hunt_walk(seed) == expected


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps({str(s): hunt_walk(s) for s in SEEDS},
                                  indent=1) + "\n", encoding="utf-8")
