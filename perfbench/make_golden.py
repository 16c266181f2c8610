"""Regenerate golden/verify_builtin.json from the naive oracle.

The verify workload's gate compares the incremental checker's verdicts
and counts on ``repro verify``'s built-in suite against this file, which
records what the naive replay-from-scratch checker says.  Run from the
repository root after a deliberate change to the built-in suite::

    PYTHONPATH=src python3 perfbench/make_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.verify.adversary import builtin_scenarios
from repro.verify.model_check import check_scenario

GOLDEN = Path(__file__).resolve().parent / "golden" / "verify_builtin.json"


def main() -> None:
    rows = []
    for scenario in builtin_scenarios():
        result = check_scenario(scenario)
        rows.append({"scenario": scenario.name, "method": scenario.method,
                     "interleavings": result.total_interleavings,
                     "violating": result.violating_interleavings,
                     "safe": result.safe})
    GOLDEN.write_text(json.dumps({"oracle": "repro.verify.model_check."
                                            "check_scenario",
                                  "scenarios": rows}, indent=1) + "\n",
                      encoding="utf-8")
    print(f"wrote {GOLDEN.name}: {len(rows)} scenarios")


if __name__ == "__main__":
    main()
