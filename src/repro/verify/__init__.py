"""Verification: the paper's correctness arguments, checked mechanically.

The paper argues (§3.3.1, Figs. 5, 6, 8) about *interleavings* of shadow
accesses from multiple processes.  This package makes those arguments
executable:

* :mod:`repro.verify.interleave` — a protocol-level harness that replays
  arbitrary access interleavings into a fresh engine, plus an exhaustive
  interleaving enumerator;
* :mod:`repro.verify.adversary` — the attack scenarios from the figures
  and generators for adversarial access streams;
* :mod:`repro.verify.properties` — the safety properties (authorized
  start, single-issuer sequences, truthful status reporting);
* :mod:`repro.verify.model_check` — bounded exhaustive checking of a
  scenario against the properties (the naive replay oracle);
* :mod:`repro.verify.incremental` — the prefix-sharing checker: same
  results, each access delivered once per choice-tree edge;
* :mod:`repro.verify.stress` — whole-machine multiprogrammed stress runs
  under a seeded preemptive scheduler;
* :mod:`repro.verify.faulted` — re-verification of every method under
  single faults (drop/duplicate/reorder/delay/bitflip applied to the
  access streams), with SAFE / UNSAFE-BASELINE / NEWLY-UNSAFE verdicts;
* :mod:`repro.verify.legality` — the shared MMU page-rights validator:
  every :class:`~repro.verify.model_check.Scenario` (hand-written or
  synthesized) is checked at construction time;
* :mod:`repro.verify.synth` — counterexample *search*: seeded MMU-legal
  adversary generation, a bandit-guided hunt over
  :func:`check_scenario_incremental`, delta-debugging shrinking to
  1-minimal cores, and k-fault campaigns.
"""

from .adversary import (
    builtin_scenarios,
    fig5_scenario,
    fig6_scenario,
    fig8_scenario,
    pair_race_scenario,
)
from .faulted import (
    FAULT_HARDENED_METHODS,
    FaultSpec,
    MethodFaultReport,
    all_acceptable,
    run_fault_verification,
    verify_method_under_faults,
)
from .incremental import CheckStats, check_scenario_incremental
from .interleave import (
    AccessSpec,
    ProtocolHarness,
    enumerate_interleavings,
    initiation_stream,
    interleaving_count,
)
from .legality import (
    access_violation,
    require_legal_streams,
    stream_violations,
)
from .model_check import (
    CheckResult,
    Scenario,
    check_scenario,
    replay_interleaving,
)
from .proof import LemmaResult, ProofReport, prove_fig8
from .properties import ProcessIntent, Rights, Violation
from .stress import StressReport, run_stress

__all__ = [
    "AccessSpec",
    "CheckResult",
    "CheckStats",
    "FAULT_HARDENED_METHODS",
    "FaultSpec",
    "LemmaResult",
    "MethodFaultReport",
    "ProcessIntent",
    "ProofReport",
    "ProtocolHarness",
    "Rights",
    "Scenario",
    "StressReport",
    "Violation",
    "access_violation",
    "all_acceptable",
    "builtin_scenarios",
    "check_scenario",
    "check_scenario_incremental",
    "enumerate_interleavings",
    "fig5_scenario",
    "fig6_scenario",
    "fig8_scenario",
    "initiation_stream",
    "interleaving_count",
    "pair_race_scenario",
    "prove_fig8",
    "replay_interleaving",
    "require_legal_streams",
    "run_fault_verification",
    "run_stress",
    "stream_violations",
    "verify_method_under_faults",
]
