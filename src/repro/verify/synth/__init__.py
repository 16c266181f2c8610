"""Counterexample synthesis: *search* for attacks instead of replaying them.

The model checker (:mod:`repro.verify.model_check`) can only confirm or
refute scenarios someone already wrote down.  This package inverts it:

* :mod:`repro.verify.synth.generator` — a seeded adversary-stream
  generator that emits only MMU-legal accesses (the shared validator in
  :mod:`repro.verify.legality` is the legality oracle) and composes them
  against a victim initiation stream;
* :mod:`repro.verify.synth.search` — the guided hunt driver: DFS over
  adversary stream space, child order prioritized by a bandit over
  recognizer-state-advancing transitions, plus a hypothesis-driven
  random exploration mode; every candidate is fed through
  :func:`~repro.verify.incremental.check_scenario_incremental`, so the
  recognizer state space is explored over **all** interleavings;
* :mod:`repro.verify.synth.shrink` — delta-debugging reduction of a
  found counterexample to a 1-minimal access stream with a canonical
  interleaving;
* :mod:`repro.verify.synth.kfault` — the fault campaign over
  :mod:`repro.verify.faulted`'s taxonomy, k faults per variant
  (exhaustive for k ≤ 2, seeded probabilistic soak beyond; ``repro
  faults`` runs it at k=1).

The acceptance test for the whole subsystem is *rediscovery*: with a
fixed seed and a bounded budget, the search re-finds the paper's Fig. 5
and Fig. 6 attacks from scratch — no reference to the hand-written
streams — and the shrinker reduces each to the minimal core of the
figure's printed interleaving, while the hardened methods (shrimp1,
keyed, extshadow, repeated5) survive the same budget untouched.
"""

from .generator import (
    AdversaryProfile,
    access_vocabulary,
    random_stream,
    standard_profile,
)
from .kfault import (
    KFaultReport,
    apply_fault_combo,
    run_k_fault_campaign,
    verify_method_under_k_faults,
)
from .search import HuntConfig, HuntReport, hunt_method, run_hunt
from .shrink import (
    ShrunkCounterexample,
    is_one_minimal,
    shrink_counterexample,
)

__all__ = [
    "AdversaryProfile",
    "HuntConfig",
    "HuntReport",
    "KFaultReport",
    "ShrunkCounterexample",
    "access_vocabulary",
    "apply_fault_combo",
    "hunt_method",
    "is_one_minimal",
    "random_stream",
    "run_hunt",
    "run_k_fault_campaign",
    "shrink_counterexample",
    "standard_profile",
    "verify_method_under_k_faults",
]
