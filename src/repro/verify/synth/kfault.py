"""The fault campaign: protection under combinations of ``k`` faults.

:mod:`repro.verify.faulted` defines the stream-fault taxonomy (drop /
duplicate / reorder / delay / bitflip) and each method's fault-free
scenarios.  This module checks a method under combinations of ``k``
simultaneous faults on the honest pair-race scenario; ``repro faults``
runs it at k=1 over every verifiable method, ``repro hunt --k-faults``
at any k over the hardened ones:

* **k ≤ 2 is exhaustive** — every unordered combination of distinct
  single-fault specs is applied (descending-index order, see
  :func:`apply_fault_combo`) and model-checked over every interleaving;
* **k ≥ 3 is a seeded probabilistic soak** — the combination space
  explodes combinatorially, so a :func:`~repro.sim.rng.make_rng`-seeded
  sample of ``max_combos`` combinations is checked instead, and the
  report says so (``sampled=True``).

Verdicts: ``SAFE`` (baseline and every checked combination keep
protection), ``UNSAFE-BASELINE`` (the method is broken without faults,
so fault-hardening is moot), ``NEWLY-UNSAFE`` (a combination *created*
an attack — the verdict no built-in method may ever earn).
Combinations that are mechanically infeasible (a reorder whose partner
was dropped) are counted as skipped, never as checked.
"""

from __future__ import annotations

import contextlib
import itertools
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ...errors import VerificationError
from ...faults.plan import BITFLIP
from ...obs.profile import PhaseProfiler
from ...sim.rng import make_rng
from ..faulted import (
    FAULT_HARDENED_METHODS,
    FaultSpec,
    apply_fault,
    enumerate_single_faults,
    method_fault_scenarios,
)
from .. import incremental
from ..incremental import check_scenario_incremental
from ..model_check import CheckResult, Scenario

#: Default sample size for the k >= 3 probabilistic soak.
DEFAULT_SOAK_COMBOS = 300


def apply_fault_combo(scenario: Scenario,
                      specs: Sequence[FaultSpec]) -> Optional[Scenario]:
    """Apply a combination of faults, or None if it is infeasible.

    Specs are applied in descending ``(stream, index)`` order, so a
    fault that shortens or lengthens a stream never invalidates the
    location of a fault at an earlier index.  A combination is
    infeasible when two non-commuting specs target the same access (the
    order of same-slot structural faults is undefined — only bitflips
    commute, being XORs of distinct bits) or when one fault removes the
    access another needs (e.g. a reorder whose partner was dropped by a
    later-index fault) — :func:`~repro.verify.faulted.apply_fault` then
    raises :class:`IndexError`, which this function converts to None.
    """
    by_slot: Dict[Tuple[int, int], List[FaultSpec]] = {}
    for spec in specs:
        by_slot.setdefault((spec.stream, spec.index), []).append(spec)
    for group in by_slot.values():
        if len(group) == 1:
            continue
        if not all(g.kind == BITFLIP for g in group):
            return None
        bits = [g.bit for g in group]
        if len(set(bits)) != len(bits):
            return None
    out = scenario
    try:
        for spec in sorted(specs, key=lambda s: (s.stream, s.index),
                           reverse=True):
            out = apply_fault(out, spec)
    except IndexError:
        return None
    return out


@dataclass
class KFaultReport:
    """Outcome of one method's k-fault campaign.

    Attributes:
        method: the method name.
        k: faults per combination.
        baseline_safe: protection held with no fault injected.
        sampled: True when the combination space was sampled (k >= 3,
            or an explicit ``max_combos`` below the exhaustive count).
        combos_total: size of the full combination space.
        combos_checked: combinations actually model-checked.
        combos_skipped: infeasible combinations (same-slot or
            mechanically impossible after an earlier fault).
        interleavings_checked: total orders across baseline + variants.
        newly_unsafe: (combo, result) pairs where a combination broke a
            protection property despite a safe baseline.
        baseline_results: the fault-free results.
        elapsed_s: wall-clock spent.
    """

    method: str
    k: int
    baseline_safe: bool
    sampled: bool = False
    combos_total: int = 0
    combos_checked: int = 0
    combos_skipped: int = 0
    interleavings_checked: int = 0
    newly_unsafe: List[Tuple[Tuple[FaultSpec, ...], CheckResult]] = (
        field(default_factory=list))
    baseline_results: List[CheckResult] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def verdict(self) -> str:
        """SAFE / UNSAFE-BASELINE / NEWLY-UNSAFE (see module docstring)."""
        if not self.baseline_safe:
            return "UNSAFE-BASELINE"
        if self.newly_unsafe:
            return "NEWLY-UNSAFE"
        return "SAFE"

    @property
    def acceptable(self) -> bool:
        """A method is acceptable unless a combination *created* an attack."""
        return self.verdict != "NEWLY-UNSAFE"

    def summary(self) -> str:
        """One-line human-readable result."""
        mode = "sampled" if self.sampled else "exhaustive"
        base = (f"{self.method}: {self.verdict} under k={self.k} faults "
                f"({mode}: {self.combos_checked}/{self.combos_total} "
                f"combos, {self.combos_skipped} infeasible, "
                f"{self.interleavings_checked} interleavings)")
        if self.newly_unsafe:
            first = "+".join(s.label() for s in self.newly_unsafe[0][0])
            base += f"; first break: {first}"
        return base

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready rendering (``repro hunt --output``)."""
        return {
            "method": self.method,
            "k": self.k,
            "verdict": self.verdict,
            "baseline_safe": self.baseline_safe,
            "sampled": self.sampled,
            "combos_total": self.combos_total,
            "combos_checked": self.combos_checked,
            "combos_skipped": self.combos_skipped,
            "interleavings": self.interleavings_checked,
            "elapsed_s": round(self.elapsed_s, 6),
            "newly_unsafe": [
                {"combo": [s.label() for s in combo],
                 "summary": result.summary()}
                for combo, result in self.newly_unsafe],
        }


def verify_method_under_k_faults(
        method: str,
        k: int = 2,
        max_examples: int = 3,
        max_interleavings: Optional[int] = 500_000,
        max_combos: Optional[int] = None,
        seed: int = 0,
        checker: Callable[..., CheckResult] = check_scenario_incremental,
        progress: Optional[Callable[[str, int, int], None]] = None,
        profiler: Optional[PhaseProfiler] = None,
) -> KFaultReport:
    """Model-check *method* under every (or a sample of) k-fault combos.

    Args:
        method: one of the verifiable methods.
        k: faults per combination (k=1 checks every single fault on
            the pair race, as ``repro faults`` does).
        max_examples: violating examples retained per variant.
        max_interleavings: per-variant order cap (safety net).
        max_combos: cap on combinations checked.  Defaults to the full
            space for k <= 2 and :data:`DEFAULT_SOAK_COMBOS` for
            k >= 3; setting it below the space size turns the campaign
            into a seeded sample.
        seed: sampling seed (only used when sampling).
        checker: the check function (incremental by default).  It is
            called with ``harness=`` for the race and its variants, as
            both built-in checkers accept.
        progress: optional callback ``(combo_label, done, total)``.
        profiler: optional phase profiler (``baseline`` / ``variant``).
    """
    if k < 1:
        raise VerificationError("k must be >= 1")
    started = time.monotonic()
    phase = (profiler.phase if profiler is not None
             else lambda name: contextlib.nullcontext())
    baselines = method_fault_scenarios(method)
    race = baselines[0]
    # One harness checks the race and every variant of it (they differ
    # only in streams, name and truthfulness flag); the other baseline
    # builds its own.  It is built through ``incremental.make_harness``
    # so a wrapper there sees every build.
    harness = incremental.make_harness(race)
    baseline_results = []
    for baseline in baselines:
        own = {"harness": harness} if baseline is race else {}
        with phase("baseline"):
            baseline_results.append(checker(
                baseline, max_examples=max_examples,
                max_interleavings=max_interleavings, **own))
    baseline_safe = all(r.safe for r in baseline_results)
    report = KFaultReport(method=method, k=k,
                          baseline_safe=baseline_safe,
                          baseline_results=baseline_results)
    report.interleavings_checked = sum(
        r.total_interleavings for r in baseline_results)

    singles = enumerate_single_faults(race)
    total = _combination_count(len(singles), k)
    report.combos_total = total
    limit = max_combos
    if limit is None and k >= 3:
        limit = DEFAULT_SOAK_COMBOS
    if limit is not None and limit < total:
        report.sampled = True
        rng = make_rng(seed, f"kfault/{method}/k{k}")
        combos: List[Tuple[FaultSpec, ...]] = [
            tuple(sorted(rng.sample(range(len(singles)), k)))
            for _ in range(limit)]
        combos = [tuple(singles[i] for i in combo)
                  for combo in sorted(set(combos))]
    else:
        combos = list(itertools.combinations(singles, k))

    for done, combo in enumerate(combos, start=1):
        variant = apply_fault_combo(race, combo)
        label = "+".join(s.label() for s in combo)
        if variant is None:
            report.combos_skipped += 1
        else:
            with phase("variant"):
                result = checker(variant, max_examples=max_examples,
                                 max_interleavings=max_interleavings,
                                 harness=harness)
            report.combos_checked += 1
            report.interleavings_checked += result.total_interleavings
            if baseline_safe and result.attack_found:
                report.newly_unsafe.append((combo, result))
        if progress is not None:
            progress(label, done, len(combos))
    report.elapsed_s = time.monotonic() - started
    return report


def run_k_fault_campaign(
        methods: Optional[Sequence[str]] = None,
        k: int = 2,
        max_examples: int = 3,
        max_combos: Optional[int] = None,
        seed: int = 0,
        progress: Optional[Callable[[str, int, int], None]] = None,
        profiler: Optional[PhaseProfiler] = None,
) -> Dict[str, KFaultReport]:
    """k-fault-verify the hardened methods (or the given ones).

    The acceptance criterion — every hardened method SAFE, no method
    NEWLY-UNSAFE — is ``all(r.acceptable for r in reports.values())``
    plus verdict == SAFE for the :data:`~repro.verify.faulted.
    FAULT_HARDENED_METHODS`.
    """
    chosen = (tuple(methods) if methods is not None
              else FAULT_HARDENED_METHODS)
    return {m: verify_method_under_k_faults(
                m, k=k, max_examples=max_examples, max_combos=max_combos,
                seed=seed, progress=progress, profiler=profiler)
            for m in chosen}


def _combination_count(n: int, k: int) -> int:
    if k > n:
        return 0
    result = 1
    for i in range(k):
        result = result * (n - i) // (i + 1)
    return result
