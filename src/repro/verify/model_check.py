"""Bounded exhaustive checking of initiation protocols.

A :class:`Scenario` bundles the access streams of every participating
process, their page rights, their declared intents, and any keys the OS
installed.  :func:`check_scenario` replays **every** interleaving of the
streams through a fresh engine and evaluates the three safety properties,
returning exact counts — this is the mechanical version of the paper's
§3.3.1 hand proof, and it both *finds* the Fig. 5 / Fig. 6 attacks and
*fails to find* any attack on the 5-instruction variant, the key-based
method, and extended shadow addressing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..hw.dma.recognizer import SetupOp
from ..hw.dma.status import STATUS_FAILURE, STATUS_PENDING
from .interleave import (
    AccessSpec,
    ProtocolHarness,
    interleaving_count,
    iter_interleavings_shared,
)
from .legality import require_legal_streams
from .properties import (
    ProcessIntent,
    Rights,
    Violation,
    check_authorized_start,
    check_single_issuer,
    check_truthful_status,
)


@dataclass
class Scenario:
    """One verification scenario.

    Attributes:
        name: display name (e.g. "fig5").
        method: initiation method under test.
        streams: per-process access streams (order within each preserved).
        rights: pid -> Rights (the MMU's view).
        intents: declared intended DMAs (usually just the victim's).
        keys: ctx_id -> key installs for the keyed method.
        setup: untimed kernel-side protocol configuration (IOMMU maps,
            capability mints/revokes, ...) applied before the streams
            run and re-applied on every harness reset, in order.
        n_contexts: engine register contexts.
        check_truthfulness: evaluate the truthful-status property (it
            only makes sense when the victim's stream runs to completion
            in every interleaving, which holds for straight-line streams;
            fault-injected streams disable it — see repro.verify.faulted).
        page_bounded: run the engine with the page-bounding hardening
            (rejects user-level transfers crossing a page boundary).

    Every stream must be MMU-legal under ``rights`` (stores/exchanges
    only to writable pages, loads only from readable pages — the §2.3
    protection premise); construction raises
    :class:`~repro.errors.VerificationError` otherwise, so hand-written
    and synthesized scenarios share one validator
    (:mod:`repro.verify.legality`).
    """

    name: str
    method: str
    streams: List[List[AccessSpec]]
    rights: Dict[int, Rights]
    intents: List[ProcessIntent] = field(default_factory=list)
    keys: Dict[int, int] = field(default_factory=dict)
    setup: Tuple[SetupOp, ...] = ()
    n_contexts: int = 4
    check_truthfulness: bool = True
    page_bounded: bool = False

    def __post_init__(self) -> None:
        require_legal_streams(self.streams, self.rights, name=self.name,
                              method=self.method)


@dataclass
class CheckResult:
    """Outcome of exhaustively checking a scenario.

    Attributes:
        scenario: the scenario name.
        total_interleavings: how many orders were replayed.
        violations_by_property: property name -> number of interleavings
            exhibiting at least one violation of it.
        violating_interleavings: number of orders with any violation.
        examples: up to ``max_examples`` (interleaving, violations) pairs.
    """

    scenario: str
    total_interleavings: int = 0
    violations_by_property: Dict[str, int] = field(default_factory=dict)
    violating_interleavings: int = 0
    examples: List[Tuple[Tuple[AccessSpec, ...], List[Violation]]] = (
        field(default_factory=list))

    @property
    def safe(self) -> bool:
        """No interleaving violated any property."""
        return self.violating_interleavings == 0

    @property
    def attack_found(self) -> bool:
        """At least one interleaving broke a property."""
        return not self.safe

    def summary(self) -> str:
        """One-line human-readable result."""
        if self.safe:
            return (f"{self.scenario}: SAFE over "
                    f"{self.total_interleavings} interleavings")
        props = ", ".join(f"{k}={v}" for k, v in
                          sorted(self.violations_by_property.items()))
        return (f"{self.scenario}: {self.violating_interleavings}/"
                f"{self.total_interleavings} interleavings violate "
                f"({props})")


def _protocol_factory(method: str):
    from ..core.methods import make_protocol

    return lambda: make_protocol(method)


def replay_interleaving(scenario: Scenario,
                        interleaving: Sequence[AccessSpec],
                        harness: Optional[ProtocolHarness] = None,
                        ) -> List[Violation]:
    """Replay one specific interleaving and return its violations."""
    if harness is None:
        harness = make_harness(scenario)
    evidence = harness.replay(interleaving)
    violations = check_authorized_start(evidence, scenario.rights)
    violations += check_single_issuer(evidence, scenario.rights)
    if scenario.check_truthfulness:
        violations += check_truthful_status(evidence, scenario.intents,
                                            REJECTION_WORDS)
    return violations


def make_harness(scenario: Scenario) -> ProtocolHarness:
    """Build the harness for a scenario (keys pre-installed)."""
    harness = ProtocolHarness(_protocol_factory(scenario.method),
                              n_contexts=scenario.n_contexts,
                              page_bounded=scenario.page_bounded)
    for ctx_id, key in scenario.keys.items():
        harness.install_key(ctx_id, key)
    for op in scenario.setup:
        harness.install_setup(op)
    return harness


#: Status words meaning "no DMA started on your behalf".
REJECTION_WORDS = frozenset({STATUS_FAILURE, STATUS_PENDING})


def check_scenario(scenario: Scenario, max_examples: int = 5,
                   max_interleavings: Optional[int] = None,
                   progress: Optional[Callable[[int], None]] = None,
                   progress_every: int = 1000,
                   harness: Optional[ProtocolHarness] = None,
                   ) -> CheckResult:
    """Exhaustively check every interleaving of the scenario's streams.

    This is the naive oracle: every order replays from a cold engine.
    :func:`repro.verify.incremental.check_scenario_incremental` produces
    identical results while delivering each access once per tree edge.

    Args:
        max_examples: retain at most this many violating examples (the
            order tuple is only materialized for retained examples — the
            enumeration itself reuses one shared buffer).
        max_interleavings: optional safety cap; exceeding it raises so a
            scenario never silently explodes (the built-in scenarios are
            all well under 10^5 orders).
        progress: optional liveness callback, invoked with the number of
            interleavings checked so far every *progress_every* orders
            (long Fig. 8 runs take minutes on the naive path).
        progress_every: callback period in interleavings.
        harness: optional harness to replay on instead of building one,
            from :func:`make_harness` for a scenario with the same
            method, keys, setup, ``n_contexts`` and ``page_bounded``
            (every replay resets it to that built state).

    Raises:
        VerificationError: if the interleaving count exceeds the cap.
    """
    expected = interleaving_count([len(s) for s in scenario.streams])
    if max_interleavings is not None and expected > max_interleavings:
        from ..errors import VerificationError

        raise VerificationError(
            f"scenario {scenario.name}: {expected} interleavings exceeds "
            f"cap {max_interleavings}")
    if harness is None:
        harness = make_harness(scenario)
    result = CheckResult(scenario=scenario.name)
    for interleaving in iter_interleavings_shared(scenario.streams):
        result.total_interleavings += 1
        violations = replay_interleaving(scenario, interleaving, harness)
        if violations:
            result.violating_interleavings += 1
            for prop in {v.prop for v in violations}:
                result.violations_by_property[prop] = (
                    result.violations_by_property.get(prop, 0) + 1)
            if len(result.examples) < max_examples:
                result.examples.append((tuple(interleaving), violations))
        if progress is not None and (
                result.total_interleavings % progress_every == 0):
            progress(result.total_interleavings)
    return result
