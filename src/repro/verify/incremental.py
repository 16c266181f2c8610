"""Incremental, prefix-sharing exhaustive interleaving checker.

The naive oracle (:func:`repro.verify.model_check.check_scenario`)
replays every interleaving from a cold engine: O(orders × length)
accesses, and every order pays a full harness reset.  But interleavings
share prefixes massively — the orders of a scenario form a tree whose
leaves are the interleavings and whose edges are single access
deliveries.  This module walks that tree depth-first, snapshotting the
harness (simulator + RAM + engine + protocol FSM) before each delivery
and restoring the parent state on backtrack, so each access is delivered
**once per tree edge**: O(tree edges) accesses and zero resets.

On top, an optional **transposition table** (partial-order-reduction
lite) merges converged states: two different prefixes that delivered the
same per-stream position vector and left behaviour-identical harness
state (same FSM state, same initiation records, same latched transfers,
same final statuses) have identical subtrees, so the second visit reuses
the first visit's subtree summary instead of re-exploring.

Child subtrees are visited in stream-index order — exactly the order
:func:`~repro.verify.interleave.enumerate_interleavings` yields — so the
resulting :class:`~repro.verify.model_check.CheckResult` (counts *and*
retained examples) is identical to the naive oracle's, which the
differential tests assert on every built-in scenario.

Backtracking goes through the shared undo journal
(:meth:`~repro.verify.interleave.ProtocolHarness.snapshot`): snapshot
is an O(1) mark and restore replays only the mutations made since it.
Two further strategies keep small and degenerate inputs fast
(see docs/verification.md "Small-scenario cutover"): scenarios under
:data:`SMALL_SCENARIO_CUTOVER` orders skip the DFS for a journaled
fast-replay of every order, and a node whose every remaining access
belongs to one stream delivers the whole forced tail under a single
snapshot/restore pair (counted in ``CheckStats.batched_deliveries``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import VerificationError
from ..obs.profile import PhaseProfiler
from .interleave import AccessSpec, interleaving_count, iter_interleavings_shared
from .model_check import (
    REJECTION_WORDS,
    CheckResult,
    Scenario,
    make_harness,
)
from .properties import (
    ReplayEvidence,
    Violation,
    check_authorized_start,
    check_single_issuer,
    check_truthful_status,
)

#: final_status sentinels: "pid had no entry" vs "nothing to undo".
_MISSING = object()
_NO_CHANGE = object()

#: Scenarios whose full order count is below this skip the DFS and run a
#: journaled fast-replay instead: every order is delivered from one root
#: mark and undone through the journal.  For trees this small the DFS's
#: fingerprint/memoization overhead exceeds what prefix sharing saves,
#: which is exactly the speedup<1.0 regression BENCH_checker recorded on
#: the 2-to-21-order scenarios; fast replay also skips the per-order
#: harness reconstruction that dominates the naive oracle.  Re-measured
#: on the nine built-in scenarios under 30 orders after decoded
#: deliveries, which also made the oracle's per-order replay cheaper
#: (CPython 3.11, 2 vCPUs, median of 250 runs each in 25 alternating
#: batches): at threshold 0 seven of the nine fell below 1.0x the naive
#: oracle (0.81-0.99x, pair-race-shrimp2 and pair-race-shrimp1 lowest),
#: and with the cutover all nine ran at 1.07-1.37x (pair-race-extshadow
#: thinnest: both of its starts capture a register context that the
#: oracle never saves).
SMALL_SCENARIO_CUTOVER = 30


@dataclass
class CheckStats:
    """Work accounting for one incremental check (perf instrumentation).

    Attributes:
        leaves: interleavings covered (== naive total_interleavings).
        accesses_delivered: accesses actually delivered to the engine
            (== tree edges explored).
        naive_accesses: what the naive replayer would have delivered
            (leaves × interleaving length).
        snapshots / restores: backtracking operations performed.
        transposition_hits: subtrees reused from the table.
        transposition_entries: distinct states stored in the table.
        journal_entries_replayed: undo-journal entries replayed across
            all restores.
        dirty_pages: RAM pages copied by the page-granular CoW layer.
        batched_deliveries: accesses delivered inside forced-tail
            batches (a single live stream leaves no choice points, so
            the whole tail shares one snapshot/restore pair).
    """

    leaves: int = 0
    accesses_delivered: int = 0
    naive_accesses: int = 0
    snapshots: int = 0
    restores: int = 0
    transposition_hits: int = 0
    transposition_entries: int = 0
    journal_entries_replayed: int = 0
    dirty_pages: int = 0
    batched_deliveries: int = 0

    @property
    def accesses_saved(self) -> int:
        """Engine deliveries avoided relative to the naive replayer."""
        return self.naive_accesses - self.accesses_delivered

    @property
    def delivery_ratio(self) -> float:
        """Fraction of naive deliveries actually performed (lower = better)."""
        if self.naive_accesses == 0:
            return 1.0
        return self.accesses_delivered / self.naive_accesses


class _Subtree:
    """Summary of one choice-tree node's entire subtree.

    ``examples`` holds the first (in DFS order) up-to-``max_examples``
    violating orders as (suffix-from-this-node, violations) pairs; a
    parent splices its edge access onto each suffix, so the root's
    entries are complete interleavings — the same ones the naive oracle
    retains.  A subtree with no violating leaf has an empty ``by_prop``
    and no examples, so a parent merges those only from violating
    children.
    """

    __slots__ = ("leaves", "violating", "by_prop", "examples")

    def __init__(self, leaves: int = 0) -> None:
        self.leaves = leaves
        self.violating = 0
        self.by_prop: Dict[str, int] = {}
        self.examples: List[
            Tuple[Tuple[AccessSpec, ...], List[Violation]]] = []


def check_scenario_incremental(
        scenario: Scenario,
        max_examples: int = 5,
        max_interleavings: Optional[int] = None,
        use_transposition: bool = True,
        progress: Optional[Callable[[int], None]] = None,
        progress_every: int = 1000,
        stats: Optional[CheckStats] = None,
        profiler: Optional[PhaseProfiler] = None,
) -> CheckResult:
    """Check a scenario with prefix sharing; naive-identical results.

    Args:
        scenario: as for :func:`~repro.verify.model_check.check_scenario`.
        max_examples: retain at most this many violating examples.
        max_interleavings: optional safety cap on the order count of the
            *full* scenario; exceeding it raises.
        use_transposition: merge converged states (identical position
            vector + behaviour-identical harness state) by reusing the
            first visit's subtree summary.  Results are identical either
            way; the table trades memory for work on scenarios whose
            streams frequently cancel out.
        progress: optional liveness callback, invoked with the number of
            interleavings covered so far, roughly every *progress_every*
            orders (transposition hits can make it jump).
        progress_every: callback period in interleavings.
        stats: optional :class:`CheckStats` to fill with work counters.
        profiler: optional :class:`~repro.obs.profile.PhaseProfiler`;
            when given, accumulates wall time for the ``snapshot``,
            ``restore``, ``deliver``, and ``leaf`` phases and counts
            ``expansion`` / ``transposition_hit`` events.  When None
            (the default) the hot path pays one ``is not None`` test
            per operation.

    Raises:
        VerificationError: if the interleaving count exceeds the cap.
    """
    streams = scenario.streams
    lengths = [len(s) for s in streams]
    total_length = sum(lengths)
    expected = interleaving_count(lengths)
    if max_interleavings is not None and expected > max_interleavings:
        raise VerificationError(
            f"scenario {scenario.name}: {expected} interleavings exceeds "
            f"cap {max_interleavings}")
    if stats is None:
        stats = CheckStats()

    harness = make_harness(scenario)
    # The first snapshot binds the harness's undo journal; from then on a
    # snapshot is the journal's O(1) mark and a restore its undo.
    harness.snapshot()
    mark = harness.journal.mark
    undo_to = harness.journal.undo_to
    # Accesses left per stream: a stream's next access is at
    # lengths[i] - left[i], and a node whose remaining total equals one
    # stream's count has a forced tail.
    left = list(lengths)
    final_status: Dict[int, int] = {}
    memo: Dict[Any, _Subtree] = {}
    track = {"leaves": 0, "reported": 0}

    def finish_stats() -> None:
        stats.journal_entries_replayed = harness.journal.entries_replayed
        stats.dirty_pages = harness.ram.dirty_pages_saved

    def deliver(access: AccessSpec) -> Any:
        """Deliver one access; returns the final_status undo token."""
        stats.accesses_delivered += 1
        if profiler is not None:
            t0 = time.perf_counter()
            status = harness.deliver(access)
            profiler.add_seconds("deliver", time.perf_counter() - t0)
        else:
            status = harness.deliver(access)
        if access.final and status is not None:
            old = final_status.get(access.pid, _MISSING)
            final_status[access.pid] = status
            return old
        return _NO_CHANGE

    def undo_status(access: AccessSpec, old: Any) -> None:
        if old is _NO_CHANGE:
            return
        if old is _MISSING:
            del final_status[access.pid]
        else:
            final_status[access.pid] = old

    def tick(leaves: int) -> None:
        track["leaves"] += leaves
        if progress is not None and (
                track["leaves"] - track["reported"] >= progress_every):
            track["reported"] = track["leaves"]
            progress(track["leaves"])

    def evaluate(status_map: Dict[int, int]) -> List[Violation]:
        """Run every property over the harness's current end state."""
        evidence = ReplayEvidence()
        evidence.records = list(harness.engine.initiations)
        evidence.final_status = dict(status_map)
        contributors = getattr(
            harness.protocol, "completed_contributors", None)
        if contributors is not None:
            evidence.contributors = list(contributors)
        authority = getattr(
            harness.protocol, "completed_authority", None)
        if authority is not None:
            evidence.authority = list(authority)
        violations = check_authorized_start(evidence, scenario.rights)
        violations += check_single_issuer(evidence, scenario.rights)
        if scenario.check_truthfulness:
            violations += check_truthful_status(
                evidence, scenario.intents, REJECTION_WORDS)
        return violations

    def leaf() -> _Subtree:
        t0 = time.perf_counter() if profiler is not None else 0.0
        violations = evaluate(final_status)
        node = _Subtree(leaves=1)
        if violations:
            node.violating = 1
            for prop in {v.prop for v in violations}:
                node.by_prop[prop] = 1
            if max_examples > 0:
                node.examples.append(((), violations))
        tick(1)
        if profiler is not None:
            profiler.add_seconds("leaf", time.perf_counter() - t0)
        return node

    # Adaptive cutover: a tree this small cannot amortize the DFS's
    # fingerprint/memo machinery, so replay every order outright — still
    # through the journal, so each order undoes in O(changes) and the
    # harness is never reconstructed (the naive oracle's main cost).
    # Iteration order matches the DFS/naive enumeration, so counts and
    # retained examples are bit-identical.
    if expected < SMALL_SCENARIO_CUTOVER:
        result = CheckResult(scenario=scenario.name)
        order_status: Dict[int, int] = {}
        for order in iter_interleavings_shared(streams):
            token = mark()
            stats.snapshots += 1
            order_status.clear()
            for access in order:
                stats.accesses_delivered += 1
                if profiler is not None:
                    t0 = time.perf_counter()
                    status = harness.deliver(access)
                    profiler.add_seconds(
                        "deliver", time.perf_counter() - t0)
                else:
                    status = harness.deliver(access)
                if access.final and status is not None:
                    order_status[access.pid] = status
            t0 = time.perf_counter() if profiler is not None else 0.0
            violations = evaluate(order_status)
            if profiler is not None:
                profiler.add_seconds("leaf", time.perf_counter() - t0)
            result.total_interleavings += 1
            if violations:
                result.violating_interleavings += 1
                for prop in {v.prop for v in violations}:
                    result.violations_by_property[prop] = (
                        result.violations_by_property.get(prop, 0) + 1)
                if len(result.examples) < max_examples:
                    result.examples.append((tuple(order), violations))
            tick(1)
            undo_to(token)
            stats.restores += 1
        stats.leaves = result.total_interleavings
        stats.naive_accesses = stats.leaves * total_length
        finish_stats()
        return result

    def forced_tail(index: int, remaining: int) -> _Subtree:
        """Only one stream is live: the whole tail is a forced path.

        With zero choice points left the subtree is a single leaf, so
        the tail is delivered as one batch under a single
        snapshot/restore pair instead of one pair per access.  Counts
        and the retained example are identical to the unbatched walk.
        """
        if profiler is not None:
            t0 = time.perf_counter()
            token = mark()
            profiler.add_seconds("snapshot", time.perf_counter() - t0)
        else:
            token = mark()
        stats.snapshots += 1
        tail = tuple(streams[index][lengths[index] - remaining:])
        undos = []
        for access in tail:
            undos.append((access, deliver(access)))
        stats.batched_deliveries += remaining
        node = leaf()
        if node.examples:
            node.examples = [(tail + suffix, violations)
                             for suffix, violations in node.examples]
        for access, old in reversed(undos):
            undo_status(access, old)
        if profiler is not None:
            t0 = time.perf_counter()
            undo_to(token)
            profiler.add_seconds("restore", time.perf_counter() - t0)
        else:
            undo_to(token)
        stats.restores += 1
        return node

    def dfs(remaining: int) -> _Subtree:
        if remaining == 0:
            return leaf()
        key = None
        if use_transposition:
            fingerprint = harness.fingerprint()
            if fingerprint is not None:
                key = (tuple(left),
                       tuple(sorted(final_status.items())),
                       fingerprint)
                hit = memo.get(key)
                if hit is not None:
                    stats.transposition_hits += 1
                    if profiler is not None:
                        profiler.count("transposition_hit")
                    tick(hit.leaves)
                    return hit
        if remaining in left:
            node = forced_tail(left.index(remaining), remaining)
            if key is not None:
                memo[key] = node
            return node
        node = _Subtree()
        if profiler is not None:
            profiler.count("expansion")
        for index, stream in enumerate(streams):
            n_left = left[index]
            if not n_left:
                continue
            access = stream[lengths[index] - n_left]
            if profiler is not None:
                t0 = time.perf_counter()
                token = mark()
                profiler.add_seconds("snapshot", time.perf_counter() - t0)
            else:
                token = mark()
            stats.snapshots += 1
            old = deliver(access)
            left[index] = n_left - 1
            child = dfs(remaining - 1)
            left[index] = n_left
            undo_status(access, old)
            if profiler is not None:
                t0 = time.perf_counter()
                undo_to(token)
                profiler.add_seconds("restore", time.perf_counter() - t0)
            else:
                undo_to(token)
            stats.restores += 1
            node.leaves += child.leaves
            if not child.violating:
                continue
            node.violating += child.violating
            for prop, count in child.by_prop.items():
                node.by_prop[prop] = node.by_prop.get(prop, 0) + count
            if len(node.examples) < max_examples:
                for suffix, violations in child.examples:
                    if len(node.examples) >= max_examples:
                        break
                    node.examples.append(((access,) + suffix, violations))
        if key is not None:
            memo[key] = node
        return node

    root = dfs(total_length)
    # dfs refers to itself through its closure cell; deleting the name
    # breaks that cycle, so the harness and memo table free by
    # reference counting as soon as this call returns.
    del dfs
    stats.leaves = root.leaves
    stats.naive_accesses = root.leaves * total_length
    stats.transposition_entries = len(memo)
    finish_stats()

    result = CheckResult(scenario=scenario.name)
    result.total_interleavings = root.leaves
    result.violating_interleavings = root.violating
    result.violations_by_property = dict(root.by_prop)
    result.examples = [(order, list(violations))
                       for order, violations in root.examples]
    return result
