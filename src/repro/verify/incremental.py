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
is an O(1) mark whose one entry holds the clock and the engine's
scalars, and restore replays only the mutations made since it.
Two further strategies keep small and degenerate inputs fast
(see docs/verification.md "Small-scenario cutover"): scenarios under
:data:`SMALL_SCENARIO_CUTOVER` orders skip the DFS for a journaled
fast-replay of every order, and a node whose every remaining access
belongs to one stream delivers the whole forced tail under a single
snapshot/restore pair (counted in ``CheckStats.batched_deliveries``).

The hunt passes one harness to every check of a method and takes its
bandit's credits from the walk itself (``harness=``, ``label_credits=``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import comb
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import VerificationError
from ..obs.profile import PhaseProfiler
from .interleave import (
    AccessSpec,
    ProtocolHarness,
    interleaving_count,
    iter_interleavings_shared,
)
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
            all of this check's restores.
        dirty_pages: RAM pages this check copied through the
            page-granular CoW layer.
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


#: The summary of every leaf without a violation, shared: a parent reads
#: a child's summary and merges it into its own, and nothing writes to a
#: summary once it is returned, except a forced tail splicing its
#: accesses onto a violating leaf's examples.
_SAFE_LEAF = _Subtree(leaves=1)


def check_scenario_incremental(
        scenario: Scenario,
        max_examples: int = 5,
        max_interleavings: Optional[int] = None,
        progress: Optional[Callable[[int], None]] = None,
        progress_every: int = 1000,
        stats: Optional[CheckStats] = None,
        profiler: Optional[PhaseProfiler] = None,
        harness: Optional[ProtocolHarness] = None,
        label_credits: Optional[List[Tuple[str, int, bool]]] = None,
) -> CheckResult:
    """Check a scenario with prefix sharing; naive-identical results.

    Args:
        scenario: as for :func:`~repro.verify.model_check.check_scenario`.
        max_examples: retain at most this many violating examples.
        max_interleavings: optional safety cap on the order count of the
            *full* scenario; exceeding it raises.
        progress: optional liveness callback, invoked with the number of
            interleavings covered so far, roughly every *progress_every*
            orders (transposition hits can make it jump).
        progress_every: callback period in interleavings.
        stats: optional :class:`CheckStats` to fill with work counters.
        profiler: optional :class:`~repro.obs.profile.PhaseProfiler`;
            when given, accumulates wall time for the ``snapshot``,
            ``restore``, ``deliver``, and ``leaf`` phases and counts
            ``expansion`` / ``transposition_hit`` events.  The timed
            operations go through wrappers bound once per check, so an
            unprofiled check pays nothing for the timing.
        harness: optional harness to check on instead of building one.
            It must come from
            :func:`~repro.verify.model_check.make_harness` for a scenario
            with the same method, keys, setup, ``n_contexts`` and
            ``page_bounded``, and sit at its root mark (every delivery
            undone).  The check leaves it there, so one harness serves
            every check of a method; the ``journal_entries_replayed``
            and ``dirty_pages`` counters are this check's own.
        label_credits: optional list to extend, in walk order, with one
            ``(label, k, advanced)`` entry per split ``s`` of the first
            stream and access ``k`` of the second (two streams only):
            the protocol's ``state_label()`` after ``first[:s] +
            second[:k]``, and whether delivering ``second[k]`` changed
            it.  They are read from the walk's own deliveries: the DFS
            takes the first stream's child first, so it reaches each such
            state first along that very path, never as a transposition
            hit, and fast replay plays ``first[:s] + second + first[s:]``
            once per split (docs/verification.md, Level 4).

    Raises:
        VerificationError: if the interleaving count exceeds the cap, or
            *label_credits* is given for other than two streams.
    """
    streams = scenario.streams
    lengths = [len(s) for s in streams]
    total_length = sum(lengths)
    expected = interleaving_count(lengths)
    if max_interleavings is not None and expected > max_interleavings:
        raise VerificationError(
            f"scenario {scenario.name}: {expected} interleavings exceeds "
            f"cap {max_interleavings}")
    if label_credits is not None and len(streams) != 2:
        raise VerificationError(
            f"scenario {scenario.name}: label credits need two streams, "
            f"not {len(streams)}")
    if stats is None:
        stats = CheckStats()

    if harness is None:
        harness = make_harness(scenario)
    # Every edge, forced tail and fast-replay order opens with the
    # harness's snapshot (a journal mark whose one entry holds the state
    # every delivery changes) and closes with the journal's undo.  An
    # empty scenario's one order delivers nothing, so it takes no mark:
    # its token is the journal's length.
    journal = harness.bind_journal()
    snapshot = harness.snapshot if total_length else journal.__len__
    undo_to = journal.undo_to
    deliver_access = harness.deliver
    replayed_before = journal.entries_replayed
    dirty_before = harness.ram.dirty_pages_saved
    # Accesses left per stream: a stream's next access is at
    # lengths[i] - left[i], and a node whose remaining total equals one
    # stream's count has a forced tail.
    left = list(lengths)
    final_status: Dict[int, int] = {}
    # The memo key's part for final_status; None once a final access or
    # its undo changed final_status, until the next key rebuilds it.
    status_key: List[Optional[tuple]] = [()]
    memo: Dict[Any, _Subtree] = {}
    track = {"leaves": 0, "reported": 0}
    # Whether the path to the current DFS node is first[:s] + second[:k],
    # the path along which the second stream's deliveries earn credits.
    probing = True

    def finish_stats() -> None:
        stats.journal_entries_replayed = (journal.entries_replayed
                                          - replayed_before)
        stats.dirty_pages = harness.ram.dirty_pages_saved - dirty_before

    def deliver(access: AccessSpec) -> Any:
        """Deliver one access; returns the final_status undo token."""
        stats.accesses_delivered += 1
        status = deliver_access(access)
        if access.final and status is not None:
            old = final_status.get(access.pid, _MISSING)
            final_status[access.pid] = status
            status_key[0] = None
            return old
        return _NO_CHANGE

    def credited(access: AccessSpec, k: int) -> Any:
        """Deliver the second stream's access *k* on the probing path,
        crediting its label change; returns :func:`deliver`'s token."""
        state_label = harness.protocol.state_label
        before = state_label()
        old = deliver(access)
        label_credits.append((before, k, state_label() != before))
        return old

    def undo_status(access: AccessSpec, old: Any) -> None:
        """Undo a delivery that changed a final status (*old* is not
        ``_NO_CHANGE``)."""
        if old is _MISSING:
            del final_status[access.pid]
        else:
            final_status[access.pid] = old
        status_key[0] = None

    def report(leaves: int) -> None:
        track["leaves"] += leaves
        if track["leaves"] - track["reported"] >= progress_every:
            track["reported"] = track["leaves"]
            progress(track["leaves"])

    # Counts covered leaves for the progress callback; nothing else
    # reads the count, so without a callback nothing is counted.
    tick = report if progress is not None else None

    def evaluate(status_map: Dict[int, int]) -> List[Violation]:
        """Run every property over the harness's current end state."""
        protocol = harness.protocol
        contributors = getattr(protocol, "completed_contributors", None)
        authority = getattr(protocol, "completed_authority", None)
        evidence = ReplayEvidence(
            list(harness.engine.initiations), dict(status_map),
            [] if contributors is None else list(contributors),
            [] if authority is None else list(authority))
        violations = check_authorized_start(evidence, scenario.rights)
        violations += check_single_issuer(evidence, scenario.rights)
        if scenario.check_truthfulness:
            violations += check_truthful_status(
                evidence, scenario.intents, REJECTION_WORDS)
        return violations

    if profiler is not None:
        # Each timed phase goes through a wrapper bound here once.
        snapshot = _timed(snapshot, "snapshot", profiler)
        undo_to = _timed(undo_to, "restore", profiler)
        deliver_access = _timed(deliver_access, "deliver", profiler)
        evaluate = _timed(evaluate, "leaf", profiler)

    def leaf() -> _Subtree:
        violations = evaluate(final_status)
        if violations:
            node = _Subtree(leaves=1)
            node.violating = 1
            for prop in {v.prop for v in violations}:
                node.by_prop[prop] = 1
            if max_examples > 0:
                node.examples.append(((), violations))
        else:
            node = _SAFE_LEAF
        if tick is not None:
            tick(1)
        return node

    # Adaptive cutover: a tree this small cannot amortize the DFS's
    # fingerprint/memo machinery, so replay every order outright — still
    # through the journal, so each order undoes in O(changes) and the
    # harness is never reconstructed (the naive oracle's main cost).
    # Iteration order matches the DFS/naive enumeration, so counts and
    # retained examples are bit-identical.
    if expected < SMALL_SCENARIO_CUTOVER:
        result = CheckResult(scenario=scenario.name)
        # Order index -> split s of the order first[:s] + second +
        # first[s:], whose second-stream deliveries earn the credits.
        # Orders run first-stream-first, so the C(m - s + n, n) orders
        # that open with s first-stream accesses come first, and this
        # one is the last of them.
        probes: Optional[Dict[int, int]] = None
        if label_credits is not None:
            m, n = lengths
            probes = {comb(m - s + n, n) - 1: s for s in range(m + 1)}
        for order in iter_interleavings_shared(streams):
            token = snapshot()
            stats.snapshots += 1
            final_status.clear()
            split = (None if probes is None
                     else probes.get(result.total_interleavings))
            if split is None:
                for access in order:
                    stats.accesses_delivered += 1
                    status = deliver_access(access)
                    if access.final and status is not None:
                        final_status[access.pid] = status
            else:
                for position, access in enumerate(order):
                    k = position - split
                    if 0 <= k < lengths[1]:
                        credited(access, k)
                    else:
                        deliver(access)
            violations = evaluate(final_status)
            result.total_interleavings += 1
            if violations:
                result.violating_interleavings += 1
                for prop in {v.prop for v in violations}:
                    result.violations_by_property[prop] = (
                        result.violations_by_property.get(prop, 0) + 1)
                if len(result.examples) < max_examples:
                    result.examples.append((tuple(order), violations))
            if tick is not None:
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
        token = snapshot()
        stats.snapshots += 1
        first = lengths[index] - remaining
        tail = tuple(streams[index][first:])
        # The deliveries that changed a final status, to undo in reverse.
        undos = []
        credit = label_credits is not None and probing and index == 1
        for k, access in enumerate(tail, first):
            old = credited(access, k) if credit else deliver(access)
            if old is not _NO_CHANGE:
                undos.append((access, old))
        stats.batched_deliveries += remaining
        node = leaf()
        if node.examples:
            node.examples = [(tail + suffix, violations)
                             for suffix, violations in node.examples]
        for access, old in reversed(undos):
            undo_status(access, old)
        undo_to(token)
        stats.restores += 1
        return node

    def probing_edge(index: int, access: AccessSpec, n_left: int,
                     remaining: int) -> Tuple[Any, _Subtree]:
        """One DFS edge of a check that harvests label credits: deliver
        (crediting a second-stream access on the probing path) and walk
        the child, keeping ``probing`` up to date."""
        nonlocal probing
        was = probing
        if was and index == 1:
            old = credited(access, lengths[1] - n_left)
        else:
            old = deliver(access)
            # A first-stream access extends the probing path only while
            # no second-stream access has been delivered.
            probing = was and left[1] == lengths[1]
        left[index] = n_left - 1
        child = dfs(remaining - 1)
        probing = was
        return old, child

    # The transposition table's state capture, bound once.  (Binding it
    # also keeps dfs's closure at 19 names: CPython 3.11 files a freed
    # 20-item tuple on a free list it never takes from, so a 20-name
    # closure would strand one tuple per check.)
    fingerprint_of = harness.fingerprint

    def dfs(remaining: int) -> _Subtree:
        # A node with one live stream left is a forced tail, so only an
        # empty scenario's root has nothing left to deliver (see below).
        key = None
        fingerprint = fingerprint_of()
        if fingerprint is not None:
            statuses = status_key[0]
            if statuses is None:
                statuses = status_key[0] = tuple(
                    sorted(final_status.items()))
            key = (tuple(left), statuses, fingerprint)
            hit = memo.get(key)
            if hit is not None:
                stats.transposition_hits += 1
                if profiler is not None:
                    profiler.count("transposition_hit")
                if tick is not None:
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
            token = snapshot()
            stats.snapshots += 1
            if label_credits is None:
                old = deliver(access)
                left[index] = n_left - 1
                child = dfs(remaining - 1)
            else:
                old, child = probing_edge(index, access, n_left, remaining)
            left[index] = n_left
            if old is not _NO_CHANGE:
                undo_status(access, old)
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

    root = dfs(total_length) if total_length else leaf()
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


def _timed(op: Callable[..., Any], phase: str,
           profiler: PhaseProfiler) -> Callable[..., Any]:
    """*op*, adding the wall time of each call to *profiler*'s
    *phase* (and counting the call)."""
    clock = time.perf_counter
    add_seconds = profiler.add_seconds

    def timed(*args: Any) -> Any:
        t0 = clock()
        result = op(*args)
        add_seconds(phase, clock() - t0)
        return result

    return timed
