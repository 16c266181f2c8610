"""Journaled snapshots restore exactly and change no delivery.

The checker backtracks through one shared undo journal: the first
``ProtocolHarness.snapshot()`` binds it, every mark is O(1), and
restore replays the mutations recorded since the mark.  Its soundness
rests on two facts tested here: a journaled harness delivers exactly
what an unjournaled one does, and every observable bit of harness
state — RAM bytes, simulator clock and event set, engine registers and
tables, initiation records, protocol FSM scalars — returns exactly
under restore, including arbitrarily nested snapshot stacks and with
the span tracer recording.
"""

from __future__ import annotations

from typing import List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import install_modern_setup, modern_stream_kwargs

from repro.core.methods import METHODS, make_protocol
from repro.verify.interleave import (
    AccessSpec,
    ProtocolHarness,
    initiation_stream,
)

KEY_1, KEY_2 = 0xAAA111, 0xBBB222
SRC_1, DST_1 = 0, 4096
SRC_2, DST_2 = 8192, 12288
SIZE = 256


def method_streams(method: str) -> List[List[AccessSpec]]:
    """Two-process access streams exercising *method*'s recognizer."""
    if method == "kernel":
        return [
            [AccessSpec(1, "store", SRC_1, SIZE),
             AccessSpec(1, "load", SRC_1, final=True)],
            [AccessSpec(2, "load", SRC_2, final=True)],
        ]
    kwargs_1 = {}
    kwargs_2 = {}
    if method == "keyed":
        kwargs_1 = {"key": KEY_1, "ctx_id": 0}
        kwargs_2 = {"key": KEY_2, "ctx_id": 1}
    elif method == "extshadow":
        kwargs_1 = {"ctx_id": 0}
        kwargs_2 = {"ctx_id": 1}
    else:
        kwargs_1, kwargs_2 = modern_stream_kwargs(method)
    return [
        initiation_stream(method, 1, SRC_1, DST_1, SIZE, **kwargs_1),
        initiation_stream(method, 2, SRC_2, DST_2, SIZE, **kwargs_2),
    ]


def make_method_harness(method: str) -> ProtocolHarness:
    harness = ProtocolHarness(lambda: make_protocol(method))
    if method == "keyed":
        harness.install_key(0, KEY_1)
        harness.install_key(1, KEY_2)
    install_modern_setup(harness, method)
    return harness


def observe(harness: ProtocolHarness) -> Tuple:
    """Every observable bit of harness state, as comparable values.

    Nothing here reads the journal, so a journaled and an unjournaled
    harness can be compared directly.
    """
    scalars = tuple(sorted(
        (name, value) for name, value in vars(harness.protocol).items()
        if isinstance(value, (int, str, bool, type(None)))))
    return (
        harness.ram.read(0, harness.ram_size),
        harness.sim.now,
        harness.sim.pending,
        harness.sim.events_fired,
        harness.sim.live_event_signature(),
        harness.engine.fingerprint(),
        tuple(harness.engine.initiations),
        harness.engine.protocol_violations,
        scalars,
    )


def interleaving(data, streams: List[List[AccessSpec]]) -> List[AccessSpec]:
    """Draw one random interleaving of *streams* (streams kept in order)."""
    order: List[AccessSpec] = []
    positions = [0] * len(streams)
    while True:
        live = [i for i, (p, s) in enumerate(zip(positions, streams))
                if p < len(s)]
        if not live:
            return order
        index = data.draw(st.sampled_from(live))
        order.append(streams[index][positions[index]])
        positions[index] += 1


@settings(max_examples=40, deadline=None)
@given(method=st.sampled_from(sorted(METHODS)), data=st.data())
def test_journaled_matches_plain_random_walk(method, data):
    """A journaled harness stays in lockstep with one that only delivers.

    For every access of a random interleaving the journaled harness
    does snapshot -> deliver -> compare -> restore -> compare ->
    re-deliver while the plain harness just delivers, so a journaling
    side effect on delivery is caught at the exact step it appears.
    """
    jh = make_method_harness(method)
    plain = make_method_harness(method)
    assert observe(jh) == observe(plain)
    for access in interleaving(data, method_streams(method)):
        before = observe(jh)
        token = jh.snapshot()
        assert jh.deliver(access) == plain.deliver(access)
        assert observe(jh) == observe(plain)
        jh.restore(token)
        assert observe(jh) == before
        jh.deliver(access)  # commit the step and walk one level deeper
        assert observe(jh) == observe(plain)
    assert plain.journal is None


@settings(max_examples=40, deadline=None)
@given(method=st.sampled_from(sorted(METHODS)), data=st.data())
def test_nested_snapshot_stack_unwinds_exactly(method, data):
    """A random LIFO stack of journal marks restores every level.

    Mirrors the checker's DFS: marks nest arbitrarily deep, each undo
    must land bit-exactly on the state its mark captured.
    """
    harness = make_method_harness(method)
    order = interleaving(data, method_streams(method))
    stack: List[Tuple[object, Tuple]] = []
    cursor = 0
    for _ in range(3 * len(order)):
        can_push = cursor < len(order)
        can_pop = bool(stack)
        if not (can_push or can_pop):
            break
        push = can_push and (not can_pop or data.draw(st.booleans()))
        if push:
            stack.append((harness.snapshot(), observe(harness)))
            harness.deliver(order[cursor])
            cursor += 1
        else:
            token, expected = stack.pop()
            harness.restore(token)
            cursor -= 1
            assert observe(harness) == expected
    while stack:
        token, expected = stack.pop()
        harness.restore(token)
        assert observe(harness) == expected


@pytest.mark.parametrize("method", sorted(METHODS))
def test_spans_and_trace_survive_journal_restore(method):
    """Observability state is part of the journal's restore contract.

    With spans enabled, a deliver mutates the span tracer (open and
    finished spans, id counter); undoing to a mark must put it back
    exactly.
    """
    harness = make_method_harness(method)
    engine = harness.engine
    engine.spans.enabled = True

    def obs_state() -> Tuple:
        spans = engine.spans
        return (spans._next_id, list(spans._finished), dict(spans._open),
                list(spans._stack), spans.dropped)

    order = method_streams(method)[0] + method_streams(method)[1]
    harness.deliver(order[0])  # snapshot from a non-virgin state
    before = obs_state()
    token = harness.snapshot()
    for access in order[1:]:
        harness.deliver(access)
    harness.restore(token)
    assert obs_state() == before


def test_fingerprint_skips_memoization_while_engine_spans_are_on():
    """A merged subtree would skip its span records, so a harness whose
    engine records spans reports no fingerprint (no memoization)."""
    harness = make_method_harness("keyed")
    harness.deliver(method_streams("keyed")[0][0])
    assert harness.fingerprint() is not None
    harness.engine.spans.enabled = True
    assert harness.fingerprint() is None


def test_journal_binds_on_first_snapshot_not_on_replay():
    """The naive oracle's replay() never journals; snapshot() binds one
    journal to the whole stack, and the next reset drops it."""
    harness = make_method_harness("keyed")
    order = method_streams("keyed")[0]
    harness.replay(order)
    assert harness.journal is None
    mark = harness.snapshot()
    journal = harness.journal
    assert journal is not None
    assert harness.sim._journal is journal
    assert harness.ram._undo is journal
    assert harness.engine._undo is journal
    assert harness.engine.transfer_engine._undo is journal
    harness.deliver(order[0])
    harness.restore(mark)
    harness.snapshot()
    assert harness.journal is journal  # later snapshots reuse it
    harness.replay(order)
    assert harness.journal is None
