"""Journaled snapshots restore exactly and change no delivery.

The checker backtracks through one shared undo journal: the first
``ProtocolHarness.snapshot()`` binds it, every mark is O(1), and
restore replays the mutations recorded since the mark.  Its soundness
rests on two facts tested here: a journaled harness delivers exactly
what an unjournaled one does, and every observable bit of harness
state — RAM bytes, simulator clock and event set, engine registers and
tables, initiation records, protocol FSM scalars — returns exactly
under restore, including arbitrarily nested snapshot stacks.  A
journaled engine records no spans and cannot be reset: both refuse.
"""

from __future__ import annotations

from typing import List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import (
    drop_fingerprint_caches,
    install_modern_setup,
    modern_stream_kwargs,
)

from repro.core.methods import METHODS, make_protocol
from repro.errors import ConfigError
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
    harness can be compared directly.  The engine fingerprint and the
    event signature are cached between mutations, so each is also
    recomputed cold and must match: a cache that survived a missed
    restore cannot hide it.
    """
    engine = harness.engine
    signature = harness.sim.live_event_signature()
    fingerprint = engine.fingerprint()
    drop_fingerprint_caches(harness)
    assert harness.sim.live_event_signature() == signature
    assert engine.fingerprint() == fingerprint
    scalars = tuple(sorted(
        (name, value) for name, value in vars(harness.protocol).items()
        if isinstance(value, (int, str, bool, type(None)))))
    return (
        harness.ram.read(0, harness.ram_size),
        harness.sim.now,
        harness.sim.pending,
        harness.sim.events_fired,
        signature,
        fingerprint,
        tuple(context.snapshot() for context in engine.contexts),
        tuple(engine.initiations),
        engine.protocol_violations,
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


def delivering_only(method: str,
                    delivered: List[AccessSpec]) -> ProtocolHarness:
    """A never-journaled harness that delivered *delivered*."""
    harness = make_method_harness(method)
    for access in delivered:
        harness.deliver(access)
    return harness


#: Steps of the nested-edge walk below.
EDGE, DELIVER, UNDO = "edge", "deliver", "undo"


@settings(max_examples=60, deadline=None)
@given(method=st.sampled_from(sorted(METHODS)), data=st.data())
def test_edge_marks_nest_in_lockstep(method, data):
    """Edges stay exact however their epochs are filled.

    ``snapshot()`` opens an edge with one entry holding the clock and
    the engine's scalars; neither the simulator nor the engine captures
    them itself, so that entry alone must restore them.  The walk nests
    edges, delivers up to three accesses in one epoch (a forced tail),
    and after an undo delivers more in the outer epoch, which only the
    outer edge's entry covers.  After every step the harness observes
    exactly what a never-journaled harness fed the same accesses does
    (its cached fingerprint equal to a cold one); after every undo,
    exactly what it observed at the mark.
    """
    streams = method_streams(method)
    harness = delivering_only(method, [])
    harness.bind_journal()
    plain = delivering_only(method, [])
    positions = [0] * len(streams)
    delivered: List[AccessSpec] = []
    marks: List[Tuple[int, Tuple, int, List[int]]] = []

    def deliver_some(most: int) -> None:
        for _ in range(data.draw(st.integers(1, most))):
            live = [i for i, stream in enumerate(streams)
                    if positions[i] < len(stream)]
            if not live:
                return
            index = data.draw(st.sampled_from(live))
            access = streams[index][positions[index]]
            positions[index] += 1
            assert harness.deliver(access) == plain.deliver(access)
            delivered.append(access)

    for _ in range(24):
        can_deliver = any(p < len(s) for p, s in zip(positions, streams))
        steps = [UNDO] if marks else []
        if can_deliver:
            steps += [EDGE, DELIVER]
        if not steps:
            break
        step = data.draw(st.sampled_from(steps))
        if step == UNDO:
            token, expected, depth, positions = marks.pop()
            harness.restore(token)
            assert observe(harness) == expected
            del delivered[depth:]
            plain = delivering_only(method, delivered)
        elif step == DELIVER:
            deliver_some(2)
        else:
            at_mark = (observe(harness), len(delivered), list(positions))
            marks.append((harness.snapshot(),) + at_mark)
            deliver_some(3)
        assert observe(harness) == observe(plain)
    while marks:
        token, expected, _, _ = marks.pop()
        harness.restore(token)
        assert observe(harness) == expected


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


def span_state(harness: ProtocolHarness) -> Tuple:
    """The engine span tracer's observable state, as comparable values."""
    spans = harness.engine.spans
    return (spans._next_id,
            [(s.span_id, s.parent_id, s.name, s.track, s.start, s.end,
              dict(s.attrs)) for s in spans.all_spans()],
            list(spans._stack), spans.dropped)


@pytest.mark.parametrize("method", sorted(METHODS))
def test_spans_and_trace_survive_journal_restore(method):
    """Undo never touches the span tracer.

    Spans recorded before the stack is journaled (here by an
    unjournaled delivery with the tracer on) stay exactly as they were through
    journaled deliveries and their restore: a journaled engine records
    no spans, so the journal holds none to rewind.
    """
    harness = make_method_harness(method)
    spans = harness.engine.spans
    order = method_streams(method)[0] + method_streams(method)[1]
    spans.enabled = True
    harness.deliver(order[0])
    spans.enabled = False
    recorded = span_state(harness)
    assert recorded[1], "the unjournaled delivery recorded no span"
    token = harness.snapshot()
    for access in order[1:]:
        harness.deliver(access)
    assert span_state(harness) == recorded
    harness.restore(token)
    assert span_state(harness) == recorded


def test_first_snapshot_refuses_an_enabled_engine_tracer():
    """Undo cannot rewind spans, so a harness whose engine records them
    refuses to journal: the first snapshot raises and binds nothing."""
    harness = make_method_harness("keyed")
    harness.engine.spans.enabled = True
    with pytest.raises(ConfigError, match="records no spans"):
        harness.snapshot()
    assert harness.journal is None
    assert harness.sim._journal is None
    assert harness.ram._undo is None
    assert harness.engine._undo is None
    assert harness.engine.transfer_engine._undo is None


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


def kernel_state(engine) -> Tuple:
    """What a power-on reset clears: the register contexts, the key
    table, the initiation records, and the count of dropped records."""
    return (tuple(context.snapshot() for context in engine.contexts),
            dict(engine.key_table), list(engine.initiations),
            engine.initiations_dropped)


@pytest.mark.parametrize("kernel_op",
                         ["assign_context", "release_context", "reset"])
def test_restore_undoes_kernel_context_management(kernel_op):
    """The kernel's context management is journaled like an access.

    A checker scenario may reassign a register context between two of
    a victim's accesses, so restore must bring back the context the
    kernel scrubbed: its owner and its latched arguments, and the
    cached fingerprint must drop with it.  A power-on reset is not
    journaled (a harness resets by building a new stack), so a
    journaled engine refuses it and keeps every table and record.
    """
    harness = make_method_harness("keyed")
    engine = harness.engine
    engine.assign_context(0, 1)
    for access in method_streams("keyed")[0][:3]:
        harness.deliver(access)  # context 0 latches dst, src and size
    before = tuple(context.snapshot() for context in engine.contexts)
    assert before[0][:4] == (SRC_1, DST_1, SIZE, 1)
    token = harness.snapshot()
    if kernel_op == "reset":
        harness.deliver(method_streams("keyed")[0][3])  # the start
        started = kernel_state(engine)
        assert started[1] == {0: KEY_1, 1: KEY_2}
        assert (len(started[2]), started[3]) == (1, 0)
        with pytest.raises(ConfigError, match="cannot be reset"):
            engine.reset()
        assert kernel_state(engine) == started
        harness.restore(token)
        assert tuple(c.snapshot() for c in engine.contexts) == before
        return
    if kernel_op == "assign_context":
        engine.assign_context(0, 99)
    else:
        engine.release_context(0)
    harness.fingerprint()  # cache the scrubbed contexts
    harness.restore(token)
    assert tuple(context.snapshot() for context in engine.contexts) == before
    fingerprint = harness.fingerprint()
    drop_fingerprint_caches(harness)
    assert harness.fingerprint() == fingerprint
