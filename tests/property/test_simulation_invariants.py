"""Property-based tests on simulation-substrate invariants."""

import bisect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import mark_clock

from repro.errors import SimulationError
from repro.hw.memory import PhysicalMemory
from repro.hw.pagetable import PAGE_SIZE
from repro.hw.writebuffer import WriteBuffer
from repro.sim.engine import Simulator
from repro.sim.journal import UndoJournal
from repro.units import kib
from repro.verify.interleave import interleaving_count


#: Delays from 0 ps to 2**34 ps (about 17 ms): short ones, so that
#: events tie and crowd together, the whole range, and powers of two
#: where a tiered queue would put its boundaries.
_delay = st.one_of(
    st.integers(min_value=0, max_value=2_000),
    st.integers(min_value=0, max_value=1 << 34),
    st.sampled_from((0, 1 << 18, (1 << 26) - 1, 1 << 26, (1 << 26) + 1,
                     1 << 34)),
)
_label = st.sampled_from("abc")
#: An event's action schedules these children, each *delay* after it
#: fires.
_children = st.lists(st.tuples(_delay, _label), max_size=2)
_sim_op = st.one_of(
    st.tuples(st.just("schedule"), _delay, _label, _children),
    st.tuples(st.just("call_at"), _delay, _label, _children),
    st.tuples(st.just("advance"), _delay),
    st.tuples(st.just("run_until"), _delay),
    st.tuples(st.just("wait_for"), st.integers(min_value=0, max_value=3),
              st.none() | _delay),
    st.tuples(st.just("step")),
    st.tuples(st.just("run"), st.none() | _delay),
)


class QueueModel:
    """The simulator's contract over a list sorted by ``(when, seq)``."""

    def __init__(self):
        self.queue = []  # (when, seq, label, event_id, children)
        self.now = 0
        self.seq = 0
        self.events_fired = 0
        self.fired = []

    def push(self, when, label, event_id, children):
        bisect.insort(self.queue, (when, self.seq, label, event_id, children))
        self.seq += 1

    def step(self):
        if not self.queue:
            return False
        when, _, _, event_id, children = self.queue.pop(0)
        self.now = when
        self.events_fired += 1
        self.fired.append(event_id)
        for k, (delay, label) in enumerate(children):
            self.push(when + delay, label, event_id + (k,), ())
        return True

    def advance(self, delta):
        target = self.now + delta
        while self.queue and self.queue[0][0] <= target:
            self.step()
        self.now = target
        return target

    def run(self, until=None):
        fired = 0
        while self.queue and (until is None or self.queue[0][0] <= until):
            self.step()
            fired += 1
        if until is not None:
            self.now = max(self.now, until)
        return fired

    def wait_for(self, predicate, timeout):
        deadline = None if timeout is None else self.now + timeout
        if predicate():
            return True
        while self.queue:
            if deadline is not None and self.queue[0][0] > deadline:
                self.now = deadline
                return predicate()
            self.step()
            if predicate():
                return True
        return predicate()

    def observed(self):
        """What the simulator must report: (now, pending, events_fired,
        the sorted (when, label) of every queued event)."""
        signature = tuple(sorted((when, label)
                                 for when, _, label, _, _ in self.queue))
        return self.now, len(self.queue), self.events_fired, signature

    def snapshot(self):
        return (list(self.queue), self.now, self.seq, self.events_fired,
                list(self.fired))

    def restore(self, saved):
        queue, self.now, self.seq, self.events_fired, fired = saved
        self.queue = list(queue)
        self.fired = list(fired)


def _observed(sim):
    signature = tuple(sorted((when, label)
                             for when, _, _, label in sim._queue))
    return sim.now, sim.pending, sim.events_fired, signature


def _would_fire(model, op):
    """Whether *op* would fire an event from *model*'s queue."""
    kind = op[0]
    if kind in ("schedule", "call_at") or not model.queue:
        return False
    head = model.queue[0][0]
    if kind == "step":
        return True
    if kind == "wait_for":
        _, more, timeout = op
        return more > 0 and (timeout is None or head <= model.now + timeout)
    return op[1] is None or head <= model.now + op[1]


def _action(sim, fired, event_id, children):
    """Log *event_id* when fired, then schedule its children."""
    def fire():
        fired.append(event_id)
        for k, (delay, label) in enumerate(children):
            sim.schedule(delay, _action(sim, fired, event_id + (k,), ()),
                         label)
    return fire


def _apply(sim, fired, model, index, op):
    """Run *op* (the *index*-th of its program) on the simulator and the
    model, comparing what each returns."""
    kind = op[0]
    if kind in ("schedule", "call_at"):
        _, delay, label, children = op
        action = _action(sim, fired, (index,), children)
        if kind == "schedule":
            sim.schedule(delay, action, label)
        else:
            sim.call_at(sim.now + delay, action, label)
        model.push(model.now + delay, label, (index,), children)
    elif kind == "advance":
        assert sim.advance(op[1]) == model.advance(op[1])
    elif kind == "run_until":
        when = model.now + op[1]
        assert sim.run_until(when) == model.run(when)
    elif kind == "wait_for":
        _, more, timeout = op
        sim_goal, model_goal = len(fired) + more, len(model.fired) + more
        assert (sim.wait_for(lambda: len(fired) >= sim_goal, timeout=timeout)
                == model.wait_for(lambda: len(model.fired) >= model_goal,
                                  timeout))
    elif kind == "step":
        assert sim.step() == model.step()
    else:
        until = None if op[1] is None else model.now + op[1]
        assert sim.run(until=until) == model.run(until)


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(_sim_op, min_size=1, max_size=40))
def test_simulator_fires_in_timestamp_order(ops):
    """Programs of schedules, ties, child events and every way of
    driving the clock fire exactly as a sorted-list model says."""
    sim, fired, model = Simulator(), [], QueueModel()
    for index, op in enumerate(ops):
        _apply(sim, fired, model, index, op)
        assert fired == model.fired
        assert _observed(sim) == model.observed()
    assert sim.run() == model.run()
    assert fired == model.fired
    assert _observed(sim) == model.observed()


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(st.one_of(_sim_op, st.tuples(st.just("mark")),
                              st.tuples(st.just("undo"))),
                    min_size=1, max_size=40))
def test_simulator_journal_undo_matches_model(ops):
    """Under a bound journal, pushes and moves of the clock that fire
    nothing match the model, an op that would fire raises and changes
    nothing, and undoing to a mark (LIFO) restores what the simulator
    reported at the mark.  Unbound at the end, the rest of the program
    fires as the model says."""
    sim, fired, model = Simulator(), [], QueueModel()
    journal = UndoJournal()
    sim.bind_journal(journal)
    marks = []
    for index, op in enumerate(ops):
        if op[0] == "mark":
            marks.append((mark_clock(journal, sim), model.snapshot(),
                          _observed(sim)))
        elif op[0] == "undo":
            if marks:
                token, saved, seen = marks.pop()
                journal.undo_to(token)
                model.restore(saved)
                assert _observed(sim) == seen
        elif _would_fire(model, op):
            seen, saved = _observed(sim), model.snapshot()
            with pytest.raises(SimulationError, match="fires no events"):
                _apply(sim, fired, model, index, op)
            assert model.snapshot() == saved  # the simulator raised first
            assert _observed(sim) == seen
        else:
            _apply(sim, fired, model, index, op)
        assert fired == model.fired == []
        assert _observed(sim) == model.observed()
    sim.bind_journal(None)
    assert sim.run() == model.run()
    assert fired == model.fired
    assert _observed(sim) == model.observed()


@settings(max_examples=100, deadline=None)
@given(steps=st.lists(st.integers(min_value=0, max_value=1000),
                      min_size=1, max_size=50))
def test_advance_is_additive(steps):
    sim = Simulator()
    for step in steps:
        sim.advance(step)
    assert sim.now == sum(steps)


@settings(max_examples=100, deadline=None)
@given(writes=st.lists(
    st.tuples(st.integers(min_value=0, max_value=kib(8) - 8),
              st.binary(min_size=1, max_size=8)),
    min_size=1, max_size=40))
def test_memory_last_writer_wins(writes):
    ram = PhysicalMemory(kib(8))
    shadow = bytearray(kib(8))
    for paddr, data in writes:
        ram.write(paddr, data)
        shadow[paddr:paddr + len(data)] = data
    assert ram.read(0, kib(8)) == bytes(shadow)


@settings(max_examples=100, deadline=None)
@given(stores=st.lists(
    st.tuples(st.sampled_from([0x100, 0x108, 0x110]),
              st.integers(min_value=0, max_value=255)),
    min_size=1, max_size=20))
def test_write_buffer_drains_every_address_once_when_collapsing(stores):
    wb = WriteBuffer(capacity=16)
    drained = []

    def drain(paddr, value):
        drained.append((paddr, value))
        return 1

    for paddr, value in stores:
        wb.post(paddr, value, drain)
    wb.flush(drain)
    # Each address appears at most once, with its last value.
    seen = {}
    for paddr, value in drained:
        assert paddr not in seen
        seen[paddr] = value
    last = {}
    for paddr, value in stores:
        last[paddr] = value
    assert seen == last


@settings(max_examples=60, deadline=None)
@given(lengths=st.lists(st.integers(min_value=0, max_value=3),
                        min_size=1, max_size=3))
def test_interleaving_count_matches_enumeration(lengths):
    from repro.verify.interleave import (
        AccessSpec,
        enumerate_interleavings,
    )

    streams = [
        [AccessSpec(pid + 1, "store", i * 8, 0) for i in range(n)]
        for pid, n in enumerate(lengths)
    ]
    count = sum(1 for _ in enumerate_interleavings(streams))
    assert count == interleaving_count(lengths)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=1, max_value=50))
def test_frame_allocator_never_hands_out_same_frame_twice(n):
    from repro.hw.memory import FrameAllocator

    alloc = FrameAllocator(0, 64 * PAGE_SIZE)
    frames = set()
    for _ in range(min(n, 64)):
        frame = alloc.alloc_frame()
        assert frame not in frames
        frames.add(frame)
