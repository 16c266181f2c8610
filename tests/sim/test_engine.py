"""Unit tests for the discrete-event engine."""

import pytest

from tests.conftest import mark_clock

from repro.errors import SimulationError
from repro.sim.engine import Simulator
from repro.sim.journal import UndoJournal


def test_initial_time_is_zero():
    assert Simulator().now == 0


def test_schedule_and_step_fires_in_order():
    sim = Simulator()
    fired = []
    sim.schedule(30, lambda: fired.append("c"))
    sim.schedule(10, lambda: fired.append("a"))
    sim.schedule(20, lambda: fired.append("b"))
    while sim.step():
        pass
    assert fired == ["a", "b", "c"]
    assert sim.now == 30


def test_same_time_events_fire_in_insertion_order():
    sim = Simulator()
    fired = []
    for label in "abcde":
        sim.schedule(5, lambda lab=label: fired.append(lab))
    sim.run()
    assert fired == list("abcde")


def test_advance_moves_clock():
    sim = Simulator()
    sim.advance(1234)
    assert sim.now == 1234


def test_advance_fires_due_events():
    sim = Simulator()
    fired = []
    sim.schedule(50, lambda: fired.append(sim.now))
    sim.advance(100)
    assert fired == [50]
    assert sim.now == 100


def test_advance_does_not_fire_future_events():
    sim = Simulator()
    fired = []
    sim.schedule(200, lambda: fired.append(True))
    sim.advance(100)
    assert fired == []
    assert sim.pending == 1


def test_negative_advance_rejected():
    with pytest.raises(SimulationError):
        Simulator().advance(-1)


def test_negative_delay_rejected():
    with pytest.raises(SimulationError):
        Simulator().schedule(-5, lambda: None)


def test_call_at_before_now_rejected():
    sim = Simulator()
    sim.advance(100)
    with pytest.raises(SimulationError):
        sim.call_at(50, lambda: None)


def test_run_until_deadline_leaves_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(10, lambda: fired.append(10))
    sim.schedule(1000, lambda: fired.append(1000))
    sim.run_until(500)
    assert fired == [10]
    assert sim.now == 500
    assert sim.pending == 1


def test_events_scheduled_during_run_fire():
    sim = Simulator()
    fired = []

    def chain():
        fired.append(sim.now)
        if len(fired) < 3:
            sim.schedule(10, chain)

    sim.schedule(10, chain)
    sim.run()
    assert fired == [10, 20, 30]


def test_wait_for_predicate_satisfied_by_event():
    sim = Simulator()
    box = {"ready": False}
    sim.schedule(100, lambda: box.update(ready=True))
    assert sim.wait_for(lambda: box["ready"])
    assert sim.now == 100


def test_wait_for_timeout_returns_false():
    sim = Simulator()
    sim.schedule(10_000, lambda: None)
    assert not sim.wait_for(lambda: False, timeout=100)
    assert sim.now == 100


def test_wait_for_immediately_true_does_not_advance():
    sim = Simulator()
    sim.schedule(10, lambda: None)
    assert sim.wait_for(lambda: True)
    assert sim.now == 0


def test_events_fired_counter():
    sim = Simulator()
    for _ in range(4):
        sim.schedule(1, lambda: None)
    sim.run()
    assert sim.events_fired == 4


# -- far-future events --------------------------------------------------

#: About 17 ms: far beyond anything the machine schedules.
FAR = 1 << 34


def test_far_future_events_fire_in_order():
    """Far events interleave with near ones by timestamp."""
    sim = Simulator()
    fired = []
    sim.call_at(FAR * 3 + 17, lambda: fired.append("far2"))
    sim.call_at(FAR + 5, lambda: fired.append("far1"))
    sim.call_at(10, lambda: fired.append("near"))
    sim.run()
    assert fired == ["near", "far1", "far2"]
    assert sim.now == FAR * 3 + 17


def test_same_time_insertion_order_across_horizon():
    """Same-timestamp far events keep insertion order once the clock
    has advanced up to them."""
    sim = Simulator()
    fired = []
    for label in "abc":
        sim.call_at(FAR + 123, lambda lab=label: fired.append(lab))
    sim.advance(FAR)
    sim.run()
    assert fired == ["a", "b", "c"]


def test_live_event_signature_tracks_wheel_and_far():
    """The signature lists near and far events sorted, and shrinks as
    they fire."""
    sim = Simulator()
    sim.call_at(FAR + 1, lambda: None, label="far")
    sim.schedule(10, lambda: None, label="near")
    assert sim.live_event_signature() == ((10, "near"), (FAR + 1, "far"))
    sim.step()
    assert sim.live_event_signature() == ((FAR + 1, "far"),)
    sim.step()
    assert sim.live_event_signature() == ()


# -- journal mark/undo -----------------------------------------------------


def test_journal_mark_undo_roundtrip():
    sim = Simulator()
    journal = UndoJournal()
    sim.bind_journal(journal)
    fired = []
    sim.schedule(10, lambda: fired.append("a"))
    sim.advance(5)
    mark = mark_clock(journal, sim)
    sim.schedule(30, lambda: fired.append("b"))
    sim.run()
    assert fired == ["a", "b"]
    journal.undo_to(mark)
    assert (sim.now, sim.pending, sim.events_fired) == (5, 1, 0)
    fired.clear()
    sim.run()
    assert fired == ["a"]


def test_journal_nested_marks_undo_in_stack_order():
    sim = Simulator()
    journal = UndoJournal()
    sim.bind_journal(journal)
    sim.advance(1)
    outer = mark_clock(journal, sim)
    sim.advance(10)
    inner = mark_clock(journal, sim)
    sim.schedule(100, lambda: None)
    sim.advance(5)
    journal.undo_to(inner)
    assert (sim.now, sim.pending) == (11, 0)
    journal.undo_to(outer)
    assert (sim.now, sim.pending) == (1, 0)


def test_journal_undo_restores_a_far_event_fired_after_the_mark():
    """Undo puts back a far event that fired after the mark, and it
    fires again, even though the clock ran far past it."""
    sim = Simulator()
    journal = UndoJournal()
    sim.bind_journal(journal)
    fired = []
    sim.call_at(FAR + 5, lambda: fired.append("far"))
    mark = mark_clock(journal, sim)
    sim.advance(FAR + 10)
    sim.schedule(1, lambda: fired.append("next"))
    sim.run()
    assert fired == ["far", "next"]
    journal.undo_to(mark)
    assert (sim.now, sim.pending, sim.events_fired) == (0, 1, 0)
    assert sim.live_event_signature() == ((FAR + 5, ""),)
    fired.clear()
    assert sim.run() == 1
    assert fired == ["far"]
