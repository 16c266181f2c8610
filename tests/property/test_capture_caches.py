"""Captures by reference and identity-keyed caches stay exact.

Journaled protocol state is replaced on write, never mutated in place,
so a per-epoch capture (``snapshot_state``) holds references, not
copies, and fingerprint caches key on what changed: identity for the
replaced tables, length for the append-only ``completed_*`` logs (cut
back when an undo truncates a log), and per register context for the
engine.  Two things must then hold along any walk of the checker's
kind — deliver under a mark, undo, deliver something else:

* the harness fingerprint equals that of a freshly built harness that
  delivered the same prefix, computed without any cache;
* every blob ``snapshot_state`` returned still equals the deep copy
  taken when it was captured, whatever was delivered since.

A cache kept past an undo is caught when an undo shortens a log and a
different start grows it back to the same length.  The second walk
fills its epochs as the checker does: several deliveries under one
edge (a forced tail), and more after an undo in the outer edge, which
only that edge's entry (the clock and the engine's scalars) covers.
"""

from __future__ import annotations

import copy
from typing import List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.property.test_journal_snapshots import (
    make_method_harness,
    method_streams,
)

from repro.core.methods import METHODS
from repro.verify.interleave import AccessSpec

#: Walk length: enough to run both two-process streams to completion
#: several times over, with undos between.
MAX_STEPS = 40


def fresh_fingerprint(method: str, delivered: List[AccessSpec]):
    """The fingerprint of a new, never-journaled harness fed *delivered*."""
    harness = make_method_harness(method)
    for access in delivered:
        harness.deliver(access)
    return harness.fingerprint()


@settings(max_examples=150, deadline=None)
@given(method=st.sampled_from(sorted(METHODS)), data=st.data())
def test_cached_fingerprints_and_captured_blobs_stay_exact(method, data):
    streams = method_streams(method)
    harness = make_method_harness(method)
    positions = [0] * len(streams)
    delivered: List[AccessSpec] = []
    marks: List[Tuple[int, int, List[int]]] = []
    blobs: List[Tuple[object, object]] = []
    for _ in range(MAX_STEPS):
        live = [i for i, stream in enumerate(streams)
                if positions[i] < len(stream)]
        if live and (not marks or data.draw(st.booleans())):
            index = data.draw(st.sampled_from(live))
            marks.append((harness.snapshot(), len(delivered),
                          list(positions)))
            access = streams[index][positions[index]]
            harness.deliver(access)
            delivered.append(access)
            positions[index] += 1
            blob = harness.protocol.snapshot_state()
            blobs.append((blob, copy.deepcopy(blob)))
        elif marks:
            token, depth, positions = marks.pop()
            harness.restore(token)
            del delivered[depth:]
        else:
            break
        fingerprint = harness.fingerprint()
        expected = fresh_fingerprint(method, delivered)
        if fingerprint is not None and expected is not None:
            assert fingerprint == expected
        for blob, at_capture in blobs:
            assert blob == at_capture


@settings(max_examples=100, deadline=None)
@given(method=st.sampled_from(sorted(METHODS)), data=st.data())
def test_caches_stay_exact_across_nested_edges(method, data):
    """The same exactness with edges nested, several deliveries per
    epoch, and deliveries after an undo in the outer epoch."""
    streams = method_streams(method)
    harness = make_method_harness(method)
    harness.bind_journal()
    positions = [0] * len(streams)
    delivered: List[AccessSpec] = []
    marks: List[Tuple[int, int, List[int]]] = []
    blobs: List[Tuple[object, object]] = []
    for _ in range(MAX_STEPS):
        live = [i for i, stream in enumerate(streams)
                if positions[i] < len(stream)]
        if not (live or marks):
            break
        step = data.draw(st.sampled_from(
            (["edge", "deliver"] if live else [])
            + (["undo"] if marks else [])))
        if step == "undo":
            token, depth, positions = marks.pop()
            harness.restore(token)
            del delivered[depth:]
        else:
            if step == "edge":
                marks.append((harness.snapshot(), len(delivered),
                              list(positions)))
            for _ in range(data.draw(st.integers(1, 3))):
                live = [i for i, stream in enumerate(streams)
                        if positions[i] < len(stream)]
                if not live:
                    break
                index = data.draw(st.sampled_from(live))
                access = streams[index][positions[index]]
                harness.deliver(access)
                delivered.append(access)
                positions[index] += 1
                blob = harness.protocol.snapshot_state()
                blobs.append((blob, copy.deepcopy(blob)))
        fresh = make_method_harness(method)
        for access in delivered:
            fresh.deliver(access)
        assert harness.fingerprint() == fresh.fingerprint()
        for blob, at_capture in blobs:
            assert blob == at_capture
