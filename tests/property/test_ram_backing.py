"""Both RAM backings behave as one plain byte string.

A RAM of at least ``LAZY_ZERO_MIN_BYTES`` is a private anonymous
``mmap``; a smaller one is a ``bytearray``.  Random sequences of every
mutating and reading operation, journal marks and undos included, must
leave either backing holding exactly the bytes a ``bytearray`` model
holds.
"""

import mmap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MemoryError_
from repro.hw.memory import LAZY_ZERO_MIN_BYTES, PhysicalMemory, ramp
from repro.hw.pagetable import PAGE_SIZE
from repro.sim.journal import UndoJournal
from repro.units import kib

SIZES = {"mmap": LAZY_ZERO_MIN_BYTES, "bytearray": kib(64)}

#: Where an operation lands: one of three four-page windows (the first
#: pages, a window straddling the middle, the last pages) and an offset
#: into it, so operations keep overlapping each other and page
#: boundaries on a RAM of any size.
_where = st.tuples(st.sampled_from(("low", "mid", "high")),
                   st.integers(min_value=0, max_value=4 * PAGE_SIZE))
_length = st.one_of(st.integers(min_value=0, max_value=64),
                    st.integers(min_value=PAGE_SIZE - 8,
                                max_value=2 * PAGE_SIZE + 8))
_ops = st.lists(st.one_of(
    st.tuples(st.just("read"), _where, _length),
    st.tuples(st.just("write"), _where,
              st.binary(min_size=0, max_size=PAGE_SIZE + 16)),
    st.tuples(st.just("fill"), _where, _length,
              st.integers(min_value=0, max_value=255)),
    st.tuples(st.just("copy"), _where, _where, _length),
    st.tuples(st.just("read_word"), _where),
    st.tuples(st.just("write_word"), _where,
              st.integers(min_value=0, max_value=(1 << 64) - 1)),
    st.tuples(st.just("mark")),
    st.tuples(st.just("undo")),
), min_size=1, max_size=25)


def _offset(where, size, nbytes=0):
    """The start *where* names, clamped so [start, start+nbytes) fits."""
    window, offset = where
    base = {"low": 0, "mid": size // 2 - 2 * PAGE_SIZE,
            "high": size - 4 * PAGE_SIZE}[window]
    return min(base + offset, size - nbytes)


def _nothing(_: object) -> None:
    """Undo of a mark entry that captured nothing."""


def _apply(ram, model, journal, marks, op):
    kind = op[0]
    size = ram.size
    if kind == "read":
        nbytes = min(op[2], size)
        paddr = _offset(op[1], size, nbytes)
        assert ram.read(paddr, nbytes) == bytes(model[paddr:paddr + nbytes])
    elif kind == "write":
        data = op[2]
        paddr = _offset(op[1], size, len(data))
        ram.write(paddr, data)
        model[paddr:paddr + len(data)] = data
    elif kind == "fill":
        nbytes = min(op[2], size)
        paddr = _offset(op[1], size, nbytes)
        ram.fill(paddr, nbytes, op[3])
        model[paddr:paddr + nbytes] = bytes([op[3]]) * nbytes
    elif kind == "copy":
        nbytes = min(op[3], size)
        src = _offset(op[1], size, nbytes)
        dst = _offset(op[2], size, nbytes)
        ram.copy(src, dst, nbytes)
        model[dst:dst + nbytes] = model[src:src + nbytes]
    elif kind == "read_word":
        paddr = _offset(op[1], size, 8) & ~7
        assert ram.read_word(paddr) == int.from_bytes(
            model[paddr:paddr + 8], "little")
    elif kind == "write_word":
        paddr = _offset(op[1], size, 8) & ~7
        ram.write_word(paddr, op[2])
        model[paddr:paddr + 8] = op[2].to_bytes(8, "little")
    elif kind == "mark":
        # RAM captures its pages where they are written; the mark's own
        # entry has nothing to restore.
        marks.append((journal.mark(_nothing, None), bytes(model)))
    elif kind == "undo" and marks:
        token, saved = marks.pop()
        journal.undo_to(token)
        model[:] = saved


@pytest.mark.parametrize("backing", sorted(SIZES))
def test_backing_is_chosen_by_size(backing):
    ram = PhysicalMemory(SIZES[backing])
    expected = mmap.mmap if backing == "mmap" else bytearray
    assert type(ram._data) is expected
    assert ram.read(0, ram.size) == bytes(ram.size)
    with pytest.raises(MemoryError_):
        ram.read(ram.size - 4, 8)
    with pytest.raises(MemoryError_):
        ram.write(ram.size - 4, bytes(8))


@pytest.mark.parametrize("backing", sorted(SIZES))
@settings(max_examples=60, deadline=None)
@given(ops=_ops, journaled=st.booleans())
def test_random_operations_match_a_bytes_model(backing, ops, journaled):
    ram = PhysicalMemory(SIZES[backing])
    model = bytearray(ram.size)
    # A pattern in the low and middle windows, so that moving any byte
    # wrongly shows; the high window starts as untouched zero pages.
    for window in ("low", "mid"):
        base = _offset((window, 0), ram.size)
        pattern = ramp(base // PAGE_SIZE, 7, 4 * PAGE_SIZE)
        ram.write(base, pattern)
        model[base:base + len(pattern)] = pattern
    journal = UndoJournal()
    if journaled:
        ram.bind_journal(journal)
    marks = []
    for op in ops:
        if op[0] in ("mark", "undo") and not journaled:
            continue
        _apply(ram, model, journal, marks, op)
        assert ram.read(0, ram.size) == bytes(model)
    if journaled:
        # Undoing to the first mark restores the bytes it saw.
        if marks:
            token, saved = marks[0]
            journal.undo_to(token)
            assert ram.read(0, ram.size) == saved
