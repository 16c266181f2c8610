"""Unit tests for the write buffer, including the footnote-6 behaviours."""

import pytest

from repro.errors import ConfigError
from repro.hw.writebuffer import WriteBuffer


def collect_drains(log):
    def drain(paddr, value):
        log.append((paddr, value))
        return 100
    return drain


def test_post_buffers_without_draining():
    wb = WriteBuffer()
    log = []
    wb.post(0x100, 1, collect_drains(log))
    assert log == []
    assert len(wb) == 1


def test_flush_drains_fifo_order():
    wb = WriteBuffer()
    log = []
    drain = collect_drains(log)
    wb.post(1, 10, drain)
    wb.post(2, 20, drain)
    wb.post(3, 30, drain)
    cost = wb.flush(drain)
    assert log == [(1, 10), (2, 20), (3, 30)]
    assert cost == 300
    assert len(wb) == 0


def test_collapsing_merges_same_address():
    wb = WriteBuffer()
    log = []
    drain = collect_drains(log)
    wb.post(0x100, 1, drain)
    wb.post(0x100, 2, drain)  # collapses; device never sees value 1
    wb.flush(drain)
    assert log == [(0x100, 2)]
    assert wb.stores_collapsed == 1


def test_capacity_drains_oldest_to_make_room():
    wb = WriteBuffer(capacity=2)
    log = []
    drain = collect_drains(log)
    wb.post(1, 1, drain)
    wb.post(2, 2, drain)
    cost = wb.post(3, 3, drain)
    assert log == [(1, 1)]
    assert cost == 100
    assert wb.pending_addresses() == [2, 3]


def test_forward_only_in_relaxed_mode():
    strong = WriteBuffer(relaxed=False)
    strong.post(0x100, 42, collect_drains([]))
    assert strong.forward(0x100) is None

    relaxed = WriteBuffer(relaxed=True)
    relaxed.post(0x100, 42, collect_drains([]))
    assert relaxed.forward(0x100) == 42
    assert relaxed.loads_forwarded == 1


def test_forward_misses_other_addresses():
    wb = WriteBuffer(relaxed=True)
    wb.post(0x100, 42, collect_drains([]))
    assert wb.forward(0x200) is None


def test_forward_returns_newest_value():
    wb = WriteBuffer(relaxed=True)
    drain = collect_drains([])
    wb.post(0x100, 1, drain)
    wb.post(0x100, 2, drain)
    assert wb.forward(0x100) == 2


def test_discard_drops_entries_without_draining():
    wb = WriteBuffer()
    log = []
    wb.post(1, 1, collect_drains(log))
    assert wb.discard() == 1
    assert log == []
    assert len(wb) == 0


def test_counters():
    wb = WriteBuffer()
    log = []
    drain = collect_drains(log)
    wb.post(1, 1, drain)
    wb.post(1, 2, drain)
    wb.flush(drain)
    assert wb.stores_posted == 2
    assert wb.stores_collapsed == 1
    assert wb.drains == 1


def test_zero_capacity_rejected():
    with pytest.raises(ConfigError):
        WriteBuffer(capacity=0)


def test_full_property():
    wb = WriteBuffer(capacity=1)
    assert not wb.full
    wb.post(1, 1, collect_drains([]))
    assert wb.full
