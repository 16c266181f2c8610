"""Tests for the machine-statistics report."""

from tests.conftest import ready_channel

from repro.core.report import machine_stats, stats_table


def run_some_dmas():
    ws, proc, src, dst, chan = ready_channel("keyed")
    for index in range(3):
        chan.dma(src.vaddr + index * 64, dst.vaddr + index * 64, 64)
    return ws


def test_snapshot_counts_activity():
    ws = run_some_dmas()
    stats = machine_stats(ws)
    assert stats["dma.initiations"] == 3
    assert stats["dma.started"] == 3
    assert stats["dma.rejected"] == 0
    assert stats["dma.bytes_moved"] == 192
    assert stats["cpu0.instructions"] > 10
    assert stats["wb.stores_posted"] >= 9  # 3 stores per initiation


def test_tlb_counters_present():
    ws = run_some_dmas()
    stats = machine_stats(ws)
    assert stats["tlb.hits"] > 0
    assert 0 <= stats["tlb.hit_rate"] <= 1


def test_rejections_counted():
    ws, proc, src, dst, chan = ready_channel("keyed")
    chan.initiate(src.vaddr, dst.vaddr, 1 << 30)  # too big -> rejected
    stats = machine_stats(ws)
    assert stats["dma.rejected"] == 1


def test_dma_counts_outlive_an_engine_reset():
    """A power-on reset scrubs the initiation records, not their
    count: the started count is the transfer engine's, which a reset
    keeps, so the rejected count never goes negative."""
    ws, proc, src, dst, chan = ready_channel("keyed")
    chan.initiate(src.vaddr, dst.vaddr, 1 << 30)  # too big -> rejected
    assert chan.dma(src.vaddr, dst.vaddr, 64).ok
    ws.engine.reset()
    assert ws.engine.initiations == []
    stats = machine_stats(ws)
    assert (stats["dma.initiations"], stats["dma.started"],
            stats["dma.rejected"]) == (2, 1, 1)


def test_atomic_counters_only_with_unit():
    ws = run_some_dmas()
    assert "atomic.operations" not in machine_stats(ws)
    ws2, *_ = ready_channel("keyed", atomic_mode="keyed")
    assert "atomic.operations" in machine_stats(ws2)


def test_table_rendering():
    ws = run_some_dmas()
    text = stats_table(ws).render()
    assert "dma.initiations" in text
    assert "Machine statistics" in text


def test_nonzero_filter():
    ws, *_ = ready_channel("keyed")
    full = stats_table(ws, nonzero_only=False).render()
    filtered = stats_table(ws, nonzero_only=True).render()
    assert len(full) > len(filtered)
