"""Machine-wide statistics reporting.

Aggregates the counters scattered across one workstation's components —
CPU, TLB, write buffer, bus, DMA engine, atomic unit — into one
dictionary / text table.  Examples and debugging sessions use it to see
what a run actually did ("how many uncached stores?  how many TLB
flushes?  how many initiations were rejected?").
"""

from __future__ import annotations

from typing import Dict

from ..analysis.report import Table
from .machine import Workstation


def machine_stats(ws: Workstation) -> Dict[str, float]:
    """A flat snapshot of every interesting counter on *ws*."""
    stats: Dict[str, float] = {}
    stats.update(ws.cpu.stats.snapshot())
    stats.update(ws.bus.stats.snapshot())
    stats["tlb.hits"] = float(ws.tlb.hits)
    stats["tlb.misses"] = float(ws.tlb.misses)
    stats["tlb.flushes"] = float(ws.tlb.flushes)
    stats["tlb.hit_rate"] = ws.tlb.hit_rate
    stats["wb.stores_posted"] = float(ws.write_buffer.stores_posted)
    stats["wb.stores_collapsed"] = float(
        ws.write_buffer.stores_collapsed)
    stats["wb.loads_forwarded"] = float(ws.write_buffer.loads_forwarded)
    stats["dma.initiations"] = float(ws.engine.initiation_count)
    stats["dma.started"] = float(
        ws.engine.transfer_engine.transfers_started)
    stats["dma.rejected"] = (stats["dma.initiations"]
                             - stats["dma.started"])
    stats["dma.bytes_moved"] = float(
        ws.engine.transfer_engine.bytes_moved)
    stats["dma.protocol_violations"] = float(
        ws.engine.protocol_violations)
    stats["dma.remote_sends"] = float(ws.engine.remote_sends)
    if ws.atomic_unit is not None:
        stats["atomic.operations"] = float(
            ws.atomic_unit.operation_count)
        stats["atomic.key_rejections"] = float(
            ws.atomic_unit.key_rejections)
    return stats


def stats_table(ws: Workstation, title: str = "Machine statistics",
                nonzero_only: bool = True) -> Table:
    """Render :func:`machine_stats` as a text table."""
    table = Table(title, ["counter", "value"])
    for name, value in sorted(machine_stats(ws).items()):
        if nonzero_only and value == 0:
            continue
        rendered = (f"{value:.3f}" if isinstance(value, float)
                    and value != int(value) else f"{int(value)}")
        table.add_row(name, rendered)
    return table
