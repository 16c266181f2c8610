"""Unit tests for the DMA engine device: windows, privileges, records."""

from types import SimpleNamespace

import pytest

from tests.conftest import drop_fingerprint_caches

from repro.errors import ConfigError, DeviceError
from repro.hw.device import AccessContext
from repro.hw.dma.engine import (
    DmaEngine,
    REG_ABORT,
    REG_CURRENT_PID,
    REG_DESTINATION,
    REG_MAPOUT_DST,
    REG_MAPOUT_SRC,
    REG_SIZE,
    REG_SOURCE,
    REG_STATUS,
)
from repro.hw.dma.protocols.keyed import (
    ARG_DESTINATION,
    ARG_SOURCE,
    KeyedProtocol,
    pack_key_word,
)
from repro.hw.dma.protocols.shrimp2 import PendingPairProtocol
from repro.hw.dma.status import STATUS_FAILURE
from repro.hw.memory import PhysicalMemory
from repro.hw.pagetable import PAGE_SIZE
from repro.sim.engine import Simulator
from repro.units import kib

USER = AccessContext(issuer=1, kernel=False, when=0)
KERNEL = AccessContext(issuer=None, kernel=True, when=0)


def make_engine():
    sim = Simulator()
    ram = PhysicalMemory(kib(64))
    engine = DmaEngine(sim, ram, PendingPairProtocol())
    return sim, ram, engine


def control(engine, reg):
    return engine.layout.control_page_offset + reg


def key_page(engine, ctx_id):
    return engine.layout.key_page_offset + ctx_id * 8


def test_kernel_register_dma_fig1_sequence():
    sim, ram, engine = make_engine()
    ram.write(0x100, b"kernel dma")
    engine.mmio_write(control(engine, REG_SOURCE), 0x100, KERNEL)
    engine.mmio_write(control(engine, REG_DESTINATION), 0x800, KERNEL)
    engine.mmio_write(control(engine, REG_SIZE), 10, KERNEL)
    status = engine.mmio_read(control(engine, REG_STATUS), KERNEL)
    assert status != STATUS_FAILURE
    sim.run()
    assert ram.read(0x800, 10) == b"kernel dma"
    assert engine.initiations[-1].via == "kernel"


def test_kernel_dma_bad_range_rejected():
    _, _, engine = make_engine()
    engine.mmio_write(control(engine, REG_SOURCE), 1 << 30, KERNEL)
    engine.mmio_write(control(engine, REG_DESTINATION), 0, KERNEL)
    engine.mmio_write(control(engine, REG_SIZE), 8, KERNEL)
    status = engine.mmio_read(control(engine, REG_STATUS), KERNEL)
    assert status == STATUS_FAILURE
    assert not engine.initiations[-1].ok


def test_control_page_ignores_user_accesses():
    _, _, engine = make_engine()
    engine.mmio_write(control(engine, REG_SOURCE), 0x100, USER)
    assert engine.mmio_read(control(engine, REG_SOURCE), KERNEL) == 0
    assert engine.protocol_violations == 1
    assert engine.mmio_read(control(engine, REG_STATUS), USER) == (
        STATUS_FAILURE)


def test_key_table_kernel_only():
    _, _, engine = make_engine()
    engine.mmio_write(key_page(engine, 2), 0xABC, KERNEL)
    assert engine.key_table[2] == 0xABC
    assert engine.mmio_read(key_page(engine, 2), KERNEL) == 0xABC
    # User writes are dropped, user reads denied.
    engine.mmio_write(key_page(engine, 2), 0x666, USER)
    assert engine.key_table[2] == 0xABC
    assert engine.mmio_read(key_page(engine, 2), USER) == STATUS_FAILURE


def test_current_pid_register_forwards_to_protocol():
    _, _, engine = make_engine()
    engine.mmio_write(control(engine, REG_CURRENT_PID), 42, KERNEL)
    assert engine.current_pid == 42
    assert engine.mmio_read(control(engine, REG_CURRENT_PID), KERNEL) == 42


def test_abort_register_clears_pending():
    _, _, engine = make_engine()
    shadow = engine.layout.shadow_offset + 0x800
    engine.mmio_write(shadow, 64, USER)  # latch a pending pair
    assert engine.protocol.pending is not None
    engine.mmio_write(control(engine, REG_ABORT), 1, KERNEL)
    assert engine.protocol.pending is None
    assert engine.protocol.aborts == 1


def test_mapout_registers_install_entry():
    _, _, engine = make_engine()
    engine.mmio_write(control(engine, REG_MAPOUT_SRC), 0x2000, KERNEL)
    engine.mmio_write(control(engine, REG_MAPOUT_DST), 0x6000, KERNEL)
    assert engine.mapout_destination(0x2000 + 12) == 0x6000 + 12


def test_mapout_dst_without_src_raises():
    _, _, engine = make_engine()
    with pytest.raises(DeviceError):
        engine.mmio_write(control(engine, REG_MAPOUT_DST), 0x6000, KERNEL)


def test_try_start_validates_endpoints():
    _, _, engine = make_engine()
    assert engine.try_start(0, 1 << 35, 64) == STATUS_FAILURE
    assert engine.try_start(1 << 35, 0, 64) == STATUS_FAILURE
    assert engine.try_start(0, 256, 0) == STATUS_FAILURE
    assert engine.try_start(0, 256, 64) != STATUS_FAILURE


def test_try_start_records_context_status():
    sim, _, engine = make_engine()
    ctx = engine.contexts[0]
    status = engine.try_start(0, 256, 64, ctx=ctx, issuer=9)
    assert status == 64
    assert ctx.transfer is not None
    sim.run()
    assert ctx.status_word(sim.now) == 0  # complete


def test_failed_start_sets_context_failed():
    _, _, engine = make_engine()
    ctx = engine.contexts[1]
    engine.try_start(0, 1 << 35, 64, ctx=ctx)
    assert ctx.failed
    assert ctx.status_word(0) == STATUS_FAILURE


def test_started_transfers_filtering():
    _, _, engine = make_engine()
    engine.try_start(0, 256, 64)
    engine.try_start(0, 1 << 35, 64)
    assert len(engine.initiations) == 2
    assert len(engine.started_transfers()) == 1


def test_assign_and_release_context():
    _, _, engine = make_engine()
    ctx = engine.assign_context(2, pid=7)
    engine.install_key(2, 0x123)
    assert ctx.owner_pid == 7
    engine.release_context(2)
    assert engine.contexts[2].owner_pid is None
    assert 2 not in engine.key_table


def test_bad_context_ids_rejected():
    _, _, engine = make_engine()
    with pytest.raises(ConfigError):
        engine.assign_context(99, 1)
    with pytest.raises(ConfigError):
        engine.install_key(-1, 5)


def test_reset_scrubs_everything():
    _, _, engine = make_engine()
    engine.install_key(0, 0x42)
    engine.install_mapout(0x2000, 0x6000)
    engine.try_start(0, 256, 64)
    engine.mmio_write(control(engine, REG_CURRENT_PID), 5, KERNEL)
    engine.reset()
    assert engine.key_table == {}
    assert engine.mapout_table == {}
    assert engine.initiations == []
    assert engine.current_pid == -1


def test_ram_too_large_for_shadow_field_rejected():
    from repro.hw.dma.shadow import ShadowLayout

    sim = Simulator()
    ram = PhysicalMemory(1 << 20)
    tiny = ShadowLayout(ctx_shift=16, shadow_offset=1 << 36)
    with pytest.raises(ConfigError):
        DmaEngine(sim, ram, PendingPairProtocol(), layout=tiny)


def test_unmapped_offset_raises():
    _, _, engine = make_engine()
    bogus = engine.layout.control_page_offset + PAGE_SIZE
    with pytest.raises(DeviceError):
        engine.mmio_read(bogus, KERNEL)


def test_exchange_outside_shadow_rejected():
    _, _, engine = make_engine()
    with pytest.raises(DeviceError):
        engine.mmio_exchange(0, 1, USER)


def test_unjournaled_fingerprint_equals_a_cold_one():
    """An engine with no journal skips its context captures, so its
    fingerprint must not serve the contexts' part from a cache: after
    every context-page write, keyed argument store, start and context
    assignment it equals the fingerprint recomputed with every cache
    dropped."""
    sim = Simulator()
    ram = PhysicalMemory(kib(64))
    engine = DmaEngine(sim, ram, KeyedProtocol())
    stack = SimpleNamespace(engine=engine, sim=sim, protocol=engine.protocol)
    key = 0x5EC2E7
    engine.install_key(0, key)
    layout = engine.layout

    def shadow(paddr):
        return layout.shadow_offset + paddr

    steps = [
        lambda: engine.assign_context(0, 1),
        lambda: engine.mmio_write(
            shadow(0x2000), pack_key_word(key, 0, ARG_DESTINATION), USER),
        lambda: engine.mmio_write(
            shadow(0x1000), pack_key_word(key, 0, ARG_SOURCE), USER),
        lambda: engine.mmio_write(0, 256, USER),  # context 0's size
        lambda: engine.mmio_read(0, USER),  # starts the transfer
        lambda: engine.mmio_write(0, 512, USER),
        lambda: engine.assign_context(0, 2),
        lambda: engine.release_context(0),
    ]
    engine.fingerprint()
    for step in steps:
        step()
        cached = engine.fingerprint()
        drop_fingerprint_caches(stack)
        assert cached == engine.fingerprint()
    assert engine.transfer_engine.transfers_started == 1
