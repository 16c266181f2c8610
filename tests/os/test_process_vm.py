"""Unit tests for processes and the virtual-memory manager."""

import pytest

from repro.errors import KernelError, PageFault, ProtectionFault
from repro.hw.isa import Halt, assemble
from repro.hw.memory import FrameAllocator
from repro.hw.pagetable import PAGE_SIZE, Perm
from repro.os.process import (
    ATOMIC_OP_STRIDE,
    ATOMIC_VOFFSET,
    Process,
    SHADOW_VOFFSET,
    USER_BASE,
    atomic_shadow_vaddr,
    shadow_vaddr,
)
from repro.os.vm import VirtualMemoryManager


def make_vmm(pages=32):
    return VirtualMemoryManager(FrameAllocator(0, pages * PAGE_SIZE))


class TestProcess:
    def test_vranges_do_not_overlap(self):
        proc = Process(1)
        a = proc.take_vrange(2 * PAGE_SIZE)
        b = proc.take_vrange(PAGE_SIZE)
        assert a == USER_BASE
        assert b == a + 2 * PAGE_SIZE

    def test_vrange_rejects_partial_pages(self):
        with pytest.raises(KernelError):
            Process(1).take_vrange(100)

    def test_new_thread_bound_to_process(self):
        proc = Process(7, "w")
        thread = proc.new_thread(assemble([Halt()]))
        assert thread.pid == 7
        assert thread.page_table is proc.page_table

    def test_bindings_raise_until_granted(self):
        proc = Process(1)
        with pytest.raises(KernelError):
            _ = proc.dma_binding
        with pytest.raises(KernelError):
            _ = proc.atomic_binding

    def test_buffer_lookup(self):
        vmm = make_vmm()
        proc = Process(1)
        buffer = vmm.alloc_buffer(proc, PAGE_SIZE)
        assert proc.buffer_at(buffer.vaddr) is buffer
        assert proc.buffer_at(buffer.vaddr + buffer.size - 1) is buffer
        assert proc.buffer_at(buffer.vaddr + buffer.size) is None


class TestShadowVaddrs:
    def test_shadow_offset_constant(self):
        assert shadow_vaddr(0x10000) == 0x10000 + SHADOW_VOFFSET

    def test_atomic_shadow_by_op(self):
        base = atomic_shadow_vaddr(0, 0x10000)
        assert base == 0x10000 + ATOMIC_VOFFSET
        assert (atomic_shadow_vaddr(2, 0x10000) - base
                == 2 * ATOMIC_OP_STRIDE)

    def test_regions_do_not_collide(self):
        data = USER_BASE
        assert shadow_vaddr(data) != atomic_shadow_vaddr(0, data)
        spans = sorted([data, shadow_vaddr(data),
                        atomic_shadow_vaddr(0, data),
                        atomic_shadow_vaddr(3, data)])
        assert len(set(spans)) == 4


class TestVmm:
    def test_alloc_buffer_maps_and_records(self):
        vmm = make_vmm()
        proc = Process(1)
        buffer = vmm.alloc_buffer(proc, 3 * PAGE_SIZE)
        assert buffer.size == 3 * PAGE_SIZE
        paddr = proc.page_table.translate(buffer.vaddr, "write")
        assert paddr == buffer.paddr
        assert proc.buffers == [buffer]

    def test_alloc_rounds_up_to_pages(self):
        vmm = make_vmm()
        buffer = vmm.alloc_buffer(Process(1), 100)
        assert buffer.size == PAGE_SIZE

    def test_alloc_is_physically_contiguous(self):
        vmm = make_vmm()
        proc = Process(1)
        buffer = vmm.alloc_buffer(proc, 4 * PAGE_SIZE)
        for offset in range(0, buffer.size, PAGE_SIZE):
            assert proc.page_table.translate(
                buffer.vaddr + offset, "read") == buffer.paddr + offset

    def test_alloc_rejects_nonpositive(self):
        with pytest.raises(KernelError):
            make_vmm().alloc_buffer(Process(1), 0)

    def test_map_shadow_mirrors_permissions(self):
        vmm = make_vmm()
        proc = Process(1)
        buffer = vmm.alloc_buffer(proc, PAGE_SIZE, Perm.READ)
        vmm.map_shadow(proc, buffer, lambda p: (1 << 40) + p)
        shadow = shadow_vaddr(buffer.vaddr)
        assert proc.page_table.translate(shadow, "read") == (
            (1 << 40) + buffer.paddr)
        with pytest.raises(ProtectionFault):
            proc.page_table.translate(shadow, "write")

    def test_shadow_pages_are_uncached(self):
        vmm = make_vmm()
        proc = Process(1)
        buffer = vmm.alloc_buffer(proc, PAGE_SIZE)
        vmm.map_shadow(proc, buffer, lambda p: (1 << 40) + p)
        pte = proc.page_table.lookup(shadow_vaddr(buffer.vaddr))
        assert pte.uncached

    def test_double_shadow_rejected(self):
        vmm = make_vmm()
        proc = Process(1)
        buffer = vmm.alloc_buffer(proc, PAGE_SIZE)
        vmm.map_shadow(proc, buffer, lambda p: (1 << 40) + p)
        with pytest.raises(KernelError):
            vmm.map_shadow(proc, buffer, lambda p: (1 << 40) + p)

    def test_map_device_page(self):
        vmm = make_vmm()
        proc = Process(1)
        vmm.map_device_page(proc, 0x80000, (1 << 40))
        assert proc.page_table.translate(0x80000, "write") == 1 << 40

    def test_unmapped_data_faults(self):
        proc = Process(1)
        with pytest.raises(PageFault):
            proc.page_table.translate(USER_BASE, "read")
