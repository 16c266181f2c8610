"""Unit tests for physical memory and the frame allocator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AddressError, MemoryError_
from repro.hw.memory import (
    FrameAllocator,
    PhysicalMemory,
    make_ram_and_allocator,
    ramp,
)
from repro.hw.pagetable import PAGE_SIZE
from repro.units import kib


def test_ram_starts_zeroed():
    ram = PhysicalMemory(kib(64))
    assert ram.read(0, 16) == bytes(16)


def test_write_read_roundtrip():
    ram = PhysicalMemory(kib(64))
    ram.write(100, b"hello")
    assert ram.read(100, 5) == b"hello"


def test_ram_size_must_be_page_multiple():
    with pytest.raises(MemoryError_):
        PhysicalMemory(1000)


def test_out_of_range_read_rejected():
    ram = PhysicalMemory(kib(8))
    with pytest.raises(MemoryError_):
        ram.read(kib(8) - 2, 4)


def test_out_of_range_write_rejected():
    ram = PhysicalMemory(kib(8))
    with pytest.raises(MemoryError_):
        ram.write(kib(8), b"x")


def test_negative_length_rejected():
    ram = PhysicalMemory(kib(8))
    with pytest.raises(AddressError):
        ram.read(0, -1)


def test_fill():
    ram = PhysicalMemory(kib(8))
    ram.fill(10, 5, 0xAB)
    assert ram.read(10, 5) == b"\xab" * 5
    assert ram.read(15, 1) == b"\x00"


def test_fill_rejects_non_byte_value():
    ram = PhysicalMemory(kib(8))
    with pytest.raises(ValueError):
        ram.fill(0, 4, 300)


def test_copy_moves_bytes():
    ram = PhysicalMemory(kib(8))
    ram.write(0, b"abcdef")
    ram.copy(0, 100, 6)
    assert ram.read(100, 6) == b"abcdef"


def test_copy_overlap_safe():
    ram = PhysicalMemory(kib(8))
    ram.write(0, b"abcdef")
    ram.copy(0, 2, 6)
    assert ram.read(2, 6) == b"abcdef"


def test_word_roundtrip():
    ram = PhysicalMemory(kib(8))
    ram.write_word(8, 0xDEADBEEF_CAFEF00D)
    assert ram.read_word(8) == 0xDEADBEEF_CAFEF00D


def test_word_little_endian():
    ram = PhysicalMemory(kib(8))
    ram.write_word(0, 0x01)
    assert ram.read(0, 8) == b"\x01" + bytes(7)


def test_word_masks_to_64_bits():
    ram = PhysicalMemory(kib(8))
    ram.write_word(0, (1 << 70) | 5)
    assert ram.read_word(0) == 5


def test_unaligned_word_rejected():
    ram = PhysicalMemory(kib(8))
    with pytest.raises(AddressError):
        ram.read_word(4)
    with pytest.raises(AddressError):
        ram.write_word(12, 1)


def test_contains():
    ram = PhysicalMemory(kib(8))
    assert ram.contains(0, kib(8))
    assert not ram.contains(0, kib(8) + 1)
    assert not ram.contains(-1)
    assert not ram.contains(0, 0)


class TestFrameAllocator:
    def test_alloc_sequential(self):
        alloc = FrameAllocator(0, 4 * PAGE_SIZE)
        frames = [alloc.alloc_frame() for _ in range(4)]
        assert frames == [0, PAGE_SIZE, 2 * PAGE_SIZE, 3 * PAGE_SIZE]

    def test_exhaustion(self):
        alloc = FrameAllocator(0, PAGE_SIZE)
        alloc.alloc_frame()
        with pytest.raises(MemoryError_):
            alloc.alloc_frame()

    def test_free_and_reuse(self):
        alloc = FrameAllocator(0, 2 * PAGE_SIZE)
        frame = alloc.alloc_frame()
        alloc.free_frame(frame)
        assert alloc.alloc_frame() == frame

    def test_contiguous(self):
        alloc = FrameAllocator(0, 8 * PAGE_SIZE)
        base = alloc.alloc_contiguous(4)
        assert base == 0
        assert alloc.alloc_frame() == 4 * PAGE_SIZE

    def test_contiguous_exhaustion(self):
        alloc = FrameAllocator(0, 2 * PAGE_SIZE)
        with pytest.raises(MemoryError_):
            alloc.alloc_contiguous(3)

    def test_bogus_free_rejected(self):
        alloc = FrameAllocator(0, 2 * PAGE_SIZE)
        alloc.alloc_frame()
        with pytest.raises(MemoryError_):
            alloc.free_frame(123)  # unaligned
        with pytest.raises(MemoryError_):
            alloc.free_frame(100 * PAGE_SIZE)  # out of region

    def test_double_free_detected_by_outstanding_count(self):
        alloc = FrameAllocator(0, 2 * PAGE_SIZE)
        frame = alloc.alloc_frame()
        alloc.free_frame(frame)
        with pytest.raises(MemoryError_):
            alloc.free_frame(frame)

    def test_counters(self):
        alloc = FrameAllocator(PAGE_SIZE, 4 * PAGE_SIZE)
        assert alloc.total_frames == 4
        alloc.alloc_frame()
        alloc.alloc_contiguous(2)
        assert alloc.frames_in_use == 3

    def test_contiguous_frames_left_counts_the_tail(self):
        alloc = FrameAllocator(0, 4 * PAGE_SIZE)
        assert alloc.contiguous_frames_left == 4
        frame = alloc.alloc_frame()
        alloc.alloc_contiguous(2)
        assert alloc.contiguous_frames_left == 1
        # Freed frames go to the free list, which contiguous
        # allocation ignores.
        alloc.free_frame(frame)
        assert alloc.contiguous_frames_left == 1

    def test_reserved_base(self):
        alloc = FrameAllocator(2 * PAGE_SIZE, 2 * PAGE_SIZE)
        assert alloc.alloc_frame() == 2 * PAGE_SIZE

    def test_unaligned_region_rejected(self):
        with pytest.raises(MemoryError_):
            FrameAllocator(100, PAGE_SIZE)


def test_make_ram_and_allocator_reserves():
    ram, alloc = make_ram_and_allocator(4 * PAGE_SIZE,
                                        reserved=PAGE_SIZE)
    assert ram.size == 4 * PAGE_SIZE
    assert alloc.alloc_frame() == PAGE_SIZE


def _reference_ramp(start, step, nbytes):
    """The per-byte generator every test-pattern site used to run."""
    return bytes((start + step * i) % 256 for i in range(nbytes))


@pytest.mark.parametrize("step", (0, 1, 13, 31, 37, 128, 255))
def test_ramp_equals_the_reference_generator(step):
    for start in range(256):
        for nbytes in (0, 1, 255, 256, 257, 8192, 8193):
            assert ramp(start, step, nbytes) == _reference_ramp(
                start, step, nbytes), (start, step, nbytes)


@settings(max_examples=200, deadline=None)
@given(start=st.integers(), step=st.integers(),
       nbytes=st.integers(min_value=-1, max_value=3000))
def test_memoized_ramp_is_the_per_byte_pattern(start, step, nbytes):
    assert ramp(start, step, nbytes) == _reference_ramp(start, step, nbytes)


@settings(max_examples=100, deadline=None)
@given(start=st.integers(), step=st.integers(),
       shift=st.integers(min_value=-8, max_value=8))
def test_ramps_that_agree_mod_256_are_one_object(start, step, shift):
    """Equal patterns are shared, not copied: a service shard's tenants
    hold 256 sources and 256 canaries between them."""
    first = ramp(start, step, 8192)
    assert ramp(start + 256 * shift, step - 256 * shift, 8192) is first
