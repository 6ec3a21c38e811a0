"""Unit tests for the simulated memory and allocators."""

import pytest

from repro.lang.errors import MemoryFault
from repro.sim.memory import (
    GLOBAL_BASE,
    HEAP_BASE,
    STACK_TOP,
    BumpAllocator,
    Memory,
    StackAllocator,
)


class TestMemory:
    def test_read_back_bytes(self):
        memory = Memory()
        memory.write_bytes(0x1000, b"hello")
        assert memory.read_bytes(0x1000, 5) == b"hello"

    def test_unwritten_memory_is_zero(self):
        memory = Memory()
        assert memory.read_bytes(0x5000, 8) == bytes(8)

    def test_cross_page_write(self):
        memory = Memory()
        addr = 0x1FFC  # last 4 bytes of a page
        memory.write_bytes(addr, b"abcdefgh")
        assert memory.read_bytes(addr, 8) == b"abcdefgh"

    def test_int_roundtrip_signed(self):
        memory = Memory()
        memory.write_int(0x100, -5, 4)
        assert memory.read_int(0x100, 4, signed=True) == -5
        assert memory.read_int(0x100, 4, signed=False) == 2**32 - 5

    def test_int_sizes(self):
        memory = Memory()
        for size, value in [(1, -2), (2, -300), (4, -70000), (8, -2**40)]:
            memory.write_int(0x200, value, size)
            assert memory.read_int(0x200, size, signed=True) == value

    def test_little_endian(self):
        memory = Memory()
        memory.write_int(0x300, 0x01020304, 4)
        assert memory.read_bytes(0x300, 4) == bytes([4, 3, 2, 1])

    def test_float_roundtrip(self):
        memory = Memory()
        memory.write_float(0x400, 3.25, 8)
        assert memory.read_float(0x400, 8) == 3.25

    def test_float32_precision(self):
        memory = Memory()
        memory.write_float(0x500, 1.1, 4)
        assert memory.read_float(0x500, 4) == pytest.approx(1.1, rel=1e-6)

    def test_float32_overflow_becomes_inf(self):
        memory = Memory()
        memory.write_float(0x600, 1e300, 4)
        assert memory.read_float(0x600, 4) == float("inf")

    def test_cstring(self):
        memory = Memory()
        memory.write_bytes(0x700, b"abc\0def")
        assert memory.read_cstring(0x700) == "abc"

    def test_negative_address_faults(self):
        memory = Memory()
        with pytest.raises(MemoryFault):
            memory.read_bytes(-4, 4)

    def test_cstring_stops_at_limit(self):
        memory = Memory()
        memory.write_bytes(0xFFE, b"abcdef\0")
        assert memory.read_cstring(0xFFE) == "abcdef"
        assert memory.read_cstring(0xFFE, 6) is None
        assert memory.read_cstring(0xFFE, 7) == "abcdef"

    @pytest.mark.parametrize("gap", range(-9, 10))
    def test_copy_matches_forward_word_loop(self, gap):
        # Overlapping copies across a page boundary: the result is the
        # one a forward loop of 4-byte word copies leaves behind.
        src = 0xFF0
        pattern = bytes(range(1, 61))
        for count in range(0, 30):
            expected, memory = Memory(), Memory()
            expected.write_bytes(src - 12, pattern)
            memory.write_bytes(src - 12, pattern)
            for offset in range(0, count, 4):
                chunk = min(4, count - offset)
                word = expected.read_bytes(src + offset, chunk)
                expected.write_bytes(src + gap + offset, word)
            memory.copy(src + gap, src, count)
            assert memory._pages == expected._pages, count


class TestAllocators:
    def test_bump_allocator_disjoint(self):
        alloc = BumpAllocator(HEAP_BASE)
        a = alloc.allocate(16)
        b = alloc.allocate(16)
        assert b >= a + 16

    def test_bump_alignment(self):
        alloc = BumpAllocator(GLOBAL_BASE)
        alloc.allocate(3, align=1)
        addr = alloc.allocate(8, align=8)
        assert addr % 8 == 0

    def test_bump_zero_size_still_advances(self):
        alloc = BumpAllocator(HEAP_BASE)
        a = alloc.allocate(0)
        b = alloc.allocate(0)
        assert a != b

    def test_stack_grows_down(self):
        stack = StackAllocator()
        first = stack.allocate(16)
        second = stack.allocate(16)
        assert second < first < STACK_TOP

    def test_stack_frame_restore(self):
        stack = StackAllocator()
        marker = stack.push_frame()
        stack.allocate(64)
        stack.pop_frame(marker)
        assert stack.sp == marker

    def test_stack_alignment(self):
        stack = StackAllocator()
        addr = stack.allocate(5, align=8)
        assert addr % 8 == 0

    def test_stack_overflow(self):
        stack = StackAllocator(limit=1024)
        with pytest.raises(MemoryFault):
            for _ in range(100):
                stack.allocate(64)

    def test_segment_ordering(self):
        assert GLOBAL_BASE < HEAP_BASE < STACK_TOP
