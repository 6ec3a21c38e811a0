"""Fault paths of the simulated memory, unit-level and end-to-end.

``tests/sim/test_memory.py`` covers the happy paths; these tests pin
the failure behavior the specialized fast path leans on: unmapped
pages read as zeros (pages are demand-created and never replaced),
multi-byte accesses straddling a page boundary stay coherent, negative
addresses fault, and runaway frames hit the simulated stack limit.
"""

import pytest

from repro.lang.errors import MemoryFault
from repro.sim.machine import EngineConfig, compile_program, run_compiled
from repro.sim.memory import (
    STACK_LIMIT,
    STACK_TOP,
    Memory,
    StackAllocator,
)


class TestUnmappedPages:
    def test_read_spanning_two_unmapped_pages_is_zero(self):
        memory = Memory()
        assert memory.read_bytes(0x1FF8, 16) == bytes(16)
        # Reading must not have materialized writable state.
        assert memory.read_int(0x2000, 4, signed=False) == 0

    def test_write_then_read_far_pages(self):
        memory = Memory()
        memory.write_int(0x7000_0000, 1234, 4)
        assert memory.read_int(0x7000_0000, 4, signed=True) == 1234
        assert memory.read_bytes(0x6FFF_F000, 8) == bytes(8)


class TestCrossPageAccess:
    @pytest.mark.parametrize("offset", [4093, 4094, 4095])
    def test_int_straddling_page_boundary(self, offset):
        memory = Memory()
        memory.write_int(offset, 0x11223344, 4)
        assert memory.read_int(offset, 4, signed=False) == 0x11223344

    def test_float_straddling_page_boundary(self):
        memory = Memory()
        memory.write_float(0x1FFC, 2.5, 8)
        assert memory.read_float(0x1FFC, 8) == 2.5

    def test_negative_sizes_and_addresses_fault(self):
        memory = Memory()
        with pytest.raises(MemoryFault):
            memory.read_bytes(-4, 4)
        with pytest.raises(MemoryFault):
            memory.write_bytes(-1, b"x")
        with pytest.raises(MemoryFault):
            memory.read_bytes(16, -2)


class TestStackLimit:
    def test_allocator_faults_past_limit(self):
        stack = StackAllocator()
        with pytest.raises(MemoryFault, match="stack overflow"):
            for _ in range(16):
                stack.push_frame()
                stack.allocate(1 << 20, 16)

    def test_limit_is_8_mib_below_top(self):
        assert STACK_LIMIT == 8 * 1024 * 1024
        stack = StackAllocator()
        stack.push_frame()
        addr = stack.allocate(16, 4)
        assert STACK_TOP - STACK_LIMIT <= addr < STACK_TOP

    @pytest.mark.parametrize("engine", ["bytecode", "ast"])
    def test_deep_recursion_overflows_simulated_stack(self, engine):
        # 64 KiB frames exhaust the 8 MiB stack limit well before the
        # interpreter's call-depth limit (512) can trip.
        compiled = compile_program("""
        int f(int n) {
            char buf[65536];
            buf[0] = (char)n;
            return f(n + 1) + buf[0];
        }
        int main(void) { return f(0); }
        """)
        with pytest.raises(MemoryFault, match="stack overflow"):
            run_compiled(compiled, config=EngineConfig(engine=engine))
