"""Byte-addressable simulated memory with an embedded-style address map.

The layout mimics a 32-bit embedded target (and produces the kinds of
addresses seen in the paper's Figure 4 trace, e.g. stack addresses just
below ``0x80000000``):

====================  =========================================
``0x10000000``        globals and string literals (grow up)
``0x40000000``        heap (bump allocator, grows up)
``0x80000000``        stack top (frames grow down)
====================  =========================================

Memory is organised in 4 KiB pages allocated on demand, so sparse address
use stays cheap. All multi-byte values are little-endian. Addresses wrap
at ``2**32`` as on a 32-bit target: a multi-byte access that runs past
``0xFFFFFFFF`` continues at address 0.
"""

from __future__ import annotations

import struct

from repro.lang.errors import MemoryFault

GLOBAL_BASE = 0x10000000
HEAP_BASE = 0x40000000
STACK_TOP = 0x80000000
#: Maximum stack depth in bytes before a simulated stack overflow.
STACK_LIMIT = 8 * 1024 * 1024

_PAGE_SHIFT = 12
_PAGE_SIZE = 1 << _PAGE_SHIFT
_PAGE_MASK = _PAGE_SIZE - 1
#: Pages of the 32-bit address space; page indices wrap modulo this.
_PAGE_COUNT = 1 << (32 - _PAGE_SHIFT)


class Memory:
    """Sparse paged memory."""

    def __init__(self) -> None:
        self._pages: dict[int, bytearray] = {}

    # -- raw byte access -------------------------------------------------

    def _page(self, page_index: int) -> bytearray:
        page_index %= _PAGE_COUNT
        page = self._pages.get(page_index)
        if page is None:
            page = bytearray(_PAGE_SIZE)
            self._pages[page_index] = page
        return page

    def read_bytes(self, addr: int, size: int) -> bytes:
        if addr < 0 or size < 0:
            raise MemoryFault(f"invalid read at {addr:#x} size {size}")
        out = bytearray(size)
        offset = 0
        while offset < size:
            page = self._page((addr + offset) >> _PAGE_SHIFT)
            start = (addr + offset) & _PAGE_MASK
            chunk = min(size - offset, _PAGE_SIZE - start)
            out[offset : offset + chunk] = page[start : start + chunk]
            offset += chunk
        return bytes(out)

    def touch(self, addr: int) -> None:
        """Materialize the page holding ``addr``, as a read there would,
        without reading it."""
        self._page(addr >> _PAGE_SHIFT)

    def write_bytes(self, addr: int, data: bytes) -> None:
        if addr < 0:
            raise MemoryFault(f"invalid write at {addr:#x}")
        offset = 0
        size = len(data)
        while offset < size:
            page = self._page((addr + offset) >> _PAGE_SHIFT)
            start = (addr + offset) & _PAGE_MASK
            chunk = min(size - offset, _PAGE_SIZE - start)
            page[start : start + chunk] = data[offset : offset + chunk]
            offset += chunk

    # -- typed access -------------------------------------------------------

    def read_int(self, addr: int, size: int, signed: bool) -> int:
        return int.from_bytes(self.read_bytes(addr, size), "little", signed=signed)

    def write_int(self, addr: int, value: int, size: int) -> None:
        mask = (1 << (8 * size)) - 1
        self.write_bytes(addr, (value & mask).to_bytes(size, "little"))

    def read_float(self, addr: int, size: int) -> float:
        fmt = "<f" if size == 4 else "<d"
        return struct.unpack(fmt, self.read_bytes(addr, size))[0]

    def write_float(self, addr: int, value: float, size: int) -> None:
        fmt = "<f" if size == 4 else "<d"
        try:
            data = struct.pack(fmt, value)
        except OverflowError:
            data = struct.pack(fmt, float("inf") if value > 0 else float("-inf"))
        self.write_bytes(addr, data)

    # -- bulk access (library routines) -------------------------------------

    def copy(self, dst: int, src: int, count: int) -> None:
        """Copy ``count`` bytes from ``src`` to ``dst`` with the result of a
        forward loop of 4-byte word copies (a shorter last word). Where
        ``src < dst < src + count`` each word re-reads bytes that earlier
        words stored, so the copy repeats the source's first bytes."""
        data = self.read_bytes(src, count)
        gap = dst - src
        if 0 < gap < count:
            if gap >= 4:
                # Whole words land ``gap`` bytes on: period-``gap`` repeat.
                data = (data[:gap] * -(-count // gap))[:count]
            else:
                # Within a word, bytes below ``gap`` were stored by the
                # previous word and the rest are still the source's.
                # Residue ``r`` depends on residue ``r + 4 - gap`` > r.
                out = bytearray(data)
                for r in range(gap - 1, -1, -1):
                    out[r + 4:count:4] = out[r + 4 - gap:count - gap:4]
                data = bytes(out)
        self.write_bytes(dst, data)

    def read_cstring(self, addr: int, max_len: int = 1 << 20) -> str | None:
        """The NUL-terminated string at ``addr`` (Latin-1), or None when
        none of its first ``max_len`` bytes is NUL. Touches exactly the
        pages a byte-at-a-time reader would."""
        if addr < 0:
            raise MemoryFault(f"invalid read at {addr:#x} size 1")
        chunks: list[bytes] = []
        pos, end = addr, addr + max_len
        while pos < end:
            page = self._page(pos >> _PAGE_SHIFT)
            start = pos & _PAGE_MASK
            stop = min(_PAGE_SIZE, start + end - pos)
            nul = page.find(0, start, stop)
            if nul >= 0:
                chunks.append(page[start:nul])
                return b"".join(chunks).decode("latin-1")
            chunks.append(page[start:stop])
            pos += stop - start
        return None


class BumpAllocator:
    """Bump-pointer allocator used for both globals and the heap.

    ``free`` is a no-op, which is a common arrangement in static embedded
    software and is sufficient for the workloads here.
    """

    def __init__(self, base: int):
        self.base = base
        self._next = base

    def allocate(self, size: int, align: int = 8) -> int:
        align = max(1, align)
        addr = (self._next + align - 1) // align * align
        self._next = addr + max(1, size)
        return addr

    @property
    def used(self) -> int:
        return self._next - self.base


class StackAllocator:
    """A downward-growing stack of frames."""

    def __init__(self, top: int = STACK_TOP, limit: int = STACK_LIMIT):
        self._top = top
        self._limit = limit
        self._sp = top

    @property
    def sp(self) -> int:
        return self._sp

    def push_frame(self) -> int:
        """Return a marker to restore at frame exit."""
        return self._sp

    def pop_frame(self, marker: int) -> None:
        self._sp = marker

    def allocate(self, size: int, align: int = 8) -> int:
        align = max(1, align)
        addr = (self._sp - max(1, size)) // align * align
        if self._top - addr > self._limit:
            raise MemoryFault("simulated stack overflow")
        self._sp = addr
        return addr
