"""Host-speed calibration: a fixed pure-Python kernel timed next to each op.

On a shared host the speed of a CPU-bound interpreter moves by 30-40%
over minutes as other tenants come and go, and process CPU time moves
with it (the contention is inside the core, not steal time). The same
slowdown hits this kernel, which runs between ops, so an op's time
divided by the kernel's time around it stays put while both move. The
benchmark reports op and set-up times in *reference* milliseconds: that
ratio times :data:`REF_KERNEL_NS`, i.e. the time the op would take on a
host where the kernel takes 5.0 ms (about its best time on one vCPU of
a 2.1 GHz Xeon). The kernel is the benchmark's own code, identical on
every commit it compares, and touches nothing in ``repro``.
"""

from __future__ import annotations

import time

#: The kernel's time on the reference host, in ns.
REF_KERNEL_NS = 5_000_000


def kernel() -> int:
    """A fixed mix of what the pipeline's hot loops do: integer
    arithmetic, calls, dict and list traffic."""
    table: dict[int, int] = {}
    kept: list[int] = []

    def step(i: int, x: int) -> int:
        return (x * 31 + i) & 0xFFFF

    x = 7
    for i in range(20000):
        x = step(i, x)
        table[x & 1023] = table.get(x & 1023, 0) + 1
        if x & 3 == 0:
            kept.append(x)
    return len(kept) + len(table)


def time_kernel() -> int:
    """One timed run of :func:`kernel`, in ns."""
    start = time.perf_counter_ns()
    kernel()
    return time.perf_counter_ns() - start


def in_ref_ns(elapsed_ns: float, kernel_ns: float) -> float:
    """``elapsed_ns`` in reference ns, given the mean time of the kernel
    runs just before and just after it."""
    return elapsed_ns / kernel_ns * REF_KERNEL_NS
