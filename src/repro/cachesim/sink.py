"""Streaming cache simulation as a trace sink (zero materialization).

:class:`CacheSink` implements both entry points of the engines' sink
protocol (:class:`repro.sim.trace.TraceSink`): the columnar
:meth:`emit_columns` the engines call — attach it to a live run via
``run_compiled(compiled, sinks=(sink,))`` — and the per-record
:meth:`emit` used to replay stored traces. Either way the trace is
consumed access by access and only counters survive, exactly like the
extractor and the validation sink.

Hybrid (SPM + cache) mode replays an SPM allocation's address intervals:
every access whose address falls inside a selected buffer's interval is
served by the scratch pad (tallied as an SPM read/write) and never
reaches the cache — the DMA-style fills and write-backs of the SPM
buffers themselves go straight to main memory and are accounted from the
allocation's transfer volumes by the report layer, not simulated here.
"""

from __future__ import annotations

from bisect import bisect_right

from repro.cachesim.model import CacheHierarchy, CacheSimResult
from repro.sim.trace import Access, ColumnBlock, TraceRecord
from repro.spm.graph import reference_interval


def merge_intervals(
    intervals: "list[tuple[int, int]] | tuple[tuple[int, int], ...]",
) -> tuple[tuple[int, int], ...]:
    """Sort half-open ``[lo, hi)`` intervals and coalesce overlaps."""
    merged: list[tuple[int, int]] = []
    for lo, hi in sorted(interval for interval in intervals
                         if interval[1] > interval[0]):
        if merged and lo <= merged[-1][1]:
            last_lo, last_hi = merged[-1]
            merged[-1] = (last_lo, max(last_hi, hi))
        else:
            merged.append((lo, hi))
    return tuple(merged)


def allocation_intervals(allocation) -> tuple[tuple[int, int], ...]:
    """The merged address intervals an SPM allocation keeps resident:
    every reference served by a selected reuse-graph node contributes
    its :func:`~repro.spm.graph.reference_interval`."""
    return merge_intervals([
        reference_interval(reference)
        for node in allocation.nodes
        for reference in node.references
    ])


class CacheSink:
    """A trace sink that drives a :class:`CacheHierarchy` online.

    ``spm_intervals`` (merged, sorted, half-open) switches on hybrid
    mode: addresses inside them bypass the cache. Checkpoint records are
    ignored — cache behaviour depends only on the access stream.
    """

    def __init__(
        self,
        hierarchy: CacheHierarchy,
        spm_intervals: tuple[tuple[int, int], ...] = (),
    ) -> None:
        self.hierarchy = hierarchy
        self._intervals = merge_intervals(spm_intervals)
        self._starts = [lo for lo, _hi in self._intervals]
        self._ends = [hi for _lo, hi in self._intervals]
        import numpy as np  # loaded on first use (see ColumnBlock)

        self._np_starts = np.array(self._starts, dtype=np.int64)
        self._np_ends = np.array(self._ends, dtype=np.int64)
        self.reads = 0
        self.writes = 0
        self.spm_reads = 0
        self.spm_writes = 0
        self._finished: CacheSimResult | None = None

    def emit(self, record: TraceRecord) -> None:
        if isinstance(record, Access):
            self._route(record.addr, record.size, record.is_write)

    def emit_columns(self, block: ColumnBlock) -> None:
        """Columnar fast path: vectorized SPM routing and read/write
        tallies, then — for the dominant single-level write-back case —
        an inlined LRU walk over plain line-number lists with run
        skipping (consecutive accesses to one line collapse to counter
        bumps). Counter-for-counter identical to per-record :meth:`emit`:
        write-through, L2 and line-crossing accesses take the exact
        per-access path through :meth:`CacheHierarchy.access`.
        """
        if block.n == 0:
            return
        import numpy as np

        addrs = block.addr
        sizes = block.size
        w = block.is_write != 0
        if self._starts:
            index = np.searchsorted(self._np_starts, addrs,
                                    side="right") - 1
            inside = index >= 0
            inside &= addrs < self._np_ends[np.where(inside, index, 0)]
            spm_count = int(np.count_nonzero(inside))
            if spm_count:
                spm_writes = int(np.count_nonzero(inside & w))
                self.spm_writes += spm_writes
                self.spm_reads += spm_count - spm_writes
                keep = ~inside
                addrs = addrs[keep]
                sizes = sizes[keep]
                w = w[keep]
                if addrs.shape[0] == 0:
                    return
        n = addrs.shape[0]
        writes = int(np.count_nonzero(w))
        self.writes += writes
        self.reads += n - writes
        hierarchy = self.hierarchy
        l1 = hierarchy.l1
        line_bytes = l1.line_bytes
        crossing = ((addrs & (line_bytes - 1)) + sizes) > line_bytes
        if (hierarchy.l2 is not None or not l1._write_back
                or bool(crossing.any())):
            access = hierarchy.access
            for addr, size, is_write in zip(addrs.tolist(), sizes.tolist(),
                                            w.tolist()):
                access(addr, size, is_write)
            return
        # Single-level write-back, no line crossings: every access is
        # exactly one _touch on its line, and addr/size no longer matter.
        lines_list = (addrs >> l1._shift).tolist()
        writes_list = w.tolist()
        sets = l1._sets
        nsets = l1._nsets
        fill = l1._fill
        reads_c = writes_c = read_misses = write_misses = 0
        prev_line = -1
        prev_set: dict | None = None
        prev_dirty = False
        for line, is_write in zip(lines_list, writes_list):
            if line == prev_line:
                # The line is already MRU; pop+reinsert would not move
                # it, so only the counters (and a dirty upgrade) remain.
                if is_write:
                    writes_c += 1
                    if not prev_dirty:
                        prev_set[line] = True
                        prev_dirty = True
                else:
                    reads_c += 1
                continue
            lset = sets[line % nsets]
            dirty = lset.pop(line, None)
            if is_write:
                writes_c += 1
                if dirty is None:
                    write_misses += 1
                    fill(line, lset)
                lset[line] = True
                prev_dirty = True
            else:
                reads_c += 1
                if dirty is None:
                    read_misses += 1
                    fill(line, lset)
                    lset[line] = False
                    prev_dirty = False
                else:
                    lset[line] = dirty
                    prev_dirty = dirty
            prev_line = line
            prev_set = lset
        l1.reads += reads_c
        l1.writes += writes_c
        l1.read_misses += read_misses
        l1.write_misses += write_misses

    def _route(self, addr: int, size: int, is_write: bool) -> None:
        index = bisect_right(self._starts, addr) - 1
        if index >= 0 and addr < self._ends[index]:
            if is_write:
                self.spm_writes += 1
            else:
                self.spm_reads += 1
            return
        if is_write:
            self.writes += 1
        else:
            self.reads += 1
        self.hierarchy.access(addr, size, is_write)

    def finish(self) -> CacheSimResult:
        """Flush dirty lines and snapshot the counters (idempotent)."""
        if self._finished is None:
            self.hierarchy.flush()
            self._finished = self.hierarchy.result(
                self.reads, self.writes, self.spm_reads, self.spm_writes
            )
        return self._finished
