"""CacheSink correctness: batched-vs-replay parity and SPM bypass."""

import pytest

from repro.cachesim.model import CacheConfig, CacheHierarchy
from repro.cachesim.sink import (
    CacheSink,
    allocation_intervals,
    merge_intervals,
)
from repro.pipeline import extract_foray_model
from repro.sim.machine import EngineConfig, compile_program, run_compiled
from repro.sim.trace import ColumnBlock, TraceCollector, pack_access
from repro.spm.allocator import allocate_graph
from repro.spm.graph import ReuseGraph, reference_interval
from repro.workloads.registry import MIBENCH_WORKLOADS

TWO_ARRAYS = """
int a[64];
int b[64];
int main() {
    int i, r, total = 0;
    for (r = 0; r < 4; r++) {
        for (i = 0; i < 64; i++) {
            a[i] = i + r;
            total += b[i] + a[i];
        }
    }
    return total & 255;
}
"""


class TestIntervalHelpers:
    def test_merge_sorts_and_coalesces(self):
        assert merge_intervals([(30, 40), (0, 10), (8, 20)]) == \
            ((0, 20), (30, 40))

    def test_merge_drops_empty_intervals(self):
        assert merge_intervals([(5, 5), (10, 4)]) == ()

    def test_adjacent_intervals_fuse(self):
        assert merge_intervals([(0, 10), (10, 20)]) == ((0, 20),)

    def test_allocation_intervals_cover_selected_references(self):
        model = extract_foray_model(TWO_ARRAYS).model
        graph = ReuseGraph.from_model(model)
        allocation = allocate_graph(graph, 1 << 20)  # room for everything
        intervals = allocation_intervals(allocation)
        assert intervals  # something profitable was selected
        for node in allocation.nodes:
            for ref in node.references:
                lo, hi = reference_interval(ref)
                assert any(start <= lo and hi <= end
                           for start, end in intervals)


def _run_with_cache_sink(source, engine="bytecode", intervals=()):
    compiled = compile_program(source)
    sink = CacheSink(CacheHierarchy(CacheConfig(sets=8)), intervals)
    collector = TraceCollector()
    run_compiled(compiled, sinks=(sink, collector),
                 config=EngineConfig(engine=engine))
    return sink.finish(), collector


class TestStreamingParity:
    @pytest.mark.parametrize("name", ["adpcm", "gsm"])
    def test_sink_matches_offline_replay(self, name):
        """Attaching the sink to a live engine must tally exactly what a
        record-by-record replay of the collected trace tallies."""
        source = MIBENCH_WORKLOADS[name].source
        online, collector = _run_with_cache_sink(source)
        offline_sink = CacheSink(CacheHierarchy(CacheConfig(sets=8)))
        for record in collector:
            offline_sink.emit(record)
        assert offline_sink.finish() == online

    def test_hybrid_sink_matches_offline_replay(self):
        model = extract_foray_model(TWO_ARRAYS).model
        graph = ReuseGraph.from_model(model)
        intervals = allocation_intervals(allocate_graph(graph, 4096))
        online, collector = _run_with_cache_sink(TWO_ARRAYS,
                                                 intervals=intervals)
        offline_sink = CacheSink(CacheHierarchy(CacheConfig(sets=8)),
                                 intervals)
        for record in collector:
            offline_sink.emit(record)
        assert offline_sink.finish() == online

    def test_finish_is_idempotent(self):
        """A second finish() must return the memoized snapshot — not
        re-flush (which would inflate write-back counters)."""
        compiled = compile_program(TWO_ARRAYS)
        sink = CacheSink(CacheHierarchy(CacheConfig(sets=8)))
        run_compiled(compiled, sinks=(sink,))
        first = sink.finish()
        assert sink.finish() is first
        assert sink.finish().l1.writebacks == first.l1.writebacks


class TestSpmBypass:
    def test_interval_accesses_bypass_the_cache(self):
        pure, _ = _run_with_cache_sink(TWO_ARRAYS)
        model = extract_foray_model(TWO_ARRAYS).model
        graph = ReuseGraph.from_model(model)
        allocation = allocate_graph(graph, 1 << 20)
        intervals = allocation_intervals(allocation)
        hybrid, _ = _run_with_cache_sink(TWO_ARRAYS, intervals=intervals)

        # Same trace either way: the split moves accesses to the SPM,
        # it never invents or drops any.
        assert (hybrid.reads + hybrid.writes + hybrid.spm_accesses
                == pure.reads + pure.writes)
        assert hybrid.spm_accesses > 0
        assert hybrid.accesses < pure.accesses
        # Fewer cached accesses can only shrink the cache's traffic.
        assert hybrid.main_words <= pure.main_words

    def test_no_intervals_means_no_spm_traffic(self):
        pure, _ = _run_with_cache_sink(TWO_ARRAYS)
        assert pure.spm_accesses == 0

    def test_allocation_pays_its_transfers(self):
        """Whatever the sink bypasses pays its DMA fill/write-back
        volumes: SPM contents are never free."""
        from repro.cachesim.report import build_hierarchy_report
        from repro.spm.energy import EnergyModel

        model = extract_foray_model(TWO_ARRAYS).model
        energy = EnergyModel()
        allocation = allocate_graph(ReuseGraph.from_model(model, energy),
                                    1 << 20)
        assert any(node.writeback_words for node in allocation.nodes)
        intervals = allocation_intervals(allocation)
        assert intervals
        hybrid, _ = _run_with_cache_sink(TWO_ARRAYS, intervals=intervals)
        pure, _ = _run_with_cache_sink(TWO_ARRAYS)
        report = build_hierarchy_report(
            "two-arrays", "-", CacheConfig(sets=8), allocation, pure,
            hybrid, energy,
        )
        expected = sum(
            energy.fill_energy(node.fill_words)
            + energy.writeback_energy(node.writeback_words)
            for node in allocation.nodes
        )
        assert report.spm_transfer_nj == pytest.approx(expected)
        assert report.spm_transfer_nj > 0

    def test_interval_membership_is_half_open(self):
        sink = CacheSink(CacheHierarchy(CacheConfig()),
                         ((100, 200),))
        sink.emit_columns(ColumnBlock(
            [pack_access(0, addr, 4, 0) for addr in (99, 100, 199, 200)]))
        assert (sink.spm_reads, sink.reads) == (2, 2)
