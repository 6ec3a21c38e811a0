"""End-to-end round trip: compile the SPM-transformed MiniC replay back
through the pipeline and verify the main-memory traffic actually drops by
exactly the allocation's predicted transfer volume — on both engines.

Replay arrays live in the global segment (= main memory); SPM buffers are
emitted as stack locals, so the count of traced accesses in the global
address range *is* the main-memory traffic.
"""

import pytest

from repro.foray.extractor import extract_from_source
from repro.sim.machine import EngineConfig, compile_program, run_compiled
from repro.sim.memory import GLOBAL_BASE, HEAP_BASE
from repro.spm.allocator import allocate_graph
from repro.spm.graph import ReuseGraph
from repro.spm.transform import (
    emit_replay_source,
    emit_transformed_source,
    replay_buffer_eligible,
    transform_model,
)

# A re-read table (read-only reuse) plus a streaming output.
READ_REUSE_SOURCE = """
int table[64];
int out[4096];
int main() {
    int rep, i;
    for (rep = 0; rep < 64; rep++) {
        for (i = 0; i < 64; i++) {
            out[64 * rep + i] = table[i] * 3;
        }
    }
    return 0;
}
"""

# A histogram updated in place: its load and store extract as two
# references sharing one window, so the allocation buffers them as one
# *shared* node (fill AND write-back paid once).
WRITEBACK_SOURCE = """
int hist[64];
int data[4096];
int main() {
    int rep, i;
    for (rep = 0; rep < 64; rep++) {
        for (i = 0; i < 64; i++) {
            hist[i] = hist[i] + data[64 * rep + i];
        }
    }
    return 0;
}
"""


class GlobalRangeCounter:
    """Trace sink counting accesses in the global (main-memory) segment."""

    def __init__(self):
        self.count = 0

    def emit_columns(self, block):
        for addr in block.lists()[1]:
            if GLOBAL_BASE <= addr < HEAP_BASE:
                self.count += 1

    def emit(self, record):  # pragma: no cover - block protocol is used
        addr = getattr(record, "addr", None)
        if addr is not None and GLOBAL_BASE <= addr < HEAP_BASE:
            self.count += 1


def run_counting(source: str, engine: str):
    compiled = compile_program(source)
    counter = GlobalRangeCounter()
    result = run_compiled(compiled, sinks=(counter,),
                          config=EngineConfig(engine=engine))
    return counter.count, result


@pytest.mark.parametrize("engine", ["bytecode", "ast"])
@pytest.mark.parametrize("source", [READ_REUSE_SOURCE, WRITEBACK_SOURCE],
                         ids=["read-reuse", "writeback"])
def test_roundtrip_traffic_drop_matches_prediction(source, engine):
    model, _, _ = extract_from_source(source)
    graph = ReuseGraph.from_model(model)
    allocation = allocate_graph(graph, 4096)
    assert allocation.buffer_count >= 1

    baseline_source = emit_replay_source(model)
    transformed = emit_transformed_source(allocation, model)
    assert transformed.buffered, "allocation must rewrite at least one ref"

    baseline_count, baseline_run = run_counting(baseline_source, engine)
    transformed_count, transformed_run = run_counting(transformed.source,
                                                      engine)

    # The rewrite must not change program semantics.
    assert transformed_run.exit_code == baseline_run.exit_code
    assert transformed_run.stdout == baseline_run.stdout

    drop = baseline_count - transformed_count
    assert drop == transformed.predicted_drop
    assert drop > 0


@pytest.mark.parametrize("engine", ["bytecode", "ast"])
def test_shared_writeback_buffer_fills_once(engine):
    """The hist load+store share one buffer: main memory keeps exactly one
    fill and one write-back of the 64-word window — no more, no fewer."""
    model, _, _ = extract_from_source(WRITEBACK_SOURCE)
    graph = ReuseGraph.from_model(model)
    allocation = allocate_graph(graph, 4096)
    transformed = emit_transformed_source(allocation, model)

    shared = [plan for plan in transformed.buffered if len(plan.members) > 1]
    assert shared, "hist load+store must share one buffer"
    plan = shared[0]
    assert plan.fill_words == 64
    assert plan.writeback_words == 64
    assert plan.served_accesses == 8192  # 4096 loads + 4096 stores

    baseline_count, _ = run_counting(emit_replay_source(model), engine)
    transformed_count, _ = run_counting(transformed.source, engine)
    assert baseline_count - transformed_count == transformed.predicted_drop


def test_transformed_model_writes_back_shared_buffer():
    """The designer-facing text of the same shared hist buffer: one
    fill, both accesses rewritten in one loop body, and the write-back
    its writing member needs, whichever member represents the node."""
    model, _, _ = extract_from_source(WRITEBACK_SOURCE)
    allocation = allocate_graph(ReuseGraph.from_model(model), 4096)
    shared = [node for node in allocation.nodes if node.is_shared]
    assert len(shared) == 1 and shared[0].writeback_words
    text = transform_model(allocation)
    name = shared[0].candidate.name
    assert text.count(f"dma_copy({name},") == 1
    assert text.count("/* write back */") == 1
    lines = text.splitlines()
    accesses = [i for i, line in enumerate(lines)
                if line.lstrip().startswith(f"{name}[")]
    assert len(accesses) == 2 and accesses[1] == accesses[0] + 1


@pytest.mark.parametrize("engine", ["bytecode", "ast"])
def test_guarded_reference_not_buffered(engine):
    """A conditionally-executed reference profiles fewer accesses than the
    rectangular replay nest would execute, so predicted_drop would be
    wrong for it — eligibility must reject it, keeping the measured drop
    equal to the prediction (regression for a confirmed 2x mismatch)."""
    source = """
    int table[64];
    int out[4096];
    int main() {
        int rep, i;
        for (rep = 0; rep < 64; rep++) {
            for (i = 0; i < 64; i++) {
                if (i <= rep) {
                    out[64 * rep + i] = table[i] * 3;
                }
            }
        }
        return 0;
    }
    """
    model, _, _ = extract_from_source(source)
    guarded = [ref for ref in model.references
               if ref.reads and not ref.writes]
    assert guarded
    assert all(ref.exec_count < 64 * 64 for ref in guarded)

    graph = ReuseGraph.from_model(model)
    allocation = allocate_graph(graph, 4096)
    transformed = emit_transformed_source(allocation, model)
    buffered_pcs = {candidate.reference.pc
                    for plan in transformed.buffered
                    for _index, candidate in plan.members}
    assert buffered_pcs.isdisjoint(ref.pc for ref in guarded)

    baseline_count, _ = run_counting(emit_replay_source(model), engine)
    transformed_count, _ = run_counting(transformed.source, engine)
    assert baseline_count - transformed_count == transformed.predicted_drop


def test_replay_eligibility_rejects_sparse_windows():
    """A non-dense inner window cannot be emitted as a dense fill loop."""
    source = """
    int table[256];
    int out[4096];
    int main() {
        int rep, i;
        for (rep = 0; rep < 64; rep++) {
            for (i = 0; i < 64; i++) {
                out[64 * rep + i] = table[4 * i];
            }
        }
        return 0;
    }
    """
    model, _, _ = extract_from_source(source)
    graph = ReuseGraph.from_model(model)
    sparse_nodes = [node for node in graph.nodes
                    if node.members[0].reference.reads
                    and not node.members[0].reference.writes]
    assert sparse_nodes
    member = sparse_nodes[0].members[0]
    assert not replay_buffer_eligible(member.reference, member)
    # And the transformed emission must leave the sparse window untouched
    # rather than emit an incorrect dense fill.
    allocation = allocate_graph(graph, 1 << 20)
    transformed = emit_transformed_source(allocation, model)
    sparse_pcs = {member.reference.pc}
    for plan in transformed.buffered:
        for _index, candidate in plan.members:
            assert candidate.reference.pc not in sparse_pcs
