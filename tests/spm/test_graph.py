"""Tests for the reuse-graph IR and the allocator policies over it."""

from dataclasses import replace

import pytest

from repro.foray.extractor import extract_from_source
from repro.sim.trace import node_id_of_pc
from repro.spm.allocator import AllocatorPolicy, allocate_graph
from repro.spm.candidates import served_saving, transfer_cost
from repro.spm.explore import explore, pareto_frontier
from repro.spm.graph import ReuseGraph, reference_interval
from repro.spm.transform import transform_model
from repro.workloads.registry import workload_names

#: The acceptance ladder: >= 4 capacities spanning the embedded range.
LADDER = (256, 1024, 4096, 16384)

# Two loop nests of identical shape both re-reading the same table: the
# two table references (distinct pcs) share one window -> one shared node.
SHARED_WINDOW_SOURCE = """
int table[64];
int outa[2048];
int outb[2048];
int main() {
    int rep, i;
    for (rep = 0; rep < 32; rep++) {
        for (i = 0; i < 64; i++) {
            outa[64 * rep + i] = table[i] + 1;
        }
    }
    for (rep = 0; rep < 32; rep++) {
        for (i = 0; i < 64; i++) {
            outb[64 * rep + i] = table[i] * 2;
        }
    }
    return 0;
}
"""

# The same array read through two *different* windows (unit stride vs.
# stride 2): same exclusivity group, distinct nodes, sharing edge.
SPLIT_WINDOW_SOURCE = """
int table[64];
int outa[2048];
int outb[1024];
int main() {
    int rep, i;
    for (rep = 0; rep < 32; rep++) {
        for (i = 0; i < 64; i++) {
            outa[64 * rep + i] = table[i] + 1;
        }
    }
    for (rep = 0; rep < 32; rep++) {
        for (i = 0; i < 32; i++) {
            outb[32 * rep + i] = table[2 * i] * 3;
        }
    }
    return 0;
}
"""


def model_of(source):
    model, _, _ = extract_from_source(source)
    return model


class TestReferenceInterval:
    def test_interval_covers_footprint(self):
        model = model_of(SHARED_WINDOW_SOURCE)
        for ref in model.references:
            lo, hi = reference_interval(ref)
            assert hi - lo >= ref.access_size
            # The footprint cannot exceed the interval's address count.
            assert ref.footprint <= hi - lo


class TestSharedWindows:
    def test_identical_windows_collapse_into_shared_node(self):
        graph = ReuseGraph.from_model(model_of(SHARED_WINDOW_SOURCE))
        shared = [node for node in graph.nodes if node.is_shared]
        assert shared, "identical table windows must merge"
        assert any(len(node.members) == 2 for node in shared)

    def test_shared_node_pays_fill_once(self):
        model = model_of(SHARED_WINDOW_SOURCE)
        graph = ReuseGraph.from_model(model)
        shared = max((n for n in graph.nodes if n.is_shared),
                     key=lambda n: n.benefit_nj)
        # Merged benefit beats two buffers for the same two references,
        # each paying its own fill, by exactly the fills it saves.
        energy = graph.energy
        fill = transfer_cost(shared.level, energy, False)
        separate = sum(served_saving(ref, energy) - fill
                       for ref in shared.references)
        assert all(ref.writes == 0 for ref in shared.references)
        assert shared.benefit_nj > separate - 1e-9
        assert shared.benefit_nj == pytest.approx(
            separate + (len(shared.members) - 1) * fill)

    def test_containment_edges_link_levels(self):
        graph = ReuseGraph.from_model(model_of(SHARED_WINDOW_SOURCE))
        kinds = {edge.kind for edge in graph.edges}
        assert "containment" in kinds
        for edge in graph.edges_of_kind("containment"):
            src = graph.nodes[edge.src]
            dst = graph.nodes[edge.dst]
            assert src.level.level < dst.level.level
            assert src.group_id == dst.group_id


class TestSharedTransform:
    def test_transformed_model_rewrites_every_member(self):
        # Both table reads are served by one shared buffer: the text
        # declares and fills it once and rewrites both accesses.
        model = model_of(SHARED_WINDOW_SOURCE)
        allocation = allocate_graph(ReuseGraph.from_model(model), 4096)
        shared = [node for node in allocation.nodes if node.is_shared]
        assert len(shared) == 1 and len(shared[0].members) == 2
        text = transform_model(allocation)
        name = shared[0].candidate.name
        assert text.count(f"char {name}[") == 1
        assert text.count(f"dma_copy({name},") == 1
        for ref in shared[0].references:
            assert (f"{name}[4*{ref.effective_loops[-1].name}];  "
                    f"/* was {ref.array_name}[{ref.index_text()}] */"
                    in text)


class TestSameArrayExclusivity:
    def test_distinct_windows_share_group_with_sharing_edge(self):
        graph = ReuseGraph.from_model(model_of(SPLIT_WINDOW_SOURCE))
        sharing = graph.edges_of_kind("sharing")
        assert sharing
        for edge in sharing:
            assert (graph.nodes[edge.src].group_id
                    == graph.nodes[edge.dst].group_id)

    def test_one_buffer_per_array(self):
        model = model_of(SPLIT_WINDOW_SOURCE)
        graph = ReuseGraph.from_model(model)
        allocation = allocate_graph(graph, 1 << 20)  # ample capacity
        groups_used = [node.group_id for node in allocation.nodes]
        assert len(groups_used) == len(set(groups_used))

    def test_describe_mentions_groups(self):
        graph = ReuseGraph.from_model(model_of(SPLIT_WINDOW_SOURCE))
        text = graph.describe()
        assert "exclusive groups" in text
        assert f"{graph.node_count} nodes" in text


class TestPolicyDominance:
    """Acceptance: the exact DP dominates both greedy rankings on every
    registered workload at every capacity of the ladder."""

    @pytest.mark.parametrize("name", workload_names())
    def test_dp_dominates_greedies(self, suite_reports, name):
        graph = ReuseGraph.from_model(suite_reports[name].model)
        for capacity in LADDER:
            dp = allocate_graph(graph, capacity, AllocatorPolicy.DP)
            for policy in (AllocatorPolicy.GREEDY,
                           AllocatorPolicy.GREEDY_BENEFIT):
                other = allocate_graph(graph, capacity, policy)
                assert (dp.total_benefit_nj
                        >= other.total_benefit_nj - 1e-9), (
                    f"{name}: {policy.value} beat the DP at {capacity} B"
                )

    @pytest.mark.parametrize("name", workload_names())
    def test_explore_frontier_nondecreasing(self, suite_reports, name):
        points = explore(suite_reports[name].model, LADDER)
        assert len(points) >= 4
        benefits = [point.benefit_nj for point in points]
        assert benefits == sorted(benefits)
        for point in points:
            assert point.used_bytes <= point.capacity_bytes
            assert 0.0 <= point.saving_fraction <= 1.0


def static_subset(report):
    """``report``'s model restricted to the references the static
    baseline could already analyze in the source."""
    model = report.model
    return replace(model, references=[
        ref for ref in model.references
        if report.static_result.is_analyzable_ref(node_id_of_pc(ref.pc))
    ])


class TestPhaseTwoPayoff:
    """The paper's payoff, on the allocation production makes: at 4096 B
    the reuse graph of the full FORAY model saves more than the graph of
    the statically analyzable references alone."""

    @pytest.mark.parametrize("name, foray_nj, static_nj", [
        ("susan", 55660, 0),
        ("lame", 96063, 51675),
    ])
    def test_foray_model_beats_static_subset(self, suite_reports, name,
                                             foray_nj, static_nj):
        report = suite_reports[name]
        foray = allocate_graph(ReuseGraph.from_model(report.model), 4096)
        static = allocate_graph(
            ReuseGraph.from_model(static_subset(report)), 4096)
        assert foray.total_benefit_nj > static.total_benefit_nj
        assert (round(foray.total_benefit_nj),
                round(static.total_benefit_nj)) == (foray_nj, static_nj)


class TestParetoFrontier:
    def test_frontier_strictly_increasing(self):
        model = model_of(SPLIT_WINDOW_SOURCE)
        points = explore(model, (64, 128, 256, 512, 1024, 4096))
        frontier = pareto_frontier(points)
        assert frontier
        benefits = [point.benefit_nj for point in frontier]
        assert all(b2 > b1 for b1, b2 in zip(benefits, benefits[1:]))

    def test_zero_saving_points_dominated(self):
        model = model_of(SPLIT_WINDOW_SOURCE)
        points = explore(model, (4, 8))  # too small for any buffer
        assert all(point.benefit_nj == 0 for point in points)
        assert pareto_frontier(points) == []
