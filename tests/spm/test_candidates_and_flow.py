"""Tests for buffer candidates, energy model, transform and exploration."""

import pytest

from repro.foray.extractor import extract_from_source
from repro.spm.allocator import allocate_graph
from repro.spm.candidates import served_saving, transfer_cost
from repro.spm.energy import EnergyModel
from repro.spm.explore import explore, model_baseline_energy
from repro.spm.graph import ReuseGraph
from repro.spm.reuse import reuse_levels
from repro.spm.transform import transform_model

REUSE_SOURCE = """
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


@pytest.fixture(scope="module")
def reuse_model():
    model, _, _ = extract_from_source(REUSE_SOURCE)
    return model


def benefit(reference, level, energy):
    """Energy saved by buffering ``reference`` alone at ``level``."""
    return served_saving(reference, energy) - transfer_cost(
        level, energy, bool(reference.writes))


class TestEnergyModel:
    def test_spm_cheaper_than_main(self):
        energy = EnergyModel()
        assert energy.spm_energy(100, 0) < energy.main_energy(100, 0)

    def test_fill_costs_both_sides(self):
        energy = EnergyModel()
        assert energy.fill_energy(10) == pytest.approx(
            10 * (energy.main_read_nj + energy.spm_write_nj)
        )

    def test_writeback(self):
        energy = EnergyModel()
        assert energy.writeback_energy(4) > 0


class TestCandidates:
    def test_reused_table_has_profitable_candidate(self, reuse_model):
        table_refs = [r for r in reuse_model.references
                      if r.footprint == 64 and r.reads > 0
                      and r.expression.used_coefficients()[1] == 0]
        assert table_refs
        graph = ReuseGraph.from_model(reuse_model)
        nodes = [node for node in graph.nodes
                 if table_refs[0] in node.references]
        assert nodes
        assert max(node.benefit_nj for node in nodes) > 0

    def test_streaming_write_not_profitable(self, reuse_model):
        # out[] is written once per element: staging it through the SPM
        # costs more transfers than it saves.
        out_refs = [r for r in reuse_model.references if r.writes > 0]
        assert out_refs
        for ref in out_refs:
            for level in reuse_levels(ref):
                if level.reuse_factor <= 1.0:
                    assert benefit(ref, level, EnergyModel()) < 0

    def test_single_member_node_benefit(self, reuse_model):
        # A node serving one reference saves what buffering that
        # reference alone saves.
        graph = ReuseGraph.from_model(reuse_model)
        singles = [node for node in graph.nodes if not node.is_shared]
        assert singles
        for node in singles:
            assert node.benefit_nj == pytest.approx(
                benefit(node.references[0], node.level, graph.energy))

    def test_enumerate_covers_model(self, reuse_model):
        # The graph enumerates the reuse levels of every reference.
        graph = ReuseGraph.from_model(reuse_model)
        refs_with_nodes = {id(ref) for node in graph.nodes
                           for ref in node.references}
        assert refs_with_nodes  # at least the reused table

    def test_benefit_scales_with_main_energy(self, reuse_model):
        cheap = EnergyModel(main_read_nj=1.0, main_write_nj=1.0)
        pricey = EnergyModel(main_read_nj=50.0, main_write_nj=50.0)
        ref = max(reuse_model.references, key=lambda r: r.reads)
        best_cheap = max((benefit(ref, lv, cheap)
                          for lv in reuse_levels(ref)), default=0)
        best_pricey = max((benefit(ref, lv, pricey)
                           for lv in reuse_levels(ref)), default=0)
        assert best_pricey > best_cheap


class TestTransform:
    def test_transform_text_structure(self, reuse_model):
        allocation = allocate_graph(ReuseGraph.from_model(reuse_model), 4096)
        text = transform_model(allocation)
        assert "SPM capacity: 4096" in text
        for node in allocation.nodes:
            assert node.candidate.name in text
            assert "dma_copy" in text

    def test_writeback_only_for_written_refs(self, reuse_model):
        allocation = allocate_graph(ReuseGraph.from_model(reuse_model), 4096)
        text = transform_model(allocation)
        if all(ref.writes == 0 for node in allocation.nodes
               for ref in node.references):
            assert "write back" not in text

    def test_empty_allocation(self):
        empty = ReuseGraph((), (), EnergyModel())
        text = transform_model(allocate_graph(empty, 128))
        assert "0 buffers" in text


class TestExploration:
    def test_savings_monotone_in_capacity(self, reuse_model):
        points = explore(reuse_model, capacities=(64, 256, 1024, 4096))
        benefits = [p.benefit_nj for p in points]
        assert benefits == sorted(benefits)

    def test_saving_fraction_bounded(self, reuse_model):
        for point in explore(reuse_model):
            assert 0.0 <= point.saving_fraction <= 1.0

    def test_used_bytes_within_capacity(self, reuse_model):
        for point in explore(reuse_model):
            assert point.used_bytes <= point.capacity_bytes

    def test_baseline_positive(self, reuse_model):
        assert model_baseline_energy(reuse_model, EnergyModel()) > 0

    def test_large_capacity_captures_reuse(self, reuse_model):
        point = explore(reuse_model, capacities=(16384,))[0]
        assert point.buffer_count >= 1
        assert point.benefit_nj > 0
