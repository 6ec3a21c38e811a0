"""Tests for the top-level pipeline API (Phases I and II)."""

import pytest

from repro.foray.filters import FilterConfig
from repro.pipeline import (
    PipelineConfig,
    SpmConfig,
    extract_foray_model,
    full_flow,
    run_workload,
)
from repro.spm.energy import EnergyModel
from repro.workloads.registry import get_workload

REUSE_SOURCE = """
int table[256];
int out[8192];
int main() {
    int rep, i;
    for (i = 0; i < 256; i++) { table[i] = i * 3; }
    for (rep = 0; rep < 32; rep++) {
        for (i = 0; i < 256; i++) {
            out[256 * rep + i] = table[i] + rep;
        }
    }
    return 0;
}
"""


class TestExtractionAPI:
    def test_extraction_result_fields(self):
        result = extract_foray_model(REUSE_SOURCE)
        assert result.model.reference_count >= 2
        assert result.run_result.exit_code == 0
        assert len(result.compiled.checkpoint_map) > 0
        assert "for (int" in result.foray_source

    def test_custom_filter_respected(self):
        strict = extract_foray_model(REUSE_SOURCE, config=PipelineConfig(
            filter_config=FilterConfig(nexec=10_000, nloc=1)))
        assert len(strict.model.references) < len(
            extract_foray_model(REUSE_SOURCE).model.references
        )

    def test_max_steps_forwarded(self):
        from repro.sim.interpreter import ExecLimitExceeded

        with pytest.raises(ExecLimitExceeded):
            extract_foray_model(REUSE_SOURCE,
                                config=PipelineConfig(max_steps=100))


class TestWorkloadReport:
    def test_report_components(self):
        report = run_workload("demo", REUSE_SOURCE)
        assert report.name == "demo"
        assert report.census.total_loops == 3
        assert report.table2.refs_in_model == report.model.reference_count
        assert report.table3.total_accesses > 0

    def test_workload_registry_roundtrip(self):
        workload = get_workload("adpcm")
        report = run_workload(workload.name, workload.source)
        assert report.table2.refs_in_model == 1

    def test_unknown_workload(self):
        with pytest.raises(KeyError):
            get_workload("doom")


def _spm(spm_bytes: int, energy: EnergyModel = EnergyModel()
         ) -> PipelineConfig:
    return PipelineConfig(spm=SpmConfig(spm_bytes=spm_bytes, energy=energy))


class TestFullFlow:
    def test_flow_produces_allocation_and_transform(self):
        flow = full_flow("demo", REUSE_SOURCE, config=_spm(2048))
        assert flow.allocation.capacity_bytes == 2048
        assert flow.allocation.buffer_count >= 1
        assert flow.energy_saving_nj > 0
        assert "dma_copy" in flow.transformed_source

    def test_flow_respects_energy_model(self):
        generous = full_flow("demo", REUSE_SOURCE, config=_spm(
            2048, EnergyModel(main_read_nj=100.0, main_write_nj=100.0)))
        default = full_flow("demo", REUSE_SOURCE, config=_spm(2048))
        assert generous.energy_saving_nj > default.energy_saving_nj

    def test_tiny_spm_yields_no_buffers(self):
        flow = full_flow("demo", REUSE_SOURCE, config=_spm(8))
        assert flow.allocation.buffer_count == 0
        assert flow.energy_saving_nj == 0

    def test_spm_value_of_foray_gen(self):
        # The motivating end-to-end claim: with the FORAY model extracted
        # from a *pointer-walking* program, the SPM phase still finds the
        # reuse that static analysis could not even see.
        pointer_source = """
        int table[256];
        int out[8192];
        int main() {
            int rep;
            for (rep = 0; rep < 32; rep++) {
                int *tp = table;
                int *op = out + 256 * rep;
                int n = 0;
                while (n < 256) {
                    *op++ = *tp++ + rep;
                    n++;
                }
            }
            return 0;
        }
        """
        flow = full_flow("ptr", pointer_source, config=_spm(2048))
        # Static analysis sees nothing...
        assert flow.report.table2.refs_in_source_form == 0
        # ...but the flow still finds a profitable buffer.
        assert flow.allocation.buffer_count >= 1
        assert flow.energy_saving_nj > 0
