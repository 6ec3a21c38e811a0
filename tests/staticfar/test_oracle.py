"""The full static-vs-dynamic differential matrix.

Every registered workload runs against every scenario input; the static
model must agree exactly with the dynamic extraction on every FORAY-form
reference, refuse (never mis-model) everything else, and reproduce the
dynamic model's SPM allocation over the shared references. A smaller
cross-engine slice repeats the check against the AST interpreter so the
oracle verdict is engine-independent.
"""

import pytest

from repro.pipeline import PipelineConfig, static_suite, static_workload
from repro.staticfar.model import REFUSAL_REASONS
from repro.staticfar.oracle import CONTEXTUAL_REASONS
from repro.workloads.registry import MIBENCH_WORKLOADS, get_workload

#: Coverage floors per workload (fraction of dynamic references the static
#: model reproduces exactly, nominal input). The point of Table II is that
#: coverage is partial — these pin the floor without freezing the decimals.
EXPECTED_COVERAGE = {
    "jpeg": 0.10,
    "lame": 0.30,
    "susan": 0.30,
    "fft": 0.90,
    "gsm": 0.10,
    "adpcm": 0.0,  # fully data/control-dependent: everything refused
    "mpeg2": 0.10,
}


@pytest.fixture(scope="module")
def matrix():
    """Every (workload x scenario) oracle cell, computed once."""
    reports = static_suite()
    return reports


class TestFullMatrix:
    def test_matrix_covers_every_workload_and_scenario(self, matrix):
        cells = {(r.name, r.scenario) for r in matrix}
        for name, workload in MIBENCH_WORKLOADS.items():
            scenarios = workload.scenario_names() or ["-"]
            for scenario in scenarios:
                assert (name, scenario) in cells
        assert len(cells) == len(matrix)  # no duplicate cells

    def test_every_cell_agrees(self, matrix):
        bad = [f"{r.name}/{r.scenario}: " + "; ".join(r.oracle.diff_lines())
               for r in matrix if not r.ok]
        assert not bad, "\n".join(bad)

    def test_no_silent_gaps_or_phantoms(self, matrix):
        for report in matrix:
            assert not report.oracle.unexplained
            assert not report.oracle.phantoms
            assert not report.oracle.mismatches
            assert not report.oracle.allocation_diffs

    def test_refusal_reasons_are_stable_strings(self, matrix):
        for report in matrix:
            assert set(report.static.refusal_histogram) <= set(REFUSAL_REASONS)

    def test_foray_gap_is_contextual_only(self, matrix):
        # A detector-analyzable reference the static model refuses is only
        # acceptable for whole-program context reasons (the paper's static
        # gap); a non-contextual refusal would be a modeling bug and shows
        # up as a detector conflict.
        for report in matrix:
            assert not report.oracle.detector_conflicts
            for _node_id, reason in report.oracle.foray_gap:
                assert reason in CONTEXTUAL_REASONS

    def test_coverage_floors(self, matrix):
        worst: dict[str, float] = {}
        for report in matrix:
            coverage = report.oracle.coverage
            worst[report.name] = min(worst.get(report.name, 1.0), coverage)
        for name, floor in EXPECTED_COVERAGE.items():
            assert worst[name] >= floor, (name, worst[name])

    def test_adpcm_refuses_rather_than_mismodels(self, matrix):
        # The known all-non-FORAY workload: zero coverage must come from
        # explicit refusals, never from wrong models slipping through.
        cells = [r for r in matrix if r.name == "adpcm"]
        assert cells
        for report in cells:
            assert report.oracle.matched == 0
            assert report.static.refused_count > 0
            assert report.ok  # all gaps explained, nothing mis-modeled

    def test_partially_covered_workloads_match_nontrivially(self, matrix):
        # jpeg and fft both have real static coverage: the oracle must be
        # comparing actual matched references, not vacuously passing.
        for name in ("jpeg", "fft"):
            nominal = [r for r in matrix if r.name == name]
            assert any(r.oracle.matched > 0 for r in nominal)


class TestFanOut:
    def test_parallel_matches_serial(self):
        config = PipelineConfig(cache=False)
        serial = static_suite(("adpcm",), jobs=1, config=config)
        parallel = static_suite(("adpcm",), jobs=2, config=config)
        assert len(serial) == len(get_workload("adpcm").scenarios)
        assert parallel == serial


class TestCrossEngine:
    @pytest.mark.parametrize("name", sorted(MIBENCH_WORKLOADS))
    def test_oracle_verdict_identical_on_ast_engine(self, name):
        workload = get_workload(name)
        bytecode = static_workload(name, workload.source,
                                   config=PipelineConfig(cache=False))
        ast = static_workload(name, workload.source,
                              config=PipelineConfig(cache=False,
                                                    engine="ast"))
        assert bytecode.ok and ast.ok
        assert ast.oracle.matched == bytecode.oracle.matched
        assert ast.oracle.dynamic_total == bytecode.oracle.dynamic_total
        assert ast.oracle.foray_gap == bytecode.oracle.foray_gap
