"""The full static-vs-dynamic differential matrix.

Every registered workload runs against every scenario input; the static
model must agree exactly with the dynamic extraction on every FORAY-form
reference, refuse (never mis-model) everything else, and reproduce the
dynamic model's SPM allocation over the shared references. A smaller
cross-engine slice repeats the check against the AST interpreter so the
oracle verdict is engine-independent.
"""

from dataclasses import replace

import pytest

from repro.foray.filters import FilterConfig
from repro.pipeline import (
    PipelineConfig,
    run_workload,
    static_suite,
    static_workload,
)
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
        # Two workloads, so the pool runs one call in each process.
        names = ("fig9", "adpcm")
        config = PipelineConfig(cache=False)
        serial = static_suite(names, config=config)
        parallel = static_suite(names, config=replace(config, jobs=2))
        assert [(r.name, r.scenario) for r in serial] == [("fig9", "-")] + [
            ("adpcm", name)
            for name in get_workload("adpcm").scenario_names()]
        assert parallel == serial


def _indexed(index: str, setup: str = "") -> str:
    """A 30-iteration loop reading ``a[index]``, after ``setup``."""
    return f"""
int a[64];
int main() {{
    int i;
    int k;
    int s = 0;
    {setup}
    for (i = 0; i < 30; i++) {{
        s = s + a[{index}];
    }}
    return s;
}}
"""


class TestCConstantFolding:
    """Constant index terms fold as C computes them: ``/`` truncates
    toward zero, a folded result wraps to its int type, and a shift by
    a negative count is left unfolded (the reference is refused) instead
    of crashing the analysis."""

    RELAXED = PipelineConfig(cache=False,
                             filter_config=FilterConfig(nexec=1, nloc=1))

    def test_division_truncates_toward_zero(self):
        # (0 - 7) / 2 is -3 in C; flooring it to -4 was a false MISMATCH.
        report = static_workload("div", _indexed("i + (0 - 7) / 2 + 5"),
                                 config=self.RELAXED)
        assert report.ok, report.oracle.diff_lines()
        assert report.oracle.matched == 1

    def test_negative_shift_literal_is_not_folded(self):
        source = _indexed("i + (1 << (0 - 1)) + 5")
        report = run_workload("shift", source, config=self.RELAXED)
        assert report.table2.refs_in_model == 1
        assert report.table2.refs_in_source_form == 0
        assert static_workload("shift", source, config=self.RELAXED).ok

    def test_negative_shift_through_a_constant_is_not_folded(self):
        report = static_workload(
            "shift", _indexed("i + (1 << k) + 5", setup="k = 0 - 1;"),
            config=self.RELAXED)
        assert report.ok, report.oracle.diff_lines()
        assert report.oracle.matched == 0

    @pytest.mark.parametrize("index", [
        "i + 65536 * 65536 + 5",
        "i + (1 << 32) + 5",
    ])
    def test_folded_constants_wrap_to_int(self, index):
        # Both engines wrap an int product or shift to 32 bits, so each
        # index is a[i + 5]; folding on unbounded ints was a false
        # MISMATCH.
        report = static_workload("wrap", _indexed(index),
                                 config=self.RELAXED)
        assert report.ok, report.oracle.diff_lines()
        assert report.oracle.matched == 1

    def test_folded_constants_wrap_through_registers(self):
        # The analyzer folds register constants too: k * k is 0 in int.
        report = static_workload(
            "wrap", _indexed("i + k * k + 5", setup="k = 65536;"),
            config=self.RELAXED)
        assert report.ok, report.oracle.diff_lines()
        assert report.oracle.matched == 1


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
