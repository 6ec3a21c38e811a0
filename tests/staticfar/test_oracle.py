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


def _indexed(index: str, setup: str = "", iterator: str = "int") -> str:
    """A 30-iteration loop reading ``a[index]``, after ``setup``."""
    return f"""
int a[64];
int main() {{
    {iterator} i;
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
        "i * 65536 * 65536 + i + 5",
    ])
    def test_folded_constants_wrap_to_int(self, index):
        # Both engines wrap an int product or shift to 32 bits, so each
        # index is a[i + 5]; folding on unbounded ints, constants or
        # iterator coefficients, was a false MISMATCH.
        report = static_workload("wrap", _indexed(index),
                                 config=self.RELAXED)
        assert report.ok, report.oracle.diff_lines()
        assert report.oracle.matched == 1

    def test_folded_constants_wrap_through_registers(self):
        # The analyzer folds register constants too: k * k is 0 in int,
        # as a constant term and as a coefficient of i.
        for index in ("i + k * k + 5", "i * k * k + i + 5"):
            report = static_workload(
                "wrap", _indexed(index, setup="k = 65536;"),
                config=self.RELAXED)
            assert report.ok, (index, report.oracle.diff_lines())
            assert report.oracle.matched == 1

    @pytest.mark.parametrize("setup", [
        "char c; c = 260;",
        "unsigned char c; c = 260;",
        "short c = 65541;",
        "char c = 127; c++;",
        "char c = 100; c += 60;",
        "int c = 65536; c *= 65536;",
    ])
    def test_register_constants_wrap_to_their_type(self, setup):
        # The engines store a value into a register at the variable's
        # type (c holds 4, 4, 5, -128, -96 and 0), so a constant bound
        # to it wraps the same way.
        report = static_workload("narrow", _indexed("i + c", setup=setup),
                                 config=self.RELAXED)
        assert report.ok, report.oracle.diff_lines()
        assert report.oracle.matched == 1

    def test_constant_argument_wraps_to_parameter_type(self):
        # f(260) binds 4 to a char parameter.
        source = """
int a[64];
int f(char p) {
    int i;
    int s = 0;
    for (i = 0; i < 30; i++) { s = s + a[i + p]; }
    return s;
}
int main() { return f(260); }
"""
        report = static_workload("param", source, config=self.RELAXED)
        assert report.ok, report.oracle.diff_lines()
        assert report.oracle.matched == 1

    @pytest.mark.parametrize("index", ["40 - i", "i * 4294967295u + 40"])
    def test_unsigned_index_steps_keep_their_sign(self, index):
        # An unsigned index wraps modulo 2**32, as the element address
        # does: a[40 - i] steps down by one int, not up by 2**32 - 1.
        report = static_workload("down", _indexed(index, iterator="unsigned"),
                                 config=self.RELAXED)
        assert report.ok, report.oracle.diff_lines()
        assert report.oracle.matched == 1


    @pytest.mark.parametrize("index", [
        "i * 65536 * 65536 + i + 5",
        "i * 4294967297 + 5",
        "4294967296 + i",
    ])
    def test_long_index_addresses_wrap_to_32_bits(self, index):
        # With a 64-bit index the products stay unwrapped, but both
        # engines take every element address modulo 2**32, so these
        # read a[i + 5], a[i + 5] and a[i]: a byte constant or stride
        # kept unreduced was a false MISMATCH.
        report = static_workload("long", _indexed(index, iterator="long"),
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
