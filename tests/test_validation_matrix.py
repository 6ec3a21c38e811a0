"""Tests for the input-scenario matrix and the cross-input validation
pipeline: scenario declarations, ``validate_workload``, the per-workload
fan-out, the validation nodes, the stability table and the CLI."""

from dataclasses import replace

import pytest

import repro.pipeline as pipeline
from repro.analysis.report import format_stability_table
from repro.foray.extractor import ForayExtractor
from repro.pipeline import (
    PipelineConfig,
    ValidationConfig,
    _memos,
    cached_exploration,
    clear_caches,
    extract_foray_model,
    full_flow,
    validate_suite,
    validate_workload,
)
from repro.sim.machine import compile_program
from repro.workloads.registry import MIBENCH_WORKLOADS, get_workload

QUICK_VALIDATION = ValidationConfig(max_scenarios=2)


@pytest.fixture(scope="session")
def matrix_results():
    """The full (workload x scenario) matrix, shared by every test."""
    return validate_suite(config=PipelineConfig(jobs=2))


class TestScenarioDeclarations:
    @pytest.mark.parametrize("name", sorted(MIBENCH_WORKLOADS))
    def test_at_least_three_scenarios(self, name):
        workload = MIBENCH_WORKLOADS[name]
        assert len(workload.scenarios) >= 3
        assert len(set(workload.scenario_names())) == len(workload.scenarios)

    @pytest.mark.parametrize("name", sorted(MIBENCH_WORKLOADS))
    def test_nominal_scenario_renders_legacy_source(self, name):
        workload = MIBENCH_WORKLOADS[name]
        assert workload.profile_scenario is workload.scenarios[0]
        assert workload.source_for(workload.scenarios[0]) == workload.source

    @pytest.mark.parametrize("name", sorted(MIBENCH_WORKLOADS))
    def test_scenarios_share_one_ast_skeleton(self, name):
        # Source parameters may only change literals: every scenario must
        # produce the same checkpoint map, or cross-scenario replay could
        # not match references by (loop path, pc).
        workload = MIBENCH_WORKLOADS[name]
        nominal = compile_program(workload.source).checkpoint_map
        for scenario in workload.scenarios[1:]:
            compiled = compile_program(workload.source_for(scenario))
            assert compiled.checkpoint_map == nominal, scenario.name

    def test_unknown_scenario_lists_known(self):
        workload = get_workload("adpcm")
        with pytest.raises(KeyError, match="nominal"):
            workload.scenario("symphony")


class TestMatrixResults:
    def test_covers_whole_suite(self, matrix_results):
        assert [r.workload for r in matrix_results] == list(MIBENCH_WORKLOADS)
        for result in matrix_results:
            assert result.scenario_count >= 3
            assert len(result.cross) == result.scenario_count - 1

    def test_full_references_self_validate_perfectly(self, matrix_results):
        for result in matrix_results:
            assert result.self_validation.full_accuracy == 1.0, result.workload
            assert result.self_validation.overall_accuracy == 1.0

    def test_cross_reports_cover_every_model_reference(self, matrix_results):
        for result in matrix_results:
            refs = len(result.self_validation.per_reference)
            assert refs >= 1
            for cell in result.cross:
                assert len(cell.report.per_reference) == refs
                assert cell.profile == result.profile
                assert cell.workload == result.workload

    def test_suite_models_transfer_across_inputs(self, matrix_results):
        # The operational answer to the paper's open question: the suite's
        # access patterns are input-independent, so every scenario replay
        # predicts essentially all exercised accesses.
        for result in matrix_results:
            assert result.min_accuracy >= 0.95, result.workload
            assert result.passes(threshold=0.95)

    def test_stability_table_renders(self, matrix_results):
        table = format_stability_table(matrix_results, threshold=0.5)
        for name in MIBENCH_WORKLOADS:
            assert name in table
        assert "worst ref" in table and "self-full%" in table
        assert "LOW" not in table


class TestMatrixFanOut:
    def test_parallel_matches_serial(self):
        names = ("adpcm", "fft")
        config = PipelineConfig(cache=False)
        serial = validate_suite(names, config=config)
        parallel = validate_suite(names, config=replace(config, jobs=2))
        assert serial == parallel

    def test_scenario_truncation(self):
        config = PipelineConfig(validation=QUICK_VALIDATION)
        result = validate_workload("adpcm", config=config)
        assert result.scenario_count == 2
        assert len(result.cross) == 1

    def test_explicit_scenario_subset_and_profile(self):
        # The profile comes first, then the declared scenarios in order.
        config = PipelineConfig(validation=ValidationConfig(
            profile="silence", max_scenarios=2))
        result = validate_workload("adpcm", config=config)
        assert result.profile == "silence"
        assert [cell.scenario for cell in result.cross] == ["nominal"]

    def test_workload_without_scenarios_rejected(self):
        with pytest.raises(ValueError, match="no scenario matrix"):
            validate_workload("fig1a")

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_suite_rejects_before_any_simulation(self, jobs, monkeypatch):
        # Every workload and its scenarios are resolved before the
        # fan-out: a workload without a scenario matrix, or a bad
        # profile, fails the matrix before any workload's cells run.
        def no_simulation(*_args, **_kwargs):
            raise AssertionError("simulated before the matrix was resolved")

        monkeypatch.setattr(pipeline, "run_compiled", no_simulation)
        config = PipelineConfig(cache=False, jobs=jobs)
        with pytest.raises(ValueError, match="fig1a.*no scenario matrix"):
            validate_suite(("adpcm", "fig1a"), config=config)
        with pytest.raises(ValueError, match="jpeg.*silence"):
            validate_suite(("adpcm", "jpeg"), config=replace(
                config, validation=ValidationConfig(profile="silence")))

    def test_undeclared_profile_rejected_cleanly(self):
        # 'silence' exists on adpcm but not on jpeg: the error must name
        # the workload instead of crashing with a raw KeyError.
        config = PipelineConfig(
            validation=ValidationConfig(profile="silence"))
        with pytest.raises(ValueError, match="jpeg.*silence"):
            validate_workload("jpeg", config=config)

    def test_scenarios_below_two_rejected(self):
        config = PipelineConfig(validation=ValidationConfig(max_scenarios=1))
        with pytest.raises(ValueError, match="max_scenarios must be >= 2"):
            validate_workload("adpcm", config=config)


class TestValidationCache:
    def test_replays_memoized(self):
        clear_caches()
        config = PipelineConfig(validation=QUICK_VALIDATION)
        validate_workload("adpcm", config=config)
        misses = _memos["validation"].misses
        hits = _memos["validation"].hits
        validate_workload("adpcm", config=config)
        assert _memos["validation"].misses == misses
        assert _memos["validation"].hits > hits
        clear_caches()

    def test_profile_extracted_once_without_cache(self, monkeypatch):
        # cache=False memoizes no extraction: the one profile model is
        # handed to every replay instead of re-extracted per cell.
        clear_caches()
        real = pipeline.run_compiled
        extracting = []

        def wrapper(compiled, sinks=(), *args, **kwargs):
            if any(isinstance(sink, ForayExtractor) for sink in sinks):
                extracting.append(compiled.source)
            return real(compiled, sinks, *args, **kwargs)

        monkeypatch.setattr(pipeline, "run_compiled", wrapper)
        result = validate_workload("adpcm", config=PipelineConfig(cache=False))
        assert len(result.cross) == 3
        assert extracting == [get_workload("adpcm").source]

    def test_cache_keyed_by_scenario_input(self):
        clear_caches()
        validate_workload("adpcm", config=PipelineConfig())
        # Every matrix cell (self + 3 cross) is a node of its own.
        assert len(_memos["validation"]) == 4
        clear_caches()


class TestValidateStage:
    """Cross-input validation of one workload: ``validate_workload`` is
    its one entry point, and ``full_flow`` (Phases I+II) runs none."""

    def test_stage_disabled_by_default(self):
        clear_caches()
        workload = get_workload("adpcm")
        config = PipelineConfig(validation=QUICK_VALIDATION)
        flow = full_flow("adpcm", workload.source, config=config)
        assert not hasattr(flow, "validation")
        assert len(_memos["validation"]) == 0  # no scenario replayed
        clear_caches()

    def test_stage_populates_validation(self):
        config = PipelineConfig(validation=QUICK_VALIDATION)
        validation = validate_workload("adpcm", config=config)
        assert validation.workload == "adpcm"
        assert validation.self_validation.full_accuracy == 1.0
        assert validation.passes()

    def test_vacuous_cross_cell_fails_the_gate(self):
        from repro.foray.validate import (
            ScenarioValidation,
            ValidationReport,
            WorkloadValidation,
        )

        empty = ValidationReport()  # zero references, nothing scored
        result = WorkloadValidation(
            workload="demo", profile="nominal", scenario_count=2,
            self_validation=empty,
            cross=(ScenarioValidation("demo", "other", "nominal",
                                      "bytecode", empty),),
        )
        # overall_accuracy is vacuously 1.0, but the gate must fail.
        assert result.min_accuracy == 1.0
        assert not result.passes()


def ladder(config, *capacities):
    """``config`` sweeping ``capacities``."""
    return replace(config, spm=replace(config.spm, capacities=capacities))


class TestLadderNormalization:
    def test_exploration_key_canonicalizes_ladders(self):
        clear_caches()
        config = PipelineConfig()
        source = "int main() { return 0; }"
        model = extract_foray_model(source, config=config).model
        memo = _memos["exploration"]
        cached_exploration(source, ladder(config, 4096, 256, 256, 1024),
                           model)
        hits = memo.hits
        cached_exploration(source, ladder(config, 256, 1024, 4096), model)
        assert (len(memo), memo.hits) == (1, hits + 1)
        cached_exploration(source, ladder(config, 256, 1024), model)
        assert len(memo) == 2
        clear_caches()

    def test_cached_exploration_shares_equivalent_ladders(self):
        clear_caches()
        config = PipelineConfig()
        workload = get_workload("adpcm")
        model = extract_foray_model(workload.source, config=config).model
        first = cached_exploration(workload.source,
                                   ladder(config, 1024, 256), model)
        hits = _memos["exploration"].hits
        second = cached_exploration(workload.source,
                                    ladder(config, 256, 1024, 256), model)
        assert second is first  # one node for equivalent ladders
        assert _memos["exploration"].hits > hits
        assert [p.capacity_bytes for p in first] == [256, 1024]
        clear_caches()


class TestCli:
    def test_validate_command(self, capsys):
        from repro.cli import main

        assert main(["validate", "adpcm", "--scenarios", "2"]) == 0
        out = capsys.readouterr().out
        assert "Cross-input stability" in out
        assert "adpcm" in out and "ok" in out

    def test_suite_validate_flag(self, capsys):
        from repro.cli import main

        assert main(["suite", "adpcm", "--validate", "--scenarios", "2",
                     "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "Cross-input stability" in out

    def test_threshold_gates_exit_code(self, capsys):
        from repro.cli import main

        # An impossible threshold must flip the exit code (and the
        # status column), without crashing the run.
        assert main(["validate", "adpcm", "--scenarios", "2",
                     "--threshold", "1.1"]) == 1
        assert "LOW" in capsys.readouterr().out

    def test_undeclared_profile_is_clean_cli_error(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="validate: .*silence"):
            main(["validate", "jpeg", "--profile", "silence"])

    def test_scenarios_one_is_clean_cli_error(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="max_scenarios must be >= 2"):
            main(["validate", "adpcm", "--scenarios", "1"])

    def test_ladder_rejects_zero_capacity(self):
        from repro.cli import _parse_ladder

        with pytest.raises(SystemExit, match="invalid capacity ladder"):
            _parse_ladder("0,1024")
        with pytest.raises(SystemExit, match="invalid capacity ladder"):
            _parse_ladder("-256")

    def test_ladder_normalized(self):
        from repro.cli import _parse_ladder

        assert _parse_ladder("4096,256,256,1024") == (256, 1024, 4096)
