"""Tests for the input-scenario matrix and the cross-input validation
pipeline: scenario declarations, the validate stage, the (workload x
scenario) fan-out, the artifact cache, the stability table and the CLI."""

import pytest

import repro.pipeline as pipeline
from repro.analysis.report import format_stability_table
from repro.foray.extractor import ForayExtractor
from repro.pipeline import (
    PipelineConfig,
    PipelineContext,
    ValidationConfig,
    clear_caches,
    exploration_key,
    full_flow,
    run_stages,
    validate_suite,
    validate_workload,
    validation_cache,
)
from repro.sim.machine import compile_program
from repro.workloads.registry import MIBENCH_WORKLOADS, get_workload

QUICK_VALIDATION = ValidationConfig(enabled=True, max_scenarios=2)


@pytest.fixture(scope="session")
def matrix_results():
    """The full (workload x scenario) matrix, shared by every test."""
    return validate_suite(jobs=2)


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
        config = PipelineConfig(cache=False,
                                validation=ValidationConfig(enabled=True))
        serial = validate_suite(names, jobs=1, config=config)
        parallel = validate_suite(names, jobs=2, config=config)
        assert serial == parallel

    def test_scenario_truncation(self):
        config = PipelineConfig(
            validation=ValidationConfig(enabled=True, max_scenarios=2))
        result = validate_workload("adpcm", config=config)
        assert result.scenario_count == 2
        assert len(result.cross) == 1

    def test_explicit_scenario_subset_and_profile(self):
        config = PipelineConfig(validation=ValidationConfig(
            enabled=True, scenarios=("nominal", "silence"),
            profile="silence"))
        result = validate_workload("adpcm", config=config)
        assert result.profile == "silence"
        assert [cell.scenario for cell in result.cross] == ["nominal"]

    def test_workload_without_scenarios_rejected(self):
        with pytest.raises(ValueError, match="no scenario matrix"):
            validate_workload("fig1a")

    def test_undeclared_profile_rejected_cleanly(self):
        # 'silence' exists on adpcm but not on jpeg: the error must name
        # the workload instead of crashing with a raw KeyError.
        config = PipelineConfig(validation=ValidationConfig(
            enabled=True, profile="silence"))
        with pytest.raises(ValueError, match="jpeg.*silence"):
            validate_workload("jpeg", config=config)

    def test_scenarios_below_two_rejected(self):
        config = PipelineConfig(validation=ValidationConfig(
            enabled=True, max_scenarios=1))
        with pytest.raises(ValueError, match="max_scenarios must be >= 2"):
            validate_workload("adpcm", config=config)


class TestValidationCache:
    def test_replays_memoized(self):
        clear_caches()
        config = PipelineConfig(validation=ValidationConfig(
            enabled=True, max_scenarios=2))
        validate_workload("adpcm", config=config)
        misses = validation_cache.misses
        hits = validation_cache.hits
        validate_workload("adpcm", config=config)
        assert validation_cache.misses == misses
        assert validation_cache.hits > hits
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
        config = PipelineConfig(validation=ValidationConfig(enabled=True))
        validate_workload("adpcm", config=config)
        # Every matrix cell (self + 3 cross) entered the cache separately.
        assert len(validation_cache) == 4
        clear_caches()


class TestValidateStage:
    def test_stage_disabled_by_default(self):
        workload = get_workload("adpcm")
        ctx = PipelineContext(workload.source, PipelineConfig(),
                              name="adpcm")
        run_stages(ctx, upto="validate")
        assert ctx.validation is None

    def test_stage_populates_validation(self):
        workload = get_workload("adpcm")
        config = PipelineConfig(validation=QUICK_VALIDATION)
        ctx = PipelineContext(workload.source, config, name="adpcm")
        run_stages(ctx, upto="validate")
        assert ctx.validation is not None
        assert ctx.validation.workload == "adpcm"
        assert ctx.validation.self_validation.full_accuracy == 1.0

    def test_stage_skips_adhoc_sources(self):
        source = "int main() { return 0; }"
        config = PipelineConfig(validation=QUICK_VALIDATION)
        ctx = PipelineContext(source, config, name="<anonymous>")
        run_stages(ctx, upto="validate")
        assert ctx.validation is None

    def test_stage_skips_modified_source_under_registry_name(self):
        # A modified source run under a registry name must not be
        # silently "validated" against the pristine registry program.
        config = PipelineConfig(validation=QUICK_VALIDATION)
        ctx = PipelineContext("int main() { return 0; }", config,
                              name="adpcm")
        run_stages(ctx, upto="validate")
        assert ctx.validation is None

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

    def test_full_flow_carries_validation(self):
        workload = get_workload("adpcm")
        config = PipelineConfig(validation=QUICK_VALIDATION)
        flow = full_flow("adpcm", workload.source, config=config)
        assert flow.validation is not None
        assert flow.validation.passes()


class TestLadderNormalization:
    def test_exploration_key_canonicalizes_ladders(self):
        config = PipelineConfig()
        source = "int main() { return 0; }"
        scrambled = exploration_key(source, config, (4096, 256, 256, 1024),
                                    "dp", None)
        sorted_key = exploration_key(source, config, (256, 1024, 4096),
                                     "dp", None)
        assert scrambled == sorted_key
        other = exploration_key(source, config, (256, 1024), "dp", None)
        assert other != sorted_key

    def test_cached_exploration_shares_equivalent_ladders(self):
        from repro.pipeline import cached_exploration, exploration_cache
        from repro.workloads.registry import get_workload

        clear_caches()
        config = PipelineConfig()
        workload = get_workload("adpcm")
        from repro.pipeline import extract_foray_model

        model = extract_foray_model(workload.source, config=config).model
        first = cached_exploration(workload.source, config, model,
                                   capacities=(1024, 256))
        hits = exploration_cache.hits
        second = cached_exploration(workload.source, config, model,
                                    capacities=(256, 1024, 256))
        assert second is first  # one cache entry for equivalent ladders
        assert exploration_cache.hits > hits
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
