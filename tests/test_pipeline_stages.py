"""Tests for the pipeline: its flow, config, artifact memo, parallelism."""

from dataclasses import replace

import pytest

from repro.pipeline import (
    ArtifactCache,
    PipelineConfig,
    SpmConfig,
    _compiled,
    _memos,
    clear_caches,
    extract_foray_model,
    full_flow,
    run_suite,
    run_workload,
)
from repro.spm.energy import EnergyModel

SOURCE = """
int table[64];
int out[256];
int main() {
    int rep, i;
    for (i = 0; i < 64; i++) { table[i] = i; }
    for (rep = 0; rep < 4; rep++) {
        for (i = 0; i < 64; i++) { out[64 * rep + i] = table[i] + rep; }
    }
    return 0;
}
"""


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_caches()
    yield
    clear_caches()


class TestStageRegistry:
    """``full_flow`` composes every artifact of the flow."""

    def test_full_run_populates_all_artifacts(self):
        flow = full_flow("demo", SOURCE, config=PipelineConfig())
        assert flow.report.name == "demo"
        assert len(flow.report.extraction.compiled.checkpoint_map) > 0
        assert flow.graph is not None and flow.allocation is not None
        assert flow.transformed_source


class TestArtifactCache:
    def test_extraction_cached_by_content(self):
        extract_foray_model(SOURCE)
        misses = _memos["extraction"].misses
        first = extract_foray_model(SOURCE)
        second = extract_foray_model(SOURCE)
        assert second is first  # memoized artifact
        assert _memos["extraction"].hits >= 2
        assert _memos["extraction"].misses == misses

    def test_cache_key_includes_run_configuration(self):
        default = extract_foray_model(SOURCE)
        other_engine = extract_foray_model(
            SOURCE, config=PipelineConfig(engine="ast"))
        assert other_engine is not default
        assert other_engine.model == default.model  # engine parity

    def test_no_cache_bypasses(self):
        # cache=False reuses no simulated artifact; the compiled program,
        # a pure function of the source text, is still shared in process.
        config = PipelineConfig(cache=False)
        first = extract_foray_model(SOURCE, config=config)
        second = extract_foray_model(SOURCE, config=config)
        assert second is not first
        assert second.compiled is first.compiled
        assert len(_memos["extraction"]) == 0

    def test_report_reads_the_compile_node_in_memory(self):
        # An extraction can outlive its compile node in the LRUs; the
        # report must pair the model with the compile node the detector
        # filled, never with a program that has no detector result.
        extract_foray_model(SOURCE)
        _memos["compile"].clear()
        report = run_workload("demo", SOURCE)
        assert report.extraction.compiled is _compiled(SOURCE,
                                                       PipelineConfig())
        assert report.static_result is report.extraction.compiled.detector

    def test_compile_cache_shared_across_filter_configs(self):
        from repro.foray.filters import FilterConfig

        first = extract_foray_model(SOURCE)
        strict = extract_foray_model(SOURCE, config=PipelineConfig(
            filter_config=FilterConfig(nexec=10_000)))
        assert strict.compiled is first.compiled  # one compiled artifact
        assert len(strict.model.references) < len(first.model.references)


class TestArtifactCacheLru:
    def test_hit_refreshes_recency(self):
        # Regression: get() used to leave recency untouched, so the
        # "LRU" cache evicted in FIFO order under mixed hit/miss loads.
        cache = ArtifactCache("t", max_entries=2)
        cache.put("a", "A")
        cache.put("b", "B")
        assert cache.get("a") == "A"  # refreshes a
        cache.put("c", "C")           # must evict b, the true LRU
        assert cache.get("a") == "A"
        assert cache.get("b") is None
        assert cache.get("c") == "C"

    def test_overwrite_refreshes_recency(self):
        cache = ArtifactCache("t", max_entries=2)
        cache.put("a", "A")
        cache.put("b", "B")
        cache.put("a", "A2")  # refresh by overwrite
        cache.put("c", "C")
        assert cache.get("a") == "A2"
        assert cache.get("b") is None

    def test_capacity_still_bounded(self):
        cache = ArtifactCache("t", max_entries=3)
        for index in range(10):
            cache.put(str(index), index)
        assert len(cache) == 3


class TestSpmThroughPipeline:
    def test_config_capacity_and_policy(self):
        config = PipelineConfig(
            spm=SpmConfig(spm_bytes=1024, allocator="greedy"))
        flow = full_flow("demo", SOURCE, config=config)
        assert flow.allocation.capacity_bytes == 1024
        assert flow.allocation.policy == "greedy"
        assert flow.graph is not None and flow.graph.node_count >= 1
        assert flow.exploration is None  # sweep not requested

    def test_sweep_enters_artifact_cache(self):
        ladder = (256, 1024, 4096, 16384)
        config = PipelineConfig(
            spm=SpmConfig(sweep=True, capacities=ladder))
        flow = full_flow("demo", SOURCE, config=config)
        assert flow.exploration is not None
        assert [p.capacity_bytes for p in flow.exploration] == list(ladder)
        hits = _memos["exploration"].hits
        again = full_flow("demo", SOURCE, config=config)
        assert again.exploration is flow.exploration  # memoized artifact
        assert _memos["exploration"].hits > hits

    def test_sweep_cache_keyed_by_policy(self):
        ladder = (256, 1024)
        dp = full_flow("demo", SOURCE, config=PipelineConfig(
            spm=SpmConfig(sweep=True, capacities=ladder)))
        greedy = full_flow("demo", SOURCE, config=PipelineConfig(
            spm=SpmConfig(sweep=True, capacities=ladder,
                          allocator="greedy")))
        assert dp.exploration is not greedy.exploration
        assert {p.policy for p in greedy.exploration} == {"greedy"}

    def test_energy_override_scales_benefit(self):
        pricey = EnergyModel(main_read_nj=50.0, main_write_nj=50.0)
        base = full_flow("demo", SOURCE, config=PipelineConfig())
        boosted = full_flow("demo", SOURCE, config=PipelineConfig(
            spm=SpmConfig(energy=pricey)))
        assert boosted.graph.energy is pricey
        assert (boosted.allocation.total_benefit_nj
                > base.allocation.total_benefit_nj)

    def test_sweep_suite_parallel_matches_serial(self):
        from repro.spm.explore import sweep_suite

        names = ("adpcm", "mpeg2")
        ladder = (256, 1024, 4096, 16384)
        config = PipelineConfig(cache=False, spm=SpmConfig(capacities=ladder))
        serial = sweep_suite(names, config=config)
        parallel = sweep_suite(names, config=replace(config, jobs=2))
        assert serial == parallel
        for name in names:
            assert [p.capacity_bytes for p in serial[name]] == list(ladder)

    def test_sweep_suite_honours_config_energy(self):
        # Regression: sweeps were computed with the default energy model
        # but cached under the config's custom one, poisoning the cache.
        from repro.spm.explore import sweep_suite

        pricey = EnergyModel(main_read_nj=100.0, main_write_nj=120.0)
        config = PipelineConfig(spm=SpmConfig(energy=pricey, sweep=True))
        boosted = sweep_suite(("mpeg2",), config=replace(
            config, spm=replace(config.spm, capacities=(4096,))))
        plain = sweep_suite(("mpeg2",), config=PipelineConfig(
            spm=SpmConfig(capacities=(4096,))))
        assert (boosted["mpeg2"][0].benefit_nj
                > plain["mpeg2"][0].benefit_nj)
        # A full_flow with the same energy, over the default ladder (its
        # own exploration node), must agree with the sweep.
        from repro.workloads.registry import get_workload

        flow = full_flow("mpeg2", get_workload("mpeg2").source,
                         config=config)
        sweep_at_4096 = [p for p in flow.exploration
                         if p.capacity_bytes == 4096]
        assert sweep_at_4096
        assert (sweep_at_4096[0].benefit_nj
                == pytest.approx(boosted["mpeg2"][0].benefit_nj))


class TestParallelSuite:
    def test_parallel_matches_serial(self):
        names = ("adpcm", "susan")
        config = PipelineConfig(cache=False)
        serial = run_suite(names, config=config)
        parallel = run_suite(names, config=replace(config, jobs=2))
        assert [r.name for r in parallel] == [r.name for r in serial]
        for left, right in zip(serial, parallel):
            assert left.census == right.census
            assert left.table2 == right.table2
            assert left.table3 == right.table3
            assert left.model == right.model

    def test_jobs_capped_by_workload_count(self):
        reports = run_suite(("adpcm",),
                            config=PipelineConfig(jobs=8, cache=False))
        assert [r.name for r in reports] == ["adpcm"]

    def test_negative_jobs_rejected(self):
        # 0 means the CPU count; a library caller's negative count used
        # to run serially without a word.
        assert PipelineConfig(jobs=0).jobs == 0
        with pytest.raises(ValueError, match="jobs must be >= 0"):
            PipelineConfig(jobs=-3)
        with pytest.raises(ValueError, match="jobs must be >= 0"):
            replace(PipelineConfig(), jobs=-1)


class TestEngineThroughPipeline:
    def test_ast_engine_selectable(self, monkeypatch):
        from repro.sim.interpreter import Interpreter

        # Pipeline results keep no engine, so observe the run itself.
        runs = []
        real_run = Interpreter.run

        def spy(self, *args, **kwargs):
            runs.append(self)
            return real_run(self, *args, **kwargs)

        monkeypatch.setattr(Interpreter, "run", spy)
        report = run_workload("demo", SOURCE,
                              config=PipelineConfig(engine="ast"))
        assert len(runs) == 1
        assert report.extraction.run_result.machine is None

    def test_engines_agree_on_report_metrics(self):
        bc = run_workload("demo", SOURCE)
        ast = run_workload("demo", SOURCE, config=PipelineConfig(engine="ast"))
        assert bc.table2 == ast.table2
        assert bc.table3 == ast.table3
        assert bc.census == ast.census


class TestCliFlags:
    def test_suite_flags_accepted(self, capsys):
        from repro.cli import main

        assert main(["suite", "adpcm", "--engine", "ast", "--jobs", "1",
                     "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "adpcm" in out

    def test_extract_engine_flag(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "demo.c"
        path.write_text(SOURCE)
        assert main(["extract", str(path), "--engine", "bytecode"]) == 0
        assert "references" in capsys.readouterr().out
