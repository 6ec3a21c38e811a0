"""The cache-hierarchy evaluation matrix: engine parity, caching, CLI."""

import json

import pytest

import repro.pipeline as pipeline
from repro.analysis.report import format_hier_table
from repro.cachesim.model import CacheConfig
from repro.cli import main
from repro.pipeline import (
    HierarchyConfig,
    PipelineConfig,
    SpmConfig,
    clear_caches,
    full_flow,
    hier_suite,
    hierarchy_for_configs,
)
from repro.workloads.registry import MIBENCH_WORKLOADS

SMALL_CACHE = CacheConfig(line_bytes=16, sets=8, ways=2)


@pytest.fixture(autouse=True)
def fresh_hierarchy_cache():
    """Hierarchy cells must not leak across tests (the extraction and
    compile caches may — they are engine-keyed and deterministic)."""
    pipeline.hierarchy_cache.clear()
    yield
    pipeline.hierarchy_cache.clear()


class TestEngineParity:
    @pytest.mark.parametrize("name", sorted(MIBENCH_WORKLOADS))
    def test_hierarchy_report_parity(self, name):
        """Both engines must produce the identical HierarchyReport for
        every suite workload (the traces are byte-identical, so every
        cache counter — and thus every derived energy — must match)."""
        workload = MIBENCH_WORKLOADS[name]
        reports = {}
        for engine in ("ast", "bytecode"):
            config = PipelineConfig(engine=engine)
            (reports[engine],) = hierarchy_for_configs(
                name, workload.source, config, (SMALL_CACHE,)
            )
        assert reports["bytecode"] == reports["ast"]
        assert (reports["bytecode"].fingerprint()
                == reports["ast"].fingerprint())


class TestMatrixCaching:
    def _counting_run_compiled(self, monkeypatch):
        real = pipeline.run_compiled
        calls = []

        def wrapper(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline, "run_compiled", wrapper)
        return calls

    def test_warm_matrix_performs_zero_simulations(self, tmp_path,
                                                   monkeypatch):
        calls = self._counting_run_compiled(monkeypatch)
        config = PipelineConfig(
            cache_dir=str(tmp_path / "store"),
            hierarchy=HierarchyConfig(enabled=True, cache=SMALL_CACHE),
        )
        cold = hier_suite(("adpcm", "gsm"), config=config)
        cold_calls = len(calls)
        assert cold_calls > 0

        # Drop every in-memory cache: the rerun may only be served from
        # the disk store — and must simulate nothing at all.
        clear_caches()
        warm = hier_suite(("adpcm", "gsm"), config=config)
        assert len(calls) == cold_calls
        assert [r.fingerprint() for r in warm] == \
            [r.fingerprint() for r in cold]
        assert warm == cold

    def test_cache_off_recomputes(self, monkeypatch):
        calls = self._counting_run_compiled(monkeypatch)
        config = PipelineConfig(
            cache=False,
            hierarchy=HierarchyConfig(enabled=True, cache=SMALL_CACHE),
        )
        hier_suite(("adpcm",), config=config)
        first = len(calls)
        hier_suite(("adpcm",), config=config)
        assert len(calls) > first

    def test_scenario_and_config_axes_multiply(self):
        sweep = (CacheConfig(line_bytes=16, sets=4, ways=1),)
        config = PipelineConfig(hierarchy=HierarchyConfig(
            enabled=True, cache=SMALL_CACHE, sweep=sweep, max_scenarios=2,
        ))
        cells = hier_suite(("adpcm",), config=config)
        assert len(cells) == 4  # 2 scenarios x 2 cache configs
        assert {c.scenario for c in cells} == \
            set(MIBENCH_WORKLOADS["adpcm"].scenario_names()[:2])
        assert {c.cache_config for c in cells} == {SMALL_CACHE, sweep[0]}

    def test_configs_deduplicate(self):
        hierarchy = HierarchyConfig(cache=SMALL_CACHE,
                                    sweep=(SMALL_CACHE, CacheConfig()))
        assert hierarchy.configs() == (SMALL_CACHE, CacheConfig())

    def test_sweep_shares_one_engine_run(self, monkeypatch):
        """A cold N-config sweep must cost one extraction run plus one
        sink run — never one simulation per swept configuration."""
        calls = self._counting_run_compiled(monkeypatch)
        sweep = (CacheConfig(line_bytes=16, sets=4, ways=1),
                 CacheConfig(line_bytes=32, sets=16, ways=2))
        config = PipelineConfig(
            cache=False,  # force everything cold, bypass shared memos
            hierarchy=HierarchyConfig(enabled=True, cache=SMALL_CACHE,
                                      sweep=sweep),
        )
        cells = hier_suite(("adpcm",), config=config)
        assert len(cells) == 3
        assert len(calls) == 2

    def test_stage_and_suite_share_warm_entries(self, tmp_path,
                                                monkeypatch):
        """full_flow's hierarchy stage and hier_suite must land the
        nominal cell on the same store entry (same scenario label), so
        either entry point warms the other."""
        calls = self._counting_run_compiled(monkeypatch)
        config = PipelineConfig(
            cache_dir=str(tmp_path / "store"),
            hierarchy=HierarchyConfig(enabled=True, cache=SMALL_CACHE),
        )
        workload = MIBENCH_WORKLOADS["gsm"]
        flow = full_flow("gsm", workload.source, config=config)
        assert flow.hierarchy[0].scenario == "nominal"
        stage_calls = len(calls)

        clear_caches()  # disk store only from here on
        warm = hier_suite(("gsm",), config=config)
        assert len(calls) == stage_calls  # zero new simulations
        assert warm == list(flow.hierarchy)

    def test_serial_vs_parallel_results_identical(self, tmp_path):
        config = PipelineConfig(
            cache_dir=str(tmp_path / "store"),
            hierarchy=HierarchyConfig(enabled=True, cache=SMALL_CACHE),
        )
        serial = hier_suite(("adpcm", "gsm"), jobs=1, config=config)
        clear_caches()
        parallel = hier_suite(("adpcm", "gsm"), jobs=2, config=config)
        assert serial == parallel


class TestHierarchyStage:
    def test_full_flow_attaches_reports_when_enabled(self):
        workload = MIBENCH_WORKLOADS["gsm"]
        config = PipelineConfig(hierarchy=HierarchyConfig(
            enabled=True, cache=SMALL_CACHE,
        ))
        flow = full_flow("gsm", workload.source, config=config)
        assert flow.hierarchy is not None and len(flow.hierarchy) == 1
        report = flow.hierarchy[0]
        assert report.cache_config == SMALL_CACHE
        # The stage reuses the optimize stage's allocation verbatim.
        assert report.spm_buffer_bytes == flow.allocation.used_bytes
        assert report.spm_bytes == flow.allocation.capacity_bytes

    def test_full_flow_default_stays_dark(self):
        workload = MIBENCH_WORKLOADS["adpcm"]
        flow = full_flow("adpcm", workload.source)
        assert flow.hierarchy is None

    def test_stage_honours_spm_bytes_override(self):
        workload = MIBENCH_WORKLOADS["gsm"]
        config = PipelineConfig(
            spm=SpmConfig(spm_bytes=4096),
            hierarchy=HierarchyConfig(enabled=True, cache=SMALL_CACHE),
        )
        flow = full_flow("gsm", workload.source, spm_bytes=512,
                         config=config)
        assert flow.hierarchy[0].spm_bytes == 512


class TestHierCli:
    def test_hier_prints_comparison_table(self, capsys):
        assert main(["hier", "adpcm", "--sets", "8", "--line", "16"]) == 0
        out = capsys.readouterr().out
        assert "Memory-hierarchy comparison" in out
        assert "adpcm" in out and "spm+cache nJ" in out

    def test_hier_json_is_machine_readable(self, capsys):
        assert main(["hier", "adpcm", "--sets", "8", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "hier"
        (cell,) = payload["cells"]
        assert cell["benchmark"] == "adpcm"
        assert cell["cache_config"] == "8x2x32"
        assert cell["cache"]["levels"][0]["reads"] > 0

    def test_suite_hier_appends_table(self, capsys):
        assert main(["suite", "adpcm", "--hier", "--sets", "8"]) == 0
        out = capsys.readouterr().out
        assert "benchmark  lines" in out  # Table I still leads
        assert "Memory-hierarchy comparison" in out

    def test_suite_json_with_hier_section(self, capsys):
        assert main(["suite", "adpcm", "--hier", "--sets", "8",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "suite"
        assert [row["benchmark"] for row in payload["table1"]] == ["adpcm"]
        assert payload["hierarchy"][0]["benchmark"] == "adpcm"

    def test_suite_scenarios_widens_hier_matrix(self, capsys):
        assert main(["suite", "adpcm", "--hier", "--sets", "8",
                     "--scenarios", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [cell["scenario"] for cell in payload["hierarchy"]] == \
            list(MIBENCH_WORKLOADS["adpcm"].scenario_names()[:2])

    def test_validate_json(self, capsys):
        code = main(["validate", "adpcm", "--scenarios", "2", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "validate"
        assert payload["workloads"][0]["benchmark"] == "adpcm"
        assert code == (0 if payload["passes"] else 1)

    def test_bad_cache_spec_exits_cleanly(self):
        with pytest.raises(SystemExit, match="hier:"):
            main(["hier", "adpcm", "--l2", "not-a-spec"])
        with pytest.raises(SystemExit, match="hier:"):
            main(["hier", "adpcm", "--sweep", "64x2"])
        with pytest.raises(SystemExit, match="hier:"):
            main(["hier", "adpcm", "--ways", "0"])

    def test_unknown_workload_exits_cleanly(self):
        with pytest.raises(SystemExit, match="hier:"):
            main(["hier", "nonesuch"])

    def test_suite_tables_survive_late_gate_errors(self, capsys):
        """Regression: a declaration error in the appended matrices must
        not discard the already-computed (and printed) suite tables."""
        with pytest.raises(SystemExit, match="validate:"):
            main(["suite", "adpcm", "--validate", "--profile", "bogus"])
        out = capsys.readouterr().out
        assert "benchmark  lines" in out  # Table I made it to stdout

    def test_scenarios_must_be_positive(self):
        with pytest.raises(SystemExit, match="scenarios"):
            main(["hier", "adpcm", "--scenarios", "0"])
        with pytest.raises(ValueError, match="max_scenarios"):
            HierarchyConfig(max_scenarios=0)

    def test_bad_hier_specs_fail_loudly_even_without_hier(self):
        """Flags must never be silently swallowed: a garbage cache spec
        on `suite` errors even when --hier itself is absent."""
        with pytest.raises(SystemExit, match="hier:"):
            main(["suite", "adpcm", "--hier-sweep", "bogus"])
        with pytest.raises(SystemExit, match="hier:"):
            main(["suite", "adpcm", "--l2", "bogus"])


class TestHierTableRendering:
    def test_win_marking_and_columns(self):
        config = PipelineConfig(hierarchy=HierarchyConfig(
            enabled=True, cache=SMALL_CACHE,
        ))
        reports = hier_suite(("gsm",), config=config)
        text = format_hier_table(reports)
        assert "spm=4096B" in text and "allocator: dp" in text
        row = text.splitlines()[-1]
        assert row.rstrip().endswith("*")  # gsm: SPM+cache wins
