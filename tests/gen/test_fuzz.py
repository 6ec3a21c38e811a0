"""The differential fuzzing harness: battery, seeded bug, shrink,
store-backed warm reruns."""

from __future__ import annotations

import pytest

import repro.gen.fuzz as fuzz
import repro.pipeline as pipeline
from repro.foray.extractor import ForayExtractor
from repro.foray.filters import FilterConfig
from repro.gen import build_ir, generate_program, get_profile
from repro.gen.fuzz import (
    FUZZ_CHECKS,
    SEEDED_BUG_CHECK,
    fuzz_program,
    run_fuzz,
)
from repro.gen.shrink import shrink_ir
from repro.pipeline import PipelineConfig, ValidationConfig, clear_caches


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


class TestBattery:
    def test_sample_seeds_pass_every_check(self):
        report = run_fuzz("small", seeds=3, config=PipelineConfig())
        assert report.ok, [
            (o.spec, o.failing_check or o.error) for o in report.outcomes
        ]
        assert report.total == 3
        counts = report.check_counts()
        assert set(counts) == set(FUZZ_CHECKS)
        # Every check either passed or skipped with a reason — a fail
        # anywhere is a real differential finding.
        for name, tally in counts.items():
            assert tally["fail"] == 0, name
        for outcome in report.outcomes:
            for check in outcome.checks:
                if check.status == "skip":
                    assert check.detail, (outcome.spec, check.name)

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError, match="unknown fuzz check"):
            fuzz_program("small", 0, checks=("nosuch",))
        with pytest.raises(KeyError, match="unknown generation profile"):
            run_fuzz("nosuch", seeds=1)

    def test_transfer_statistic_recorded(self):
        report = run_fuzz("small", seeds=4, config=PipelineConfig())
        stats = report.transfer_stats()
        assert stats is not None
        measured, lowest, mean = stats
        assert 1 <= measured <= 4
        assert 0.0 <= lowest <= mean <= 1.0


class TestOneProfilingRun:
    """The model-based checks share the pipeline's one extraction, run
    under the run's config."""

    def _count_extracting_runs(self, monkeypatch) -> list:
        runs: list = []
        for module in (pipeline, fuzz):
            def wrapper(compiled, sinks=(), *args, _real=module.run_compiled,
                        **kwargs):
                if any(isinstance(sink, ForayExtractor) for sink in sinks):
                    runs.append(compiled.source)
                return _real(compiled, sinks, *args, **kwargs)

            monkeypatch.setattr(module, "run_compiled", wrapper)
        return runs

    def test_battery_profiles_each_program_once(self, monkeypatch):
        runs = self._count_extracting_runs(monkeypatch)
        outcome = fuzz_program("small", 0, config=PipelineConfig())
        assert outcome.status == "pass", outcome
        assert len(runs) == 1

    def test_checks_honour_the_run_filter(self):
        config = PipelineConfig(filter_config=FilterConfig(nexec=1, nloc=1))
        report = run_fuzz("small", seeds=12, config=config)
        assert report.ok, [
            (o.spec, o.failing_check or o.error) for o in report.outcomes
        ]
        outcome = report.outcomes[4]
        assert outcome.spec == "gen:small:4"
        alloc = next(c for c in outcome.checks if c.name == "alloc")
        assert (alloc.status, alloc.detail) == ("pass", "8 candidate nodes")

    def test_parallel_matches_serial(self):
        config = PipelineConfig(cache=False)
        serial = run_fuzz("small", seeds=3, jobs=1, config=config)
        parallel = run_fuzz("small", seeds=3, jobs=2, config=config)
        assert parallel.outcomes == serial.outcomes


class TestSeededBug:
    """Satellite 3: the harness must catch a planted divergence, shrink
    it, and replay the shrink deterministically from the seed alone."""

    def test_seeded_bug_is_caught_and_shrunk(self):
        outcome = fuzz_program("small", 0, checks=(SEEDED_BUG_CHECK,),
                               config=PipelineConfig())
        assert outcome.status == "fail"
        assert outcome.failing_check == SEEDED_BUG_CHECK
        assert "mismatch detected" in [
            c for c in outcome.checks if c.name == SEEDED_BUG_CHECK
        ][0].detail
        # The shrinker minimized the reproducer...
        assert outcome.shrunk_source
        assert 0 < outcome.shrunk_lines < outcome.source_lines
        # ... and the minimized program still carries the replay header.
        assert "seed=0" in outcome.shrunk_source.splitlines()[0]

    def test_shrink_replays_deterministically(self):
        first = fuzz_program("small", 0, checks=(SEEDED_BUG_CHECK,),
                             config=PipelineConfig())
        clear_caches()
        second = fuzz_program("small", 0, checks=(SEEDED_BUG_CHECK,),
                              config=PipelineConfig())
        assert first.shrunk_source == second.shrunk_source
        assert not second.cached

    def test_healthy_program_skips_seeded_bug_cleanly(self):
        # A program whose model is empty after the purge has nothing to
        # corrupt: the check must skip with a reason, not pass silently.
        report = run_fuzz("small", seeds=8, checks=(SEEDED_BUG_CHECK,),
                          shrink=False, config=PipelineConfig())
        statuses = {c.status for o in report.outcomes for c in o.checks}
        assert statuses <= {"fail", "skip"}


class TestShrinker:
    def test_shrink_reaches_fixpoint_on_trivial_predicate(self):
        ir = build_ir(0, get_profile("small"))
        result = shrink_ir(ir, lambda rendered: True)
        # Everything deletable is deleted; what remains is the fixed
        # scaffolding (frame loop, checksum print).
        assert not ir.main
        assert result.deleted > 0
        assert result.attempts >= result.deleted
        assert "gen checksum" in result.source

    def test_rejected_deletions_restore_the_program(self):
        ir = build_ir(1, get_profile("small"))
        baseline = generate_program(1).workload.source
        result = shrink_ir(ir, lambda rendered: False)
        assert result.deleted == 0
        assert result.source == baseline


class TestWarmRerun:
    """Satellite 6: outcomes persist in the ``fuzz`` store namespace and
    warm reruns skip satisfied cells."""

    def test_disk_store_roundtrip(self, tmp_path):
        config = PipelineConfig(cache_dir=str(tmp_path / "store"))
        cold = run_fuzz("small", seeds=2, config=config)
        assert cold.ok
        assert not any(o.cached for o in cold.outcomes)
        clear_caches()  # drop the in-process tier; disk must serve
        warm = run_fuzz("small", seeds=2, config=config)
        assert warm.ok
        assert all(o.cached for o in warm.outcomes)

    @pytest.mark.parametrize("checks", [FUZZ_CHECKS, ("static",),
                                        (SEEDED_BUG_CHECK,)])
    def test_cold_run_writes_each_compile_node_once(self, tmp_path, checks):
        # The static checks read the detector's result from the compile
        # node: the battery builds the node with it, so filling it in
        # never republishes an entry written moments before. Two
        # programs, each a nominal source plus the one the battery's
        # cross scenarios render (the static checks alone read one).
        config = PipelineConfig(cache_dir=str(tmp_path / "store"))
        run_fuzz("small", seeds=2, checks=checks, shrink=False,
                 config=config)
        counts = pipeline.store_for(config).session_counters()["compile"]
        sources = 4 if checks == FUZZ_CHECKS else 2
        assert counts == {"hits": 0, "misses": sources, "stores": sources}

    def test_key_covers_checks_and_shrink(self, tmp_path):
        config = PipelineConfig(cache_dir=str(tmp_path / "store"))
        run_fuzz("small", seeds=1, checks=("ir",), config=config)
        clear_caches()
        other = run_fuzz("small", seeds=1, checks=("ir", "lint"),
                         config=config)
        assert not any(o.cached for o in other.outcomes)

    def test_key_covers_the_transfer_scenarios(self, tmp_path):
        # The transfer check reads config.validation: an outcome stored
        # with three replays must not be served to a run that asks for
        # one.
        store = str(tmp_path / "store")
        fuzz_program("small", 0, config=PipelineConfig(cache_dir=store))
        narrow = ValidationConfig(max_scenarios=2)
        warm = fuzz_program("small", 0, config=PipelineConfig(
            cache_dir=store, validation=narrow))
        fresh = fuzz_program("small", 0, config=PipelineConfig(
            cache=False, validation=narrow))
        assert not warm.cached
        assert warm == fresh
        transfer = next(c for c in warm.checks if c.name == "transfer")
        assert transfer.detail.endswith("over 1 replays")

    def test_no_cache_bypasses_the_store(self, tmp_path):
        config = PipelineConfig(cache=False,
                                cache_dir=str(tmp_path / "store"))
        run_fuzz("small", seeds=1, config=config)
        clear_caches()
        again = run_fuzz("small", seeds=1, config=config)
        assert not any(o.cached for o in again.outcomes)
