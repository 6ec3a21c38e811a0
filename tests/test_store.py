"""Tests for the disk-backed artifact store and its pipeline tiering.

Covers the store's integrity guarantees (atomic entries, corruption and
schema-version fallback), the lazily unpickled parts of compile and
extraction entries, the L1-memory/L2-disk tiering of the pipeline
caches (warm runs must not simulate, nor re-run the detector, nor
unpickle what the tables do not print), cross-process sharing through
real subprocesses, the counter tally shared by concurrent invocations,
startup without NumPy, and the satellite regressions (``max_entries``
validation, energy-model key normalization).
"""

import json
import os
import pickle
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro import store as store_mod
from repro.cachesim.model import CacheConfig
from repro.foray.filters import FilterConfig
from repro.gen.fuzz import fuzz_program
from repro.lang import ast_nodes as ast
from repro.lang.printer import to_source
from repro.pipeline import (
    _PRODUCER_MODULES,
    ArtifactCache,
    PipelineConfig,
    SpmConfig,
    ValidationConfig,
    _memos,
    cached_exploration,
    clear_caches,
    extract_foray_model,
    full_flow,
    hier_suite,
    run_workload,
    static_workload,
    store_for,
    validate_workload,
)
from repro.sim.inputs import InputSpec
from repro.sim.machine import compile_program
from repro.spm.energy import EnergyModel
from repro.staticfar.detector import detect
from repro.store import ArtifactStore, default_cache_dir
from repro.workloads.registry import get_workload, workload_names

REPO_ROOT = Path(__file__).resolve().parents[1]

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
int transpose() {
    int i, j;
    for (i = 0; i < 8; i++) {
        for (j = 0; j < 8; j++) { out[8 * j + i] = table[8 * i + j]; }
    }
    return 1;
}
"""


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_caches()
    yield
    clear_caches()


def _disk_config(tmp_path, **overrides) -> PipelineConfig:
    return PipelineConfig(cache_dir=str(tmp_path / "store"), **overrides)


def _boom(*_args, **_kwargs):
    raise AssertionError("simulated on a warm run: disk tier not consulted")


#: The attributes a stored compile node and a stored ``TraceStats`` keep
#: pickled until they are read.
LAZY_PROGRAM = {"program", "detector"}
LAZY_SETS = {"user_refs", "lib_refs", "user_addresses", "lib_addresses"}

#: A program with library traffic, so every trace set is non-empty.
LIB_SOURCE = """
int a[32];
int b[32];
int main() {
    int i;
    for (i = 0; i < 32; i++) { a[i] = i; }
    memcpy(b, a, 128);
    return b[5];
}
"""


# ---------------------------------------------------------------------------
# Store unit behavior
# ---------------------------------------------------------------------------


class TestArtifactStore:
    def test_roundtrip_and_counters(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        assert store.get("extraction", "ab" * 32) is None  # miss
        assert store.put("extraction", "ab" * 32, {"x": (1, 2)}) is True
        assert store.get("extraction", "ab" * 32) == {"x": (1, 2)}
        assert store.session_counters()["extraction"] == {
            "hits": 1, "misses": 1, "stores": 1,
        }

    def test_unpicklable_artifact_is_skipped(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        assert store.put("compile", "ff" * 32, lambda: None) is False
        assert store.get("compile", "ff" * 32) is None

    def _entry_file(self, store: ArtifactStore) -> Path:
        files = list(store.path.glob("v*/*/*/*.art"))
        assert len(files) == 1
        return files[0]

    def test_corrupted_entry_reads_as_miss(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        store.put("extraction", "cd" * 32, [1, 2, 3])
        entry = self._entry_file(store)
        blob = entry.read_bytes()
        entry.write_bytes(blob[:-4] + b"\xde\xad\xbe\xef")
        assert store.get("extraction", "cd" * 32) is None
        assert not entry.exists()  # bad entry unlinked for the re-put

    def test_truncated_entry_reads_as_miss(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        store.put("extraction", "cd" * 32, [1, 2, 3])
        entry = self._entry_file(store)
        entry.write_bytes(entry.read_bytes()[:10])
        assert store.get("extraction", "cd" * 32) is None

    def test_schema_version_bump_reads_as_miss(self, tmp_path, monkeypatch):
        store = ArtifactStore(tmp_path / "s")
        store.put("extraction", "ee" * 32, "artifact")
        monkeypatch.setattr(store_mod, "SCHEMA_VERSION",
                            store_mod.SCHEMA_VERSION + 1)
        assert store.get("extraction", "ee" * 32) is None
        # ...and the recompute republishes under the new schema.
        store.put("extraction", "ee" * 32, "artifact-v2")
        assert store.get("extraction", "ee" * 32) == "artifact-v2"

    def test_clear_and_entry_stats(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        store.put("compile", "aa" * 32, "a")
        store.put("extraction", "bb" * 32, "b")
        stats = store.entry_stats()
        assert stats["compile"][0] == 1 and stats["extraction"][0] == 1
        assert stats["compile"][1] > 0
        assert store.clear() == 2
        assert store.entry_stats()["compile"] == (0, 0)

    def test_clear_leaves_foreign_files_alone(self, tmp_path):
        # --cache-dir may point at a directory that holds other content;
        # clear() must only remove store-owned subtrees.
        root = tmp_path / "s"
        store = ArtifactStore(root)
        store.put("compile", "aa" * 32, "a")
        store.record_counters()
        precious = root / "notes.txt"
        precious.write_text("keep me")
        assert store.clear() == 1
        assert precious.read_text() == "keep me"
        assert not list(root.glob("v*-*"))
        assert not (root / "tally.json").exists()

    def test_code_fingerprint_change_reads_as_miss(self, tmp_path,
                                                   monkeypatch):
        store = ArtifactStore(tmp_path / "s")
        store.put("extraction", "ab" * 32, "artifact")
        assert store.get("extraction", "ab" * 32) == "artifact"
        # A different package-source fingerprint (i.e. edited code) must
        # land in a disjoint subtree: no stale artifacts, no thrash.
        monkeypatch.setattr(store_mod, "_CODE_FINGERPRINT", "f" * 64)
        assert store.get("extraction", "ab" * 32) is None
        store.put("extraction", "ab" * 32, "recomputed")
        assert store.get("extraction", "ab" * 32) == "recomputed"
        monkeypatch.setattr(store_mod, "_CODE_FINGERPRINT", None)
        assert store.get("extraction", "ab" * 32) == "artifact"

    def test_root_created_private(self, tmp_path):
        store = ArtifactStore(tmp_path / "fresh")
        store.put("compile", "aa" * 32, "a")
        assert (store.path.stat().st_mode & 0o777) == 0o700

    def test_persisted_counters_aggregate(self, tmp_path):
        # Several invocations leave one tally file holding their sum.
        root = tmp_path / "s"
        for key in ("aa" * 32, "bb" * 32, "aa" * 32):
            store = ArtifactStore(root)  # one invocation's store object
            if store.get("compile", key) is None:
                store.put("compile", key, "a")
            store.record_counters()
        assert ArtifactStore(root).tally() == {
            "compile": {"hits": 1, "misses": 2, "stores": 2}}
        assert sorted(path.name for path in root.iterdir()
                      if not path.name.startswith("v")) == ["tally.json"]

    def test_torn_tally_restarts_at_zero(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        store.put("compile", "aa" * 32, "a")
        (store.path / "tally.json").write_bytes(b'{"compile": {"hi\xff')
        assert store.tally() == {}
        store.record_counters()
        assert store.tally() == {
            "compile": {"hits": 0, "misses": 0, "stores": 1}}

    @pytest.mark.parametrize("writers", [2, 4])
    def test_concurrent_writers_lose_no_counts(self, tmp_path, writers):
        import multiprocessing

        root = str(tmp_path / "s")
        # Forked, as ``_fan_out``'s pool is, so the writers overlap.
        context = multiprocessing.get_context("fork")
        processes = [context.Process(target=_record_repeatedly,
                                     args=(root, 200))
                     for _ in range(writers)]
        for process in processes:
            process.start()
        for process in processes:
            process.join(60)
            assert process.exitcode == 0
        assert ArtifactStore(root).tally() == {
            "extraction": {"hits": 200 * writers, "misses": 400 * writers,
                           "stores": 600 * writers}}

    def test_default_cache_dir_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/somewhere-else")
        assert default_cache_dir() == "/tmp/somewhere-else"


def _record_repeatedly(root: str, times: int) -> None:
    """One writer process: ``times`` invocations' worth of counts."""
    for _ in range(times):
        store = ArtifactStore(root)
        store.add_counters({"extraction": [1, 2, 3]})
        store.record_counters()


# ---------------------------------------------------------------------------
# Lazily unpickled attributes
# ---------------------------------------------------------------------------


def _roundtrip(artifact):
    return pickle.loads(pickle.dumps(artifact))


class TestLazyFields:
    def test_program_and_detector_share_one_pickle(self):
        compiled = compile_program(SOURCE)
        compiled.detector = detect(compiled.program)
        loaded = _roundtrip(compiled)
        assert not LAZY_PROGRAM & vars(loaded).keys()
        assert loaded.source_form() == compiled.source_form()
        assert loaded.source_form().canonical_loops
        # A still-pickled node is re-pickled without being unpickled.
        again = _roundtrip(loaded)
        assert not LAZY_PROGRAM & vars(loaded).keys()
        # One pickle: the detector's iterators are the program's symbols.
        symbols = {id(node.symbol) for node in ast.walk(again.program)
                   if isinstance(node, ast.Identifier)}
        assert LAZY_PROGRAM <= vars(again).keys()
        assert all(id(info.iterator) in symbols
                   for info in again.detector.canonical_loops.values())
        assert to_source(again.program) == to_source(compiled.program)
        assert again.source == compiled.source
        assert again.checkpoint_map == compiled.checkpoint_map

    def test_detector_default_and_reassignment(self):
        compiled = compile_program(SOURCE)
        assert compiled.source_form() is None
        loaded = _roundtrip(compiled)
        assert loaded.source_form() is None
        assert loaded.detector is None  # unpickled, not the class default
        assert "program" in vars(loaded)
        compiled.detector = detect(compiled.program)
        loaded = _roundtrip(compiled)
        loaded.detector = None  # reassigned while still pickled
        assert loaded.source_form() is None  # no stale summary
        assert to_source(loaded.program) == to_source(compiled.program)
        assert loaded.detector is None

    def test_trace_stats_counts_survive_pickling(self):
        stats = extract_foray_model(LIB_SOURCE).model.trace_stats
        assert all(getattr(stats, name) for name in LAZY_SETS)
        loaded = _roundtrip(stats)
        assert not LAZY_SETS & vars(loaded).keys()
        assert loaded.counts() == stats.counts()
        assert loaded.counts().total_footprint == len(
            stats.user_addresses | stats.lib_addresses)
        assert not LAZY_SETS & vars(loaded).keys()
        assert loaded == stats  # equality reads the sets
        assert LAZY_SETS <= vars(loaded).keys()
        loaded.lib_addresses = set()
        assert loaded.counts().lib_footprint == 0


# ---------------------------------------------------------------------------
# Pipeline tiering: warm runs must not recompute
# ---------------------------------------------------------------------------


class TestTieredPipeline:
    def test_warm_extraction_performs_no_simulation(self, tmp_path,
                                                    monkeypatch):
        config = _disk_config(tmp_path)
        first = extract_foray_model(SOURCE, config=config)
        clear_caches()  # a "fresh process": only the disk tier remains
        monkeypatch.setattr("repro.pipeline.run_compiled", _boom)
        second = extract_foray_model(SOURCE, config=config)
        assert second.model == first.model
        counters = store_for(config).session_counters()
        assert counters["extraction"]["hits"] >= 1

    def test_warm_sweep_skips_exploration(self, tmp_path, monkeypatch):
        ladder = (256, 1024, 4096)
        config = _disk_config(
            tmp_path, spm=SpmConfig(sweep=True, capacities=ladder))
        flow = full_flow("demo", SOURCE, config=config)
        clear_caches()
        monkeypatch.setattr("repro.pipeline.run_compiled", _boom)
        monkeypatch.setattr("repro.pipeline.explore", _boom)
        warm = full_flow("demo", SOURCE, config=config)
        assert warm.exploration == flow.exploration
        assert [p.capacity_bytes for p in warm.exploration] == list(ladder)

    def test_warm_validation_matrix_is_incremental(self, tmp_path,
                                                   monkeypatch):
        config = _disk_config(tmp_path)
        cold = validate_workload("adpcm", config=config)
        clear_caches()
        monkeypatch.setattr("repro.pipeline.run_compiled", _boom)
        warm = validate_workload("adpcm", config=config)
        assert warm.self_validation.fingerprint() == \
            cold.self_validation.fingerprint()
        assert [c.report.fingerprint() for c in warm.cross] == \
            [c.report.fingerprint() for c in cold.cross]

    @pytest.mark.parametrize("name", ["fig9", "fft", "jpeg"])
    def test_warm_static_oracle_agrees_with_cold(self, tmp_path, monkeypatch,
                                                 name):
        # The detector result refers to its program's own Symbol objects,
        # which compare by identity. Read back apart from that program it
        # matches none of them, and the warm static model silently loses
        # its coefficients and footprints while the oracle still says ok.
        config = _disk_config(tmp_path)
        source = get_workload(name).source
        cold = static_workload(name, source, config=config)
        clear_caches()
        monkeypatch.setattr("repro.pipeline.run_compiled", _boom)
        monkeypatch.setattr("repro.staticfar.detector.detect", _boom)
        warm = static_workload(name, source, config=config)
        assert (warm.static.unfiltered_references
                == cold.static.unfiltered_references)
        assert cold.ok and warm.ok

    @pytest.mark.parametrize("name", ["fig9", "fft", "jpeg"])
    def test_warm_static_oracle_reads_a_suite_compile_entry(
            self, tmp_path, monkeypatch, name):
        # The suite's analyze stage writes the compile node with the
        # detector in the program's pickle; the static oracle reads
        # both back from that entry.
        source = get_workload(name).source
        cold = static_workload(name, source)
        clear_caches()
        config = _disk_config(tmp_path)
        run_workload(name, source, config=config)
        clear_caches()
        monkeypatch.setattr("repro.pipeline.run_compiled", _boom)
        monkeypatch.setattr("repro.staticfar.detector.detect", _boom)
        warm = static_workload(name, source, config=config)
        assert (warm.static.unfiltered_references
                == cold.static.unfiltered_references)
        assert warm.oracle.diff_lines() == cold.oracle.diff_lines()
        assert cold.ok and warm.ok

    @pytest.mark.parametrize("name", workload_names())
    def test_warm_suite_row_leaves_stored_objects_pickled(
            self, tmp_path, monkeypatch, name):
        # Tables I-III and the sweep read the detector's node ids and the
        # trace counts only: the program, the detector and the four
        # trace sets stay pickled until something reads them.
        config = _disk_config(tmp_path, spm=SpmConfig(sweep=True))
        source = get_workload(name).source
        cold = run_workload(name, source, config=config)
        cold_points = cached_exploration(source, config, cold.model)
        clear_caches()
        monkeypatch.setattr("repro.pipeline.run_compiled", _boom)
        monkeypatch.setattr("repro.staticfar.detector.detect", _boom)
        warm = run_workload(name, source, config=config)
        points = cached_exploration(warm.extraction.compiled.source, config,
                                    warm.model)
        assert not LAZY_PROGRAM & vars(warm.extraction.compiled).keys()
        assert not LAZY_SETS & vars(warm.model.trace_stats).keys()
        assert (warm.census, warm.table2, warm.table3, points) == (
            cold.census, cold.table2, cold.table3, cold_points)
        # Read on demand, they are the cold run's.
        assert warm.model == cold.model
        assert (warm.static_result.source_form()
                == cold.static_result.source_form())
        assert (to_source(warm.extraction.compiled.program)
                == to_source(cold.extraction.compiled.program))

    @pytest.mark.parametrize("target", [
        "repro.pipeline.run_compiled",
        "repro.pipeline.explore",
        "repro.staticfar.detector.detect",
    ])
    def test_warm_proof_patches_catch_a_cold_run(self, tmp_path,
                                                 monkeypatch, target):
        # The warm proofs above patch these names: on a cold run the
        # same patch must be reached, or those proofs would prove
        # nothing.
        monkeypatch.setattr(target, _boom)
        config = _disk_config(tmp_path, spm=SpmConfig(sweep=True))
        with pytest.raises(AssertionError, match="warm run"):
            full_flow("demo", SOURCE, config=config)

    def test_cold_run_writes_the_compile_node_once(self, tmp_path):
        config = _disk_config(tmp_path)
        run_workload("demo", SOURCE, config=config)
        counters = store_for(config).session_counters()
        assert counters["compile"]["stores"] == 1

    def test_analyze_rewrites_a_compile_node_stored_without_it(
            self, tmp_path, monkeypatch):
        config = _disk_config(tmp_path)
        store = store_for(config)
        extract_foray_model(SOURCE, config=config)  # stops before analyze
        assert store.session_counters()["compile"]["stores"] == 1
        clear_caches()
        cold = run_workload("demo", SOURCE, config=config)
        assert store.session_counters()["compile"]["stores"] == 2
        clear_caches()
        monkeypatch.setattr("repro.staticfar.detector.detect", _boom)
        warm = run_workload("demo", SOURCE, config=config)
        assert store.session_counters()["compile"]["stores"] == 2
        assert warm.table2 == cold.table2
        assert not LAZY_PROGRAM & vars(warm.extraction.compiled).keys()

    def test_corrupted_entries_fall_back_to_recompute(self, tmp_path):
        config = _disk_config(tmp_path)
        first = extract_foray_model(SOURCE, config=config)
        store = store_for(config)
        for entry in store.path.glob("v*/extraction/*/*.art"):
            entry.write_bytes(b"not an artifact")
        clear_caches()
        second = extract_foray_model(SOURCE, config=config)  # recomputed
        assert second.model == first.model
        assert store.session_counters()["extraction"]["misses"] >= 1

    def test_cache_false_disables_disk_tier(self, tmp_path):
        config = _disk_config(tmp_path, cache=False)
        assert store_for(config) is None
        extract_foray_model(SOURCE, config=config)
        assert not (tmp_path / "store").exists()


class TestTraceProtocolKeying:
    """The trace-block size is part of the producing engine's identity:
    artifacts warmed at one block size must never be served to a run
    configured for another."""

    def test_extraction_key_covers_trace_block(self):
        memo = _memos["extraction"]
        base = PipelineConfig()
        extract_foray_model(SOURCE, config=base)
        hits = memo.hits
        extract_foray_model(SOURCE, config=PipelineConfig())
        assert (len(memo), memo.hits) == (1, hits + 1)
        extract_foray_model(SOURCE, config=PipelineConfig(trace_block=1024))
        assert (len(memo), memo.hits) == (2, hits + 1)

    def test_warm_artifact_not_served_at_another_trace_block(
            self, tmp_path, monkeypatch):
        config = _disk_config(tmp_path)
        extract_foray_model(SOURCE, config=config)
        clear_caches()
        monkeypatch.setattr("repro.pipeline.run_compiled", _boom)
        # Same protocol: served warm, no simulation.
        extract_foray_model(SOURCE, config=_disk_config(tmp_path))
        # Different block size: must resimulate (and here hit the
        # tripwire).
        with pytest.raises(AssertionError, match="warm run"):
            extract_foray_model(
                SOURCE, config=_disk_config(tmp_path, trace_block=1024))


# ---------------------------------------------------------------------------
# Stale-key wall: no tier serves a node across a change of what its
# producer reads
# ---------------------------------------------------------------------------


def _extraction_row(config):
    result = extract_foray_model(SOURCE, config=config)
    run = result.run_result
    return (result.model, run.exit_code, run.stdout, run.stats,
            result.executed_loops)


def _exploration_row(config):
    model = extract_foray_model(SOURCE, config=config).model
    return cached_exploration(SOURCE, config, model)


def _validation_row(config):
    return validate_workload("adpcm", config=config)


def _hierarchy_row(config):
    return hier_suite(("adpcm",), config=config)


def _fuzz_row(config):
    return replace(fuzz_program("small", 0, config=config), cached=False)


def _spm(**changes):
    return lambda config: replace(config, spm=replace(config.spm, **changes))


def _validation(**changes):
    return lambda config: replace(
        config, validation=replace(config.validation, **changes))


#: One flip per config field some producer reads, away from the base.
FLIPS = {
    "engine": lambda config: replace(config, engine="ast"),
    "trace_block": lambda config: replace(config, trace_block=1024),
    "entry": lambda config: replace(config, entry="transpose"),
    "max_steps": lambda config: replace(config, max_steps=500),
    "filter_config": lambda config: replace(
        config, filter_config=FilterConfig(nexec=1, nloc=1)),
    "input": lambda config: replace(config, input=InputSpec(seed=7)),
    "spm.allocator": _spm(allocator="greedy"),
    "spm.energy": _spm(energy=EnergyModel(main_read_nj=50.0)),
    "spm.capacities": _spm(capacities=(256, 1024)),
    "spm.spm_bytes": _spm(spm_bytes=512),
    "validation.profile": _validation(profile="silence"),
    # A generated program declares scenarios of its own.
    ("fuzz", "validation.profile"): _validation(profile="alt-constant"),
    "validation.max_scenarios": _validation(max_scenarios=3),
    "hierarchy.cache": lambda config: replace(config, hierarchy=replace(
        config.hierarchy, cache=CacheConfig(line_bytes=16, sets=8, ways=2))),
}

_RUN = ("engine", "trace_block", "max_steps", "filter_config")
_SCENARIOS = PipelineConfig(validation=ValidationConfig(max_scenarios=2))

#: Node kind -> (its row, the base config, the fields its producer reads).
#: The scenario kinds run adpcm and a generated program, whose inputs
#: come from their scenarios; adpcm's only entry is ``main``.
WALL = {
    "extraction": (_extraction_row, PipelineConfig(),
                   _RUN + ("entry", "input")),
    "exploration": (_exploration_row, PipelineConfig(),
                    _RUN + ("entry", "input", "spm.allocator", "spm.energy",
                            "spm.capacities")),
    "validation": (_validation_row, _SCENARIOS,
                   _RUN + ("validation.profile", "validation.max_scenarios")),
    "hierarchy": (_hierarchy_row, PipelineConfig(),
                  _RUN + ("spm.allocator", "spm.energy", "spm.spm_bytes",
                          "hierarchy.cache")),
    "fuzz": (_fuzz_row, _SCENARIOS,
             _RUN + ("entry", "validation.profile",
                     "validation.max_scenarios")),
}

#: Flips that keep some of a kind's nodes: the scenarios both sets share.
_SHARED = {("validation", "validation.max_scenarios")}


def _observe(row, config):
    try:
        return row(config)
    except Exception as error:  # a flip may make the run fail
        return type(error).__name__, str(error)


class TestStaleKeyWall:
    """Prime a kind's nodes under a base config, flip one field its
    producer reads, and the memoized answer must be the uncached one —
    with no node served from the store that the flip should change."""

    @pytest.mark.parametrize("kind, field", [
        (kind, field) for kind, (_, _, fields) in WALL.items()
        for field in fields])
    def test_flip_is_never_served_stale(self, tmp_path, kind, field):
        row, base, _ = WALL[kind]
        base = replace(base, cache_dir=str(tmp_path / "store"))
        _observe(row, base)
        clear_caches()  # only the disk tier can answer from here on
        flipped = FLIPS.get((kind, field), FLIPS[field])(base)
        store = store_for(base)
        hits = store.session_counters().get(kind, {}).get("hits", 0)
        memoized = _observe(row, flipped)
        assert memoized == _observe(row, replace(flipped, cache=False))
        if (kind, field) not in _SHARED:
            counters = store.session_counters().get(kind, {})
            assert counters.get("hits", 0) == hits


# ---------------------------------------------------------------------------
# Satellite regressions
# ---------------------------------------------------------------------------


class TestArtifactCacheBounds:
    @pytest.mark.parametrize("bad", [0, -1, -64])
    def test_nonpositive_max_entries_rejected(self, bad):
        # Regression: put() on a max_entries<=0 cache died with
        # StopIteration while evicting from an empty dict.
        with pytest.raises(ValueError, match="max_entries must be positive"):
            ArtifactCache("t", max_entries=bad)

    def test_single_entry_cache_works(self):
        cache = ArtifactCache("t", max_entries=1)
        cache.put("a", "A")
        cache.put("b", "B")
        assert len(cache) == 1
        assert cache.get("b") == "B"
        assert cache.get("a") is None


class TestEnergyKeyNormalization:
    def test_none_and_explicit_default_share_one_entry(self):
        config = PipelineConfig()
        model = extract_foray_model(SOURCE, config=config).model
        memo = _memos["exploration"]
        cached_exploration(SOURCE, config, model)
        assert len(memo) == 1
        hits = memo.hits
        explicit = PipelineConfig(spm=SpmConfig(energy=EnergyModel()))
        cached_exploration(SOURCE, explicit, model)
        assert len(memo) == 1  # no duplicate entry
        assert memo.hits == hits + 1

    def test_keys_resolve_through_the_config(self):
        memo = _memos["exploration"]
        config = PipelineConfig(spm=SpmConfig(capacities=(256,)))
        model = extract_foray_model(SOURCE, config=config).model
        cached_exploration(SOURCE, config, model)
        hits = memo.hits
        explicit = _spm(allocator="dp", energy=EnergyModel())(config)
        cached_exploration(SOURCE, explicit, model)
        assert (len(memo), memo.hits) == (1, hits + 1)
        pricey = _spm(energy=EnergyModel(main_read_nj=50.0))
        cached_exploration(SOURCE, pricey(config), model)
        cached_exploration(SOURCE, pricey(explicit), model)
        # Distinct energies must still key distinct sweeps.
        assert (len(memo), memo.hits) == (2, hits + 2)


# ---------------------------------------------------------------------------
# Cross-process sharing (real subprocesses)
# ---------------------------------------------------------------------------


#: Python code that runs ``{run}`` and reports on stderr, at exit, every
#: module the process imported; ``_RUN_REPRO`` is ``python -m repro``.
_MODULE_PROBE = (
    "import atexit, json, sys\n"
    "atexit.register(lambda: print('modules:', json.dumps(sorted("
    "sys.modules)), file=sys.stderr))\n"
    "{run}\n"
)
_RUN_REPRO = ("import runpy; runpy.run_module('repro', alter_sys=True, "
              "run_name='__main__')")


def _python(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    proc = subprocess.run(
        [sys.executable, *argv],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def _repro(*args: str, probe_modules: bool = False
           ) -> subprocess.CompletedProcess:
    if probe_modules:
        return _python("-c", _MODULE_PROBE.format(run=_RUN_REPRO), *args)
    return _python("-m", "repro", *args)


def _modules(proc: subprocess.CompletedProcess) -> set[str]:
    """The modules a probed process imported (see ``_MODULE_PROBE``)."""
    line = next(line for line in proc.stderr.splitlines()
                if line.startswith("modules: "))
    return set(json.loads(line.removeprefix("modules: ")))


def _among(modules: set[str], packages: tuple[str, ...]) -> list[str]:
    """The ``modules`` that are one of ``packages`` or inside one."""
    return sorted(name for name in modules
                  if any(name == package or name.startswith(package + ".")
                         for package in packages))


def _counters(stderr: str, namespace: str) -> tuple[int, int, int]:
    match = re.search(
        rf"cache\[{namespace}\]: (\d+) hits, (\d+) misses, (\d+) stored",
        stderr,
    )
    assert match, f"no {namespace} counters in: {stderr!r}"
    hits, misses, stored = map(int, match.groups())
    return hits, misses, stored


class TestCrossProcess:
    def test_two_processes_share_one_cache_dir(self, tmp_path):
        cache_dir = str(tmp_path / "shared")
        cold = _repro("suite", "adpcm", "--cache-dir", cache_dir)
        warm = _repro("suite", "adpcm", "--cache-dir", cache_dir)
        assert cold.stdout == warm.stdout
        assert _counters(cold.stderr, "extraction") == (0, 1, 1)
        assert _counters(warm.stderr, "extraction") == (1, 0, 0)

    def test_fan_out_workers_populate_the_store(self, tmp_path):
        cache_dir = str(tmp_path / "shared")
        cold = _repro("suite", "adpcm", "gsm", "--cache-dir", cache_dir,
                      "--jobs", "2")
        assert _counters(cold.stderr, "extraction") == (0, 2, 2)
        warm = _repro("suite", "adpcm", "gsm", "--cache-dir", cache_dir)
        # Zero simulations on the warm run: every extraction is a hit.
        assert _counters(warm.stderr, "extraction") == (2, 0, 0)
        assert cold.stdout == warm.stdout

    @pytest.mark.parametrize("engine", ["bytecode", "ast"])
    def test_reports_identical_with_disk_cache_on_and_off(self, tmp_path,
                                                          engine):
        cache_dir = str(tmp_path / "shared")
        on_cold = _repro("suite", "adpcm", "--engine", engine,
                         "--cache-dir", cache_dir)
        on_warm = _repro("suite", "adpcm", "--engine", engine,
                         "--cache-dir", cache_dir)
        off = _repro("suite", "adpcm", "--engine", engine, "--no-disk-cache")
        assert on_cold.stdout == off.stdout
        assert on_warm.stdout == off.stdout
        assert "cache[" not in off.stderr  # no disk tier, no counters


#: What neither ``import repro.cli`` nor ``repro --help`` may load: the
#: pipeline, the engines, the parser, the static analysis, the
#: extractor, the SPM transform, the pool machinery and NumPy.
HELP_UNLOADED = (
    "repro.pipeline", "repro.sim.bytecode", "repro.sim.specialize",
    "repro.sim.interpreter", "repro.lang.parser", "repro.staticfar",
    "repro.foray.extractor", "repro.spm.transform", "multiprocessing",
    "numpy",
)

#: What a warm ``repro suite --spm`` may not load: code generation, the
#: static analyzer and oracle, the SPM transform, the linter, the
#: program generator, the pool machinery and NumPy.
WARM_UNLOADED = (
    "repro.sim.bytecode", "repro.sim.specialize", "repro.sim.dataflow",
    "repro.sim.verify", "repro.staticfar.analyze", "repro.staticfar.oracle",
    "repro.spm.transform", "repro.lang.lint", "repro.gen",
    "multiprocessing", "numpy",
)

#: Runs every fan-out matrix cold over two workloads, with ``jobs``
#: from argv and the IR verifier on (it only adds imports): each pool
#: process prints the ``repro`` modules each of its calls imported
#: ("worker: "), and the parent prints what it loaded once the four
#: pipeline matrices ran ("modules: "), before importing
#: ``repro.gen.fuzz`` adds its own.
_FAN_OUT_PROBE = """
import json, sys
import repro.pipeline as pipeline
from repro.pipeline import (
    HierarchyConfig, PipelineConfig, ValidationConfig, hier_suite,
    run_suite, static_suite, validate_suite,
)

counted = pipeline._counted


def _counted(call):
    before = set(sys.modules)
    result = counted(call)
    print("worker:", json.dumps(sorted(
        name for name in set(sys.modules) - before
        if name.startswith("repro."))), file=sys.stderr, flush=True)
    return result


# A forked pool process looks the function up by this name.
_counted.__module__, _counted.__qualname__ = "repro.pipeline", "_counted"
pipeline._counted = _counted
config = PipelineConfig(jobs=int(sys.argv[1]), cache=False, verify_ir=True,
                        validation=ValidationConfig(max_scenarios=2),
                        hierarchy=HierarchyConfig(max_scenarios=1))
for matrix in (run_suite, validate_suite, static_suite, hier_suite):
    matrix(("adpcm", "fft"), config=config)
print("modules:", json.dumps(sorted(sys.modules)), file=sys.stderr)
from repro.gen.fuzz import run_fuzz
run_fuzz("small", seeds=2, config=config)
"""


class TestStartup:
    """A process loads what its command runs: NumPy and the engines load
    with the first simulation, so a process that only parses its
    arguments or reads models from a warm store imports neither."""

    def test_cli_import_loads_no_command(self):
        probe = _python("-c", _MODULE_PROBE.format(run="import repro.cli"))
        assert _among(_modules(probe), HELP_UNLOADED) == []

    def test_help_does_not_import_numpy(self):
        # Nor any other module of HELP_UNLOADED.
        help_run = _repro("--help", probe_modules=True)
        assert "usage: repro" in help_run.stdout
        assert _among(_modules(help_run), HELP_UNLOADED) == []

    def test_warm_suite_does_not_import_numpy(self, tmp_path):
        # Nor any other module of WARM_UNLOADED.
        args = ("suite", "adpcm", "--spm", "--cache-dir",
                str(tmp_path / "shared"))
        cold = _repro(*args, probe_modules=True)
        warm = _repro(*args, probe_modules=True)
        assert "numpy" in _modules(cold)  # the probe works
        assert _counters(warm.stderr, "extraction") == (1, 0, 0)
        assert _among(_modules(warm), WARM_UNLOADED) == []
        assert warm.stdout == cold.stdout

    def test_pool_workers_inherit_every_producer_module(self):
        # _fan_out imports _PRODUCER_MODULES before it forks: a pool
        # process that imports a repro module itself means the list
        # misses one.
        pooled = _python("-c", _FAN_OUT_PROBE, "2")
        imported = [json.loads(line.removeprefix("worker: "))
                    for line in pooled.stderr.splitlines()
                    if line.startswith("worker: ")]
        assert imported == [[]] * 10  # five matrices, two calls each

    def test_producer_modules_are_imported_by_producers(self):
        # Run serially, the producers import every listed module
        # themselves: an entry none of them imports is stale.
        serial = _python("-c", _FAN_OUT_PROBE, "1")
        assert "worker: " not in serial.stderr
        assert set(_PRODUCER_MODULES) - _modules(serial) == set()
