"""The compile node, kept in memory whatever ``config.cache`` says.

A compiled program is a pure function of its source text, so the
pipeline memoizes it in process under ``cache=False`` too: that setting
drops the disk tier and every simulated artifact, while validation
scenarios, hierarchy cells and the fuzz battery compile each distinct
source once. These tests count the compiles, pin the instrumentation
flag that keeps a loop-free program from being instrumented (and
persisted) twice, and hold a shared program to a fresh compile across
runs cut short by the step and call-depth budgets.
"""

from __future__ import annotations

import dataclasses
import sys

import pytest

from repro.gen import generate_program
from repro.gen.fuzz import (
    PARITY_CONFIGS,
    _check_lint,
    _CheckContext,
    fuzz_program,
)
from repro.lang import semantics
from repro.lang.errors import MiniCRuntimeError
from repro.lang.lint import lint_program, lint_source
from repro.pipeline import (
    PipelineConfig,
    _compiled,
    _memos,
    clear_caches,
    extract_foray_model,
    hier_suite,
    store_for,
    validate_workload,
)
from repro.sim import specialize
from repro.sim.machine import compile_program, run_compiled
from repro.sim.trace import TraceCollector, format_trace
from repro.workloads.registry import get_workload, workload_names

NO_CACHE = PipelineConfig(cache=False)

LOOP_FREE = """
int g[4];
int main() { g[1] = 7; return g[1] + g[2]; }
"""

#: Loops, recursion, stdout and global state: enough for a run cut short
#: by either budget to leave something behind if a run could.
HYGIENE_SOURCE = """
int table[32];
int depth(int n) {
    int i, r = 0;
    for (i = 0; i < 2; i++) { table[n & 31] += i; }
    if (n > 0) r = depth(n - 1) + 1;
    return r;
}
int main(void) {
    int i, total = 0;
    for (i = 0; i < 32; i++) { table[i] = i * 3; total += table[i]; }
    printf("total %d\\n", total);
    return (depth(20) + total) & 255;
}
"""


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_caches()
    yield
    clear_caches()


@pytest.fixture
def compiles(monkeypatch):
    """``(parsed sources, specialized programs)``, recorded from every
    ``parse_and_analyze`` and ``_specialize`` call."""
    parsed: list[str] = []
    specialized: list[object] = []
    real_parse = semantics.parse_and_analyze
    real_specialize = specialize._specialize

    def parse(source, *args, **kwargs):
        parsed.append(source)
        return real_parse(source, *args, **kwargs)

    def specialize_counted(bp):
        specialized.append(bp)
        return real_specialize(bp)

    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("repro")
                and getattr(module, "parse_and_analyze", None) is real_parse):
            monkeypatch.setattr(module, "parse_and_analyze", parse)
    monkeypatch.setattr(specialize, "_specialize", specialize_counted)
    return parsed, specialized


class TestOneCompilePerSource:
    @pytest.mark.parametrize("name, sources", [("adpcm", 1), ("mpeg2", 3)])
    def test_validate_workload(self, compiles, name, sources):
        validate_workload(name, config=NO_CACHE)
        parsed, specialized = compiles
        assert len(set(parsed)) == sources
        assert len(parsed) == len(specialized) == sources

    def test_hier_suite(self, compiles):
        hier_suite(("adpcm",), config=NO_CACHE)
        parsed, specialized = compiles
        assert len(parsed) == len(specialized) == 1

    def test_fuzz_battery(self, compiles):
        outcome = fuzz_program("small", 0, config=NO_CACHE)
        assert outcome.status == "pass"
        parsed, specialized = compiles
        assert len(parsed) >= 2  # the program plus its scenario/replays
        assert len(parsed) == len(set(parsed)) == len(specialized)

    def test_only_clear_caches_drops_compiled_programs(self, compiles):
        first = extract_foray_model(LOOP_FREE, config=NO_CACHE).compiled
        assert extract_foray_model(
            LOOP_FREE, config=NO_CACHE).compiled is first
        clear_caches()
        assert extract_foray_model(
            LOOP_FREE, config=NO_CACHE).compiled is not first
        assert len(compiles[0]) == 2


def test_loop_free_program_is_instrumented_once(tmp_path):
    # Regression: "instrumented" used to mean "has checkpoints", so a
    # compile-cache hit on a loop-free program re-ran the checkpoint pass
    # and rewrote its compile entry to the disk store.
    config = PipelineConfig(cache_dir=str(tmp_path / "store"))
    first = extract_foray_model(LOOP_FREE, config=config)
    store = store_for(config)
    stored = store.session_counters()["compile"]["stores"]
    _memos["extraction"].clear()
    second = extract_foray_model(LOOP_FREE, config=config)
    assert store.session_counters()["compile"]["stores"] == stored
    assert second.model == first.model
    assert len(first.compiled.checkpoint_map) == 0


def test_shared_program_lints_like_its_source():
    # The battery lints the shared program after the other checks have
    # run it on every tier; the findings must be those of the text.
    for seed in range(3):
        workload = generate_program(seed).workload
        assert fuzz_program("small", seed, config=NO_CACHE).status == "pass"
        shared = _compiled(workload.source, NO_CACHE)
        assert lint_program(shared.program) == \
            lint_source(workload.source, workload.name)
    for name in workload_names():
        source = get_workload(name).source
        shared = _compiled(source, NO_CACHE)
        assert lint_program(shared.program) == lint_source(source, name)


def test_lint_check_reports_front_end_errors_as_l100():
    rendered = generate_program(0)
    broken = dataclasses.replace(rendered, workload=dataclasses.replace(
        rendered.workload, source="int main( {", source_template=None))
    outcome = _check_lint(_CheckContext(broken, NO_CACHE))
    assert outcome.status == "fail"
    expected = lint_source("int main( {", filename=broken.workload.name)
    assert [f.rule for f in expected] == ["L100"]
    assert outcome.detail == str(expected[0])[:300]


def _observe(compiled, config) -> tuple:
    """What one run shows: exit code, stdout, stats and trace, or the
    error and the trace prefix flushed before it."""
    collector = TraceCollector()
    try:
        result = run_compiled(compiled, sinks=(collector,), config=config)
    except MiniCRuntimeError as error:
        return (type(error).__name__, str(error),
                format_trace(collector.records))
    return (result.exit_code, result.stdout, result.stats,
            format_trace(collector.records))


def test_shared_program_matches_fresh_compile_after_cut_short_runs():
    shared = _compiled(HYGIENE_SOURCE, NO_CACHE)
    assert _compiled(HYGIENE_SOURCE, NO_CACHE) is shared
    expected = {tier: _observe(compile_program(HYGIENE_SOURCE), config)
                for tier, config in PARITY_CONFIGS}
    assert len({signature[0] for signature in expected.values()}) == 1
    assert isinstance(expected["ast"][0], int)  # the full run completes
    for tier, config in PARITY_CONFIGS:
        assert _observe(shared, config) == expected[tier], tier
    for budget in ({"max_steps": 150}, {"max_call_depth": 8}):
        for tier, config in PARITY_CONFIGS:
            cut = dataclasses.replace(config, **budget)
            fresh = _observe(compile_program(HYGIENE_SOURCE), cut)
            assert isinstance(fresh[0], str), (tier, budget)  # cut short
            assert _observe(shared, cut) == fresh, (tier, budget)
        for tier, config in PARITY_CONFIGS:
            assert _observe(shared, config) == expected[tier], (tier, budget)
