"""Differential test: columnar extraction against per-record extraction.

The engines hand sinks whole :class:`~repro.sim.trace.ColumnBlock`s, and
``ForayExtractor.emit_columns`` / ``ValidationSink.emit_columns`` consume
them with one loop-tree walk per block, grouped per solver and partly
vectorized. The per-record ``emit`` path is the plain reading of the
paper's algorithms. Each case runs a program once with the columnar sink
and a :class:`~repro.sim.trace.TraceCollector` attached, replays the
collector's records through the per-record path, and requires identical
results: the FORAY model, the executed loops and every loop node's trip
statistics, or the validation report.
"""

from functools import lru_cache

import pytest

from repro.foray.extractor import ForayExtractor
from repro.foray.validate import ValidationSink, validate_model
from repro.sim.machine import EngineConfig, compile_program, run_compiled
from repro.sim.trace import TraceCollector
from repro.workloads.registry import (
    ALL_WORKLOADS,
    MIBENCH_WORKLOADS,
    get_workload,
)

#: Programs cheap enough to run with one record per block.
SMALL_PROGRAMS = ("adpcm", "mpeg2", "fig1a", "fig1b", "fig4a", "fig7a",
                  "fig7b", "fig9")
GEN_PROGRAMS = tuple(f"gen:small:{seed}" for seed in range(20))
#: A large block (in records) that the small programs fit in whole; the
#: pipeline tests run at the engines' default size.
LARGE_BLOCK = 4096

EXTRACTION_CASES = (
    [(name, "bytecode", LARGE_BLOCK) for name in ALL_WORKLOADS]
    + [(name, "ast", LARGE_BLOCK) for name in ALL_WORKLOADS]
    + [(name, "bytecode", 7) for name in ALL_WORKLOADS]
    + [(name, "bytecode", 1) for name in SMALL_PROGRAMS]
    + [(name, "bytecode", block) for name in GEN_PROGRAMS
       for block in (LARGE_BLOCK, 7, 1)]
)
VALIDATION_CASES = (
    [(name, LARGE_BLOCK) for name in MIBENCH_WORKLOADS]
    + [(name, block) for name in ("adpcm", "mpeg2") for block in (7, 1)]
    + [(name, block) for name in GEN_PROGRAMS
       for block in (LARGE_BLOCK, 7, 1)]
)


def loop_table(extractor):
    return [
        (node.uid, node.begin_id, node.entries, node.min_trip,
         node.max_trip, node.total_iterations)
        for node in extractor.loop_tree_root.iter_subtree()
    ]


def extract_both(source, config):
    """Run ``source`` once; return (live columnar extractor, the same
    run's records replayed through the per-record path, run result)."""
    compiled = compile_program(source)
    live = ForayExtractor(compiled.checkpoint_map)
    collector = TraceCollector()
    result = run_compiled(compiled, sinks=(live, collector), config=config)
    replayed = ForayExtractor(compiled.checkpoint_map)
    replayed.consume(collector.records)
    return live, replayed, result


@pytest.mark.parametrize("name,engine,block", EXTRACTION_CASES)
def test_extraction_matches_record_path(name, engine, block):
    live, replayed, result = extract_both(
        get_workload(name).source,
        EngineConfig(engine=engine, trace_block_size=block))
    if block == 1:
        assert result.stats.accesses < 25_000  # keeps this case cheap
    assert live.finish() == replayed.finish()
    assert live.executed_loops() == replayed.executed_loops()
    assert loop_table(live) == loop_table(replayed)


@lru_cache(maxsize=None)
def profile_model(name):
    """The model extracted on the workload's nominal scenario."""
    workload = get_workload(name)
    profile = workload.scenarios[0]
    compiled = compile_program(workload.source_for(profile))
    extractor = ForayExtractor(compiled.checkpoint_map)
    run_compiled(compiled, sinks=(extractor,),
                 config=EngineConfig(input=profile.input))
    return extractor.finish()


def report_rows(report):
    return [
        (validation.reference.pc, validation.checked, validation.predicted)
        for validation in report.per_reference
    ]


@pytest.mark.parametrize("name,block", VALIDATION_CASES)
def test_validation_matches_record_path(name, block):
    # Replay the second scenario against the nominal scenario's model: a
    # cross-input replay exercises partial-reference re-anchoring.
    workload = get_workload(name)
    replay = workload.scenarios[1]
    model = profile_model(name)
    compiled = compile_program(workload.source_for(replay))
    sink = ValidationSink(model, compiled.checkpoint_map)
    collector = TraceCollector()
    run_compiled(compiled, sinks=(sink, collector),
                 config=EngineConfig(input=replay.input,
                                     trace_block_size=block))
    online = sink.finish()
    offline = validate_model(model, collector.records,
                             compiled.checkpoint_map)
    assert online.total_checked > 0 or not model.references
    assert report_rows(online) == report_rows(offline)
    assert online.unexercised == offline.unexercised
    assert online.fingerprint() == offline.fingerprint()
