"""The paper's complexity claim — and the staged engine's scaling story.

Section 4: "the computational complexity ... is linear with respect to the
number of profiled instructions" and the analysis can run during profiling
without storing the trace. These benches feed synthetic traces of growing
length through the extractor and check that per-record cost stays flat and
that analysis state does not grow with trace length.

The second half benchmarks the staged execution engine itself:

* the specialized fast path vs the AST oracle on simulated steps/sec,
  bare and with a live cache co-simulation attached, on every MiBench
  program;
* serial vs multiprocess ``run_suite`` wall-clock, the medians of
  alternating pairs (skipped on 1-CPU hosts, where fan-out cannot beat
  serial by construction).
"""

import json
import os
import socket
import time
from dataclasses import replace
from statistics import geometric_mean

import pytest

from benchmarks.conftest import (
    RESULTS_DIR,
    WALLCLOCK_PAIRS,
    alternating_medians,
    write_result,
)
from repro.cachesim.model import CacheConfig, CacheHierarchy
from repro.cachesim.sink import CacheSink
from repro.foray.extractor import ForayExtractor
from repro.pipeline import PipelineConfig, run_suite
from repro.sim.machine import (
    EngineConfig,
    compile_program,
    lower_compiled,
    run_compiled,
)
from repro.sim.trace import (
    Access,
    Checkpoint,
    CheckpointInfo,
    CheckpointKind,
    CheckpointMap,
)
from repro.workloads.registry import MIBENCH_WORKLOADS

B, S, E = (CheckpointKind.LOOP_BEGIN, CheckpointKind.BODY_BEGIN,
           CheckpointKind.BODY_END)


def make_map() -> CheckpointMap:
    cmap = CheckpointMap()
    for offset, kind in enumerate((B, S, E)):
        cmap.add(CheckpointInfo(10 + offset, kind, 100, "for"))
    return cmap


def synthetic_trace(iterations: int):
    """One loop with `iterations` iterations, two accesses each."""
    yield Checkpoint(10, B)
    for index in range(iterations):
        yield Checkpoint(11, S)
        yield Access(0x400100, 0x10000000 + 4 * index, 4, False)
        yield Access(0x400204, 0x20000000 + 8 * index, 8, True)
        yield Checkpoint(12, E)


def run_extractor(iterations: int) -> ForayExtractor:
    extractor = ForayExtractor(make_map())
    extractor.consume(synthetic_trace(iterations))
    return extractor


@pytest.mark.parametrize("iterations", [1_000, 4_000, 16_000])
def test_throughput(benchmark, iterations):
    """Records/second should be flat across trace lengths (linear time)."""
    extractor = benchmark.pedantic(
        run_extractor, args=(iterations,), rounds=3, iterations=1
    )
    model = extractor.finish()
    assert len(model.references) == 2
    benchmark.extra_info["records"] = 4 * iterations + 1


def test_constant_analysis_state(results_dir, benchmark):
    """Excluding footprint bookkeeping, analysis state must not grow with
    the trace: one loop node and one solver per reference, regardless of
    length. (The paper's constant-space claim; footprints are kept here
    only to report Table III.)"""

    def state_size(iterations):
        extractor = run_extractor(iterations)
        root = extractor.loop_tree_root
        nodes = sum(1 for _ in root.iter_subtree())
        solvers = sum(len(node.references) for node in root.iter_subtree())
        return nodes, solvers

    small = state_size(500)
    large = benchmark.pedantic(state_size, args=(8_000,), rounds=1, iterations=1)
    assert small == large == (2, 2)
    write_result(
        results_dir, "scaling.txt",
        f"analysis state (nodes, solvers): {small} at 500 iters, "
        f"{large} at 8000 iters (constant)",
    )


def test_streaming_needs_no_trace_storage(benchmark):
    """The extractor must work as a pure sink over a generator — no list
    of records is ever materialized."""
    def run():
        extractor = ForayExtractor(make_map())
        for record in synthetic_trace(2_000):
            extractor.emit(record)
        return extractor.finish()

    model = benchmark.pedantic(run, rounds=3, iterations=1)
    assert model.references[0].exec_count == 2_000


# ---------------------------------------------------------------------------
# Staged execution engine
# ---------------------------------------------------------------------------


SCALING_QUICK = os.environ.get("SCALING_BENCH_QUICK") == "1"
#: Committed ratio baseline (host-independent): the CI gate fails when a
#: measured speedup ratio regresses by more than 20% against it.
RATIO_BASELINE = RESULTS_DIR.parent / "BENCH_baseline.json"
#: Tolerated fraction of a baseline figure (1 - the 20% gate).
TOLERANCE = 0.8


#: Best-of rounds for the fast path and for the AST oracle, which is an
#: order of magnitude slower and needs fewer rounds for a stable best.
#: Quick mode cuts AST rounds only: a fast-path round costs about a
#: tenth of an AST one, and with fewer fast-path rounds one short host
#: stall can set the best time, and so the ratio.
ROUNDS = 3
AST_ROUNDS = 1 if SCALING_QUICK else 2


def _race(compiled, make_sinks=tuple) -> dict:
    """Best-of-N wall time of the fast path and of the AST oracle, with
    the rounds alternating between them so that host speed drift hits
    both alike. Returns ``{engine: (best time, result, sinks)}``, the
    result and sinks being those of the engine's last run."""
    out: dict = {}
    for round_ in range(ROUNDS):
        for engine in ("bytecode", "ast"):
            if engine == "ast" and round_ >= AST_ROUNDS:
                continue
            sinks = make_sinks()
            start = time.perf_counter()
            result = run_compiled(compiled, sinks=sinks,
                                  config=EngineConfig(engine=engine))
            elapsed = time.perf_counter() - start
            best = min(elapsed, out.get(engine, (elapsed,))[0])
            out[engine] = (best, result, sinks)
    return out


def _measure_workloads() -> dict:
    """steps/sec of both engine tiers.

    The bytecode engine runs the specialized fast path; the AST oracle
    is the reference point its speedup is measured against. The
    ``fused_`` keys keep the names the committed ratio baseline gates
    on."""
    out = {}
    for name in MIBENCH_WORKLOADS:
        compiled = compile_program(MIBENCH_WORKLOADS[name].source)
        lower_compiled(compiled)  # exclude lowering from timings
        times = _race(compiled)
        fused_t, fused, _ = times["bytecode"]
        ast_t, ast, _ = times["ast"]
        steps = fused.stats.steps
        assert steps == ast.stats.steps, (
            f"engines disagree on simulated steps for {name}")
        out[name] = {
            "steps": steps,
            "ast_sps": steps / ast_t,
            "fused_sps": steps / fused_t,
            "fused_over_ast": ast_t / fused_t,
        }
    return out


def _measure_sink_path() -> dict:
    """The sink-bound hierarchy-matrix path: a live cache co-simulation
    on the specialized fast path versus on the AST oracle, per MiBench
    program."""
    out = {}
    for name in MIBENCH_WORKLOADS:
        compiled = compile_program(MIBENCH_WORKLOADS[name].source)
        lower_compiled(compiled)
        times = _race(compiled,
                      lambda: (CacheSink(CacheHierarchy(CacheConfig())),))
        fast_t, fast, (fast_sink,) = times["bytecode"]
        ast_t, ast, (ast_sink,) = times["ast"]
        cache = fast_sink.finish()
        assert (fast.stats, cache) == (ast.stats, ast_sink.finish()), (
            f"engines disagree on the cache run of {name}")
        accesses = cache.accesses
        out[name] = {
            "accesses": accesses,
            "specialized_sps": fast.stats.steps / fast_t,
            "specialized_aps": accesses / fast_t,
            "ast_aps": accesses / ast_t,
            "specialized_over_ast": ast_t / fast_t,
        }
    return out


def _check_ratio_baseline(bench: dict) -> list[str]:
    """Gate measured speedup ratios against the committed baseline: the
    geometric means over every MiBench program of the bare and the
    sink-path ratio (one program's ratio drifts too much between runs).
    Absolute steps/sec are reported, never gated: host speed drifts."""
    if not RATIO_BASELINE.exists():
        return []  # nothing committed yet
    baseline = json.loads(RATIO_BASELINE.read_text())
    failures = []
    for key in ("fused_over_ast_geomean",
                "sink_specialized_over_ast_geomean"):
        recorded = baseline.get(key)
        if recorded is None:
            continue
        current = bench[key]
        if current < TOLERANCE * recorded:
            failures.append(
                f"{key}: {current:.2f}x is more than 20% below the "
                f"committed baseline {recorded:.2f}x")
    return failures


def test_engine_steps_json(results_dir):
    """Measure both engine tiers plus the sink-bound hierarchy path,
    publish ``BENCH_steps.json`` (absolute steps/sec included, with the
    host they were measured on) and gate the ratios against the
    committed baseline."""
    workloads = _measure_workloads()
    sink = _measure_sink_path()
    bench = {
        "quick": SCALING_QUICK,
        "host": socket.gethostname() or "unknown",
        "fused_over_ast_geomean": geometric_mean(
            m["fused_over_ast"] for m in workloads.values()),
        "sink_specialized_over_ast_geomean": geometric_mean(
            m["specialized_over_ast"] for m in sink.values()),
        "workloads": workloads,
        "sink": sink,
    }
    (results_dir / "BENCH_steps.json").write_text(
        json.dumps(bench, indent=2, sort_keys=True) + "\n")

    lines = [
        f"{name:8s} steps={m['steps']:>9} "
        f"ast={m['ast_sps']:>10.0f} fused={m['fused_sps']:>10.0f} sps "
        f"({m['fused_over_ast']:.2f}x over ast)"
        for name, m in workloads.items()
    ]
    lines.append(f"geomean  {bench['fused_over_ast_geomean']:.2f}x over ast")
    lines.extend(
        f"sink {name:8s} {m['accesses']:>7} accesses: "
        f"specialized {m['specialized_aps']:,.0f} aps vs "
        f"ast {m['ast_aps']:,.0f} aps ({m['specialized_over_ast']:.2f}x)"
        for name, m in sink.items())
    lines.append("sink geomean "
                 f"{bench['sink_specialized_over_ast_geomean']:.2f}x")
    write_result(results_dir, "engine_speedup.txt", "\n".join(lines))

    failures = _check_ratio_baseline(bench)
    assert not failures, "; ".join(failures)


def test_parallel_suite_speedup(results_dir):
    """run_suite over N worker processes must beat the serial suite
    wall-clock, compared on the medians of alternating pairs (requires
    more than one CPU; fan-out cannot win on a single core)."""
    config = PipelineConfig(cache=False)
    cpus = os.cpu_count() or 1
    jobs = min(4, cpus)
    # cache=False still shares compiled programs within the process, and
    # forked workers would inherit the serial run's: every run starts cold.
    serial, parallel, serial_time, parallel_time = alternating_medians(
        lambda: run_suite(config=config),
        lambda: run_suite(config=replace(config, jobs=jobs)))

    assert [r.name for r in parallel] == [r.name for r in serial]
    for left, right in zip(serial, parallel):
        assert left.table2 == right.table2 and left.table3 == right.table3

    write_result(
        results_dir, "parallel_suite.txt",
        f"suite serial: {serial_time:.2f}s, jobs={jobs}: {parallel_time:.2f}s "
        f"({serial_time / parallel_time:.2f}x, medians of "
        f"{WALLCLOCK_PAIRS} pairs) on {cpus} CPU(s)",
    )
    if cpus == 1:
        pytest.skip("single-CPU host: parallel fan-out cannot beat serial")
    assert parallel_time < serial_time, (
        f"parallel suite ({parallel_time:.2f}s) did not beat serial "
        f"({serial_time:.2f}s) with jobs={jobs}"
    )
