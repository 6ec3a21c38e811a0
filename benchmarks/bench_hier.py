"""Cache co-simulation benchmarks: sink throughput and matrix scaling.

Two claims are measured:

* the streaming :class:`~repro.cachesim.sink.CacheSink` keeps up with
  the engines — simulated cache **accesses/sec** over a live run, with
  zero trace materialization (the sink rides the batched protocol); and
* the hierarchy matrix scales over the shared fan-out machinery —
  **serial vs parallel** wall-clock of a cold ``hier_suite`` run (the
  speedup assertion is skipped on single-CPU hosts, like
  ``bench_scaling``).

``HIER_BENCH_QUICK=1`` restricts both to a two-workload subset for CI
smoke runs.
"""

import os
import time

from benchmarks.conftest import write_result

from repro.cachesim.model import CacheConfig, CacheHierarchy
from repro.cachesim.sink import CacheSink
from repro.pipeline import (
    HierarchyConfig,
    PipelineConfig,
    clear_caches,
    hier_suite,
)
from repro.sim.machine import compile_program, run_compiled
from repro.workloads.registry import MIBENCH_WORKLOADS, workload_names

QUICK = os.environ.get("HIER_BENCH_QUICK") == "1"
NAMES: tuple[str, ...] = ("adpcm", "gsm") if QUICK else tuple(workload_names())
#: Cache-config axis of the benchmarked matrix (kept small: the point is
#: the fan-out, not an exhaustive sweep).
SWEEP = (CacheConfig(line_bytes=16, sets=16, ways=1),)


def test_streaming_sink_throughput(results_dir):
    """Accesses/sec through the cache sink on a live engine run."""
    name = "gsm" if not QUICK else "adpcm"
    compiled = compile_program(MIBENCH_WORKLOADS[name].source)
    sink = CacheSink(CacheHierarchy(CacheConfig()))
    start = time.perf_counter()
    run_compiled(compiled, sinks=(sink,))
    elapsed = time.perf_counter() - start
    result = sink.finish()
    accesses = result.accesses
    rate = accesses / elapsed
    write_result(
        results_dir, "hier_throughput.txt",
        f"cache sink ({name}): {accesses} accesses in {elapsed:.2f}s "
        f"= {rate:,.0f} accesses/sec, L1 miss {result.l1_miss_rate:.1%}"
        + (" [quick]" if QUICK else ""),
    )
    assert accesses > 0
    # Generous floor: streaming simulation must not be orders of
    # magnitude off the engines' own pace.
    assert rate > 10_000, f"cache sink too slow: {rate:,.0f} accesses/sec"


def test_serial_vs_parallel_matrix(results_dir, tmp_path):
    """Cold hierarchy-matrix wall-clock, 1 worker vs CPU-count workers."""
    def run(jobs, cache_dir):
        clear_caches()
        config = PipelineConfig(
            jobs=jobs, cache_dir=str(cache_dir),
            hierarchy=HierarchyConfig(sweep=SWEEP),
        )
        start = time.perf_counter()
        cells = hier_suite(NAMES, config=config)
        return cells, time.perf_counter() - start

    serial_cells, serial_time = run(1, tmp_path / "serial")
    parallel_cells, parallel_time = run(0, tmp_path / "parallel")

    assert serial_cells == parallel_cells
    cpus = os.cpu_count() or 1
    ratio = serial_time / parallel_time if parallel_time else float("inf")
    write_result(
        results_dir, "hier_matrix_scaling.txt",
        f"hier matrix ({len(serial_cells)} cells over {len(NAMES)} "
        f"workloads): serial {serial_time:.2f}s, parallel ({cpus} cpus) "
        f"{parallel_time:.2f}s ({ratio:.1f}x)"
        + (" [quick]" if QUICK else ""),
    )
    if cpus >= 2 and not QUICK:
        assert parallel_time < serial_time, (
            f"parallel matrix ({parallel_time:.2f}s) did not beat serial "
            f"({serial_time:.2f}s) on a {cpus}-cpu host"
        )


def test_warm_matrix_is_free(results_dir, tmp_path):
    """A warm rerun of the same matrix must be served entirely from the
    artifact store — the amortization the subsystem promises."""
    config = PipelineConfig(
        cache_dir=str(tmp_path / "store"),
        hierarchy=HierarchyConfig(),
    )
    clear_caches()
    start = time.perf_counter()
    cold = hier_suite(NAMES, config=config)
    cold_time = time.perf_counter() - start

    clear_caches()  # memory gone; only the disk store remains
    start = time.perf_counter()
    warm = hier_suite(NAMES, config=config)
    warm_time = time.perf_counter() - start

    assert warm == cold
    ratio = cold_time / warm_time if warm_time else float("inf")
    write_result(
        results_dir, "hier_warm_rerun.txt",
        f"hier matrix cold: {cold_time:.2f}s, warm: {warm_time:.2f}s "
        f"({ratio:.1f}x) over {len(cold)} cells"
        + (" [quick]" if QUICK else ""),
    )
    assert warm_time < cold_time
