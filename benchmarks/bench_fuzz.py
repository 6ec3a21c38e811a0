"""Throughput of the seeded generator and the differential fuzzing
harness.

Two rates are recorded: raw generation (build + render, programs/sec)
and the full differential battery (generation plus every check,
programs/sec, serial and fanned out). The battery must also come back
clean — a failing check here is a real finding, not a benchmark
artifact. Set ``FUZZ_BENCH_QUICK=1`` (the CI smoke step does) to trim
seed counts and skip the fan-out comparison.
"""

from __future__ import annotations

import os
import time
from dataclasses import replace

import pytest

from benchmarks.conftest import write_result
from repro.analysis.report import format_fuzz_summary
from repro.gen import generate_program
from repro.gen.fuzz import run_fuzz
from repro.pipeline import PipelineConfig, clear_caches

QUICK = os.environ.get("FUZZ_BENCH_QUICK") not in (None, "", "0")

GEN_SEEDS = 20 if QUICK else 200
FUZZ_SEEDS = 5 if QUICK else 30


def test_generation_throughput(benchmark, results_dir):
    """Raw build + render rate over a fresh seed range per round.

    Wall-clock is measured directly (``--benchmark-disable`` leaves
    ``benchmark.stats`` unset); the benchmark fixture drives execution
    so the run still lands in the comparison table when enabled.
    """
    state = {"next": 0, "elapsed": []}

    def generate_batch():
        start_seed = state["next"]
        state["next"] += GEN_SEEDS
        started = time.perf_counter()
        for seed in range(start_seed, start_seed + GEN_SEEDS):
            generate_program(seed)
        state["elapsed"].append(time.perf_counter() - started)

    benchmark.pedantic(generate_batch, rounds=3, iterations=1)
    rate = GEN_SEEDS / (sum(state["elapsed"]) / len(state["elapsed"]))
    benchmark.extra_info["programs_per_sec"] = round(rate, 1)
    write_result(
        results_dir, "fuzz_generation_rate.txt",
        f"generation: {GEN_SEEDS} programs/round, "
        f"{rate:.1f} programs/sec (small profile)",
    )


def test_fuzz_battery_throughput(benchmark, results_dir):
    """Full differential battery, serial, uncached — and clean."""
    config = PipelineConfig(cache=False)

    def fuzz_batch():
        clear_caches()
        started = time.perf_counter()
        report = run_fuzz("small", seeds=FUZZ_SEEDS, config=config)
        return report, time.perf_counter() - started

    report, elapsed = benchmark.pedantic(fuzz_batch, rounds=1, iterations=1)
    assert report.ok, [
        (o.spec, o.failing_check or o.error) for o in report.outcomes
    ]
    rate = FUZZ_SEEDS / elapsed
    benchmark.extra_info["programs_per_sec"] = round(rate, 2)
    write_result(
        results_dir, "fuzz_battery_rate.txt",
        format_fuzz_summary(report)
        + f"\nbattery: {rate:.2f} programs/sec serial (uncached)",
    )


def test_fuzz_fan_out_wallclock(results_dir):
    """The process-pool fan-out must beat the serial battery wall-clock
    (skipped on 1-CPU hosts, where it cannot)."""
    if QUICK:
        pytest.skip("quick mode: wall-clock comparison skipped")
    config = PipelineConfig(cache=False)
    clear_caches()
    start = time.perf_counter()
    serial = run_fuzz("small", seeds=FUZZ_SEEDS, config=config)
    serial_time = time.perf_counter() - start

    cpus = os.cpu_count() or 1
    jobs = min(4, cpus)
    clear_caches()
    start = time.perf_counter()
    parallel = run_fuzz("small", seeds=FUZZ_SEEDS,
                        config=replace(config, jobs=jobs))
    parallel_time = time.perf_counter() - start

    assert parallel.outcomes == serial.outcomes  # fan-out changes nothing
    write_result(
        results_dir, "fuzz_parallel_wallclock.txt",
        f"fuzz battery ({FUZZ_SEEDS} programs) serial: {serial_time:.2f}s, "
        f"jobs={jobs}: {parallel_time:.2f}s "
        f"({serial_time / parallel_time:.2f}x) on {cpus} CPU(s)",
    )
    if cpus == 1:
        pytest.skip("single-CPU host: parallel fan-out cannot beat serial")
    assert parallel_time < serial_time, (
        f"parallel fuzzing ({parallel_time:.2f}s) did not beat serial "
        f"({serial_time:.2f}s) with jobs={jobs}"
    )
