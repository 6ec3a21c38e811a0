"""Cross-input model stability over the scenario matrix.

The paper's stated open question is how dependent an extracted FORAY
model is on the profiling input. This bench answers it at suite scale:
for every workload the model is extracted on the profile scenario and
replayed against every other declared input scenario, scoring per-
reference prediction accuracy. Two invariants are asserted:

* **self-validation** — full references replayed against their own
  profiling trace must score 100% (the extractor's definition of "full");
* **serial/parallel parity** — the ``(workload x scenario)`` matrix
  fanned out over worker processes must produce the identical reports.

The serial-vs-parallel matrix wall-clock is recorded (the win assertion
is skipped on 1-CPU hosts). Set ``VALIDATE_BENCH_QUICK=1`` (the CI smoke
step does) to trim the workload set and skip the wall-clock comparison.
"""

import os
import time
from dataclasses import replace

import pytest

from benchmarks.conftest import write_result
from repro.analysis.report import format_stability_table
from repro.pipeline import PipelineConfig, clear_caches, validate_suite
from repro.workloads.registry import workload_names

QUICK = os.environ.get("VALIDATE_BENCH_QUICK") not in (None, "", "0")


def bench_names() -> tuple[str, ...]:
    return ("adpcm", "fft") if QUICK else workload_names()


@pytest.fixture(scope="module")
def matrix_results():
    return validate_suite(bench_names())


@pytest.mark.parametrize("name", bench_names())
def test_model_stability(benchmark, matrix_results, name):
    """Per-workload stability: full references must self-validate at
    100%, and the cross-input accuracy band is recorded."""
    result = next(r for r in matrix_results if r.workload == name)

    def summarize():
        return (result.self_validation.full_accuracy, result.min_accuracy,
                result.mean_accuracy, result.max_unexercised)

    self_full, lo, mean, unexercised = benchmark.pedantic(
        summarize, rounds=1, iterations=1
    )
    assert self_full == 1.0
    assert 0.0 <= lo <= mean <= 1.0
    benchmark.extra_info["min_accuracy"] = round(lo, 4)
    benchmark.extra_info["mean_accuracy"] = round(mean, 4)
    benchmark.extra_info["max_unexercised"] = unexercised


def test_emit_stability_table(matrix_results, results_dir, benchmark):
    """Record the suite-wide stability table."""
    text = benchmark.pedantic(
        format_stability_table, args=(matrix_results,), rounds=1, iterations=1
    )
    write_result(results_dir, "validate_stability.txt", text)
    assert all(r.passes() for r in matrix_results)


def test_parallel_matrix_wallclock(results_dir):
    """``validate_suite`` over N worker processes must beat the serial
    matrix wall-clock (requires more than one CPU; fan-out cannot win on
    a single core)."""
    if QUICK:
        pytest.skip("quick mode: wall-clock comparison skipped")
    config = PipelineConfig(cache=False)
    clear_caches()
    start = time.perf_counter()
    serial = validate_suite(config=config)
    serial_time = time.perf_counter() - start

    cpus = os.cpu_count() or 1
    jobs = min(4, cpus)
    clear_caches()
    start = time.perf_counter()
    parallel = validate_suite(config=replace(config, jobs=jobs))
    parallel_time = time.perf_counter() - start

    assert parallel == serial  # same matrix regardless of fan-out
    cells = sum(r.scenario_count for r in serial)
    write_result(
        results_dir, "validate_parallel_matrix.txt",
        f"validation matrix ({cells} workload x scenario cells) "
        f"serial: {serial_time:.2f}s, jobs={jobs}: {parallel_time:.2f}s "
        f"({serial_time / parallel_time:.2f}x) on {cpus} CPU(s)",
    )
    if cpus == 1:
        pytest.skip("single-CPU host: parallel fan-out cannot beat serial")
    assert parallel_time < serial_time, (
        f"parallel matrix ({parallel_time:.2f}s) did not beat serial "
        f"({serial_time:.2f}s) with jobs={jobs}"
    )
