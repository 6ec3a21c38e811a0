"""Shared fixtures for the benchmark harness.

Workload profiling is the expensive step (seconds per benchmark), so the
suite reports are computed once per session and reused by every table
bench. Each bench also writes its regenerated table into
``benchmarks/results/`` so the paper comparison survives output capture.
"""

from __future__ import annotations

import pathlib
import time
from statistics import median
from typing import Callable

import pytest

from repro.pipeline import WorkloadReport, clear_caches, run_workload
from repro.workloads.registry import MIBENCH_WORKLOADS

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Serial/parallel pairs a wall-clock comparison takes its medians over:
#: on a 2-CPU host one pair's ratio ranged 0.98-2.57 for the same code.
WALLCLOCK_PAIRS = 5


@pytest.fixture(scope="session")
def suite_reports() -> dict[str, WorkloadReport]:
    return {
        name: run_workload(name, workload.source)
        for name, workload in MIBENCH_WORKLOADS.items()
    }


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def write_result(results_dir: pathlib.Path, name: str, text: str) -> None:
    (results_dir / name).write_text(text + "\n")
    print()
    print(text)


def alternating_medians(
    serial: Callable[[], object], parallel: Callable[[], object],
) -> tuple[object, object, float, float]:
    """Run ``serial`` and ``parallel`` alternately, ``WALLCLOCK_PAIRS``
    times each, every run from cold in-process memos (forked workers
    would inherit a warm parent's). Returns the last result of each and
    the median wall-clock seconds of each."""
    results: list[object] = [None, None]
    times: tuple[list[float], list[float]] = ([], [])
    for _ in range(WALLCLOCK_PAIRS):
        for index, call in enumerate((serial, parallel)):
            clear_caches()
            start = time.perf_counter()
            results[index] = call()
            times[index].append(time.perf_counter() - start)
    return results[0], results[1], median(times[0]), median(times[1])
