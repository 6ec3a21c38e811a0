"""Shared fixtures.

Running a workload takes seconds (it is a full simulated profile), so the
expensive artifacts — the six suite reports and the figure extractions —
are computed once per session and shared by every test that needs them.
"""

from __future__ import annotations

import os

import pytest

# Every simulated run in the test suite structurally verifies the lowered
# and fused bytecode first (memoized per compiled program, so the cost is
# one pass per program). See repro.sim.verify.
os.environ.setdefault("REPRO_VERIFY_IR", "1")

from repro.foray.filters import FilterConfig
from repro.pipeline import (
    PipelineConfig,
    WorkloadReport,
    extract_foray_model,
    run_workload,
)
from repro.workloads.figures import FIG1A, FIG1B, FIG4A, FIG7A, FIG7B, FIG9
from repro.workloads.registry import MIBENCH_WORKLOADS

#: Relaxed filter used when a test wants to see every analyzable reference.
RELAXED = FilterConfig(nexec=1, nloc=1)


@pytest.fixture(autouse=True)
def _isolated_cache_dir(tmp_path, monkeypatch):
    """Point every CLI invocation's default disk artifact store at a
    per-test directory, so tests never touch (or depend on) the user's
    ``~/.cache/repro``. Library calls are unaffected: ``PipelineConfig``
    only uses a disk store when ``cache_dir`` is set explicitly."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "artifact-cache"))


@pytest.fixture(scope="session")
def suite_reports() -> dict[str, WorkloadReport]:
    """Phase I + baseline + metrics for every registered suite workload."""
    return {
        name: run_workload(name, workload.source)
        for name, workload in MIBENCH_WORKLOADS.items()
    }


def _extract(workload, filter_config=None):
    return extract_foray_model(
        workload.source, config=PipelineConfig(filter_config=filter_config))


@pytest.fixture(scope="session")
def fig1a_extraction():
    return _extract(FIG1A)


@pytest.fixture(scope="session")
def fig1b_extraction():
    # The example runs only 16 iterations (paper Figure 2, bottom), below
    # the paper's Nexec=20 production threshold — relax for the test.
    return _extract(FIG1B, RELAXED)


@pytest.fixture(scope="session")
def fig4a_extraction():
    return _extract(FIG4A, RELAXED)


@pytest.fixture(scope="session")
def fig7a_extraction():
    return _extract(FIG7A, RELAXED)


@pytest.fixture(scope="session")
def fig7b_extraction():
    return _extract(FIG7B, RELAXED)


@pytest.fixture(scope="session")
def fig9_extraction():
    return _extract(FIG9)
