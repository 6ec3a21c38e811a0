"""End-to-end value of FORAY-GEN for SPM optimization (Phase II).

The paper's motivation: doubling the analyzable references widens the
reach of SPM optimization. This bench quantifies that on the mini-MiBench
suite by running the allocation production makes (``allocate_graph`` over
the reuse graph, as ``full_flow`` and the hierarchy cells do) twice per
benchmark:

* **with FORAY-GEN** — over the graph of the full extracted model;
* **static only** — over the graph of the model restricted to the
  references the static baseline could already see in the source.

The energy saved by the extra (FORAY-GEN-only) references is the payoff
the paper argues for. A capacity sweep per benchmark is also recorded,
plus two Phase II quality/performance benches:

* **DP vs. greedy** — the exact allocator's saving vs. both greedy
  rankings over the whole capacity ladder (the DP must dominate);
* **parallel sweep** — serial vs. multiprocess ``sweep_suite`` wall-clock,
  the medians of alternating pairs (the win assertion is skipped on
  1-CPU hosts).

Set ``SPM_BENCH_QUICK=1`` (the CI smoke step does) to trim the workload
set and the ladder and skip the wall-clock comparison.
"""

import os
from dataclasses import replace

import pytest

from benchmarks.conftest import (
    WALLCLOCK_PAIRS,
    alternating_medians,
    write_result,
)
from repro.pipeline import PipelineConfig, SpmConfig
from repro.sim.trace import node_id_of_pc
from repro.spm.allocator import AllocatorPolicy, allocate_graph
from repro.spm.explore import DEFAULT_CAPACITIES, explore, sweep_suite
from repro.spm.graph import ReuseGraph
from repro.workloads.registry import workload_names

SPM_BYTES = 4096

QUICK = os.environ.get("SPM_BENCH_QUICK") not in (None, "", "0")
LADDER = (512, 2048, 8192, 16384) if QUICK else DEFAULT_CAPACITIES


def bench_names() -> tuple[str, ...]:
    return ("jpeg", "mpeg2") if QUICK else workload_names()


def split_allocations(report, capacity=SPM_BYTES):
    """The allocations over the full model and over its statically
    analyzable references alone."""
    model = report.model
    static_model = replace(model, references=[
        ref for ref in model.references
        if report.static_result.is_analyzable_ref(node_id_of_pc(ref.pc))
    ])
    return (
        allocate_graph(ReuseGraph.from_model(model), capacity),
        allocate_graph(ReuseGraph.from_model(static_model), capacity),
    )


@pytest.mark.parametrize("name", workload_names())
def test_foray_vs_static_spm_benefit(benchmark, suite_reports, name):
    report = suite_reports[name]
    with_foray, static_only = benchmark.pedantic(
        split_allocations, args=(report,), rounds=1, iterations=1
    )
    # FORAY-GEN can only widen the optimization space.
    assert with_foray.total_benefit_nj >= static_only.total_benefit_nj - 1e-9
    benchmark.extra_info["saved_nj_foray"] = round(with_foray.total_benefit_nj)
    benchmark.extra_info["saved_nj_static"] = round(static_only.total_benefit_nj)


def test_emit_spm_comparison(suite_reports, results_dir, benchmark):
    def build():
        lines = [
            f"SPM ({SPM_BYTES} B) energy saving: FORAY-GEN model vs "
            "static-only references",
            f"{'benchmark':>10} {'foray nJ':>12} {'static nJ':>12} {'gain':>8}",
        ]
        total_foray = total_static = 0.0
        for name, report in suite_reports.items():
            with_foray, static_only = split_allocations(report)
            total_foray += with_foray.total_benefit_nj
            total_static += static_only.total_benefit_nj
            gain = (
                with_foray.total_benefit_nj
                / max(1e-9, static_only.total_benefit_nj)
            )
            gain_text = f"{gain:.2f}x" if static_only.total_benefit_nj else "inf"
            lines.append(
                f"{name:>10} {with_foray.total_benefit_nj:>12.0f} "
                f"{static_only.total_benefit_nj:>12.0f} {gain_text:>8}"
            )
        lines.append(
            f"{'TOTAL':>10} {total_foray:>12.0f} {total_static:>12.0f}"
        )
        return "\n".join(lines), total_foray, total_static

    text, total_foray, total_static = benchmark.pedantic(
        build, rounds=1, iterations=1
    )
    write_result(results_dir, "spm_benefit.txt", text)
    # The suite-wide benefit with FORAY-GEN must exceed static-only.
    assert total_foray > total_static


@pytest.mark.parametrize("name", ["gsm", "lame"])
def test_capacity_sweep(benchmark, suite_reports, results_dir, name):
    """Design-space exploration (Figure 3, Phase II step 3) per workload."""
    model = suite_reports[name].model
    points = benchmark.pedantic(explore, args=(model,), rounds=1, iterations=1)
    benefits = [p.benefit_nj for p in points]
    assert benefits == sorted(benefits)  # monotone in capacity
    lines = [f"{name} SPM capacity sweep",
             f"{'bytes':>8} {'buffers':>8} {'saved nJ':>12} {'saving':>8}"]
    for p in points:
        lines.append(
            f"{p.capacity_bytes:>8} {p.buffer_count:>8} "
            f"{p.benefit_nj:>12.0f} {p.saving_fraction:>7.1%}"
        )
    write_result(results_dir, f"spm_sweep_{name}.txt", "\n".join(lines))


# ---------------------------------------------------------------------------
# Allocator quality: exact DP vs. the greedy rankings
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", bench_names())
def test_dp_vs_greedy_quality(benchmark, suite_reports, name):
    """The exact DP must match or beat both greedy rankings at every
    capacity of the ladder; the quality gap is recorded."""
    graph = ReuseGraph.from_model(suite_reports[name].model)

    def run():
        rows = []
        for capacity in LADDER:
            dp = allocate_graph(graph, capacity, AllocatorPolicy.DP)
            greedy = allocate_graph(graph, capacity, AllocatorPolicy.GREEDY)
            legacy = allocate_graph(graph, capacity,
                                    AllocatorPolicy.GREEDY_BENEFIT)
            rows.append((capacity, dp, greedy, legacy))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    worst_greedy = worst_legacy = 1.0
    for capacity, dp, greedy, legacy in rows:
        assert dp.total_benefit_nj >= greedy.total_benefit_nj - 1e-9
        assert dp.total_benefit_nj >= legacy.total_benefit_nj - 1e-9
        if dp.total_benefit_nj > 0:
            worst_greedy = min(
                worst_greedy, greedy.total_benefit_nj / dp.total_benefit_nj)
            worst_legacy = min(
                worst_legacy, legacy.total_benefit_nj / dp.total_benefit_nj)
    benchmark.extra_info["greedy_vs_dp_worst"] = round(worst_greedy, 4)
    benchmark.extra_info["legacy_vs_dp_worst"] = round(worst_legacy, 4)


def test_emit_dp_vs_greedy_table(suite_reports, results_dir, benchmark):
    """Record the suite-wide allocator quality comparison."""

    def build():
        lines = [
            "Allocator quality at each SPM capacity: saved nJ "
            "(DP / greedy-density / greedy-benefit)",
            f"{'benchmark':>10} {'bytes':>7} {'dp nJ':>10} "
            f"{'greedy nJ':>10} {'legacy nJ':>10}",
        ]
        totals = {policy: 0.0 for policy in AllocatorPolicy}
        for name in bench_names():
            graph = ReuseGraph.from_model(suite_reports[name].model)
            for capacity in LADDER:
                row = {
                    policy: allocate_graph(graph, capacity,
                                           policy).total_benefit_nj
                    for policy in AllocatorPolicy
                }
                for policy, value in row.items():
                    totals[policy] += value
                lines.append(
                    f"{name:>10} {capacity:>7} "
                    f"{row[AllocatorPolicy.DP]:>10.0f} "
                    f"{row[AllocatorPolicy.GREEDY]:>10.0f} "
                    f"{row[AllocatorPolicy.GREEDY_BENEFIT]:>10.0f}"
                )
        lines.append(
            f"{'TOTAL':>10} {'':>7} {totals[AllocatorPolicy.DP]:>10.0f} "
            f"{totals[AllocatorPolicy.GREEDY]:>10.0f} "
            f"{totals[AllocatorPolicy.GREEDY_BENEFIT]:>10.0f}"
        )
        return "\n".join(lines), totals

    text, totals = benchmark.pedantic(build, rounds=1, iterations=1)
    write_result(results_dir, "spm_allocator_quality.txt", text)
    assert totals[AllocatorPolicy.DP] >= totals[AllocatorPolicy.GREEDY] - 1e-6
    assert (totals[AllocatorPolicy.DP]
            >= totals[AllocatorPolicy.GREEDY_BENEFIT] - 1e-6)


# ---------------------------------------------------------------------------
# Parallel capacity sweep: serial vs. multiprocess wall-clock
# ---------------------------------------------------------------------------


def test_parallel_sweep_wallclock(results_dir):
    """``sweep_suite`` over N worker processes must beat the serial sweep
    wall-clock, compared on the medians of alternating pairs (requires
    more than one CPU; fan-out cannot win on a single core)."""
    if QUICK:
        pytest.skip("quick mode: wall-clock comparison skipped")
    config = PipelineConfig(cache=False, spm=SpmConfig(capacities=LADDER))
    cpus = os.cpu_count() or 1
    jobs = min(4, cpus)
    serial, parallel, serial_time, parallel_time = alternating_medians(
        lambda: sweep_suite(config=config),
        lambda: sweep_suite(config=replace(config, jobs=jobs)))

    assert parallel == serial  # same frontiers regardless of fan-out
    write_result(
        results_dir, "spm_parallel_sweep.txt",
        f"capacity sweep ({len(LADDER)} capacities x {len(serial)} "
        f"workloads) serial: {serial_time:.2f}s, jobs={jobs}: "
        f"{parallel_time:.2f}s ({serial_time / parallel_time:.2f}x, "
        f"medians of {WALLCLOCK_PAIRS} pairs) on {cpus} CPU(s)",
    )
    if cpus == 1:
        pytest.skip("single-CPU host: parallel fan-out cannot beat serial")
    assert parallel_time < serial_time, (
        f"parallel sweep ({parallel_time:.2f}s) did not beat serial "
        f"({serial_time:.2f}s) with jobs={jobs}"
    )
