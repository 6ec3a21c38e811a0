"""Paper-style text rendering of Tables I–III, the SPM capacity/energy
frontier, the cross-input stability table, the memory-hierarchy
comparison, and paper comparisons."""

from __future__ import annotations

from repro.analysis.census import LoopCensus
from repro.analysis.coverage import ForayFormCoverage, MemoryBehavior
from repro.analysis.paper_data import (
    PAPER_TABLE1,
    PAPER_TABLE2,
    PAPER_TABLE3,
)
from repro.cachesim.report import HierarchyReport
from repro.foray.validate import WorkloadValidation
from repro.spm.explore import ExplorationPoint, pareto_frontier


def _table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [len(header) for header in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    line = "  ".join(header.ljust(widths[i]) for i, header in enumerate(headers))
    rule = "-" * len(line)
    body = [
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        for row in rows
    ]
    return "\n".join([line, rule, *body])


def format_table1(rows: list[LoopCensus], with_paper: bool = True) -> str:
    """Table I: benchmark complexity and loop distribution."""
    headers = ["benchmark", "lines", "loops", "for%", "while%", "do%"]
    if with_paper:
        headers += ["paper:loops", "paper:for%", "paper:while%", "paper:do%"]
    body = []
    for row in rows:
        cells = [
            row.name,
            str(row.lines),
            str(row.total_loops),
            f"{row.for_pct:.0f}",
            f"{row.while_pct:.0f}",
            f"{row.do_pct:.0f}",
        ]
        if with_paper:
            paper = PAPER_TABLE1.get(row.name)
            if paper is not None:
                cells += [
                    str(paper.total_loops),
                    f"{paper.for_pct:.0f}",
                    f"{paper.while_pct:.0f}",
                    f"{paper.do_pct:.0f}",
                ]
            else:
                cells += ["-", "-", "-", "-"]
        body.append(cells)
    return _table(headers, body)


def format_table2(rows: list[ForayFormCoverage], with_paper: bool = True) -> str:
    """Table II: loops and references converted into FORAY form."""
    headers = [
        "benchmark", "loops", "refs", "loops-not-src%", "refs-not-src%", "ratio",
    ]
    if with_paper:
        headers += ["paper:loops-not%", "paper:refs-not%"]
    body = []
    for row in rows:
        ratio = row.improvement_ratio
        cells = [
            row.name,
            str(row.loops_in_model),
            str(row.refs_in_model),
            f"{row.loops_not_in_source_form_pct:.0f}",
            f"{row.refs_not_in_source_form_pct:.0f}",
            "inf" if ratio == float("inf") else f"{ratio:.2f}",
        ]
        if with_paper:
            paper = PAPER_TABLE2.get(row.name)
            if paper is not None:
                cells += [
                    f"{paper.loops_not_in_form_pct:.0f}",
                    f"{paper.refs_not_in_form_pct:.0f}",
                ]
            else:
                cells += ["-", "-"]
        body.append(cells)
    return _table(headers, body)


def format_table3(rows: list[MemoryBehavior], with_paper: bool = True) -> str:
    """Table III: memory behaviour of the FORAY models."""
    headers = [
        "benchmark", "refs", "accesses", "footprint",
        "model:ref%", "model:acc%", "model:fp%",
        "lib:ref%", "lib:acc%", "lib:fp%",
    ]
    if with_paper:
        headers += ["paper:acc%", "paper:fp%"]
    body = []
    for row in rows:
        cells = [
            row.name,
            str(row.total_references),
            str(row.total_accesses),
            str(row.total_footprint),
            f"{row.model_refs_pct:.1f}",
            f"{row.model_accesses_pct:.0f}",
            f"{row.model_footprint_pct:.0f}",
            f"{row.lib_refs_pct:.0f}",
            f"{row.lib_accesses_pct:.0f}",
            f"{row.lib_footprint_pct:.0f}",
        ]
        if with_paper:
            paper = PAPER_TABLE3.get(row.name)
            if paper is not None:
                cells += [
                    f"{paper.model_accesses_pct:.0f}",
                    f"{paper.model_footprint_pct:.0f}",
                ]
            else:
                cells += ["-", "-"]
        body.append(cells)
    return _table(headers, body)


def format_spm_frontier(
    sweeps: dict[str, list[ExplorationPoint]]
) -> str:
    """Per-workload SPM capacity sweep: energy saving vs. SPM bytes.

    Pareto-optimal points (no smaller capacity achieves the saving) are
    marked ``*`` — the frontier a designer would pick a capacity from.
    """
    headers = [
        "benchmark", "SPM bytes", "buffers", "used", "saved nJ", "saving",
        "pareto",
    ]
    body: list[list[str]] = []
    for name, points in sweeps.items():
        frontier = {point.capacity_bytes for point in pareto_frontier(points)}
        for point in points:
            body.append([
                name,
                str(point.capacity_bytes),
                str(point.buffer_count),
                str(point.used_bytes),
                f"{point.benefit_nj:.0f}",
                f"{point.saving_fraction:.1%}",
                "*" if point.capacity_bytes in frontier else "",
            ])
    policy = next(
        (points[0].policy for points in sweeps.values() if points), "dp"
    )
    table = _table(headers, body)
    return f"SPM capacity sweep (allocator: {policy})\n{table}"


def format_stability_table(
    results: list[WorkloadValidation], threshold: float = 0.0
) -> str:
    """Cross-input stability of the extracted models (scenario matrix).

    One row per workload: the model is extracted on the *profile*
    scenario, replayed against every other scenario, and scored per
    reference. ``self%`` is the full-reference accuracy on the profiling
    input itself (must be 100 by construction); ``min%``/``mean%``
    aggregate the cross-input overall accuracy; ``worst ref`` names the
    least-predictable exercised reference and the scenario that exposed
    it; ``unex`` is the worst-case count of model references a replay
    never exercised.
    """
    headers = [
        "benchmark", "profile", "scen", "self-full%", "min%", "mean%",
        "worst ref", "unex", "status",
    ]
    body: list[list[str]] = []
    for result in results:
        worst = result.worst_reference()
        if worst is None:
            worst_text = "-"
        else:
            scenario, validation = worst
            worst_text = (
                f"{validation.reference.array_name} "
                f"{validation.accuracy:.0%} ({scenario})"
            )
        body.append([
            result.workload,
            result.profile,
            str(result.scenario_count),
            f"{result.self_validation.full_accuracy:.1%}",
            f"{result.min_accuracy:.1%}",
            f"{result.mean_accuracy:.1%}",
            worst_text,
            str(result.max_unexercised),
            "ok" if result.passes(threshold) else "LOW",
        ])
    table = _table(headers, body)
    return (
        "Cross-input stability (model from the profile scenario, replayed "
        "on every other scenario)\n" + table
    )


def format_hier_table(reports: list[HierarchyReport]) -> str:
    """Memory-hierarchy comparison: pure cache vs SPM + cache.

    One row per (workload, scenario, cache-config) matrix cell. ``main``
    is the all-main-memory baseline; ``cache nJ`` the pure-cache run;
    ``spm+cache nJ`` the hybrid with the SPM allocation's intervals
    bypassing the cache; ``saving`` the hybrid's energy saving over the
    pure cache, and ``spm`` marks cells where SPM+cache wins outright.
    """
    headers = [
        "benchmark", "scenario", "cache", "accesses", "L1miss%",
        "main words", "main nJ", "cache nJ", "spm+cache nJ", "spm B",
        "saving", "spm",
    ]
    body: list[list[str]] = []
    for report in reports:
        body.append([
            report.workload,
            report.scenario,
            report.cache_config.spec(),
            str(report.cache.accesses),
            f"{report.cache.l1_miss_rate:.1%}",
            str(report.cache.main_words),
            f"{report.baseline_main_nj:.0f}",
            f"{report.cache_nj:.0f}",
            f"{report.hybrid_nj:.0f}",
            str(report.spm_buffer_bytes),
            f"{report.hybrid_saving_fraction:.1%}",
            "*" if report.spm_win else "",
        ])
    spm_bytes = reports[0].spm_bytes if reports else 0
    policy = reports[0].policy if reports else "dp"
    table = _table(headers, body)
    return (
        "Memory-hierarchy comparison (pure cache vs SPM+cache, "
        f"spm={spm_bytes}B, allocator: {policy})\n{table}"
    )


def format_static_table(reports) -> str:
    """Static-analysis coverage (Table II, model level).

    One row per (workload, scenario) cell of the static matrix
    (:func:`repro.pipeline.static_suite`). ``matched`` counts dynamic
    references the compile-time model reproduces exactly; ``gap`` the
    FORAY-form references only the dynamic approach could model (the
    paper's Table II argument); ``refused`` every reference the static
    analyzer explicitly declined; ``oracle`` is the differential
    verdict (exact agreement on every matched reference, no silent gaps,
    no phantoms, DP-allocation parity).
    """
    headers = [
        "benchmark", "scenario", "dyn-refs", "matched", "cov%",
        "gap", "refused", "oracle",
    ]
    body: list[list[str]] = []
    for report in reports:
        oracle = report.oracle
        body.append([
            report.name,
            report.scenario,
            str(oracle.dynamic_total),
            str(oracle.matched),
            f"{100.0 * oracle.coverage:.0f}",
            str(len(oracle.foray_gap)),
            str(report.static.refused_count),
            "ok" if oracle.ok else "FAIL",
        ])
    table = _table(headers, body)
    return (
        "Static affine reuse analysis (compile-time model vs dynamic "
        "extraction)\n" + table
    )


def format_fuzz_summary(report) -> str:
    """Population summary of one fuzzing run
    (a :class:`repro.gen.fuzz.FuzzReport`): the per-check pass/fail/skip
    census, the cross-input accuracy statistic, and a triage block per
    failing program (seed, failing check, minimized reproducer)."""
    cached = sum(1 for outcome in report.outcomes if outcome.cached)
    lines = [
        f"fuzz: profile={report.profile} programs={report.total} "
        f"failures={len(report.failures)} errors={len(report.errors)}"
        + (f" (cached: {cached})" if cached else "")
    ]
    counts = report.check_counts()
    body = [
        [name, str(tally.get("pass", 0)), str(tally.get("fail", 0)),
         str(tally.get("skip", 0))]
        for name, tally in counts.items()
    ]
    lines.append(_table(["check", "pass", "fail", "skip"], body))
    transfer = report.transfer_stats()
    if transfer is not None:
        measured, lowest, mean = transfer
        lines.append(
            f"cross-input accuracy: mean {mean:.4f}, min {lowest:.4f} "
            f"over {measured} measured program(s)")
    for outcome in report.failures:
        failing = next((check for check in outcome.checks
                        if check.name == outcome.failing_check), None)
        detail = f": {failing.detail}" if failing and failing.detail else ""
        lines.append(f"FAIL {outcome.spec} [{outcome.failing_check}]{detail}")
        lines.append(
            f"  replay: repro gen --profile {outcome.profile} "
            f"--seed-start {outcome.seed} --seeds 1")
        if outcome.shrunk_source:
            lines.append(
                f"  minimized reproducer ({outcome.shrunk_lines} lines, "
                f"from {outcome.source_lines}):")
            lines.extend("  | " + text
                         for text in outcome.shrunk_source.splitlines())
    for outcome in report.errors:
        lines.append(f"ERROR {outcome.spec}: {outcome.error}")
    return "\n".join(lines)


def summarize_headline(rows: list[ForayFormCoverage]) -> str:
    """The paper's headline metric: average improvement in analyzable refs."""
    finite = [r.improvement_ratio for r in rows if r.improvement_ratio != float("inf")]
    total_model = sum(r.refs_in_model for r in rows)
    total_static = sum(r.refs_in_source_form for r in rows)
    overall = total_model / total_static if total_static else float("inf")
    lines = [
        f"analyzable references: {total_static} static -> {total_model} with "
        f"FORAY-GEN ({'inf' if overall == float('inf') else f'{overall:.2f}x'})",
    ]
    if finite:
        mean = sum(finite) / len(finite)
        lines.append(
            f"mean per-benchmark improvement (finite ratios): {mean:.2f}x "
            "(paper: ~2x)"
        )
    return "\n".join(lines)
