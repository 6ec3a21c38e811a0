"""Machine-readable report payloads for the CLI's ``--json`` mode.

Downstream tooling used to scrape the human tables off stdout; these
builders expose the same numbers as plain dicts of JSON-safe scalars
(no ``Infinity``/``NaN`` — non-finite ratios become ``None``, so the
output survives strict parsers). The human tables remain the default;
``--json`` swaps stdout wholesale, leaving the stderr cache counters
untouched.
"""

from __future__ import annotations

import math

from repro.analysis.census import LoopCensus
from repro.analysis.coverage import ForayFormCoverage, MemoryBehavior
from repro.cachesim.report import HierarchyReport
from repro.foray.validate import WorkloadValidation
from repro.spm.explore import ExplorationPoint


def _finite(value: float) -> float | None:
    """JSON-safe number: strict JSON has no Infinity/NaN literals."""
    return value if math.isfinite(value) else None


def census_row(row: LoopCensus) -> dict:
    return {
        "benchmark": row.name,
        "lines": row.lines,
        "loops": row.total_loops,
        "for_loops": row.for_loops,
        "while_loops": row.while_loops,
        "do_loops": row.do_loops,
        "for_pct": row.for_pct,
        "while_pct": row.while_pct,
        "do_pct": row.do_pct,
    }


def coverage_row(row: ForayFormCoverage) -> dict:
    return {
        "benchmark": row.name,
        "loops_in_model": row.loops_in_model,
        "refs_in_model": row.refs_in_model,
        "loops_in_source_form": row.loops_in_source_form,
        "refs_in_source_form": row.refs_in_source_form,
        "loops_not_in_source_form_pct": row.loops_not_in_source_form_pct,
        "refs_not_in_source_form_pct": row.refs_not_in_source_form_pct,
        "improvement_ratio": _finite(row.improvement_ratio),
    }


def behavior_row(row: MemoryBehavior) -> dict:
    return {
        "benchmark": row.name,
        "total_references": row.total_references,
        "total_accesses": row.total_accesses,
        "total_footprint": row.total_footprint,
        "model_refs_pct": row.model_refs_pct,
        "model_accesses_pct": row.model_accesses_pct,
        "model_footprint_pct": row.model_footprint_pct,
        "lib_refs_pct": row.lib_refs_pct,
        "lib_accesses_pct": row.lib_accesses_pct,
        "lib_footprint_pct": row.lib_footprint_pct,
    }


def exploration_row(point: ExplorationPoint) -> dict:
    return {
        "capacity_bytes": point.capacity_bytes,
        "buffer_count": point.buffer_count,
        "used_bytes": point.used_bytes,
        "benefit_nj": point.benefit_nj,
        "baseline_nj": point.baseline_nj,
        "saving_fraction": point.saving_fraction,
        "policy": point.policy,
    }


def validation_row(result: WorkloadValidation, threshold: float) -> dict:
    worst = result.worst_reference()
    return {
        "benchmark": result.workload,
        "profile": result.profile,
        "scenario_count": result.scenario_count,
        "self_full_accuracy": result.self_validation.full_accuracy,
        "self_overall_accuracy": result.self_validation.overall_accuracy,
        "min_accuracy": result.min_accuracy,
        "mean_accuracy": result.mean_accuracy,
        "max_unexercised": result.max_unexercised,
        "passes": result.passes(threshold),
        "worst_reference": None if worst is None else {
            "scenario": worst[0],
            "array": worst[1].reference.array_name,
            "accuracy": worst[1].accuracy,
        },
        "cross": [
            {
                "scenario": cell.scenario,
                "overall_accuracy": cell.report.overall_accuracy,
                "checked": cell.report.total_checked,
                "predicted": cell.report.total_predicted,
                "unexercised": cell.report.unexercised,
            }
            for cell in result.cross
        ],
    }


def hier_row(report: HierarchyReport) -> dict:
    cells = {}
    for label, result in (("cache", report.cache), ("hybrid", report.hybrid)):
        cells[label] = {
            "reads": result.reads,
            "writes": result.writes,
            "spm_reads": result.spm_reads,
            "spm_writes": result.spm_writes,
            "main_read_words": result.main_read_words,
            "main_write_words": result.main_write_words,
            "levels": [
                {
                    "reads": stats.reads,
                    "writes": stats.writes,
                    "read_misses": stats.read_misses,
                    "write_misses": stats.write_misses,
                    "evictions": stats.evictions,
                    "fills": stats.fills,
                    "writebacks": stats.writebacks,
                    "through_write_words": stats.through_write_words,
                    "miss_rate": stats.miss_rate,
                }
                for stats in result.levels
            ],
        }
    return {
        "benchmark": report.workload,
        "scenario": report.scenario,
        "cache_config": report.cache_config.spec(),
        "spm_bytes": report.spm_bytes,
        "policy": report.policy,
        "spm_buffer_bytes": report.spm_buffer_bytes,
        "baseline_main_nj": report.baseline_main_nj,
        "cache_nj": report.cache_nj,
        "hybrid_nj": report.hybrid_nj,
        "hybrid_cache_nj": report.hybrid_cache_nj,
        "spm_access_nj": report.spm_access_nj,
        "spm_transfer_nj": report.spm_transfer_nj,
        "hybrid_saving_fraction": report.hybrid_saving_fraction,
        "spm_win": report.spm_win,
        **cells,
    }


def suite_payload(
    reports,
    sweeps: dict | None = None,
    validations: list[WorkloadValidation] | None = None,
    hierarchy: list[HierarchyReport] | None = None,
    threshold: float = 0.0,
) -> dict:
    payload = {
        "command": "suite",
        "table1": [census_row(r.census) for r in reports],
        "table2": [coverage_row(r.table2) for r in reports],
        "table3": [behavior_row(r.table3) for r in reports],
    }
    if sweeps is not None:
        payload["spm_sweep"] = {
            name: [exploration_row(point) for point in points]
            for name, points in sweeps.items()
        }
    if validations is not None:
        payload["validation"] = [
            validation_row(result, threshold) for result in validations
        ]
        payload["validation_passes"] = all(
            result.passes(threshold) for result in validations
        )
    if hierarchy is not None:
        payload["hierarchy"] = [hier_row(report) for report in hierarchy]
    return payload


def validate_payload(
    results: list[WorkloadValidation], threshold: float
) -> dict:
    return {
        "command": "validate",
        "threshold": threshold,
        "workloads": [validation_row(r, threshold) for r in results],
        "passes": all(r.passes(threshold) for r in results),
    }


def static_row(report) -> dict:
    """One (workload, scenario) cell of the static-analysis matrix
    (a :class:`repro.pipeline.StaticReport`)."""
    oracle = report.oracle
    static = report.static
    return {
        "benchmark": report.name,
        "scenario": report.scenario,
        "dynamic_refs": oracle.dynamic_total,
        "matched_refs": oracle.matched,
        "coverage": oracle.coverage,
        "analyzable_refs": oracle.analyzable_total,
        "foray_gap": len(oracle.foray_gap),
        "refused": static.refused_count,
        "refusals": dict(static.refusal_histogram),
        "model_complete": static.model_complete,
        "ok": oracle.ok,
        "diff": oracle.diff_lines(),
    }


def static_payload(reports) -> dict:
    return {
        "command": "static",
        "workloads": [static_row(report) for report in reports],
        "ok": all(report.ok for report in reports),
    }


def lint_finding(finding) -> dict:
    return {
        "rule": finding.rule,
        "severity": finding.severity,
        "message": finding.message,
        "line": finding.line,
        "column": finding.column,
        "function": finding.function,
    }


def lint_payload(reports) -> dict:
    return {
        "command": "lint",
        "sources": [
            {
                "source": report.label,
                "workload": report.workload,
                "scenario": report.scenario,
                "errors": report.error_count,
                "warnings": report.warning_count,
                "findings": [lint_finding(f) for f in report.findings],
            }
            for report in reports
        ],
        "errors": sum(report.error_count for report in reports),
        "warnings": sum(report.warning_count for report in reports),
        "ok": all(report.error_count == 0 for report in reports),
    }


def hier_payload(results: list[HierarchyReport]) -> dict:
    return {
        "command": "hier",
        "cells": [hier_row(report) for report in results],
    }


def fuzz_outcome_row(outcome) -> dict:
    """One generated program's check battery
    (a :class:`repro.gen.fuzz.ProgramOutcome`)."""
    return {
        "spec": outcome.spec,
        "profile": outcome.profile,
        "seed": outcome.seed,
        "status": outcome.status,
        "source_lines": outcome.source_lines,
        "transfer_accuracy": (
            None if outcome.transfer_accuracy is None
            else _finite(outcome.transfer_accuracy)),
        "cached": outcome.cached,
        "checks": [
            {"name": check.name, "status": check.status,
             "detail": check.detail}
            for check in outcome.checks
        ],
        "failing_check": outcome.failing_check or None,
        "shrunk_lines": outcome.shrunk_lines if outcome.shrunk_source
        else None,
        "shrunk_source": outcome.shrunk_source or None,
        "error": outcome.error or None,
    }


def gen_payload(report) -> dict:
    """One population fuzzing run (a :class:`repro.gen.fuzz.FuzzReport`).

    Failing programs carry their minimized source inline, but the seed
    plus profile alone replays them — generation, rendering and the
    shrink walk are all deterministic.
    """
    transfer = report.transfer_stats()
    return {
        "command": "gen",
        "profile": report.profile,
        "checks": list(report.checks),
        "total": report.total,
        "passed": report.total - len(report.failures) - len(report.errors),
        "failed": len(report.failures),
        "errored": len(report.errors),
        "ok": report.ok,
        "check_counts": report.check_counts(),
        "transfer": None if transfer is None else {
            "measured": transfer[0],
            "min_accuracy": _finite(transfer[1]),
            "mean_accuracy": _finite(transfer[2]),
        },
        "programs": [fuzz_outcome_row(o) for o in report.outcomes],
    }
