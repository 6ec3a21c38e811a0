"""Figures 1/2, 4, 7 and 9 — the paper's worked examples.

Each bench extracts the FORAY model of one figure program, checks the
published outcome, and records the emitted model text.
"""

import pytest

from benchmarks.conftest import write_result
from repro.foray.emitter import emit_model
from repro.foray.filters import FilterConfig
from repro.foray.hints import inlining_hints
from repro.pipeline import PipelineConfig, extract_foray_model
from repro.workloads.figures import FIG1A, FIG1B, FIG4A, FIG7A, FIG7B, FIG9

RELAXED = FilterConfig(nexec=1, nloc=1)


def extract(benchmark, workload, filter_config=None):
    return benchmark.pedantic(
        extract_foray_model, args=(workload.source,),
        kwargs={"config": PipelineConfig(filter_config=filter_config)},
        rounds=1, iterations=1,
    )


def test_fig1a_jpeg_pointer_walk(benchmark, results_dir):
    result = extract(benchmark, FIG1A)
    (ref,) = result.model.references
    assert ref.expression.used_coefficients() == (4, 256)  # Figure 2 top
    write_result(results_dir, "fig2_top.txt", emit_model(result.model))


def test_fig1b_rowsperchunk(benchmark, results_dir):
    result = extract(benchmark, FIG1B, RELAXED)
    (ref,) = result.model.references
    assert [loop.max_trip for loop in ref.loop_path] == [1, 16]  # Figure 2 bottom
    write_result(results_dir, "fig2_bottom.txt", emit_model(result.model))


def test_fig4_end_to_end(benchmark, results_dir):
    result = extract(benchmark, FIG4A, RELAXED)
    (ref,) = result.model.references
    assert ref.expression.used_coefficients() == (1, 103)  # Figure 4d
    assert ref.exec_count == 6
    write_result(results_dir, "fig4d.txt", emit_model(result.model))


@pytest.mark.parametrize("workload", [FIG7A, FIG7B], ids=["fig7a", "fig7b"])
def test_fig7_partial_affine(benchmark, results_dir, workload):
    result = extract(benchmark, workload, RELAXED)
    partial = result.model.partial_references()
    assert partial, "Figure 7 must produce partial affine expressions"
    for ref in partial:
        assert ref.expression.num_iterators < ref.nest_depth
    write_result(results_dir, f"{workload.name}.txt", emit_model(result.model))


def test_fig9_inlining_hint(benchmark, results_dir):
    result = extract(benchmark, FIG9)
    hints = inlining_hints(result.model, result.compiled.program)
    (hint,) = hints
    assert hint.patterns_differ
    write_result(results_dir, "fig9_hint.txt", hint.describe())
