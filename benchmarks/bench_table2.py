"""Table II — loops and references converted into FORAY form.

Regenerates the paper's Table II (model loop/reference counts and the
share not in source FORAY form) plus the headline "2x more analyzable
references" metric. The timed portion is the static baseline + coverage
join, which is the part a compiler would re-run per build.
"""

import pytest

from benchmarks.conftest import write_result
from repro.analysis.coverage import table2_coverage
from repro.analysis.report import format_table2, summarize_headline
from repro.staticfar.detector import detect
from repro.workloads.registry import workload_names


@pytest.mark.parametrize("name", workload_names())
def test_static_baseline_and_join(benchmark, suite_reports, name):
    report = suite_reports[name]
    program = report.extraction.compiled.program

    def run():
        return table2_coverage(name, report.model,
                               detect(program).source_form())

    row = benchmark(run)
    assert row.refs_in_model >= row.refs_in_source_form
    benchmark.extra_info["refs_not_in_form_pct"] = round(
        row.refs_not_in_source_form_pct
    )


def test_emit_table2_and_headline(suite_reports, results_dir, benchmark):
    rows = [report.table2 for report in suite_reports.values()]
    text = benchmark(format_table2, rows)
    headline = summarize_headline(rows)
    write_result(results_dir, "table2.txt", text + "\n\n" + headline)

    # The paper's qualitative anchors must hold.
    by_name = {row.name: row for row in rows}
    assert by_name["fft"].refs_not_in_source_form_pct == 0.0
    assert by_name["adpcm"].refs_not_in_source_form_pct == 100.0
    total_model = sum(row.refs_in_model for row in rows)
    total_static = sum(row.refs_in_source_form for row in rows)
    assert total_model / max(1, total_static) > 1.3
