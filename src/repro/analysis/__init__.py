"""Measurement and reporting: the data behind the paper's Tables I-III."""

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.analysis.census import LoopCensus, count_lines, loop_census
    from repro.analysis.coverage import (
        ForayFormCoverage,
        MemoryBehavior,
        table2_coverage,
        table3_behavior,
    )
    from repro.analysis.report import (
        format_table1,
        format_table2,
        format_table3,
        summarize_headline,
    )

__all__ = [
    "LoopCensus",
    "count_lines",
    "loop_census",
    "ForayFormCoverage",
    "MemoryBehavior",
    "table2_coverage",
    "table3_behavior",
    "format_table1",
    "format_table2",
    "format_table3",
    "summarize_headline",
]

__getattr__, __dir__ = attach(__name__, {
    "census": ("LoopCensus", "count_lines", "loop_census"),
    "coverage": ("ForayFormCoverage", "MemoryBehavior", "table2_coverage",
                 "table3_behavior"),
    "report": ("format_table1", "format_table2", "format_table3",
               "summarize_headline"),
})
