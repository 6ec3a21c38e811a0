"""The paper's published numbers (Tables I–III), for side-by-side reports.

Our workloads are scaled-down synthetic counterparts of MiBench (see
DESIGN.md), so absolute counts differ by construction; the comparisons in
EXPERIMENTS.md are about *shape*: loop-kind mixes, which benchmarks are
fully FORAY-form already (fft), which are entirely opaque to static
analysis (adpcm), and the rough magnitude of coverage percentages.
"""

from __future__ import annotations

from typing import NamedTuple

BENCHMARK_NAMES = ("jpeg", "lame", "susan", "fft", "gsm", "adpcm")


class PaperTable1Row(NamedTuple):
    lines: int
    total_loops: int
    for_pct: float
    while_pct: float
    do_pct: float


PAPER_TABLE1: dict[str, PaperTable1Row] = {
    "jpeg": PaperTable1Row(34590, 169, 65, 34, 1),
    "lame": PaperTable1Row(22846, 479, 83, 8, 9),
    "susan": PaperTable1Row(2173, 14, 79, 21, 0),
    "fft": PaperTable1Row(493, 11, 100, 0, 0),
    "gsm": PaperTable1Row(7089, 38, 87, 13, 0),
    "adpcm": PaperTable1Row(782, 2, 50, 50, 0),
}


class PaperTable2Row(NamedTuple):
    loops_in_model: int
    refs_in_model: int
    loops_not_in_form_pct: float
    refs_not_in_form_pct: float


PAPER_TABLE2: dict[str, PaperTable2Row] = {
    "jpeg": PaperTable2Row(73, 73, 41, 38),
    "lame": PaperTable2Row(232, 980, 42, 38),
    "susan": PaperTable2Row(9, 10, 78, 50),
    "fft": PaperTable2Row(8, 19, 0, 0),
    "gsm": PaperTable2Row(17, 86, 59, 74),
    "adpcm": PaperTable2Row(2, 1, 100, 100),
}


class PaperTable3Row(NamedTuple):
    references: int
    accesses_m: float  # millions
    footprint: int
    model_refs_pct: float
    model_accesses_pct: float
    model_footprint_pct: float
    lib_refs_pct: float
    lib_accesses_pct: float
    lib_footprint_pct: float


PAPER_TABLE3: dict[str, PaperTable3Row] = {
    "jpeg": PaperTable3Row(6151, 8.3, 123625, 1, 27, 87, 33, 2, 9),
    "lame": PaperTable3Row(16805, 43.0, 127052, 6, 22, 26, 40, 20, 33),
    "susan": PaperTable3Row(1162, 5.0, 24778, 1, 66, 72, 85, 1, 47),
    "fft": PaperTable3Row(2420, 22.0, 28804, 1, 1, 57, 95, 96, 43),
    "gsm": PaperTable3Row(2091, 37.0, 16215, 4, 32, 5, 49, 3, 93),
    "adpcm": PaperTable3Row(546, 5.5, 4964, 0.2, 28, 20, 97, 0.2, 68),
}

#: The paper's headline: FORAY-GEN doubles analyzable references on average.
PAPER_HEADLINE_IMPROVEMENT = 2.0
#: "23% of loops on average are not for loops" (Section 5.1).
PAPER_NON_FOR_LOOP_PCT = 23.0
#: Averages quoted for Table II (Section 5.1).
PAPER_AVG_LOOPS_NOT_IN_FORM_PCT = 64.0
PAPER_AVG_REFS_NOT_IN_FORM_PCT = 60.0
#: Averages quoted for Table III (Section 5.2).
PAPER_AVG_MODEL_ACCESSES_PCT = 29.0
PAPER_AVG_MODEL_FOOTPRINT_PCT = 44.0
PAPER_AVG_MODEL_REFS_PCT = 2.2
