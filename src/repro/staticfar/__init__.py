"""Static FORAY analysis: form detection, the compile-time model engine,
and the static-vs-dynamic differential oracle (Table II, model-level)."""

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.staticfar.analyze import StaticAnalyzer, analyze_static
    from repro.staticfar.detector import (
        CanonicalLoopInfo,
        StaticAnalysisResult,
        StaticForayDetector,
        affine_terms,
        detect,
    )
    from repro.staticfar.layout import global_layout
    from repro.staticfar.model import (
        REFUSAL_REASONS,
        StaticForayModel,
        StaticRefusal,
    )
    from repro.staticfar.oracle import (
        CONTEXTUAL_REASONS,
        OracleReport,
        compare_models,
    )

__all__ = [
    "CanonicalLoopInfo",
    "CONTEXTUAL_REASONS",
    "OracleReport",
    "REFUSAL_REASONS",
    "StaticAnalysisResult",
    "StaticAnalyzer",
    "StaticForayDetector",
    "StaticForayModel",
    "StaticRefusal",
    "affine_terms",
    "analyze_static",
    "compare_models",
    "detect",
    "global_layout",
]

__getattr__, __dir__ = attach(__name__, {
    "analyze": ("StaticAnalyzer", "analyze_static"),
    "detector": ("CanonicalLoopInfo", "StaticAnalysisResult",
                 "StaticForayDetector", "affine_terms", "detect"),
    "layout": ("global_layout",),
    "model": ("REFUSAL_REASONS", "StaticForayModel", "StaticRefusal"),
    "oracle": ("CONTEXTUAL_REASONS", "OracleReport", "compare_models"),
})
