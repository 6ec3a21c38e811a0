"""FORAY-GEN core: the paper's primary contribution.

* :mod:`repro.foray.looptree` — Algorithm 2 (loop tree from checkpoints)
* :mod:`repro.foray.affine` — Algorithm 3 (online affine solving)
* :mod:`repro.foray.filters` — step 4 purge heuristic
* :mod:`repro.foray.extractor` — the streaming Algorithm 1 driver
* :mod:`repro.foray.emitter` — FORAY model → C text
* :mod:`repro.foray.hints` — function-duplication hints (Figure 9)
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.foray.affine import ReferenceSolver
    from repro.foray.emitter import emit_model
    from repro.foray.extractor import (
        ForayExtractor,
        extract_from_records,
        extract_from_source,
    )
    from repro.foray.filters import PAPER_NEXEC, PAPER_NLOC, FilterConfig
    from repro.foray.hints import InliningHint, inlining_hints
    from repro.foray.looptree import LoopNode, LoopTreeBuilder
    from repro.foray.model import (
        AffineExpression,
        ForayLoop,
        ForayModel,
        ForayReference,
        TraceStats,
    )
    from repro.foray.validate import (
        ReferenceValidation,
        ValidationReport,
        validate_model,
    )

__all__ = [
    "ReferenceSolver",
    "emit_model",
    "ForayExtractor",
    "TraceStats",
    "extract_from_records",
    "extract_from_source",
    "PAPER_NEXEC",
    "PAPER_NLOC",
    "FilterConfig",
    "InliningHint",
    "inlining_hints",
    "LoopNode",
    "LoopTreeBuilder",
    "ReferenceValidation",
    "ValidationReport",
    "validate_model",
    "AffineExpression",
    "ForayLoop",
    "ForayModel",
    "ForayReference",
]

__getattr__, __dir__ = attach(__name__, {
    "affine": ("ReferenceSolver",),
    "emitter": ("emit_model",),
    "extractor": ("ForayExtractor", "extract_from_records",
                  "extract_from_source"),
    "filters": ("PAPER_NEXEC", "PAPER_NLOC", "FilterConfig"),
    "hints": ("InliningHint", "inlining_hints"),
    "looptree": ("LoopNode", "LoopTreeBuilder"),
    "model": ("AffineExpression", "ForayLoop", "ForayModel",
              "ForayReference", "TraceStats"),
    "validate": ("ReferenceValidation", "ValidationReport",
                 "validate_model"),
})
