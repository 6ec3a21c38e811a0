"""repro — reproduction of FORAY-GEN (Issenin & Dutt, DATE 2005).

FORAY-GEN automatically extracts the *FORAY model* of a C program — an
abstraction consisting of for loops and array references with (partial)
affine index expressions — from a profiling trace, enabling scratch-pad
memory optimizations on programs that are not written in an analyzable
form.

Top-level API:

* :func:`repro.pipeline.extract_foray_model` — Phase I on MiniC source.
* :func:`repro.pipeline.run_workload` / :func:`repro.pipeline.run_suite` —
  the paper's evaluation (Tables I-III).
* :func:`repro.pipeline.full_flow` — Phase I + Phase II (SPM optimization).

The package and its subpackages are lazy namespaces (see
:mod:`repro._lazy`): a name is imported from its submodule on first use.
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.foray.emitter import emit_model
    from repro.foray.filters import FilterConfig
    from repro.foray.hints import inlining_hints
    from repro.foray.model import (
        AffineExpression,
        ForayLoop,
        ForayModel,
        ForayReference,
    )
    from repro.pipeline import (
        ExtractionResult,
        FullFlowResult,
        WorkloadReport,
        extract_foray_model,
        full_flow,
        run_suite,
        run_workload,
    )

__version__ = "1.0.0"

__all__ = [
    "emit_model",
    "FilterConfig",
    "inlining_hints",
    "AffineExpression",
    "ForayLoop",
    "ForayModel",
    "ForayReference",
    "ExtractionResult",
    "FullFlowResult",
    "WorkloadReport",
    "extract_foray_model",
    "full_flow",
    "run_suite",
    "run_workload",
    "__version__",
]

__getattr__, __dir__ = attach(__name__, {
    "foray.emitter": ("emit_model",),
    "foray.filters": ("FilterConfig",),
    "foray.hints": ("inlining_hints",),
    "foray.model": ("AffineExpression", "ForayLoop", "ForayModel",
                    "ForayReference"),
    "pipeline": ("ExtractionResult", "FullFlowResult", "WorkloadReport",
                 "extract_foray_model", "full_flow", "run_suite",
                 "run_workload"),
})
