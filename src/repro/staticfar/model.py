"""Result types for the compile-time FORAY analyzer.

:class:`StaticForayModel` is the static twin of
:class:`repro.foray.model.ForayModel`: the same reference/loop records,
derived from the AST alone. Every reference the analyzer could *not*
model soundly is recorded as a :class:`StaticRefusal` instead of being
guessed at — the differential oracle leans on that taxonomy to prove the
static side never silently mis-models an access.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.foray.filters import FilterConfig
from repro.foray.model import ForayLoop, ForayModel, ForayReference

#: Machine-readable refusal reasons (stable strings: tests and the JSON
#: payload key off them).
REFUSAL_REASONS = (
    "non-affine-index",
    "pointer-dereference",
    "stack-allocated",
    "control-dependent",
    "short-circuit",
    "non-canonical-loop",
    "early-exit-loop",
    "indeterminate-attribution",
    "recursion",
    "library-call",
    "footprint-too-large",
)


@dataclass(frozen=True)
class StaticRefusal:
    """One reference (AST node) the static analyzer declined to model."""

    node_id: int
    reason: str
    detail: str = ""
    #: True when the refusal provably cannot survive the reference filter
    #: (e.g. a constant-address scalar under ``require_iterator``), so the
    #: *filtered* static model is still complete despite it.
    provably_filtered: bool = False


@dataclass
class StaticForayModel:
    """A FORAY model computed without running the program."""

    name: str
    #: References that survive the extraction filter, program order.
    references: list[ForayReference]
    #: Every soundly modeled reference, pre-filter, program order.
    unfiltered_references: list[ForayReference]
    #: Loops on the paths of iterator-bearing unfiltered references.
    loops: list[ForayLoop]
    #: node_id → refusal for everything we declined to model.
    refusals: dict[int, StaticRefusal]
    filter_config: FilterConfig
    #: Every user memory reference is either modeled or provably filtered.
    model_complete: bool
    #: reason → count, for reports.
    refusal_histogram: dict[str, int] = field(default_factory=dict)

    @property
    def refused_count(self) -> int:
        return len(self.refusals)

    def refused(self, node_id: int) -> bool:
        return node_id in self.refusals

    def foray_model(self) -> ForayModel:
        """Repackage as a plain :class:`ForayModel` for the SPM layer
        (references and loops only: no trace was run to count)."""
        return ForayModel(
            references=list(self.references),
            unfiltered_references=list(self.unfiltered_references),
            loops=list(self.loops),
        )
