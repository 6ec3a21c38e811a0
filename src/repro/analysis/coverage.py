"""Coverage metrics: Tables II and III of the paper.

Table II: of the loops/references that FORAY-GEN put in the model, how many
were *already* in FORAY form in the source (i.e. visible to the static
baseline of :mod:`repro.staticfar`)? The complement is the paper's
"% not in FORAY form in the original program", and the ratio
model/static is the paper's headline "two times increase in the number of
analyzable memory references".

Table III: how much of the program's memory behaviour (references,
accesses, footprint) the FORAY model captures, versus system-library
references and everything else.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.foray.model import ForayModel, TraceStats
from repro.sim.trace import node_id_of_pc


def _pct(numerator: float, denominator: float) -> float:
    return 100.0 * numerator / denominator if denominator else 0.0


@dataclass(frozen=True)
class SourceForm:
    """What Table II reads of the static baseline detector's result
    (:class:`~repro.staticfar.detector.StaticAnalysisResult`): the node
    ids of its canonical loops and analyzable references. Plain ints,
    unlike the result itself (whose loop infos hold the program's
    ``Symbol`` objects), so it is stored and read apart from the
    program."""

    canonical_loops: frozenset[int]
    analyzable_refs: frozenset[int]

    def is_canonical_loop(self, node_id: int) -> bool:
        return node_id in self.canonical_loops

    def is_analyzable_ref(self, node_id: int) -> bool:
        return node_id in self.analyzable_refs


@dataclass(frozen=True)
class ForayFormCoverage:
    """One row of Table II."""

    name: str
    loops_in_model: int
    refs_in_model: int
    #: Model loops/refs the static baseline already sees (source FORAY form).
    loops_in_source_form: int
    refs_in_source_form: int

    @property
    def loops_not_in_source_form_pct(self) -> float:
        return _pct(self.loops_in_model - self.loops_in_source_form,
                    self.loops_in_model)

    @property
    def refs_not_in_source_form_pct(self) -> float:
        return _pct(self.refs_in_model - self.refs_in_source_form,
                    self.refs_in_model)

    @property
    def improvement_ratio(self) -> float:
        """FORAY-GEN analyzable refs over statically analyzable refs
        (the paper's headline metric; inf when static sees nothing)."""
        if self.refs_in_source_form == 0:
            return float("inf") if self.refs_in_model else 1.0
        return self.refs_in_model / self.refs_in_source_form


def table2_coverage(
    name: str, model: ForayModel, source_form: SourceForm
) -> ForayFormCoverage:
    """``source_form`` is the static baseline's verdict, as the node ids
    of :meth:`StaticAnalysisResult.source_form`."""
    loops_in_source_form = sum(
        1 for loop in model.loops if source_form.is_canonical_loop(loop.ast_node_id)
    )
    refs_in_source_form = sum(
        1
        for ref in model.references
        if source_form.is_analyzable_ref(node_id_of_pc(ref.pc))
    )
    return ForayFormCoverage(
        name=name,
        loops_in_model=len(model.loops),
        refs_in_model=len(model.references),
        loops_in_source_form=loops_in_source_form,
        refs_in_source_form=refs_in_source_form,
    )


@dataclass(frozen=True)
class MemoryBehavior:
    """One row of Table III."""

    name: str
    total_references: int
    total_accesses: int
    total_footprint: int
    model_references: int
    model_accesses: int
    model_footprint: int
    lib_references: int
    lib_accesses: int
    lib_footprint: int

    # -- percentage views (the paper reports percentages) -------------

    @property
    def model_refs_pct(self) -> float:
        return _pct(self.model_references, self.total_references)

    @property
    def model_accesses_pct(self) -> float:
        return _pct(self.model_accesses, self.total_accesses)

    @property
    def model_footprint_pct(self) -> float:
        return _pct(self.model_footprint, self.total_footprint)

    @property
    def lib_refs_pct(self) -> float:
        return _pct(self.lib_references, self.total_references)

    @property
    def lib_accesses_pct(self) -> float:
        return _pct(self.lib_accesses, self.total_accesses)

    @property
    def lib_footprint_pct(self) -> float:
        return _pct(self.lib_footprint, self.total_footprint)

    @property
    def other_accesses_pct(self) -> float:
        return max(0.0, 100.0 - self.model_accesses_pct - self.lib_accesses_pct)


def table3_behavior(name: str, model: ForayModel) -> MemoryBehavior:
    stats = model.trace_stats
    assert isinstance(stats, TraceStats)
    counts = stats.counts()
    return MemoryBehavior(
        name=name,
        total_references=counts.total_references,
        total_accesses=stats.total_accesses,
        total_footprint=counts.total_footprint,
        model_references=len(model.references),
        model_accesses=model.captured_accesses,
        model_footprint=model.captured_footprint,
        lib_references=counts.lib_references,
        lib_accesses=stats.lib_accesses,
        lib_footprint=counts.lib_footprint,
    )
