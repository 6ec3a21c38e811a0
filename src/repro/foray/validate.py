"""Validation of a FORAY model against a (possibly different) trace.

The paper's future work asks how dependent the FORAY model is on the
profiling input. This module answers it operationally: replay any trace
against an extracted model and measure, per reference, how many accesses
the model's affine expression predicts exactly.

* Full references are predicted from the expression alone.
* Partial references are allowed to re-base their constant whenever an
  iterator outside the expression (or a context re-entry) changes — the
  semantics the paper gives them — and are scored on the accesses in
  between.

:class:`ValidationSink` implements the engines' batched trace-sink
protocol, so a replay can be scored *online* while the program runs —
the replayed trace is never materialized. Its columnar entry point shares
the extractor's loop-tree walk (:meth:`LoopTreeBuilder.walk`) and scores
each context, one contiguous range of accesses, in order. The
pipeline's validation cells (:mod:`repro.pipeline`) drive it over a
workload's whole input scenario matrix; :func:`validate_model` is the
classic offline entry point for stored record streams.

Typical use::

    model = extract_foray_model(source).model           # profile input A
    report = validate_model(model, records_b, cmap)     # replay input B
    assert report.overall_accuracy > 0.95

or, streaming (what the pipeline's ``validate`` stage does)::

    sink = ValidationSink(model, compiled.checkpoint_map)
    run_compiled(compiled, sinks=(sink,), config=scenario_config)
    report = sink.finish()
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from operator import mul
from typing import Iterable

from repro.foray.looptree import LoopNode, LoopTreeBuilder
from repro.foray.model import ForayModel, ForayReference
from repro.sim.trace import (
    KIND_TO_CODE,
    LIB_PC_BASE,
    Access,
    CheckpointMap,
    ColumnBlock,
    TraceRecord,
    is_library_pc,
)


@dataclass
class ReferenceValidation:
    """Prediction accuracy of one model reference on one trace."""

    reference: ForayReference
    checked: int = 0
    predicted: int = 0

    @property
    def exercised(self) -> bool:
        """Whether the replayed trace reached this reference at all."""
        return self.checked > 0

    @property
    def accuracy(self) -> float:
        """Fraction of scored accesses predicted exactly.

        A reference the replayed trace never exercised scores 0.0 — it
        demonstrated nothing, so it must not read as perfectly predicted
        (it is also excluded from :attr:`ValidationReport.overall_accuracy`,
        which only aggregates scored accesses).
        """
        return self.predicted / self.checked if self.checked else 0.0


@dataclass
class ValidationReport:
    per_reference: list[ReferenceValidation] = field(default_factory=list)
    #: Model references never exercised by the replayed trace.
    unexercised: int = 0

    @property
    def total_checked(self) -> int:
        return sum(v.checked for v in self.per_reference)

    @property
    def total_predicted(self) -> int:
        return sum(v.predicted for v in self.per_reference)

    @property
    def overall_accuracy(self) -> float:
        checked = self.total_checked
        return self.total_predicted / checked if checked else 1.0

    @property
    def full_accuracy(self) -> float:
        """Accuracy over the model's *full* references only (the paper's
        strongest claim: one constant predicts every access)."""
        checked = predicted = 0
        for validation in self.per_reference:
            if validation.reference.is_full:
                checked += validation.checked
                predicted += validation.predicted
        return predicted / checked if checked else 1.0

    @property
    def unexercised_share(self) -> float:
        """Fraction of model references the replay never exercised."""
        if not self.per_reference:
            return 0.0
        return self.unexercised / len(self.per_reference)

    def exercised_references(self) -> list[ReferenceValidation]:
        return [v for v in self.per_reference if v.exercised]

    def worst_reference(self) -> ReferenceValidation | None:
        """The exercised reference with the lowest accuracy (None when
        nothing was exercised)."""
        exercised = self.exercised_references()
        if not exercised:
            return None
        return min(exercised, key=lambda v: v.accuracy)

    def summary(self) -> str:
        return (
            f"{self.total_predicted}/{self.total_checked} accesses predicted "
            f"({self.overall_accuracy:.1%}) across "
            f"{len(self.per_reference)} references; "
            f"{self.unexercised} unexercised "
            f"({self.unexercised_share:.0%} of references)"
        )

    def fingerprint(self) -> str:
        """Stable content hash of the scored outcome.

        Validation reports are persisted in the disk artifact store and
        replayed across processes; the fingerprint lets incremental runs
        assert that a disk-served report is *identical* to a recomputed
        one (per-reference identity, counts and exercised state), without
        comparing whole object graphs.
        """
        digest = hashlib.sha256()
        for validation in self.per_reference:
            reference = validation.reference
            path = ",".join(
                str(loop.begin_id) for loop in reference.loop_path
            )
            digest.update(
                f"{reference.pc}@{path}:{validation.checked}:"
                f"{validation.predicted};".encode()
            )
        digest.update(str(self.unexercised).encode())
        return digest.hexdigest()


class _RefState:
    __slots__ = ("validation", "expression", "coefficients", "rebase",
                 "offset", "anchor_iters")

    def __init__(self, validation: ReferenceValidation):
        self.validation = validation
        self.expression = validation.reference.expression
        #: C1..CM, computed once instead of once per scored access.
        self.coefficients = self.expression.used_coefficients()
        #: Partial expressions may re-anchor their constant per context.
        self.rebase = not validation.reference.is_full
        self.offset: int | None = None
        self.anchor_iters: tuple[int, ...] | None = None


class ValidationSink:
    """A trace sink that scores a model online while an engine runs.

    Implements both entry points of the sink protocol: the per-record
    :meth:`emit` (stored-trace replay) and the columnar
    :meth:`emit_columns` hot path (attach directly to a simulation via
    ``run_compiled(..., sinks=(sink,))``). References are matched by
    (loop-begin-id path, pc), which is stable across runs — and across
    input scenarios, whose sources share one AST skeleton by construction.
    """

    def __init__(self, model: ForayModel, checkpoint_map: CheckpointMap):
        self._report = ValidationReport()
        self._states: dict[tuple[tuple[int, ...], int], _RefState] = {}
        for reference in model.references:
            validation = ReferenceValidation(reference)
            self._report.per_reference.append(validation)
            path_key = tuple(loop.begin_id for loop in reference.loop_path)
            self._states[(path_key, reference.pc)] = _RefState(validation)
        self._builder = LoopTreeBuilder(checkpoint_map)
        #: node uid -> {pc: state} of the user references scored there.
        self._node_states: dict[int, dict[int, _RefState]] = {}

    def emit(self, record: TraceRecord) -> None:
        if isinstance(record, Access):
            if not is_library_pc(record.pc):
                self._score_at_current(record.pc, record.addr)
        else:
            self._builder.on_checkpoint_code(record.checkpoint_id,
                                             KIND_TO_CODE[record.kind])

    def emit_columns(self, block: ColumnBlock) -> None:
        """Columnar sink entry point: one :meth:`LoopTreeBuilder.walk`
        per block, then the accesses context by context (each is one
        contiguous range), skipping the contexts of nodes no model
        reference lives in (sizes and write flags are never consulted by
        scoring). An iterator tuple is built only when the innermost
        iterator changes."""
        n = block.n
        contexts = self._builder.walk(block.checkpoints, block.positions, n)
        if not n:
            return
        pcs = block.pc.tolist()
        addrs = block.addr.tolist()
        starts = contexts.starts
        last = len(starts) - 1
        iterations: list[int] | None = None
        for k, node in enumerate(contexts.nodes):
            start = starts[k]
            end = starts[k + 1] if k < last else n
            if start == end:
                continue
            states = self._node_states.get(node.uid)
            if states is None:
                states = self._states_of(node)
            if not states:
                continue
            if node.parent is None:
                for i in range(start, end):
                    state = states.get(pcs[i])
                    if state is not None:
                        _score_access(state, addrs[i], ())
                continue
            if iterations is None:
                iterations = contexts.iteration.tolist()
            outer = contexts.outers[k]
            current = None
            iterators: tuple[int, ...] = ()
            for i in range(start, end):
                state = states.get(pcs[i])
                if state is not None:
                    if iterations[i] != current:
                        current = iterations[i]
                        iterators = (current,) + outer
                    _score_access(state, addrs[i], iterators)

    def _states_of(self, node: LoopNode) -> dict[int, _RefState]:
        path_key = tuple(loop.begin_id for loop in node.path_from_root())
        states = {
            pc: state for (path, pc), state in self._states.items()
            if path == path_key and pc < LIB_PC_BASE
        }
        self._node_states[node.uid] = states
        return states

    def _score_at_current(self, pc: int, addr: int) -> None:
        node = self._builder.current
        path_key = tuple(n.begin_id for n in node.path_from_root())
        state = self._states.get((path_key, pc))
        if state is not None:
            _score_access(state, addr, self._builder.current_iterators())

    def finish(self) -> ValidationReport:
        self._report.unexercised = sum(
            1 for validation in self._report.per_reference
            if not validation.exercised
        )
        return self._report


def validate_model(
    model: ForayModel,
    records: Iterable[TraceRecord],
    checkpoint_map: CheckpointMap,
) -> ValidationReport:
    """Replay stored ``records`` and score every model reference."""
    sink = ValidationSink(model, checkpoint_map)
    for record in records:
        sink.emit(record)
    return sink.finish()


def _score_access(state: _RefState, addr: int, iterators: tuple[int, ...]) -> None:
    expression = state.expression
    m = expression.num_iterators
    if len(iterators) < m:
        # The replayed nest is shallower than the expression (e.g. a
        # truncated or foreign trace): the prediction is undefined, so
        # score a misprediction instead of zip-truncating the iterator
        # vector into a garbage match.
        state.validation.checked += 1
        return
    inner_part = sum(map(mul, state.coefficients, iterators))
    if state.rebase:
        outer = iterators[m:]
        if state.offset is None or state.anchor_iters != outer:
            # New outer context: re-anchor the constant (partial affine
            # semantics) and do not score this access.
            state.offset = addr - inner_part
            state.anchor_iters = outer
            return
        predicted = state.offset + inner_part
    else:
        predicted = expression.const + inner_part

    state.validation.checked += 1
    if predicted == addr:
        state.validation.predicted += 1


@dataclass(frozen=True)
class ScenarioValidation:
    """One cell of the scenario matrix: a model extracted on
    ``profile`` replayed against ``scenario``'s trace."""

    workload: str
    scenario: str
    profile: str
    engine: str
    report: ValidationReport


@dataclass(frozen=True)
class WorkloadValidation:
    """Cross-input stability of one workload's model over its matrix."""

    workload: str
    profile: str
    scenario_count: int
    #: The profile scenario replayed against its own model (sanity row:
    #: full references must score 100% here).
    self_validation: ValidationReport
    #: Every other scenario replayed against the profile model.
    cross: tuple[ScenarioValidation, ...]

    @property
    def min_accuracy(self) -> float:
        return min(
            (cell.report.overall_accuracy for cell in self.cross), default=1.0
        )

    @property
    def mean_accuracy(self) -> float:
        if not self.cross:
            return 1.0
        return sum(
            cell.report.overall_accuracy for cell in self.cross
        ) / len(self.cross)

    @property
    def max_unexercised(self) -> int:
        return max((cell.report.unexercised for cell in self.cross), default=0)

    def worst_reference(self) -> tuple[str, ReferenceValidation] | None:
        """(scenario, reference validation) of the least-predictable
        exercised reference across all cross-input replays."""
        worst: tuple[str, ReferenceValidation] | None = None
        for cell in self.cross:
            candidate = cell.report.worst_reference()
            if candidate is None:
                continue
            if worst is None or candidate.accuracy < worst[1].accuracy:
                worst = (cell.scenario, candidate)
        return worst

    def passes(self, threshold: float = 0.0) -> bool:
        """The CI gate: full references must self-validate perfectly and
        every cross-input replay must clear the accuracy threshold.

        A replay that scored nothing (``total_checked == 0``) demonstrated
        nothing — its vacuous 100% overall accuracy must not satisfy the
        gate, so such cells (self-validation included) fail it outright.
        """
        return (
            self.self_validation.full_accuracy == 1.0
            and self.self_validation.total_checked > 0
            and all(cell.report.total_checked > 0 for cell in self.cross)
            and self.min_accuracy >= threshold
        )
