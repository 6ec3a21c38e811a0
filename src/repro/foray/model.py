"""Data model of the FORAY form: affine expressions, references, loops.

A FORAY model (paper Section 3) is "a C program consisting of any
combination of for loops and array references, with all array index
expressions being affine functions of outer loop iterators". Here it is a
structured object — :class:`ForayModel` — that the emitter can render as C
text (paper Figures 2 and 4d) and that the SPM phase consumes directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from repro.store import LazyFields


@dataclass(frozen=True)
class AffineExpression:
    """``addr = const + C1*iter1 + ... + CM*iterM`` (iter1 = innermost).

    ``coefficients`` holds C1..CN for the full nest depth N; entries may be
    ``None`` when Algorithm 3 never observed the iterator changing alone
    (UNKNOWN in the paper — such iterators contribute nothing observable).
    ``num_iterators`` is the paper's M: how many innermost iterators form
    the (possibly partial) affine expression. ``is_full`` means the single
    constant term predicted every access (no constant-term adjustments).
    """

    const: int
    coefficients: tuple[int | None, ...]
    num_iterators: int

    @property
    def nest_depth(self) -> int:
        return len(self.coefficients)

    @property
    def is_full(self) -> bool:
        return self.num_iterators == self.nest_depth

    def used_coefficients(self) -> tuple[int, ...]:
        """C1..CM with UNKNOWN treated as 0 (iterator never varied)."""
        return tuple(
            c if c is not None else 0
            for c in self.coefficients[: self.num_iterators]
        )

    def includes_iterator(self) -> bool:
        """Paper filter condition: at least one iterator with a non-zero
        coefficient inside the (partial) expression."""
        return any(c for c in self.used_coefficients())

    def evaluate(self, iterators: tuple[int, ...]) -> int:
        """Predicted address for iterator values (innermost first)."""
        addr = self.const
        for coefficient, value in zip(self.used_coefficients(), iterators):
            addr += coefficient * value
        return addr

    def format(self, iterator_names: tuple[str, ...] | None = None) -> str:
        """Render like the paper: ``2147440948+1*i15+103*i12``."""
        names = iterator_names or tuple(
            f"iter{i + 1}" for i in range(self.num_iterators)
        )
        parts = [str(self.const)]
        for coefficient, name in zip(self.used_coefficients(), names):
            parts.append(f"{coefficient}*{name}")
        return "+".join(parts)


@dataclass(frozen=True)
class ForayLoop:
    """One loop of the FORAY model (a reconstructed loop-tree node).

    The same static loop reached through two call contexts yields two
    ForayLoop instances (distinct ``uid``) — the paper's "functions appear
    inlined" property. ``ast_node_id`` joins back to the source loop.
    """

    begin_id: int
    kind: str  # for|while|do — the *original* loop kind
    depth: int
    max_trip: int
    min_trip: int
    entries: int
    total_iterations: int
    uid: int = 0
    ast_node_id: int = -1

    @property
    def name(self) -> str:
        """Iterator name in the emitted model, e.g. ``i15``."""
        return f"i{self.begin_id}"

    @property
    def has_constant_trip(self) -> bool:
        return self.max_trip == self.min_trip


@dataclass(frozen=True)
class ForayReference:
    """One memory reference of the FORAY model.

    ``loop_path`` lists the enclosing :class:`ForayLoop` nodes from the
    outermost to the innermost (the dynamic loop-tree path, i.e. with
    functions effectively inlined).
    """

    pc: int
    loop_path: tuple[ForayLoop, ...]
    expression: AffineExpression
    exec_count: int
    footprint: int
    reads: int
    writes: int
    is_library: bool = False
    #: Times the constant term had to be adjusted (0 for full expressions).
    mispredictions: int = 0
    #: Largest access width observed, in bytes (element-size estimate).
    access_size: int = 1

    @property
    def array_name(self) -> str:
        return f"A{self.pc:x}"

    @property
    def nest_depth(self) -> int:
        return len(self.loop_path)

    @property
    def is_full(self) -> bool:
        return self.expression.is_full and self.mispredictions == 0

    @property
    def effective_loops(self) -> tuple[ForayLoop, ...]:
        """The M innermost loops whose iterators appear in the expression,
        ordered outermost-of-the-M first."""
        m = self.expression.num_iterators
        return self.loop_path[len(self.loop_path) - m :]

    def index_text(self) -> str:
        """Paper-style index expression, e.g. ``2147440948+1*i15+103*i12``."""
        names = tuple(loop.name for loop in reversed(self.effective_loops))
        return self.expression.format(names)


@dataclass
class ForayModel:
    """The extracted FORAY model plus extraction-wide statistics."""

    references: list[ForayReference] = field(default_factory=list)
    #: All analyzable references before the step-4 filter (for ablations).
    unfiltered_references: list[ForayReference] = field(default_factory=list)
    #: Loops that contain at least one model reference.
    loops: list[ForayLoop] = field(default_factory=list)
    #: Number of references marked non-analyzable by Algorithm 3 step 4.
    non_analyzable_count: int = 0
    #: Trace-wide statistics (a :class:`TraceStats` filled by the
    #: extractor; see the coverage module).
    trace_stats: object = None
    #: Accesses made by the filtered references (Table III "Accesses").
    captured_accesses: int = 0
    #: Distinct addresses touched by the filtered references
    #: (Table III "Footprint").
    captured_footprint: int = 0

    @property
    def reference_count(self) -> int:
        return len(self.references)

    @property
    def loop_count(self) -> int:
        return len(self.loops)

    def references_in_loop(self, begin_id: int) -> list[ForayReference]:
        return [
            ref
            for ref in self.references
            if any(loop.begin_id == begin_id for loop in ref.loop_path)
        ]

    def full_references(self) -> list[ForayReference]:
        return [ref for ref in self.references if ref.is_full]

    def partial_references(self) -> list[ForayReference]:
        return [ref for ref in self.references if not ref.is_full]


class TraceCounts(NamedTuple):
    """The sizes of :class:`TraceStats`' sets that Table III prints."""

    total_references: int
    total_footprint: int
    lib_references: int
    lib_footprint: int


@dataclass
class TraceStats:
    """Trace-wide counters backing Table III.

    References are counted per (dynamic loop node, pc) — i.e. with
    functions considered inlined, as the paper does. Footprints are sets of
    distinct accessed addresses per category; ``user_addresses`` is
    filled by :meth:`~repro.foray.extractor.ForayExtractor.finish`, as
    the union of the solvers' address sets (every user access reaches
    one solver).

    Pickled, the four sets are one nested pickle that is unpickled on the
    first read of any of them, next to :meth:`counts`: Table III reads
    only the counts, and the sets are most of an extraction entry.
    """

    total_accesses: int = 0
    user_accesses: int = 0
    lib_accesses: int = 0
    user_refs: set = field(default_factory=set)
    lib_refs: set = field(default_factory=set)
    user_addresses: set = field(default_factory=set)
    lib_addresses: set = field(default_factory=set)

    def __getstate__(self) -> dict:
        return _LAZY_SETS.getstate(self)

    def counts(self) -> TraceCounts:
        """The set sizes Table III prints, read without unpickling the
        sets (and computed from them, not kept, while they are live)."""
        return _LAZY_SETS.summary(self)


def _trace_counts(stats: TraceStats) -> TraceCounts:
    return TraceCounts(
        total_references=len(stats.user_refs) + len(stats.lib_refs),
        total_footprint=len(stats.user_addresses | stats.lib_addresses),
        lib_references=len(stats.lib_refs),
        lib_footprint=len(stats.lib_addresses),
    )


_LAZY_SETS = LazyFields(
    TraceStats, ("user_refs", "lib_refs", "user_addresses", "lib_addresses"),
    _trace_counts)
