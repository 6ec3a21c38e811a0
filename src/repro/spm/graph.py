"""Reuse-graph IR — the candidate space of Phase II.

Phase II selects buffers only over a :class:`ReuseGraph`, which spells
the design space out:

* **nodes** — one per viable buffering decision: a reuse level of one (or
  several) references, carrying the buffer footprint, the fill and
  write-back transfer volumes, and the net energy benefit;
* **containment edges** — between reuse levels of the same reference
  (the inner window is a subset of the outer one), mutually exclusive by
  construction;
* **sharing edges** — between nodes whose references touch the same
  array (overlapping address intervals). References with *identical*
  access windows collapse into one shared node whose fill traffic is paid
  once; distinct windows of the same array stay separate nodes but remain
  mutually exclusive (one buffering decision per array).

Allocators consume :meth:`ReuseGraph.exclusive_groups`: a partition of the
nodes such that at most one node per group may be selected, which turns
buffer selection into a multiple-choice knapsack over the groups.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.foray.model import ForayModel, ForayReference
from repro.spm.candidates import (
    BufferCandidate,
    served_saving,
    transfer_cost,
)
from repro.spm.energy import EnergyModel
from repro.spm.reuse import ReuseLevel, reuse_levels


def reference_interval(reference: ForayReference) -> tuple[int, int]:
    """Half-open byte-address interval ``[lo, hi)`` touched by a reference.

    Derived from the affine expression over the full iteration space; two
    references whose intervals overlap access the same underlying array.
    """
    coefficients = reference.expression.used_coefficients()
    trips = tuple(
        max(1, loop.max_trip) for loop in reversed(reference.effective_loops)
    )
    lo = hi = reference.expression.const
    for coefficient, trip in zip(coefficients, trips):
        delta = coefficient * (trip - 1)
        if delta < 0:
            lo += delta
        else:
            hi += delta
    return lo, hi + reference.access_size


def _window_signature(candidate: BufferCandidate) -> tuple:
    """Two candidates with equal signatures buffer the *same* window on
    the same fill schedule — one physical buffer can serve both."""
    reference = candidate.reference
    trips = tuple(
        loop.max_trip for loop in reversed(reference.effective_loops)
    )
    return (
        reference.expression.const,
        reference.expression.used_coefficients(),
        trips,
        candidate.level.level,
        candidate.level.fills,
        reference.access_size,
    )


def _merged_benefit(
    members: list[BufferCandidate], energy: EnergyModel
) -> float:
    """Benefit of serving every member from one shared buffer: the sum of
    the members' served savings minus a *single* transfer cost (for one
    member, that reference's own saving minus its own transfers)."""
    served = sum(
        served_saving(member.reference, energy) for member in members
    )
    writes = any(member.reference.writes for member in members)
    return served - transfer_cost(members[0].level, energy, writes)


@dataclass(frozen=True)
class ReuseNode:
    """One buffering decision: a reuse level of one or more references."""

    node_id: int
    #: Exclusivity group (one selected node per array, see module doc).
    group_id: int
    #: Representative candidate; ``benefit_nj`` reflects all members.
    candidate: BufferCandidate
    #: The per-reference candidates this node serves (>1 = shared buffer).
    members: tuple[BufferCandidate, ...]
    #: Main-memory words copied into the buffer over the whole run.
    fill_words: int
    #: Words copied back to main memory (0 for read-only members).
    writeback_words: int

    @property
    def size_bytes(self) -> int:
        return self.candidate.size_bytes

    @property
    def benefit_nj(self) -> float:
        return self.candidate.benefit_nj

    @property
    def level(self) -> ReuseLevel:
        return self.candidate.level

    @property
    def references(self) -> tuple[ForayReference, ...]:
        return tuple(member.reference for member in self.members)

    @property
    def is_shared(self) -> bool:
        return len(self.members) > 1

    def describe(self) -> str:
        shared = f", shared x{len(self.members)}" if self.is_shared else ""
        return (
            f"node {self.node_id} (group {self.group_id}): "
            f"{self.size_bytes} B, fill {self.fill_words} w, "
            f"wb {self.writeback_words} w, "
            f"benefit {self.benefit_nj:.0f} nJ{shared}"
        )


@dataclass(frozen=True)
class ReuseEdge:
    """A structural relation between two nodes (see module docstring)."""

    kind: str  # "containment" | "sharing"
    src: int
    dst: int


class ReuseGraph:
    """The reuse-graph IR over one FORAY model (see module docstring)."""

    def __init__(
        self,
        nodes: tuple[ReuseNode, ...],
        edges: tuple[ReuseEdge, ...],
        energy: EnergyModel,
    ):
        self.nodes = nodes
        self.edges = edges
        self.energy = energy

    @classmethod
    def from_model(
        cls, model: ForayModel, energy: EnergyModel | None = None
    ) -> "ReuseGraph":
        energy = energy or EnergyModel()
        references = [ref for ref in model.references if ref.effective_loops]
        group_of = _group_by_array(references)

        # Bucket every reuse level by (array, window signature): identical
        # windows of the same array collapse into one shared node.
        buckets: dict[tuple, list[BufferCandidate]] = {}
        order: list[tuple] = []
        for reference in references:
            for level in reuse_levels(reference):
                size = level.footprint_words * reference.access_size
                candidate = BufferCandidate(reference, level, size, 0.0)
                key = (group_of[id(reference)], _window_signature(candidate))
                if key not in buckets:
                    buckets[key] = []
                    order.append(key)
                buckets[key].append(candidate)

        nodes: list[ReuseNode] = []
        for key in order:
            members = buckets[key]
            benefit = _merged_benefit(members, energy)
            if benefit <= 0:
                continue
            level = members[0].level
            representative = BufferCandidate(
                members[0].reference, level, members[0].size_bytes, benefit
            )
            fill_words = level.fills * level.footprint_words
            writes = any(member.reference.writes for member in members)
            nodes.append(
                ReuseNode(
                    node_id=len(nodes),
                    group_id=key[0],
                    candidate=representative,
                    members=tuple(members),
                    fill_words=fill_words,
                    writeback_words=fill_words if writes else 0,
                )
            )

        return cls(tuple(nodes), _build_edges(nodes), energy)

    # -- structure ---------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def exclusive_groups(self) -> tuple[tuple[ReuseNode, ...], ...]:
        """Partition of the nodes into mutual-exclusion groups (one
        buffering decision per array)."""
        groups: dict[int, list[ReuseNode]] = {}
        for node in self.nodes:
            groups.setdefault(node.group_id, []).append(node)
        return tuple(tuple(group) for group in groups.values())

    def edges_of_kind(self, kind: str) -> tuple[ReuseEdge, ...]:
        return tuple(edge for edge in self.edges if edge.kind == kind)

    def describe(self) -> str:
        lines = [
            f"reuse graph: {self.node_count} nodes, {self.edge_count} edges, "
            f"{len(self.exclusive_groups())} exclusive groups"
        ]
        lines.extend(node.describe() for node in self.nodes)
        return "\n".join(lines)


def _group_by_array(references: list[ForayReference]) -> dict[int, int]:
    """Assign each reference an array-group id by interval overlap.

    References are sorted by interval start; overlapping (transitively
    chained) intervals share a group — they alias the same storage.
    """
    ordered = sorted(
        references, key=lambda ref: (*reference_interval(ref), ref.pc)
    )
    group_of: dict[int, int] = {}
    group_id = -1
    frontier = None  # highest address seen in the current group
    for reference in ordered:
        lo, hi = reference_interval(reference)
        if frontier is None or lo >= frontier:
            group_id += 1
            frontier = hi
        else:
            frontier = max(frontier, hi)
        group_of[id(reference)] = group_id
    return group_of


def _build_edges(nodes: list[ReuseNode]) -> tuple[ReuseEdge, ...]:
    edges: list[ReuseEdge] = []
    seen: set[tuple[str, int, int]] = set()

    def add(kind: str, src: int, dst: int) -> None:
        key = (kind, src, dst)
        if src != dst and key not in seen:
            seen.add(key)
            edges.append(ReuseEdge(kind, src, dst))

    # Containment: successive reuse levels of the same reference.
    by_reference: dict[int, list[ReuseNode]] = {}
    for node in nodes:
        for member in node.members:
            by_reference.setdefault(id(member.reference), []).append(node)
    for chain in by_reference.values():
        chain = sorted(chain, key=lambda node: node.level.level)
        for inner, outer in zip(chain, chain[1:]):
            add("containment", inner.node_id, outer.node_id)

    # Sharing: distinct windows of the same array.
    by_group: dict[int, list[ReuseNode]] = {}
    for node in nodes:
        by_group.setdefault(node.group_id, []).append(node)
    for group in by_group.values():
        for i, left in enumerate(group):
            left_refs = {id(ref) for ref in left.references}
            for right in group[i + 1 :]:
                if left_refs.isdisjoint(id(ref) for ref in right.references):
                    add("sharing", left.node_id, right.node_id)
    return tuple(edges)
