"""Buffer selection under an SPM capacity (Phase II step 3).

Selection runs over the reuse graph's exclusive groups
(:meth:`~repro.spm.graph.ReuseGraph.exclusive_groups`): at most one node
per group may be selected (two reuse levels of one reference, or two
windows of one array, are redundant), which makes this a multiple-choice
knapsack. Three policies are available via :class:`AllocatorPolicy`:

* ``dp`` (default) — exact dynamic program over 4-byte-granular capacity;
  capacities are small (hundreds of bytes to tens of KiB), so the exact
  solve is fast and optimal.
* ``greedy`` — rank by benefit *density* (energy saved per SPM byte), the
  classic heuristic; a large low-value buffer can no longer crowd out
  several small high-value ones.
* ``greedy-benefit`` — rank by raw benefit, the historical ordering; kept
  reachable so ``bench_spm.py`` can quantify what density ranking and the
  exact DP each buy.

Both greedy variants charge the same granule-aligned capacity as the DP,
so the exact solve dominates them at every capacity by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.spm.graph import ReuseGraph, ReuseNode

_GRANULE = 4


class AllocatorPolicy(str, Enum):
    """Selection policy for :func:`allocate_graph`."""

    DP = "dp"
    GREEDY = "greedy"
    GREEDY_BENEFIT = "greedy-benefit"


#: CLI-facing policy names.
ALLOCATOR_POLICIES = tuple(policy.value for policy in AllocatorPolicy)


@dataclass
class Allocation:
    """The outcome of design-space selection for one SPM capacity."""

    capacity_bytes: int
    #: The selected reuse-graph nodes, largest benefit first.
    nodes: tuple[ReuseNode, ...] = ()
    total_benefit_nj: float = 0.0
    policy: str = AllocatorPolicy.DP.value

    @property
    def used_bytes(self) -> int:
        return sum(node.size_bytes for node in self.nodes)

    @property
    def buffer_count(self) -> int:
        return len(self.nodes)


def _granules(item) -> int:
    return -(-item.size_bytes // _GRANULE)  # ceil


def _dp_select(groups: Sequence[Sequence], slots: int) -> tuple[float, list]:
    """Exact multiple-choice knapsack over granule-aligned capacity.

    ``best[c]`` is the most benefit within ``c`` slots; each group records
    one back-pointer row (the item it took at each capacity, or -1), and
    the selection is recovered by walking the rows back from the first
    capacity with the most benefit, and returned in group order. Within a
    group, an item replaces the incumbent only on a strictly larger
    benefit, so ties keep the earlier choice.
    """
    import numpy as np  # loaded on first use: a warm run never allocates

    best = np.zeros(slots + 1)
    rows: list[np.ndarray] = []
    for group in groups:
        new_best = best.copy()
        row = np.full(slots + 1, -1, dtype=np.int32)
        for index, item in enumerate(group):
            need = _granules(item)
            if need > slots:
                continue
            gain = best[:slots + 1 - need] + item.benefit_nj
            better = gain > new_best[need:]
            new_best[need:][better] = gain[better]
            row[need:][better] = index
        best = new_best
        rows.append(row)

    capacity = int(np.argmax(best))
    total = float(best[capacity])
    chosen = []
    for group, row in zip(reversed(groups), reversed(rows)):
        index = int(row[capacity])
        if index >= 0:
            item = group[index]
            chosen.append(item)
            capacity -= _granules(item)
    chosen.reverse()
    return total, chosen


def _greedy_select(
    groups: Sequence[Sequence], slots: int, rank: Callable
) -> tuple[float, list]:
    """One pass over rank-ordered items, first-fit with group exclusion."""
    items = [
        (group_index, item)
        for group_index, group in enumerate(groups)
        for item in group
    ]
    items.sort(key=lambda pair: rank(pair[1]), reverse=True)
    remaining = slots
    taken: dict[int, object] = {}
    for group_index, item in items:
        if group_index in taken:
            continue
        need = _granules(item)
        if need <= remaining:
            taken[group_index] = item
            remaining -= need
    chosen = list(taken.values())
    return sum(item.benefit_nj for item in chosen), chosen


def _run_policy(
    groups: Sequence[Sequence], capacity_bytes: int, policy: AllocatorPolicy
) -> tuple[float, list]:
    slots = max(0, capacity_bytes // _GRANULE)
    if policy is AllocatorPolicy.DP:
        return _dp_select(groups, slots)
    if policy is AllocatorPolicy.GREEDY:
        # Benefit per byte; ties broken toward the larger absolute saving.
        rank = lambda item: (  # noqa: E731
            item.benefit_nj / max(1, item.size_bytes),
            item.benefit_nj,
        )
    else:
        # Historical ordering: raw benefit, smaller buffers on ties.
        rank = lambda item: (item.benefit_nj, -item.size_bytes)  # noqa: E731
    return _greedy_select(groups, slots, rank)


def allocate_graph(
    graph: "ReuseGraph",
    capacity_bytes: int,
    policy: AllocatorPolicy | str = AllocatorPolicy.DP,
) -> Allocation:
    """Select buffers over the reuse-graph IR's exclusive groups."""
    policy = AllocatorPolicy(policy)
    benefit, chosen = _run_policy(
        graph.exclusive_groups(), capacity_bytes, policy
    )
    nodes = sorted(chosen, key=lambda node: -node.benefit_nj)
    return Allocation(capacity_bytes, tuple(nodes), benefit, policy.value)
