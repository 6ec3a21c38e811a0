"""Phase II substrate: SPM reuse analysis, buffer allocation, energy model.

Implements the "Traditional SPM analysis and code transformation" box of
the paper's Figure 3 (the design flow of reference [5]) so the value of
FORAY-GEN — more references visible to this phase — can be measured end to
end. The candidate space is a reuse-graph IR (:mod:`repro.spm.graph`), and
buffers are selected only over it: :func:`allocate_graph` (exact DP and
two greedy rankings) and the capacity-sweep explorer take a
:class:`ReuseGraph`, and an :class:`Allocation` is the set of graph nodes
it selected.
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.spm.allocator import (
        ALLOCATOR_POLICIES,
        Allocation,
        AllocatorPolicy,
        allocate_graph,
    )
    from repro.spm.candidates import (
        BufferCandidate,
        served_saving,
        transfer_cost,
    )
    from repro.spm.energy import EnergyModel
    from repro.spm.explore import (
        DEFAULT_CAPACITIES,
        ExplorationPoint,
        explore,
        model_baseline_energy,
        pareto_frontier,
        sweep_suite,
    )
    from repro.spm.graph import (
        ReuseEdge,
        ReuseGraph,
        ReuseNode,
        reference_interval,
    )
    from repro.spm.reuse import ReuseLevel, inner_footprint, reuse_levels
    from repro.spm.transform import (
        ReplayProgram,
        emit_replay_source,
        emit_transformed_source,
        transform_model,
    )

__all__ = [
    "ALLOCATOR_POLICIES",
    "Allocation",
    "AllocatorPolicy",
    "allocate_graph",
    "BufferCandidate",
    "served_saving",
    "transfer_cost",
    "EnergyModel",
    "DEFAULT_CAPACITIES",
    "ExplorationPoint",
    "explore",
    "model_baseline_energy",
    "pareto_frontier",
    "sweep_suite",
    "ReuseEdge",
    "ReuseGraph",
    "ReuseNode",
    "reference_interval",
    "ReuseLevel",
    "inner_footprint",
    "reuse_levels",
    "ReplayProgram",
    "emit_replay_source",
    "emit_transformed_source",
    "transform_model",
]

__getattr__, __dir__ = attach(__name__, {
    "allocator": ("ALLOCATOR_POLICIES", "Allocation", "AllocatorPolicy",
                  "allocate_graph"),
    "candidates": ("BufferCandidate", "served_saving", "transfer_cost"),
    "energy": ("EnergyModel",),
    "explore": ("DEFAULT_CAPACITIES", "ExplorationPoint", "explore",
                "model_baseline_energy", "pareto_frontier", "sweep_suite"),
    "graph": ("ReuseEdge", "ReuseGraph", "ReuseNode", "reference_interval"),
    "reuse": ("ReuseLevel", "inner_footprint", "reuse_levels"),
    "transform": ("ReplayProgram", "emit_replay_source",
                  "emit_transformed_source", "transform_model"),
})
