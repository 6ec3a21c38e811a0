"""Design-space exploration over SPM capacities (Phase II step 3).

Sweeps a ladder of scratch-pad sizes, allocating buffers over the
reuse-graph IR at each size, and reports the achievable energy saving —
the capacity/energy trade-off that motivates scratch-pads in the first
place. :func:`pareto_frontier` reduces a sweep to its Pareto-optimal
points (no smaller capacity achieves the same saving), and
:func:`sweep_suite` fans the sweep out across whole workload suites with
the pipeline's multiprocess ``run_suite`` machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.spm.allocator import Allocation, AllocatorPolicy, allocate_graph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.foray.model import ForayModel
    from repro.spm.energy import EnergyModel
    from repro.spm.graph import ReuseGraph

#: Default sweep: typical embedded SPM capacities.
DEFAULT_CAPACITIES = (256, 512, 1024, 2048, 4096, 8192, 16384)


@dataclass(frozen=True)
class ExplorationPoint:
    capacity_bytes: int
    buffer_count: int
    used_bytes: int
    benefit_nj: float
    baseline_nj: float
    policy: str = AllocatorPolicy.DP.value

    @property
    def saving_fraction(self) -> float:
        if self.baseline_nj <= 0:
            return 0.0
        return self.benefit_nj / self.baseline_nj


def model_baseline_energy(model: ForayModel, energy: EnergyModel) -> float:
    """Energy of all model references served from main memory."""
    return sum(
        energy.main_energy(ref.reads, ref.writes) for ref in model.references
    )


def explore(
    model: ForayModel,
    capacities: tuple[int, ...] = DEFAULT_CAPACITIES,
    energy: EnergyModel | None = None,
    policy: AllocatorPolicy | str = AllocatorPolicy.DP,
    graph: ReuseGraph | None = None,
) -> list[ExplorationPoint]:
    """Allocate buffers at each capacity and report the energy savings.

    The reuse graph is built once and reused across the whole ladder;
    pass ``graph`` to share one across several sweeps.
    """
    from repro.spm.energy import EnergyModel
    from repro.spm.graph import ReuseGraph

    energy = energy or EnergyModel()
    policy = AllocatorPolicy(policy)
    if graph is None:
        graph = ReuseGraph.from_model(model, energy)
    baseline = model_baseline_energy(model, energy)
    points: list[ExplorationPoint] = []
    for capacity in capacities:
        allocation: Allocation = allocate_graph(graph, capacity, policy)
        points.append(
            ExplorationPoint(
                capacity_bytes=capacity,
                buffer_count=allocation.buffer_count,
                used_bytes=allocation.used_bytes,
                benefit_nj=allocation.total_benefit_nj,
                baseline_nj=baseline,
                policy=policy.value,
            )
        )
    return points


def pareto_frontier(points: list[ExplorationPoint]) -> list[ExplorationPoint]:
    """The Pareto-optimal subset of a sweep: keep a point only if no
    point of smaller-or-equal capacity achieves at least its saving
    (a zero-saving point is always dominated by the empty SPM)."""
    ordered = sorted(
        points, key=lambda point: (point.capacity_bytes, -point.benefit_nj)
    )
    frontier: list[ExplorationPoint] = []
    best = 0.0
    for point in ordered:
        if point.benefit_nj > best + 1e-9:
            frontier.append(point)
            best = point.benefit_nj
    return frontier


def sweep_suite(
    names: tuple[str, ...] | None = None, *, config=None,
) -> dict[str, tuple[ExplorationPoint, ...]]:
    """Capacity sweep over a workload suite, over ``config.spm``'s
    capacity ladder, allocator policy and energy model.

    Workload profiling (the expensive step) is fanned out over
    ``config.jobs`` worker processes through the pipeline's
    ``run_suite`` machinery; each per-workload sweep is the pipeline's
    exploration node. With ``config.cache_dir`` set, both the profiles
    and the sweeps persist in the disk artifact store, so re-running a
    sweep — from this or any other process — only computes the
    ladders/policies/workloads not already covered: sweeps are
    incremental across invocations.
    """
    from repro import pipeline  # local import: pipeline imports this module

    config = config or pipeline.PipelineConfig()
    reports = pipeline.run_suite(names, config=config)
    return {
        report.name: pipeline.cached_exploration(
            report.extraction.compiled.source, config, report.model)
        for report in reports
    }
