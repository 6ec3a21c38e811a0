"""Workloads: mini-MiBench suite and the paper's figure programs."""

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.workloads.base import Workload
    from repro.workloads.registry import (
        ALL_WORKLOADS,
        FIGURE_WORKLOADS,
        MIBENCH_WORKLOADS,
        get_workload,
        workload_names,
    )

__all__ = [
    "Workload",
    "ALL_WORKLOADS",
    "FIGURE_WORKLOADS",
    "MIBENCH_WORKLOADS",
    "get_workload",
    "workload_names",
]

__getattr__, __dir__ = attach(__name__, {
    "base": ("Workload",),
    "registry": ("ALL_WORKLOADS", "FIGURE_WORKLOADS", "MIBENCH_WORKLOADS",
                 "get_workload", "workload_names"),
})
