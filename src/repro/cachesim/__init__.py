"""Cache-hierarchy co-simulation: the hardware baseline the SPM displaces.

Public surface:

* :class:`~repro.cachesim.config.CacheConfig` / ``parse_cache_spec`` —
  cache geometry and policy (plus optional L2);
* :class:`~repro.cachesim.sink.CacheSink` — streaming set-associative
  simulation over the batched trace-sink protocol;
* :class:`~repro.cachesim.report.HierarchyReport` — pure-cache vs
  SPM+cache comparison for one evaluation-matrix cell.
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.cachesim.config import (
        DEFAULT_CACHE_SWEEP,
        WORD_BYTES,
        CacheConfig,
        parse_cache_spec,
    )
    from repro.cachesim.model import (
        CacheHierarchy,
        CacheLevelStats,
        CacheSimResult,
        hierarchy_energy,
    )
    from repro.cachesim.report import HierarchyReport, build_hierarchy_report
    from repro.cachesim.sink import (
        CacheSink,
        allocation_intervals,
        merge_intervals,
    )

__all__ = [
    "DEFAULT_CACHE_SWEEP",
    "WORD_BYTES",
    "CacheConfig",
    "CacheHierarchy",
    "CacheLevelStats",
    "CacheSimResult",
    "CacheSink",
    "HierarchyReport",
    "allocation_intervals",
    "build_hierarchy_report",
    "hierarchy_energy",
    "merge_intervals",
    "parse_cache_spec",
]

__getattr__, __dir__ = attach(__name__, {
    "config": ("DEFAULT_CACHE_SWEEP", "WORD_BYTES", "CacheConfig",
               "parse_cache_spec"),
    "model": ("CacheHierarchy", "CacheLevelStats", "CacheSimResult",
              "hierarchy_energy"),
    "report": ("HierarchyReport", "build_hierarchy_report"),
    "sink": ("CacheSink", "allocation_intervals", "merge_intervals"),
})
