"""Hierarchy comparison report: pure cache vs SPM + cache.

One :class:`HierarchyReport` is one cell of the evaluation matrix — a
(workload, input scenario, cache configuration) triple simulated twice
from a single engine run (two sinks share the trace stream):

* **pure cache** — every access goes through the cache hierarchy (the
  hardware baseline the paper's SPM displaces);
* **SPM + cache** — accesses inside the SPM allocation's address
  intervals are served by the scratch pad; everything else still goes
  through the same cache configuration. The SPM buffers' DMA fill and
  write-back traffic is charged from the allocation's transfer volumes
  (main-memory words moved once per fill, exactly as Phase II accounts
  them).

``baseline_main_nj`` — all accesses served from main memory with no
hierarchy at all — is included as the common denominator the paper's
energy-saving fractions are quoted against.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

from repro.cachesim.model import (
    CacheConfig,
    CacheSimResult,
    hierarchy_energy,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.spm.energy import EnergyModel


@dataclass(frozen=True)
class HierarchyReport:
    """Pure-cache vs SPM+cache comparison for one matrix cell."""

    workload: str
    #: Input-scenario name ("-" for ad-hoc sources without a matrix).
    scenario: str
    cache_config: CacheConfig
    #: SPM capacity the hybrid allocation was selected under.
    spm_bytes: int
    #: Allocator policy behind the hybrid allocation.
    policy: str
    #: SPM bytes the allocation actually occupies.
    spm_buffer_bytes: int
    #: Every access served from main memory (no cache, no SPM).
    baseline_main_nj: float
    cache: CacheSimResult
    hybrid: CacheSimResult
    #: Energy of the pure-cache run.
    cache_nj: float
    #: Cache-side energy of the hybrid run (non-SPM accesses).
    hybrid_cache_nj: float
    #: SPM access energy of the hybrid run.
    spm_access_nj: float
    #: DMA fill + write-back energy of the SPM buffers.
    spm_transfer_nj: float

    @property
    def hybrid_nj(self) -> float:
        """Total energy of the SPM+cache configuration."""
        return self.hybrid_cache_nj + self.spm_access_nj + self.spm_transfer_nj

    @property
    def spm_win(self) -> bool:
        """Does adding the SPM beat the pure cache outright?"""
        return self.hybrid_nj < self.cache_nj

    @property
    def hybrid_saving_fraction(self) -> float:
        """SPM+cache's energy saving over the pure cache."""
        if self.cache_nj <= 0:
            return 0.0
        return 1.0 - self.hybrid_nj / self.cache_nj

    def fingerprint(self) -> str:
        """Stable content hash (disk-vs-recompute identity checks, like
        :meth:`ValidationReport.fingerprint`)."""
        digest = hashlib.sha256()
        digest.update(
            f"{self.workload}:{self.scenario}:{self.cache_config.spec()}:"
            f"{self.spm_bytes}:{self.policy}:{self.spm_buffer_bytes};".encode()
        )
        for result in (self.cache, self.hybrid):
            digest.update(
                f"{result.reads}:{result.writes}:{result.spm_reads}:"
                f"{result.spm_writes}:{result.main_read_words}:"
                f"{result.main_write_words};".encode()
            )
            for stats in result.levels:
                values = ":".join(
                    str(getattr(stats, field.name)) for field in fields(stats)
                )
                digest.update(f"{values};".encode())
        return digest.hexdigest()


def build_hierarchy_report(
    workload: str,
    scenario: str,
    cache_config: CacheConfig,
    allocation,
    pure: CacheSimResult,
    hybrid: CacheSimResult,
    energy: EnergyModel,
) -> HierarchyReport:
    """Assemble the comparison from two finished sink results.

    ``allocation`` is the :class:`~repro.spm.allocator.Allocation` whose
    address intervals the hybrid sink bypassed; its graph nodes supply
    the DMA fill/write-back volumes.
    """
    fill_words = sum(node.fill_words for node in allocation.nodes)
    writeback_words = sum(node.writeback_words for node in allocation.nodes)
    return HierarchyReport(
        workload=workload,
        scenario=scenario,
        cache_config=cache_config,
        spm_bytes=allocation.capacity_bytes,
        policy=allocation.policy,
        spm_buffer_bytes=allocation.used_bytes,
        baseline_main_nj=energy.main_energy(pure.reads, pure.writes),
        cache=pure,
        hybrid=hybrid,
        cache_nj=hierarchy_energy(pure, energy),
        hybrid_cache_nj=hierarchy_energy(hybrid, energy),
        spm_access_nj=energy.spm_energy(hybrid.spm_reads, hybrid.spm_writes),
        spm_transfer_nj=(energy.fill_energy(fill_words)
                        + energy.writeback_energy(writeback_words)),
    )
