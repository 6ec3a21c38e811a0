"""Scratch-pad buffer candidates (paper Figure 3, Phase II step 2).

A :class:`BufferCandidate` is one FORAY reference buffered at one split
point of its loop nest: a buffer that holds the data touched by the inner
subnest, refilled each time the subnest is entered. The reuse graph
(:mod:`repro.spm.graph`) builds one per reference and reuse level and
groups them into nodes; a node's energy benefit is its members'
:func:`served_saving` (all accesses served from the SPM instead of main
memory) minus one :func:`transfer_cost` (the fill and write-back
traffic).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.foray.model import ForayReference
from repro.spm.energy import EnergyModel
from repro.spm.reuse import ReuseLevel


@dataclass(frozen=True)
class BufferCandidate:
    reference: ForayReference
    level: ReuseLevel
    size_bytes: int
    benefit_nj: float

    @property
    def name(self) -> str:
        return f"buf_{self.reference.array_name}_l{self.level.level}"


def served_saving(reference: ForayReference, energy: EnergyModel) -> float:
    """Energy saved by serving a reference's accesses from the SPM
    instead of main memory (transfer traffic not included)."""
    return (energy.main_energy(reference.reads, reference.writes)
            - energy.spm_energy(reference.reads, reference.writes))


def transfer_cost(
    level: ReuseLevel, energy: EnergyModel, writes: bool
) -> float:
    """Energy of the fill (and, for written buffers, write-back) traffic
    of one buffer at ``level`` over the whole run."""
    transfer_words = level.fills * level.footprint_words
    cost = energy.fill_energy(transfer_words)
    if writes:
        cost += energy.writeback_energy(transfer_words)
    return cost
