"""Set-associative cache model — the hardware alternative the SPM displaces.

The paper's energy argument (via Banakar et al., CODES 2002 — its
reference [1]) is that a software-managed scratch pad beats a hardware
cache of the same capacity because the cache pays tag/lookup energy on
every access and moves whole lines on every miss. This module supplies
the cache side of that comparison: a set-associative cache, configured
by a :class:`~repro.cachesim.config.CacheConfig`, with LRU replacement,
write-back/write-allocate or write-through/no-write-allocate policies,
and an optional second level — simulated *online* against the engines'
batched trace protocol (see :mod:`repro.cachesim.sink`), never against a
materialized trace.

Accounting model (what the counters mean and what energy is charged):

* Lookups are charged at L1 only — one cache read/write per CPU access
  presented to a cache line (an access spanning two lines costs two
  lookups).
* All inter-level data movement is counted in 4-byte words and charged
  at both endpoints: a fill of one line reads ``line_words`` from the
  level below (cache read, or main-memory read at the last level) and
  writes them into the filling level (cache write); a write-back is the
  mirror image. Write-through writes forward the written words to the
  level below.
* The hierarchy is non-inclusive: an L1 line may or may not be present
  in L2; an L1 write-back that misses L2 write-allocates there.
* :meth:`CacheHierarchy.flush` (called once by the sink's ``finish``)
  writes every remaining dirty line back down to main memory, so
  write-back and write-through configurations are compared on equal
  terms — all dirty data eventually reaches main memory.

``main_read_words`` / ``main_write_words`` on :class:`CacheSimResult`
are the main-memory traffic of the whole run; per-level event counts
live in :class:`CacheLevelStats`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.cachesim.config import (
    DEFAULT_CACHE_SWEEP,
    WORD_BYTES,
    CacheConfig,
    parse_cache_spec,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.spm.energy import EnergyModel

__all__ = [
    "DEFAULT_CACHE_SWEEP",
    "WORD_BYTES",
    "CacheConfig",
    "CacheHierarchy",
    "CacheLevel",
    "CacheLevelStats",
    "CacheSimResult",
    "MainMemory",
    "hierarchy_energy",
    "parse_cache_spec",
]

@dataclass(frozen=True)
class CacheLevelStats:
    """Event counts of one cache level over a whole run."""

    reads: int
    writes: int
    read_misses: int
    write_misses: int
    evictions: int
    fills: int
    writebacks: int
    through_write_words: int

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    @property
    def misses(self) -> int:
        return self.read_misses + self.write_misses

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def miss_rate(self) -> float:
        accesses = self.accesses
        return self.misses / accesses if accesses else 0.0


@dataclass(frozen=True)
class CacheSimResult:
    """Everything one streaming cache simulation tallied.

    ``reads``/``writes`` count the CPU-side accesses the sink routed to
    the cache; ``spm_reads``/``spm_writes`` count accesses that bypassed
    it because their address fell inside an SPM-resident interval
    (hybrid mode). ``levels[0]`` is L1; ``levels[1]`` (when present) L2.
    """

    config: CacheConfig
    levels: tuple[CacheLevelStats, ...]
    main_read_words: int
    main_write_words: int
    reads: int
    writes: int
    spm_reads: int = 0
    spm_writes: int = 0

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    @property
    def spm_accesses(self) -> int:
        return self.spm_reads + self.spm_writes

    @property
    def l1(self) -> CacheLevelStats:
        return self.levels[0]

    @property
    def l1_miss_rate(self) -> float:
        return self.levels[0].miss_rate

    @property
    def main_words(self) -> int:
        return self.main_read_words + self.main_write_words


class MainMemory:
    """Terminal level: tallies word traffic that leaves the hierarchy."""

    __slots__ = ("read_words", "write_words")

    def __init__(self) -> None:
        self.read_words = 0
        self.write_words = 0

    def request(self, addr: int, size: int, is_write: bool) -> None:
        words = (size + WORD_BYTES - 1) // WORD_BYTES
        if is_write:
            self.write_words += words
        else:
            self.read_words += words


class CacheLevel:
    """Runtime state of one set-associative level with LRU replacement.

    Each set is a dict mapping the full line number to its dirty flag;
    dict insertion order doubles as the LRU order (hits pop + reinsert),
    the same idiom as the per-kind LRU of the pipeline's artifact memo
    (:class:`repro.pipeline.ArtifactCache`).
    """

    __slots__ = (
        "line_bytes", "_shift", "_nsets", "_ways", "_write_back", "_below",
        "_sets", "reads", "writes", "read_misses", "write_misses",
        "evictions", "fills", "writebacks", "through_write_words",
    )

    def __init__(self, config: CacheConfig, below) -> None:
        self.line_bytes = config.line_bytes
        self._shift = config.line_bytes.bit_length() - 1
        self._nsets = config.sets
        self._ways = config.ways
        self._write_back = config.write_back
        self._below = below
        self._sets: list[dict[int, bool]] = [
            {} for _ in range(config.sets)
        ]
        self.reads = 0
        self.writes = 0
        self.read_misses = 0
        self.write_misses = 0
        self.evictions = 0
        self.fills = 0
        self.writebacks = 0
        self.through_write_words = 0

    def request(self, addr: int, size: int, is_write: bool) -> None:
        """Serve one access (from the CPU or the level above).

        Accesses that straddle a line boundary touch every covered line
        (one lookup each); the overwhelmingly common single-line case
        takes the straight path.
        """
        shift = self._shift
        first = addr >> shift
        last = (addr + size - 1) >> shift
        if first == last:
            self._touch(first, addr, size, is_write)
            return
        for line in range(first, last + 1):
            lo = max(addr, line << shift)
            hi = min(addr + size, (line + 1) << shift)
            self._touch(line, lo, hi - lo, is_write)

    def _touch(self, line: int, addr: int, size: int, is_write: bool) -> None:
        lines = self._sets[line % self._nsets]
        dirty = lines.pop(line, None)
        if not is_write:
            self.reads += 1
            if dirty is None:
                self.read_misses += 1
                self._fill(line, lines)
                lines[line] = False
            else:
                lines[line] = dirty  # reinsert at MRU
            return
        self.writes += 1
        if self._write_back:  # write-allocate
            if dirty is None:
                self.write_misses += 1
                self._fill(line, lines)
            lines[line] = True
        else:  # write-through, no-write-allocate
            if dirty is None:
                self.write_misses += 1
            else:
                lines[line] = False  # WT lines are never dirty
            self.through_write_words += (size + WORD_BYTES - 1) // WORD_BYTES
            self._below.request(addr, size, True)

    def _fill(self, line: int, lines: dict[int, bool]) -> None:
        """Fetch ``line`` from below, evicting LRU victims as needed
        (``lines`` no longer contains ``line`` when this is called)."""
        while len(lines) >= self._ways:
            victim = next(iter(lines))
            victim_dirty = lines.pop(victim)
            self.evictions += 1
            if victim_dirty:
                self.writebacks += 1
                self._below.request(victim << self._shift, self.line_bytes,
                                    True)
        self.fills += 1
        self._below.request(line << self._shift, self.line_bytes, False)

    def flush(self) -> None:
        """Write every dirty line back down; idempotent (lines stay
        resident but clean, so a second flush moves nothing)."""
        for lines in self._sets:
            for line, dirty in list(lines.items()):
                if dirty:
                    self.writebacks += 1
                    self._below.request(line << self._shift, self.line_bytes,
                                        True)
                    lines[line] = False

    def stats(self) -> CacheLevelStats:
        return CacheLevelStats(
            reads=self.reads,
            writes=self.writes,
            read_misses=self.read_misses,
            write_misses=self.write_misses,
            evictions=self.evictions,
            fills=self.fills,
            writebacks=self.writebacks,
            through_write_words=self.through_write_words,
        )


class CacheHierarchy:
    """L1 (+ optional L2) over main memory, for one streaming run."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.main = MainMemory()
        if config.l2 is not None:
            self.l2: CacheLevel | None = CacheLevel(config.l2, self.main)
            self.l1 = CacheLevel(config, self.l2)
        else:
            self.l2 = None
            self.l1 = CacheLevel(config, self.main)

    def access(self, addr: int, size: int, is_write: bool) -> None:
        self.l1.request(addr, size, is_write)

    def flush(self) -> None:
        """Drain dirty data to main memory, L1 first (its write-backs may
        dirty L2 lines, which the L2 flush then pushes to main)."""
        self.l1.flush()
        if self.l2 is not None:
            self.l2.flush()

    def result(self, reads: int, writes: int,
               spm_reads: int = 0, spm_writes: int = 0) -> CacheSimResult:
        levels = (self.l1.stats(),)
        if self.l2 is not None:
            levels += (self.l2.stats(),)
        return CacheSimResult(
            config=self.config,
            levels=levels,
            main_read_words=self.main.read_words,
            main_write_words=self.main.write_words,
            reads=reads,
            writes=writes,
            spm_reads=spm_reads,
            spm_writes=spm_writes,
        )


def hierarchy_energy(result: CacheSimResult, energy: EnergyModel) -> float:
    """Energy of serving ``result``'s cached accesses, in nanojoules.

    Follows the accounting model in the module docstring: L1 lookups plus
    word-granular inter-level traffic charged at both endpoints. SPM-side
    energy of a hybrid run is *not* included — the report layer adds it
    (see :mod:`repro.cachesim.report`).
    """
    l1 = result.levels[0]
    total = energy.cache_energy(l1.reads, l1.writes)
    configs = [result.config]
    if result.config.l2 is not None:
        configs.append(result.config.l2)
    for index, (stats, config) in enumerate(zip(result.levels, configs)):
        below_is_main = index == len(configs) - 1
        below_read = (energy.main_read_nj if below_is_main
                      else energy.cache_read_nj)
        below_write = (energy.main_write_nj if below_is_main
                       else energy.cache_write_nj)
        line_words = config.line_words
        total += stats.fills * line_words * (below_read + energy.cache_write_nj)
        total += stats.writebacks * line_words * (energy.cache_read_nj
                                                  + below_write)
        total += stats.through_write_words * below_write
    return total
