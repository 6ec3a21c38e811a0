"""Cache geometry and policy: what a cache-hierarchy cell is configured by.

Apart from the simulator in :mod:`repro.cachesim.model`, so that the
CLI and the pipeline configs, which take a :class:`CacheConfig`, load no
simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Word size used for all traffic accounting (the SPM allocator granule).
WORD_BYTES = 4


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and policy of one cache level (plus an optional L2).

    The default — 64 sets x 2 ways x 32-byte lines = 4 KiB — matches the
    default SPM capacity (``SpmConfig.spm_bytes``), so the out-of-the-box
    comparison is cache-vs-SPM at equal capacity.

    ``write_back=True`` pairs write-back with write-allocate;
    ``write_back=False`` pairs write-through with no-write-allocate (the
    two classic policy bundles).
    """

    line_bytes: int = 32
    sets: int = 64
    ways: int = 2
    write_back: bool = True
    l2: "CacheConfig | None" = None

    def __post_init__(self) -> None:
        if not _is_power_of_two(self.line_bytes) or self.line_bytes < WORD_BYTES:
            raise ValueError(
                f"line_bytes must be a power of two >= {WORD_BYTES}, "
                f"got {self.line_bytes}"
            )
        if self.sets < 1:
            raise ValueError(f"sets must be >= 1, got {self.sets}")
        if self.ways < 1:
            raise ValueError(f"ways must be >= 1, got {self.ways}")
        if self.l2 is not None:
            if self.l2.l2 is not None:
                raise ValueError("at most two cache levels are supported")
            if self.l2.line_bytes < self.line_bytes:
                raise ValueError(
                    "L2 line size must be >= L1 line size "
                    f"({self.l2.line_bytes} < {self.line_bytes})"
                )

    @property
    def size_bytes(self) -> int:
        """Data capacity of this level (excluding any L2)."""
        return self.line_bytes * self.sets * self.ways

    @property
    def line_words(self) -> int:
        return self.line_bytes // WORD_BYTES

    def spec(self) -> str:
        """Round-trippable compact form (see :func:`parse_cache_spec`)."""
        text = f"{self.sets}x{self.ways}x{self.line_bytes}"
        if not self.write_back:
            text += "wt"
        if self.l2 is not None:
            text += f"+l2={self.l2.spec()}"
        return text

    def describe(self) -> str:
        policy = "wb" if self.write_back else "wt"
        text = (
            f"{self.size_bytes}B ({self.sets}s x {self.ways}w x "
            f"{self.line_bytes}B, {policy})"
        )
        if self.l2 is not None:
            text += f" + L2 {self.l2.describe()}"
        return text


#: Ladder swept by ``--sweep`` without a value: cache capacities matching
#: the SPM explorer's DEFAULT_CAPACITIES (256 B .. 16 KiB).
DEFAULT_CACHE_SWEEP: tuple[CacheConfig, ...] = (
    CacheConfig(line_bytes=16, sets=16, ways=1),
    CacheConfig(line_bytes=16, sets=32, ways=1),
    CacheConfig(line_bytes=32, sets=16, ways=2),
    CacheConfig(line_bytes=32, sets=32, ways=2),
    CacheConfig(line_bytes=32, sets=64, ways=2),
    CacheConfig(line_bytes=32, sets=128, ways=2),
    CacheConfig(line_bytes=32, sets=128, ways=4),
)


def parse_cache_spec(text: str) -> CacheConfig:
    """Parse the compact cache-config syntax.

    ``SETSxWAYSxLINE[wt][+l2=SETSxWAYSxLINE[wt]]`` — e.g. ``64x2x32``,
    ``64x2x32wt``, ``64x2x32+l2=256x4x64``. Raises :class:`ValueError`
    with a readable message on malformed specs (geometry constraints are
    enforced by :class:`CacheConfig` itself).
    """
    spec = text.strip()
    l2: CacheConfig | None = None
    if "+" in spec:
        spec, _, tail = spec.partition("+")
        if not tail.startswith("l2="):
            raise ValueError(
                f"invalid cache spec {text!r}: expected '+l2=...' after "
                "the L1 geometry"
            )
        l2 = parse_cache_spec(tail[3:])
    write_back = True
    if spec.endswith("wt"):
        write_back = False
        spec = spec[:-2]
    elif spec.endswith("wb"):
        spec = spec[:-2]
    parts = spec.split("x")
    if len(parts) != 3:
        raise ValueError(
            f"invalid cache spec {text!r}: expected SETSxWAYSxLINE[wt]"
        )
    try:
        sets, ways, line_bytes = (int(part) for part in parts)
    except ValueError:
        raise ValueError(
            f"invalid cache spec {text!r}: SETS, WAYS and LINE must be "
            "integers"
        ) from None
    return CacheConfig(line_bytes=line_bytes, sets=sets, ways=ways,
                       write_back=write_back, l2=l2)
