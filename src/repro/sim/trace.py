"""Trace records, sinks, and the paper-compatible text trace format.

The simulator (our stand-in for the modified SimpleScalar of the paper)
emits a stream of two record kinds:

* :class:`Checkpoint` — execution of a checkpoint instruction inserted by
  the annotator (paper Algorithm 1, step 1);
* :class:`Access` — one memory access, carrying the synthetic instruction
  pc and the accessed address.

The text format matches the paper's Figure 4(c)::

    Checkpoint: 12
    Instr: 4002a0 addr: 7fff5934 wr

Checkpoint *kinds* are not part of the text format (as in the paper); the
reader restores them from the :class:`CheckpointMap` produced by the
instrumentation pass.

pcs are synthetic: user-code access sites get
``USER_PC_BASE + 8*node_id (+4 for stores)``; accesses made inside library
builtins get pcs at ``LIB_PC_BASE`` and above, which is how Table III's
"system call" classification is reproduced.

Block protocol
--------------

The engines do not hand sinks one record object at a time. Both append
raw ints to one shared :class:`TraceBuffer` and flush it in blocks to
each sink's ``emit_columns(block)``:

* accesses go into a single flat interleaved buffer
  ``[pc0, addr0, size0, w0, pc1, ...]`` (``is_write`` encoded 0/1), one
  C-level ``list.extend`` per access;
* each checkpoint is one packed int (:func:`pack_checkpoint`),
  ``((4·pos) | kind_code) << 32 | checkpoint_id``, where ``pos`` is the
  index of the access *before which* the checkpoint fires (``pos == n``
  for checkpoints trailing the block) and ``kind_code`` is the compact
  :data:`KIND_TO_CODE` encoding. ``4·pos`` is the flat buffer's length
  when the checkpoint fires, so an engine packs an event with one shift
  and one add, and builds no tuple.

Each flush hands every sink the same :class:`ColumnBlock`, which reshapes
the flat buffer into parallel ``int64`` columns (pc, addr, size,
is_write) without per-access Python work and keeps the packed
checkpoints (:meth:`ColumnBlock.checkpoint_tuples` decodes them). This
keeps the hot path free of per-access object construction while
preserving the exact interleaving of the two streams;
:func:`expand_block` recovers the classic record sequence when needed.
The per-record :meth:`TraceSink.emit` entry point remains for replaying
stored text traces (:func:`parse_trace`) and as the tests' oracle.
"""

from __future__ import annotations

import enum
import io
from dataclasses import dataclass, field
from typing import (IO, TYPE_CHECKING, Any, Iterable, Iterator, Protocol,
                    Sequence, Union)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.interpreter import RunStats

#: Base pc for user-code memory access sites.
USER_PC_BASE = 0x400000
#: Base pc for library-builtin memory access sites.
LIB_PC_BASE = 0x500000

#: Number of accesses an engine buffers before flushing a block.
DEFAULT_TRACE_BLOCK = 4096
#: Largest block size: it keeps ``4·pos`` of a packed checkpoint below
#: ``2**30`` (a chain may overshoot the block a little), so every packed
#: value fits an int64.
MAX_TRACE_BLOCK = 2**26


def is_library_pc(pc: int) -> bool:
    """True when ``pc`` belongs to the system library range."""
    return pc >= LIB_PC_BASE


def load_pc(node_id: int) -> int:
    """Synthetic pc of the load issued by AST node ``node_id``."""
    return USER_PC_BASE + 8 * node_id


def store_pc(node_id: int) -> int:
    """Synthetic pc of the store issued by AST node ``node_id``."""
    return USER_PC_BASE + 8 * node_id + 4


def node_id_of_pc(pc: int) -> int:
    """Recover the AST node_id a user-code pc was derived from."""
    if is_library_pc(pc) or pc < USER_PC_BASE:
        raise ValueError(f"pc {pc:#x} is not a user-code pc")
    return (pc - USER_PC_BASE) // 8


def pc_is_store(pc: int) -> bool:
    """True when a user-code pc denotes the store role of its site."""
    return (pc - USER_PC_BASE) % 8 == 4


class CheckpointKind(enum.Enum):
    """The three checkpoint flavours of the paper's Algorithm 2."""

    LOOP_BEGIN = "loop-begin"
    BODY_BEGIN = "body-begin"
    BODY_END = "body-end"


#: Compact integer encoding of checkpoint kinds used in batched blocks.
LOOP_BEGIN_CODE, BODY_BEGIN_CODE, BODY_END_CODE = 0, 1, 2
KIND_TO_CODE: dict[CheckpointKind, int] = {
    CheckpointKind.LOOP_BEGIN: LOOP_BEGIN_CODE,
    CheckpointKind.BODY_BEGIN: BODY_BEGIN_CODE,
    CheckpointKind.BODY_END: BODY_END_CODE,
}
CODE_TO_KIND: tuple[CheckpointKind, ...] = (
    CheckpointKind.LOOP_BEGIN,
    CheckpointKind.BODY_BEGIN,
    CheckpointKind.BODY_END,
)


@dataclass(frozen=True, slots=True)
class Checkpoint:
    checkpoint_id: int
    kind: CheckpointKind


@dataclass(frozen=True, slots=True)
class Access:
    pc: int
    addr: int
    size: int
    is_write: bool

    @property
    def is_library(self) -> bool:
        return is_library_pc(self.pc)


TraceRecord = Checkpoint | Access


@dataclass(frozen=True)
class CheckpointInfo:
    """Static description of one checkpoint id (from the annotator)."""

    checkpoint_id: int
    kind: CheckpointKind
    #: node_id of the loop this checkpoint belongs to.
    loop_node_id: int
    #: "for" | "while" | "do"
    loop_kind: str
    #: Compact batched-protocol encoding of ``kind`` (see KIND_TO_CODE).
    kind_code: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind_code", KIND_TO_CODE[self.kind])


@dataclass
class CheckpointMap:
    """id → :class:`CheckpointInfo`, produced by the instrumentation pass."""

    infos: dict[int, CheckpointInfo] = field(default_factory=dict)
    _begin_cache: dict[int, int | None] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def add(self, info: CheckpointInfo) -> None:
        if info.checkpoint_id in self.infos:
            raise ValueError(f"duplicate checkpoint id {info.checkpoint_id}")
        self.infos[info.checkpoint_id] = info
        # Explicit invalidation: a stale-length heuristic would miss
        # mutations that keep the map the same size.
        self._begin_cache = None

    def kind_of(self, checkpoint_id: int) -> CheckpointKind:
        return self.infos[checkpoint_id].kind

    def begin_id_for(self, checkpoint_id: int) -> int | None:
        """Loop-begin checkpoint id of the loop owning ``checkpoint_id``."""
        return self.begin_ids().get(checkpoint_id)

    def begin_ids(self) -> dict[int, int | None]:
        """checkpoint id → loop-begin id of its loop, for every id.

        All three checkpoints of one loop share a ``loop_node_id``; the
        mapping is cached (invalidated by :meth:`add`) because this sits on
        the trace-processing hot path. Callers must not mutate it.
        """
        cache = self._begin_cache
        if cache is None:
            begin_by_loop = {
                info.loop_node_id: info.checkpoint_id
                for info in self.infos.values()
                if info.kind is CheckpointKind.LOOP_BEGIN
            }
            cache = {
                cid: begin_by_loop.get(info.loop_node_id)
                for cid, info in self.infos.items()
            }
            self._begin_cache = cache
        return cache

    def __contains__(self, checkpoint_id: int) -> bool:
        return checkpoint_id in self.infos

    def __len__(self) -> int:
        return len(self.infos)

    def loops(self) -> set[int]:
        """node_ids of all instrumented loops."""
        return {info.loop_node_id for info in self.infos.values()}


def pack_checkpoint(pos: int, checkpoint_id: int, kind_code: int) -> int:
    """One checkpoint event as a block stores it (see the module
    docstring): it fires before access ``pos`` of its block."""
    return ((4 * pos) | kind_code) << 32 | checkpoint_id


#: The four parallel access columns (pcs, addrs, sizes, writes) as plain
#: lists; ``writes`` carries 0/1 ints per access.
_Columns = tuple[list[int], list[int], list[int], list[int]]


class ColumnBlock:
    """One flushed trace block as parallel columns (struct-of-arrays).

    Access data lives in four parallel ``int64`` columns (``pc``,
    ``addr``, ``size``, ``is_write`` — the latter 0/1); ``checkpoints``
    is the list of packed checkpoint ints (:func:`pack_checkpoint`;
    their ``pos`` indexes into the columns). Column arrays, plain-list
    views and the decoded checkpoint tuples are built lazily and
    memoized, so a flush serving several sinks pays each conversion at
    most once.
    """

    __slots__ = ("n", "checkpoints", "_flat", "_arr", "_lists", "_tuples")

    def __init__(self, flat: list[int], checkpoints: list[int]) -> None:
        self._flat = flat
        self.checkpoints: list[int] = checkpoints
        #: Number of accesses in the block.
        self.n = len(flat) >> 2
        self._arr: Any = None
        self._lists: _Columns | None = None
        self._tuples: list[tuple[int, int, int]] | None = None

    @classmethod
    def from_flat(cls, flat: list[int],
                  checkpoints: list[int]) -> "ColumnBlock":
        """Snapshot an engine's flat interleaved buffer (copies both, so
        the engine may clear its buffers in place afterwards)."""
        return cls(list(flat), list(checkpoints))

    def __len__(self) -> int:
        return self.n

    # -- columnar views ---------------------------------------------------

    def _array(self) -> Any:
        """The (n, 4) int64 matrix backing the column properties."""
        arr = self._arr
        if arr is None:
            # NumPy loads with the first columnar block, so processes that
            # never simulate (``--help``, warm store reads) never pay for it.
            import numpy as np

            arr = np.fromiter(self._flat, dtype=np.int64,
                              count=len(self._flat)).reshape(-1, 4)
            self._arr = arr
        return arr

    @property
    def pc(self) -> Any:
        return self._array()[:, 0]

    @property
    def addr(self) -> Any:
        return self._array()[:, 1]

    @property
    def size(self) -> Any:
        return self._array()[:, 2]

    @property
    def is_write(self) -> Any:
        return self._array()[:, 3]

    def lists(self) -> _Columns:
        """``(pcs, addrs, sizes, writes)`` as plain Python lists.

        Values are native ints — safe to stash in long-lived sets/dicts
        without pinning numpy scalars.
        """
        lists = self._lists
        if lists is None:
            flat = self._flat
            lists = (flat[0::4], flat[1::4], flat[2::4], flat[3::4])
            self._lists = lists
        return lists

    def checkpoint_tuples(self) -> list[tuple[int, int, int]]:
        """The checkpoints as ``(pos, checkpoint_id, kind_code)`` tuples,
        in stream order."""
        tuples = self._tuples
        if tuples is None:
            tuples = [(packed >> 34, packed & 0xFFFFFFFF, (packed >> 32) & 3)
                      for packed in self.checkpoints]
            self._tuples = tuples
        return tuples


class TraceSink(Protocol):
    """Anything that can consume trace records as they are produced.

    Engines hand sinks one :class:`ColumnBlock` per flush through
    :meth:`emit_columns`; the per-record :meth:`emit` entry point exists
    for replaying stored traces and for tests.
    """

    def emit(self, record: TraceRecord) -> None: ...

    def emit_columns(self, block: ColumnBlock) -> None: ...


class TraceBuffer:
    """The trace buffer and flush both engines share.

    ``acc`` is the flat interleaved access buffer and ``cps`` the list
    of packed checkpoints (see the module docstring). Engines append to
    both directly and call :meth:`flush` once ``len(acc) >= limit`` or
    ``len(cps) >= block_size``. Both lists are cleared in place, so the
    bound ``extend``/``append`` methods engines cache stay valid. A
    block size above :data:`MAX_TRACE_BLOCK` is a ``ValueError``.

    Appending never reads :attr:`tracing`: a flush while tracing is off
    discards its records (no sink call, no stats). Engines therefore run
    global initializers through the same code as the program, drop their
    traffic with one flush before switching tracing on, and must flush
    the last block *before* switching it off.
    """

    __slots__ = ("acc", "cps", "block_size", "limit", "tracing", "_sinks",
                 "_stats")

    def __init__(self, sinks: Iterable[TraceSink], block_size: int,
                 stats: "RunStats") -> None:
        self._sinks = tuple(sinks)
        for sink in self._sinks:
            if not callable(getattr(sink, "emit_columns", None)):
                raise TypeError(
                    f"trace sink {type(sink).__name__} has no "
                    f"emit_columns(block) method")
        self._stats = stats
        if block_size > MAX_TRACE_BLOCK:
            raise ValueError(
                f"trace block size {block_size} exceeds {MAX_TRACE_BLOCK}")
        self.block_size = max(1, block_size)
        #: Flush threshold of the flat buffer (4 ints per access).
        self.limit = 4 * self.block_size
        self.acc: list[int] = []
        self.cps: list[int] = []
        self.tracing = False

    def flush(self) -> None:
        """Hand the buffered block to every sink (or drop it while
        tracing is off) and clear the buffers."""
        acc, cps = self.acc, self.cps
        if not acc and not cps:
            return
        if self.tracing:
            self._stats.accesses += len(acc) >> 2
            self._stats.checkpoints += len(cps)
            if self._sinks:
                block = ColumnBlock.from_flat(acc, cps)
                for sink in self._sinks:
                    sink.emit_columns(block)
        del acc[:]
        del cps[:]

    def lib_trace(self, records: Sequence[int]) -> None:
        """Append a builtin's records (flat ``[pc, addr, size, is_write]``
        ints) as one run, flushing exactly where appending them one at a
        time would: whenever an append brings the buffer to the limit.
        The specialized code checks the limit once per chain, so the
        buffer may already be past it; the first record then flushes."""
        if not self.tracing:
            return
        acc = self.acc
        limit = self.limit
        if len(acc) + len(records) < limit:
            acc.extend(records)
            return
        cut = max(4, limit - len(acc))
        pos = 0
        while len(records) - pos >= cut:
            acc.extend(records[pos:pos + cut])
            self.flush()
            pos += cut
            cut = limit
        acc.extend(records[pos:])


def expand_block(block: ColumnBlock) -> Iterator[TraceRecord]:
    """Interleave one block back into classic record objects."""
    checkpoints = block.checkpoint_tuples()
    pcs, addrs, sizes, writes = block.lists()
    ci = 0
    ncp = len(checkpoints)
    for i, (pc, addr, size, w) in enumerate(zip(pcs, addrs, sizes, writes)):
        while ci < ncp and checkpoints[ci][0] <= i:
            _, checkpoint_id, code = checkpoints[ci]
            ci += 1
            yield Checkpoint(checkpoint_id, CODE_TO_KIND[code])
        yield Access(pc, addr, size, bool(w))
    while ci < ncp:
        _, checkpoint_id, code = checkpoints[ci]
        ci += 1
        yield Checkpoint(checkpoint_id, CODE_TO_KIND[code])


class TraceCollector:
    """A sink that stores all records in memory (tests, small runs)."""

    def __init__(self) -> None:
        self.records: list[TraceRecord] = []

    def emit(self, record: TraceRecord) -> None:
        self.records.append(record)

    def emit_columns(self, block: ColumnBlock) -> None:
        self.records.extend(expand_block(block))

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def accesses(self) -> list[Access]:
        return [r for r in self.records if isinstance(r, Access)]

    def checkpoints(self) -> list[Checkpoint]:
        return [r for r in self.records if isinstance(r, Checkpoint)]


class StreamRecorder:
    """A sink keeping a run's trace as one stream, whatever its block
    cuts: ``flat`` concatenates the blocks' ``[pc, addr, size, is_write]``
    ints, and ``checkpoints`` their packed checkpoints with each position
    rebased onto that concatenation. Two runs with equal streams emitted
    the same records in the same order, access sizes included."""

    def __init__(self) -> None:
        self.flat: list[int] = []
        self.checkpoints: list[int] = []

    def emit_columns(self, block: ColumnBlock) -> None:
        # The position is the packed int's high field (bits 34 and up).
        base = (len(self.flat) >> 2) << 34
        self.checkpoints.extend(packed + base for packed in block.checkpoints)
        self.flat.extend(block._flat)


class TraceWriter:
    """A sink that streams records to a text file in the paper's format."""

    def __init__(self, stream: io.TextIOBase) -> None:
        self._stream = stream

    def emit(self, record: TraceRecord) -> None:
        if isinstance(record, Checkpoint):
            self._stream.write(f"Checkpoint: {record.checkpoint_id}\n")
        else:
            kind = "wr" if record.is_write else "rd"
            self._stream.write(f"Instr: {record.pc:x} addr: {record.addr:x} {kind}\n")

    def emit_columns(self, block: ColumnBlock) -> None:
        # Text lines are written straight from the columns; no record
        # objects are constructed on the flush path.
        write = self._stream.write
        checkpoints = block.checkpoint_tuples()
        pcs, addrs, _sizes, writes = block.lists()
        ci = 0
        ncp = len(checkpoints)
        for i, (pc, addr, w) in enumerate(zip(pcs, addrs, writes)):
            while ci < ncp and checkpoints[ci][0] <= i:
                write(f"Checkpoint: {checkpoints[ci][1]}\n")
                ci += 1
            write(f"Instr: {pc:x} addr: {addr:x} {'wr' if w else 'rd'}\n")
        while ci < ncp:
            write(f"Checkpoint: {checkpoints[ci][1]}\n")
            ci += 1


def format_trace(records: Iterable[TraceRecord]) -> str:
    """Render records as paper-format text (Figure 4c)."""
    buffer = io.StringIO()
    writer = TraceWriter(buffer)
    for record in records:
        writer.emit(record)
    return buffer.getvalue()


def parse_trace(
    trace: Union[str, IO[str], Iterable[str]],
    checkpoint_map: CheckpointMap,
) -> Iterator[TraceRecord]:
    """Parse paper-format trace text back into records, streaming.

    ``trace`` may be the whole trace text, an open text file, or any other
    iterable of lines — the trace is never materialized in memory, so
    arbitrarily large stored traces can be replayed with constant space.

    Access sizes are not part of the text format; they are restored as 1,
    which is sufficient for the FORAY-GEN analysis (it never uses sizes).
    """
    lines = trace.splitlines() if isinstance(trace, str) else trace
    for line_number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("Checkpoint:"):
            body = line.split(":", 1)[1]
            try:
                checkpoint_id = int(body)
            except ValueError:
                raise ValueError(
                    f"malformed trace line {line_number}: {line!r}"
                ) from None
            if checkpoint_id not in checkpoint_map:
                raise ValueError(
                    f"unknown checkpoint id {checkpoint_id} "
                    f"on trace line {line_number}"
                )
            yield Checkpoint(checkpoint_id, checkpoint_map.kind_of(checkpoint_id))
        elif line.startswith("Instr:"):
            parts = line.split()
            if len(parts) != 5 or parts[2] != "addr:" or parts[4] not in ("wr", "rd"):
                raise ValueError(f"malformed trace line {line_number}: {line!r}")
            try:
                pc = int(parts[1], 16)
                addr = int(parts[3], 16)
            except ValueError:
                raise ValueError(
                    f"malformed trace line {line_number}: {line!r}"
                ) from None
            yield Access(pc, addr, 1, parts[4] == "wr")
        else:
            raise ValueError(f"malformed trace line {line_number}: {line!r}")
