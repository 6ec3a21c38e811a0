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
one int per record, in stream order, to the list of a shared
:class:`TraceBuffer` and flush it in blocks to each sink's
``emit_columns(block)``:

* an access is ``site << 32 | addr`` (:func:`pack_access`), where
  ``site = (pc << 1 | is_write) << 4 | size``. Every field but the
  address is a constant of the access site, so the generated code
  appends ``K | a_`` with ``K`` folded at code generation;
* a checkpoint is ``checkpoint_id << 2 | kind_code``
  (:func:`pack_checkpoint`, ``kind_code`` from :data:`KIND_TO_CODE`).
  Ids stay below :data:`CHECKPOINT_ID_LIMIT`, so a checkpoint is below
  ``2**32`` and an access, whose size is at least 1, is not.

Each flush hands every sink the same :class:`ColumnBlock`, which decodes
the block with NumPy: the access columns (pc, addr, size, is_write) and
each checkpoint's key and position, the count of accesses before it.
No engine builds an object or a tuple per record, and the stream keeps
the exact interleaving of the two kinds; :func:`expand_block` recovers
the classic record sequence when needed. The per-record
:meth:`TraceSink.emit` entry point remains for replaying stored text
traces (:func:`parse_trace`) and as the tests' oracle.
"""

from __future__ import annotations

import enum
import io
from dataclasses import dataclass, field
from typing import IO, Any, Iterable, Iterator, Protocol, Sequence, Union

#: Base pc for user-code memory access sites.
USER_PC_BASE = 0x400000
#: Base pc for library-builtin memory access sites.
LIB_PC_BASE = 0x500000

#: Number of records (accesses and checkpoints) an engine buffers before
#: flushing a block.
DEFAULT_TRACE_BLOCK = 6400
#: Largest block size an engine accepts; it bounds the memory one
#: buffered block can take.
MAX_TRACE_BLOCK = 2**26
#: Checkpoint ids stay below this bound, so a packed checkpoint stays
#: below ``2**32``, under every access record.
CHECKPOINT_ID_LIMIT = 2**30
#: The smallest access record: its site is at least 1.
_ACCESS_MIN = 1 << 32
_ADDR_MASK = 0xFFFFFFFF


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


def pack_access(pc: int, addr: int, size: int, is_write: int) -> int:
    """One access as a trace record (see the module docstring): a 32-bit
    ``addr`` under the site of ``pc``, ``is_write`` (0/1) and ``size``
    (1 to 15 bytes). Every pc is below ``2**26``, so a record fits an
    int64."""
    return ((pc << 1 | is_write) << 4 | size) << 32 | addr


def pack_checkpoint(checkpoint_id: int, kind_code: int) -> int:
    """One checkpoint as a trace record (see the module docstring)."""
    return checkpoint_id << 2 | kind_code


def unpack(record: int) -> TraceRecord:
    """The record object one packed trace record stands for."""
    if record < _ACCESS_MIN:
        return Checkpoint(record >> 2, CODE_TO_KIND[record & 3])
    return Access(record >> 37, record & _ADDR_MASK, (record >> 32) & 15,
                  bool(record >> 36 & 1))


#: The four parallel access columns (pcs, addrs, sizes, writes) as plain
#: lists; ``writes`` carries 0/1 ints per access.
_Columns = tuple[list[int], list[int], list[int], list[int]]


class ColumnBlock:
    """One flushed trace block, decoded into columns.

    ``records`` is the block's stream as the engine buffered it (see the
    module docstring). Over its checkpoints, in stream order,
    ``checkpoints`` holds each one's record ``checkpoint_id << 2 |
    kind_code`` and ``positions`` the number of accesses before it, as
    int64 arrays. Over its ``n`` accesses, the ``pc``, ``addr``,
    ``size`` and ``is_write`` (0/1) properties are int64 columns; each
    column, the plain lists and the checkpoint tuples are built on
    first use and kept, so a flush serving several sinks pays for each
    at most once.
    """

    __slots__ = ("records", "n", "checkpoints", "positions", "_accesses",
                 "_fields", "_lists", "_tuples")

    def __init__(self, records: list[int]) -> None:
        # NumPy loads with the first block, so processes that never
        # simulate (``--help``, warm store reads) never pay for it.
        import numpy as np

        self.records = records
        stream = np.fromiter(records, dtype=np.int64, count=len(records))
        is_access = stream >= _ACCESS_MIN
        index = (~is_access).nonzero()[0]
        self.checkpoints = stream[index]
        # The records before a checkpoint that are not checkpoints.
        index -= np.arange(len(index))
        self.positions = index
        #: Number of accesses in the block.
        self.n = len(records) - len(index)
        self._accesses = stream[is_access] if len(index) else stream
        self._fields: dict[int, Any] = {}
        self._lists: _Columns | None = None
        self._tuples: list[tuple[int, int, int]] | None = None

    def __len__(self) -> int:
        return self.n

    # -- columnar views ---------------------------------------------------

    def _field(self, shift: int, mask: int) -> Any:
        """``record >> shift & mask`` over the block's access records."""
        column = self._fields.get(shift)
        if column is None:
            column = self._fields[shift] = (self._accesses >> shift) & mask
        return column

    @property
    def pc(self) -> Any:
        return self._field(37, 0x3FFFFFF)

    @property
    def addr(self) -> Any:
        return self._field(0, _ADDR_MASK)

    @property
    def size(self) -> Any:
        return self._field(32, 15)

    @property
    def is_write(self) -> Any:
        return self._field(36, 1)

    def lists(self) -> _Columns:
        """``(pcs, addrs, sizes, writes)`` as plain Python lists.

        Values are native ints — safe to stash in long-lived sets/dicts
        without pinning numpy scalars.
        """
        lists = self._lists
        if lists is None:
            lists = (self.pc.tolist(), self.addr.tolist(),
                     self.size.tolist(), self.is_write.tolist())
            self._lists = lists
        return lists

    def checkpoint_tuples(self) -> list[tuple[int, int, int]]:
        """The checkpoints as ``(pos, checkpoint_id, kind_code)`` tuples,
        in stream order."""
        tuples = self._tuples
        if tuples is None:
            keys = self.checkpoints
            tuples = list(zip(self.positions.tolist(), (keys >> 2).tolist(),
                              (keys & 3).tolist()))
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


@dataclass
class RunStats:
    """Aggregate counters both engines maintain during a run (the trace
    buffer counts the accesses and checkpoints it delivers)."""

    steps: int = 0
    accesses: int = 0
    checkpoints: int = 0
    calls: int = 0


class TraceBuffer:
    """The trace buffer and flush both engines share.

    ``records`` holds the packed records in stream order (see the module
    docstring). Engines append to it directly and call :meth:`flush`
    once ``len(records) >= limit``, the block size in records. The list
    is cleared in place, so the bound ``append`` method engines cache
    stays valid. A block size above :data:`MAX_TRACE_BLOCK` is a
    ``ValueError``.

    Appending never reads :attr:`tracing`: a flush while tracing is off
    discards its records (no sink call, no stats). Engines therefore run
    global initializers through the same code as the program, drop their
    traffic with one flush before switching tracing on, and must flush
    the last block *before* switching it off.
    """

    __slots__ = ("records", "limit", "tracing", "_sinks", "_stats")

    def __init__(self, sinks: Iterable[TraceSink], block_size: int,
                 stats: RunStats) -> None:
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
        #: Flush threshold: records per block.
        self.limit = max(1, block_size)
        self.records: list[int] = []
        self.tracing = False

    def flush(self) -> None:
        """Hand the buffered block to every sink (or drop it while
        tracing is off) and clear the buffer."""
        records = self.records
        if not records:
            return
        if self.tracing:
            block = ColumnBlock(records.copy())
            self._stats.accesses += block.n
            self._stats.checkpoints += len(records) - block.n
            for sink in self._sinks:
                sink.emit_columns(block)
        del records[:]

    def lib_trace(self, records: Sequence[int]) -> None:
        """Append a builtin's access records as one run, flushing exactly
        where appending them one at a time would: whenever an append
        brings the buffer to the limit. The specialized code checks the
        limit once per chain, so the buffer may already be past it; the
        first record then flushes."""
        if not self.tracing:
            return
        buffer = self.records
        limit = self.limit
        if len(buffer) + len(records) < limit:
            buffer.extend(records)
            return
        cut = max(1, limit - len(buffer))
        pos = 0
        while len(records) - pos >= cut:
            buffer.extend(records[pos:pos + cut])
            self.flush()
            pos += cut
            cut = limit
        buffer.extend(records[pos:])


def expand_block(block: ColumnBlock) -> Iterator[TraceRecord]:
    """The block's records as classic record objects, in stream order."""
    return map(unpack, block.records)


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
    cuts: ``records`` concatenates the blocks' packed records. Two runs
    with equal streams emitted the same records in the same order,
    access sizes and write flags included."""

    def __init__(self) -> None:
        self.records: list[int] = []

    def emit_columns(self, block: ColumnBlock) -> None:
        self.records.extend(block.records)


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
        for record in expand_block(block):
            self.emit(record)


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
