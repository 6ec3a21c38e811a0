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

Batched protocol
----------------

The engines do not hand sinks one record object at a time. They append raw
tuples to preallocated buffers and flush them in blocks through
:meth:`TraceSink.emit_block`:

* accesses are ``(pc, addr, size, is_write)`` tuples;
* checkpoints are ``(pos, checkpoint_id, kind_code)`` tuples, where ``pos``
  is the index of the access *before which* the checkpoint fires (``pos ==
  len(accesses)`` for checkpoints trailing the block) and ``kind_code`` is
  the compact :data:`KIND_TO_CODE` encoding.

This keeps the hot path free of per-access object construction while
preserving the exact interleaving of the two streams;
:func:`expand_block` recovers the classic record sequence when needed.
The per-record :meth:`TraceSink.emit` entry point remains for replaying
stored text traces (:func:`parse_trace`).

Columnar protocol
-----------------

On top of the tuple blocks sits the *columnar* fast path: engines build
one :class:`ColumnBlock` per flush — a struct of parallel ``int64``
columns (pc, addr, size, is_write) plus the checkpoint tuples — and hand
it to any sink exposing ``emit_columns(block)``. Sinks without that
method keep receiving the legacy ``emit_block`` tuples, decoded once per
flush from the same block (:meth:`ColumnBlock.to_tuples`), so existing
third-party sinks work unchanged. :func:`split_sinks` is the capability
probe the engines use.

The bytecode VM fills blocks as a single flat interleaved buffer
``[pc0, addr0, size0, w0, pc1, ...]`` (``is_write`` encoded 0/1) — one
C-level ``list.extend`` per access — which a block reshapes into columns
without per-access Python work; the tree-walking oracle keeps its tuple
buffers and wraps them via :meth:`ColumnBlock.from_tuples`, making the
legacy decode free on that engine.
"""

from __future__ import annotations

import enum
import io
from dataclasses import dataclass, field
from typing import IO, Any, Iterable, Iterator, Protocol, Union

import numpy as np

#: Base pc for user-code memory access sites.
USER_PC_BASE = 0x400000
#: Base pc for library-builtin memory access sites.
LIB_PC_BASE = 0x500000

#: Number of access tuples an engine buffers before flushing a block.
DEFAULT_TRACE_BLOCK = 4096


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


#: Raw batched event tuples (see the module docstring).
AccessTuple = tuple[int, int, int, bool]
CheckpointTuple = tuple[int, int, int]
#: The four parallel access columns (pcs, addrs, sizes, writes) as plain
#: lists; ``writes`` carries 0/1 ints (or legacy bools) per access.
_Columns = tuple[list[int], list[int], list[int], list[int]]


class ColumnBlock:
    """One flushed trace block as parallel columns (struct-of-arrays).

    Access data lives in four parallel ``int64`` columns (``pc``,
    ``addr``, ``size``, ``is_write`` — the latter 0/1); checkpoints stay
    the small ``(pos, checkpoint_id, kind_code)`` tuple list of the
    legacy protocol (``pos`` indexes into the columns exactly as it
    indexed the tuple list). Column arrays, plain-list views and the
    legacy tuple decode are all built lazily and memoized, so a flush
    serving several sinks pays each conversion at most once.
    """

    __slots__ = ("n", "checkpoints", "_flat", "_tuples", "_arr", "_lists")

    def __init__(self, flat: list[int] | None,
                 checkpoints: list[CheckpointTuple],
                 tuples: list[AccessTuple] | None = None) -> None:
        self._flat = flat
        self._tuples = tuples
        self.checkpoints: list[CheckpointTuple] = checkpoints
        if flat is not None:
            #: Number of accesses in the block.
            self.n = len(flat) >> 2
        else:
            assert tuples is not None
            self.n = len(tuples)
        self._arr: Any = None
        self._lists: _Columns | None = None

    @classmethod
    def from_flat(cls, flat: list[int],
                  checkpoints: list[CheckpointTuple]) -> "ColumnBlock":
        """Snapshot an engine's flat interleaved buffer (copies both, so
        the engine may clear its buffers in place afterwards)."""
        return cls(list(flat), list(checkpoints))

    @classmethod
    def from_tuples(cls, accesses: list[AccessTuple],
                    checkpoints: list[CheckpointTuple]) -> "ColumnBlock":
        """Wrap legacy tuple buffers (takes ownership; no copy)."""
        return cls(None, checkpoints, accesses)

    def __len__(self) -> int:
        return self.n

    # -- columnar views ---------------------------------------------------

    def _array(self) -> Any:
        """The (n, 4) int64 matrix backing the column properties."""
        arr = self._arr
        if arr is None:
            if self._flat is not None:
                arr = np.fromiter(self._flat, dtype=np.int64,
                                  count=len(self._flat)).reshape(-1, 4)
            elif self._tuples:
                arr = np.array(self._tuples, dtype=np.int64)
            else:
                arr = np.empty((0, 4), dtype=np.int64)
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

        Values are native ints (``writes`` may be legacy bools when the
        block came from a tuple engine) — safe to stash in long-lived
        sets/dicts without pinning numpy scalars.
        """
        lists = self._lists
        if lists is None:
            flat = self._flat
            if flat is not None:
                lists = (flat[0::4], flat[1::4], flat[2::4], flat[3::4])
            elif self._tuples:
                pcs, addrs, sizes, writes = zip(*self._tuples)
                lists = (list(pcs), list(addrs), list(sizes), list(writes))
            else:
                lists = ([], [], [], [])
            self._lists = lists
        return lists

    # -- legacy decode ----------------------------------------------------

    def to_tuples(self) -> tuple[list[AccessTuple], list[CheckpointTuple]]:
        """Decode to the legacy ``(accesses, checkpoints)`` block form.

        ``is_write`` is decoded to real bools so legacy sinks observe
        records identical to the tuple engines'. Memoized; blocks built
        by :meth:`from_tuples` return their original buffers unchanged.
        """
        tuples = self._tuples
        if tuples is None:
            pcs, addrs, sizes, writes = self.lists()
            tuples = list(zip(pcs, addrs, sizes, map(bool, writes)))
            self._tuples = tuples
        return tuples, self.checkpoints


class TraceSink(Protocol):
    """Anything that can consume trace records as they are produced.

    Engines talk to sinks through :meth:`emit_block` — or, when a sink
    exposes the optional columnar fast path ``emit_columns(block)``,
    through that instead (see :func:`split_sinks`); the per-record
    :meth:`emit` entry point exists for replaying stored traces and for
    tests. A sink needs only one of the two block entry points: engines
    decode blocks to legacy tuples for sinks without ``emit_columns``.
    """

    def emit(self, record: TraceRecord) -> None: ...

    def emit_block(
        self,
        accesses: list[AccessTuple],
        checkpoints: list[CheckpointTuple],
    ) -> None: ...


def split_sinks(
    sinks: Iterable[TraceSink],
) -> tuple[tuple[TraceSink, ...], tuple[TraceSink, ...]]:
    """Partition sinks into ``(columnar, legacy)`` by capability.

    A sink taking the columnar fast path exposes a callable
    ``emit_columns``; everything else stays on the tuple protocol.
    """
    columnar, legacy = [], []
    for sink in sinks:
        if callable(getattr(sink, "emit_columns", None)):
            columnar.append(sink)
        else:
            legacy.append(sink)
    return tuple(columnar), tuple(legacy)


def expand_block(
    accesses: list[AccessTuple],
    checkpoints: list[CheckpointTuple],
) -> Iterator[TraceRecord]:
    """Interleave one batched block back into classic record objects."""
    ci = 0
    ncp = len(checkpoints)
    for i, (pc, addr, size, is_write) in enumerate(accesses):
        while ci < ncp and checkpoints[ci][0] <= i:
            _, checkpoint_id, code = checkpoints[ci]
            ci += 1
            yield Checkpoint(checkpoint_id, CODE_TO_KIND[code])
        yield Access(pc, addr, size, is_write)
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

    def emit_block(
        self,
        accesses: list[AccessTuple],
        checkpoints: list[CheckpointTuple],
    ) -> None:
        self.records.extend(expand_block(accesses, checkpoints))

    def emit_columns(self, block: ColumnBlock) -> None:
        self.records.extend(expand_block(*block.to_tuples()))

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def accesses(self) -> list[Access]:
        return [r for r in self.records if isinstance(r, Access)]

    def checkpoints(self) -> list[Checkpoint]:
        return [r for r in self.records if isinstance(r, Checkpoint)]


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

    def emit_block(
        self,
        accesses: list[AccessTuple],
        checkpoints: list[CheckpointTuple],
    ) -> None:
        # Text lines are written straight from the raw tuples; no record
        # objects are constructed on the flush path.
        write = self._stream.write
        ci = 0
        ncp = len(checkpoints)
        for i, (pc, addr, size, is_write) in enumerate(accesses):
            while ci < ncp and checkpoints[ci][0] <= i:
                write(f"Checkpoint: {checkpoints[ci][1]}\n")
                ci += 1
            write(f"Instr: {pc:x} addr: {addr:x} {'wr' if is_write else 'rd'}\n")
        while ci < ncp:
            write(f"Checkpoint: {checkpoints[ci][1]}\n")
            ci += 1

    def emit_columns(self, block: ColumnBlock) -> None:
        self.emit_block(*block.to_tuples())


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
