"""Tests for the block trace protocol and the streaming trace parser."""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.instrument.checkpoints import CheckpointAnnotator
from repro.lang.parser import parse
from repro.lang.semantics import analyze
from repro.sim.builtins import BUILTIN_PC
from repro.sim.bytecode import BytecodeVM
from repro.sim.interpreter import Interpreter
from repro.sim.machine import compile_program, lower_compiled
from repro.sim.trace import (
    BODY_BEGIN_CODE,
    BODY_END_CODE,
    CHECKPOINT_ID_LIMIT,
    CODE_TO_KIND,
    KIND_TO_CODE,
    LOOP_BEGIN_CODE,
    USER_PC_BASE,
    Access,
    Checkpoint,
    CheckpointInfo,
    CheckpointKind,
    CheckpointMap,
    ColumnBlock,
    RunStats,
    TraceBuffer,
    TraceCollector,
    TraceWriter,
    expand_block,
    format_trace,
    pack_access,
    pack_checkpoint,
    parse_trace,
)


def small_map():
    cmap = CheckpointMap()
    cmap.add(CheckpointInfo(10, CheckpointKind.LOOP_BEGIN, 100, "while"))
    cmap.add(CheckpointInfo(11, CheckpointKind.BODY_BEGIN, 100, "while"))
    cmap.add(CheckpointInfo(12, CheckpointKind.BODY_END, 100, "while"))
    return cmap


#: Two accesses between three checkpoints, as packed records.
BLOCK_RECORDS = [
    pack_checkpoint(10, LOOP_BEGIN_CODE),
    pack_checkpoint(11, BODY_BEGIN_CODE),
    pack_access(0x400100, 0x10000000, 4, 0),
    pack_access(0x400204, 0x10000004, 4, 1),
    pack_checkpoint(12, BODY_END_CODE),  # trails every access of the block
]
BLOCK_CHECKPOINT_TUPLES = [
    (0, 10, LOOP_BEGIN_CODE),
    (0, 11, BODY_BEGIN_CODE),
    (2, 12, BODY_END_CODE),
]


def make_block():
    return ColumnBlock(list(BLOCK_RECORDS))


def pack(record):
    """The packed int of one record object."""
    if isinstance(record, Access):
        return pack_access(record.pc, record.addr, record.size,
                           int(record.is_write))
    return pack_checkpoint(record.checkpoint_id, KIND_TO_CODE[record.kind])


class TestKindCodes:
    def test_roundtrip(self):
        for kind, code in KIND_TO_CODE.items():
            assert CODE_TO_KIND[code] is kind


class TestBlockExpansion:
    def test_interleaving_preserved(self):
        records = list(expand_block(make_block()))
        assert [type(r).__name__ for r in records] == [
            "Checkpoint", "Checkpoint", "Access", "Access", "Checkpoint",
        ]
        assert records[0] == Checkpoint(10, CheckpointKind.LOOP_BEGIN)
        assert records[2] == Access(0x400100, 0x10000000, 4, False)
        assert records[4] == Checkpoint(12, CheckpointKind.BODY_END)

    def test_collector_emit_columns(self):
        collector = TraceCollector()
        collector.emit_columns(make_block())
        assert len(collector) == 5
        assert len(collector.accesses()) == 2
        assert len(collector.checkpoints()) == 3

    def test_writer_emit_columns_matches_record_output(self):
        blocked, classic = io.StringIO(), io.StringIO()
        TraceWriter(blocked).emit_columns(make_block())
        writer = TraceWriter(classic)
        for record in expand_block(make_block()):
            writer.emit(record)
        assert blocked.getvalue() == classic.getvalue()

    def test_checkpoint_only_block(self):
        collector = TraceCollector()
        collector.emit_columns(ColumnBlock(
            [pack_checkpoint(10, LOOP_BEGIN_CODE)]))
        assert len(collector.checkpoints()) == 1


class TestPackedCheckpoints:
    def test_block_round_trips_checkpoint_tuples(self):
        block = make_block()
        assert len(block) == 2
        assert block.checkpoint_tuples() == BLOCK_CHECKPOINT_TUPLES
        assert block.checkpoint_tuples() is block.checkpoint_tuples()

    def test_checkpoint_only_block_round_trips(self):
        events = [(0, 10, LOOP_BEGIN_CODE), (0, 11, BODY_BEGIN_CODE),
                  (0, 12, BODY_END_CODE)]
        block = ColumnBlock([pack_checkpoint(checkpoint_id, code)
                             for _, checkpoint_id, code in events])
        assert len(block) == 0
        assert block.checkpoint_tuples() == events

    def test_large_fields_round_trip(self):
        # The field bounds: the largest library pc, every access size a
        # builtin uses, the lowest and highest 32-bit address, and the
        # largest checkpoint id, all exact in int64.
        largest_pc = max(BUILTIN_PC.values()) + 4
        records = [Checkpoint(CHECKPOINT_ID_LIMIT - 1, kind)
                   for kind in CheckpointKind]
        records += [Access(pc, addr, size, is_write)
                    for pc in (USER_PC_BASE, largest_pc)
                    for addr in (0, 2**32 - 1)
                    for size in (1, 2, 4, 8)
                    for is_write in (False, True)]
        records.append(Checkpoint(CHECKPOINT_ID_LIMIT - 1,
                                  CheckpointKind.BODY_END))
        packed = [pack(record) for record in records]
        assert all(0 <= value < 2**63 for value in packed)
        assert [value < 2**32 for value in packed] == [
            isinstance(record, Checkpoint) for record in records]
        block = ColumnBlock(packed)
        assert list(expand_block(block)) == records
        accesses = records[3:-1]
        assert block.lists() == (
            [a.pc for a in accesses], [a.addr for a in accesses],
            [a.size for a in accesses], [int(a.is_write) for a in accesses])
        assert block.checkpoint_tuples() == [
            (0, CHECKPOINT_ID_LIMIT - 1, code) for code in range(3)] + [
            (len(accesses), CHECKPOINT_ID_LIMIT - 1, BODY_END_CODE)]

    def test_checkpoint_id_limit_checked_where_ids_are_assigned(self):
        # The first loop takes ids up to the limit, the second would
        # take the limit itself: it is refused, never packed among the
        # access records.
        program = parse("int main(void) { int i, j;"
                        " for (i = 0; i < 2; i++) {}"
                        " for (j = 0; j < 2; j++) {} return 0; }")
        analyze(program)
        annotator = CheckpointAnnotator(first_id=CHECKPOINT_ID_LIMIT - 3)
        with pytest.raises(ValueError, match=str(CHECKPOINT_ID_LIMIT)):
            annotator.annotate(program)
        assert max(annotator.checkpoint_map.infos) == CHECKPOINT_ID_LIMIT - 1

    @pytest.mark.parametrize("engine", ("ast", "bytecode"))
    def test_block_size_bound(self, engine):
        compiled = compile_program("int main(void) { return 0; }")

        def construct(block_size):
            if engine == "ast":
                return Interpreter(compiled.program,
                                   trace_block_size=block_size)
            return BytecodeVM(lower_compiled(compiled),
                              trace_block_size=block_size)

        construct(2**26)
        with pytest.raises(ValueError, match="trace block size"):
            construct(2**26 + 1)


#: Any access the format holds: a user or library pc, a 32-bit address,
#: a size of 1 to 15 bytes and either direction.
ACCESSES = st.builds(
    Access, pc=st.integers(USER_PC_BASE, max(BUILTIN_PC.values()) + 4),
    addr=st.integers(0, 2**32 - 1), size=st.integers(1, 15),
    is_write=st.booleans())
CHECKPOINTS = st.builds(
    Checkpoint, checkpoint_id=st.integers(0, CHECKPOINT_ID_LIMIT - 1),
    kind=st.sampled_from(list(CheckpointKind)))
STREAMS = st.lists(st.one_of(ACCESSES, CHECKPOINTS), max_size=40)


class _Blocks:
    """Keeps every flushed block."""

    def __init__(self):
        self.blocks = []

    def emit_columns(self, block):
        self.blocks.append(block)


class TestEncodingProperties:
    @settings(max_examples=200, deadline=None)
    @given(records=STREAMS, cuts=st.lists(st.integers(0, 40)))
    def test_blocks_cut_anywhere_decode_to_the_records(self, records, cuts):
        packed = [pack(record) for record in records]
        bounds = sorted({0, len(packed),
                         *(cut for cut in cuts if cut < len(packed))})
        decoded = []
        for start, end in zip(bounds, bounds[1:]):
            block = ColumnBlock(packed[start:end])
            part = records[start:end]
            assert list(expand_block(block)) == part
            accesses = [r for r in part if isinstance(r, Access)]
            assert len(block) == len(accesses)
            assert block.lists() == (
                [a.pc for a in accesses], [a.addr for a in accesses],
                [a.size for a in accesses],
                [int(a.is_write) for a in accesses])
            positions = [sum(isinstance(r, Access) for r in part[:i])
                         for i, record in enumerate(part)
                         if isinstance(record, Checkpoint)]
            assert block.checkpoint_tuples() == [
                (pos, c.checkpoint_id, KIND_TO_CODE[c.kind])
                for pos, c in zip(positions, (r for r in part
                                              if isinstance(r, Checkpoint)))]
            decoded += expand_block(block)
        assert decoded == records

    @settings(max_examples=100, deadline=None)
    @given(records=STREAMS, block_size=st.integers(1, 8))
    def test_buffer_blocks_concatenate_to_the_stream(self, records,
                                                     block_size):
        sink = _Blocks()
        stats = RunStats()
        buffer = TraceBuffer((sink,), block_size, stats)
        buffer.tracing = True
        for record in records:
            buffer.records.append(pack(record))
            if len(buffer.records) >= buffer.limit:
                buffer.flush()
        buffer.flush()
        assert all(0 < len(b.records) <= block_size for b in sink.blocks)
        assert [r for b in sink.blocks for r in expand_block(b)] == records
        accesses = sum(isinstance(r, Access) for r in records)
        assert (stats.accesses, stats.checkpoints) == (
            accesses, len(records) - accesses)


class _RecordOnlySink:
    """Has the per-record ``emit`` but not the engines' ``emit_columns``."""

    def emit(self, record):  # pragma: no cover - never called
        pass


class TestSinkProtocol:
    @pytest.mark.parametrize("engine", ("ast", "bytecode"))
    def test_engine_rejects_sink_without_emit_columns(self, engine):
        compiled = compile_program("int main(void) { return 0; }")
        sinks = (TraceCollector(), _RecordOnlySink())
        with pytest.raises(TypeError, match="_RecordOnlySink"):
            if engine == "ast":
                Interpreter(compiled.program, sinks=sinks)
            else:
                BytecodeVM(lower_compiled(compiled), sinks=sinks)


class TestStreamingParse:
    TEXT = (
        "Checkpoint: 10\n"
        "Checkpoint: 11\n"
        "Instr: 400100 addr: 10000000 wr\n"
        "Checkpoint: 12\n"
    )

    def test_accepts_file_object(self):
        records = list(parse_trace(io.StringIO(self.TEXT), small_map()))
        assert len(records) == 4
        assert records[2].is_write

    def test_accepts_line_iterator_without_materializing(self):
        def lines():
            yield "Checkpoint: 10\n"
            for index in range(1000):
                yield f"Instr: 400100 addr: {0x1000 + 4 * index:x} rd\n"

        count = 0
        for record in parse_trace(lines(), small_map()):
            count += 1
        assert count == 1001

    def test_string_and_stream_agree(self):
        from_text = list(parse_trace(self.TEXT, small_map()))
        from_stream = list(parse_trace(io.StringIO(self.TEXT), small_map()))
        assert from_text == from_stream

    def test_roundtrip_through_writer(self):
        records = list(expand_block(make_block()))
        parsed = list(parse_trace(format_trace(records), small_map()))
        assert [type(r) for r in parsed] == [type(r) for r in records]

    @pytest.mark.parametrize("line", [
        "garbage",
        "Instr: 400100 7fff0000 wr",
        "Instr: 400100 addr: 7fff0000",
        "Instr: 400100 addr: 7fff0000 xx",
        "Instr: nothex addr: 7fff0000 wr",
        "Instr: 400100 addr: nothex wr",
        "Checkpoint: notanumber",
    ])
    def test_malformed_lines_rejected_with_line_number(self, line):
        trace = "Checkpoint: 10\n" + line + "\n"
        with pytest.raises(ValueError, match="line 2"):
            list(parse_trace(trace, small_map()))

    def test_unknown_checkpoint_id_rejected(self):
        with pytest.raises(ValueError, match="unknown checkpoint id 99"):
            list(parse_trace("Checkpoint: 99", small_map()))


class TestCheckpointMapInvalidation:
    def test_add_invalidates_begin_cache(self):
        cmap = small_map()
        assert cmap.begin_id_for(11) == 10  # populates the cache
        cmap.add(CheckpointInfo(20, CheckpointKind.LOOP_BEGIN, 200, "for"))
        cmap.add(CheckpointInfo(21, CheckpointKind.BODY_BEGIN, 200, "for"))
        cmap.add(CheckpointInfo(22, CheckpointKind.BODY_END, 200, "for"))
        assert cmap.begin_id_for(21) == 20
        assert cmap.begin_id_for(11) == 10

    def test_same_length_mutation_visible(self):
        # The old len()-based heuristic missed mutations that keep the map
        # the same size; explicit invalidation in add() must not.
        cmap = CheckpointMap()
        cmap.add(CheckpointInfo(10, CheckpointKind.LOOP_BEGIN, 100, "for"))
        assert cmap.begin_id_for(10) == 10
        replacement = CheckpointInfo(10, CheckpointKind.LOOP_BEGIN, 300, "for")
        del cmap.infos[10]
        cmap.add(replacement)
        cmap.add(CheckpointInfo(11, CheckpointKind.BODY_BEGIN, 300, "for"))
        assert cmap.begin_id_for(11) == 10
