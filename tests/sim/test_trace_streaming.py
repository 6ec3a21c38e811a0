"""Tests for the block trace protocol and the streaming trace parser."""

import io

import pytest

from repro.sim.bytecode import BytecodeVM
from repro.sim.interpreter import Interpreter
from repro.sim.machine import compile_program, lower_compiled
from repro.sim.trace import (
    BODY_BEGIN_CODE,
    BODY_END_CODE,
    CODE_TO_KIND,
    KIND_TO_CODE,
    LOOP_BEGIN_CODE,
    Access,
    Checkpoint,
    CheckpointInfo,
    CheckpointKind,
    CheckpointMap,
    ColumnBlock,
    TraceCollector,
    TraceWriter,
    expand_block,
    format_trace,
    parse_trace,
)


def small_map():
    cmap = CheckpointMap()
    cmap.add(CheckpointInfo(10, CheckpointKind.LOOP_BEGIN, 100, "while"))
    cmap.add(CheckpointInfo(11, CheckpointKind.BODY_BEGIN, 100, "while"))
    cmap.add(CheckpointInfo(12, CheckpointKind.BODY_END, 100, "while"))
    return cmap


#: Two accesses as ``[pc, addr, size, is_write]`` flat ints.
BLOCK_FLAT = [
    0x400100, 0x10000000, 4, 0,
    0x400204, 0x10000004, 4, 1,
]
BLOCK_CHECKPOINTS = [
    (0, 10, LOOP_BEGIN_CODE),
    (0, 11, BODY_BEGIN_CODE),
    (2, 12, BODY_END_CODE),  # trails every access of the block
]


def make_block():
    return ColumnBlock.from_flat(BLOCK_FLAT, BLOCK_CHECKPOINTS)


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
        collector.emit_columns(
            ColumnBlock.from_flat([], [(0, 10, LOOP_BEGIN_CODE)]))
        assert len(collector.checkpoints()) == 1


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
