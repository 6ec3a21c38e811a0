"""Tests for model validation / cross-input prediction accuracy."""

import pytest

import repro.foray.validate as validate_module
from repro.foray.extractor import ForayExtractor
from repro.foray.filters import FilterConfig
from repro.foray.model import (
    AffineExpression,
    ForayLoop,
    ForayModel,
    ForayReference,
)
from repro.foray.validate import ValidationSink, validate_model
from repro.sim.machine import compile_program, run_compiled
from repro.sim.trace import (
    KIND_TO_CODE,
    LIB_PC_BASE,
    Access,
    Checkpoint,
    CheckpointInfo,
    CheckpointKind,
    CheckpointMap,
    ColumnBlock,
    TraceCollector,
    pack_access,
    pack_checkpoint,
)

RELAXED = FilterConfig(nexec=1, nloc=1)


def profile(source, filter_config=None):
    compiled = compile_program(source)
    collector = TraceCollector()
    extractor = ForayExtractor(compiled.checkpoint_map, filter_config)
    run_compiled(compiled, sinks=(collector, extractor))
    return extractor.finish(), collector, compiled


AFFINE = """
int g[128];
int main() {
    int i, j;
    for (i = 0; i < 4; i++)
        for (j = 0; j < 32; j++)
            g[32 * i + j] = i + j;
    return 0;
}
"""


class TestSelfValidation:
    def test_full_model_predicts_its_own_trace(self):
        model, collector, compiled = profile(AFFINE)
        report = validate_model(model, collector.records, compiled.checkpoint_map)
        assert report.overall_accuracy == 1.0
        assert report.total_checked == 128
        assert report.unexercised == 0

    def test_partial_model_predicts_within_contexts(self):
        source = """
        int A[4096];
        int lines[8] = {0, 900, 140, 2100, 350, 2800, 490, 3500};
        int acc;
        int foo(int off) { int i; int r = 0;
            for (i = 0; i < 64; i++) r += A[i + off]; return r; }
        int main() { int x; for (x = 0; x < 8; x++) acc += foo(lines[x]);
            return 0; }
        """
        model, collector, compiled = profile(source)
        assert model.partial_references()
        report = validate_model(model, collector.records, compiled.checkpoint_map)
        # Each context re-anchors once; everything else must be predicted.
        assert report.overall_accuracy == 1.0

    def test_summary_text(self):
        model, collector, compiled = profile(AFFINE)
        report = validate_model(model, collector.records, compiled.checkpoint_map)
        assert "128/128" in report.summary()


class TestCrossInputValidation:
    """The paper's future-work question: does the model transfer across
    profiling inputs? For data-independent access patterns it must."""

    TEMPLATE = """
    int g[256];
    int main() {{
        int i;
        for (i = 0; i < 256; i++) g[i] = i * {scale};
        return 0;
    }}
    """

    def test_model_transfers_when_pattern_is_data_independent(self):
        model_a, _, _ = profile(self.TEMPLATE.format(scale=3))
        _, collector_b, compiled_b = profile(self.TEMPLATE.format(scale=9))
        report = validate_model(model_a, collector_b.records,
                                compiled_b.checkpoint_map)
        assert report.overall_accuracy == 1.0

    def test_data_dependent_model_fails_to_transfer(self):
        source_a = """
        int g[256]; int n = 200;
        int main() { int i; for (i = 0; i < n; i++) g[i] = i; return 0; }
        """
        source_b = """
        int g[256]; int n = 200;
        int main() { int i; for (i = 0; i < n; i++) g[i + 7] = i; return 0; }
        """
        model_a, _, _ = profile(source_a)
        _, collector_b, compiled_b = profile(source_b)
        report = validate_model(model_a, collector_b.records,
                                compiled_b.checkpoint_map)
        # The base shifted: a full expression from run A mispredicts run B.
        assert report.overall_accuracy < 0.5

    def test_unexercised_references_counted(self):
        model_a, _, _ = profile(AFFINE)
        # Replay an empty trace.
        _, _, compiled = profile(AFFINE)
        report = validate_model(model_a, [], compiled.checkpoint_map)
        assert report.unexercised == len(model_a.references)
        assert report.overall_accuracy == 1.0  # vacuous: nothing scored
        # Regression: an unexercised reference demonstrated nothing, so
        # its per-reference accuracy must read 0.0, not a vacuous 1.0.
        assert all(v.accuracy == 0.0 for v in report.per_reference)
        assert not any(v.exercised for v in report.per_reference)
        assert report.unexercised_share == 1.0
        assert "100% of references" in report.summary()

    def test_library_accesses_ignored(self):
        source = """
        int a[64]; int b[64];
        int main() { int i; for (i = 0; i < 64; i++) a[i] = i;
            memcpy(b, a, 256); return 0; }
        """
        model, collector, compiled = profile(source)
        report = validate_model(model, collector.records, compiled.checkpoint_map)
        assert report.total_checked == 64  # only the user store


def _pack(record) -> int:
    if isinstance(record, Access):
        return pack_access(record.pc, record.addr, record.size,
                           int(record.is_write))
    return pack_checkpoint(record.checkpoint_id, KIND_TO_CODE[record.kind])


def validate_columns(model, records, checkpoint_map, cuts=()):
    """Replay ``records`` through :meth:`ValidationSink.emit_columns`,
    one block between consecutive ``cuts`` (record indices)."""
    packed = [_pack(record) for record in records]
    bounds = sorted({0, len(packed),
                     *(cut for cut in cuts if cut < len(packed))})
    sink = ValidationSink(model, checkpoint_map)
    for start, end in zip(bounds, bounds[1:]):
        sink.emit_columns(ColumnBlock(packed[start:end]))
    return sink.finish()


def report_rows(report):
    return ([(v.reference.pc, v.checked, v.predicted)
             for v in report.per_reference], report.unexercised)


def _one_loop_map() -> CheckpointMap:
    cmap = CheckpointMap()
    cmap.add(CheckpointInfo(1, CheckpointKind.LOOP_BEGIN, 10, "for"))
    cmap.add(CheckpointInfo(2, CheckpointKind.BODY_BEGIN, 10, "for"))
    cmap.add(CheckpointInfo(3, CheckpointKind.BODY_END, 10, "for"))
    return cmap


def _one_loop_trace(pc, addrs):
    records = [Checkpoint(1, CheckpointKind.LOOP_BEGIN)]
    for addr in addrs:
        records.append(Checkpoint(2, CheckpointKind.BODY_BEGIN))
        records.append(Access(pc, addr, 4, True))
        records.append(Checkpoint(3, CheckpointKind.BODY_END))
    return records


class TestShallowTraceRegression:
    """A replayed nest shallower than the expression must score
    mispredictions, not zip-truncate into garbage matches."""

    PC = 0x400008

    @staticmethod
    def replay(model, records, checkpoint_map):
        return validate_model(model, records, checkpoint_map)

    def _deep_model(self):
        loop = ForayLoop(begin_id=1, kind="for", depth=1, max_trip=4,
                         min_trip=4, entries=1, total_iterations=4)
        # The expression claims two iterators, but the reference sits
        # under a single loop in the replayed trace.
        expression = AffineExpression(const=1000, coefficients=(4, 64),
                                      num_iterators=2)
        reference = ForayReference(pc=self.PC, loop_path=(loop,),
                                   expression=expression, exec_count=4,
                                   footprint=16, reads=0, writes=4)
        return ForayModel(references=[reference])

    def test_shallow_iterators_score_as_mispredictions(self):
        model = self._deep_model()
        # addr == const: the old zip-truncating code "predicted" the
        # first access (4*0 == 0) even though the second iterator is
        # missing entirely.
        records = _one_loop_trace(self.PC, [1000, 1004, 1008, 1012])
        report = self.replay(model, records, _one_loop_map())
        validation = report.per_reference[0]
        assert validation.checked == 4
        assert validation.predicted == 0
        assert validation.accuracy == 0.0
        assert report.unexercised == 0  # exercised, just unpredictable

    def test_matching_depth_still_scores_normally(self):
        loop = ForayLoop(begin_id=1, kind="for", depth=1, max_trip=4,
                         min_trip=4, entries=1, total_iterations=4)
        expression = AffineExpression(const=1000, coefficients=(4,),
                                      num_iterators=1)
        reference = ForayReference(pc=self.PC, loop_path=(loop,),
                                   expression=expression, exec_count=4,
                                   footprint=16, reads=0, writes=4)
        model = ForayModel(references=[reference])
        records = _one_loop_trace(self.PC, [1000, 1004, 1008, 1012])
        report = self.replay(model, records, _one_loop_map())
        assert report.overall_accuracy == 1.0


class TestShallowTraceRegressionColumns(TestShallowTraceRegression):
    """The same cases through the columnar entry point, the trace whole
    and one record per block, each against the record path."""

    @staticmethod
    def replay(model, records, checkpoint_map):
        expected = report_rows(validate_model(model, records,
                                              checkpoint_map))
        whole = validate_columns(model, records, checkpoint_map)
        assert report_rows(whole) == expected
        single = validate_columns(model, records, checkpoint_map,
                                  range(len(records)))
        assert report_rows(single) == expected
        return whole


def _nest_map() -> CheckpointMap:
    """An outer loop (checkpoints 1-3) around an inner one (4-6)."""
    cmap = CheckpointMap()
    for begin, loop_node in ((1, 10), (4, 20)):
        for offset, kind in enumerate((CheckpointKind.LOOP_BEGIN,
                                       CheckpointKind.BODY_BEGIN,
                                       CheckpointKind.BODY_END)):
            cmap.add(CheckpointInfo(begin + offset, kind, loop_node, "for"))
    return cmap


def _nest_trace(rows):
    """``rows[r][i]``: the accesses of outer iteration ``r``, inner
    iteration ``i``."""
    records = [Checkpoint(1, CheckpointKind.LOOP_BEGIN)]
    for row in rows:
        records += [Checkpoint(2, CheckpointKind.BODY_BEGIN),
                    Checkpoint(4, CheckpointKind.LOOP_BEGIN)]
        for accesses in row:
            records.append(Checkpoint(5, CheckpointKind.BODY_BEGIN))
            records += accesses
            records.append(Checkpoint(6, CheckpointKind.BODY_END))
        records.append(Checkpoint(3, CheckpointKind.BODY_END))
    return records


def _nest_model(*expressions):
    """One reference per ``(pc, expression, mispredictions)``, all in the
    inner loop of :func:`_nest_map`."""
    outer = ForayLoop(begin_id=1, kind="for", depth=1, max_trip=4,
                      min_trip=4, entries=1, total_iterations=4)
    inner = ForayLoop(begin_id=4, kind="for", depth=2, max_trip=4,
                      min_trip=4, entries=4, total_iterations=16)
    return ForayModel(references=[
        ForayReference(pc=pc, loop_path=(outer, inner),
                       expression=expression, exec_count=16, footprint=16,
                       reads=16, writes=0, mispredictions=mispredictions)
        for pc, expression, mispredictions in expressions])


@pytest.fixture
def fallback_calls(monkeypatch):
    """Counts the calls of ``_score_access`` (the record path's scorer,
    and the columnar path's row-by-row fallback)."""
    calls = []
    score = validate_module._score_access

    def counted(*args):
        calls.append(args)
        score(*args)

    monkeypatch.setattr(validate_module, "_score_access", counted)
    return calls


class TestColumnarReanchoring:
    """Partial references re-anchor when an outer iterator changes, in
    the middle of a block or exactly at a block boundary; the anchor a
    block carries in must hold until then. Every cut of the stream into
    two blocks, and one record per block, must score as the record path
    does."""

    PARTIAL = 0x400010  # const + 4*i within each outer iteration
    FULL = 0x400018  # 5000 + 8*i + 200*r throughout
    BARE = 0x400020  # M = 0: every iterator is outer
    BASES = (1000, 1000, 3000, 2200)  # the partial's base per outer r

    def _case(self):
        model = _nest_model(
            (self.PARTIAL, AffineExpression(1000, (4, 0), 1), 3),
            (self.FULL, AffineExpression(5000, (8, 200), 2), 0),
            (self.BARE, AffineExpression(7000, (None, None), 0), 16))
        rows = []
        for r, base in enumerate(self.BASES):
            row = []
            for i in range(4):
                glitch = 4 if (r, i) == (2, 2) else 0
                bare = 7000 + 16 * r + 4 * i
                row.append([
                    Access(self.PARTIAL, base + 4 * i + glitch, 4, False),
                    Access(LIB_PC_BASE, 64 + i, 4, False),
                    Access(self.FULL, 5000 + 8 * i + 200 * r, 4, True),
                    Access(self.BARE, bare, 4, False),
                    Access(self.BARE, bare, 4, True)])
            rows.append(row)
        return model, _nest_trace(rows), _nest_map()

    def test_record_path_counts(self):
        model, records, cmap = self._case()
        # PARTIAL re-anchors once per outer iteration (4 unscored), and
        # mispredicts the glitch; BARE re-anchors at every first access.
        assert report_rows(validate_model(model, records, cmap)) == (
            [(self.PARTIAL, 12, 11), (self.FULL, 16, 16),
             (self.BARE, 16, 16)], 0)

    def test_every_cut_matches_the_record_path(self, fallback_calls):
        model, records, cmap = self._case()
        expected = report_rows(validate_model(model, records, cmap))
        del fallback_calls[:]
        for cut in range(len(records) + 1):
            assert report_rows(
                validate_columns(model, records, cmap, (cut,))) == expected
        assert report_rows(validate_columns(
            model, records, cmap, range(len(records)))) == expected
        # Every group fits int64: nothing was scored row by row.
        assert not fallback_calls

    @pytest.mark.parametrize("coefficient,first", [
        (2**62, 1),  # the carried offset fits int64
        (2**62, 3),  # the carried offset does not
        (2**64 + 4, 1),  # a coefficient beyond int64
    ], ids=["2**62-offset-fits", "2**62-offset-beyond", "beyond-int64"])
    def test_int64_edges_match_the_record_path(self, coefficient, first,
                                               fallback_calls):
        huge = 0x400028  # a full reference, its constant beyond int64
        model = _nest_model(
            (self.PARTIAL, AffineExpression(4096, (coefficient, 0), 1), 1),
            (self.FULL, AffineExpression(64, (coefficient, 1), 2), 0),
            (huge, AffineExpression(2**63 + 8, (4, 64), 2), 0))
        # Outer iteration 0 runs five inner iterations, the partial from
        # inner iteration ``first`` on; iteration 1 runs two. FULL always
        # reads its constant, which only (i, r) = (0, 0) predicts: at
        # i = 4, 2**62 * i wraps to 0 in int64.
        rows = [[[Access(pc, 4096 + 4 * i, 4, False)
                  for pc in (self.PARTIAL, huge)
                  if pc != self.PARTIAL or i >= first]
                 + [Access(self.FULL, 64, 4, False)]
                 for i in range(5)],
                [[Access(self.PARTIAL, 8192 + 4 * i, 4, False),
                  Access(huge, 8192 + 4 * i, 4, False),
                  Access(self.FULL, 64, 4, False)]
                 for i in range(2)]]
        records = _nest_trace(rows)
        cmap = _nest_map()
        expected = report_rows(validate_model(model, records, cmap))
        del fallback_calls[:]
        for cut in range(len(records) + 1):
            assert report_rows(
                validate_columns(model, records, cmap, (cut,))) == expected
        assert fallback_calls  # the guard routed some groups row by row


class TestValidationSinkProtocol:
    """The streaming sink must agree with the offline record replay on
    both protocol entry points."""

    def test_emit_block_matches_emit(self):
        model, collector, compiled = profile(AFFINE)
        offline = validate_model(model, collector.records,
                                 compiled.checkpoint_map)

        # Re-run the program with the sink attached live (batched path).
        sink = ValidationSink(model, compiled.checkpoint_map)
        run_compiled(compiled, sinks=(sink,))
        online = sink.finish()
        assert online.total_checked == offline.total_checked
        assert online.total_predicted == offline.total_predicted
        assert online.unexercised == offline.unexercised
        assert [
            (v.reference.pc, v.checked, v.predicted)
            for v in online.per_reference
        ] == [
            (v.reference.pc, v.checked, v.predicted)
            for v in offline.per_reference
        ]

    def test_full_accuracy_restricted_to_full_references(self):
        model, collector, compiled = profile(AFFINE)
        report = validate_model(model, collector.records,
                                compiled.checkpoint_map)
        assert model.full_references()
        assert report.full_accuracy == 1.0
        worst = report.worst_reference()
        assert worst is not None and worst.accuracy == 1.0
