"""Engine parity: the bytecode fast path must be observationally identical
to the reference tree-walking interpreter.

For every registered workload (the six mini-MiBench programs and all the
paper figure examples) both engines must produce

* byte-identical traces (checkpoints and memory accesses, in order),
* identical stdout / exit codes / run statistics,
* identical extracted :class:`ForayModel`s (and identical emitted model
  text, which is what the paper tables are computed from).

A hypothesis property extends the check to generated loop nests. The
three execution tiers — the specialized fast path, the unfused dispatch
loop and the AST oracle — are also held to each other on selected
programs, on a cross-page store stress and at the call-depth boundary,
where a failing run must fail the same way on every tier.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.foray.extractor import ForayExtractor
from repro.foray.emitter import emit_model
from repro.foray.filters import FilterConfig
from repro.gen.fuzz import PARITY_CONFIGS
from repro.sim.machine import (
    EngineConfig,
    compile_program,
    lower_compiled,
    run_compiled,
)
from repro.sim.specialize import get_specialization
from repro.sim.trace import TraceCollector, format_trace
from repro.workloads.registry import ALL_WORKLOADS, MIBENCH_WORKLOADS

RELAXED = FilterConfig(nexec=1, nloc=1)


def run_both_engines(source: str, filter_config: FilterConfig | None = None):
    """Run ``source`` on both engines; returns {engine: (result, trace,
    model)} computed from completely independent runs."""
    out = {}
    for engine in ("ast", "bytecode"):
        compiled = compile_program(source)
        collector = TraceCollector()
        extractor = ForayExtractor(compiled.checkpoint_map, filter_config)
        result = run_compiled(compiled, sinks=(collector, extractor),
                              config=EngineConfig(engine=engine))
        out[engine] = (result, collector, extractor.finish(), extractor)
    return out


@pytest.mark.parametrize("name", sorted(ALL_WORKLOADS))
def test_workload_parity(name):
    workload = ALL_WORKLOADS[name]
    runs = run_both_engines(workload.source, RELAXED)
    ast_result, ast_trace, ast_model, ast_extractor = runs["ast"]
    bc_result, bc_trace, bc_model, bc_extractor = runs["bytecode"]

    assert bc_result.exit_code == ast_result.exit_code
    assert bc_result.stdout == ast_result.stdout
    assert bc_result.stats == ast_result.stats

    # Byte-identical traces (compare the text rendering too so a failure
    # prints something diffable).
    assert len(bc_trace.records) == len(ast_trace.records)
    if bc_trace.records != ast_trace.records:  # pragma: no cover - debugging
        assert format_trace(bc_trace) == format_trace(ast_trace)
    assert bc_trace.records == ast_trace.records

    # Identical models and identical emitted model text; identical Table I
    # input (the executed static-loop census).
    assert emit_model(bc_model) == emit_model(ast_model)
    assert bc_model == ast_model
    assert bc_extractor.executed_loops() == ast_extractor.executed_loops()


@given(
    stride=st.integers(min_value=1, max_value=8),
    offset=st.integers(min_value=0, max_value=16),
    trips=st.tuples(st.integers(min_value=2, max_value=6),
                    st.integers(min_value=2, max_value=8)),
    use_pointer=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_generated_nest_parity(stride, offset, trips, use_pointer):
    outer_trip, inner_trip = trips
    row = 64
    if use_pointer:
        body = f"""
            int *p = g + {offset} + {row} * i + {stride} * j;
            *p = i + j;
            total += *p;
        """
    else:
        body = f"""
            g[{offset} + {row} * i + {stride} * j] = i + j;
            total += g[{offset} + {row} * i + {stride} * j];
        """
    source = f"""
    int g[{(outer_trip + 1) * row + 32}];
    int main() {{
        int i, j, total = 0;
        for (i = 0; i < {outer_trip}; i++) {{
            for (j = 0; j < {inner_trip}; j++) {{
                {body}
            }}
            if (i == 1) continue;
            total ^= i;
        }}
        return total & 255;
    }}
    """
    runs = run_both_engines(source, RELAXED)
    ast_result, ast_trace, ast_model, _ = runs["ast"]
    bc_result, bc_trace, bc_model, _ = runs["bytecode"]
    assert bc_result.exit_code == ast_result.exit_code
    assert bc_trace.records == ast_trace.records
    assert bc_model == ast_model


class _LegacyOnlyCollector:
    """A TraceCollector stripped of ``emit_columns``: forces the engine's
    tuple-decode path so the columnar protocol can be diffed against it."""

    def __init__(self) -> None:
        self._inner = TraceCollector()

    @property
    def records(self):
        return self._inner.records

    def emit(self, record) -> None:
        self._inner.emit(record)

    def emit_block(self, accesses, checkpoints) -> None:
        self._inner.emit_block(accesses, checkpoints)


@pytest.mark.parametrize("engine", ("ast", "bytecode"))
@pytest.mark.parametrize("name", sorted(MIBENCH_WORKLOADS))
def test_columnar_decode_parity(name, engine):
    """``emit_columns`` blocks, decoded, must equal the legacy tuple stream
    bit-for-bit — checked by feeding one run to both sink flavours."""
    workload = MIBENCH_WORKLOADS[name]
    compiled = compile_program(workload.source)
    columnar = TraceCollector()
    legacy = _LegacyOnlyCollector()
    result = run_compiled(compiled, sinks=(columnar, legacy),
                          config=EngineConfig(engine=engine))
    assert result.exit_code == 0
    assert len(columnar.records) == len(legacy.records)
    assert columnar.records == legacy.records


@pytest.mark.parametrize("name", sorted(MIBENCH_WORKLOADS))
def test_fused_unfused_identity(name):
    """Superinstruction fusion must not change anything observable: trace,
    stats, stdout and exit code are identical with fusion on and off."""
    workload = MIBENCH_WORKLOADS[name]
    runs = {}
    for fusion in (True, False):
        compiled = compile_program(workload.source)
        collector = TraceCollector()
        result = run_compiled(
            compiled, sinks=(collector,),
            config=EngineConfig(engine="bytecode", fusion=fusion),
        )
        runs[fusion] = (result, collector)
    fused_result, fused_trace = runs[True]
    plain_result, plain_trace = runs[False]
    assert fused_result.exit_code == plain_result.exit_code
    assert fused_result.stdout == plain_result.stdout
    assert fused_result.stats == plain_result.stats
    assert fused_trace.records == plain_trace.records


@pytest.mark.parametrize("name", sorted(ALL_WORKLOADS))
def test_validation_report_parity(name, suite_reports):
    """Both engines must produce identical cross-input validation reports
    for every registered workload's scenario matrix (figure examples have
    no scenarios and are skipped by construction)."""
    from repro.foray.validate import ValidationSink

    workload = ALL_WORKLOADS[name]
    if len(workload.scenarios) < 2:
        pytest.skip("no scenario matrix declared")
    model = suite_reports[name].model

    # Replay the profile scenario and one cross scenario on both engines.
    for scenario in workload.scenarios[:2]:
        reports = {}
        for engine in ("ast", "bytecode"):
            compiled = compile_program(workload.source_for(scenario))
            sink = ValidationSink(model, compiled.checkpoint_map)
            run_compiled(
                compiled, sinks=(sink,),
                config=EngineConfig(engine=engine, input=scenario.input),
            )
            reports[engine] = sink.finish()
        assert reports["bytecode"] == reports["ast"], scenario.name
        assert reports["bytecode"].unexercised == 0


#: The execution tiers whose observable behaviour must be identical
#: (the fuzz battery's parity check runs the same three).
TIERS = dict(PARITY_CONFIGS)


def assert_three_way_parity(source: str) -> None:
    """Exit code, stdout, step/call counts and the formatted trace agree
    on every tier (each run compiles the source afresh)."""
    observed = {}
    for tier, config in TIERS.items():
        collector = TraceCollector()
        result = run_compiled(compile_program(source), sinks=(collector,),
                              config=config)
        observed[tier] = (result.exit_code, result.stdout,
                          result.stats.steps, result.stats.calls,
                          format_trace(collector.records))
    for tier, signature in observed.items():
        assert signature == observed["ast"], f"{tier} vs ast"


@pytest.mark.parametrize("name", ["adpcm", "mpeg2", "fig1a", "fig9"])
def test_three_way_parity(name):
    assert_three_way_parity(ALL_WORKLOADS[name].source)


def test_cross_page_access_parity():
    # Pointer-cast int stores straddling the 4 KiB page boundary: the
    # specialized code's generic crossing path must match the others.
    assert_three_way_parity("""
    char buf[8192];
    int main(void) {
        int i;
        for (i = 0; i < 8192; i += 1021) {
            *(int *)&buf[i] = i * 3 + 7;
        }
        return *(int *)&buf[4094];
    }
    """)


def _recursion_source(nest: int, depth: int) -> str:
    """``f`` recurses ``depth`` times from inside a ``nest``-deep loop
    nest (each loop runs once); main returns the depth mod 256."""
    decls = "".join(f"int i{k}; " for k in range(nest))
    loops = "".join(f"for (i{k} = 0; i{k} < 1; i{k}++) {{ "
                    for k in range(nest))
    return f"""
    int f(int n) {{
        {decls}int r = 0;
        {loops}if (n > 0) r = f(n - 1) + 1; {"}" * nest}
        return r;
    }}
    int main(void) {{ return f({depth}) & 255; }}
    """


@pytest.mark.parametrize("depth", [510, 511])
@pytest.mark.parametrize("nest", range(5))
def test_call_depth_boundary_parity(nest, depth):
    """The default call-depth budget (512 frames, main included) fits
    ``f(510)`` (511 frames of ``f``) and refuses ``f(511)`` with the
    simulator's own error on every tier: each loop region around a call
    site costs the specialized code a Python frame, and its recursion
    headroom must cover them."""
    outcomes = {}
    for tier, config in TIERS.items():
        try:
            result = run_compiled(
                compile_program(_recursion_source(nest, depth)),
                config=config)
            outcomes[tier] = result.exit_code
        except Exception as error:
            outcomes[tier] = (type(error).__name__, str(error))
    expected = 254 if depth == 510 else (
        "MiniCRuntimeError", "<minic>:0:0: call depth exceeded in 'f'")
    assert outcomes == dict.fromkeys(TIERS, expected)


def test_call_depth_headroom_counts_caller_frames():
    """A run started 400 Python frames deep still reaches the depth
    budget: the headroom adds the frames already on the stack."""
    def nested(levels):
        if levels:
            return nested(levels - 1)
        return run_compiled(compile_program(_recursion_source(0, 510)))

    assert nested(400).exit_code == 254


def test_specialization_cached_per_program():
    program = lower_compiled(compile_program(_recursion_source(3, 4)))
    assert get_specialization(program) is get_specialization(program)
