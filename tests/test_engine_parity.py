"""Engine parity: the bytecode fast path must be observationally identical
to the reference tree-walking interpreter.

For every registered workload (the six mini-MiBench programs and all the
paper figure examples) both engines must produce

* byte-identical traces (checkpoints and memory accesses, in order),
* identical stdout / exit codes / run statistics,
* identical extracted :class:`ForayModel`s (and identical emitted model
  text, which is what the paper tables are computed from).

A hypothesis property extends the check to generated loop nests. The two
execution tiers — the specialized fast path and the AST oracle — are
also held to each other on selected programs, on a cross-page store
stress, at the call-depth boundary and on global initializers, where a
failing run must fail the same way on every tier.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.foray.extractor import ForayExtractor
from repro.foray.emitter import emit_model
from repro.foray.filters import FilterConfig
from repro.gen.fuzz import PARITY_CONFIGS
from repro.lang.errors import MiniCRuntimeError
from repro.sim.bytecode import BytecodeVM
from repro.sim.interpreter import Interpreter
from repro.sim.machine import (
    EngineConfig,
    compile_program,
    lower_compiled,
    run_compiled,
)
from repro.sim.specialize import get_specialization
from repro.sim.trace import DEFAULT_TRACE_BLOCK, TraceCollector, format_trace
from repro.workloads.registry import ALL_WORKLOADS

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
#: (the fuzz battery's parity check runs the same two).
TIERS = dict(PARITY_CONFIGS)


def assert_tier_parity(source: str) -> None:
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
def test_tier_parity(name):
    assert_tier_parity(ALL_WORKLOADS[name].source)


def test_cross_page_access_parity():
    # Pointer-cast int stores straddling the 4 KiB page boundary: the
    # specialized code's generic crossing path must match the oracle.
    assert_tier_parity("""
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


#: Global initializers that call into the program, allocate, fault, run
#: out of budget, recurse deep and exit, with the exit code (or fault
#: class and message) the AST oracle gives and the number of traced
#: accesses: ``main``'s load of ``g`` when ``main`` runs, else none. So
#: every tier flushes the same blocks at any block size, and the
#: initializers' own traffic must reach no sink and no stats.
INITIALIZER_PROGRAMS = {
    "user_call_loop": ("""
    int sum(int n) { int i, s = 0; for (i = 0; i < n; i++) s += i * i;
                     return s; }
    int g = sum(40);
    int main(void) { return g & 255; }
    """, 60, 1),
    "malloc_string": ("""
    char *p = (char *)malloc(16);
    char *s = "initial";
    int mix(void) { p[3] = s[1]; return (int)p * 3 + (int)s + p[3]; }
    int g = mix();
    int main(void) { return g & 255; }
    """, 122, 1),
    # 300 stores, a memset and 300 loads: past the flush limit at block
    # sizes 1 and 7, so blocks flush while tracing is still off.
    "fill_memset": ("""
    int buf[300];
    int fill(void) {
        int i, s = 0;
        for (i = 0; i < 300; i++) buf[i] = i;
        memset(buf, 1, 400);
        for (i = 0; i < 300; i++) s += buf[i];
        return s;
    }
    int g = fill();
    int main(void) { return g & 255; }
    """, 64, 1),
    "divide_by_zero": ("""
    int zero;
    int g = 10 / zero;
    int main(void) { return g; }
    """, ("MiniCRuntimeError", "<minic>:3:16: integer division by zero"), 0),
    "step_budget": ("""
    int spin(void) { int i, s = 0; for (i = 0; i < 10000; i++) s += i;
                     return s; }
    int g = spin();
    int main(void) { return g & 255; }
    """, ("ExecLimitExceeded",
          "<minic>:0:0: execution exceeded the budget of 5000 steps"), 0),
    "recursion_400": ("""
    int r(int n) { if (n == 0) return 0; return r(n - 1) + 1; }
    int g = r(400);
    int main(void) { return g & 255; }
    """, 144, 1),
    "recursion_600": ("""
    int r(int n) { if (n == 0) return 0; return r(n - 1) + 1; }
    int g = r(600);
    int main(void) { return g & 255; }
    """, ("MiniCRuntimeError", "<minic>:0:0: call depth exceeded in 'r'"),
        0),
    "exit": ("""
    int bye(void) {
        int i;
        for (i = 0; i < 3; i++) { printf("%d", i); if (i == 1) exit(9); }
        return 0;
    }
    int g = bye();
    int main(void) { return g; }
    """, 9, 0),
}


class _BlockRecorder:
    """Keeps every flushed block, so flush points are compared too."""

    def __init__(self):
        self.blocks = []

    def emit_columns(self, block):
        self.blocks.append((block.lists(), list(block.checkpoints)))


def _observe_run(source: str, tier: str, block: int) -> dict:
    """Everything a run shows: exit code or fault, stdout, stats and the
    flushed blocks (the engine is built directly so that its stats stay
    readable after a fault)."""
    compiled = compile_program(source)
    recorder = _BlockRecorder()
    options = dict(sinks=(recorder,), max_steps=5000,
                   trace_block_size=block)
    if TIERS[tier].engine == "ast":
        machine = Interpreter(compiled.program, **options)
    else:
        machine = BytecodeVM(lower_compiled(compiled), **options)
    outcome: object
    try:
        outcome = machine.run()
    except MiniCRuntimeError as error:
        outcome = (type(error).__name__, str(error))
    return {"outcome": outcome, "stdout": machine.stdout,
            "stats": machine.stats, "blocks": recorder.blocks}


@pytest.mark.parametrize("block", (1, 7, DEFAULT_TRACE_BLOCK))
@pytest.mark.parametrize("name", sorted(INITIALIZER_PROGRAMS))
def test_global_initializer_parity(name, block):
    source, expected, traced = INITIALIZER_PROGRAMS[name]
    observed = {tier: _observe_run(source, tier, block) for tier in TIERS}
    oracle = observed["ast"]
    assert oracle["outcome"] == expected
    for tier, seen in observed.items():
        assert seen == oracle, f"{tier} vs ast"
    assert oracle["stats"].accesses == traced
    assert oracle["stats"].checkpoints == 0
    assert sum(len(pcs) for (pcs, *_rest), _cps in oracle["blocks"]) == \
        traced
