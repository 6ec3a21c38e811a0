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
also held to each other on selected programs, on values loop regions
carry across nested loops, on a cross-page store stress, at the
call-depth boundary, at every step budget of two programs, at a fault in
each iteration of a nest and on global initializers, where a failing run
must fail the same way on every tier, checkpoints included.
"""

import re

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
from repro.sim.trace import (
    BODY_BEGIN_CODE,
    BODY_END_CODE,
    DEFAULT_TRACE_BLOCK,
    StreamRecorder,
    TraceCollector,
    format_trace,
)
from repro.workloads.registry import ALL_WORKLOADS, get_workload

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
    """Exit code, stdout, step/call counts and the trace stream, access
    sizes included, agree on every tier (each run compiles the source
    afresh)."""
    observed = {}
    for tier, config in TIERS.items():
        stream = StreamRecorder()
        result = run_compiled(compile_program(source), sinks=(stream,),
                              config=config)
        observed[tier] = (result.exit_code, result.stdout,
                          result.stats.steps, result.stats.calls,
                          stream.records)
    for tier, signature in observed.items():
        assert signature == observed["ast"], f"{tier} vs ast"


@pytest.mark.parametrize("name", ["adpcm", "mpeg2", "fig1a", "fig9"])
def test_tier_parity(name):
    assert_tier_parity(ALL_WORKLOADS[name].source)


#: Values that loop regions carry in Python locals across nested loops:
#: the specialized code loads into a region's locals only the slots
#: live into one of its chain heads, and reloads after a nested loop
#: only what that loop writes.
REGION_REGISTER_PROGRAMS = {
    # ``keep`` is live across the inner nest, which never touches it.
    "live_across_untouching_nest": """
    int a[8];
    int main(void) {
        int i, j, k, keep = 41, s = 0;
        for (i = 0; i < 3; i++) {
            keep = keep + i;
            for (j = 0; j < 4; j++) {
                for (k = 0; k < 2; k++) a[j + k] += j * k + i;
            }
            s += keep;
        }
        printf("%d %d %d\\n", keep, s, a[3]);
        return (keep + s) & 255;
    }
    """,
    # ``last`` is written in the inner loop and read after the outer one.
    "inner_write_read_after_nest": """
    int main(void) {
        int i, j, last = -1, t = 0;
        for (i = 0; i < 4; i++)
            for (j = 0; j < 3; j++) {
                if ((i + j) % 3 == 1) last = i * 10 + j;
                t += j;
            }
        printf("%d %d\\n", last, t);
        return last & 255;
    }
    """,
    # ``found``, ``hits`` and ``v`` cross ``break`` and ``continue`` out
    # of every level of a three-deep nest.
    "break_continue_out_of_nest": """
    int g[32];
    int main(void) {
        int i, j, k, found = 0, hits = 0, v = 7;
        for (i = 0; i < 5; i++) {
            if (i == 1) continue;
            for (j = 0; j < 5; j++) {
                v = (v * 3 + j) & 1023;
                if (v % 5 == 0) continue;
                for (k = 0; k < 3; k++) {
                    g[(i * 5 + j + k) & 31] += v;
                    if (g[(j + k) & 31] > 60) { found = v; break; }
                    hits++;
                }
                if (found) break;
            }
            if (i == 3 && found) break;
        }
        printf("%d %d %d %d\\n", i, found, hits, v);
        return (found + hits) & 255;
    }
    """,
}


@pytest.mark.parametrize("name", sorted(REGION_REGISTER_PROGRAMS))
def test_region_register_parity(name):
    assert_tier_parity(REGION_REGISTER_PROGRAMS[name])


def test_innermost_region_loads_only_live_in_slots():
    """gen:small:3's innermost loop reads its two counters (slots 0 and
    1) before writing them; the 24 other slots it touches are written
    first on every path from its chain heads, so its preheader loads
    the two counters and nothing else."""
    source = get_specialization(lower_compiled(compile_program(
        get_workload("gen:small:3").source))).source
    regions = dict(re.findall(r"^def (_rg\w+)\(r, b_\):\n((?:    .*\n)*)",
                              source, re.M))
    innermost = [name for name, body in regions.items()
                 if "_rg" not in body]
    assert len(innermost) == 1
    body = regions[innermost[0]]
    assert body[:body.index("    while True:")] == (
        "    t0 = r[0]\n    t1 = r[1]\n")


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


@pytest.mark.parametrize("name", sorted(ALL_WORKLOADS))
def test_specialized_trace_appends(name):
    """Each trace record is one append of a literal, ``K | a_`` for an
    access, and each chain exit that appended checks the buffer limit
    once: between two checks the code always leaves a chain."""
    source = get_specialization(lower_compiled(compile_program(
        get_workload(name).source))).source
    appends = re.findall(r"_AA\((.*)\)$", source, re.M)
    assert appends
    assert all(re.fullmatch(r"\d+( \| a_)?", arg) for arg in appends)
    checks = source.split("if len(_AB) >= _FL: _FLUSH()")
    assert len(checks) > 1
    for between in checks[1:-1]:
        assert re.search(r"^\s+(return|continue|b_ = )", between, re.M)


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
        self.blocks.append((block.lists(), block.checkpoint_tuples()))


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


# Block sizes in records: 1 and 7 cut everywhere, 4096 and the default
# are large blocks.
@pytest.mark.parametrize("block", (1, 7, 4096, DEFAULT_TRACE_BLOCK))
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


#: A loop nest with a call inside the inner loop, a ``continue`` and a
#: ``break``: every kind of edge a batched step group can straddle.
BUDGET_NEST = """
int g[16];
int bump(int x) { g[x & 15] += x; return x + 1; }
int main(void) {
    int i, j, s = 0;
    for (i = 0; i < 3; i++) {
        for (j = 0; j < 4; j++) {
            if (j == 1) continue;
            if (i == 1 && j == 3) break;
            s += bump(i * 4 + j);
        }
        printf("%d\\n", s);
    }
    return s & 255;
}
"""


def _run_ending(compiled, program, tier: str, max_steps: int) -> tuple:
    """How a run ends on ``tier``: its fault or exit code, stdout, step,
    call, access and checkpoint counts, and its record stream (the
    engine is built directly so that its stats stay readable after a
    fault)."""
    recorder = StreamRecorder()
    options = dict(sinks=(recorder,), max_steps=max_steps)
    machine = (Interpreter(compiled.program, **options)
               if TIERS[tier].engine == "ast"
               else BytecodeVM(program, **options))
    outcome: object
    try:
        outcome = machine.run()
    except MiniCRuntimeError as error:
        outcome = (type(error).__name__, str(error))
    stats = machine.stats
    return (outcome, machine.stdout, stats.steps, stats.calls,
            stats.accesses, stats.checkpoints, recorder.records)


@pytest.mark.parametrize("name", ["nest", "gen:small:3"])
def test_step_budget_sweep_parity(name):
    """At every step budget from 1 to one past the run's length, both
    tiers end the same way: the same fault or exit code, stdout, step,
    call, access and checkpoint counts, access stream and checkpoint
    stream. The AST oracle counts steps one at a time and stops at
    ``max_steps + 1``; the fast path checks a batched group of steps at
    once and must report that count too. Neither tier emits the
    body-ends of the loops a fault unwinds."""
    source = BUDGET_NEST if name == "nest" else get_workload(name).source
    compiled = compile_program(source)
    program = lower_compiled(compiled)
    total = run_compiled(compiled).stats.steps
    for budget in range(1, total + 2):
        seen = {tier: _run_ending(compiled, program, tier, budget)
                for tier in TIERS}
        assert seen["specialized"] == seen["ast"], f"budget {budget}"


#: A three-deep nest, one loop of each kind, that divides by zero in
#: the ``FAULT``-th iteration it enters (counting every loop's
#: iterations in execution order). ``FAULT_DEPTHS`` is the nesting depth
#: of each of its 14 iterations.
FAULT_DEPTHS = (1, 2, 3, 3, 2, 3, 3) * 2
FAULT_NEST = """
int g[16];
int main(void) {
    int i, j, k, n = 0, s = 0;
    for (i = 0; i < 2; i++) {
        n = n + 1;
        s += 64 / (n - FAULT);
        j = 0;
        while (j < 2) {
            n = n + 1;
            s += 64 / (n - FAULT);
            k = 0;
            do {
                n = n + 1;
                s += 64 / (n - FAULT);
                g[n & 15] = s;
                k++;
            } while (k < 2);
            j++;
        }
        printf("%d\\n", s);
    }
    return s & 255;
}
"""


def test_fault_in_each_iteration_parity():
    """A division by zero in each iteration of the nest in turn, and in
    none: both tiers end the same way, checkpoint streams included, and
    a fault leaves the body of every loop it unwinds open."""
    for fault in range(1, len(FAULT_DEPTHS) + 2):
        compiled = compile_program(FAULT_NEST.replace("FAULT", str(fault)))
        program = lower_compiled(compiled)
        seen = {tier: _run_ending(compiled, program, tier, 5000)
                for tier in TIERS}
        assert seen["specialized"] == seen["ast"], f"fault {fault}"
        outcome, *_rest, records = seen["ast"]
        kinds = [record & 3 for record in records if record < 2**32]
        open_bodies = (kinds.count(BODY_BEGIN_CODE)
                       - kinds.count(BODY_END_CODE))
        if fault <= len(FAULT_DEPTHS):
            assert outcome[0] == "MiniCRuntimeError", f"fault {fault}"
            assert open_bodies == FAULT_DEPTHS[fault - 1], f"fault {fault}"
        else:
            assert isinstance(outcome, int) and open_bodies == 0
