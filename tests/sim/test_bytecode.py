"""Unit tests for the bytecode lowering pass and virtual machine.

Whole-program parity lives in ``tests/test_engine_parity.py``; these tests
pin down the engine plumbing: lowering artifacts, checkpoint placement on
abnormal control flow, budget/recursion limits, and engine selection.
"""

import pytest

from repro.lang.errors import MiniCRuntimeError
from repro.sim.bytecode import (
    OP_CALL,
    OP_CKPT,
    OP_ELEM,
    OP_LOAD_I,
    OP_STORE_I,
    BytecodeVM,
    lower_program,
)
from repro.sim.interpreter import ExecLimitExceeded
from repro.sim.machine import (
    EngineConfig,
    compile_program,
    lower_compiled,
    run_compiled,
)
from repro.sim.trace import CheckpointKind, TraceCollector


def bc_run(source: str, **kwargs):
    compiled = compile_program(source)
    collector = TraceCollector()
    config = EngineConfig(engine="bytecode", **kwargs)
    result = run_compiled(compiled, sinks=(collector,), config=config)
    return result, collector


def ast_run(source: str, **kwargs):
    compiled = compile_program(source)
    collector = TraceCollector()
    config = EngineConfig(engine="ast", **kwargs)
    result = run_compiled(compiled, sinks=(collector,), config=config)
    return result, collector


class TestLowering:
    def test_flat_instruction_lists(self):
        compiled = compile_program("""
        int data[8];
        int sum(int n) { int i, t = 0; for (i = 0; i < n; i++) t += data[i]; return t; }
        int main() { return sum(8); }
        """)
        bytecode = lower_program(compiled.program)
        assert set(bytecode.functions) == {"sum", "main"}
        ops = {ins[0] for ins in bytecode.functions["sum"].code}
        assert OP_ELEM in ops and OP_LOAD_I in ops and OP_CKPT in ops
        assert any(ins[0] == OP_CALL for ins in bytecode.functions["main"].code)
        assert bytecode.instruction_count > 0

    def test_lowering_cached_on_compiled_program(self):
        compiled = compile_program("int main() { return 0; }")
        first = lower_compiled(compiled)
        assert lower_compiled(compiled) is first
        assert compiled.bytecode is first

    def test_store_sites_present(self):
        compiled = compile_program(
            "int g[4]; int main() { g[1] = 7; return g[1]; }")
        bytecode = lower_program(compiled.program)
        stores = [ins for ins in bytecode.functions["main"].code
                  if ins[0] == OP_STORE_I]
        assert stores and all(ins[-1] >= 0 for ins in stores)

    def test_body_regions_recorded_for_instrumented_loops(self):
        compiled = compile_program("""
        int g[4];
        int main() { int i; for (i = 0; i < 4; i++) g[i] = i; return 0; }
        """)
        bytecode = lower_program(compiled.program)
        regions = bytecode.functions["main"].body_regions
        assert len(regions) == 1
        start, end, body_end_id = regions[0]
        assert start < end
        assert body_end_id in compiled.checkpoint_map.infos


class TestControlFlowCheckpoints:
    """body-end must fire on every body exit, as the paper requires."""

    def checkpoint_kinds(self, collector, cmap):
        return [cmap.kind_of(c.checkpoint_id) for c in collector.checkpoints()]

    @pytest.mark.parametrize("tail", [
        "if (i == 1) break;",
        "if (i == 1) continue;",
        "if (i == 1) return 9;",
        "if (i == 1) exit(3);",
    ])
    def test_abnormal_exits_match_reference(self, tail):
        source = f"""
        int g[8];
        int main() {{
            int i, j;
            for (i = 0; i < 4; i++) {{
                for (j = 0; j < 2; j++) {{ g[2 * i + j] = j; }}
                {tail}
            }}
            return 0;
        }}
        """
        bc_result, bc_trace = bc_run(source)
        ast_result, ast_trace = ast_run(source)
        assert bc_result.exit_code == ast_result.exit_code
        assert bc_trace.records == ast_trace.records

    def test_exit_inside_nested_call_unwinds_checkpoints(self):
        source = """
        int g[8];
        int helper(int i) {
            int j;
            for (j = 0; j < 4; j++) { g[j] = i; if (j == 2) exit(7); }
            return 0;
        }
        int main() {
            int i;
            for (i = 0; i < 3; i++) { helper(i); }
            return 0;
        }
        """
        bc_result, bc_trace = bc_run(source)
        ast_result, ast_trace = ast_run(source)
        assert bc_result.exit_code == ast_result.exit_code == 7
        assert bc_trace.records == ast_trace.records
        # The unwinding must close both open bodies (inner first).
        kinds = self.checkpoint_kinds(
            bc_trace, compile_program(source).checkpoint_map)
        assert kinds[-2:] == [CheckpointKind.BODY_END, CheckpointKind.BODY_END]


class TestLimits:
    def test_exec_budget_enforced(self):
        source = "int main() { int i = 0; while (1) { i++; } return i; }"
        with pytest.raises(ExecLimitExceeded):
            bc_run(source, max_steps=10_000)

    def test_step_counts_match_reference(self):
        source = """
        int g[16];
        int f(int n) { if (n <= 0) return 0; return n + f(n - 1); }
        int main() {
            int i;
            for (i = 0; i < 16; i++) { g[i] = f(i & 3); }
            return 0;
        }
        """
        bc_result, _ = bc_run(source)
        ast_result, _ = ast_run(source)
        assert bc_result.stats == ast_result.stats

    def test_call_depth_limit(self):
        source = "int f(int n) { return f(n + 1); } int main() { return f(0); }"
        with pytest.raises(MiniCRuntimeError, match="call depth"):
            bc_run(source)

    def test_deep_recursion_needs_no_python_recursion(self):
        # 400 simulated frames run iteratively on the VM's explicit stack.
        source = """
        int f(int n) { if (n == 0) return 0; return 1 + f(n - 1); }
        int main() { return f(400) == 400 ? 42 : 1; }
        """
        result, _ = bc_run(source)
        assert result.exit_code == 42


class TestEngineSelection:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            EngineConfig(engine="jit")

    def test_default_engine_is_bytecode(self):
        compiled = compile_program("int main() { return 5; }")
        result = run_compiled(compiled)
        assert isinstance(result.machine, BytecodeVM)
        assert result.exit_code == 5

    def test_globals_init_runs_untraced(self):
        source = """
        int table[4] = { 1, 2, 3, 4 };
        char msg[6] = "hey";
        int main() { return table[2]; }
        """
        result, collector = bc_run(source)
        assert result.exit_code == 3
        # Only main's read is traced; global initialization is silent.
        assert len(collector.accesses()) == 1
