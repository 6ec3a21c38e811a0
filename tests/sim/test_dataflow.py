"""Unit tests for the generic dataflow framework (repro.sim.dataflow).

The framework sits under three consumers — the specializer's
liveness, the IR verifier and the MiniC linter — so these tests pin the
solver and the analyses directly at the bytecode level: solver
fixpoints, liveness equivalence with the naive per-instruction
iteration, and definite assignment.
"""

import pytest

from repro.sim import bytecode as bc
from repro.sim import dataflow as df
from repro.sim.machine import compile_program, lower_compiled
from repro.workloads.registry import MIBENCH_WORKLOADS


def lower(source: str):
    return lower_compiled(compile_program(source))


# ---------------------------------------------------------------------------
# Generic solver
# ---------------------------------------------------------------------------


class TestSolve:
    def test_forward_join_over_diamond(self):
        # 0 -> {1, 2} -> 3; node values accumulate their own index bit.
        succs = [[1, 2], [3], [3], []]
        inputs, outputs = df.solve(
            4, succs, forward=True, bottom=0, boundary=0,
            transfer=lambda n, v: v | (1 << n),
            join=lambda a, b: a | b)
        assert inputs[3] == (1 << 0) | (1 << 1) | (1 << 2)
        assert outputs[3] == inputs[3] | (1 << 3)

    def test_backward_transposes_edges(self):
        succs = [[1], [2], []]
        inputs, outputs = df.solve(
            3, succs, forward=False, bottom=0, boundary=1 << 9,
            transfer=lambda n, v: v | (1 << n),
            join=lambda a, b: a | b)
        # Boundary enters at the exit (node 2) and flows backwards.
        assert inputs[0] == (1 << 9) | (1 << 2) | (1 << 1)

    def test_must_analysis_intersects(self):
        # Node 3 joins paths through 1 (defines bit 0) and 2 (nothing).
        succs = [[1, 2], [3], [3], []]
        inputs, _ = df.solve(
            4, succs, forward=True, bottom=0b11, boundary=0,
            transfer=lambda n, v: v | (0b1 if n == 1 else 0),
            join=lambda a, b: a & b)
        assert inputs[3] == 0


# ---------------------------------------------------------------------------
# Liveness: block-structured solve == naive per-instruction iteration
# ---------------------------------------------------------------------------


def naive_liveness(code):
    n = len(code)
    succs = [df._succ_indices(code, i) for i in range(n)]
    use_kill = [df._use_kill(ins) for ins in code]
    live_in = [0] * n
    live_out = [0] * n
    changed = True
    while changed:
        changed = False
        for i in range(n - 1, -1, -1):
            out = 0
            for s in succs[i]:
                out |= live_in[s]
            use, wr = use_kill[i]
            new_in = use | (out & ~wr)
            if out != live_out[i] or new_in != live_in[i]:
                live_out[i], live_in[i] = out, new_in
                changed = True
    return live_out


class TestLiveness:
    @pytest.mark.parametrize("name", ["adpcm", "fft"])
    def test_matches_naive_iteration_on_workloads(self, name):
        program = lower(MIBENCH_WORKLOADS[name].source)
        for fn in program.functions.values():
            assert df.liveness(fn.code) == naive_liveness(fn.code)

    def test_empty_code(self):
        assert df.liveness(()) == []


# ---------------------------------------------------------------------------
# Definite assignment over hand-built IR
# ---------------------------------------------------------------------------


class TestDefiniteAssignment:
    def test_branch_skips_definition(self):
        # slot0 is a parameter; slot1 is defined only on the fallthrough
        # path, then read after the merge.
        code = (
            (bc.OP_JZ, 0, 2),
            (bc.OP_CONST, 1, 7),
            (bc.OP_ADD_I, 2, 1, 1, 0xFFFFFFFF, 0x7FFFFFFF),
            (bc.OP_RET0,),
        )
        fn = bc.BytecodeFunction(
            "f", code=code, n_slots=3,
            params=[bc.ParamSpec(slot=0, in_memory=False, ctype=None,
                                 conv=1, mask=0xFFFFFFFF,
                                 maxv=0x7FFFFFFF)])
        reads = df.maybe_uninitialized_reads(fn)
        assert (2, 1) in reads           # slot1 may bypass its CONST
        assert all(slot != 0 for _, slot in reads)  # params are defined

    def test_straight_line_is_clean(self):
        code = (
            (bc.OP_CONST, 0, 1),
            (bc.OP_MOV, 1, 0),
            (bc.OP_RET, 1),
        )
        fn = bc.BytecodeFunction("f", code=code, n_slots=2)
        assert df.maybe_uninitialized_reads(fn) == []
