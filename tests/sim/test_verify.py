"""Structural IR verifier: every suite program passes, corrupted
programs are caught, and the engine hook refuses to run bad bytecode."""

from dataclasses import replace

import pytest

from repro.sim import bytecode as bc
from repro.sim.machine import (
    EngineConfig,
    compile_program,
    lower_compiled,
    run_compiled,
)
from repro.sim.verify import (
    IRVerificationError,
    verify_bytecode,
    verify_compiled,
    verify_function,
)
from repro.workloads.registry import ALL_WORKLOADS

SOURCE = """
int data[16];
int main() {
    int i;
    for (i = 0; i < 16; i++) { data[i] = i * 2; }
    return data[3];
}
"""


def _lowered(source: str = SOURCE):
    compiled = compile_program(source)
    return compiled, lower_compiled(compiled)


def _corrupt(fn: bc.BytecodeFunction, index: int,
             instruction: tuple) -> bc.BytecodeFunction:
    code = list(fn.code)
    code[index] = instruction
    return replace(fn, code=tuple(code))


def _find(fn: bc.BytecodeFunction, opcodes) -> int:
    for index, ins in enumerate(fn.code):
        if ins[0] in opcodes:
            return index
    raise AssertionError(f"no {opcodes} instruction in {fn.name}")


class TestSuitePrograms:
    @pytest.mark.parametrize("name", sorted(ALL_WORKLOADS))
    def test_every_lowered_and_fused_program_verifies(self, name):
        workload = ALL_WORKLOADS[name]
        compiled = compile_program(workload.source)
        stats = verify_compiled(compiled)
        assert stats.functions >= 2  # main + globals-init
        # The verifier covers exactly the code the specializer compiles.
        assert stats.instructions == lower_compiled(
            compiled).instruction_count > 0


class TestCorruptedPrograms:
    def test_jump_target_out_of_bounds(self):
        compiled, lowered = _lowered()
        fn = lowered.functions["main"]
        index = _find(fn, {bc.OP_JMP, bc.OP_JZ, bc.OP_JNZ})
        ins = fn.code[index]
        pos = 1 if ins[0] == bc.OP_JMP else 2
        bad = _corrupt(fn, index,
                       ins[:pos] + (len(fn.code) + 7,) + ins[pos + 1:])
        findings = verify_function(bad, compiled.checkpoint_map,
                                   frozenset(lowered.functions))
        assert any("jump target" in f for f in findings)

    def test_register_slot_outside_frame(self):
        compiled, lowered = _lowered()
        fn = lowered.functions["main"]
        index = _find(fn, set(bc._WRITES))
        ins = fn.code[index]
        pos = bc._WRITES[ins[0]]
        bad = _corrupt(fn, index,
                       ins[:pos] + (fn.n_slots + 3,) + ins[pos + 1:])
        findings = verify_function(bad, compiled.checkpoint_map,
                                   frozenset(lowered.functions))
        assert any("outside frame" in f for f in findings)

    def test_unknown_opcode_rejected(self):
        # 56 is one past the last opcode: lowering never emits it.
        compiled, lowered = _lowered()
        fn = lowered.functions["main"]
        index = _find(fn, {bc.OP_LOAD_I})
        bad = _corrupt(fn, index, (56,) + fn.code[index][1:])
        findings = verify_function(bad, compiled.checkpoint_map,
                                   frozenset(lowered.functions))
        assert any("unknown opcode 56" in f for f in findings)

    def test_unknown_checkpoint_id(self):
        compiled, lowered = _lowered()
        fn = lowered.functions["main"]
        index = _find(fn, {bc.OP_CKPT})
        ins = fn.code[index]
        bad = _corrupt(fn, index, (ins[0], 999_999, ins[2]))
        findings = verify_function(bad, compiled.checkpoint_map,
                                   frozenset(lowered.functions))
        assert any("not in map" in f for f in findings)

    def test_checkpoint_kind_mismatch(self):
        compiled, lowered = _lowered()
        fn = lowered.functions["main"]
        index = _find(fn, {bc.OP_CKPT})
        ins = fn.code[index]
        bad = _corrupt(fn, index, (ins[0], ins[1], (ins[2] + 1) % 3))
        findings = verify_function(bad, compiled.checkpoint_map,
                                   frozenset(lowered.functions))
        assert any("kind code" in f for f in findings)

    def test_invalid_synthetic_pc(self):
        compiled, lowered = _lowered()
        fn = lowered.functions["main"]
        index = _find(fn, {bc.OP_STORE_I})
        ins = fn.code[index]
        # Store pcs are congruent to 4 mod 8; a load-parity pc is corrupt.
        bad = _corrupt(fn, index, ins[:-1] + (ins[-1] - 4,))
        findings = verify_function(bad, compiled.checkpoint_map,
                                   frozenset(lowered.functions))
        assert any("synthetic pc" in f for f in findings)

    def test_globals_init_untraced_pc_allowed(self):
        source = "int seed[4] = {1, 2, 3, 4};\nint main() { return seed[0]; }"
        compiled, lowered = _lowered(source)
        assert any(ins[-1] == -1 for ins in lowered.globals_init.code
                   if ins[0] == bc.OP_STORE_I)
        assert not verify_bytecode(lowered, compiled.checkpoint_map)

    def test_call_to_unknown_function(self):
        source = "int f() { return 1; }\nint main() { return f(); }"
        compiled, lowered = _lowered(source)
        fn = lowered.functions["main"]
        index = _find(fn, {bc.OP_CALL})
        ins = fn.code[index]
        bad = _corrupt(fn, index, (ins[0], ins[1], "ghost", ins[3]))
        findings = verify_function(bad, compiled.checkpoint_map,
                                   frozenset(lowered.functions))
        assert any("unknown function" in f for f in findings)

    def test_error_reports_are_readable(self):
        compiled, lowered = _lowered()
        fn = lowered.functions["main"]
        index = _find(fn, {bc.OP_CKPT})
        ins = fn.code[index]
        functions = dict(lowered.functions)
        functions["main"] = _corrupt(fn, index, (ins[0], 999_999, ins[2]))
        broken = replace(lowered, functions=functions)
        with pytest.raises(IRVerificationError) as excinfo:
            findings = verify_bytecode(broken, compiled.checkpoint_map)
            raise IRVerificationError(findings)
        assert "main[" in str(excinfo.value)
        assert excinfo.value.findings


class TestEngineHook:
    def test_verify_ir_config_catches_corruption(self):
        compiled = compile_program(SOURCE)
        lowered = lower_compiled(compiled)
        fn = lowered.functions["main"]
        index = _find(fn, {bc.OP_CKPT})
        ins = fn.code[index]
        lowered.functions["main"] = _corrupt(
            fn, index, (ins[0], 999_999, ins[2]))
        with pytest.raises(IRVerificationError):
            run_compiled(compiled, config=EngineConfig(verify_ir=True))

    def test_verify_ir_memoized_per_program(self):
        compiled = compile_program(SOURCE)
        run_compiled(compiled, config=EngineConfig(verify_ir=True))
        assert compiled.ir_verified
        # A second run must not re-verify (the memo short-circuits).
        result = run_compiled(compiled, config=EngineConfig(verify_ir=True))
        assert result.exit_code == 6

    def test_env_var_enables_verification(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY_IR", "1")
        compiled = compile_program(SOURCE)
        run_compiled(compiled)
        assert compiled.ir_verified
