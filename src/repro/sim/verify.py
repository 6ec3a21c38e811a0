"""Structural IR verifier for lowered and fused bytecode.

The specializer and the fixpoint fusion pass rewrite every hot function;
until now their only safety net was end-to-end trace parity. This module
checks the bytecode *structurally*, per function:

* every opcode is known, and superinstructions appear only in fused code;
* every register operand addresses a slot inside the frame
  (``0 <= slot < n_slots``), derived from the same ``_READS``/``_WRITES``
  tables the fusion pass trusts for liveness;
* every jump lands on an instruction boundary of the same function;
* registers are defined before use: a forward must-analysis over the
  basic-block CFG (:func:`repro.sim.dataflow.maybe_uninitialized_reads`)
  flags every individual read a merge path can reach without a prior
  definition (frames are zero-filled, so a violation is not UB — but it
  means the lowering lost an initialization, which trace parity can
  miss);
* slot domains are consistent: a slot that definitely holds a float
  must never flow into an operand position the specialized code masks
  *without* an ``int()`` conversion (integer arithmetic operands,
  pointer bases, access addresses) — there the raw ``&`` would raise at
  runtime on exotic paths only;
* every basic block is reachable from entry, except trivial epilogue
  blocks (the auto-appended trailing return after a user ``return``);
* fused superinstructions decode back to their constituent operations —
  element size, access width, struct format and synthetic pc must all be
  the values the unfused ``OP_ELEM + OP_LOAD/OP_STORE`` pair would carry,
  and ``OP_BR`` must wrap a real comparison opcode;
* trace-emitting instructions carry valid synthetic pcs (user range,
  load/store parity) and valid checkpoint ids (present in the
  instrumentation map with the matching kind code);
* calls name real functions or known builtins;
* instrumented body regions lie inside the code and name body-end
  checkpoints.

`verify_compiled` runs all of it over every function of the lowered
program *and* its fused twin. Tests enable it unconditionally via the
``REPRO_VERIFY_IR`` environment variable; the CLI exposes ``--verify-ir``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.lang.stdlib import BUILTIN_SIGNATURES
from repro.sim import bytecode as bc
from repro.sim import dataflow
from repro.sim.trace import (
    BODY_END_CODE,
    KIND_TO_CODE,
    LIB_PC_BASE,
    USER_PC_BASE,
    CheckpointMap,
)

#: Operand position of the synthetic pc per trace-emitting opcode.
_PC_POS: dict[int, int] = {
    bc.OP_LOAD_I: 7, bc.OP_LOAD_F: 6,
    bc.OP_STORE_I: 9, bc.OP_STORE_F: 7, bc.OP_STORE_P: 5,
    bc.OP_LDELEM_I: 8, bc.OP_LDELEM_F: 7,
    bc.OP_STELEM_I: 10, bc.OP_STELEM_F: 8, bc.OP_STELEM_P: 6,
}

_LOAD_OPS = frozenset((bc.OP_LOAD_I, bc.OP_LOAD_F,
                       bc.OP_LDELEM_I, bc.OP_LDELEM_F))
_STORE_OPS = frozenset((bc.OP_STORE_I, bc.OP_STORE_F, bc.OP_STORE_P,
                        bc.OP_STELEM_I, bc.OP_STELEM_F, bc.OP_STELEM_P))

#: (elem_size operand, access-size operand or None) per fused memory op.
_FUSED_SHAPE: dict[int, tuple[int, int | None]] = {
    bc.OP_LDELEM_I: (4, 5), bc.OP_LDELEM_F: (4, 5),
    bc.OP_STELEM_I: (3, 6), bc.OP_STELEM_F: (3, 6), bc.OP_STELEM_P: (3, None),
}

_ACCESS_SIZES = frozenset((1, 2, 4, 8))

_FUSED_OPS = frozenset((bc.OP_LDELEM_I, bc.OP_LDELEM_F, bc.OP_STELEM_I,
                        bc.OP_STELEM_F, bc.OP_STELEM_P, bc.OP_BR))

_KNOWN_OPS = frozenset(range(62))


class IRVerificationError(Exception):
    """The bytecode of a compiled program failed structural verification."""

    def __init__(self, findings: list[str]):
        self.findings = findings
        preview = "\n  ".join(findings[:20])
        more = f"\n  ... and {len(findings) - 20} more" if len(findings) > 20 else ""
        super().__init__(
            f"IR verification failed with {len(findings)} finding(s):\n"
            f"  {preview}{more}")


@dataclass(frozen=True)
class VerifyStats:
    """What one :func:`verify_compiled` pass covered."""

    functions: int
    instructions: int
    fused_functions: int
    fused_instructions: int


def _valid_pc(pc: object, is_store: bool, allow_untraced: bool) -> bool:
    if not isinstance(pc, int):
        return False
    if pc == -1:
        # The untraced sentinel: global initialization and parameter
        # spills run with tracing off by design.
        return allow_untraced
    if not USER_PC_BASE <= pc < LIB_PC_BASE:
        return False
    return pc % 8 == (4 if is_store else 0)


def verify_function(
    fn: "bc.BytecodeFunction",
    checkpoint_map: CheckpointMap,
    function_names: frozenset[str],
    fused: bool,
    allow_untraced_pc: bool = False,
) -> list[str]:
    """Structural findings for one bytecode function (empty = clean)."""
    findings: list[str] = []
    code = fn.code
    size = len(code)

    def flag(index: int, message: str) -> None:
        findings.append(f"{fn.name}[{index}]: {message}")

    for index, ins in enumerate(code):
        op = ins[0]
        if op not in _KNOWN_OPS:
            flag(index, f"unknown opcode {op!r}")
            continue
        if op in _FUSED_OPS and not fused:
            flag(index, f"superinstruction {op} in unfused code")
            continue

        # Register operands: the same tables the liveness fixpoint uses.
        if op == bc.OP_CALL or op == bc.OP_CALLB:
            if len(ins) != 4 or not isinstance(ins[3], tuple):
                flag(index, f"malformed call {ins!r}")
                continue
            slots = (ins[1], *ins[3])
            if op == bc.OP_CALL and ins[2] not in function_names:
                flag(index, f"call to unknown function {ins[2]!r}")
            if op == bc.OP_CALLB and ins[2] not in BUILTIN_SIGNATURES:
                flag(index, f"call to unknown builtin {ins[2]!r}")
        else:
            read_positions = bc._READS.get(op, ())
            write_position = bc._WRITES.get(op)
            positions = (*read_positions,
                         *(() if write_position is None else (write_position,)))
            if positions and max(positions) >= len(ins):
                flag(index, f"operand arity too small for opcode {op}: {ins!r}")
                continue
            slots = tuple(ins[pos] for pos in positions)
        for slot in slots:
            if not isinstance(slot, int) or not 0 <= slot < fn.n_slots:
                flag(index, f"register slot {slot!r} outside frame "
                            f"of {fn.n_slots} slots")

        # Jumps land on instruction boundaries.
        target_pos = None
        if op == bc.OP_JMP:
            target_pos = 1
        elif op == bc.OP_JZ or op == bc.OP_JNZ:
            target_pos = 2
        elif op == bc.OP_BR:
            target_pos = 4
        if target_pos is not None:
            target = ins[target_pos]
            if not isinstance(target, int) or not 0 <= target <= size:
                flag(index, f"jump target {target!r} outside code "
                            f"of {size} instructions")

        # Trace-emitting memory ops carry decodable synthetic pcs.
        pc_pos = _PC_POS.get(op)
        if pc_pos is not None:
            if pc_pos >= len(ins):
                flag(index, f"missing pc operand: {ins!r}")
            elif not _valid_pc(ins[pc_pos], op in _STORE_OPS,
                               allow_untraced_pc):
                flag(index, f"invalid synthetic pc {ins[pc_pos]!r}")

        # Superinstructions decode back to their constituent ops.
        if op in _FUSED_SHAPE:
            elem_pos, size_pos = _FUSED_SHAPE[op]
            if ins[elem_pos] < 1:
                flag(index, f"fused element size {ins[elem_pos]!r} < 1")
            if size_pos is not None and ins[size_pos] not in _ACCESS_SIZES:
                flag(index, f"fused access size {ins[size_pos]!r}")
        if op == bc.OP_BR:
            if ins[1] not in bc._CMP_OPS:
                flag(index, f"fused branch wraps non-comparison op {ins[1]!r}")
            if ins[5] not in (0, 1):
                flag(index, f"fused branch sense {ins[5]!r}")

        # Checkpoints exist in the instrumentation map, kinds agree.
        if op == bc.OP_CKPT:
            checkpoint_id, kind_code = ins[1], ins[2]
            info = checkpoint_map.infos.get(checkpoint_id)
            if info is None:
                flag(index, f"checkpoint id {checkpoint_id!r} not in map")
            elif KIND_TO_CODE[info.kind] != kind_code:
                flag(index, f"checkpoint {checkpoint_id} kind code "
                            f"{kind_code} != {KIND_TO_CODE[info.kind]}")

    # Semantic checks need a structurally valid function to build a CFG
    # over, so they run only once the shape checks above are clean.
    if not findings and size:
        for index, slot in dataflow.maybe_uninitialized_reads(fn):
            findings.append(
                f"{fn.name}[{index}]: slot {slot} may be read before "
                "any definition on some path")
        findings.extend(_domain_findings(fn))
        findings.extend(_unreachable_findings(fn))

    # Instrumented body regions are in bounds and name body-end ids.
    for start, end, body_end_id in fn.body_regions:
        if not 0 <= start <= end <= size:
            findings.append(
                f"{fn.name}: body region ({start}, {end}) outside code")
        info = checkpoint_map.infos.get(body_end_id)
        if info is None or KIND_TO_CODE[info.kind] != BODY_END_CODE:
            findings.append(
                f"{fn.name}: body region id {body_end_id} is not a "
                "body-end checkpoint")
    return findings


# -- slot-domain consistency (int vs float) ---------------------------------

#: Opcodes whose destination definitely holds a float afterwards.
_FLOAT_WRITERS = frozenset((
    bc.OP_ADD_F, bc.OP_SUB_F, bc.OP_MUL_F, bc.OP_DIV_F, bc.OP_ADDK_F,
    bc.OP_NEG_F, bc.OP_CONV_F, bc.OP_LOAD_F, bc.OP_LDELEM_F,
    bc.OP_STORE_F, bc.OP_STELEM_F,
))

#: Operand positions per opcode where the specialized code applies a raw
#: ``&`` (or page arithmetic) with no ``int()`` conversion: a definitely
#: float-valued slot there is a latent TypeError. Positions mirror the
#: specializer's instruction templates.
_RAW_MASK_POSITIONS: dict[int, tuple[int, ...]] = {
    bc.OP_ADD_I: (2, 3), bc.OP_SUB_I: (2, 3), bc.OP_MUL_I: (2, 3),
    bc.OP_ADDK_I: (2,), bc.OP_NEG_I: (2,),
    bc.OP_ELEM: (2,), bc.OP_ADD_P: (2,), bc.OP_MEMBOFF: (2,),
    bc.OP_ADDK_P: (2,), bc.OP_SUB_PI: (2,),
    bc.OP_LOAD_I: (2,), bc.OP_LOAD_F: (2,),
    bc.OP_STORE_I: (1,), bc.OP_STORE_F: (1,), bc.OP_STORE_P: (1,),
    bc.OP_LDELEM_I: (2,), bc.OP_LDELEM_F: (2,),
    bc.OP_STELEM_I: (1,), bc.OP_STELEM_F: (1,), bc.OP_STELEM_P: (1,),
    bc.OP_ZFILL: (1,), bc.OP_WBYTES: (1,),
}

#: Two bits per slot: INT (1) and/or FLOAT (2); 3 = either, 0 = unknown.
_INT, _FLOAT = 1, 2


def _domain_transfer(ins: tuple[object, ...], state: int) -> int:
    op = ins[0]
    assert isinstance(op, int)
    if op == bc.OP_CALL or op == bc.OP_CALLB:
        dst = ins[1]
        assert isinstance(dst, int)
        return state | (3 << (2 * dst))
    write = bc._WRITES.get(op)
    if write is None:
        return state
    dst = ins[write]
    assert isinstance(dst, int)
    shift = 2 * dst
    if op == bc.OP_MOV:
        src = ins[2]
        assert isinstance(src, int)
        bits = (state >> (2 * src)) & 3
    elif op == bc.OP_CONST:
        bits = _FLOAT if type(ins[2]) is float else _INT
    elif op in _FLOAT_WRITERS:
        bits = _FLOAT
    else:
        bits = _INT
    return (state & ~(3 << shift)) | (bits << shift)


def _domain_findings(fn: "bc.BytecodeFunction") -> list[str]:
    """Definite-float slots flowing into raw-mask operand positions."""
    cfg = dataflow.build_cfg(fn.code)
    nb = len(cfg.blocks)
    if not nb:
        return []
    # Entry: every slot is a zero-filled int; parameters refine by
    # conversion tag (2 = float; an in-memory parameter's slot holds
    # the spill address, which is an int).
    entry = 0
    for s in range(fn.n_slots):
        entry |= _INT << (2 * s)
    for spec in fn.params:
        shift = 2 * spec.slot
        if not spec.in_memory and spec.conv == 2:
            entry = (entry & ~(3 << shift)) | (_FLOAT << shift)
        elif not spec.in_memory and spec.conv == 0:
            entry |= 3 << shift

    def transfer(b: int, state: int) -> int:
        block = cfg.blocks[b]
        for i in range(block.start, block.end):
            state = _domain_transfer(fn.code[i], state)
        return state

    inputs, _outputs = dataflow.solve(
        nb, cfg.succs, forward=True, bottom=0, boundary=entry,
        transfer=transfer, join=lambda a, b: a | b)

    findings: list[str] = []
    for block in cfg.blocks:
        state = inputs[block.index]
        if state == 0:  # unreachable; reported separately
            continue
        for i in range(block.start, block.end):
            ins = fn.code[i]
            op = ins[0]
            assert isinstance(op, int)
            for pos in _RAW_MASK_POSITIONS.get(op, ()):
                slot = ins[pos]
                assert isinstance(slot, int)
                if (state >> (2 * slot)) & 3 == _FLOAT:
                    findings.append(
                        f"{fn.name}[{i}]: slot {slot} definitely holds "
                        f"a float but feeds an int-masked operand of "
                        f"opcode {op}")
            state = _domain_transfer(ins, state)
    return findings


# -- unreachable blocks ------------------------------------------------------

#: Opcodes allowed in an unreachable block without a finding: the
#: lowering appends a trailing return after user code that already
#: returned on every path, and fusion can strand such epilogues.
_BENIGN_UNREACHABLE = frozenset((
    bc.OP_RET, bc.OP_RET0, bc.OP_JMP, bc.OP_STEP, bc.OP_CKPT,
))


def _unreachable_findings(fn: "bc.BytecodeFunction") -> list[str]:
    cfg = dataflow.build_cfg(fn.code)
    if not cfg.blocks:
        return []
    seen = {0}
    stack = [0]
    while stack:
        for succ in cfg.succs[stack.pop()]:
            if succ not in seen:
                seen.add(succ)
                stack.append(succ)
    findings: list[str] = []
    for block in cfg.blocks:
        if block.index in seen:
            continue
        ops = {fn.code[i][0] for i in range(block.start, block.end)}
        if ops <= _BENIGN_UNREACHABLE:
            continue
        findings.append(
            f"{fn.name}[{block.start}]: unreachable block "
            f"[{block.start}, {block.end}) with effects")
    return findings


def verify_bytecode(
    bytecode_program: "bc.BytecodeProgram",
    checkpoint_map: CheckpointMap,
    fused: bool = False,
) -> list[str]:
    """Findings across all functions (and globals-init) of one program."""
    names = frozenset(bytecode_program.functions)
    findings = verify_function(bytecode_program.globals_init, checkpoint_map,
                               names, fused, allow_untraced_pc=True)
    for fn in bytecode_program.functions.values():
        findings.extend(verify_function(fn, checkpoint_map, names, fused))
    return findings


def verify_compiled(compiled, raise_on_error: bool = True) -> VerifyStats:
    """Verify the lowered program and its fused twin.

    ``compiled`` is a :class:`repro.sim.machine.CompiledProgram`; lowering
    and fusion results are cached on it, so verification shares work with
    a subsequent run instead of repeating it.
    """
    from repro.sim.machine import lower_compiled

    lowered = lower_compiled(compiled)
    findings = verify_bytecode(lowered, compiled.checkpoint_map, fused=False)
    fused = bc.fuse_program(lowered)
    findings.extend(verify_bytecode(fused, compiled.checkpoint_map,
                                    fused=True))
    if findings and raise_on_error:
        raise IRVerificationError(findings)
    count = len(lowered.functions) + 1
    instructions = lowered.instruction_count
    return VerifyStats(
        functions=count,
        instructions=instructions,
        fused_functions=len(fused.functions) + 1,
        fused_instructions=fused.instruction_count,
    )
