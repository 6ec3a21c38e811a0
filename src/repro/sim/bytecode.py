"""Bytecode fast path: lowering pass, fusion pass and the VM that runs
the result.

The tree-walking interpreter (:mod:`repro.sim.interpreter`) pays for a
dict-dispatch, several helper calls and an exception-based control-flow
protocol on *every* AST node it touches. This module compiles the analyzed
(and usually instrumented) program once into a flat, register-oriented
instruction list per function, plus one for the global initializers:

* every function gets a frame of numbered slots ("registers") holding
  register-promoted scalars, the addresses of stack-allocated variables,
  and expression temporaries;
* control flow (``if``/loops/``break``/``continue``/``return``) is lowered
  to conditional jumps — no Python exceptions on the hot path;
* checkpoints and memory accesses become instructions that append raw
  ints to the shared :class:`~repro.sim.trace.TraceBuffer`.

The fusion pass (:func:`fuse_program`) rewrites common instruction pairs
into superinstructions, and :mod:`repro.sim.specialize` compiles the
fused program to Python; :class:`BytecodeVM` runs that specialization.

Trace parity: the lowering mirrors the tree-walker's evaluation order,
conversion rules and checkpoint placement exactly, so both engines produce
byte-identical traces and FORAY models (enforced by
``tests/test_engine_parity.py``). The one intentional difference is
:class:`RunStats` — both engines count a step per executed statement and
per loop iteration, but an aborted mid-statement run may stop at a
slightly different counter value.

The paper's *body-end* checkpoint fires on every body exit, including a
``return`` or ``exit()`` unwinding through the loop. Normal exits,
``break`` and ``continue`` compile to explicit checkpoint instructions;
for ``exit()`` (which unwinds the whole frame stack from inside a builtin)
each function carries a static table of its instrumented body regions, and
the VM replays the pending body-end checkpoints innermost-first from the
saved per-frame pcs.
"""

from __future__ import annotations

import struct
import sys
from dataclasses import dataclass, field
from types import FrameType
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.lang import ast_nodes as ast
from repro.lang.ctypes_ import (
    ArrayType,
    CType,
    FloatType,
    IntType,
    PointerType,
    StructType,
    decay,
)
from repro.lang.errors import MiniCRuntimeError
from repro.lang.semantics import Symbol
from repro.sim.builtins import ExitSignal
from repro.sim.inputs import InputSpec, InputStream
from repro.sim.memory import (
    GLOBAL_BASE,
    HEAP_BASE,
    BumpAllocator,
    Memory,
    StackAllocator,
)
from repro.sim.trace import (
    BODY_END_CODE,
    DEFAULT_TRACE_BLOCK,
    RunStats,
    TraceBuffer,
    TraceSink,
    load_pc,
    store_pc,
)

if TYPE_CHECKING:
    from repro.sim import specialize

#: One lowered instruction: ``(op, *operands)``. Operand shapes are
#: per-opcode (see the opcode table below), so the tuple stays loose.
_Ins = tuple[Any, ...]

# ---------------------------------------------------------------------------
# Opcodes.
# ---------------------------------------------------------------------------

(
    OP_STEP,        # (op, amount)
    OP_CONST,       # (op, dst, value)
    OP_MOV,         # (op, dst, src)
    OP_ELEM,        # (op, dst, base, index, elem_size)
    OP_MEMBOFF,     # (op, dst, base, offset)
    OP_LOAD_I,      # (op, dst, addr, off, size, fmt, signed, pc)
    OP_LOAD_F,      # (op, dst, addr, off, size, fmt, pc)
    OP_STORE_I,     # (op, addr, off, src, dst, size, mask, maxv, fmt, pc)
    OP_STORE_F,     # (op, addr, off, src, dst, size, fmt, pc)
    OP_STORE_P,     # (op, addr, off, src, dst, pc)
    OP_ADD_I,       # (op, dst, a, b, mask, maxv)
    OP_SUB_I,
    OP_MUL_I,
    OP_ADDK_I,      # (op, dst, a, imm, mask, maxv)
    OP_LT,          # (op, dst, a, b)
    OP_LE,
    OP_GT,
    OP_GE,
    OP_EQ,
    OP_NE,
    OP_JMP,         # (op, target)
    OP_JZ,          # (op, src, target)
    OP_JNZ,
    OP_CKPT,        # (op, checkpoint_id, kind_code)
    OP_ADD_P,       # (op, dst, ptr, idx, elem_size)
    OP_ADDK_P,      # (op, dst, a, scaled_imm)
    OP_ADD_F,       # (op, dst, a, b)
    OP_SUB_F,
    OP_MUL_F,
    OP_DIV_F,       # (op, dst, a, b, location)
    OP_DIV_I,       # (op, dst, a, b, mask, maxv, location)
    OP_MOD_I,
    OP_SHL,         # (op, dst, a, b, mask, maxv)
    OP_SHR,
    OP_AND,
    OP_OR,
    OP_XOR,
    OP_SUB_PI,      # (op, dst, ptr, idx, elem_size)
    OP_SUB_PP,      # (op, dst, a, b, elem_size)
    OP_ADDK_F,      # (op, dst, a, imm)
    OP_NEG_I,       # (op, dst, a, mask, maxv)
    OP_NEG_F,       # (op, dst, a)
    OP_NOT,         # (op, dst, a)
    OP_BNOT,        # (op, dst, a, mask, maxv)
    OP_CONV_I,      # (op, dst, src, mask, maxv)
    OP_CONV_F,      # (op, dst, src)
    OP_CONV_P,      # (op, dst, src)
    OP_CALL,        # (op, dst, function_name, arg_slots)
    OP_CALLB,       # (op, dst, builtin_name, arg_slots)
    OP_RET,         # (op, src)
    OP_RET0,        # (op,)
    OP_DECL,        # (op, slot, size, align)
    OP_ZFILL,       # (op, addr_slot, off, size)
    OP_WBYTES,      # (op, addr_slot, off, data)
    OP_STR,         # (op, dst, text)
    OP_GADDR,       # (op, dst, global_index)
) = range(56)

# Superinstructions produced by the fusion pass (:func:`fuse_function`),
# compiled to Python by :mod:`repro.sim.specialize`. Lowered code, and so
# ``globals_init``, never contains them.
(
    OP_LDELEM_I,    # (op, dst, base, index, elem_size, size, fmt, signed, pc)
    OP_LDELEM_F,    # (op, dst, base, index, elem_size, size, fmt, pc)
    OP_STELEM_I,    # (op, base, index, elem_size, src, dst, size, mask, maxv, fmt, pc)
    OP_STELEM_F,    # (op, base, index, elem_size, src, dst, size, fmt, pc)
    OP_STELEM_P,    # (op, base, index, elem_size, src, dst, pc)
    OP_BR,          # (op, cmp_op, a, b, target, jump_if_true)
) = range(56, 62)


def _int_conv(ctype: IntType) -> tuple[int, int]:
    """(mask, max_value) encoding of IntType.wrap; maxv == -1 → unsigned."""
    mask = (1 << (8 * ctype.byte_size)) - 1
    return mask, (ctype.max_value if ctype.signed else -1)


# struct formats for the single-page memory fast path. Instructions carry
# the format string (keeping them picklable for the multiprocess suite
# runner); the specializer binds the methods below.
_INT_LOAD_FMT = {
    (1, True): "<b", (1, False): "<B",
    (2, True): "<h", (2, False): "<H",
    (4, True): "<i", (4, False): "<I",
    (8, True): "<q", (8, False): "<Q",
}
_INT_STORE_FMT = {1: "<B", 2: "<H", 4: "<I", 8: "<Q"}
_FLOAT_FMT = {4: "<f", 8: "<d"}
_UNPACK = {
    fmt: struct.Struct(fmt).unpack_from
    for fmt in (*_INT_LOAD_FMT.values(), *_FLOAT_FMT.values())
}
_PACK = {
    fmt: struct.Struct(fmt).pack_into
    for fmt in (*_INT_STORE_FMT.values(), *_FLOAT_FMT.values())
}


def _c_div(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


def _stack_depth() -> int:
    """The number of Python frames on the calling thread's stack."""
    depth = 0
    frame: FrameType | None = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


# ---------------------------------------------------------------------------
# Compiled artifacts
# ---------------------------------------------------------------------------


@dataclass
class ParamSpec:
    """How one parameter of a bytecode function is bound at call time."""

    slot: int
    in_memory: bool
    ctype: CType
    # Conversion tag: 0 passthrough, 1 int-wrap, 2 float, 3 pointer-mask.
    conv: int
    mask: int = 0
    maxv: int = -1


@dataclass
class BytecodeFunction:
    name: str
    code: tuple[_Ins, ...] = ()
    n_slots: int = 0
    params: list[ParamSpec] = field(default_factory=list)
    returns_void: bool = False
    #: Static instrumented-body regions, innermost-last in program order:
    #: (start_pc, end_pc, body_end_id). Used to replay pending body-end
    #: checkpoints when exit() unwinds the frame stack.
    body_regions: tuple[tuple[int, int, int], ...] = ()


@dataclass
class BytecodeProgram:
    """The lowered program: one flat code object per function."""

    program: ast.Program
    functions: dict[str, BytecodeFunction]
    #: Globals in declaration order: (symbol, global_index).
    global_symbols: list[Symbol]
    #: Code run once per run, before the entry and with tracing off, to
    #: initialize globals.
    globals_init: BytecodeFunction
    #: Per-process derived caches, rebuilt on demand after unpickling
    #: (see :meth:`__getstate__`): the fused twin and its compiled
    #: specialization.
    _fused: "BytecodeProgram | None" = field(
        default=None, init=False, repr=False, compare=False)
    _specialization: "specialize.Specialization | None" = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def instruction_count(self) -> int:
        total = len(self.globals_init.code)
        return total + sum(len(fn.code) for fn in self.functions.values())

    def __getstate__(self) -> dict[str, Any]:
        # The fused twin and the compiled specialization are per-process
        # derived caches (the latter holds a code object); recompute them
        # after unpickling instead of shipping them across processes.
        state = dict(self.__dict__)
        state.pop("_fused", None)
        state.pop("_specialization", None)
        return state


# ---------------------------------------------------------------------------
# Lowering pass
# ---------------------------------------------------------------------------


@dataclass
class _LoopCtx:
    instrumented: bool
    body_end_id: int | None
    break_jumps: list[int]
    continue_target: int | None  # patched later when None at break/continue
    continue_jumps: list[int]


class _FunctionCompiler:
    """Lowers one function body to a flat instruction list."""

    def __init__(self, lowering: "ProgramLowering", name: str) -> None:
        self.lowering = lowering
        self.name = name
        self.code: list[list[Any]] = []
        self.slot_of: dict[Symbol, int] = {}
        self.n_locals = 0
        self.temp_sp = 0
        self.max_slots = 0
        self.loop_stack: list[_LoopCtx] = []
        self.body_regions: list[tuple[int, int, int]] = []

    # -- slot bookkeeping -------------------------------------------------

    def declare_local(self, symbol: Symbol) -> int:
        slot = self.slot_of.get(symbol)
        if slot is None:
            slot = self.n_locals
            self.slot_of[symbol] = slot
            self.n_locals += 1
        return slot

    def seal_locals(self) -> None:
        self.temp_sp = self.n_locals
        self.max_slots = max(self.max_slots, self.n_locals)

    def temp(self) -> int:
        slot = self.temp_sp
        self.temp_sp += 1
        if self.temp_sp > self.max_slots:
            self.max_slots = self.temp_sp
        return slot

    def mark(self) -> int:
        return self.temp_sp

    def release(self, mark: int) -> None:
        self.temp_sp = mark

    # -- emission ---------------------------------------------------------

    def emit(self, *ins: Any) -> int:
        self.code.append(list(ins))
        return len(self.code) - 1

    @property
    def here(self) -> int:
        return len(self.code)

    def patch_jump(self, at: int, target: int | None = None) -> None:
        ins = self.code[at]
        where = target if target is not None else self.here
        if ins[0] == OP_JMP:
            ins[1] = where
        else:  # OP_JZ / OP_JNZ
            ins[2] = where

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def compile_function(self, fn: ast.FunctionDef) -> BytecodeFunction:
        for param in fn.params:
            assert isinstance(param.symbol, Symbol)
            self.declare_local(param.symbol)
        for node in ast.walk(fn.body):
            if isinstance(node, ast.VarDecl):
                assert isinstance(node.symbol, Symbol)
                self.declare_local(node.symbol)
        self.seal_locals()

        params: list[ParamSpec] = []
        for param in fn.params:
            symbol = param.symbol
            spec = ParamSpec(
                slot=self.slot_of[symbol],
                in_memory=symbol.in_memory,
                ctype=symbol.ctype,
                conv=0,
            )
            if isinstance(symbol.ctype, IntType):
                spec.conv = 1
                spec.mask, spec.maxv = _int_conv(symbol.ctype)
            elif isinstance(symbol.ctype, FloatType):
                spec.conv = 2
            elif isinstance(symbol.ctype, PointerType):
                spec.conv = 3
            params.append(spec)

        for stmt in fn.body.stmts:
            self.compile_stmt(stmt)
        self.emit(OP_RET0)

        return BytecodeFunction(
            name=fn.name,
            code=tuple(tuple(ins) for ins in self.code),
            n_slots=self.max_slots,
            params=params,
            returns_void=fn.return_type.is_void,
            body_regions=tuple(self.body_regions),
        )

    def compile_stmt(self, stmt: ast.Stmt) -> None:
        # The tree-walker bumps the step counter once per executed
        # statement; OP_STEP mirrors that (and carries the budget check).
        self.emit(OP_STEP, 1)
        mark = self.mark()
        if isinstance(stmt, ast.DeclStmt):
            self._compile_decl(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            self.compile_expr(stmt.expr)
        elif isinstance(stmt, ast.EmptyStmt):
            pass
        elif isinstance(stmt, ast.Block):
            for inner in stmt.stmts:
                self.compile_stmt(inner)
        elif isinstance(stmt, ast.If):
            self._compile_if(stmt)
        elif isinstance(stmt, ast.For):
            self._compile_for(stmt)
        elif isinstance(stmt, ast.While):
            self._compile_while(stmt)
        elif isinstance(stmt, ast.DoWhile):
            self._compile_do_while(stmt)
        elif isinstance(stmt, ast.Return):
            self._compile_return(stmt)
        elif isinstance(stmt, ast.Break):
            self._compile_break(stmt)
        elif isinstance(stmt, ast.Continue):
            self._compile_continue(stmt)
        else:  # pragma: no cover - defensive
            raise MiniCRuntimeError(
                f"cannot lower {type(stmt).__name__}", stmt.location
            )
        self.release(mark)

    def _compile_decl(self, stmt: ast.DeclStmt) -> None:
        for decl in stmt.decls:
            symbol = decl.symbol
            assert isinstance(symbol, Symbol)
            slot = self.slot_of[symbol]
            if symbol.in_memory:
                self.emit(OP_DECL, slot, symbol.ctype.size,
                          symbol.ctype.alignment)
                if decl.init is not None:
                    self._compile_init_object(slot, 0, symbol.ctype,
                                              decl.init, traced=True)
                else:
                    # Fresh stack storage starts zeroed (deterministic runs).
                    self.emit(OP_ZFILL, slot, 0, symbol.ctype.size)
            else:
                mark = self.mark()
                if decl.init is not None:
                    value = self.compile_expr(decl.init)
                else:
                    value = self.temp()
                    self.emit(OP_CONST, value,
                              0.0 if symbol.ctype.is_float else 0)
                self._emit_convert(slot, value, symbol.ctype)
                self.release(mark)

    def _compile_init_object(self, addr_slot: int, offset: int, ctype: CType,
                             init: ast.Expr, traced: bool) -> None:
        """Lower an initializer write (recursively for brace lists).

        Mirrors ``Interpreter._init_object``: traced element stores for
        local declarations, silent writes for global initialization.
        """
        if isinstance(init, ast.Call) and init.name == "__init_list__":
            if isinstance(ctype, ArrayType):
                element = ctype.element
                for index, item in enumerate(init.args[: ctype.length]):
                    self._compile_init_object(
                        addr_slot, offset + index * element.size, element,
                        item, traced)
                used = min(len(init.args), ctype.length) * element.size
                if ctype.size - used:
                    self.emit(OP_ZFILL, addr_slot, offset + used,
                              ctype.size - used)
            elif isinstance(ctype, StructType):
                self.emit(OP_ZFILL, addr_slot, offset, ctype.size)
                for item, member in zip(init.args, ctype.members):
                    self._compile_init_object(
                        addr_slot, offset + member.offset, member.ctype,
                        item, traced)
            else:
                raise MiniCRuntimeError("brace initializer on a scalar",
                                        init.location)
            return
        if isinstance(init, ast.StringLiteral) and isinstance(ctype, ArrayType):
            data = init.value.encode("latin-1", errors="replace") + b"\0"
            data = data[: ctype.length].ljust(ctype.length, b"\0")
            self.emit(OP_WBYTES, addr_slot, offset, bytes(data))
            return
        mark = self.mark()
        value = self.compile_expr(init)
        pc = store_pc(init.node_id) if traced else -1
        self._emit_store(addr_slot, offset, value, self.temp(), ctype, pc)
        self.release(mark)

    def _compile_if(self, stmt: ast.If) -> None:
        mark = self.mark()
        cond = self.compile_expr(stmt.cond)
        self.release(mark)
        jz = self.emit(OP_JZ, cond, -1)
        self.compile_stmt(stmt.then_stmt)
        if stmt.else_stmt is not None:
            jend = self.emit(OP_JMP, -1)
            self.patch_jump(jz)
            self.compile_stmt(stmt.else_stmt)
            self.patch_jump(jend)
        else:
            self.patch_jump(jz)

    def _push_loop(self, stmt: ast.Loop) -> _LoopCtx:
        ctx = _LoopCtx(
            instrumented=stmt.is_instrumented,
            body_end_id=stmt.body_end_id,
            break_jumps=[],
            continue_target=None,
            continue_jumps=[],
        )
        self.loop_stack.append(ctx)
        return ctx

    def _compile_loop_body(self, stmt: ast.Loop, ctx: _LoopCtx) -> int:
        """Body + the normal body-end checkpoint; returns the pc of the
        body-end point (continue target for for/do loops)."""
        body_start = self.here
        self.compile_stmt(stmt.body)
        body_end_pc = self.here
        for jump in ctx.continue_jumps:
            self.patch_jump(jump, body_end_pc)
        if ctx.instrumented:
            self.emit(OP_CKPT, stmt.body_end_id, BODY_END_CODE)
            self.body_regions.append((body_start, body_end_pc,
                                      stmt.body_end_id))
        return body_end_pc

    def _compile_for(self, stmt: ast.For) -> None:
        if stmt.is_instrumented:
            self.emit(OP_CKPT, stmt.begin_id, 0)
        if stmt.init is not None:
            self.compile_stmt(stmt.init)
        ctx = self._push_loop(stmt)
        cond_pc = self.here
        exit_jz = None
        if stmt.cond is not None:
            mark = self.mark()
            cond = self.compile_expr(stmt.cond)
            self.release(mark)
            exit_jz = self.emit(OP_JZ, cond, -1)
        self.emit(OP_STEP, 1)  # per-iteration bump, like the tree-walker
        if stmt.is_instrumented:
            self.emit(OP_CKPT, stmt.body_begin_id, 1)
        self._compile_loop_body(stmt, ctx)
        if stmt.step is not None:
            mark = self.mark()
            self.compile_expr(stmt.step)
            self.release(mark)
        self.emit(OP_JMP, cond_pc)
        if exit_jz is not None:
            self.patch_jump(exit_jz)
        for jump in ctx.break_jumps:
            self.patch_jump(jump)
        self.loop_stack.pop()

    def _compile_while(self, stmt: ast.While) -> None:
        if stmt.is_instrumented:
            self.emit(OP_CKPT, stmt.begin_id, 0)
        ctx = self._push_loop(stmt)
        cond_pc = self.here
        mark = self.mark()
        cond = self.compile_expr(stmt.cond)
        self.release(mark)
        exit_jz = self.emit(OP_JZ, cond, -1)
        self.emit(OP_STEP, 1)
        if stmt.is_instrumented:
            self.emit(OP_CKPT, stmt.body_begin_id, 1)
        self._compile_loop_body(stmt, ctx)
        self.emit(OP_JMP, cond_pc)
        self.patch_jump(exit_jz)
        for jump in ctx.break_jumps:
            self.patch_jump(jump)
        self.loop_stack.pop()

    def _compile_do_while(self, stmt: ast.DoWhile) -> None:
        if stmt.is_instrumented:
            self.emit(OP_CKPT, stmt.begin_id, 0)
        ctx = self._push_loop(stmt)
        top_pc = self.here
        self.emit(OP_STEP, 1)
        if stmt.is_instrumented:
            self.emit(OP_CKPT, stmt.body_begin_id, 1)
        self._compile_loop_body(stmt, ctx)
        mark = self.mark()
        cond = self.compile_expr(stmt.cond)
        self.release(mark)
        self.emit(OP_JNZ, cond, top_pc)
        for jump in ctx.break_jumps:
            self.patch_jump(jump)
        self.loop_stack.pop()

    def _compile_return(self, stmt: ast.Return) -> None:
        mark = self.mark()
        value = self.compile_expr(stmt.expr) if stmt.expr is not None else None
        # A return unwinds through every enclosing loop body; the cleanup
        # body-end checkpoints fire innermost-first, after the return value
        # has been evaluated (matching the tree-walker's order).
        for ctx in reversed(self.loop_stack):
            if ctx.instrumented:
                self.emit(OP_CKPT, ctx.body_end_id, BODY_END_CODE)
        if value is None:
            self.emit(OP_RET0)
        else:
            self.emit(OP_RET, value)
        self.release(mark)

    def _compile_break(self, stmt: ast.Break) -> None:
        if not self.loop_stack:  # pragma: no cover - semantics rejects
            raise MiniCRuntimeError("break outside loop", stmt.location)
        ctx = self.loop_stack[-1]
        if ctx.instrumented:
            self.emit(OP_CKPT, ctx.body_end_id, BODY_END_CODE)
        ctx.break_jumps.append(self.emit(OP_JMP, -1))

    def _compile_continue(self, stmt: ast.Continue) -> None:
        if not self.loop_stack:  # pragma: no cover - semantics rejects
            raise MiniCRuntimeError("continue outside loop", stmt.location)
        ctx = self.loop_stack[-1]
        # Jump to the normal body-end point: the body-end checkpoint fires
        # there exactly once, then the loop proceeds to step/condition.
        ctx.continue_jumps.append(self.emit(OP_JMP, -1))

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def compile_expr(self, expr: ast.Expr) -> int:
        """Lower ``expr``; returns the slot holding its value.

        The returned slot may alias a local variable slot (never a
        temporary that a later sibling could clobber); callers that
        evaluate other side-effecting code before consuming the value must
        go through :meth:`compile_operand`.
        """
        if isinstance(expr, ast.IntLiteral):
            t = self.temp()
            self.emit(OP_CONST, t, expr.value)
            return t
        if isinstance(expr, ast.FloatLiteral):
            t = self.temp()
            self.emit(OP_CONST, t, expr.value)
            return t
        if isinstance(expr, ast.StringLiteral):
            t = self.temp()
            self.emit(OP_STR, t, expr.value)
            return t
        if isinstance(expr, ast.Identifier):
            return self._compile_identifier(expr)
        if isinstance(expr, ast.Unary):
            return self._compile_unary(expr)
        if isinstance(expr, ast.IncDec):
            return self._compile_incdec(expr)
        if isinstance(expr, ast.Binary):
            return self._compile_binary(expr)
        if isinstance(expr, ast.Assign):
            return self._compile_assign(expr)
        if isinstance(expr, ast.Ternary):
            return self._compile_ternary(expr)
        if isinstance(expr, ast.Call):
            return self._compile_call(expr)
        if isinstance(expr, ast.Index):
            addr = self._compile_element_addr(expr)
            assert expr.ctype is not None
            if expr.ctype.is_array or expr.ctype.is_struct:
                return addr
            return self._emit_load(addr, 0, expr.ctype, load_pc(expr.node_id))
        if isinstance(expr, ast.Member):
            addr = self._compile_member_addr(expr)
            assert expr.ctype is not None
            if expr.ctype.is_array or expr.ctype.is_struct:
                return addr
            return self._emit_load(addr, 0, expr.ctype, load_pc(expr.node_id))
        if isinstance(expr, ast.Cast):
            value = self.compile_expr(expr.operand)
            t = self.temp()
            self._emit_convert(t, value, expr.target_type)
            return t
        if isinstance(expr, ast.SizeofType):
            t = self.temp()
            self.emit(OP_CONST, t, expr.queried_type.size)
            return t
        if isinstance(expr, ast.SizeofExpr):
            assert expr.operand.ctype is not None
            t = self.temp()
            self.emit(OP_CONST, t, expr.operand.ctype.size)
            return t
        raise MiniCRuntimeError(  # pragma: no cover - defensive
            f"cannot lower {type(expr).__name__}", expr.location)

    def compile_operand(self, expr: ast.Expr, hazard: bool) -> int:
        """Like :meth:`compile_expr`, but copies variable aliases to a
        temporary when a later-evaluated sibling could write registers."""
        slot = self.compile_expr(expr)
        if hazard and slot < self.n_locals:
            t = self.temp()
            self.emit(OP_MOV, t, slot)
            return t
        return slot

    @staticmethod
    def _writes_registers(expr: ast.Expr) -> bool:
        """Conservative: does evaluating ``expr`` write any register slot?

        Calls cannot touch the caller's registers, so only assignments and
        ++/-- anywhere inside the expression matter.
        """
        return any(
            isinstance(node, (ast.Assign, ast.IncDec))
            for node in ast.walk(expr)
        )

    # -- identifiers, lvalues, addresses -------------------------------------

    def _compile_identifier(self, expr: ast.Identifier) -> int:
        symbol = expr.symbol
        assert isinstance(symbol, Symbol)
        if not symbol.in_memory:
            return self.slot_of[symbol]
        addr = self._compile_symbol_addr(symbol)
        if symbol.ctype.is_array or symbol.ctype.is_struct:
            return addr  # aggregates evaluate to their address (decay)
        return self._emit_load(addr, 0, symbol.ctype, load_pc(expr.node_id))

    def _compile_symbol_addr(self, symbol: Symbol) -> int:
        if symbol.storage == "global":
            t = self.temp()
            self.emit(OP_GADDR, t, self.lowering.global_index[symbol])
            return t
        slot = self.slot_of.get(symbol)
        if slot is None:  # pragma: no cover - semantics guarantees storage
            raise MiniCRuntimeError(f"variable {symbol.name!r} has no storage")
        return slot  # the slot holds the stack address assigned by OP_DECL

    def _compile_element_addr(self, expr: ast.Index) -> int:
        base = self.compile_operand(
            expr.base, hazard=self._writes_registers(expr.index))
        index = self.compile_expr(expr.index)
        assert expr.ctype is not None
        t = self.temp()
        self.emit(OP_ELEM, t, base, index, expr.ctype.size)
        return t

    def _compile_member_addr(self, expr: ast.Member) -> int:
        base = self.compile_expr(expr.base)
        base_type = expr.base.ctype
        assert base_type is not None
        if expr.is_arrow:
            struct = decay(base_type).pointee  # type: ignore[attr-defined]
        else:
            struct = base_type
        assert isinstance(struct, StructType)
        t = self.temp()
        self.emit(OP_MEMBOFF, t, base, struct.member(expr.name).offset)
        return t

    def _compile_lvalue(self, expr: ast.Expr) -> tuple[str, int]:
        """("r", var_slot) for register variables or ("m", addr_slot)."""
        if isinstance(expr, ast.Identifier):
            symbol = expr.symbol
            assert isinstance(symbol, Symbol)
            if not symbol.in_memory:
                return ("r", self.slot_of[symbol])
            return ("m", self._compile_symbol_addr(symbol))
        if isinstance(expr, ast.Index):
            return ("m", self._compile_element_addr(expr))
        if isinstance(expr, ast.Member):
            return ("m", self._compile_member_addr(expr))
        if isinstance(expr, ast.Unary) and expr.op == "*":
            operand = self.compile_expr(expr.operand)
            t = self.temp()
            self.emit(OP_MEMBOFF, t, operand, 0)  # masks the address
            return ("m", t)
        raise MiniCRuntimeError("expression is not an lvalue", expr.location)

    # -- loads, stores, conversions ------------------------------------------

    def _emit_load(self, addr_slot: int, offset: int, ctype: CType,
                   pc: int) -> int:
        t = self.temp()
        if isinstance(ctype, IntType):
            self.emit(OP_LOAD_I, t, addr_slot, offset, ctype.size,
                      _INT_LOAD_FMT[(ctype.size, ctype.signed)],
                      ctype.signed, pc)
        elif isinstance(ctype, FloatType):
            self.emit(OP_LOAD_F, t, addr_slot, offset, ctype.size,
                      _FLOAT_FMT[ctype.size], pc)
        elif isinstance(ctype, PointerType):
            self.emit(OP_LOAD_I, t, addr_slot, offset, ctype.size,
                      _INT_LOAD_FMT[(ctype.size, False)], False, pc)
        else:
            raise MiniCRuntimeError(f"cannot load a value of type {ctype}")
        return t

    def _emit_store(self, addr_slot: int, offset: int, src: int, dst: int,
                    ctype: CType, pc: int) -> int:
        """Convert + write + trace; ``dst`` receives the converted value
        (the value of the assignment expression). ``pc < 0`` disables the
        trace record (global initialization)."""
        if isinstance(ctype, IntType):
            mask, maxv = _int_conv(ctype)
            self.emit(OP_STORE_I, addr_slot, offset, src, dst, ctype.size,
                      mask, maxv, _INT_STORE_FMT[ctype.size], pc)
        elif isinstance(ctype, FloatType):
            self.emit(OP_STORE_F, addr_slot, offset, src, dst, ctype.size,
                      _FLOAT_FMT[ctype.size], pc)
        elif isinstance(ctype, PointerType):
            self.emit(OP_STORE_P, addr_slot, offset, src, dst, pc)
        else:
            raise MiniCRuntimeError(f"cannot store a value of type {ctype}")
        return dst

    def _emit_convert(self, dst: int, src: int, ctype: CType) -> None:
        if isinstance(ctype, IntType):
            mask, maxv = _int_conv(ctype)
            self.emit(OP_CONV_I, dst, src, mask, maxv)
        elif isinstance(ctype, FloatType):
            self.emit(OP_CONV_F, dst, src)
        elif isinstance(ctype, PointerType):
            self.emit(OP_CONV_P, dst, src)
        elif dst != src:
            self.emit(OP_MOV, dst, src)

    # -- operators ---------------------------------------------------------

    def _compile_unary(self, expr: ast.Unary) -> int:
        op = expr.op
        if op == "*":
            operand = self.compile_expr(expr.operand)
            assert expr.ctype is not None
            if expr.ctype.is_array or expr.ctype.is_struct:
                t = self.temp()
                self.emit(OP_MEMBOFF, t, operand, 0)
                return t
            return self._emit_load(operand, 0, expr.ctype,
                                   load_pc(expr.node_id))
        if op == "&":
            kind, ref = self._compile_lvalue(expr.operand)
            if kind == "r":  # pragma: no cover - semantics forces memory
                raise MiniCRuntimeError("address of a register variable",
                                        expr.location)
            return ref
        value = self.compile_expr(expr.operand)
        t = self.temp()
        if op == "-":
            if isinstance(expr.ctype, FloatType):
                self.emit(OP_NEG_F, t, value)
            else:
                assert isinstance(expr.ctype, IntType)
                mask, maxv = _int_conv(expr.ctype)
                self.emit(OP_NEG_I, t, value, mask, maxv)
        elif op == "+":
            return value  # no conversion, like the tree-walker
        elif op == "!":
            self.emit(OP_NOT, t, value)
        elif op == "~":
            assert isinstance(expr.ctype, IntType)
            mask, maxv = _int_conv(expr.ctype)
            self.emit(OP_BNOT, t, value, mask, maxv)
        else:  # pragma: no cover - parser limits the operator set
            raise MiniCRuntimeError(f"unknown unary {op!r}", expr.location)
        return t

    def _compile_incdec(self, expr: ast.IncDec) -> int:
        ctype = expr.operand.ctype
        assert ctype is not None
        step = 1
        if isinstance(ctype, PointerType):
            step = max(1, ctype.pointee.size)
        if expr.op == "--":
            step = -step
        kind, ref = self._compile_lvalue(expr.operand)
        if kind == "r":
            result = None
            if expr.is_postfix:
                result = self.temp()
                self.emit(OP_MOV, result, ref)
            self._emit_addk(ref, ref, step, ctype)
            return result if result is not None else ref
        old = self._emit_load(ref, 0, ctype, load_pc(expr.operand.node_id))
        new = self.temp()
        self._emit_addk(new, old, step, ctype)
        converted = self._emit_store(ref, 0, new, self.temp(), ctype,
                                     store_pc(expr.operand.node_id))
        return old if expr.is_postfix else converted

    def _emit_addk(self, dst: int, src: int, imm: int, ctype: CType) -> None:
        if isinstance(ctype, PointerType):
            self.emit(OP_ADDK_P, dst, src, imm)
        elif isinstance(ctype, FloatType):
            self.emit(OP_ADDK_F, dst, src, imm)
        else:
            assert isinstance(ctype, IntType)
            mask, maxv = _int_conv(ctype)
            self.emit(OP_ADDK_I, dst, src, imm, mask, maxv)

    _COMPARE_OPS = {"==": OP_EQ, "!=": OP_NE, "<": OP_LT, ">": OP_GT,
                    "<=": OP_LE, ">=": OP_GE}

    def _compile_binary(self, expr: ast.Binary) -> int:
        op = expr.op
        if op in ("&&", "||"):
            return self._compile_logical(expr)
        left = self.compile_operand(
            expr.left, hazard=self._writes_registers(expr.right))
        right = self.compile_expr(expr.right)
        t = self.temp()
        cmp_op = self._COMPARE_OPS.get(op)
        if cmp_op is not None:
            self.emit(cmp_op, t, left, right)
            return t
        self._emit_binop(t, op, left, right, expr.left.ctype,
                         expr.right.ctype, expr.ctype, expr.location)
        return t

    def _emit_binop(self, dst: int, op: str, left: int, right: int,
                    left_ctype: CType, right_ctype: CType,
                    result_ctype: CType,
                    location: ast.SourceLocation) -> None:
        """Arithmetic lowering shared by binary operators and compound
        assignment (where ``result_ctype`` is the lvalue's type)."""
        left_type = decay(left_ctype)
        right_type = decay(right_ctype)
        if op == "+":
            if left_type.is_pointer:
                self.emit(OP_ADD_P, dst, left, right, left_type.pointee.size)
            elif right_type.is_pointer:
                self.emit(OP_ADD_P, dst, right, left, right_type.pointee.size)
            elif isinstance(result_ctype, FloatType):
                self.emit(OP_ADD_F, dst, left, right)
            else:
                assert isinstance(result_ctype, IntType)
                self.emit(OP_ADD_I, dst, left, right, *_int_conv(result_ctype))
            return
        if op == "-":
            if left_type.is_pointer and right_type.is_pointer:
                self.emit(OP_SUB_PP, dst, left, right,
                          left_type.pointee.size)
            elif left_type.is_pointer:
                self.emit(OP_SUB_PI, dst, left, right,
                          left_type.pointee.size)
            elif isinstance(result_ctype, FloatType):
                self.emit(OP_SUB_F, dst, left, right)
            else:
                assert isinstance(result_ctype, IntType)
                self.emit(OP_SUB_I, dst, left, right, *_int_conv(result_ctype))
            return
        if op == "*":
            if isinstance(result_ctype, FloatType):
                self.emit(OP_MUL_F, dst, left, right)
            else:
                assert isinstance(result_ctype, IntType)
                self.emit(OP_MUL_I, dst, left, right, *_int_conv(result_ctype))
            return
        if op == "/":
            if isinstance(result_ctype, FloatType):
                self.emit(OP_DIV_F, dst, left, right, location)
            else:
                assert isinstance(result_ctype, IntType)
                mask, maxv = _int_conv(result_ctype)
                self.emit(OP_DIV_I, dst, left, right, mask, maxv, location)
            return
        simple = {"%": OP_MOD_I, "<<": OP_SHL, ">>": OP_SHR,
                  "&": OP_AND, "|": OP_OR, "^": OP_XOR}.get(op)
        if simple is None:  # pragma: no cover - parser limits the set
            raise MiniCRuntimeError(f"unknown binary {op!r}", location)
        assert isinstance(result_ctype, IntType)
        mask, maxv = _int_conv(result_ctype)
        if simple == OP_MOD_I:
            self.emit(OP_MOD_I, dst, left, right, mask, maxv, location)
        else:
            self.emit(simple, dst, left, right, mask, maxv)

    def _compile_logical(self, expr: ast.Binary) -> int:
        dst = self.temp()
        mark = self.mark()
        left = self.compile_expr(expr.left)
        if expr.op == "&&":
            self.emit(OP_CONST, dst, 0)
            short = self.emit(OP_JZ, left, -1)
        else:
            self.emit(OP_CONST, dst, 1)
            short = self.emit(OP_JNZ, left, -1)
        self.release(mark)
        mark = self.mark()
        right = self.compile_expr(expr.right)
        self.release(mark)
        self.emit(OP_NOT, dst, right)  # dst = !right
        self.emit(OP_NOT, dst, dst)   # dst = !!right  (0/1 of truthiness)
        self.patch_jump(short)
        return dst

    def _compile_assign(self, expr: ast.Assign) -> int:
        target_type = expr.target.ctype
        assert target_type is not None
        kind, ref = self._compile_lvalue(expr.target)
        if expr.op == "":
            value = self.compile_expr(expr.value)
            if kind == "r":
                self._emit_convert(ref, value, target_type)
                return ref
            return self._emit_store(ref, 0, value, self.temp(), target_type,
                                    store_pc(expr.target.node_id))
        # Compound: read old, apply, write back. Intermediate wrapping with
        # the lvalue's own type is idempotent with the write conversion, so
        # the specialized opcodes reproduce the tree-walker's raw-then-
        # convert semantics exactly.
        if kind == "r":
            old = self.compile_operand(
                expr.target, hazard=self._writes_registers(expr.value))
        else:
            old = self._emit_load(ref, 0, target_type,
                                  load_pc(expr.target.node_id))
        rhs = self.compile_expr(expr.value)
        t = self.temp()
        self._emit_compound(t, expr.op, old, rhs, target_type, expr.location)
        if kind == "r":
            self._emit_convert(ref, t, target_type)
            return ref
        return self._emit_store(ref, 0, t, self.temp(), target_type,
                                store_pc(expr.target.node_id))

    def _compile_ternary(self, expr: ast.Ternary) -> int:
        dst = self.temp()
        mark = self.mark()
        cond = self.compile_expr(expr.cond)
        self.release(mark)
        jz = self.emit(OP_JZ, cond, -1)
        mark = self.mark()
        then_value = self.compile_expr(expr.then_expr)
        self.emit(OP_MOV, dst, then_value)
        self.release(mark)
        jend = self.emit(OP_JMP, -1)
        self.patch_jump(jz)
        mark = self.mark()
        else_value = self.compile_expr(expr.else_expr)
        self.emit(OP_MOV, dst, else_value)
        self.release(mark)
        self.patch_jump(jend)
        return dst

    def _emit_compound(self, dst: int, op: str, old: int, rhs: int,
                       target_type: CType,
                       location: ast.SourceLocation) -> None:
        if isinstance(target_type, PointerType) and op in ("+", "-"):
            if op == "+":
                self.emit(OP_ADD_P, dst, old, rhs, target_type.pointee.size)
            else:
                self.emit(OP_SUB_PI, dst, old, rhs, target_type.pointee.size)
            return
        self._emit_binop(dst, op, old, rhs, target_type, target_type,
                         target_type, location)

    def _compile_call(self, expr: ast.Call) -> int:
        arg_slots = []
        for index, arg in enumerate(expr.args):
            hazard = any(self._writes_registers(later)
                         for later in expr.args[index + 1:])
            arg_slots.append(self.compile_operand(arg, hazard))
        dst = self.temp()
        if expr.is_builtin:
            self.emit(OP_CALLB, dst, expr.name, tuple(arg_slots))
        else:
            self.emit(OP_CALL, dst, expr.name, tuple(arg_slots))
        return dst


class ProgramLowering:
    """Compiles an analyzed program into a :class:`BytecodeProgram`."""

    def __init__(self, program: ast.Program) -> None:
        self.program = program
        self.global_index: dict[Symbol, int] = {}
        self.global_symbols: list[Symbol] = []

    def lower(self) -> BytecodeProgram:
        for decl_stmt in self.program.globals:
            for decl in decl_stmt.decls:
                symbol = decl.symbol
                assert isinstance(symbol, Symbol)
                self.global_index[symbol] = len(self.global_symbols)
                self.global_symbols.append(symbol)

        functions = {
            fn.name: _FunctionCompiler(self, fn.name).compile_function(fn)
            for fn in self.program.functions
        }
        return BytecodeProgram(
            program=self.program,
            functions=functions,
            global_symbols=self.global_symbols,
            globals_init=self._lower_globals_init(),
        )

    def _lower_globals_init(self) -> BytecodeFunction:
        """Initializer writes for all globals, in declaration order.

        Runs before the entry function with tracing off — like program
        load in a real system — after every global has its address (so
        ``char *p = q;`` can reference a later-declared array).
        """
        compiler = _FunctionCompiler(self, "__globals_init__")
        compiler.seal_locals()
        for decl_stmt in self.program.globals:
            for decl in decl_stmt.decls:
                if decl.init is None:
                    continue
                symbol = decl.symbol
                mark = compiler.mark()
                addr = compiler.temp()
                compiler.emit(OP_GADDR, addr, self.global_index[symbol])
                compiler._compile_init_object(addr, 0, symbol.ctype,
                                              decl.init, traced=False)
                compiler.release(mark)
        compiler.emit(OP_RET0)
        return BytecodeFunction(
            name="__globals_init__",
            code=tuple(tuple(ins) for ins in compiler.code),
            n_slots=compiler.max_slots,
            returns_void=True,
        )


def lower_program(program: ast.Program) -> BytecodeProgram:
    """Lower an analyzed (and optionally instrumented) program."""
    return ProgramLowering(program).lower()


# ---------------------------------------------------------------------------
# The virtual machine
# ---------------------------------------------------------------------------


class BytecodeVM:
    """Executes one lowered program. Create a fresh instance per run.

    Every run executes the program's specialization (the fused bytecode
    compiled to Python by :mod:`repro.sim.specialize`), global
    initializers included. Exposes the same builtin facade as the
    tree-walking interpreter (``memory`` / ``write_stdout`` /
    ``heap_alloc`` / ``lib_trace`` plus the deterministic ``rand_state``
    / ``input_stream``), so :mod:`repro.sim.builtins` runs unchanged on
    both engines.
    """

    def __init__(
        self,
        bytecode: BytecodeProgram,
        sinks: tuple[TraceSink, ...] = (),
        max_steps: int = 200_000_000,
        max_call_depth: int = 512,
        trace_block_size: int = DEFAULT_TRACE_BLOCK,
        input_spec: InputSpec | None = None,
    ) -> None:
        self.bytecode = bytecode
        self.program = bytecode.program
        self._max_steps = max_steps
        self._max_call_depth = max_call_depth
        self.stats = RunStats()
        self._trace = TraceBuffer(sinks, trace_block_size, self.stats)
        self.lib_trace = self._trace.lib_trace

        self.memory = Memory()
        self._globals_alloc = BumpAllocator(GLOBAL_BASE)
        self._heap_alloc = BumpAllocator(HEAP_BASE)
        self._stack = StackAllocator()
        self._string_pool: dict[str, int] = {}
        self._global_addrs: list[int] = [
            self._globals_alloc.allocate(symbol.ctype.size,
                                         symbol.ctype.alignment)
            for symbol in bytecode.global_symbols
        ]
        self.stdout = ""
        self.rand_state = 1  # deterministic rand() seed
        #: Sample source of the read_samples() builtin (seeded ensemble).
        self.input_stream = InputStream(input_spec)

    # ------------------------------------------------------------------
    # Builtin facade (used by repro.sim.builtins)
    # ------------------------------------------------------------------

    def write_stdout(self, text: str) -> None:
        self.stdout += text

    def heap_alloc(self, size: int) -> int:
        return self._heap_alloc.allocate(max(1, size))

    def _intern_string(self, text: str) -> int:
        addr = self._string_pool.get(text)
        if addr is None:
            data = text.encode("latin-1", errors="replace") + b"\0"
            addr = self._globals_alloc.allocate(len(data), 1)
            self.memory.write_bytes(addr, data)
            self._string_pool[text] = addr
        return addr

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, entry: str = "main") -> int:
        """Run the global initializers (tracing off), then ``entry``
        (tracing on); return the exit code."""
        if entry not in self.bytecode.functions:
            raise MiniCRuntimeError(f"no entry function {entry!r}")
        from repro.sim.specialize import get_specialization

        spec = get_specialization(self.bytecode)
        env = spec.bind(self)
        # Simulated calls become nested Python calls here, each adding at
        # most ``spec.frames_per_call`` frames. The limit covers the
        # frames already on the stack plus the deepest simulated call
        # chain the depth budget allows, with slack for a builtin or an
        # unwind at the bottom, so the budget's own error always fires
        # before Python's.
        limit = sys.getrecursionlimit()
        needed = (_stack_depth() + 200
                  + spec.frames_per_call * self._max_call_depth)
        if limit < needed:
            sys.setrecursionlimit(needed)
        trace = self._trace
        steps, depth = env["_S"], env["_D"]
        try:
            if spec.init_driver is not None:
                # The initializers run inside no simulated call, as on
                # the AST oracle: the calls they make get the whole
                # depth budget, where an entry's callees share it with
                # the entry's own frame.
                depth[0] = -1
                env[spec.init_driver]()
                depth[0] = 0
            trace.flush()  # drops the initializers' traffic
            self.stats.calls += 1
            trace.tracing = True
            result = env[spec.drivers[entry]]()
        except ExitSignal as signal:
            return signal.code
        finally:
            self.stats.steps = steps[0]
            trace.flush()
            trace.tracing = False
            if sys.getrecursionlimit() != limit:
                sys.setrecursionlimit(limit)
        return int(result) if result is not None else 0

    def _pending_body_ends_one(
        self, regions: Iterable[tuple[int, int, int]], frame_pc: int,
    ) -> None:
        """Replay one frame's pending body-end checkpoints, innermost
        first. The specialized drivers call this per frame as ``exit()``
        unwinds the simulated call stack, in the order the tree-walker
        emits them on ``exit()``."""
        trace = self._trace
        if not trace.tracing:
            return
        open_regions = [
            (start, body_end_id)
            for start, end, body_end_id in regions
            if start <= frame_pc < end
        ]
        # Packed as in repro.sim.trace.pack_checkpoint: len(acc) is 4·pos.
        event = (len(trace.acc) | BODY_END_CODE) << 32
        for _, body_end_id in sorted(open_regions, reverse=True):
            trace.cps.append(event | body_end_id)


# ---------------------------------------------------------------------------
# Superinstruction fusion pass
#
# A peephole rewriter over the lowered code: the address-compute /
# load/store idiom (ELEM or ADD_P feeding a LOAD/STORE at offset 0),
# constant-index addressing, member-offset chains, compare-and-branch
# pairs and adjacent step counters each collapse into one
# superinstruction. Fusion is applied only when the intermediate register
# is provably dead afterwards (backward liveness over register bitmasks),
# so the visible machine state — memory, trace stream, stats, register
# file at every observation point — is unchanged. Fused code exists for
# the block compiler (:mod:`repro.sim.specialize`), which turns each
# superinstruction into one straight-line Python statement writing
# directly into the flat column buffer.
# ---------------------------------------------------------------------------

#: Register-read operand positions per opcode. OP_CALL/OP_CALLB read the
#: slot *list* in ins[3] and are special-cased in :func:`_liveness`.
_READS: dict[int, tuple[int, ...]] = {
    OP_STEP: (), OP_CONST: (), OP_MOV: (2,), OP_ELEM: (2, 3),
    OP_MEMBOFF: (2,), OP_LOAD_I: (2,), OP_LOAD_F: (2,),
    OP_STORE_I: (1, 3), OP_STORE_F: (1, 3), OP_STORE_P: (1, 3),
    OP_ADD_I: (2, 3), OP_SUB_I: (2, 3), OP_MUL_I: (2, 3), OP_ADDK_I: (2,),
    OP_LT: (2, 3), OP_LE: (2, 3), OP_GT: (2, 3), OP_GE: (2, 3),
    OP_EQ: (2, 3), OP_NE: (2, 3),
    OP_JMP: (), OP_JZ: (1,), OP_JNZ: (1,), OP_CKPT: (),
    OP_ADD_P: (2, 3), OP_ADDK_P: (2,),
    OP_ADD_F: (2, 3), OP_SUB_F: (2, 3), OP_MUL_F: (2, 3), OP_DIV_F: (2, 3),
    OP_DIV_I: (2, 3), OP_MOD_I: (2, 3),
    OP_SHL: (2, 3), OP_SHR: (2, 3), OP_AND: (2, 3), OP_OR: (2, 3),
    OP_XOR: (2, 3), OP_SUB_PI: (2, 3), OP_SUB_PP: (2, 3), OP_ADDK_F: (2,),
    OP_NEG_I: (2,), OP_NEG_F: (2,), OP_NOT: (2,), OP_BNOT: (2,),
    OP_CONV_I: (2,), OP_CONV_F: (2,), OP_CONV_P: (2,),
    OP_RET: (1,), OP_RET0: (),
    OP_DECL: (), OP_ZFILL: (1,), OP_WBYTES: (1,), OP_STR: (), OP_GADDR: (),
    OP_LDELEM_I: (2, 3), OP_LDELEM_F: (2, 3),
    OP_STELEM_I: (1, 2, 4), OP_STELEM_F: (1, 2, 4), OP_STELEM_P: (1, 2, 4),
    OP_BR: (2, 3),
}

#: Written operand position per opcode (absent → no register write).
_WRITES: dict[int, int] = {
    OP_CONST: 1, OP_MOV: 1, OP_ELEM: 1, OP_MEMBOFF: 1,
    OP_LOAD_I: 1, OP_LOAD_F: 1,
    OP_STORE_I: 4, OP_STORE_F: 4, OP_STORE_P: 4,
    OP_ADD_I: 1, OP_SUB_I: 1, OP_MUL_I: 1, OP_ADDK_I: 1,
    OP_LT: 1, OP_LE: 1, OP_GT: 1, OP_GE: 1, OP_EQ: 1, OP_NE: 1,
    OP_ADD_P: 1, OP_ADDK_P: 1,
    OP_ADD_F: 1, OP_SUB_F: 1, OP_MUL_F: 1, OP_DIV_F: 1,
    OP_DIV_I: 1, OP_MOD_I: 1,
    OP_SHL: 1, OP_SHR: 1, OP_AND: 1, OP_OR: 1, OP_XOR: 1,
    OP_SUB_PI: 1, OP_SUB_PP: 1, OP_ADDK_F: 1,
    OP_NEG_I: 1, OP_NEG_F: 1, OP_NOT: 1, OP_BNOT: 1,
    OP_CONV_I: 1, OP_CONV_F: 1, OP_CONV_P: 1,
    OP_CALL: 1, OP_CALLB: 1,
    OP_DECL: 1, OP_STR: 1, OP_GADDR: 1,
    OP_LDELEM_I: 1, OP_LDELEM_F: 1,
    OP_STELEM_I: 5, OP_STELEM_F: 5, OP_STELEM_P: 5,
}

_CMP_OPS = frozenset((OP_LT, OP_LE, OP_GT, OP_GE, OP_EQ, OP_NE))
_MEM_OPS = frozenset((OP_LOAD_I, OP_LOAD_F, OP_STORE_I, OP_STORE_F,
                      OP_STORE_P))
_FUSED_MEM_OPS = frozenset((OP_LDELEM_I, OP_LDELEM_F, OP_STELEM_I,
                            OP_STELEM_F, OP_STELEM_P))

#: Instructions with no observable effect and no way to raise: a STEP's
#: count may move backwards across them (see :func:`_sink_steps`).
_PURE_OPS = frozenset((
    OP_CONST, OP_MOV, OP_ELEM, OP_ADD_P, OP_MEMBOFF, OP_ADDK_P,
    OP_ADD_I, OP_SUB_I, OP_MUL_I, OP_ADDK_I,
    OP_ADD_F, OP_SUB_F, OP_MUL_F, OP_ADDK_F,
    OP_LT, OP_LE, OP_GT, OP_GE, OP_EQ, OP_NE,
    OP_NEG_I, OP_NEG_F, OP_NOT, OP_BNOT,
    OP_CONV_I, OP_CONV_F, OP_CONV_P,
    OP_SHL, OP_SHR, OP_AND, OP_OR, OP_XOR,
    OP_SUB_PI, OP_SUB_PP, OP_GADDR,
))


def _liveness(code: Sequence[_Ins]) -> list[int]:
    """Per-instruction live-*out* register bitmask (backward fixpoint).

    Delegates to the block-level dataflow framework (the least fixpoint
    is unique, so this is bit-identical to the historical ad-hoc
    instruction-level pass). Exceptions need no edges: a MiniC runtime
    error or budget overrun aborts the whole run, and the ``exit()``
    unwind path reads only the per-frame pcs, never registers.
    """
    from repro.sim import dataflow

    return dataflow.liveness(code)


def _jump_targets(code: Sequence[_Ins]) -> set[int]:
    targets: set[int] = set()
    for ins in code:
        op = ins[0]
        if op == OP_JMP:
            targets.add(ins[1])
        elif op == OP_JZ or op == OP_JNZ:
            targets.add(ins[2])
        elif op == OP_BR:
            targets.add(ins[4])
    return targets


def _fuse_once(code: Sequence[_Ins]) -> dict[int, _Ins]:
    """One left-to-right scan; {first_index: fused_instruction}.

    A pair is fused only when the second instruction is not a jump
    target (control may not enter the middle of a superinstruction) and
    the dropped intermediate register is dead afterwards — or is
    rewritten by the pair itself with the same value either way.
    """
    n = len(code)
    targets = _jump_targets(code)
    live_out = _liveness(code)
    fused: dict[int, _Ins] = {}
    i = 0
    while i < n - 1:
        if i + 1 in targets:
            i += 1
            continue
        a = code[i]
        b = code[i + 1]
        opa = a[0]
        opb = b[0]
        out = live_out[i + 1]
        new = None
        if opa == OP_ELEM or opa == OP_ADD_P:
            # F1/F2: address compute + load/store at offset 0. The store
            # value operand must not be the address temp (the fused form
            # reads it before the address exists).
            t = a[1]
            if opb == OP_LOAD_I and b[2] == t and b[3] == 0 \
                    and (b[1] == t or not (out >> t) & 1):
                new = (OP_LDELEM_I, b[1], a[2], a[3], a[4],
                       b[4], b[5], b[6], b[7])
            elif opb == OP_LOAD_F and b[2] == t and b[3] == 0 \
                    and (b[1] == t or not (out >> t) & 1):
                new = (OP_LDELEM_F, b[1], a[2], a[3], a[4],
                       b[4], b[5], b[6])
            elif opb == OP_STORE_I and b[1] == t and b[2] == 0 \
                    and b[3] != t and (b[4] == t or not (out >> t) & 1):
                new = (OP_STELEM_I, a[2], a[3], a[4], b[3], b[4],
                       b[5], b[6], b[7], b[8], b[9])
            elif opb == OP_STORE_F and b[1] == t and b[2] == 0 \
                    and b[3] != t and (b[4] == t or not (out >> t) & 1):
                new = (OP_STELEM_F, a[2], a[3], a[4], b[3], b[4],
                       b[5], b[6], b[7])
            elif opb == OP_STORE_P and b[1] == t and b[2] == 0 \
                    and b[3] != t and (b[4] == t or not (out >> t) & 1):
                new = (OP_STELEM_P, a[2], a[3], a[4], b[3], b[4], b[5])
        elif opa in _CMP_OPS and (opb == OP_JZ or opb == OP_JNZ) \
                and b[1] == a[1] and not (out >> a[1]) & 1:
            # F3: compare + conditional jump. The branch keeps "jump
            # when the flag is (non)zero" semantics rather than the
            # complemented comparison, so NaN operands behave exactly
            # as in the unfused pair.
            new = (OP_BR, opa, a[2], a[3], b[2], opb == OP_JNZ)
        elif opa == OP_STEP and opb == OP_STEP:
            # F4: nothing can observe the counter between two adjacent
            # steps except an over-budget abort, whose counter value is
            # already engine-defined (see the module docstring).
            new = (OP_STEP, a[1] + b[1])
        elif opa == OP_CONST and type(a[2]) is int:
            # F6: constant index folds into a static member offset.
            t = a[1]
            if (opb == OP_ELEM or opb == OP_ADD_P) and b[3] == t \
                    and b[2] != t and (b[1] == t or not (out >> t) & 1):
                new = (OP_MEMBOFF, b[1], b[2], a[2] * b[4])
            elif opb == OP_SUB_PI and b[3] == t and b[2] != t \
                    and (b[1] == t or not (out >> t) & 1):
                new = (OP_MEMBOFF, b[1], b[2], -(a[2] * b[4]))
        elif opa == OP_MEMBOFF:
            # F7: member-offset chains fold into the next offset field
            # (address masks compose: ((x+o1)&M + o2)&M == (x+o1+o2)&M).
            t = a[1]
            off = a[3]
            if opb == OP_MEMBOFF and b[2] == t \
                    and (b[1] == t or not (out >> t) & 1):
                new = (OP_MEMBOFF, b[1], a[2], off + b[3])
            elif opb == OP_LOAD_I and b[2] == t \
                    and (b[1] == t or not (out >> t) & 1):
                new = (OP_LOAD_I, b[1], a[2], off + b[3],
                       b[4], b[5], b[6], b[7])
            elif opb == OP_LOAD_F and b[2] == t \
                    and (b[1] == t or not (out >> t) & 1):
                new = (OP_LOAD_F, b[1], a[2], off + b[3], b[4], b[5], b[6])
            elif opb == OP_STORE_I and b[1] == t and b[3] != t \
                    and (b[4] == t or not (out >> t) & 1):
                new = (OP_STORE_I, a[2], off + b[2], b[3], b[4],
                       b[5], b[6], b[7], b[8], b[9])
            elif opb == OP_STORE_F and b[1] == t and b[3] != t \
                    and (b[4] == t or not (out >> t) & 1):
                new = (OP_STORE_F, a[2], off + b[2], b[3], b[4],
                       b[5], b[6], b[7])
            elif opb == OP_STORE_P and b[1] == t and b[3] != t \
                    and (b[4] == t or not (out >> t) & 1):
                new = (OP_STORE_P, a[2], off + b[2], b[3], b[4], b[5])
        if new is not None:
            fused[i] = new
            i += 2
        else:
            i += 1
    return fused


def _rebuild(code: Sequence[_Ins],
             fused: dict[int, _Ins]) -> tuple[list[_Ins], list[int]]:
    """Apply one round of fusions; return (new_code, pos) where pos[p] is
    the new index of the first retained instruction with old index >= p
    (monotone — the remap rule for jump targets and region bounds)."""
    n = len(code)
    new_code: list[_Ins] = []
    pos = [0] * (n + 1)
    i = 0
    while i < n:
        pos[i] = len(new_code)
        ins = fused.get(i)
        if ins is not None:
            new_code.append(ins)
            pos[i + 1] = len(new_code)
            i += 2
        else:
            new_code.append(code[i])
            i += 1
    pos[n] = len(new_code)
    for j, ins in enumerate(new_code):
        op = ins[0]
        if op == OP_JMP:
            new_code[j] = (op, pos[ins[1]])
        elif op == OP_JZ or op == OP_JNZ:
            new_code[j] = (op, ins[1], pos[ins[2]])
        elif op == OP_BR:
            new_code[j] = (op, ins[1], ins[2], ins[3], pos[ins[4]], ins[5])
    return new_code, pos


def _sink_steps(code: list[_Ins]) -> None:
    """Accumulate STEP counts backwards across pure instructions.

    Between two STEPs separated only by :data:`_PURE_OPS` nothing can
    observe the counter, emit trace records, or raise, so charging the
    later count at the earlier STEP is observably exact — including at
    an over-budget abort, where the counter lands on the same value and
    the skipped pure tail had no visible effects. A jump target between
    the two (or on the later STEP itself) breaks the chain: a path
    entering there must still pay its own steps. Drained STEPs stay in
    place with a count of zero (no pc remap needed); the specializer
    emits nothing for them.
    """
    targets = _jump_targets(code)
    consts: dict[int, object] = {}
    last = -1
    for i, ins in enumerate(code):
        op = ins[0]
        if i in targets:
            last = -1
            consts.clear()
        if op == OP_STEP:
            if last >= 0 and i not in targets:
                code[last] = (OP_STEP, code[last][1] + ins[1])
                code[i] = (OP_STEP, 0)
            else:
                last = i
            continue
        if op not in _PURE_OPS:
            # A division whose divisor slot provably holds a nonzero
            # integer constant cannot raise either.
            if not ((op == OP_DIV_I or op == OP_MOD_I)
                    and type(consts.get(ins[3])) is int and consts[ins[3]]):
                last = -1
        if op == OP_CONST:
            consts[ins[1]] = ins[2]
        else:
            written = _WRITES.get(op)
            if written is not None:
                consts.pop(ins[written], None)


def fuse_function(fn: BytecodeFunction) -> BytecodeFunction:
    """Fuse one function's code to fixpoint (chains like CONST→ELEM→LOAD
    collapse over successive rounds). Body regions are remapped with the
    same monotone rule as jump targets; call-site pcs — the only pcs the
    regions are ever tested against — keep their region membership
    because calls never fuse."""
    code = list(fn.code)
    regions = list(fn.body_regions)
    while True:
        fused = _fuse_once(code)
        if not fused:
            break
        code, pos = _rebuild(code, fused)
        regions = [(pos[s], pos[e], bid) for s, e, bid in regions]
    _sink_steps(code)
    return BytecodeFunction(
        name=fn.name,
        code=tuple(code),
        n_slots=fn.n_slots,
        params=fn.params,
        returns_void=fn.returns_void,
        body_regions=tuple(regions),
    )


def fuse_program(bp: BytecodeProgram) -> BytecodeProgram:
    """The fused twin of a lowered program (cached on the original).

    ``globals_init`` stays unfused: it runs once per run, so fusing it
    would buy nothing, and the specializer compiles it as lowered.
    """
    cached = getattr(bp, "_fused", None)
    if cached is None:
        cached = BytecodeProgram(
            program=bp.program,
            functions={name: fuse_function(fn)
                       for name, fn in bp.functions.items()},
            global_symbols=bp.global_symbols,
            globals_init=bp.globals_init,
        )
        bp._fused = cached
    return cached


def fusion_stats(bp: BytecodeProgram) -> dict[str, Any]:
    """Static fusion coverage of a program (reported by the benchmarks).

    ``memory_fused_share`` is the fraction of memory-access instructions
    that ended up in superinstruction form.
    """
    fused = fuse_program(bp)
    mem_total = mem_fused = br_total = br_fused = 0
    for fn in fused.functions.values():
        for ins in fn.code:
            op = ins[0]
            if op in _FUSED_MEM_OPS:
                mem_fused += 1
                mem_total += 1
            elif op in _MEM_OPS:
                mem_total += 1
            elif op == OP_BR:
                br_fused += 1
                br_total += 1
            elif op == OP_JZ or op == OP_JNZ:
                br_total += 1
    before = sum(len(fn.code) for fn in bp.functions.values())
    after = sum(len(fn.code) for fn in fused.functions.values())
    return {
        "instructions_before": before,
        "instructions_after": after,
        "memory_ops": mem_total,
        "memory_ops_fused": mem_fused,
        "memory_fused_share": mem_fused / mem_total if mem_total else 0.0,
        "branches": br_total,
        "branches_fused": br_fused,
    }
