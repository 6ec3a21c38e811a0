"""Tree-walking interpreter for MiniC — the paper's "instruction set simulator".

The interpreter executes an analyzed (and usually instrumented) program over
the simulated memory of :mod:`repro.sim.memory` and streams trace records to
any number of sinks:

* every execution of an instrumented loop emits the paper's three
  checkpoints (loop-begin / body-begin / body-end);
* every access to simulated memory emits an :class:`~repro.sim.trace.Access`
  with a synthetic pc derived from the AST node performing the access
  (loads and stores of the same site get distinct pcs, as distinct machine
  instructions would).

Register promotion: scalar locals and parameters whose address is never
taken live in per-frame "registers" and generate no memory traffic — this
matches the paper's Figure 4(c) trace, which contains exactly one store per
inner-loop iteration for ``*ptr++ = ...`` and nothing for the loop
variables. Globals, arrays, structs, heap data and address-taken locals
live in memory and are traced.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
from repro.sim import builtins as libc
from repro.sim.inputs import InputSpec, InputStream
from repro.sim.builtins import ExitSignal
from repro.sim.memory import (
    GLOBAL_BASE,
    HEAP_BASE,
    BumpAllocator,
    Memory,
    StackAllocator,
)
from repro.sim.trace import (
    BODY_BEGIN_CODE,
    BODY_END_CODE,
    DEFAULT_TRACE_BLOCK,
    LOOP_BEGIN_CODE,
    RunStats,
    TraceBuffer,
    TraceSink,
    load_pc,
    store_pc,
)

_ADDR_MASK = 0xFFFFFFFF


class _BreakSignal(Exception):
    pass


class _ContinueSignal(Exception):
    pass


class _ReturnSignal(Exception):
    def __init__(self, value):
        self.value = value
        super().__init__()


class ExecLimitExceeded(MiniCRuntimeError):
    """The configured instruction budget was exhausted."""


@dataclass
class Frame:
    function: ast.FunctionDef
    regs: dict[Symbol, object] = field(default_factory=dict)
    mem_vars: dict[Symbol, int] = field(default_factory=dict)
    stack_marker: int = 0


class Interpreter:
    """Executes one program. Create a fresh instance per run."""

    def __init__(
        self,
        program: ast.Program,
        sinks: tuple[TraceSink, ...] = (),
        max_steps: int = 200_000_000,
        max_call_depth: int = 512,
        trace_block_size: int = DEFAULT_TRACE_BLOCK,
        input_spec: InputSpec | None = None,
    ):
        self.program = program
        self._max_steps = max_steps
        self._max_call_depth = max_call_depth
        self.stats = RunStats()
        self._trace = TraceBuffer(sinks, trace_block_size, self.stats)
        self.lib_trace = self._trace.lib_trace

        self.memory = Memory()
        self._globals_alloc = BumpAllocator(GLOBAL_BASE)
        self._heap_alloc = BumpAllocator(HEAP_BASE)
        self._stack = StackAllocator()
        self._global_addrs: dict[Symbol, int] = {}
        self._string_pool: dict[str, int] = {}
        self._frames: list[Frame] = []
        self.stdout = ""
        self.rand_state = 1  # deterministic rand() seed
        #: Sample source of the read_samples() builtin (seeded ensemble).
        self.input_stream = InputStream(input_spec)

        self._layout_globals()

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------

    def run(self, entry: str = "main") -> int:
        """Run the global initializers (tracing off), then ``entry``
        (tracing on); return the exit code."""
        if not self.program.has_function(entry):
            raise MiniCRuntimeError(f"no entry function {entry!r}")
        # A simulated call consumes a few dozen Python frames, so the
        # Python recursion limit must comfortably exceed the simulated
        # call-depth limit (which reports the friendly error).
        import sys

        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old_limit, 64 * self._max_call_depth))
        trace = self._trace
        try:
            self._run_initializers()
            trace.flush()  # drops the initializers' traffic
            trace.tracing = True
            result = self._call_function(self.program.function(entry), [])
        except ExitSignal as signal:
            return signal.code
        finally:
            trace.flush()
            trace.tracing = False
            sys.setrecursionlimit(old_limit)
        return int(result) if result is not None else 0

    # ------------------------------------------------------------------
    # Builtin facade (used by repro.sim.builtins)
    # ------------------------------------------------------------------

    def write_stdout(self, text: str) -> None:
        self.stdout += text

    def heap_alloc(self, size: int) -> int:
        return self._heap_alloc.allocate(max(1, size))

    # ------------------------------------------------------------------
    # Trace plumbing
    # ------------------------------------------------------------------

    def _emit_access(self, pc: int, addr: int, size: int, w: int) -> None:
        trace = self._trace
        acc = trace.acc
        acc.extend((pc, addr, size, w))
        if len(acc) >= trace.limit:
            trace.flush()

    def _emit_checkpoint(self, checkpoint_id: int, kind_code: int) -> None:
        trace = self._trace
        cps = trace.cps
        # Packed as in repro.sim.trace.pack_checkpoint: len(acc) is 4·pos.
        cps.append((len(trace.acc) | kind_code) << 32 | checkpoint_id)
        # Access-free loops still produce checkpoints; bound that
        # buffer too so blocks stay constant-size.
        if len(cps) >= trace.block_size:
            trace.flush()

    def _bump_steps(self, amount: int = 1) -> None:
        self.stats.steps += amount
        if self.stats.steps > self._max_steps:
            raise ExecLimitExceeded(
                f"execution exceeded the budget of {self._max_steps} steps"
            )

    # ------------------------------------------------------------------
    # Program loading
    # ------------------------------------------------------------------

    def _layout_globals(self) -> None:
        """Allocate every global's storage."""
        for decl_stmt in self.program.globals:
            for decl in decl_stmt.decls:
                symbol = decl.symbol
                assert isinstance(symbol, Symbol)
                addr = self._globals_alloc.allocate(
                    symbol.ctype.size, symbol.ctype.alignment
                )
                self._global_addrs[symbol] = addr

    def _run_initializers(self) -> None:
        """Write the global initializers, in declaration order.

        :meth:`run` calls this with tracing off, after every global has
        its address (so ``char *p = q;`` can reference a later-declared
        array).
        """
        for decl_stmt in self.program.globals:
            for decl in decl_stmt.decls:
                if decl.init is not None:
                    addr = self._global_addrs[decl.symbol]
                    self._init_object(addr, decl.symbol.ctype, decl.init, None)

    def _intern_string(self, text: str) -> int:
        addr = self._string_pool.get(text)
        if addr is None:
            data = text.encode("latin-1", errors="replace") + b"\0"
            addr = self._globals_alloc.allocate(len(data), 1)
            self.memory.write_bytes(addr, data)
            self._string_pool[text] = addr
        return addr

    # ------------------------------------------------------------------
    # Functions and frames
    # ------------------------------------------------------------------

    def _call_function(self, fn: ast.FunctionDef, args: list) -> object:
        if len(self._frames) >= self._max_call_depth:
            raise MiniCRuntimeError(f"call depth exceeded in {fn.name!r}")
        self.stats.calls += 1
        frame = Frame(fn, stack_marker=self._stack.push_frame())
        for param, arg in zip(fn.params, args):
            symbol = param.symbol
            assert isinstance(symbol, Symbol)
            value = self._convert(arg, symbol.ctype)
            if symbol.in_memory:
                addr = self._stack.allocate(symbol.ctype.size, symbol.ctype.alignment)
                frame.mem_vars[symbol] = addr
                self._store_raw(addr, value, symbol.ctype)
            else:
                frame.regs[symbol] = value
        self._frames.append(frame)
        result = None
        try:
            self._exec_block(fn.body)
        except _ReturnSignal as signal:
            result = signal.value
        finally:
            self._frames.pop()
            self._stack.pop_frame(frame.stack_marker)
        if result is None and not fn.return_type.is_void:
            result = 0  # tolerate missing return, like traditional C
        return result

    @property
    def _frame(self) -> Frame:
        return self._frames[-1]

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def _exec_block(self, block: ast.Block) -> None:
        for stmt in block.stmts:
            self._exec_stmt(stmt)

    def _exec_stmt(self, stmt: ast.Stmt) -> None:
        self._bump_steps()
        method = _STMT_DISPATCH.get(type(stmt))
        if method is None:  # pragma: no cover - defensive
            raise MiniCRuntimeError(f"cannot execute {type(stmt).__name__}",
                                    stmt.location)
        method(self, stmt)

    def _exec_decl(self, stmt: ast.DeclStmt) -> None:
        for decl in stmt.decls:
            symbol = decl.symbol
            assert isinstance(symbol, Symbol)
            if symbol.in_memory:
                addr = self._stack.allocate(symbol.ctype.size, symbol.ctype.alignment)
                self._frame.mem_vars[symbol] = addr
                if decl.init is not None:
                    self._init_object(addr, symbol.ctype, decl.init, decl.init)
                else:
                    # Fresh stack storage starts zeroed (deterministic runs).
                    self.memory.write_bytes(addr, bytes(symbol.ctype.size))
            else:
                value = self._eval(decl.init) if decl.init is not None else 0
                self._frame.regs[symbol] = self._convert(value, symbol.ctype)

    def _init_object(self, addr: int, ctype: CType, init: ast.Expr,
                     trace_node: ast.Expr | None) -> None:
        """Write an initializer into memory (recursively for brace lists).

        ``trace_node`` non-None makes element writes traced (local decls);
        global initialization passes None and stays silent, like program
        load in a real system.
        """
        if isinstance(init, ast.Call) and init.name == "__init_list__":
            if isinstance(ctype, ArrayType):
                element = ctype.element
                for index, item in enumerate(init.args[: ctype.length]):
                    self._init_object(addr + index * element.size, element, item,
                                      item if trace_node is not None else None)
                # Remaining elements are zero, as in C.
                used = min(len(init.args), ctype.length) * element.size
                self.memory.write_bytes(addr + used, bytes(ctype.size - used))
            elif isinstance(ctype, StructType):
                self.memory.write_bytes(addr, bytes(ctype.size))
                for item, member in zip(init.args, ctype.members):
                    self._init_object(addr + member.offset, member.ctype, item,
                                      item if trace_node is not None else None)
            else:
                raise MiniCRuntimeError("brace initializer on a scalar", init.location)
            return
        if isinstance(init, ast.StringLiteral) and isinstance(ctype, ArrayType):
            data = init.value.encode("latin-1", errors="replace") + b"\0"
            data = data[: ctype.length].ljust(ctype.length, b"\0")
            self.memory.write_bytes(addr, data)
            return
        value = self._eval(init)
        value = self._convert(value, ctype)
        if trace_node is not None:
            self._store_mem(addr, value, ctype, trace_node)
        else:
            self._store_raw(addr, value, ctype)

    def _exec_expr_stmt(self, stmt: ast.ExprStmt) -> None:
        self._eval(stmt.expr)

    def _exec_if(self, stmt: ast.If) -> None:
        if self._truthy(self._eval(stmt.cond)):
            self._exec_stmt(stmt.then_stmt)
        elif stmt.else_stmt is not None:
            self._exec_stmt(stmt.else_stmt)

    def _exec_body(self, stmt: ast.For | ast.While | ast.DoWhile) -> bool:
        """One iteration of a loop's body, between its body-begin and
        body-end checkpoints; ``False`` when a ``break`` left it.

        The body-end fires on every exit the program takes — the end of
        the body, ``break``, ``continue``, ``return`` and ``exit()`` — so
        the checkpoint stream stays well-nested (see the note in
        repro/instrument/checkpoints.py). A fault (a runtime error or an
        exhausted step or call-depth budget) unwinds without it, as on
        the fast path.
        """
        self._bump_steps()
        instrumented = stmt.is_instrumented
        if instrumented:
            self._emit_checkpoint(stmt.body_begin_id, BODY_BEGIN_CODE)
        completed = True
        try:
            self._exec_stmt(stmt.body)
        except _BreakSignal:
            completed = False
        except _ContinueSignal:
            pass
        except (_ReturnSignal, ExitSignal):
            if instrumented:
                self._emit_checkpoint(stmt.body_end_id, BODY_END_CODE)
            raise
        if instrumented:
            self._emit_checkpoint(stmt.body_end_id, BODY_END_CODE)
        return completed

    def _exec_for(self, stmt: ast.For) -> None:
        if stmt.is_instrumented:
            self._emit_checkpoint(stmt.begin_id, LOOP_BEGIN_CODE)
        if stmt.init is not None:
            self._exec_stmt(stmt.init)
        while stmt.cond is None or self._truthy(self._eval(stmt.cond)):
            if not self._exec_body(stmt):
                return
            if stmt.step is not None:
                self._eval(stmt.step)

    def _exec_while(self, stmt: ast.While) -> None:
        if stmt.is_instrumented:
            self._emit_checkpoint(stmt.begin_id, LOOP_BEGIN_CODE)
        while self._truthy(self._eval(stmt.cond)):
            if not self._exec_body(stmt):
                return

    def _exec_do_while(self, stmt: ast.DoWhile) -> None:
        if stmt.is_instrumented:
            self._emit_checkpoint(stmt.begin_id, LOOP_BEGIN_CODE)
        while self._exec_body(stmt) and self._truthy(self._eval(stmt.cond)):
            pass

    def _exec_return(self, stmt: ast.Return) -> None:
        value = self._eval(stmt.expr) if stmt.expr is not None else None
        raise _ReturnSignal(value)

    def _exec_break(self, stmt: ast.Break) -> None:
        raise _BreakSignal()

    def _exec_continue(self, stmt: ast.Continue) -> None:
        raise _ContinueSignal()

    def _exec_noop(self, stmt) -> None:
        pass

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def _eval(self, expr: ast.Expr) -> object:
        method = _EXPR_DISPATCH.get(type(expr))
        if method is None:  # pragma: no cover - defensive
            raise MiniCRuntimeError(f"cannot evaluate {type(expr).__name__}",
                                    expr.location)
        return method(self, expr)

    def _truthy(self, value: object) -> bool:
        return value != 0

    # -- loads and stores ---------------------------------------------------

    def _load_mem(self, addr: int, ctype: CType, node: ast.Expr) -> object:
        value = self._load_raw(addr, ctype)
        self._emit_access(load_pc(node.node_id), addr, ctype.size, 0)
        return value

    def _load_raw(self, addr: int, ctype: CType) -> object:
        addr &= _ADDR_MASK
        if isinstance(ctype, IntType):
            return self.memory.read_int(addr, ctype.size, ctype.signed)
        if isinstance(ctype, FloatType):
            return self.memory.read_float(addr, ctype.size)
        if isinstance(ctype, PointerType):
            return self.memory.read_int(addr, ctype.size, signed=False)
        raise MiniCRuntimeError(f"cannot load a value of type {ctype}")

    def _store_mem(self, addr: int, value: object, ctype: CType,
                   node: ast.Expr) -> None:
        self._store_raw(addr, value, ctype)
        self._emit_access(store_pc(node.node_id), addr & _ADDR_MASK,
                          ctype.size, 1)

    def _store_raw(self, addr: int, value: object, ctype: CType) -> None:
        addr &= _ADDR_MASK
        if isinstance(ctype, IntType):
            self.memory.write_int(addr, int(value), ctype.size)
        elif isinstance(ctype, FloatType):
            self.memory.write_float(addr, float(value), ctype.size)
        elif isinstance(ctype, PointerType):
            self.memory.write_int(addr, int(value) & _ADDR_MASK, ctype.size)
        else:
            raise MiniCRuntimeError(f"cannot store a value of type {ctype}")

    def _convert(self, value: object, ctype: CType) -> object:
        if isinstance(ctype, IntType):
            return ctype.wrap(int(value))
        if isinstance(ctype, FloatType):
            return float(value)
        if isinstance(ctype, PointerType):
            return int(value) & _ADDR_MASK
        return value

    # -- lvalues ---------------------------------------------------------

    def _lvalue(self, expr: ast.Expr) -> tuple[str, object]:
        """Return ("r", symbol) for register variables or ("m", addr)."""
        if isinstance(expr, ast.Identifier):
            symbol = expr.symbol
            assert isinstance(symbol, Symbol)
            if not symbol.in_memory:
                return ("r", symbol)
            return ("m", self._symbol_addr(symbol))
        if isinstance(expr, ast.Index):
            return ("m", self._element_addr(expr))
        if isinstance(expr, ast.Member):
            return ("m", self._member_addr(expr))
        if isinstance(expr, ast.Unary) and expr.op == "*":
            return ("m", int(self._eval(expr.operand)) & _ADDR_MASK)
        raise MiniCRuntimeError("expression is not an lvalue", expr.location)

    def _symbol_addr(self, symbol: Symbol) -> int:
        if symbol.storage == "global":
            return self._global_addrs[symbol]
        addr = self._frame.mem_vars.get(symbol)
        if addr is None:
            raise MiniCRuntimeError(f"variable {symbol.name!r} has no storage")
        return addr

    def _element_addr(self, expr: ast.Index) -> int:
        base = int(self._eval(expr.base))
        index = int(self._eval(expr.index))
        assert expr.ctype is not None
        return (base + index * expr.ctype.size) & _ADDR_MASK

    def _member_addr(self, expr: ast.Member) -> int:
        base = int(self._eval(expr.base))
        base_type = expr.base.ctype
        assert base_type is not None
        if expr.is_arrow:
            struct = decay(base_type).pointee  # type: ignore[attr-defined]
        else:
            struct = base_type
        assert isinstance(struct, StructType)
        return (base + struct.member(expr.name).offset) & _ADDR_MASK

    def _read_lvalue(self, lv: tuple[str, object], ctype: CType,
                     node: ast.Expr) -> object:
        kind, ref = lv
        if kind == "r":
            return self._frame.regs.get(ref, 0)
        return self._load_mem(int(ref), ctype, node)

    def _write_lvalue(self, lv: tuple[str, object], value: object, ctype: CType,
                      node: ast.Expr) -> None:
        kind, ref = lv
        if kind == "r":
            self._frame.regs[ref] = self._convert(value, ctype)
        else:
            self._store_mem(int(ref), self._convert(value, ctype), ctype, node)

    # -- expression node evaluators -----------------------------------------

    def _eval_int_literal(self, expr: ast.IntLiteral):
        return expr.value

    def _eval_float_literal(self, expr: ast.FloatLiteral):
        return expr.value

    def _eval_string_literal(self, expr: ast.StringLiteral):
        return self._intern_string(expr.value)

    def _eval_identifier(self, expr: ast.Identifier):
        symbol = expr.symbol
        assert isinstance(symbol, Symbol)
        if not symbol.in_memory:
            return self._frame.regs.get(symbol, 0)
        addr = self._symbol_addr(symbol)
        if symbol.ctype.is_array or symbol.ctype.is_struct:
            return addr  # aggregates evaluate to their address (decay)
        return self._load_mem(addr, symbol.ctype, expr)

    def _eval_unary(self, expr: ast.Unary):
        op = expr.op
        if op == "*":
            addr = int(self._eval(expr.operand)) & _ADDR_MASK
            assert expr.ctype is not None
            if expr.ctype.is_array or expr.ctype.is_struct:
                return addr
            return self._load_mem(addr, expr.ctype, expr)
        if op == "&":
            kind, ref = self._lvalue(expr.operand)
            if kind == "r":  # pragma: no cover - semantics forces memory
                raise MiniCRuntimeError("address of a register variable",
                                        expr.location)
            return ref
        value = self._eval(expr.operand)
        if op == "-":
            return self._convert(-value, expr.ctype)
        if op == "+":
            return value
        if op == "!":
            return 0 if self._truthy(value) else 1
        if op == "~":
            return self._convert(~int(value), expr.ctype)
        raise MiniCRuntimeError(f"unknown unary {op!r}", expr.location)  # pragma: no cover

    def _eval_incdec(self, expr: ast.IncDec):
        lv = self._lvalue(expr.operand)
        ctype = expr.operand.ctype
        assert ctype is not None
        old = self._read_lvalue(lv, ctype, expr.operand)
        step = 1
        if isinstance(ctype, PointerType):
            step = max(1, ctype.pointee.size)
        new = old + step if expr.op == "++" else old - step
        self._write_lvalue(lv, new, ctype, expr.operand)
        return old if expr.is_postfix else self._convert(new, ctype)

    def _eval_binary(self, expr: ast.Binary):
        op = expr.op
        if op == "&&":
            if not self._truthy(self._eval(expr.left)):
                return 0
            return 1 if self._truthy(self._eval(expr.right)) else 0
        if op == "||":
            if self._truthy(self._eval(expr.left)):
                return 1
            return 1 if self._truthy(self._eval(expr.right)) else 0

        left = self._eval(expr.left)
        right = self._eval(expr.right)
        if op in ("==", "!=", "<", ">", "<=", ">="):
            return self._compare(op, left, right)

        left_type = decay(expr.left.ctype)
        right_type = decay(expr.right.ctype)
        if op == "+":
            if left_type.is_pointer:
                return (int(left) + int(right) * left_type.pointee.size) & _ADDR_MASK
            if right_type.is_pointer:
                return (int(right) + int(left) * right_type.pointee.size) & _ADDR_MASK
            return self._convert(left + right, expr.ctype)
        if op == "-":
            if left_type.is_pointer and right_type.is_pointer:
                return self._c_div(int(left) - int(right), left_type.pointee.size)
            if left_type.is_pointer:
                return (int(left) - int(right) * left_type.pointee.size) & _ADDR_MASK
            return self._convert(left - right, expr.ctype)
        if op == "*":
            return self._convert(left * right, expr.ctype)
        if op == "/":
            if isinstance(expr.ctype, FloatType):
                if right == 0:
                    raise MiniCRuntimeError("floating division by zero",
                                            expr.location)
                return left / right
            if right == 0:
                raise MiniCRuntimeError("integer division by zero", expr.location)
            return self._convert(self._c_div(int(left), int(right)), expr.ctype)
        if op == "%":
            if right == 0:
                raise MiniCRuntimeError("modulo by zero", expr.location)
            return self._convert(self._c_mod(int(left), int(right)), expr.ctype)
        if op == "<<":
            return self._convert(int(left) << (int(right) & 63), expr.ctype)
        if op == ">>":
            return self._convert(int(left) >> (int(right) & 63), expr.ctype)
        if op == "&":
            return self._convert(int(left) & int(right), expr.ctype)
        if op == "|":
            return self._convert(int(left) | int(right), expr.ctype)
        if op == "^":
            return self._convert(int(left) ^ int(right), expr.ctype)
        raise MiniCRuntimeError(f"unknown binary {op!r}", expr.location)  # pragma: no cover

    @staticmethod
    def _c_div(a: int, b: int) -> int:
        """C integer division: truncation toward zero."""
        q = abs(a) // abs(b)
        return q if (a < 0) == (b < 0) else -q

    @classmethod
    def _c_mod(cls, a: int, b: int) -> int:
        return a - cls._c_div(a, b) * b

    @staticmethod
    def _compare(op: str, left, right) -> int:
        if op == "==":
            return 1 if left == right else 0
        if op == "!=":
            return 1 if left != right else 0
        if op == "<":
            return 1 if left < right else 0
        if op == ">":
            return 1 if left > right else 0
        if op == "<=":
            return 1 if left <= right else 0
        return 1 if left >= right else 0

    def _eval_assign(self, expr: ast.Assign):
        lv = self._lvalue(expr.target)
        target_type = expr.target.ctype
        assert target_type is not None
        if expr.op == "":
            value = self._eval(expr.value)
        else:
            old = self._read_lvalue(lv, target_type, expr.target)
            rhs = self._eval(expr.value)
            value = self._apply_compound(expr, old, rhs, target_type)
        self._write_lvalue(lv, value, target_type, expr.target)
        return self._convert(value, target_type)

    def _apply_compound(self, expr: ast.Assign, old, rhs, target_type: CType):
        op = expr.op
        if isinstance(target_type, PointerType) and op in ("+", "-"):
            delta = int(rhs) * target_type.pointee.size
            return (int(old) + delta) if op == "+" else (int(old) - delta)
        if op == "+":
            return old + rhs
        if op == "-":
            return old - rhs
        if op == "*":
            return old * rhs
        if op == "/":
            if rhs == 0:
                raise MiniCRuntimeError("division by zero", expr.location)
            if target_type.is_float:
                return old / rhs
            return self._c_div(int(old), int(rhs))
        if op == "%":
            if rhs == 0:
                raise MiniCRuntimeError("modulo by zero", expr.location)
            return self._c_mod(int(old), int(rhs))
        if op == "<<":
            return int(old) << (int(rhs) & 63)
        if op == ">>":
            return int(old) >> (int(rhs) & 63)
        if op == "&":
            return int(old) & int(rhs)
        if op == "|":
            return int(old) | int(rhs)
        if op == "^":
            return int(old) ^ int(rhs)
        raise MiniCRuntimeError(f"unknown compound operator {op!r}",  # pragma: no cover
                                expr.location)

    def _eval_ternary(self, expr: ast.Ternary):
        if self._truthy(self._eval(expr.cond)):
            return self._eval(expr.then_expr)
        return self._eval(expr.else_expr)

    def _eval_call(self, expr: ast.Call):
        args = [self._eval(arg) for arg in expr.args]
        if expr.is_builtin:
            return libc.call_builtin(self, expr.name, args)
        fn = self.program.function(expr.name)
        return self._call_function(fn, args)

    def _eval_index(self, expr: ast.Index):
        addr = self._element_addr(expr)
        assert expr.ctype is not None
        if expr.ctype.is_array or expr.ctype.is_struct:
            return addr
        return self._load_mem(addr, expr.ctype, expr)

    def _eval_member(self, expr: ast.Member):
        addr = self._member_addr(expr)
        assert expr.ctype is not None
        if expr.ctype.is_array or expr.ctype.is_struct:
            return addr
        return self._load_mem(addr, expr.ctype, expr)

    def _eval_cast(self, expr: ast.Cast):
        value = self._eval(expr.operand)
        return self._convert(value, expr.target_type)

    def _eval_sizeof_type(self, expr: ast.SizeofType):
        return expr.queried_type.size

    def _eval_sizeof_expr(self, expr: ast.SizeofExpr):
        # sizeof does not evaluate its operand (C semantics).
        assert expr.operand.ctype is not None
        return expr.operand.ctype.size


_STMT_DISPATCH = {
    ast.DeclStmt: Interpreter._exec_decl,
    ast.ExprStmt: Interpreter._exec_expr_stmt,
    ast.EmptyStmt: Interpreter._exec_noop,
    ast.Block: Interpreter._exec_block,
    ast.If: Interpreter._exec_if,
    ast.For: Interpreter._exec_for,
    ast.While: Interpreter._exec_while,
    ast.DoWhile: Interpreter._exec_do_while,
    ast.Return: Interpreter._exec_return,
    ast.Break: Interpreter._exec_break,
    ast.Continue: Interpreter._exec_continue,
}

_EXPR_DISPATCH = {
    ast.IntLiteral: Interpreter._eval_int_literal,
    ast.FloatLiteral: Interpreter._eval_float_literal,
    ast.StringLiteral: Interpreter._eval_string_literal,
    ast.Identifier: Interpreter._eval_identifier,
    ast.Unary: Interpreter._eval_unary,
    ast.IncDec: Interpreter._eval_incdec,
    ast.Binary: Interpreter._eval_binary,
    ast.Assign: Interpreter._eval_assign,
    ast.Ternary: Interpreter._eval_ternary,
    ast.Call: Interpreter._eval_call,
    ast.Index: Interpreter._eval_index,
    ast.Member: Interpreter._eval_member,
    ast.Cast: Interpreter._eval_cast,
    ast.SizeofType: Interpreter._eval_sizeof_type,
    ast.SizeofExpr: Interpreter._eval_sizeof_expr,
}
