"""MiniC semantic linter.

Lifts the bytecode-level dataflow framework (:mod:`repro.sim.dataflow`)
through the front end: each function body is lowered to a small
statement-level control-flow graph of *use*/*def* events over its
register-promoted scalars, and the generic worklist solver runs a
definite-assignment (must) analysis and a liveness (may) analysis over
it. Purely syntactic rules (constant conditions, static array bounds)
ride along on the same walk.

Rule codes are stable; tools may match on them:

========  ========  =====================================================
code      severity  meaning
========  ========  =====================================================
``L100``  error     source does not parse / fails semantic analysis
``L101``  error     variable may be used before initialization
``L102``  error     constant array index is out of bounds
``L201``  warning   dead store — assigned value is never read
``L202``  warning   unused variable, array or parameter
``L203``  warning   branch condition is a compile-time constant
``L204``  warning   loop condition is statically false (zero-trip loop)
``L205``  warning   constant-true loop with no break or return
========  ========  =====================================================

``L201`` exempts initializers at the declaration itself (``int i = 0;``
followed by a reassignment is accepted defensive style); only later
assignments and increments with an unread result are flagged. Globals
are externally visible state (they appear in traces and post-run dumps)
and are never flagged by ``L202``.

Entry points: :func:`lint_source` for a source string,
:func:`lint_program` for an analyzed :class:`~repro.lang.ast_nodes.Program`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.lang import ast_nodes as ast
from repro.lang.ctypes_ import (
    ArrayType,
    FloatType,
    IntType,
    fold_int_binary,
)
from repro.lang.errors import MiniCError, SourceLocation
from repro.lang.semantics import Symbol, parse_and_analyze

__all__ = ["Finding", "SEVERITY", "RULES", "lint_program", "lint_source"]

#: Severity per rule code. ``error`` findings make ``repro lint`` exit
#: non-zero; ``warning`` findings do not.
SEVERITY: dict[str, str] = {
    "L100": "error",
    "L101": "error",
    "L102": "error",
    "L201": "warning",
    "L202": "warning",
    "L203": "warning",
    "L204": "warning",
    "L205": "warning",
}

#: One-line description per rule code (the README table is generated
#: from the same text).
RULES: dict[str, str] = {
    "L100": "source fails to parse or analyze",
    "L101": "variable may be used before initialization",
    "L102": "constant array index is out of bounds",
    "L201": "dead store: assigned value is never read",
    "L202": "unused variable, array or parameter",
    "L203": "branch condition is a compile-time constant",
    "L204": "loop condition is statically false (zero-trip loop)",
    "L205": "constant-true loop with no break or return",
}


@dataclass(frozen=True)
class Finding:
    """One linter diagnostic."""

    rule: str
    severity: str
    message: str
    line: int
    column: int
    function: str

    def format(self, filename: str = "<minic>") -> str:
        where = f" [{self.function}]" if self.function else ""
        return (f"{filename}:{self.line}:{self.column}: "
                f"{self.severity} {self.rule}: {self.message}{where}")


def _finding(rule: str, message: str, location: SourceLocation | None,
             function: str) -> Finding:
    line = location.line if location is not None else 0
    column = location.column if location is not None else 0
    return Finding(rule, SEVERITY[rule], message, line, column, function)


# ---------------------------------------------------------------------------
# Constant folding (front-end mirror of the SCCP lattice's singleton case)
# ---------------------------------------------------------------------------


def const_value(expr: ast.Expr | None) -> int | float | None:
    """Fold ``expr`` to a compile-time constant, or ``None``.

    Handles literals, ``sizeof``, unary/binary arithmetic (with C
    truncating division), short-circuit ``&&``/``||``, casts and
    ternaries — the idioms that appear in branch conditions and array
    subscripts.
    """
    if expr is None:
        return None
    if isinstance(expr, ast.IntLiteral):
        return expr.value
    if isinstance(expr, ast.FloatLiteral):
        return expr.value
    if isinstance(expr, ast.SizeofType):
        return expr.queried_type.size
    if isinstance(expr, ast.SizeofExpr):
        ctype = expr.operand.ctype
        return ctype.size if ctype is not None else None
    if isinstance(expr, ast.Unary):
        value = const_value(expr.operand)
        if value is None:
            return None
        if expr.op == "-":
            return -value
        if expr.op == "+":
            return value
        if expr.op == "!":
            return int(not value)
        if expr.op == "~" and isinstance(value, int):
            return ~value
        return None
    if isinstance(expr, ast.Cast):
        value = const_value(expr.operand)
        if value is None:
            return None
        target = expr.target_type
        if isinstance(target, IntType):
            return target.wrap(int(value))
        if isinstance(target, FloatType):
            return float(value)
        return None
    if isinstance(expr, ast.Ternary):
        cond = const_value(expr.cond)
        if cond is None:
            return None
        return const_value(expr.then_expr if cond else expr.else_expr)
    if isinstance(expr, ast.Binary):
        left = const_value(expr.left)
        if left is None:
            return None
        if expr.op == "&&":
            return 0 if not left else _as_bool(const_value(expr.right))
        if expr.op == "||":
            return 1 if left else _as_bool(const_value(expr.right))
        right = const_value(expr.right)
        if right is None:
            return None
        return _fold_binary(expr.op, left, right)
    return None


def _as_bool(value: int | float | None) -> int | None:
    return None if value is None else int(bool(value))


def _fold_binary(op: str, a: int | float,
                 b: int | float) -> int | float | None:
    if isinstance(a, int) and isinstance(b, int):
        return fold_int_binary(op, a, b)
    # A float operand: arithmetic and comparisons fold, nothing else.
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        return None if b == 0 else a / b
    if op in ("<", "<=", ">", ">=", "==", "!="):
        table = {"<": a < b, "<=": a <= b, ">": a > b,
                 ">=": a >= b, "==": a == b, "!=": a != b}
        return int(table[op])
    return None


# ---------------------------------------------------------------------------
# Statement-level CFG of use/def events
# ---------------------------------------------------------------------------

_USE, _DEF, _NOP = 0, 1, 2


def _tracked(symbol: object) -> bool:
    """Scalars the flow analyses can reason about exactly.

    Register-promoted locals and parameters only: their address is never
    taken, so no store through a pointer or call can touch them behind
    the analysis' back — exactly the guarantee the bytecode layer
    encodes with ``Symbol.in_memory``.
    """
    return (isinstance(symbol, Symbol)
            and symbol.storage in ("local", "param")
            and not symbol.in_memory
            and symbol.ctype.is_scalar)


class _EventCfg:
    """Per-function CFG whose nodes are single use/def events.

    Built in source order with a *frontier* of dangling edges, so
    structured control flow (short-circuit operands included) lowers to
    plain successor lists the generic solver understands.
    """

    def __init__(self) -> None:
        self.kinds: list[int] = []
        self.syms: list[Symbol | None] = []
        self.sites: list[object | None] = []
        #: ``True`` for defs that are genuine stores (assignments and
        #: increments, not declaration initializers) — the L201 pool.
        self.is_store: list[bool] = []
        self.succs: list[list[int]] = []
        self.frontier: list[int] = []
        self._breaks: list[list[int]] = []
        self._continues: list[list[int]] = []
        self._emit(_NOP, None, None)  # entry node 0

    def _emit(self, kind: int, symbol: Symbol | None, site: object | None,
              is_store: bool = False) -> int:
        index = len(self.kinds)
        self.kinds.append(kind)
        self.syms.append(symbol)
        self.sites.append(site)
        self.is_store.append(is_store)
        self.succs.append([])
        for node in self.frontier:
            self.succs[node].append(index)
        self.frontier = [index]
        return index

    # -- expressions ------------------------------------------------------

    def uses(self, expr: ast.Expr | None) -> None:
        if expr is None:
            return
        if isinstance(expr, ast.Identifier):
            if _tracked(expr.symbol):
                self._emit(_USE, expr.symbol, expr)
        elif isinstance(expr, ast.Assign):
            self.uses(expr.value)
            self._lvalue(expr.target, read=bool(expr.op))
            target = expr.target
            if isinstance(target, ast.Identifier) and _tracked(target.symbol):
                self._emit(_DEF, target.symbol, expr, is_store=True)
        elif isinstance(expr, ast.IncDec):
            operand = expr.operand
            if isinstance(operand, ast.Identifier):
                if _tracked(operand.symbol):
                    self._emit(_USE, operand.symbol, operand)
                    self._emit(_DEF, operand.symbol, expr, is_store=True)
            else:
                self._lvalue(operand, read=True)
        elif isinstance(expr, ast.Binary) and expr.op in ("&&", "||"):
            self.uses(expr.left)
            skip = list(self.frontier)
            self.uses(expr.right)
            self.frontier = self.frontier + skip
        elif isinstance(expr, ast.Ternary):
            self.uses(expr.cond)
            head = list(self.frontier)
            self.uses(expr.then_expr)
            taken = list(self.frontier)
            self.frontier = head
            self.uses(expr.else_expr)
            self.frontier = taken + self.frontier
        elif isinstance(expr, ast.SizeofExpr):
            pass  # operand is not evaluated
        else:
            for child in ast.children(expr):
                if isinstance(child, ast.Expr):
                    self.uses(child)

    def _lvalue(self, target: ast.Expr, read: bool) -> None:
        if isinstance(target, ast.Identifier):
            if read and _tracked(target.symbol):
                self._emit(_USE, target.symbol, target)
        elif isinstance(target, ast.Index):
            self.uses(target.base)
            self.uses(target.index)
        elif isinstance(target, ast.Member):
            self.uses(target.base)
        elif isinstance(target, ast.Unary):
            self.uses(target.operand)
        else:
            self.uses(target)

    # -- statements -------------------------------------------------------

    def build(self, stmt: ast.Stmt | None) -> None:
        if stmt is None or isinstance(stmt, ast.EmptyStmt):
            return
        if isinstance(stmt, ast.Block):
            for inner in stmt.stmts:
                self.build(inner)
        elif isinstance(stmt, ast.DeclStmt):
            for decl in stmt.decls:
                if decl.init is not None:
                    self.uses(decl.init)
                    if _tracked(decl.symbol):
                        self._emit(_DEF, decl.symbol, decl)
        elif isinstance(stmt, ast.ExprStmt):
            self.uses(stmt.expr)
        elif isinstance(stmt, ast.If):
            self.uses(stmt.cond)
            head = list(self.frontier)
            self.build(stmt.then_stmt)
            taken = list(self.frontier)
            self.frontier = head
            if stmt.else_stmt is not None:
                self.build(stmt.else_stmt)
            self.frontier = taken + self.frontier
        elif isinstance(stmt, ast.While):
            head = self._emit(_NOP, None, None)
            self.uses(stmt.cond)
            exits = list(self.frontier)
            self._enter_loop()
            self.build(stmt.body)
            self._close_loop(back_to=head, continue_to=head)
            self.frontier = exits + self._breaks.pop()
        elif isinstance(stmt, ast.For):
            self.build(stmt.init)
            head = self._emit(_NOP, None, None)
            self.uses(stmt.cond)
            exits = list(self.frontier) if stmt.cond is not None else []
            self._enter_loop()
            self.build(stmt.body)
            self.frontier = self.frontier + self._continues.pop()
            self.uses(stmt.step)
            for node in self.frontier:
                self.succs[node].append(head)
            self.frontier = exits + self._breaks.pop()
        elif isinstance(stmt, ast.DoWhile):
            head = self._emit(_NOP, None, None)
            self._enter_loop()
            self.build(stmt.body)
            self.frontier = self.frontier + self._continues.pop()
            self.uses(stmt.cond)
            for node in self.frontier:
                self.succs[node].append(head)
            self.frontier = self.frontier + self._breaks.pop()
        elif isinstance(stmt, ast.Return):
            self.uses(stmt.expr)
            self.frontier = []
        elif isinstance(stmt, ast.Break):
            self._breaks[-1].extend(self.frontier)
            self.frontier = []
        elif isinstance(stmt, ast.Continue):
            self._continues[-1].extend(self.frontier)
            self.frontier = []
        else:  # pragma: no cover - statement grammar is closed
            raise TypeError(f"unhandled statement {type(stmt).__name__}")

    def _enter_loop(self) -> None:
        self._breaks.append([])
        self._continues.append([])

    def _close_loop(self, back_to: int, continue_to: int) -> None:
        for node in self.frontier:
            self.succs[node].append(back_to)
        for node in self._continues.pop():
            self.succs[node].append(continue_to)


# ---------------------------------------------------------------------------
# Flow-sensitive rules: L101 (definite assignment) and L201 (dead stores)
# ---------------------------------------------------------------------------


def _location_of(site: object | None) -> SourceLocation | None:
    return getattr(site, "location", None)


def _flow_findings(fn: ast.FunctionDef) -> list[Finding]:
    from repro.sim import dataflow

    cfg = _EventCfg()
    cfg.build(fn.body)

    slots: dict[Symbol, int] = {}
    for symbol in cfg.syms:
        if symbol is not None and symbol not in slots:
            slots[symbol] = len(slots)
    num_nodes = len(cfg.kinds)
    if not slots:
        return []
    full = (1 << len(slots)) - 1
    param_mask = 0
    for param in fn.params:
        if param.symbol in slots:
            param_mask |= 1 << slots[param.symbol]

    kinds, syms = cfg.kinds, cfg.syms

    def assigned_transfer(node: int, value: int) -> int:
        if kinds[node] == _DEF:
            return value | (1 << slots[syms[node]])
        return value

    assigned_in, _ = dataflow.solve(
        num_nodes, cfg.succs, forward=True, bottom=full,
        boundary=param_mask, transfer=assigned_transfer,
        join=lambda a, b: a & b)

    def live_transfer(node: int, value: int) -> int:
        kind = kinds[node]
        if kind == _USE:
            return value | (1 << slots[syms[node]])
        if kind == _DEF:
            return value & ~(1 << slots[syms[node]])
        return value

    live_after, _ = dataflow.solve(
        num_nodes, cfg.succs, forward=False, bottom=0, boundary=0,
        transfer=live_transfer, join=lambda a, b: a | b)

    findings: list[Finding] = []
    reported_uninit: set[Symbol] = set()
    for node in range(num_nodes):
        symbol = syms[node]
        if symbol is None:
            continue
        bit = 1 << slots[symbol]
        if (cfg.kinds[node] == _USE and not assigned_in[node] & bit
                and symbol not in reported_uninit):
            reported_uninit.add(symbol)
            findings.append(_finding(
                "L101",
                f"variable {symbol.name!r} may be used before "
                f"initialization",
                _location_of(cfg.sites[node]), fn.name))
        elif (cfg.kinds[node] == _DEF and cfg.is_store[node]
                and not live_after[node] & bit):
            findings.append(_finding(
                "L201",
                f"dead store: value assigned to {symbol.name!r} is "
                f"never read",
                _location_of(cfg.sites[node]), fn.name))
    return findings


# ---------------------------------------------------------------------------
# Syntactic rules: L102, L202, L203, L204, L205
# ---------------------------------------------------------------------------


def _collect_reads(node: object, reads: set[Symbol]) -> None:
    if isinstance(node, ast.Identifier):
        if isinstance(node.symbol, Symbol):
            reads.add(node.symbol)
        return
    if isinstance(node, ast.Assign):
        _collect_reads(node.value, reads)
        target = node.target
        if isinstance(target, ast.Identifier):
            if node.op and isinstance(target.symbol, Symbol):
                reads.add(target.symbol)  # compound assignment reads
        else:
            _collect_reads(target, reads)
        return
    for child in ast.children(node):
        _collect_reads(child, reads)


def _kind_word(symbol: Symbol) -> str:
    if symbol.storage == "param":
        return "parameter"
    if isinstance(symbol.ctype, ArrayType):
        return "array"
    return "variable"


def _unused_findings(fn: ast.FunctionDef) -> list[Finding]:
    reads: set[Symbol] = set()
    _collect_reads(fn.body, reads)
    findings: list[Finding] = []
    for param in fn.params:
        if isinstance(param.symbol, Symbol) and param.symbol not in reads:
            findings.append(_finding(
                "L202", f"unused parameter {param.name!r}",
                param.location, fn.name))
    for node in ast.walk(fn.body):
        if not isinstance(node, ast.DeclStmt):
            continue
        for decl in node.decls:
            symbol = decl.symbol
            if isinstance(symbol, Symbol) and symbol not in reads:
                findings.append(_finding(
                    "L202",
                    f"unused {_kind_word(symbol)} {decl.name!r}",
                    decl.location, fn.name))
    return findings


def _loop_has_direct_break(stmt: object) -> bool:
    if isinstance(stmt, ast.Break):
        return True
    if isinstance(stmt, ast.Loop):
        return False  # a break in a nested loop binds to that loop
    return any(_loop_has_direct_break(child) for child in ast.children(stmt))


def _loop_has_return(stmt: object) -> bool:
    return any(isinstance(node, ast.Return) for node in ast.walk(stmt))


def _syntactic_findings(fn: ast.FunctionDef) -> list[Finding]:
    findings = _unused_findings(fn)
    for node in ast.walk(fn.body):
        if isinstance(node, ast.Index):
            base_type = node.base.ctype
            index = const_value(node.index)
            if (isinstance(base_type, ArrayType)
                    and isinstance(index, int)
                    and not 0 <= index < base_type.length):
                findings.append(_finding(
                    "L102",
                    f"index {index} is out of bounds for "
                    f"{base_type} (valid: 0..{base_type.length - 1})",
                    node.location, fn.name))
        elif isinstance(node, (ast.If, ast.Ternary)):
            value = const_value(node.cond)
            if value is not None:
                branch = "true" if value else "false"
                findings.append(_finding(
                    "L203",
                    f"branch condition is constant (always {branch})",
                    node.location, fn.name))
        elif isinstance(node, ast.Loop):
            cond = getattr(node, "cond", None)
            value = const_value(cond) if cond is not None else 1
            if (isinstance(node, (ast.While, ast.For)) and cond is not None
                    and value is not None and not value):
                findings.append(_finding(
                    "L204", "loop condition is statically false "
                            "(loop never executes)",
                    node.location, fn.name))
            elif (value is not None and value
                    and not _loop_has_direct_break(node.body)
                    and not _loop_has_return(node.body)):
                findings.append(_finding(
                    "L205", "constant-true loop has no break or return "
                            "(does not terminate)",
                    node.location, fn.name))
    return findings


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def _sort_key(finding: Finding) -> tuple[int, int, str]:
    return (finding.line, finding.column, finding.rule)


def lint_program(program: ast.Program) -> list[Finding]:
    """Lint an analyzed program; findings are sorted by source position."""
    findings: list[Finding] = []
    for fn in program.functions:
        findings.extend(_flow_findings(fn))
        findings.extend(_syntactic_findings(fn))
    return sorted(findings, key=_sort_key)


def lint_source(source: str, filename: str = "<minic>") -> list[Finding]:
    """Parse, analyze and lint ``source``.

    Front-end failures are reported as a single ``L100`` finding rather
    than raised, so a lint run over a batch of sources always completes.
    """
    try:
        program = parse_and_analyze(source, filename)
    except MiniCError as error:
        location = getattr(error, "location", None)
        return [_finding("L100", str(error), location, "")]
    return lint_program(program)
