"""Static FORAY-form detection — the baseline FORAY-GEN is compared against.

Traditional SPM optimization techniques ([5][6][7] in the paper) perform
*compile-time* analysis and therefore only handle references that are
already written in FORAY form in the source:

* enclosing loops must all be *canonical* ``for`` loops — a single integer
  iterator, constant bounds and a constant step, iterator not modified in
  the body, no ``break``;
* the reference must be an explicit subscript of a declared array whose
  index expression is affine in the enclosing canonical iterators with
  constant coefficients;
* the reference must not be control-dependent on data (no enclosing ``if``
  inside the loop nest).

Everything else — pointer walks, ``while``/``do`` loops, data-dependent
offsets, accesses through pointer parameters — is invisible to the static
baseline. Table II's "% not in FORAY form in the original program" is the
fraction of the *dynamic* FORAY model that this detector cannot see.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.coverage import SourceForm
from repro.lang import ast_nodes as ast
from repro.lang.ctypes_ import IntType, fold_int_binary
from repro.lang.semantics import Symbol


@dataclass
class CanonicalLoopInfo:
    """A ``for`` loop recognized as canonical by the static detector."""

    node_id: int
    iterator: Symbol
    start: int
    bound: int
    step: int
    #: Trip count implied by start/bound/step (0 when the loop cannot run).
    trip_count: int


@dataclass
class StaticAnalysisResult:
    """Everything the static baseline could prove about a program."""

    #: node_id → info for every canonical for loop.
    canonical_loops: dict[int, CanonicalLoopInfo] = field(default_factory=dict)
    #: node_ids of loop statements that are NOT statically analyzable.
    non_canonical_loops: set[int] = field(default_factory=set)
    #: node_ids of array-subscript expressions that are statically
    #: analyzable (FORAY form in the source).
    analyzable_refs: set[int] = field(default_factory=set)
    #: node_ids of memory-reference expressions the detector had to reject.
    rejected_refs: set[int] = field(default_factory=set)

    @property
    def loop_count(self) -> int:
        return len(self.canonical_loops) + len(self.non_canonical_loops)

    def is_canonical_loop(self, node_id: int) -> bool:
        return node_id in self.canonical_loops

    def is_analyzable_ref(self, node_id: int) -> bool:
        return node_id in self.analyzable_refs

    def source_form(self) -> SourceForm:
        return SourceForm(frozenset(self.canonical_loops),
                          frozenset(self.analyzable_refs))


#: The binary operators :func:`_const_value` folds.
_FOLDED = ("+", "-", "*", "/", "<<", ">>")


def wrap_to_ctype(expr: ast.Expr, value: int) -> int:
    """``value``, an integer result of ``expr``, wrapped to ``expr``'s
    integer type the way both engines wrap every such result."""
    ctype = expr.ctype
    return ctype.wrap(value) if isinstance(ctype, IntType) else value


def _const_value(expr: ast.Expr) -> int | None:
    """Fold an integer-constant expression with C semantics, or None.

    A negation or binary result is wrapped to the node's type, as the
    engines wrap it; a literal is taken as written, as they take it.
    """
    if isinstance(expr, ast.IntLiteral):
        return expr.value
    if isinstance(expr, ast.Unary) and expr.op in ("-", "+"):
        inner = _const_value(expr.operand)
        if inner is None:
            return None
        return wrap_to_ctype(expr, -inner) if expr.op == "-" else inner
    if isinstance(expr, ast.Binary) and expr.op in _FOLDED:
        left = _const_value(expr.left)
        right = _const_value(expr.right)
        if left is None or right is None:
            return None
        value = fold_int_binary(expr.op, left, right)
        return None if value is None else wrap_to_ctype(expr, value)
    if isinstance(expr, ast.SizeofType):
        return expr.queried_type.size
    if isinstance(expr, ast.SizeofExpr) and expr.operand.ctype is not None:
        return expr.operand.ctype.size
    return None


def affine_terms(
    expr: ast.Expr, iterators: set[Symbol]
) -> dict[Symbol | None, int] | None:
    """Decompose ``expr`` as ``const + Σ c_i * iter_i`` or return None.

    The returned dict maps each iterator symbol to its coefficient; the
    ``None`` key holds the constant term.
    """
    const = _const_value(expr)
    if const is not None:
        return {None: const}
    if isinstance(expr, ast.Identifier):
        if expr.symbol in iterators:
            return {expr.symbol: 1, None: 0}
        return None
    if isinstance(expr, ast.Unary) and expr.op == "-":
        inner = affine_terms(expr.operand, iterators)
        if inner is None:
            return None
        return {key: -value for key, value in inner.items()}
    if isinstance(expr, ast.Unary) and expr.op == "+":
        return affine_terms(expr.operand, iterators)
    if isinstance(expr, ast.Binary):
        if expr.op in ("+", "-"):
            left = affine_terms(expr.left, iterators)
            right = affine_terms(expr.right, iterators)
            if left is None or right is None:
                return None
            sign = 1 if expr.op == "+" else -1
            combined = dict(left)
            combined.setdefault(None, 0)
            for key, value in right.items():
                combined[key] = combined.get(key, 0) + sign * value
            return combined
        if expr.op == "*":
            left_const = _const_value(expr.left)
            right_const = _const_value(expr.right)
            if left_const is not None:
                inner = affine_terms(expr.right, iterators)
            elif right_const is not None:
                inner = affine_terms(expr.left, iterators)
                left_const = right_const
            else:
                return None
            if inner is None:
                return None
            return {key: left_const * value for key, value in inner.items()}
    return None


class StaticForayDetector:
    """Walks a program and classifies loops and references statically."""

    def __init__(self, program: ast.Program):
        self.program = program
        self.result = StaticAnalysisResult()
        self._may_exit = _may_exit_functions(program)

    # ------------------------------------------------------------------

    def run(self) -> StaticAnalysisResult:
        for fn in self.program.functions:
            self._walk_stmt(fn.body, loop_stack=[], under_if=False)
        return self.result

    # -- loop classification ------------------------------------------------

    def _classify_for(self, stmt: ast.For) -> CanonicalLoopInfo | None:
        iterator, start = self._parse_init(stmt.init)
        if iterator is None or start is None:
            return None
        bound_info = self._parse_cond(stmt.cond, iterator)
        if bound_info is None:
            return None
        op, bound = bound_info
        step = self._parse_step(stmt.step, iterator)
        if step is None or step == 0:
            return None
        if self._iterator_modified(stmt.body, iterator):
            return None
        if self._contains_escape(stmt.body):
            return None
        trip = self._trip_count(start, op, bound, step)
        if trip is None:
            return None
        return CanonicalLoopInfo(stmt.node_id, iterator, start, bound, step, trip)

    @staticmethod
    def _trip_count(start: int, op: str, bound: int, step: int) -> int | None:
        if step > 0 and op in ("<", "<="):
            limit = bound + (1 if op == "<=" else 0)
            return max(0, -(-(limit - start) // step)) if limit > start else 0
        if step < 0 and op in (">", ">="):
            limit = bound - (1 if op == ">=" else 0)
            return max(0, -(-(start - limit) // -step)) if start > limit else 0
        return None

    def _parse_init(
        self, init: ast.Stmt | None
    ) -> tuple[Symbol | None, int | None]:
        if isinstance(init, ast.DeclStmt) and len(init.decls) == 1:
            decl = init.decls[0]
            symbol = decl.symbol
            if (
                isinstance(symbol, Symbol)
                and symbol.ctype.is_integer
                and not symbol.in_memory
                and decl.init is not None
            ):
                start = _const_value(decl.init)
                if start is not None:
                    return symbol, start
            return None, None
        if isinstance(init, ast.ExprStmt) and isinstance(init.expr, ast.Assign):
            assign = init.expr
            if assign.op == "" and isinstance(assign.target, ast.Identifier):
                symbol = assign.target.symbol
                if (isinstance(symbol, Symbol) and symbol.ctype.is_integer
                        and not symbol.in_memory):
                    # An address-taken (or global) iterator is itself a
                    # memory reference per iteration — not FORAY form.
                    start = _const_value(assign.value)
                    if start is not None:
                        return symbol, start
        return None, None

    def _parse_cond(
        self, cond: ast.Expr | None, iterator: Symbol
    ) -> tuple[str, int] | None:
        if not isinstance(cond, ast.Binary) or cond.op not in ("<", "<=", ">", ">="):
            return None
        if (
            isinstance(cond.left, ast.Identifier)
            and cond.left.symbol is iterator
        ):
            bound = _const_value(cond.right)
            if bound is not None:
                return cond.op, bound
        return None

    def _parse_step(self, step: ast.Expr | None, iterator: Symbol) -> int | None:
        if isinstance(step, ast.IncDec):
            if (
                isinstance(step.operand, ast.Identifier)
                and step.operand.symbol is iterator
            ):
                return 1 if step.op == "++" else -1
            return None
        if isinstance(step, ast.Assign) and isinstance(step.target, ast.Identifier):
            if step.target.symbol is not iterator:
                return None
            if step.op in ("+", "-"):
                amount = _const_value(step.value)
                if amount is None:
                    return None
                return amount if step.op == "+" else -amount
            if step.op == "" and isinstance(step.value, ast.Binary):
                value = step.value
                if (
                    value.op in ("+", "-")
                    and isinstance(value.left, ast.Identifier)
                    and value.left.symbol is iterator
                ):
                    amount = _const_value(value.right)
                    if amount is None:
                        return None
                    return amount if value.op == "+" else -amount
        return None

    def _iterator_modified(self, body: ast.Stmt, iterator: Symbol) -> bool:
        for node in ast.walk(body):
            if isinstance(node, ast.Assign):
                target = node.target
                if isinstance(target, ast.Identifier) and target.symbol is iterator:
                    return True
            elif isinstance(node, ast.IncDec):
                operand = node.operand
                if isinstance(operand, ast.Identifier) and operand.symbol is iterator:
                    return True
        return False

    def _contains_escape(self, body: ast.Stmt) -> bool:
        """Can control leave this loop other than through its condition?

        A direct ``break`` (nested loops scanned separately), a ``return``
        at any depth, or a call that can reach ``exit()`` all cut the trip
        count short of the closed form — such a loop must not be
        classified canonical, or the static model would overstate it.
        """
        stack: list = [body]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Break):
                return True
            if isinstance(node, ast.Loop):
                # a break in a nested loop exits that loop only, but a
                # return or exit() inside it still escapes this one.
                for inner in ast.walk(node):
                    if isinstance(inner, ast.Return):
                        return True
                    if isinstance(inner, ast.Call) and self._call_may_exit(inner):
                        return True
                continue
            if isinstance(node, ast.Return):
                return True
            if isinstance(node, ast.Call) and self._call_may_exit(node):
                return True
            stack.extend(ast.children(node))
        return False

    def _call_may_exit(self, call: ast.Call) -> bool:
        if call.is_builtin:
            return call.name == "exit"
        return call.name in self._may_exit

    # -- traversal -------------------------------------------------------------

    def _walk_stmt(self, stmt, loop_stack: list[CanonicalLoopInfo | None],
                   under_if: bool) -> None:
        if isinstance(stmt, ast.For):
            info = self._classify_for(stmt)
            if info is not None:
                self.result.canonical_loops[stmt.node_id] = info
            else:
                self.result.non_canonical_loops.add(stmt.node_id)
            self._walk_exprs(
                [stmt.cond, stmt.step], loop_stack, under_if, in_loop_header=True
            )
            if isinstance(stmt.init, ast.Stmt):
                self._walk_stmt(stmt.init, loop_stack, under_if)
            loop_stack.append(info)
            self._walk_stmt(stmt.body, loop_stack, under_if)
            loop_stack.pop()
            return
        if isinstance(stmt, (ast.While, ast.DoWhile)):
            self.result.non_canonical_loops.add(stmt.node_id)
            self._walk_exprs([stmt.cond], loop_stack, under_if, in_loop_header=True)
            loop_stack.append(None)  # non-canonical context
            self._walk_stmt(stmt.body, loop_stack, under_if)
            loop_stack.pop()
            return
        if isinstance(stmt, ast.If):
            self._walk_exprs([stmt.cond], loop_stack, under_if)
            inside_loop = len(loop_stack) > 0
            self._walk_stmt(stmt.then_stmt, loop_stack, under_if or inside_loop)
            if stmt.else_stmt is not None:
                self._walk_stmt(stmt.else_stmt, loop_stack, under_if or inside_loop)
            return
        if isinstance(stmt, ast.Block):
            for inner in stmt.stmts:
                self._walk_stmt(inner, loop_stack, under_if)
            return
        if isinstance(stmt, ast.DeclStmt):
            for decl in stmt.decls:
                if decl.init is not None:
                    self._walk_exprs([decl.init], loop_stack, under_if)
            return
        if isinstance(stmt, ast.ExprStmt):
            self._walk_exprs([stmt.expr], loop_stack, under_if)
            return
        if isinstance(stmt, ast.Return) and stmt.expr is not None:
            self._walk_exprs([stmt.expr], loop_stack, under_if)

    def _walk_exprs(self, exprs, loop_stack, under_if: bool,
                    in_loop_header: bool = False) -> None:
        for expr in exprs:
            if expr is None:
                continue
            self._walk_expr(expr, loop_stack, under_if or in_loop_header)

    def _walk_expr(self, node: ast.Expr, loop_stack, under_if: bool) -> None:
        if isinstance(node, (ast.Index, ast.Member)) or (
            isinstance(node, ast.Unary) and node.op == "*"
        ):
            if self._is_memory_ref(node):
                self._classify_ref(node, loop_stack, under_if)
        # Ternary arms and short-circuit right-hand sides execute
        # data-dependently, exactly like an if branch.
        inside_loop = len(loop_stack) > 0
        if isinstance(node, ast.Ternary):
            self._walk_expr(node.cond, loop_stack, under_if)
            self._walk_expr(node.then_expr, loop_stack, under_if or inside_loop)
            self._walk_expr(node.else_expr, loop_stack, under_if or inside_loop)
            return
        if isinstance(node, ast.Binary) and node.op in ("&&", "||"):
            self._walk_expr(node.left, loop_stack, under_if)
            self._walk_expr(node.right, loop_stack, under_if or inside_loop)
            return
        for child in ast.children(node):
            if isinstance(child, ast.Expr):
                self._walk_expr(child, loop_stack, under_if)

    def _is_memory_ref(self, node: ast.Expr) -> bool:
        """Only scalar-typed accesses actually touch memory; intermediate
        subscripts of multi-dimensional arrays are address arithmetic."""
        return node.ctype is not None and node.ctype.is_scalar

    def _classify_ref(self, node: ast.Expr, loop_stack, under_if: bool) -> None:
        if self._analyzable(node, loop_stack, under_if):
            self.result.analyzable_refs.add(node.node_id)
        else:
            self.result.rejected_refs.add(node.node_id)

    def _analyzable(self, node: ast.Expr, loop_stack, under_if: bool) -> bool:
        if under_if:
            return False  # control-dependent access pattern
        if not isinstance(node, ast.Index):
            return False  # pointer dereference or struct member
        if any(info is not None and info.trip_count == 0
               for info in loop_stack):
            return False  # enclosed in a loop proven never to run
        # Static SPM techniques analyze loop nests locally: the index must
        # be affine over the *canonical* enclosing iterators; an irregular
        # outer loop is tolerated as long as the index does not depend on
        # it (its "iterator" cannot appear in the affine form anyway).
        iterators = {info.iterator for info in loop_stack if info is not None}
        current: ast.Expr = node
        while isinstance(current, ast.Index):
            if affine_terms(current.index, iterators) is None:
                return False
            current = current.base
        if not isinstance(current, ast.Identifier):
            return False
        symbol = current.symbol
        return isinstance(symbol, Symbol) and symbol.ctype.is_array


def _may_exit_functions(program: ast.Program) -> set[str]:
    """Names of functions that can reach the ``exit()`` builtin."""
    direct: dict[str, set[str]] = {}
    out: set[str] = set()
    for fn in program.functions:
        calls: set[str] = set()
        for node in ast.walk(fn.body):
            if isinstance(node, ast.Call):
                if node.is_builtin:
                    if node.name == "exit":
                        out.add(fn.name)
                else:
                    calls.add(node.name)
        direct[fn.name] = calls
    changed = True
    while changed:
        changed = False
        for name, calls in direct.items():
            if name not in out and calls & out:
                out.add(name)
                changed = True
    return out


def detect(program: ast.Program) -> StaticAnalysisResult:
    """Run the static baseline over an analyzed program."""
    return StaticForayDetector(program).run()
