"""Compile-time FORAY extraction — the static twin of the dynamic pipeline.

:func:`analyze_static` walks a compiled program from ``main`` in program
order and computes, with zero simulation, the same per-reference records
the dynamic extractor derives from the trace: affine access functions
over loop iteration counters, exact footprints, execution counts and
loop-tree paths. The walk is a *mirror* of the dynamic machinery:

* the loop stack reproduces :class:`repro.foray.looptree.LoopTreeBuilder`
  checkpoint semantics exactly, including the lazy pop of finished loops
  (an access textually after an inner loop is attributed to that loop's
  *closed* node, with its iterator dimension stuck at ``trip - 1``);
* global addresses come from :func:`repro.staticfar.layout.global_layout`
  and frame addresses from a replica of the engines' downward stack
  allocator, so the constant terms are real byte addresses;
* affine coefficients follow Algorithm 3's solved-coefficient rules: a
  dimension whose counter never changes between consecutive accesses of
  a reference stays UNKNOWN (``None``), every other dimension solves to
  ``elem_size · c · step``.

Everything the walker cannot prove is recorded as a
:class:`~repro.staticfar.model.StaticRefusal` — never guessed at — which
is what makes the static-vs-dynamic differential oracle sound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Union

from repro.foray.filters import FilterConfig
from repro.foray.model import AffineExpression, ForayLoop, ForayReference
from repro.lang import ast_nodes as ast
from repro.lang.ctypes_ import (
    ArrayType,
    CType,
    IntType,
    StructType,
    fold_int_binary,
)
from repro.lang.semantics import Symbol
from repro.sim.memory import STACK_TOP
from repro.sim.trace import load_pc, store_pc
from repro.staticfar.detector import (
    CanonicalLoopInfo,
    StaticAnalysisResult,
    _const_value,
    detect,
)
from repro.staticfar.layout import global_layout
from repro.staticfar.model import StaticForayModel, StaticRefusal

#: Abort exact footprint enumeration beyond this many distinct addresses.
_ENUM_LIMIT = 1_000_000

#: An affine form: ``{None: const, symbol: coefficient, ...}``.
AffineForm = dict[Union[Symbol, None], int]

# Statement walk statuses.
_LIVE = "live"
_CONTINUED = "continued"  # unconditional break/continue hit
_RETURNED = "returned"
_EXITED = "exited"


@dataclass
class _FnSummary:
    has_loop: bool = False
    may_exit: bool = False
    recursive: bool = False


@dataclass
class _StaticRef:
    """Accumulator for one modeled (loop node, pc) reference."""

    pc: int
    expression: AffineExpression
    addresses: frozenset[int]
    access_size: int
    exec_count: int = 0
    reads: int = 0
    writes: int = 0
    dead: bool = False


@dataclass
class _MirrorNode:
    """Static twin of :class:`repro.foray.looptree.LoopNode`."""

    begin_id: int
    kind: str
    ast_node_id: int
    parent: "_MirrorNode | None"
    depth: int
    uid: int
    info: CanonicalLoopInfo | None = None
    sound: bool = True
    trip: int = 0
    entries: int = 0
    total_iterations: int = 0
    children: "dict[int, _MirrorNode]" = field(default_factory=dict)
    refs: dict[int, _StaticRef] = field(default_factory=dict)

    @property
    def is_root(self) -> bool:
        return self.parent is None

    def path_from_root(self) -> "tuple[_MirrorNode, ...]":
        path: list[_MirrorNode] = []
        node: _MirrorNode | None = self
        while node is not None and not node.is_root:
            path.append(node)
            node = node.parent
        path.reverse()
        return tuple(path)

    def iter_subtree(self) -> "Iterable[_MirrorNode]":
        yield self
        for child in self.children.values():
            yield from child.iter_subtree()


@dataclass
class _Frame:
    """One walked call instance (register env + frame memory layout)."""

    fn: str
    #: Register-int affine forms over *live* iterator symbols.
    env: dict[Symbol, AffineForm] = field(default_factory=dict)
    #: Frame addresses of in-memory locals/params of this instance.
    mem_addrs: dict[Symbol, int] = field(default_factory=dict)
    #: Open canonical loops belonging to this function instance.
    open_loops: int = 0


class _Refuse(Exception):
    """Internal: abort modeling one reference with a reason."""

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(reason)
        self.reason = reason
        self.detail = detail


class StaticAnalyzer:
    """Single-use walker; see :func:`analyze_static`."""

    def __init__(self, program: ast.Program, filter_config: FilterConfig,
                 detector_result: StaticAnalysisResult | None = None):
        self.program = program
        self.filter = filter_config
        self.detector = detector_result or detect(program)
        self.layout = global_layout(program)
        self.summaries = _summarize_functions(program)

        #: Functions reachable both from modeled (unconditional) call
        #: sites and from conditional regions. Their total activation
        #: counts are input-dependent, so modeling them from the
        #: unconditional sites alone would understate every statistic;
        #: :meth:`run` demotes them and re-walks (see there).
        self._tainted_fns: set[str] = set()
        self._reset()

    def _reset(self) -> None:
        """(Re)initialize all per-walk mutable state."""
        self.root = _MirrorNode(begin_id=0, kind="root", ast_node_id=-1,
                                parent=None, depth=0, uid=0)
        self.stack: list[list[object]] = [[self.root, True]]
        self._next_uid = 1
        #: All open canonical loops on the stack, keyed by iterator symbol.
        self.live_iters: dict[Symbol, _MirrorNode] = {}
        self.frames: list[_Frame] = []
        self.count = 1
        #: True while the identity of the attribution node is data-dependent
        #: (a conditional branch may have left loop nodes on the dynamic
        #: stack). Cleared by the next unconditional checkpoint.
        self.poisoned = False
        #: Simulated stack pointer (the engines' downward bump allocator).
        self.sp = STACK_TOP
        self.sp_exact = True

        self.refusals: dict[int, StaticRefusal] = {}
        self.model_complete = True
        self._scanned: set[tuple[str, str]] = set()
        #: Functions modeled through an unconditional call this walk.
        self._modeled_fns: set[str] = set()
        #: Functions reached (transitively) from a scanned region.
        self._cond_called: set[str] = set()

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------

    def run(self, entry: str = "main") -> StaticForayModel:
        if not self.program.has_function(entry):
            raise ValueError(f"no entry function {entry!r}")
        while True:
            fn = self.program.function(entry)
            frame = _Frame(fn=entry)
            self.frames.append(frame)
            self._bind_params(fn, [], frame)
            self._walk_stmt(fn.body, (entry,))
            self.frames.pop()
            # A function reached from a modeled call site AND a scanned
            # (conditional) region executes more often than the modeled
            # sites alone can account for — by an input-dependent
            # amount. Modeling it would understate every statistic, so
            # demote it and walk again: its call sites now scan, its
            # references join the contextual-refusal set, and the
            # dynamic extraction keeps sole custody of its counts.
            # Iterated to a fixpoint because each demotion can expose
            # new conditionally-reached callees.
            newly_tainted = (self._modeled_fns & self._cond_called
                             - self._tainted_fns)
            if not newly_tainted:
                return self._finish()
            self._tainted_fns |= newly_tainted
            self._reset()

    # ------------------------------------------------------------------
    # function summaries / helpers
    # ------------------------------------------------------------------

    @property
    def frame(self) -> _Frame:
        return self.frames[-1]

    def _note_refusal(self, node_id: int, reason: str, detail: str = "",
                      provable: bool = False) -> None:
        if node_id not in self.refusals:
            self.refusals[node_id] = StaticRefusal(node_id, reason, detail,
                                                   provably_filtered=provable)
        if not provable:
            self.model_complete = False

    def _provably_filtered(self, expr: ast.Expr) -> bool:
        """True when no solver outcome for this node survives the filter.

        A reference whose address is a single compile-time constant has
        footprint 1 and solves every varying dimension's coefficient to 0,
        so ``require_iterator`` (or any ``nloc > 1``) provably drops it.
        """
        if not (self.filter.require_iterator or self.filter.nloc > 1):
            return False
        return self._const_address(expr)

    def _const_address(self, expr: ast.Expr) -> bool:
        node: ast.Expr = expr
        while True:
            if isinstance(node, ast.Index):
                if _const_value(node.index) is None:
                    return False
                node = node.base
            elif isinstance(node, ast.Member):
                if node.is_arrow:
                    return False
                node = node.base
            elif isinstance(node, ast.Identifier):
                symbol = node.symbol
                return isinstance(symbol, Symbol) and symbol.storage == "global"
            else:
                return False

    # ------------------------------------------------------------------
    # expression algebra over the register environment
    # ------------------------------------------------------------------

    def _affine(self, expr: ast.Expr, frame: _Frame) -> AffineForm | None:
        """``expr`` as const + Σ c·iter over live iterators, or None.

        Unlike the detector's source-level ``affine_terms``, this resolves
        register scalars through the environment, which propagates
        constants and caller-iterator affine forms through parameters —
        the interprocedural reach the dynamic extractor gets for free.
        """
        value = _const_value(expr)
        if value is not None:
            return {None: value}
        if isinstance(expr, ast.Identifier):
            symbol = expr.symbol
            if not isinstance(symbol, Symbol):
                return None
            if symbol in self.live_iters:
                return {symbol: 1, None: 0}
            form = frame.env.get(symbol)
            return dict(form) if form is not None else None
        if isinstance(expr, ast.Unary) and expr.op in ("-", "+"):
            inner = self._affine(expr.operand, frame)
            if inner is None:
                return None
            if expr.op == "+":
                return inner
            return _wrapped(expr, {key: -val for key, val in inner.items()})
        if isinstance(expr, ast.Binary):
            if expr.op in ("+", "-"):
                left = self._affine(expr.left, frame)
                right = self._affine(expr.right, frame)
                if left is None or right is None:
                    return None
                sign = 1 if expr.op == "+" else -1
                merged = dict(left)
                merged.setdefault(None, 0)
                for key, val in right.items():
                    merged[key] = merged.get(key, 0) + sign * val
                return _wrapped(expr, merged)
            if expr.op == "*":
                left = self._affine(expr.left, frame)
                right = self._affine(expr.right, frame)
                if left is None or right is None:
                    return None
                lconst = left.get(None, 0) if len(left) == 1 else None
                rconst = right.get(None, 0) if len(right) == 1 else None
                if rconst is not None:
                    return _wrapped(
                        expr, {k: v * rconst for k, v in left.items()})
                if lconst is not None:
                    return _wrapped(
                        expr, {k: v * lconst for k, v in right.items()})
                return None
            if expr.op in ("/", "<<", ">>", "%"):
                left = self._affine(expr.left, frame)
                right = self._affine(expr.right, frame)
                if (left is None or right is None or len(left) > 1
                        or len(right) > 1):
                    return None
                value = fold_int_binary(expr.op, left.get(None, 0),
                                        right.get(None, 0))
                return None if value is None else _wrapped(expr, {None: value})
        return None

    def _invalidate_assigned(self, node: ast.Node, frame: _Frame) -> None:
        """Drop env bindings for every symbol assigned inside ``node``."""
        for sym in _assigned_symbols(node):
            frame.env.pop(sym, None)

    # ------------------------------------------------------------------
    # reference modeling
    # ------------------------------------------------------------------

    def _resolve_address(self, expr: ast.Expr,
                         frame: _Frame) -> tuple[int, dict[Symbol, int]]:
        """Byte address of an lvalue chain as (const, {iterator: bytes})."""
        offset = 0
        coeffs: dict[Symbol, int] = {}
        node: ast.Expr = expr
        while True:
            if isinstance(node, ast.Index):
                elem = node.ctype
                if elem is None:
                    raise _Refuse("non-affine-index", "untyped subscript")
                terms = self._affine(node.index, frame)
                if terms is None:
                    raise _Refuse("non-affine-index",
                                  "index not affine in live iterators")
                for sym, coeff in terms.items():
                    if sym is None:
                        offset += coeff * elem.size
                    else:
                        coeffs[sym] = coeffs.get(sym, 0) + coeff * elem.size
                node = node.base
            elif isinstance(node, ast.Member):
                if node.is_arrow:
                    raise _Refuse("pointer-dereference", "arrow member access")
                base_type = node.base.ctype
                if not isinstance(base_type, StructType):
                    raise _Refuse("pointer-dereference", "untyped member base")
                offset += base_type.member(node.name).offset
                node = node.base
            elif isinstance(node, ast.Identifier):
                symbol = node.symbol
                if not isinstance(symbol, Symbol):
                    raise _Refuse("non-affine-index", "unresolved symbol")
                if symbol.storage == "global":
                    return self.layout[symbol] + offset, coeffs
                base = frame.mem_addrs.get(symbol)
                if base is None:
                    raise _Refuse("stack-allocated",
                                  f"no static frame address for {symbol.name!r}")
                return base + offset, coeffs
            else:
                raise _Refuse("pointer-dereference",
                              f"unsupported base {type(node).__name__}")

    def _emit_ref(self, expr: ast.Expr, is_write: bool, frame: _Frame) -> None:
        """Model one memory access at ``expr`` (refusing when unsound)."""
        try:
            if self.poisoned:
                raise _Refuse("indeterminate-attribution",
                              "loop context depends on data")
            top, top_open = self.stack[-1]
            assert isinstance(top, _MirrorNode)
            if not top.sound:
                raise _Refuse("non-canonical-loop",
                              "attributed to a non-canonical loop context")
            base, coeffs = self._resolve_address(expr, frame)
            self._emit_resolved(expr.node_id, base, coeffs, is_write,
                                expr.ctype.size if expr.ctype else 1)
        except _Refuse as refusal:
            self._note_refusal(expr.node_id, refusal.reason, refusal.detail,
                               provable=self._provably_filtered(expr))

    def _emit_resolved(self, node_id: int, base: int,
                       coeffs: dict[Symbol, int], is_write: bool,
                       access_size: int) -> None:
        top = self.stack[-1][0]
        assert isinstance(top, _MirrorNode)
        # Constant term: real address at all-zero open iteration counters.
        # The engines take every element address modulo 2**32; each step
        # is the signed representative the extractor observes (as in
        # _wrapped, an unsigned ``a[40 - i]`` steps down).
        const = base
        for sym, coeff in coeffs.items():
            node = self.live_iters.get(sym)
            if node is None:
                raise _Refuse("non-affine-index",
                              f"iterator {sym.name!r} not live")
            assert node.info is not None
            const += coeff * node.info.start
        const &= 0xFFFFFFFF
        # Dimensions, innermost (stack top) first, as the solver sees them.
        dims: list[int | None] = []
        enum: list[tuple[int, int]] = []  # (coefficient, trip) to enumerate
        for entry in reversed(self.stack[1:]):
            dim_node, dim_open = entry
            assert isinstance(dim_node, _MirrorNode)
            if not dim_open or dim_node.trip <= 1:
                # Never changes between consecutive accesses: the solver
                # keeps this coefficient UNKNOWN.
                dims.append(None)
                continue
            assert dim_node.info is not None
            coeff = _signed32(
                coeffs.get(dim_node.info.iterator, 0) * dim_node.info.step)
            dims.append(coeff)
            if coeff:
                enum.append((coeff, dim_node.trip))
        addresses = {const}
        for coeff, trip in enum:
            if len(addresses) * trip > _ENUM_LIMIT:
                raise _Refuse("footprint-too-large",
                              f"> {_ENUM_LIMIT} distinct addresses")
            addresses = {(addr + coeff * k) & 0xFFFFFFFF
                         for addr in addresses for k in range(trip)}
        pc = store_pc(node_id) if is_write else load_pc(node_id)
        expression = AffineExpression(const=const, coefficients=tuple(dims),
                                      num_iterators=len(dims))
        ref = top.refs.get(pc)
        if ref is None:
            ref = _StaticRef(pc=pc, expression=expression,
                             addresses=frozenset(addresses),
                             access_size=access_size)
            top.refs[pc] = ref
        elif ref.dead:
            return
        elif ref.expression != expression:
            # Same reference, different address pattern across call
            # instances (distinct frame bases): the dynamic solver would
            # patch its constant term; we refuse rather than mis-model.
            ref.dead = True
            self._note_refusal(node_id, "stack-allocated",
                               "frame address varies across call instances")
            return
        ref.exec_count += self.count
        if is_write:
            ref.writes += self.count
        else:
            ref.reads += self.count

    # ------------------------------------------------------------------
    # conditional / unsound region scanning
    # ------------------------------------------------------------------

    def _scan(self, node: ast.Node | None, reason: str,
              chain: tuple[str, ...]) -> None:
        """Record refusals for every access in a region we cannot model."""
        if node is None:
            return
        for sub in ast.walk(node):
            if isinstance(sub, ast.DeclStmt):
                for decl in sub.decls:
                    symbol = decl.symbol
                    if isinstance(symbol, Symbol) and symbol.in_memory:
                        self.sp_exact = False
                        if decl.init is not None:
                            for item in ast.walk(decl.init):
                                if isinstance(item, ast.Expr):
                                    self._note_refusal(item.node_id, reason,
                                                       "conditional init")
            elif isinstance(sub, ast.Expr) and _is_memory_ref(sub):
                self._note_refusal(sub.node_id, reason,
                                   provable=self._provably_filtered(sub))
            elif isinstance(sub, ast.Identifier):
                symbol = sub.symbol
                if (isinstance(symbol, Symbol) and symbol.in_memory
                        and symbol.ctype.is_scalar):
                    self._note_refusal(sub.node_id, reason,
                                       provable=self._provably_filtered(sub))
            if (isinstance(sub, ast.Call) and not sub.is_builtin
                    and self.program.has_function(sub.name)):
                self._cond_called.add(sub.name)
                if sub.name in chain:
                    self._note_refusal(sub.node_id, "recursion",
                                       f"cycle through {sub.name!r}")
                    continue
                key = (sub.name, reason)
                if key not in self._scanned:
                    self._scanned.add(key)
                    self._scan(self.program.function(sub.name).body,
                               reason, chain + (sub.name,))

    def _escapes(self, node: ast.Node | None) -> set[str]:
        """Which escape kinds a conditionally-executed region can trigger."""
        out: set[str] = set()
        if node is None:
            return out
        stack: list[ast.Node] = [node]
        while stack:
            sub = stack.pop()
            if isinstance(sub, ast.Return):
                out.add("fn")
            elif isinstance(sub, (ast.Break, ast.Continue)):
                out.add("loop")
            elif isinstance(sub, ast.Call):
                if sub.is_builtin:
                    if sub.name == "exit":
                        out.add("exit")
                elif self.summaries.get(sub.name, _FnSummary()).may_exit:
                    out.add("exit")
            if isinstance(sub, ast.Loop):
                # breaks/continues inside a nested loop bind to it; returns
                # and exits still escape, so scan its subtree for those.
                for inner in ast.walk(sub):
                    if isinstance(inner, ast.Return):
                        out.add("fn")
                    elif isinstance(inner, ast.Call):
                        if inner.is_builtin:
                            if inner.name == "exit":
                                out.add("exit")
                        elif self.summaries.get(inner.name,
                                                _FnSummary()).may_exit:
                            out.add("exit")
                continue
            stack.extend(ast.children(sub))
        return out

    def _disturbs_stack(self, node: ast.Node | None) -> bool:
        """Could this region move the dynamic loop stack (enter loops)?"""
        if node is None:
            return False
        for sub in ast.walk(node):
            if isinstance(sub, ast.Loop):
                return True
            if (isinstance(sub, ast.Call) and not sub.is_builtin
                    and self.summaries.get(sub.name,
                                           _FnSummary()).has_loop):
                return True
        return False

    def _enter_conditional(self, node: ast.Node, reason: str,
                           chain: tuple[str, ...], frame: _Frame) -> set[str]:
        """Handle a region that may or may not execute."""
        self._scan(node, reason, chain)
        self._invalidate_assigned(node, frame)
        if self._disturbs_stack(node):
            self.poisoned = True
        return self._escapes(node)

    # ------------------------------------------------------------------
    # statement walk
    # ------------------------------------------------------------------

    def _walk_stmt(self, stmt: ast.Stmt,
                   chain: tuple[str, ...]) -> tuple[str, set[str]]:
        frame = self.frame
        if isinstance(stmt, ast.Block):
            return self._walk_block(stmt.stmts, chain)
        if isinstance(stmt, ast.DeclStmt):
            return self._walk_decl(stmt, chain)
        if isinstance(stmt, ast.ExprStmt):
            taint, exited = self._visit_expr(stmt.expr, chain)
            return (_EXITED if exited else _LIVE), taint
        if isinstance(stmt, ast.If):
            return self._walk_if(stmt, chain)
        if isinstance(stmt, ast.For):
            return self._walk_for(stmt, chain)
        if isinstance(stmt, (ast.While, ast.DoWhile)):
            return self._walk_irregular_loop(stmt, chain)
        if isinstance(stmt, ast.Return):
            taint: set[str] = set()
            if stmt.expr is not None:
                taint, exited = self._visit_expr(stmt.expr, chain)
                if exited:
                    return _EXITED, taint
            return _RETURNED, taint
        if isinstance(stmt, (ast.Break, ast.Continue)):
            return _CONTINUED, set()
        return _LIVE, set()  # EmptyStmt

    def _walk_block(self, stmts: list[ast.Stmt],
                    chain: tuple[str, ...]) -> tuple[str, set[str]]:
        frame = self.frame
        taint: set[str] = set()
        for stmt in stmts:
            if taint:
                # Everything after a conditional escape is conditionally
                # executed: scan, don't model.
                taint |= self._enter_conditional(stmt, "control-dependent",
                                                 chain, frame)
                continue
            status, t = self._walk_stmt(stmt, chain)
            taint |= t
            if status != _LIVE:
                return status, taint
        return _LIVE, taint

    def _walk_decl(self, stmt: ast.DeclStmt,
                   chain: tuple[str, ...]) -> tuple[str, set[str]]:
        frame = self.frame
        taint: set[str] = set()
        for decl in stmt.decls:
            symbol = decl.symbol
            if not isinstance(symbol, Symbol):
                continue
            if symbol.in_memory:
                if not self.sp_exact or frame.open_loops > 0:
                    # Per-iteration frame allocation (or an already
                    # indeterminate sp): give up on frame addresses for the
                    # rest of this instance.
                    self.sp_exact = False
                    if decl.init is not None:
                        # Initializer stores trace at the item nodes
                        # themselves (_init_object), not just at nested
                        # memory references: refuse them all.
                        for item in ast.walk(decl.init):
                            if isinstance(item, ast.Expr):
                                self._note_refusal(item.node_id,
                                                   "stack-allocated",
                                                   "indeterminate frame addr")
                        self._scan(decl.init, "stack-allocated", chain)
                    continue
                align = max(1, symbol.ctype.alignment)
                addr = (self.sp - max(1, symbol.ctype.size)) // align * align
                self.sp = addr
                frame.mem_addrs[symbol] = addr
                if decl.init is not None:
                    taint |= self._walk_init_object(addr, symbol.ctype,
                                                    decl.init, chain)
            else:
                if decl.init is not None:
                    t, exited = self._visit_expr(decl.init, chain)
                    taint |= t
                    if exited:
                        return _EXITED, taint
                    form = self._affine(decl.init, frame)
                else:
                    form = {None: 0}  # fresh registers read as zero
                if symbol.ctype.is_integer and form is not None:
                    frame.env[symbol] = _stored(symbol.ctype, form)
                else:
                    frame.env.pop(symbol, None)
        return _LIVE, taint

    def _walk_init_object(self, addr: int, ctype, init: ast.Expr,
                          chain: tuple[str, ...]) -> set[str]:
        """Mirror ``Interpreter._init_object``: traced element stores."""
        taint: set[str] = set()
        if isinstance(init, ast.Call) and init.name == "__init_list__":
            if isinstance(ctype, ArrayType):
                element = ctype.element
                for index, item in enumerate(init.args[: ctype.length]):
                    taint |= self._walk_init_object(
                        addr + index * element.size, element, item, chain)
            elif isinstance(ctype, StructType):
                for item, member in zip(init.args, ctype.members):
                    taint |= self._walk_init_object(addr + member.offset,
                                                    member.ctype, item, chain)
            return taint
        if isinstance(init, ast.StringLiteral) and isinstance(ctype, ArrayType):
            return taint  # written untraced, like program load
        t, _ = self._visit_expr(init, chain)
        taint |= t
        try:
            self._emit_resolved(init.node_id, addr, {}, True,
                                ctype.size if ctype else 1)
        except _Refuse as refusal:
            self._note_refusal(init.node_id, refusal.reason, refusal.detail)
        return taint

    def _walk_if(self, stmt: ast.If,
                 chain: tuple[str, ...]) -> tuple[str, set[str]]:
        frame = self.frame
        taint, exited = self._visit_expr(stmt.cond, chain)
        if exited:
            return _EXITED, taint
        for branch in (stmt.then_stmt, stmt.else_stmt):
            if branch is not None:
                taint |= self._enter_conditional(branch, "control-dependent",
                                                 chain, frame)
        return _LIVE, taint

    def _loop_begin(self, stmt: ast.Loop) -> _MirrorNode:
        """Mirror of the LOOP_BEGIN checkpoint: lazy-pop then descend."""
        while len(self.stack) > 1 and not self.stack[-1][1]:
            self.stack.pop()
        parent = self.stack[-1][0]
        assert isinstance(parent, _MirrorNode)
        begin_id = stmt.begin_id
        assert begin_id is not None, "static analysis needs instrumentation"
        child = parent.children.get(begin_id)
        if child is None:
            child = _MirrorNode(begin_id=begin_id, kind=stmt.kind,
                                ast_node_id=stmt.node_id, parent=parent,
                                depth=parent.depth + 1, uid=self._next_uid)
            self._next_uid += 1
            parent.children[begin_id] = child
        child.entries += self.count
        self.stack.append([child, False])
        # An unconditional checkpoint resynchronizes attribution.
        self.poisoned = False
        return child

    def _walk_for(self, stmt: ast.For,
                  chain: tuple[str, ...]) -> tuple[str, set[str]]:
        frame = self.frame
        info = self.detector.canonical_loops.get(stmt.node_id)
        child = self._loop_begin(stmt)
        escapes = self._escapes_function_level(stmt.body)
        if info is None or escapes or not child.sound:
            return self._give_up_loop(stmt, child, chain,
                                      "non-canonical-loop" if info is None
                                      else "early-exit-loop")
        child.sound = True
        child.info = info
        if child.trip and child.trip != info.trip_count:
            return self._give_up_loop(stmt, child, chain, "non-canonical-loop")
        child.trip = info.trip_count
        taint: set[str] = set()
        if stmt.init is not None:
            # Canonical inits are register-only: just update the env.
            status, t = self._walk_stmt(stmt.init, chain)
            taint |= t
        frame.env.pop(info.iterator, None)
        if info.trip_count > 0:
            child.total_iterations += self.count * info.trip_count
            # BODY_BEGIN: open; body walked once, symbolically.
            self.stack[-1][1] = True
            self.live_iters[info.iterator] = child
            self._invalidate_assigned(stmt.body, frame)
            saved_count = self.count
            self.count *= info.trip_count
            frame.open_loops += 1
            status, t = self._walk_stmt(stmt.body, chain)
            frame.open_loops -= 1
            self.count = saved_count
            assert status in (_LIVE, _CONTINUED), \
                "early function exit inside a sound loop"
            taint |= {k for k in t if k != "loop"}
            # BODY_END: pop trailing children, close; attribution is
            # deterministic again.
            while self.stack[-1][0] is not child:
                self.stack.pop()
            self.stack[-1][1] = False
            self.poisoned = False
            del self.live_iters[info.iterator]
            self._invalidate_assigned(stmt.body, frame)
        # Exit value of an assignment-form iterator is a known constant.
        if not _declares_iterator(stmt):
            frame.env[info.iterator] = {
                None: info.start + info.step * info.trip_count}
        return _LIVE, taint

    def _give_up_loop(self, stmt: ast.Loop, child: _MirrorNode,
                      chain: tuple[str, ...],
                      reason: str) -> tuple[str, set[str]]:
        frame = self.frame
        child.sound = False
        parts: list[ast.Node | None] = [stmt.body]
        if isinstance(stmt, ast.For):
            parts = [stmt.init, stmt.cond, stmt.step, stmt.body]
        elif isinstance(stmt, (ast.While, ast.DoWhile)):
            parts = [stmt.cond, stmt.body]
        taint: set[str] = set()
        for part in parts:
            if part is not None:
                self._scan(part, reason, chain)
                self._invalidate_assigned(part, frame)
        if isinstance(stmt, ast.For) and stmt.init is not None:
            # the init also assigns (e.g. `i = 0`)
            self._invalidate_assigned(stmt.init, frame)
        escape = self._escapes(stmt.body) | self._escapes(
            stmt.cond if isinstance(stmt, (ast.While, ast.DoWhile, ast.For))
            else None)
        taint |= {k for k in escape if k != "loop"}
        # The loop node stays on the stack, closed: trailing accesses are
        # attributed to it, and _emit_ref refuses on `not child.sound`.
        return _LIVE, taint

    def _walk_irregular_loop(self, stmt: ast.Loop,
                             chain: tuple[str, ...]) -> tuple[str, set[str]]:
        child = self._loop_begin(stmt)
        return self._give_up_loop(stmt, child, chain, "non-canonical-loop")

    def _escapes_function_level(self, body: ast.Node) -> bool:
        """Does the body contain a return or a (possibly nested) exit?"""
        for sub in ast.walk(body):
            if isinstance(sub, ast.Return):
                return True
            if isinstance(sub, ast.Call):
                if sub.is_builtin and sub.name == "exit":
                    return True
                if (not sub.is_builtin
                        and self.summaries.get(sub.name,
                                               _FnSummary()).may_exit):
                    return True
        return False

    # ------------------------------------------------------------------
    # expression walk (mirrors the interpreter's evaluation order)
    # ------------------------------------------------------------------

    def _visit_expr(self, expr: ast.Expr | None,
                    chain: tuple[str, ...]) -> tuple[set[str], bool]:
        frame = self.frame
        taint: set[str] = set()
        if expr is None:
            return taint, False
        if isinstance(expr, (ast.IntLiteral, ast.FloatLiteral,
                             ast.StringLiteral, ast.SizeofType,
                             ast.SizeofExpr)):
            return taint, False
        if isinstance(expr, ast.Identifier):
            symbol = expr.symbol
            if (isinstance(symbol, Symbol) and symbol.in_memory
                    and symbol.ctype.is_scalar):
                self._emit_ref(expr, False, frame)
            return taint, False
        if isinstance(expr, ast.Unary):
            if expr.op == "&":
                return self._visit_lvalue_subexprs(expr.operand, chain)
            taint, exited = self._visit_expr(expr.operand, chain)
            if exited:
                return taint, True
            if expr.op == "*" and expr.ctype is not None \
                    and expr.ctype.is_scalar:
                self._emit_ref(expr, False, frame)
            return taint, False
        if isinstance(expr, ast.IncDec):
            taint, exited = self._visit_lvalue_subexprs(expr.operand, chain)
            if exited:
                return taint, True
            if self._lvalue_in_memory(expr.operand):
                self._emit_ref(expr.operand, False, frame)
                self._emit_ref(expr.operand, True, frame)
            else:
                self._update_register(expr.operand, expr, frame)
            return taint, False
        if isinstance(expr, ast.Binary):
            taint, exited = self._visit_expr(expr.left, chain)
            if exited:
                return taint, True
            if expr.op in ("&&", "||"):
                taint |= self._enter_conditional(expr.right, "short-circuit",
                                                 chain, frame)
                return taint, False
            t, exited = self._visit_expr(expr.right, chain)
            return taint | t, exited
        if isinstance(expr, ast.Assign):
            return self._visit_assign(expr, chain)
        if isinstance(expr, ast.Ternary):
            taint, exited = self._visit_expr(expr.cond, chain)
            if exited:
                return taint, True
            for arm in (expr.then_expr, expr.else_expr):
                taint |= self._enter_conditional(arm, "control-dependent",
                                                 chain, frame)
            return taint, False
        if isinstance(expr, ast.Call):
            return self._visit_call(expr, chain)
        if isinstance(expr, (ast.Index, ast.Member)):
            taint, exited = self._visit_lvalue_subexprs(expr, chain)
            if exited:
                return taint, True
            if expr.ctype is not None and expr.ctype.is_scalar:
                self._emit_ref(expr, False, frame)
            return taint, False
        if isinstance(expr, ast.Cast):
            return self._visit_expr(expr.operand, chain)
        return taint, False

    def _visit_lvalue_subexprs(self, expr: ast.Expr,
                               chain: tuple[str, ...]) -> tuple[set[str], bool]:
        """Evaluate an lvalue's address subexpressions (no final access)."""
        if isinstance(expr, ast.Index):
            taint, exited = self._visit_expr(expr.base, chain)
            if exited:
                return taint, True
            t, exited = self._visit_expr(expr.index, chain)
            return taint | t, exited
        if isinstance(expr, ast.Member):
            return self._visit_expr(expr.base, chain)
        if isinstance(expr, ast.Unary) and expr.op == "*":
            return self._visit_expr(expr.operand, chain)
        if isinstance(expr, ast.Identifier):
            return set(), False
        return self._visit_expr(expr, chain)

    def _lvalue_in_memory(self, target: ast.Expr) -> bool:
        if isinstance(target, ast.Identifier):
            symbol = target.symbol
            return isinstance(symbol, Symbol) and symbol.in_memory
        return True  # Index/Member/deref targets always touch memory

    def _update_register(self, target: ast.Expr, source: ast.Expr,
                         frame: _Frame) -> None:
        """Register lvalue mutated; refresh or drop its env binding."""
        if not isinstance(target, ast.Identifier):
            return
        symbol = target.symbol
        if not isinstance(symbol, Symbol):
            return
        if symbol in self.live_iters:
            return  # canonical-loop soundness already excludes this
        form: AffineForm | None = None
        if isinstance(source, ast.IncDec):
            old = frame.env.get(symbol)
            if old is not None:
                form = dict(old)
                form[None] = form.get(None, 0) + (1 if source.op == "++"
                                                  else -1)
        elif isinstance(source, ast.Assign):
            value_form = self._affine(source.value, frame)
            if source.op == "":
                form = value_form
            else:
                old = frame.env.get(symbol)
                if old is not None and value_form is not None:
                    form = _combine(old, source.op, value_form)
        if form is not None and symbol.ctype.is_integer:
            frame.env[symbol] = _stored(symbol.ctype, form)
        else:
            frame.env.pop(symbol, None)

    def _visit_assign(self, expr: ast.Assign,
                      chain: tuple[str, ...]) -> tuple[set[str], bool]:
        frame = self.frame
        taint, exited = self._visit_lvalue_subexprs(expr.target, chain)
        if exited:
            return taint, True
        in_memory = self._lvalue_in_memory(expr.target)
        if expr.op and in_memory:
            self._emit_ref(expr.target, False, frame)  # compound load
        t, exited = self._visit_expr(expr.value, chain)
        taint |= t
        if exited:
            return taint, True
        if in_memory:
            self._emit_ref(expr.target, True, frame)
        else:
            self._update_register(expr.target, expr, frame)
        return taint, False

    def _visit_call(self, expr: ast.Call,
                    chain: tuple[str, ...]) -> tuple[set[str], bool]:
        frame = self.frame
        taint: set[str] = set()
        arg_forms: list[AffineForm | None] = []
        for arg in expr.args:
            t, exited = self._visit_expr(arg, chain)
            taint |= t
            if exited:
                return taint, True
            arg_forms.append(self._affine(arg, frame))
        if expr.is_builtin:
            return taint, expr.name == "exit"
        if not self.program.has_function(expr.name):
            return taint, False
        if expr.name in chain:
            self._note_refusal(expr.node_id, "recursion",
                               f"cycle through {expr.name!r}")
            summary = self.summaries.get(expr.name, _FnSummary())
            if summary.has_loop:
                self.poisoned = True
            self._scan(self.program.function(expr.name).body, "recursion",
                       chain + (expr.name,))
            return taint, False
        fn = self.program.function(expr.name)
        if expr.name in self._tainted_fns:
            # Also reachable from a conditional region: the function's
            # total activation count is input-dependent, so modeling
            # this call site would understate its statistics. Scan the
            # body instead (contextual refusals on every access). If the
            # callee begins loops, their checkpoints leave dynamic
            # attribution inside the callee's innermost loop after the
            # return — without the inline walk the mirror cannot follow,
            # so poison attribution until the next unconditional
            # checkpoint, exactly as for a skipped recursive call.
            self._note_refusal(expr.node_id, "control-dependent",
                               f"{expr.name!r} is also called "
                               "conditionally")
            summary = self.summaries.get(expr.name, _FnSummary())
            if summary.has_loop:
                self.poisoned = True
            self._scan(fn.body, "control-dependent", chain + (expr.name,))
            self._invalidate_assigned(fn.body, frame)
            if summary.may_exit:
                taint.add("exit")
            return taint, False
        self._modeled_fns.add(expr.name)
        saved_sp, saved_sp_exact = self.sp, self.sp_exact
        callee = _Frame(fn=expr.name)
        self._bind_params(fn, arg_forms, callee)
        self.frames.append(callee)
        status, t = self._walk_stmt(fn.body, chain + (expr.name,))
        self.frames.pop()
        self.sp, self.sp_exact = saved_sp, saved_sp_exact
        taint |= {k for k in t if k == "exit"}
        return taint, status == _EXITED

    def _bind_params(self, fn: ast.FunctionDef,
                     arg_forms: list[AffineForm | None],
                     frame: _Frame) -> None:
        for index, param in enumerate(fn.params):
            symbol = param.symbol
            if not isinstance(symbol, Symbol):
                continue
            if symbol.in_memory:
                # Parameter spills are written untraced at call entry.
                if self.sp_exact:
                    align = max(1, symbol.ctype.alignment)
                    addr = ((self.sp - max(1, symbol.ctype.size))
                            // align * align)
                    self.sp = addr
                    frame.mem_addrs[symbol] = addr
                continue
            form = arg_forms[index] if index < len(arg_forms) else None
            if form is not None and symbol.ctype.is_integer:
                frame.env[symbol] = _stored(symbol.ctype, form)

    # ------------------------------------------------------------------
    # model construction (mirrors ForayExtractor.finish)
    # ------------------------------------------------------------------

    def _finish(self) -> StaticForayModel:
        foray_loops: dict[int, ForayLoop] = {}

        def loop_of(node: _MirrorNode) -> ForayLoop:
            cached = foray_loops.get(node.uid)
            if cached is None:
                cached = ForayLoop(
                    begin_id=node.begin_id,
                    kind=node.kind,
                    depth=node.depth,
                    max_trip=node.trip,
                    min_trip=node.trip,
                    entries=node.entries,
                    total_iterations=node.total_iterations,
                    uid=node.uid,
                    ast_node_id=node.ast_node_id,
                )
                foray_loops[node.uid] = cached
            return cached

        unfiltered: list[ForayReference] = []
        for node in self.root.iter_subtree():
            if not node.sound:
                continue
            path = tuple(loop_of(a) for a in node.path_from_root())
            for ref in node.refs.values():
                if ref.dead:
                    continue
                unfiltered.append(ForayReference(
                    pc=ref.pc,
                    loop_path=path,
                    expression=ref.expression,
                    exec_count=ref.exec_count,
                    footprint=len(ref.addresses),
                    reads=ref.reads,
                    writes=ref.writes,
                    mispredictions=0,
                    access_size=ref.access_size,
                ))

        references = self.filter.apply(unfiltered)

        model_loops: dict[int, ForayLoop] = {}
        for reference in unfiltered:
            if reference.expression.includes_iterator():
                for loop in reference.loop_path:
                    model_loops[loop.uid] = loop

        histogram: dict[str, int] = {}
        for refusal in self.refusals.values():
            histogram[refusal.reason] = histogram.get(refusal.reason, 0) + 1

        return StaticForayModel(
            name="",
            references=references,
            unfiltered_references=unfiltered,
            loops=sorted(model_loops.values(), key=lambda lp: lp.uid),
            refusals=dict(self.refusals),
            filter_config=self.filter,
            model_complete=self.model_complete,
            refusal_histogram=histogram,
        )


# ----------------------------------------------------------------------
# module helpers
# ----------------------------------------------------------------------


def _is_memory_ref(node: ast.Expr) -> bool:
    if not isinstance(node, (ast.Index, ast.Member, ast.Unary)):
        return False
    if isinstance(node, ast.Unary) and node.op != "*":
        return False
    return node.ctype is not None and node.ctype.is_scalar


def _assigned_symbols(node: ast.Node) -> set[Symbol]:
    out: set[Symbol] = set()
    for sub in ast.walk(node):
        target = None
        if isinstance(sub, ast.Assign):
            target = sub.target
        elif isinstance(sub, ast.IncDec):
            target = sub.operand
        elif isinstance(sub, ast.DeclStmt):
            for decl in sub.decls:
                if isinstance(decl.symbol, Symbol):
                    out.add(decl.symbol)
            continue
        if isinstance(target, ast.Identifier) and isinstance(target.symbol,
                                                             Symbol):
            out.add(target.symbol)
    return out


def _declares_iterator(stmt: ast.For) -> bool:
    return isinstance(stmt.init, ast.DeclStmt)


def _signed32(value: int) -> int:
    """The signed 32-bit representative of ``value`` modulo 2**32."""
    return (value + 2**31) % 2**32 - 2**31


def _wrapped(expr: ast.Expr, form: AffineForm) -> AffineForm:
    """``form`` wrapped to ``expr``'s integer type, as the engines wrap
    every integer result.

    A constant wraps to the type's own range: ``/``, ``%`` and the
    shifts fold it as that value. A form over iterators only ever
    reaches an element address, which the engines take modulo 2**32.
    Wrapping commutes with ``+``, ``-`` and ``*`` modulo the type's
    width (never below 32 bits once C has promoted the operands), so
    every term wraps to the signed range of that width: its small
    representatives are the address steps the extractor observes, also
    for an unsigned index such as ``n - i``.
    """
    ctype = expr.ctype
    if not isinstance(ctype, IntType):
        return form
    if len(form) == 1 and None in form:
        return {None: ctype.wrap(form[None])}
    half = 1 << (8 * ctype.byte_size - 1)
    return {key: (val + half) % (2 * half) - half
            for key, val in form.items()}


def _stored(ctype: CType, form: AffineForm) -> AffineForm:
    """``form`` as an integer register of type ``ctype`` holds it: a
    constant wraps to the variable's type, as the engines store it; a
    form over iterators is kept as it is."""
    if len(form) == 1 and None in form and isinstance(ctype, IntType):
        return {None: ctype.wrap(form[None])}
    return form


def _combine(old: AffineForm, op: str, value: AffineForm) -> AffineForm | None:
    if op == "+" or op == "-":
        sign = 1 if op == "+" else -1
        merged = dict(old)
        merged.setdefault(None, 0)
        for key, val in value.items():
            merged[key] = merged.get(key, 0) + sign * val
        return merged
    if op == "*" and len(value) == 1:
        factor = value.get(None, 0)
        return {k: v * factor for k, v in old.items()}
    return None


def _summarize_functions(program: ast.Program) -> dict[str, _FnSummary]:
    """Transitive has-loop / may-exit / recursion facts per function."""
    direct: dict[str, tuple[bool, bool, set[str]]] = {}
    for fn in program.functions:
        has_loop = False
        may_exit = False
        calls: set[str] = set()
        for sub in ast.walk(fn.body):
            if isinstance(sub, ast.Loop):
                has_loop = True
            elif isinstance(sub, ast.Call):
                if sub.is_builtin:
                    if sub.name == "exit":
                        may_exit = True
                else:
                    calls.add(sub.name)
        direct[fn.name] = (has_loop, may_exit, calls)

    summaries = {name: _FnSummary(has_loop=h, may_exit=e)
                 for name, (h, e, _) in direct.items()}
    changed = True
    while changed:
        changed = False
        for name, (_, _, calls) in direct.items():
            summary = summaries[name]
            for callee in calls:
                sub = summaries.get(callee)
                if sub is None:
                    continue
                if sub.has_loop and not summary.has_loop:
                    summary.has_loop = True
                    changed = True
                if sub.may_exit and not summary.may_exit:
                    summary.may_exit = True
                    changed = True

    # Recursion: any cycle in the call graph marks every participant.
    for name in direct:
        stack = [name]
        seen: set[str] = set()
        while stack:
            current = stack.pop()
            for callee in direct.get(current, (False, False, set()))[2]:
                if callee == name:
                    summaries[name].recursive = True
                    stack = []
                    break
                if callee not in seen:
                    seen.add(callee)
                    stack.append(callee)
    return summaries


def analyze_static(
    program: ast.Program,
    filter_config: FilterConfig | None = None,
    detector_result: StaticAnalysisResult | None = None,
    name: str = "",
    entry: str = "main",
) -> StaticForayModel:
    """Compute the compile-time FORAY model of an instrumented program."""
    analyzer = StaticAnalyzer(program, filter_config or FilterConfig(),
                              detector_result)
    model = analyzer.run(entry)
    model.name = name
    return model
