"""Block compilation: lowered bytecode → straight-line generated Python.

This is how the bytecode engine executes: no instruction is ever
interpreted. Each function of the lowered program (:func:`~repro.sim.
bytecode.lower_program`), and the global initializers when they do
more than return, is translated once into Python source — one
module-level function per chain of basic blocks (the blocks and edges
of :func:`~repro.sim.dataflow.build_cfg`), operating on a flat register
list ``r`` — which CPython then executes natively. A memory access
appends one int to the record list of the VM's
:class:`~repro.sim.trace.TraceBuffer`, ``K | a_`` with the access site's
fields folded into the literal ``K`` (:func:`~repro.sim.trace.
pack_access`); a checkpoint appends its packed literal
(:func:`~repro.sim.trace.pack_checkpoint`). Each chain exit that
appended checks the buffer limit once.

Generated code never reads the buffer's ``tracing`` flag: it appends
accesses and checkpoints and calls ``_FLUSH()`` unconditionally, and a
flush while tracing is off drops its records. That is how the global
initializers run untraced on the same code paths as the program.

Within a block, register slots live in Python locals (``t<slot>``): a
write goes to the local, later reads come from it, and only slots that
are *live out* of the block (per :func:`~repro.sim.dataflow.liveness`)
are flushed back to ``r`` before the block returns. Everything that can
observe registers mid-block — a simulated call, a builtin, an abort —
either reads only explicitly materialized state (the per-frame call pc)
or ends the run, so the localization is invisible.

Blocks joined by an unconditional jump form a chain, and every loop of
the chain graph becomes one region function whose back-edges are
``continue``. A region carries the slots its chains touch in locals for
its whole stay. Its preheader loads only the carried slots that are
live into some chain head of the region (:func:`~repro.sim.dataflow.
liveness` plus the head instruction's own use and kill): every other
carried slot is written before it is read on every path from a head.
In-region edges keep the locals consistent without touching ``r``;
an exit flushes the slots live at its target. A nested loop is a call
of the child's region function: the parent flushes what is live (its
re-dispatch ladder, which cannot know the next chain head, flushes
every loaded slot), and after the call reloads only the loaded slots
the child writes — nothing else can come back changed.

Layout of the generated module (for function index ``f``):

* ``_bk{f}_{j}(r, b_)`` — chain ``j``, outside every loop; returns the
  next chain index, or ``-1`` to return from the function.
* ``_rg{f}_{id}(r, b_)`` — a loop region, entered at chain ``b_``;
  returns the first chain index outside it.
* ``_BK{f}`` — the chain table: chain ``j``'s function, or the
  outermost region holding ``j``.
* ``_fn{f}(*_a)`` — the driver: converts and binds parameters (missing
  arguments are silently dropped, as on the AST oracle), trampolines
  over the chain table, and converts the return value with the callee's
  void-ness (a missing return yields 0, like C). Simulated calls compile
  to direct calls between drivers; the simulated call-depth limit is
  enforced through a shared depth cell.

Every name starting with ``_`` but the block/driver definitions is bound
per-VM by :meth:`Specialization.bind` before the module is exec'd, so
one compiled specialization (cached on the :class:`BytecodeProgram`)
serves any number of VM runs. Registers ``r`` carry three extra slots:
the return value, the current call pc (read by the ``exit()`` unwind
path to replay pending body-end checkpoints per frame), and the stack
frame marker.

Every memory access is fully checked: the page is looked up per access
and a multi-byte access that would cross a 4 KiB page boundary takes the
generic ``Memory`` path the AST oracle uses for every access. The common
operations are one statement each:

* a step-budget check adds the batched count and calls the abort helper
  ``_OVER`` past the budget: ``if (s_ := s_ + k) > _MAXS: _OVER()``;
  ``_OVER`` records the step count the AST oracle stops at, one past
  the budget;
* an in-page load or store is one conditional expression that fetches
  the page inline (pages are never empty, so ``or`` falls through only
  on a missing page), e.g. ``t5 = _U0(_PG.get(a_ >> 12) or
  _MP(a_ >> 12), o_)[0] if (o_ := a_ & 4095) <= 4092 else _RI(a_, 4,
  True)``; a byte access indexes the page without the crossing test,
  and a float store wraps the expression in the ``try`` that diverts
  an overflow to ``Memory.write_float``.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import CodeType
from typing import Any, Callable, NoReturn, Sequence

from repro.lang.ctypes_ import FloatType, IntType, PointerType
from repro.lang.errors import MiniCRuntimeError
from repro.sim import builtins as libc
from repro.sim import bytecode as bc
from repro.sim import dataflow
from repro.sim.interpreter import ExecLimitExceeded
from repro.sim.trace import pack_access, pack_checkpoint

#: One lowered instruction: ``(op, *operands)``.
_Ins = tuple[Any, ...]
#: The line-writer bound method (``self.lines.append``).
_W = Callable[[str], None]

_M32 = "4294967295"

#: The bytearray of the page holding ``a_``, fetched inline (pages are
#: never empty, so a missing page is the only falsy lookup).
_PAGE = "_PG.get(a_ >> 12) or _MP(a_ >> 12)"

#: Side-effect-free, non-raising opcodes writing operand 1 — skipped
#: outright when the destination is dead. DECL/STR never qualify: they
#: move the stack/intern pointers, which later addresses observe.
_DEAD_SKIP = bc._PURE_OPS


@dataclass
class _Region:
    """A loop in the chain graph, emitted as one dispatch function."""

    id: int
    #: Every chain inside the region, nested loops included.
    members: tuple[int, ...]
    #: Chains dispatched directly by this region's ladder.
    direct: tuple[int, ...]
    #: Nested loops, each its own :class:`_Region`.
    children: tuple["_Region", ...]


def _sccs(nodes: list[int],
          succ: dict[int, list[int]]) -> list[list[int]]:
    """Tarjan's strongly connected components, iteratively."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on: dict[int, bool] = {}
    stack: list[int] = []
    out: list[list[int]] = []
    next_index = 0
    for root in nodes:
        if root in index:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = next_index
                next_index += 1
                stack.append(v)
                on[v] = True
            descended = False
            kids = succ.get(v, ())
            for i in range(pi, len(kids)):
                t = kids[i]
                if t not in index:
                    work[-1] = (v, i + 1)
                    work.append((t, 0))
                    descended = True
                    break
                if on.get(t):
                    low[v] = min(low[v], index[t])
            if descended:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    u = stack.pop()
                    on[u] = False
                    comp.append(u)
                    if u == v:
                        break
                out.append(comp)
    return out


def _loop_forest(
    nodes: list[int], succ: dict[int, list[int]], counter: list[int],
) -> tuple[list[int], list[_Region]]:
    """Split a chain graph into straight-line chains and loop regions.

    Each nontrivial SCC is a loop; removing the in-SCC edges into its
    header breaks the cycle, and recursing on the remainder exposes the
    nested loops. Returns ``(straight_chains, regions)``.
    """
    straight: list[int] = []
    regions: list[_Region] = []
    for comp in _sccs(nodes, succ):
        if len(comp) == 1 and comp[0] not in succ.get(comp[0], ()):
            straight.append(comp[0])
            continue
        comp_set = set(comp)
        header = min(comp)
        sub = {v: [t for t in succ.get(v, ()) if t in comp_set
                   and t != header]
               for v in comp}
        rid = counter[0]
        counter[0] += 1
        direct, children = _loop_forest(comp, sub, counter)
        regions.append(_Region(rid, tuple(sorted(comp)),
                               tuple(sorted(direct)), tuple(children)))
    return straight, regions


@dataclass
class Specialization:
    """One program's compiled fast path (source kept for debugging)."""

    source: str
    code: CodeType
    consts: tuple[Any, ...]
    fmts: tuple[str, ...]
    #: MiniC function name → generated driver symbol (index-mangled, so
    #: simulated names that collide with Python keywords stay legal).
    drivers: dict[str, str]
    #: Driver of the global initializers (``globals_init``); ``None``
    #: when they are only the trailing ``RET0``.
    init_driver: str | None
    #: Most Python frames one simulated call can add to the stack: the
    #: callee's driver plus the chain function the trampoline entered
    #: or, for a call inside loops, one ``_rg`` function per loop
    #: region enclosing the call site (the trampoline enters the
    #: outermost directly). The VM sizes the recursion limit from it.
    frames_per_call: int

    def bind(self, vm: "bc.BytecodeVM") -> dict[str, Any]:
        """Exec the generated module against one VM's state; returns the
        module namespace (driver functions live under ``drivers``)."""
        memory = vm.memory
        trace = vm._trace
        steps = [0]
        max_steps = vm._max_steps
        message = f"execution exceeded the budget of {max_steps} steps"

        def over() -> NoReturn:
            # The AST oracle counts one step at a time and stops at the
            # first step past the budget, whichever batched group that
            # step belongs to here.
            steps[0] = max_steps + 1
            raise ExecLimitExceeded(message)

        env: dict[str, Any] = {
            "_VM": vm,
            "_PG": memory._pages,
            "_MP": memory._page,
            "_RI": memory.read_int,
            "_RF": memory.read_float,
            "_WI": memory.write_int,
            "_WF": memory.write_float,
            "_WB": memory.write_bytes,
            "_AB": trace.records,
            "_AA": trace.records.append,
            "_FLUSH": trace.flush,
            "_FL": trace.limit,
            "_S": steps,
            "_D": [0],
            "_MAXS": max_steps,
            "_MAXD": vm._max_call_depth,
            "_OVER": over,
            "_RTE": MiniCRuntimeError,
            "_EXIT": libc.ExitSignal,
            "_ST": vm.stats,
            "_PUSH": vm._stack.push_frame,
            "_POP": vm._stack.pop_frame,
            "_SALLOC": vm._stack.allocate,
            "_GA": vm._global_addrs,
            "_ISTR": vm._intern_string,
            "_CB": libc.call_builtin,
            "_CDIV": bc._c_div,
            "_PEND": vm._pending_body_ends_one,
            "_C": self.consts,
        }
        for i, fmt in enumerate(self.fmts):
            env[f"_U{i}"] = bc._UNPACK.get(fmt)
            env[f"_P{i}"] = bc._PACK.get(fmt)
        exec(self.code, env)
        return env


def get_specialization(bp: "bc.BytecodeProgram") -> Specialization:
    """The specialization of a lowered program, compiled once and cached
    on the program."""
    spec = bp._specialization
    if spec is None:
        spec = _specialize(bp)
        bp._specialization = spec
    return spec


def _specialize(bp: "bc.BytecodeProgram") -> Specialization:
    fidx = {name: i for i, name in enumerate(bp.functions)}
    gen = _Codegen(fidx)
    for name, fn in bp.functions.items():
        gen.emit_function(fidx[name], name, fn)
    init = bp.globals_init
    init_driver: str | None = None
    if len(init.code) > 1:  # more than the trailing RET0
        gen.emit_function(len(fidx), init.name, init)
        init_driver = f"_fn{len(fidx)}"
    source = "\n".join(gen.lines) + "\n"
    code = compile(source, "<specialized>", "exec")
    return Specialization(source=source, code=code,
                          consts=tuple(gen.consts),
                          fmts=tuple(gen.fmts),
                          drivers={name: f"_fn{i}"
                                   for name, i in fidx.items()},
                          init_driver=init_driver,
                          frames_per_call=gen.frames_per_call)


def _slots(mask: int) -> tuple[int, ...]:
    """The slots of a register bitmask, ascending."""
    return tuple(slot for slot in range(mask.bit_length())
                 if (mask >> slot) & 1)


def _cmp_sym(op: int) -> str:
    if op == bc.OP_LT:
        return "<"
    if op == bc.OP_LE:
        return "<="
    if op == bc.OP_GT:
        return ">"
    if op == bc.OP_GE:
        return ">="
    if op == bc.OP_EQ:
        return "=="
    return "!="


class _Codegen:
    def __init__(self, fidx: dict[str, int]) -> None:
        self.fidx = fidx
        self.lines: list[str] = []
        self.consts: list[Any] = []
        self.fmts: list[str] = []
        self._fmt_index: dict[str, int] = {}
        #: See :attr:`Specialization.frames_per_call`; a call outside
        #: every loop costs the driver plus the trampolined chain.
        self.frames_per_call = 2
        #: Block-local slot → local-name map (register localization).
        self._cur: dict[int, str] = {}
        #: Block-local constant tracking: slot → (literal expr, value).
        self._lits: dict[int, tuple[str, object]] = {}
        #: Slots whose current value is statically a Python int.
        self._ints: set[int] = set()
        #: Slots wrapped to a known (mask, maxv) integer domain.
        self._doms: dict[int, tuple[int, int]] = {}
        #: Live-out mask at the current block's exit.
        self._exit_live = 0
        #: Whether the current block keeps the step counter in ``s_``.
        self._steps_local = False
        #: pc → bitmask of slots written strictly later in the chain
        #: (licenses MOV aliasing: the source must stay unchanged).
        self._written_after: dict[int, int] = {}
        #: Whether the current chain appends trace records (one
        #: buffer-limit check per exit instead of one per record).
        self._traced = False
        #: Write counter per slot (versions pure computations for CSE).
        self._ver: dict[int, int] = {}
        #: Value numbering: (expr, mask, maxv, operand versions) → the
        #: (slot, version, name, dom) that already holds the value.
        self._cse: dict[Any, Any] = {}
        #: Operand (slot, version) pairs of the instruction being
        #: emitted — part of every CSE key.
        self._reads_key: tuple[Any, ...] = ()
        #: Unique suffix for divmod-core temporaries.
        self._site = 0
        #: pc of the instruction being emitted (written_after lookups).
        self._pc = -1
        #: Chain index → in-region transfer kind; targets outside the
        #: current region return to the enclosing dispatcher.
        self._route: dict[int, tuple[Any, ...]] = {}
        #: Slots carried in ``t`` locals across the current region's
        #: iterations (sorted; empty outside regions).
        self._carried: tuple[int, ...] = ()
        #: Bitmask of the carried slots the region's preheader loads:
        #: those live into some chain head of the region.
        self._loaded = 0
        #: Region functions enclosing the chain being emitted.
        self._depth = 0

    # -- shared tables -----------------------------------------------------

    def _const(self, obj: Any) -> str:
        self.consts.append(obj)
        return f"_C[{len(self.consts) - 1}]"

    def _fmt(self, fmt: str) -> int:
        index = self._fmt_index.get(fmt)
        if index is None:
            index = len(self.fmts)
            self.fmts.append(fmt)
            self._fmt_index[fmt] = index
        return index

    def _lit(self, value: Any) -> str:
        """A literal expression for an OP_CONST/immediate value."""
        if type(value) is float and (value != value or value in
                                     (float("inf"), float("-inf"))):
            return self._const(value)
        return repr(value)

    # -- register localization and block-local value tracking ---------------

    def _rd(self, slot: int) -> str:
        lit = self._lits.get(slot)
        if lit is not None:
            return lit[0]
        return self._cur.get(slot) or f"r[{slot}]"

    def _rd_int(self, slot: int) -> str:
        """A read already known to be a Python int (skips the ``int()``
        conversion otherwise applied)."""
        if slot in self._ints:
            return self._rd(slot)
        lit = self._lits.get(slot)
        if lit is not None and type(lit[1]) is int:
            return lit[0]
        return f"int({self._rd(slot)})"

    def _wr(self, slot: int, is_int: bool = False,
            dom: tuple[int, int] | None = None) -> str:
        name = f"t{slot}"
        self._cur[slot] = name
        self._lits.pop(slot, None)
        self._doms.pop(slot, None)
        self._ver[slot] = self._ver.get(slot, 0) + 1
        if is_int:
            self._ints.add(slot)
        else:
            self._ints.discard(slot)
        if dom is not None:
            self._doms[slot] = dom
        return name

    def _set_const(self, slot: int, value: Any) -> None:
        """Record a constant slot; materialize the local only when the
        slot survives the block (reads inside it use the literal)."""
        lit = self._lit(value)
        if (self._exit_live >> slot) & 1:
            name = self._wr(slot, is_int=type(value) is int)
            self.lines.append(f"    {name} = {lit}")
        else:
            self._cur.pop(slot, None)
            self._doms.pop(slot, None)
            self._ver[slot] = self._ver.get(slot, 0) + 1
            if type(value) is int:
                self._ints.add(slot)
            else:
                self._ints.discard(slot)
        self._lits[slot] = (lit, value)

    def _lit_int(self, slot: int) -> int | None:
        """The slot's statically known int value, or None."""
        lit = self._lits.get(slot)
        if lit is not None and type(lit[1]) is int:
            return lit[1]
        return None

    def _flush_lines(self, live_mask: int) -> tuple[str, ...]:
        """``r[slot] = ...`` statements for every live tracked slot."""
        return tuple(f"r[{slot}] = {self._cur[slot]}"
                     for slot in sorted(self._cur)
                     if (live_mask >> slot) & 1)

    def _mat_lines(self, skip: int = 0) -> tuple[str, ...]:
        """Region back-edge sync: re-materialize carried locals whose
        value currently lives elsewhere (an alias or a literal). A slot
        absent from ``_cur`` was either untouched (its local is already
        current) or constant-folded while dead (unreadable until the
        next write), so it needs nothing. RHS expressions only ever
        name literals or other carried locals that are themselves
        consistent — an alias ``t9`` is only tracked while slot 9 is
        never rewritten afterwards — so order cannot matter."""
        out = []
        for slot in self._carried:
            if (skip >> slot) & 1:
                continue
            cur = self._cur.get(slot)
            if cur is not None and cur != f"t{slot}":
                out.append(f"t{slot} = {cur}")
        return tuple(out)

    def _flush_trace_checks(self) -> None:
        """The buffer-limit check for everything the chain appended."""
        if self._traced:
            self.lines.append("    if len(_AB) >= _FL: _FLUSH()")

    def _flush_steps(self) -> None:
        """Write the local step counter back before anything that can
        observe it — a simulated call, a builtin, or leaving the block."""
        if self._steps_local:
            self.lines.append("    _S[0] = s_")

    def _steps_raise(self, message: str) -> str:
        """An abort statement that first syncs the step counter."""
        if self._steps_local:
            return f"_S[0] = s_; raise {message}"
        return f"raise {message}"

    # -- function emission -------------------------------------------------

    def emit_function(self, findex: int, name: str,
                      fn: "bc.BytecodeFunction") -> None:
        code = fn.code
        cfg = dataflow.build_cfg(code)
        ranges = [(block.start, block.end) for block in cfg.blocks]

        # Superblock chaining: a block whose only way in is another
        # block's unconditional JMP is absorbed into that block, so the
        # transfer costs nothing and locals stay live across the join.
        preds = [0] * len(ranges)
        preds[0] += 1  # the entry
        for targets in cfg.succs:
            for t in targets:
                preds[t] += 1
        chains: list[list[int]] = []
        placed: set[int] = set()
        for j in range(len(ranges)):
            if j in placed:
                continue
            placed.add(j)
            chain = [j]
            while code[ranges[chain[-1]][1] - 1][0] == bc.OP_JMP:
                (tj,) = cfg.succs[chain[-1]]
                if preds[tj] != 1 or tj in placed:
                    break
                placed.add(tj)
                chain.append(tj)
            chains.append(chain)
        # Only chain heads are ever jumped (or fallen through) to: an
        # interior block's single predecessor is the absorbed JMP.
        chain_of = {chain[0]: c for c, chain in enumerate(chains)}
        blk = {ranges[j][0]: c for j, c in chain_of.items()}

        live_out = dataflow.liveness(code, cfg)
        rv = fn.n_slots
        pcs = fn.n_slots + 1
        mk = fn.n_slots + 2

        # Chain-level control-flow graph → loop forest. Every loop
        # becomes one Python function whose back-edges are ``continue``
        # through an internal dispatch ladder, so iterating costs no
        # trampoline round-trip; straight-line chains stay plain block
        # functions driven by the trampoline.
        succ = {c: sorted({chain_of[t] for t in cfg.succs[chain[-1]]})
                for c, chain in enumerate(chains)}
        counter = [0]
        straight, regions = _loop_forest(list(range(len(chains))), succ,
                                         counter)

        emit = (chains, ranges, code, blk, rv, pcs, mk, live_out)
        # Every entry of the chain table takes ``(r, b_)``: a chain
        # outside loops ignores ``b_``, and the trampoline enters a
        # loop at chain ``b_`` by calling its region function directly.
        entry: dict[int, str] = {}
        for c in sorted(straight):
            self._route = {}
            self._depth = 0
            entry[c] = f"_bk{findex}_{c}"
            self.lines.append(f"def {entry[c]}(r, b_):")
            self._emit_chain_body(chains[c], ranges, code, blk, rv, pcs,
                                  mk, live_out)
            self.lines.append("")
        for reg in regions:
            self._emit_region(findex, reg, 1, *emit)
            for m in reg.members:
                entry[m] = f"_rg{findex}_{reg.id}"

        table = ", ".join(entry[c] for c in range(len(chains)))
        self.lines.append(f"_BK{findex} = ({table},)")
        self.lines.append("")
        self._emit_driver(findex, name, fn, rv, pcs, mk)

    def _emit_chain_body(self, chain: list[int],
                         ranges: list[tuple[int, int]],
                         code: Sequence[_Ins], blk: dict[int, int],
                         rv: int, pcs: int, mk: int,
                         live_out: Sequence[int]) -> None:
        """Emit one chain's statements at base indentation, routing
        control transfers through :meth:`_goto`."""
        # Inside a region every carried slot's value lives in its
        # ``t`` local (the preheader loaded it, every edge keeps it
        # consistent), so seed the tracker with it; ``r`` entries for
        # carried slots are stale between region entry and exit.
        self._cur = {slot: f"t{slot}" for slot in self._carried}
        self._lits = {}
        self._ints = set()
        self._doms = {}
        self._traced = False
        self._ver = {}
        self._cse = {}
        chain_pcs = [pc for j in chain for pc in range(*ranges[j])]
        self._written_after = {}
        mask = 0
        for pc in reversed(chain_pcs):
            self._written_after[pc] = mask
            written = bc._WRITES.get(code[pc][0])
            if written is not None:
                mask |= 1 << code[pc][written]
        self._steps_local = any(
            code[pc][0] == bc.OP_STEP and code[pc][1]
            for pc in chain_pcs)
        if self._steps_local:
            self.lines.append("    s_ = _S[0]")
        terminated = False
        for k, j in enumerate(chain):
            start, end = ranges[j]
            self._exit_live = live_out[end - 1]
            last = end - 1 if k + 1 < len(chain) else end
            for pc in range(start, last):
                terminated = self._emit_ins(code[pc], pc, blk, rv,
                                            pcs, mk, end, live_out)
        if not terminated:
            self._flush_steps()
            self._flush_trace_checks()
            for line in self._goto(blk[end], live_out[end - 1]):
                self.lines.append("    " + line)

    def _emit_region(self, findex: int, reg: _Region, depth: int,
                     chains: list[list[int]],
                     ranges: list[tuple[int, int]],
                     code: Sequence[_Ins], blk: dict[int, int], rv: int,
                     pcs: int, mk: int,
                     live_out: Sequence[int]) -> int:
        """One loop region: ``while True`` around a chain-index ladder.

        Direct members inline their bodies; nested loops dispatch into
        the child's function and re-dispatch whatever chain index it
        comes back with — an index outside the region bubbles out to
        the caller (ultimately the trampoline). Every transition still
        flushes live registers and re-reads ``r`` at the next chain
        top, so the dispatch shape is invisible to the simulation.
        ``depth`` counts the region functions on the Python stack while
        this region's own chains run (1 for an outermost loop). Returns
        the bitmask of the slots the region writes: no other slot can
        come back changed from a call of its function.
        """
        child_written = {
            child.id: self._emit_region(findex, child, depth + 1, chains,
                                        ranges, code, blk, rv, pcs, mk,
                                        live_out)
            for child in reg.children
        }
        self._depth = depth
        # Carry every slot the region's chains touch in a local for the
        # whole stay: in-region edges sync locals only, exits (and
        # nested-region hand-offs) flush the live ones back to ``r``.
        # Write-completeness of _WRITES guarantees any slot NOT carried
        # is never written inside the region, so plain ``r`` reads of
        # uncarried slots stay exact. The preheader loads only the
        # carried slots live into some chain head of the region (nested
        # loops' chains included): at every chain head, each carried
        # slot live there holds its value in its local. A slot dead at
        # every head is written before any read of it on every path
        # from a head, and an exit flushes it only when it is live
        # there, that is when this stay wrote it.
        touched = written = live = 0
        for m in reg.members:
            head = ranges[chains[m][0]][0]
            use, kill = dataflow._use_kill(code[head])
            live |= use | (live_out[head] & ~kill)
            for j in chains[m]:
                for pc in range(*ranges[j]):
                    use, kill = dataflow._use_kill(code[pc])
                    touched |= use | kill
                    written |= kill
        self._carried = _slots(touched)
        self._loaded = loaded = touched & live
        w = self.lines.append
        w(f"def _rg{findex}_{reg.id}(r, b_):")
        for slot in _slots(loaded):
            w(f"    t{slot} = r[{slot}]")
        w("    while True:")
        if len(reg.direct) == 1 and not reg.children:
            # Single-chain loop: no ladder, the back-edge is a bare
            # ``continue``.
            c = reg.direct[0]
            self._route = {c: ("loop",)}
            start = len(self.lines)
            self._emit_chain_body(chains[c], ranges, code, blk, rv,
                                  pcs, mk, live_out)
            self.lines[start:] = ["    " + line
                                  for line in self.lines[start:]]
        else:
            route: dict[int, tuple[Any, ...]] = {}
            for m in reg.direct:
                route[m] = ("intra",)
            for child in reg.children:
                for m in child.members:
                    route[m] = ("child", f"{findex}_{child.id}",
                                child_written[child.id])
            for i, c in enumerate(reg.direct):
                w(f"        {'if' if i == 0 else 'elif'} b_ == {c}:")
                self._route = route
                start = len(self.lines)
                self._emit_chain_body(chains[c], ranges, code, blk, rv,
                                      pcs, mk, live_out)
                self.lines[start:] = ["        " + line
                                      for line in self.lines[start:]]
            for child in reg.children:
                members = ", ".join(str(m) for m in child.members)
                w(f"        elif b_ in {{{members}}}:")
                # Re-dispatch from an arbitrary predecessor: which
                # chain head comes next is unknown here, so flush every
                # loaded slot (dead stores are harmless). Only the
                # child's written slots can come back changed, and only
                # loaded ones can be live at a head of this region, so
                # the reload stops there.
                for slot in _slots(loaded):
                    w(f"            r[{slot}] = t{slot}")
                w(f"            b_ = _rg{findex}_{child.id}(r, b_)")
                for slot in _slots(loaded & child_written[child.id]):
                    w(f"            t{slot} = r[{slot}]")
            w("        else:")
            w("            return b_")
        self._carried = ()
        self._loaded = 0
        w("")
        return written

    def _goto(self, target: int, live: int) -> tuple[str, ...]:
        """Transfer-of-control statements (unindented) for a chain
        index, register sync included: a trampoline return and nested
        dispatches flush live locals to ``r`` (and reload what a child
        region can have changed after it ran); in-region edges skip
        ``r`` entirely and just keep the carried locals consistent."""
        route = self._route.get(target)
        if route is None:
            return (*self._flush_lines(live), f"return {target}")
        kind = route[0]
        if kind == "loop":
            return (*self._mat_lines(), "continue")
        if kind == "intra":
            return (*self._mat_lines(), f"b_ = {target}", "continue")
        # The flush must cover everything live — an exit edge inside
        # the child is the only flush a slot passing *through* it gets —
        # but only the child's written slots can come back changed, and
        # only loaded ones can be live at a head of this region, so the
        # reload stops there. Slots the child does not write still need
        # their locals materialized (the flush alone writes an alias or
        # literal to ``r`` without repairing the local).
        written = route[2]
        return (*self._flush_lines(live),
                *self._mat_lines(skip=written),
                f"b_ = _rg{route[1]}(r, {target})",
                *(f"t{slot} = r[{slot}]"
                  for slot in _slots(self._loaded & written)),
                "continue")

    def _emit_branch(self, w: _W, cond: str,
                     when_true: tuple[str, ...],
                     when_false: tuple[str, ...]) -> None:
        """A two-way transfer on ``cond``. Identical leading sync lines
        (both arms exiting flush the same live set) hoist above the
        condition; the remaining same-shape arms merge into a single
        conditional return (or dispatch) expression."""
        n = 0
        limit = min(len(when_true), len(when_false))
        while n < limit and when_true[n] == when_false[n]:
            n += 1
        for line in when_true[:n]:
            w("    " + line)
        when_true = when_true[n:]
        when_false = when_false[n:]
        if not when_true and not when_false:
            return
        if len(when_true) == 1 and len(when_false) == 1:
            a, b = when_true[0], when_false[0]
            if a.startswith("return ") and b.startswith("return "):
                w(f"    return {a[7:]} if {cond} else {b[7:]}")
                return
        if (len(when_true) == 2 and len(when_false) == 2
                and when_true[1] == "continue"
                and when_false[1] == "continue"
                and when_true[0].startswith("b_ = ")
                and when_false[0].startswith("b_ = ")):
            w(f"    b_ = {when_true[0][5:]} if {cond} "
              f"else {when_false[0][5:]}")
            w("    continue")
            return
        w(f"    if {cond}:")
        for line in when_true or ("pass",):
            w("        " + line)
        for line in when_false:
            w("    " + line)

    def _emit_driver(self, findex: int, name: str,
                     fn: "bc.BytecodeFunction", rv: int, pcs: int,
                     mk: int) -> None:
        w = self.lines.append
        w(f"def _fn{findex}(*_a):  # {name}")
        w(f"    r = [0] * {fn.n_slots + 3}")
        w(f"    r[{mk}] = _PUSH()")
        if fn.params:
            w("    _n = len(_a)")
        for i, spec in enumerate(fn.params):
            # Missing arguments are dropped, like the AST oracle's zip().
            w(f"    if {i} < _n:")
            w(f"        v_ = _a[{i}]")
            if spec.conv == 1:
                w(f"        v_ = int(v_) & {spec.mask}")
                if spec.maxv >= 0:
                    w(f"        if v_ > {spec.maxv}: "
                      f"v_ -= {spec.mask + 1}")
            elif spec.conv == 2:
                w("        v_ = float(v_)")
            elif spec.conv == 3:
                w(f"        v_ = int(v_) & {_M32}")
            if spec.in_memory:
                ctype = spec.ctype
                w(f"        a_ = _SALLOC({ctype.size}, {ctype.alignment})")
                w(f"        r[{spec.slot}] = a_")
                if isinstance(ctype, FloatType):
                    w(f"        _WF(a_, float(v_), {ctype.size})")
                elif isinstance(ctype, (IntType, PointerType)):
                    w(f"        _WI(a_, int(v_), {ctype.size})")
                else:
                    message = f"cannot store a value of type {ctype}"
                    w(f"        raise _RTE({message!r})")
            else:
                w(f"        r[{spec.slot}] = v_")
        w(f"    _blocks = _BK{findex}")
        w("    b_ = 0")
        if fn.body_regions:
            regions = self._const(fn.body_regions)
            w("    try:")
            w("        while b_ >= 0:")
            w("            b_ = _blocks[b_](r, b_)")
            w("    except _EXIT:")
            w(f"        _PEND({regions}, r[{pcs}])")
            w("        raise")
        else:
            w("    while b_ >= 0:")
            w("        b_ = _blocks[b_](r, b_)")
        if fn.returns_void:
            w(f"    return r[{rv}]")
        else:
            w(f"    v_ = r[{rv}]")
            w("    return 0 if v_ is None else v_")
        w("")

    # -- instruction templates ---------------------------------------------

    def _cse_hit(self, key: Any, dst: int,
                 dom: tuple[int, int] | None) -> bool:
        """Reuse an earlier identical pure computation if its result is
        still held somewhere. Keys embed the operand slots' write
        versions, so a lookup only matches values computed from the
        exact registers currently visible; the holder's own version is
        re-checked because its slot may have been overwritten since."""
        hit = self._cse.get(key)
        if hit is None:
            return False
        slot, ver, name = hit
        if self._ver.get(slot, 0) != ver:
            return False
        if slot == dst:
            # The destination already holds this exact value.
            return True
        if not (self._written_after.get(self._pc, -1) >> slot) & 1:
            # The holder is never rewritten later in the chain, so the
            # destination can alias its local directly.
            self._wr(dst, is_int=True, dom=dom)
            self._cur[dst] = name
        else:
            self.lines.append(
                f"    {self._wr(dst, is_int=True, dom=dom)} = {name}")
        return True

    def _cse_put(self, key: Any, dst: int) -> None:
        self._cse[key] = (dst, self._ver.get(dst, 0), self._cur[dst])

    def _wrap(self, value_expr: str, mask: int, maxv: int,
              dst: int) -> None:
        """IntType.wrap with the sign branch specialized away when the
        type is unsigned (maxv < 0)."""
        key = (value_expr, mask, maxv, self._reads_key)
        if self._cse_hit(key, dst, (mask, maxv)):
            return
        w = self.lines.append
        name = self._wr(dst, is_int=True, dom=(mask, maxv))
        w(f"    {name} = ({value_expr}) & {mask}")
        if maxv >= 0:
            w(f"    if {name} > {maxv}: {name} -= {mask + 1}")
        self._cse_put(key, dst)

    def _assign_p(self, dst: int, expr: str) -> None:
        """CSE-aware pointer-valued assignment (address math)."""
        dom = (4294967295, -1)
        key = (expr, dom, self._reads_key)
        if self._cse_hit(key, dst, dom):
            return
        name = self._wr(dst, is_int=True, dom=dom)
        self.lines.append(f"    {name} = {expr}")
        self._cse_put(key, dst)

    def _trace(self, w: _W, pc: int, size: int, is_write: bool) -> None:
        # The buffer-limit check is batched at the chain's exits (the
        # overshoot is bounded by the chain's own record count).
        w(f"    _AA({pack_access(pc, 0, size, is_write)} | a_)")
        self._traced = True

    @staticmethod
    def _paged(size: int, fast: str, slow: str) -> str:
        """A multi-byte access at ``a_`` as one conditional expression:
        ``fast`` works on the page (:data:`_PAGE`) at offset ``o_`` when
        the access fits in one page, ``slow`` (the generic ``Memory``
        call) when it crosses."""
        return f"{fast} if (o_ := a_ & 4095) <= {4096 - size} else {slow}"

    def _emit_load_i(self, w: _W, dst: int, addr_expr: str, size: int,
                     fmt: str, signed: int, pc: int) -> None:
        # A signed/unsigned load of ``size`` bytes lands exactly in the
        # matching wrap domain, so a following same-type CONV_I elides.
        mask = (1 << 8 * size) - 1
        name = self._wr(dst, is_int=True,
                        dom=(mask, mask >> 1 if signed else -1))
        w(f"    a_ = {addr_expr}")
        if size == 1:
            # A byte never crosses a page: plain bytearray indexing
            # replaces the struct call (and the crossing check).
            w(f"    {name} = ({_PAGE})[a_ & 4095]")
            if signed:
                w(f"    if {name} > 127: {name} -= 256")
        else:
            w(f"    {name} = " + self._paged(
                size, f"_U{self._fmt(fmt)}({_PAGE}, o_)[0]",
                f"_RI(a_, {size}, {bool(signed)})"))
        self._trace(w, pc, size, False)

    def _emit_load_f(self, w: _W, dst: int, addr_expr: str, size: int,
                     fmt: str, pc: int) -> None:
        name = self._wr(dst)
        w(f"    a_ = {addr_expr}")
        w(f"    {name} = " + self._paged(
            size, f"_U{self._fmt(fmt)}({_PAGE}, o_)[0]",
            f"_RF(a_, {size})"))
        self._trace(w, pc, size, False)

    def _emit_store_i(self, w: _W, addr_expr: str, src: int, dst: int,
                      size: int, mask: int, maxv: int, fmt: str,
                      pc: int) -> None:
        w(f"    a_ = {addr_expr}")
        w(f"    v_ = {self._rd_int(src)} & {mask}")
        if size == 1:
            # A byte never crosses a page; the masked value is already
            # in [0, 255], so bytearray assignment stores it verbatim.
            w(f"    ({_PAGE})[a_ & 4095] = v_")
        else:
            w("    " + self._paged(
                size, f"_P{self._fmt(fmt)}({_PAGE}, o_, v_)",
                f"_WI(a_, v_, {size})"))
        if maxv >= 0:
            w(f"    if v_ > {maxv}: v_ -= {mask + 1}")
        w(f"    {self._wr(dst, is_int=True, dom=(mask, maxv))} = v_")
        if pc >= 0:
            self._trace(w, pc, size, True)

    def _emit_store_f(self, w: _W, addr_expr: str, src: int, dst: int,
                      size: int, fmt: str, pc: int) -> None:
        w(f"    a_ = {addr_expr}")
        w(f"    v_ = float({self._rd(src)})")
        # Out-of-range doubles divert to write_float, which owns the
        # overflow-to-inf packing semantics (and never raises it).
        w("    try:")
        w("        " + self._paged(
            size, f"_P{self._fmt(fmt)}({_PAGE}, o_, v_)",
            f"_WF(a_, v_, {size})"))
        w("    except OverflowError:")
        w(f"        _WF(a_, v_, {size})")
        w(f"    {self._wr(dst)} = v_")
        if pc >= 0:
            self._trace(w, pc, size, True)

    def _emit_store_p(self, w: _W, addr_expr: str, src: int, dst: int,
                      pc: int) -> None:
        w(f"    a_ = {addr_expr}")
        w(f"    v_ = {self._rd_int(src)} & {_M32}")
        w("    " + self._paged(
            4, f"_P{self._fmt('<I')}({_PAGE}, o_, v_)", "_WI(a_, v_, 4)"))
        w(f"    {self._wr(dst, is_int=True, dom=(4294967295, -1))} = v_")
        if pc >= 0:
            self._trace(w, pc, 4, True)

    def _elem_expr(self, base: int, index: int, esize: int) -> str:
        scale = f" * {esize}" if esize != 1 else ""
        return (f"({self._rd(base)} + {self._rd_int(index)}{scale})"
                f" & {_M32}")

    def _off_expr(self, base: int, off: int) -> str:
        if off:
            return f"({self._rd(base)} + {off}) & {_M32}"
        if self._doms.get(base) == (4294967295, -1):
            # Pointer slot already masked this block — skip the re-mask.
            return self._rd(base)
        return f"{self._rd(base)} & {_M32}"

    def _emit_ins(self, ins: _Ins, pc: int, blk: dict[int, int], rv: int,
                  pcs: int, mk: int, fall: int,
                  live_out: Sequence[int]) -> bool:
        """Emit one instruction into the current block; True if it was a
        terminator (emitted its own ``return``)."""
        w = self.lines.append
        op = ins[0]
        B = bc
        if op in _DEAD_SKIP and not (live_out[pc] >> ins[1]) & 1:
            # The write is dead and the computation cannot raise or
            # touch memory: nothing to emit. Stale tracking for the
            # slot is harmless — it cannot be read before the next
            # write, which resets it.
            return False
        self._pc = pc
        reads = B._READS.get(op)
        self._reads_key = (tuple((ins[p], self._ver.get(ins[p], 0))
                                 for p in reads) if reads else ())
        if op == B.OP_STEP:
            if ins[1] == 0:
                # Drained by lowering's step sinking.
                return False
            w(f"    if (s_ := s_ + {ins[1]}) > _MAXS: _OVER()")
        elif op == B.OP_CONST:
            self._set_const(ins[1], ins[2])
        elif op == B.OP_MOV:
            src = ins[2]
            lit = self._lits.get(src)
            if lit is not None:
                self._set_const(ins[1], lit[1])
            else:
                source = self._rd(src)
                is_int = src in self._ints
                dom = self._doms.get(src)
                if not (self._written_after.get(pc, -1) >> src) & 1:
                    # The source slot is never rewritten in this chain,
                    # so the destination can alias its expression (the
                    # exit flush writes the alias back under dst).
                    self._wr(ins[1], is_int=is_int, dom=dom)
                    self._cur[ins[1]] = source
                else:
                    w(f"    {self._wr(ins[1], is_int=is_int, dom=dom)}"
                      f" = {source}")
        elif op == B.OP_ELEM or op == B.OP_ADD_P:
            self._assign_p(ins[1], self._elem_expr(ins[2], ins[3], ins[4]))
        elif op == B.OP_MEMBOFF:
            self._assign_p(ins[1], self._off_expr(ins[2], ins[3]))
        elif op == B.OP_LOAD_I:
            self._emit_load_i(w, ins[1], self._off_expr(ins[2], ins[3]),
                              ins[4], ins[5], ins[6], ins[7])
        elif op == B.OP_LOAD_F:
            self._emit_load_f(w, ins[1], self._off_expr(ins[2], ins[3]),
                              ins[4], ins[5], ins[6])
        elif op == B.OP_STORE_I:
            self._emit_store_i(w, self._off_expr(ins[1], ins[2]), ins[3],
                               ins[4], ins[5], ins[6], ins[7], ins[8],
                               ins[9])
        elif op == B.OP_STORE_F:
            self._emit_store_f(w, self._off_expr(ins[1], ins[2]), ins[3],
                               ins[4], ins[5], ins[6], ins[7])
        elif op == B.OP_STORE_P:
            self._emit_store_p(w, self._off_expr(ins[1], ins[2]), ins[3],
                               ins[4], ins[5])
        elif op == B.OP_ADD_I:
            self._wrap(f"{self._rd(ins[2])} + {self._rd(ins[3])}",
                       ins[4], ins[5], ins[1])
        elif op == B.OP_SUB_I:
            self._wrap(f"{self._rd(ins[2])} - {self._rd(ins[3])}",
                       ins[4], ins[5], ins[1])
        elif op == B.OP_MUL_I:
            self._wrap(f"{self._rd(ins[2])} * {self._rd(ins[3])}",
                       ins[4], ins[5], ins[1])
        elif op == B.OP_ADDK_I:
            self._wrap(f"{self._rd(ins[2])} + {ins[3]}",
                       ins[4], ins[5], ins[1])
        elif op in (B.OP_LT, B.OP_LE, B.OP_GT, B.OP_GE, B.OP_EQ, B.OP_NE):
            cond = f"{self._rd(ins[2])} {_cmp_sym(op)} {self._rd(ins[3])}"
            w(f"    {self._wr(ins[1], is_int=True)} = 1 if {cond} else 0")
        elif op == B.OP_JMP:
            self._flush_steps()
            self._flush_trace_checks()
            for line in self._goto(blk[ins[1]], live_out[pc]):
                w("    " + line)
            return True
        elif op == B.OP_JZ or op == B.OP_JNZ:
            lit = self._lits.get(ins[1])
            self._flush_steps()
            self._flush_trace_checks()
            if lit is not None:
                taken = bool(lit[1]) == (op == B.OP_JNZ)
                for line in self._goto(blk[ins[2]] if taken
                                       else blk[fall], live_out[pc]):
                    w("    " + line)
            else:
                cond = self._rd(ins[1])
                if op == B.OP_JZ:
                    cond = f"not {cond}"
                self._emit_branch(w, cond,
                                  self._goto(blk[ins[2]], live_out[pc]),
                                  self._goto(blk[fall], live_out[pc]))
            return True
        elif op == B.OP_CKPT:
            w(f"    _AA({pack_checkpoint(ins[1], ins[2])})")
            self._traced = True
        elif op == B.OP_ADDK_P:
            # Reads are resolved before the destination is localized, so
            # dst == src never references a not-yet-assigned local.
            self._assign_p(ins[1], f"({self._rd(ins[2])} + {ins[3]})"
                                   f" & {_M32}")
        elif op == B.OP_ADD_F:
            expr = f"float({self._rd(ins[2])} + {self._rd(ins[3])})"
            w(f"    {self._wr(ins[1])} = {expr}")
        elif op == B.OP_SUB_F:
            expr = f"float({self._rd(ins[2])} - {self._rd(ins[3])})"
            w(f"    {self._wr(ins[1])} = {expr}")
        elif op == B.OP_MUL_F:
            expr = f"float({self._rd(ins[2])} * {self._rd(ins[3])})"
            w(f"    {self._wr(ins[1])} = {expr}")
        elif op == B.OP_DIV_F:
            abort = self._steps_raise(
                f"_RTE('floating division by zero', "
                f"{self._const(ins[4])})")
            w(f"    if {self._rd(ins[3])} == 0: {abort}")
            expr = f"{self._rd(ins[2])} / {self._rd(ins[3])}"
            w(f"    {self._wr(ins[1])} = {expr}")
        elif op == B.OP_DIV_I or op == B.OP_MOD_I:
            # The truncating-division core (numerator, quotient, checked
            # divisor) is shared between a DIV and MOD on the same
            # operands: the core locals get unique per-site names, so a
            # cached core is valid as long as the operand versions in
            # the key still match — x/2 next to x%2 computes q once.
            divisor = self._lit_int(ins[3])
            key = ("divmod", (ins[2], self._ver.get(ins[2], 0)),
                   divisor if divisor else
                   (ins[3], self._ver.get(ins[3], 0)))
            core = self._cse.get(key)
            if core is None:
                self._site += 1
                nv, qv = f"n{self._site}_", f"q{self._site}_"
                w(f"    {nv} = {self._rd_int(ins[2])}")
                if divisor:
                    # Nonzero constant divisor: the zero check and the
                    # divisor's sign test resolve at specialization
                    # time.
                    w(f"    {qv} = abs({nv}) // {abs(divisor)}")
                    w(f"    if {nv} {'<' if divisor > 0 else '>='} 0: "
                      f"{qv} = -{qv}")
                    bv = str(divisor)
                else:
                    message = ("integer division by zero"
                               if op == B.OP_DIV_I else "modulo by zero")
                    bv = f"b{self._site}_"
                    w(f"    {bv} = {self._rd_int(ins[3])}")
                    abort = self._steps_raise(
                        f"_RTE({message!r}, {self._const(ins[6])})")
                    w(f"    if {bv} == 0: {abort}")
                    w(f"    {qv} = abs({nv}) // abs({bv})")
                    w(f"    if ({nv} < 0) != ({bv} < 0): {qv} = -{qv}")
                core = (nv, qv, bv)
                self._cse[key] = core
            nv, qv, bv = core
            result = qv if op == B.OP_DIV_I else f"{nv} - {qv} * {bv}"
            self._wrap(result, ins[4], ins[5], ins[1])
        elif op == B.OP_SHL:
            self._wrap(f"{self._rd_int(ins[2])} << "
                       f"({self._rd_int(ins[3])} & 63)",
                       ins[4], ins[5], ins[1])
        elif op == B.OP_SHR:
            self._wrap(f"{self._rd_int(ins[2])} >> "
                       f"({self._rd_int(ins[3])} & 63)",
                       ins[4], ins[5], ins[1])
        elif op == B.OP_AND:
            self._wrap(f"{self._rd_int(ins[2])} & "
                       f"{self._rd_int(ins[3])}",
                       ins[4], ins[5], ins[1])
        elif op == B.OP_OR:
            self._wrap(f"{self._rd_int(ins[2])} | "
                       f"{self._rd_int(ins[3])}",
                       ins[4], ins[5], ins[1])
        elif op == B.OP_XOR:
            self._wrap(f"{self._rd_int(ins[2])} ^ "
                       f"{self._rd_int(ins[3])}",
                       ins[4], ins[5], ins[1])
        elif op == B.OP_SUB_PI:
            scale = f" * {ins[4]}" if ins[4] != 1 else ""
            self._assign_p(ins[1], f"({self._rd(ins[2])} - "
                                   f"{self._rd_int(ins[3])}{scale})"
                                   f" & {_M32}")
        elif op == B.OP_SUB_PP:
            expr = (f"_CDIV({self._rd_int(ins[2])} - "
                    f"{self._rd_int(ins[3])}, {ins[4]})")
            w(f"    {self._wr(ins[1], is_int=True)} = {expr}")
        elif op == B.OP_ADDK_F:
            expr = f"float({self._rd(ins[2])} + {self._lit(ins[3])})"
            w(f"    {self._wr(ins[1])} = {expr}")
        elif op == B.OP_NEG_I:
            self._wrap(f"-{self._rd(ins[2])}", ins[3], ins[4], ins[1])
        elif op == B.OP_NEG_F:
            expr = f"float(-{self._rd(ins[2])})"
            w(f"    {self._wr(ins[1])} = {expr}")
        elif op == B.OP_NOT:
            source = self._rd(ins[2])
            w(f"    {self._wr(ins[1], is_int=True)} = "
              f"0 if {source} else 1")
        elif op == B.OP_BNOT:
            self._wrap(f"~{self._rd_int(ins[2])}", ins[3], ins[4],
                       ins[1])
        elif op == B.OP_CONV_I:
            src, mask, maxv = ins[2], ins[3], ins[4]
            value = self._lit_int(src)
            if value is not None:
                folded = value & mask
                if maxv >= 0 and folded > maxv:
                    folded -= mask + 1
                self._set_const(ins[1], folded)
            elif self._doms.get(src) == (mask, maxv):
                # The source is already wrapped to this exact domain;
                # re-wrapping is the identity (and aliases like a MOV
                # when the source is never rewritten in this chain).
                if ins[1] != src:
                    expr = self._rd(src)
                    if not (self._written_after.get(pc, -1) >> src) & 1:
                        self._wr(ins[1], is_int=True, dom=(mask, maxv))
                        self._cur[ins[1]] = expr
                    else:
                        w(f"    {self._wr(ins[1], is_int=True, dom=(mask, maxv))}"
                          f" = {expr}")
            else:
                self._wrap(self._rd_int(src), mask, maxv, ins[1])
        elif op == B.OP_CONV_F:
            expr = f"float({self._rd(ins[2])})"
            w(f"    {self._wr(ins[1])} = {expr}")
        elif op == B.OP_CONV_P:
            self._assign_p(ins[1], f"{self._rd_int(ins[2])} & {_M32}")
        elif op == B.OP_CALL:
            args = ", ".join(self._rd(slot) for slot in ins[3])
            message = f"call depth exceeded in {ins[2]!r}"
            self.frames_per_call = max(self.frames_per_call,
                                       1 + self._depth)
            self._flush_steps()
            w(f"    r[{pcs}] = {pc}")
            w(f"    if _D[0] + 1 >= _MAXD: raise _RTE({message!r})")
            w("    _ST.calls += 1")
            w("    _D[0] += 1")
            w(f"    {self._wr(ins[1])} = _fn{self.fidx[ins[2]]}({args})")
            w("    _D[0] -= 1")
            if self._steps_local:
                # The callee advanced the shared counter.
                w("    s_ = _S[0]")
        elif op == B.OP_CALLB:
            args = ", ".join(self._rd(slot) for slot in ins[3])
            self._flush_steps()
            w(f"    r[{pcs}] = {pc}")
            w(f"    {self._wr(ins[1])} = _CB(_VM, {ins[2]!r}, [{args}])")
        elif op == B.OP_RET:
            result = self._rd(ins[1])
            self._flush_steps()
            self._flush_trace_checks()
            w(f"    _POP(r[{mk}])")
            w(f"    r[{rv}] = {result}")
            w("    return -1")
            return True
        elif op == B.OP_RET0:
            self._flush_steps()
            self._flush_trace_checks()
            w(f"    _POP(r[{mk}])")
            w(f"    r[{rv}] = None")
            w("    return -1")
            return True
        elif op == B.OP_DECL:
            w(f"    {self._wr(ins[1], is_int=True)} = "
              f"_SALLOC({ins[2]}, {ins[3]})")
        elif op == B.OP_ZFILL:
            w(f"    _WB(({self._rd(ins[1])} + {ins[2]}) & {_M32}, "
              f"{self._const(bytes(ins[3]))})")
        elif op == B.OP_WBYTES:
            w(f"    _WB(({self._rd(ins[1])} + {ins[2]}) & {_M32}, "
              f"{self._const(ins[3])})")
        elif op == B.OP_STR:
            w(f"    {self._wr(ins[1], is_int=True)} = _ISTR({ins[2]!r})")
        elif op == B.OP_GADDR:
            w(f"    {self._wr(ins[1], is_int=True)} = _GA[{ins[2]}]")
        else:
            raise MiniCRuntimeError(f"specializer: unhandled opcode {op}")
        return False
