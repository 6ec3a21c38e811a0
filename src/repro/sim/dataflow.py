"""Dataflow analysis framework over the bytecode CFG.

The specializer, the IR verifier and the MiniC linter all need facts
that hold *along every execution path* — which registers are live, which
are definitely assigned. This module factors the machinery they share
into one place:

* a basic-block CFG over a function's instruction tuple
  (:func:`build_cfg`), the one block partition the specializer and the
  verifier both use (jump to ``len(code)`` falls off the end; exceptions
  need no edges because an abort ends the run);
* a generic worklist fixpoint solver (:func:`solve`) over any numbered
  graph — forward or backward, pluggable join/transfer — reused by the
  MiniC linter (:mod:`repro.lang.lint`) for its statement-level CFG and
  by the verifier's int/float register-domain check;
* two bytecode analyses on top of it:

  - :func:`liveness` — per-instruction live-out bitmasks (the backward
    pass that decides which registers :mod:`repro.sim.specialize`
    keeps, flushes and loads);
  - :func:`definite_assignment` / :func:`maybe_uninitialized_reads` —
    forward must-analysis behind the verifier's defined-before-use
    check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.sim import bytecode as bc


# ---------------------------------------------------------------------------
# Control-flow graph
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BasicBlock:
    """Half-open instruction range ``[start, end)`` of one basic block."""

    index: int
    start: int
    end: int


@dataclass
class CFG:
    """Basic blocks plus successor block-index lists.

    A jump target equal to ``len(code)`` (or a fallthrough off the end)
    goes to a virtual exit and contributes no edge, mirroring the
    liveness pass's ``live_in[n] == 0`` convention.
    """

    blocks: list[BasicBlock]
    succs: list[tuple[int, ...]]


def _succ_indices(code: Sequence[tuple[Any, ...]],
                  i: int) -> tuple[int, ...]:
    """Instruction-level successors of ``code[i]``."""
    ins = code[i]
    op = ins[0]
    if op == bc.OP_JMP:
        return (ins[1],)
    if op == bc.OP_JZ or op == bc.OP_JNZ:
        return (i + 1, ins[2])
    if op == bc.OP_RET or op == bc.OP_RET0:
        return ()
    return (i + 1,)


def build_cfg(code: Sequence[tuple[Any, ...]]) -> CFG:
    """Partition ``code`` into basic blocks and wire the edges."""
    n = len(code)
    leaders = {0}
    for i in range(n):
        op = code[i][0]
        if op == bc.OP_JMP:
            leaders.add(code[i][1])
            leaders.add(i + 1)
        elif op == bc.OP_JZ or op == bc.OP_JNZ:
            leaders.add(code[i][2])
            leaders.add(i + 1)
        elif op == bc.OP_RET or op == bc.OP_RET0:
            leaders.add(i + 1)
    leaders.discard(n)
    order = sorted(leaders)
    index_of = {start: j for j, start in enumerate(order)}
    blocks = [BasicBlock(j, start,
                         order[j + 1] if j + 1 < len(order) else n)
              for j, start in enumerate(order)]
    succs: list[tuple[int, ...]] = []
    for block in blocks:
        targets = _succ_indices(code, block.end - 1) if n else ()
        succs.append(tuple(index_of[t] for t in targets if t < n))
    return CFG(blocks=blocks, succs=succs)


# ---------------------------------------------------------------------------
# Generic worklist solver
# ---------------------------------------------------------------------------


def solve(
    num_nodes: int,
    succs: Sequence[Sequence[int]],
    *,
    forward: bool,
    bottom: Any,
    boundary: Any,
    entry_nodes: Sequence[int] = (0,),
    transfer: Callable[[int, Any], Any],
    join: Callable[[Any, Any], Any],
) -> tuple[list[Any], list[Any]]:
    """Worklist fixpoint over an arbitrary numbered graph.

    Returns ``(inputs, outputs)`` in *analysis direction*: for a forward
    analysis ``inputs[i]`` is the value at node entry and ``outputs[i]``
    the value at node exit; for a backward analysis ``inputs[i]`` is the
    value *after* the node (e.g. live-out) and ``outputs[i]`` the value
    before it (live-in). ``boundary`` is joined into the inputs of
    ``entry_nodes`` (forward) or of every node without successors
    (backward, where edges are followed in reverse). Every node is
    seeded, so the least fixpoint covers unreachable nodes exactly like
    an instruction-level iteration would.
    """
    if forward:
        edges = [tuple(s) for s in succs]
    else:
        rev: list[list[int]] = [[] for _ in range(num_nodes)]
        for i, ss in enumerate(succs):
            for t in ss:
                rev[t].append(i)
        edges = [tuple(r) for r in rev]
        entry_nodes = [i for i, ss in enumerate(succs) if not ss]
    sources: list[list[int]] = [[] for _ in range(num_nodes)]
    for i, ss in enumerate(edges):
        for t in ss:
            sources[t].append(i)
    is_entry = [False] * num_nodes
    for i in entry_nodes:
        is_entry[i] = True
    inputs: list[Any] = [bottom] * num_nodes
    outputs: list[Any] = [bottom] * num_nodes
    pending = [True] * num_nodes
    worklist = list(range(num_nodes - 1, -1, -1))
    while worklist:
        node = worklist.pop()
        if not pending[node]:
            continue
        pending[node] = False
        value = boundary if is_entry[node] else bottom
        for src in sources[node]:
            value = join(value, outputs[src])
        inputs[node] = value
        new_out = transfer(node, value)
        if new_out != outputs[node]:
            outputs[node] = new_out
            for t in edges[node]:
                if not pending[t]:
                    pending[t] = True
                    worklist.append(t)
    return inputs, outputs


# ---------------------------------------------------------------------------
# Use/def extraction shared by the bitmask analyses
# ---------------------------------------------------------------------------


def _use_kill(ins: tuple[Any, ...]) -> tuple[int, int]:
    """(read-slot bitmask, written-slot bitmask) of one instruction."""
    op = ins[0]
    if op == bc.OP_CALL or op == bc.OP_CALLB:
        use = 0
        for slot in ins[3]:
            use |= 1 << slot
        return use, 1 << ins[1]
    use = 0
    for pos in bc._READS[op]:
        use |= 1 << ins[pos]
    write = bc._WRITES.get(op)
    return use, (1 << ins[write]) if write is not None else 0


def liveness(code: Sequence[tuple[Any, ...]],
             cfg: CFG | None = None) -> list[int]:
    """Per-instruction live-*out* register bitmasks.

    The least fixpoint of the instruction-level backward equations,
    solved per block and expanded back to instructions; ``cfg`` is
    ``build_cfg(code)`` when the caller already has it. Exceptions need
    no edges: a MiniC runtime error or budget overrun aborts the whole
    run, and the ``exit()`` unwind path reads only the per-frame pcs,
    never registers.
    """
    n = len(code)
    if not n:
        return []
    if cfg is None:
        cfg = build_cfg(code)
    nb = len(cfg.blocks)
    use_kill = [_use_kill(ins) for ins in code]
    block_gen = [0] * nb
    block_kill = [0] * nb
    for block in cfg.blocks:
        gen = kill = 0
        for i in range(block.end - 1, block.start - 1, -1):
            use, wr = use_kill[i]
            gen = use | (gen & ~wr)
            kill |= wr
        block_gen[block.index] = gen
        block_kill[block.index] = kill

    def xfer(b: int, out: int) -> int:
        return block_gen[b] | (out & ~block_kill[b])

    block_out, _ = solve(
        nb, cfg.succs, forward=False, bottom=0, boundary=0,
        transfer=xfer, join=lambda a, b: a | b)
    live_out = [0] * n
    for block in cfg.blocks:
        cur = block_out[block.index]
        for i in range(block.end - 1, block.start - 1, -1):
            live_out[i] = cur
            use, wr = use_kill[i]
            cur = use | (cur & ~wr)
    return live_out


def definite_assignment(
    fn: "bc.BytecodeFunction",
) -> tuple[CFG, list[int]]:
    """Forward must-analysis: bitmask of definitely-assigned slots at
    each block entry (parameters count as assigned)."""
    cfg = build_cfg(fn.code)
    nb = len(cfg.blocks)
    universe = (1 << (fn.n_slots + 1)) - 1
    params = 0
    for spec in fn.params:
        params |= 1 << spec.slot

    def xfer(b: int, assigned: int) -> int:
        block = cfg.blocks[b]
        for i in range(block.start, block.end):
            assigned |= _use_kill(fn.code[i])[1]
        return assigned

    block_in, _ = solve(
        nb, cfg.succs, forward=True, bottom=universe, boundary=params,
        transfer=xfer, join=lambda a, b: a & b)
    return cfg, block_in


def maybe_uninitialized_reads(
    fn: "bc.BytecodeFunction",
) -> list[tuple[int, int]]:
    """``(instruction index, slot)`` pairs where a read may observe the
    zero-filled frame before any assignment (sorted, deduplicated)."""
    cfg, block_in = definite_assignment(fn)
    out: list[tuple[int, int]] = []
    for block in cfg.blocks:
        assigned = block_in[block.index]
        for i in range(block.start, block.end):
            use, wr = _use_kill(fn.code[i])
            rogue = use & ~assigned
            while rogue:
                low = rogue & -rogue
                out.append((i, low.bit_length() - 1))
                rogue ^= low
            assigned |= wr
    return sorted(set(out))
