"""The FORAY-GEN driver — Algorithm 1 of the paper.

:class:`ForayExtractor` is a trace *sink*: it routes checkpoints to the
loop-tree builder (Algorithm 2) and accesses to per-reference affine
solvers (Algorithm 3). Because it never looks back at earlier blocks, it
can be

* attached directly to the running simulator (the paper's "no need to save
  the typically large trace file" mode — constant space in the trace
  length), or
* fed from a written trace file via :func:`repro.sim.trace.parse_trace`.

The two entry points share that design. :meth:`ForayExtractor.emit` takes
one record at a time — the plain reading of the algorithms.
:meth:`ForayExtractor.emit_columns`, the engines' hot path, takes one
:class:`~repro.sim.trace.ColumnBlock` at a time: one loop-tree walk gives
every access its context and innermost iterator as columns, the accesses
are grouped per solver (node uid, pc) and visited in order of first
occurrence, and long groups are checked in bulk by
:meth:`ReferenceSolver.observe_rows`. Grouping is exact because a
solver's state depends only on its own accesses, in order. Both entry
points produce identical models (tested).

Convenience entry points: :func:`extract_from_source` runs the whole
pipeline (annotate → profile → analyze → purge) on MiniC source text.
"""

from __future__ import annotations

from typing import Iterable

from repro.foray.affine import BULK_MIN_ROWS, ReferenceSolver
from repro.foray.filters import FilterConfig
from repro.foray.looptree import LoopNode, LoopTreeBuilder, group_rows
from repro.foray.model import (
    ForayLoop,
    ForayModel,
    ForayReference,
    TraceStats,
)
from repro.sim.trace import (
    KIND_TO_CODE,
    LIB_PC_BASE,
    Access,
    CheckpointMap,
    ColumnBlock,
    TraceRecord,
    is_library_pc,
)


class ForayExtractor:
    """Streaming FORAY-GEN analysis (a :class:`~repro.sim.trace.TraceSink`)."""

    def __init__(
        self,
        checkpoint_map: CheckpointMap,
        filter_config: FilterConfig | None = None,
    ):
        self._filter = filter_config or FilterConfig()
        self._tree = LoopTreeBuilder(checkpoint_map)
        self.stats = TraceStats()
        self._finished: ForayModel | None = None

    # -- sink interface ---------------------------------------------------

    def emit(self, record: TraceRecord) -> None:
        if type(record) is Access:
            self._on_access(record)
        else:
            self._tree.on_checkpoint_code(
                record.checkpoint_id,  # type: ignore[union-attr]
                KIND_TO_CODE[record.kind])  # type: ignore[union-attr]

    def consume(self, records: Iterable[TraceRecord]) -> None:
        for record in records:
            self.emit(record)

    def emit_columns(self, block: ColumnBlock) -> None:
        """Columnar sink entry point (the engines' hot path).

        One :meth:`LoopTreeBuilder.walk` applies the block's checkpoints
        and gives every access its context and innermost iterator. The
        Table III tallies are block-wide column operations. User accesses
        are then grouped by (node uid, pc) — one group per Algorithm-3
        solver — and the groups are visited in order of first occurrence,
        so solvers are created in stream order. Short groups feed
        :meth:`ReferenceSolver.observe` row by row; longer ones go to
        :meth:`ReferenceSolver.observe_rows`. Grouping is exact because a
        solver's state depends only on its own accesses, in order.
        """
        n = block.n
        contexts = self._tree.walk(block.checkpoints, block.positions, n)
        if not n:
            return
        import numpy as np  # loaded on first use (see ColumnBlock)

        stats = self.stats
        pc_column = block.pc
        addr_column = block.addr
        nodes = contexts.nodes
        ctx = contexts.ctx
        keys = contexts.keys(pc_column)
        is_lib = pc_column >= LIB_PC_BASE
        lib_count = int(np.count_nonzero(is_lib))
        stats.total_accesses += n
        stats.lib_accesses += lib_count
        stats.user_accesses += n - lib_count
        if lib_count:
            # System-library references are not handled by FORAY-GEN
            # (paper Section 5.2) but are counted for Table III.
            # (A set, not np.unique: that imports numpy.ma, ~1 MB.)
            stats.lib_refs.update(
                (key >> 32, key & 0xFFFFFFFF)
                for key in set(keys[is_lib].tolist()))
            stats.lib_addresses.update(addr_column[is_lib].tolist())
            if lib_count == n:
                return
            grouped, bounds = group_rows(keys, (~is_lib).nonzero()[0])
        else:
            grouped, bounds = group_rows(keys)
        firsts = grouped[bounds[:-1]]
        user_refs = stats.user_refs
        iteration = contexts.iteration
        outers = contexts.outers
        # The iterator and context columns as lists, for short groups.
        scalar: tuple[list[int], list[int]] | None = None
        for g in firsts.argsort().tolist():
            first = int(firsts[g])
            node = nodes[ctx[first]]
            pc = int(pc_column[first])
            user_refs.add((node.uid, pc))
            depth = node.depth
            solver = node.references.get(pc)
            if solver is None:
                solver = ReferenceSolver(pc, depth)
                node.references[pc] = solver
            rows = grouped[bounds[g]:bounds[g + 1]]
            if len(rows) < BULK_MIN_ROWS:
                if scalar is None:
                    scalar = (iteration.tolist(), ctx.tolist())
                iterations, contexts_of = scalar
                observe = solver.observe
                for i, addr, write, size in zip(
                        rows.tolist(), addr_column[rows].tolist(),
                        block.is_write[rows].tolist(),
                        block.size[rows].tolist()):
                    observe(addr,
                            ((iterations[i],) + outers[contexts_of[i]]
                             if depth else ()),
                            write, size)
                continue
            solver.observe_rows(addr_column[rows],
                                contexts.iterators(rows, node),
                                block.is_write[rows], block.size[rows])

    # -- record processing ---------------------------------------------------

    def _on_access(self, access: Access) -> None:
        stats = self.stats
        stats.total_accesses += 1
        node = self._tree.current
        if is_library_pc(access.pc):
            # System-library references are not handled by FORAY-GEN
            # (paper Section 5.2) but are counted for Table III.
            stats.lib_accesses += 1
            stats.lib_refs.add((node.uid, access.pc))
            stats.lib_addresses.add(access.addr)
            return
        stats.user_accesses += 1
        stats.user_refs.add((node.uid, access.pc))

        solver = node.references.get(access.pc)
        if solver is None:
            solver = ReferenceSolver(access.pc, node.depth)
            node.references[access.pc] = solver
        solver.observe(access.addr, self._tree.current_iterators(),
                       access.is_write, access.size)

    # -- model construction ---------------------------------------------------

    def finish(self) -> ForayModel:
        """Finalize the tree and build the (filtered) FORAY model."""
        if self._finished is not None:
            return self._finished
        root = self._tree.finish()

        foray_loops: dict[int, ForayLoop] = {}  # node uid -> ForayLoop

        def loop_of(node: LoopNode) -> ForayLoop:
            cached = foray_loops.get(node.uid)
            if cached is None:
                cached = ForayLoop(
                    begin_id=node.begin_id,
                    kind=node.kind,
                    depth=node.depth,
                    max_trip=node.max_trip,
                    min_trip=node.min_trip or 0,
                    entries=node.entries,
                    total_iterations=node.total_iterations,
                    uid=node.uid,
                    ast_node_id=node.ast_node_id,
                )
                foray_loops[node.uid] = cached
            return cached

        unfiltered: list[ForayReference] = []
        solver_of: dict[int, ReferenceSolver] = {}
        non_analyzable = 0
        user_addresses = self.stats.user_addresses
        for node in root.iter_subtree():
            path = tuple(loop_of(ancestor) for ancestor in node.path_from_root())
            for solver in node.references.values():
                assert isinstance(solver, ReferenceSolver)
                user_addresses.update(solver.addresses)
                if solver.non_analyzable:
                    non_analyzable += 1
                    continue
                reference = ForayReference(
                    pc=solver.pc,
                    loop_path=path,
                    expression=solver.expression(),
                    exec_count=solver.exec_count,
                    footprint=solver.footprint,
                    reads=solver.reads,
                    writes=solver.writes,
                    mispredictions=solver.mispredictions,
                    access_size=solver.access_size,
                )
                unfiltered.append(reference)
                solver_of[id(reference)] = solver

        references = self._filter.apply(unfiltered)
        captured_addresses: set[int] = set()
        captured_accesses = 0
        for reference in references:
            captured_accesses += reference.exec_count
            captured_addresses |= solver_of[id(reference)].addresses

        # Loops "representable in FORAY form" (Table II): loops on the path
        # of any analyzable iterator-bearing reference — the step-4 size
        # thresholds prune references, not the loops they demonstrated to
        # be reconstructible.
        loop_bearing = [
            ref for ref in unfiltered if ref.expression.includes_iterator()
        ]
        model_loops: dict[int, ForayLoop] = {}
        for reference in loop_bearing:
            for loop in reference.loop_path:
                model_loops[loop.uid] = loop

        self._finished = ForayModel(
            references=references,
            unfiltered_references=unfiltered,
            loops=sorted(model_loops.values(), key=lambda lp: lp.uid),
            non_analyzable_count=non_analyzable,
            trace_stats=self.stats,
            captured_accesses=captured_accesses,
            captured_footprint=len(captured_addresses),
        )
        return self._finished

    @property
    def loop_tree_root(self) -> LoopNode:
        return self._tree.root

    def executed_loops(self) -> dict[int, str]:
        """ast node_id → loop kind for every *static* loop that executed.

        Distinct from the dynamic (inlined) loop count: a loop reached via
        two call sites appears once here but twice in the tree.
        """
        out: dict[int, str] = {}
        for node in self._tree.root.iter_subtree():
            if not node.is_root and node.ast_node_id >= 0:
                out[node.ast_node_id] = node.kind
        return out


def extract_from_records(
    records: Iterable[TraceRecord],
    checkpoint_map: CheckpointMap,
    filter_config: FilterConfig | None = None,
) -> ForayModel:
    """Run Algorithm 1 steps 3–4 over an iterable of trace records."""
    extractor = ForayExtractor(checkpoint_map, filter_config)
    extractor.consume(records)
    return extractor.finish()


def extract_from_source(
    source: str,
    filter_config: FilterConfig | None = None,
    entry: str = "main",
    max_steps: int = 200_000_000,
):
    """Full pipeline on MiniC source: annotate, profile (online), purge.

    Runs the extractor as a live trace sink — the constant-space mode the
    paper describes at the end of Section 4. Returns
    ``(model, run_result, compiled)``.
    """
    from repro.sim.machine import compile_program, run_compiled

    compiled = compile_program(source)
    extractor = ForayExtractor(compiled.checkpoint_map, filter_config)
    result = run_compiled(compiled, sinks=(extractor,), entry=entry,
                          max_steps=max_steps)
    return extractor.finish(), result, compiled
