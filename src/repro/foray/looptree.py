"""Algorithm 2 — reconstructing the dynamic loop tree from the trace.

The trace contains only checkpoint ids (three kinds per loop). The builder
maintains a stack of ``(loop node, body_open)`` entries:

* **loop-begin** pops any closed-body tops, then descends into (creating on
  demand) the child identified by the begin-checkpoint id and resets its
  iteration counter;
* **body-begin** pops until the matching node is on top, marks the body
  open and increments the node's iterator;
* **body-end** pops until the matching node is on top and marks the body
  closed.

Popping on mismatch is what lets three checkpoint kinds disambiguate loop
*exit* (which has no checkpoint of its own — see the paper's Figure 4(c),
where the inner ``for`` simply stops appearing) and sequential-vs-nested
loops.

Because a node is identified by its *path* from the root, a loop executed
under two different call sites (or two different outer loops) yields two
distinct nodes — this is the "functions appear inlined" property the paper
uses for inlining hints.

Checkpoints arrive one at a time (:meth:`LoopTreeBuilder.on_checkpoint_code`,
the reference) or a trace block at a time (:meth:`LoopTreeBuilder.walk`).
Most events of a block are *same-loop* events: a body-begin or body-end
of the loop already on top of the stack, whose only effects are the
iterator and the body flag. After any event the top of the stack is the
loop that owns it, so an event is same-loop exactly when it is not a
loop-begin and its loop also owns the event before it (the block's first
event compares with the top carried in). The walk classifies a block's
events with NumPy, steps through the other, *structural* events in
Python, and applies each run of same-loop events between two of them in
bulk: the iterator moves by the run's body-begin count, read off one
prefix sum (a segmented scan). It returns :class:`BlockContexts`, the
block's accesses as columns: each access's context (a loop node under
fixed outer iterators, one per stretch between structural events) and
its innermost iterator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING, Iterator

from repro.sim.trace import CheckpointKind, CheckpointMap

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np


@dataclass
class LoopNode:
    """One node of the dynamic loop tree."""

    begin_id: int  # 0 for the synthetic root
    kind: str  # "for" | "while" | "do" | "root"
    parent: "LoopNode | None" = None
    depth: int = 0
    #: Unique id of this dynamic node (distinguishes the same static loop
    #: reached through different call contexts — "inlined" instances).
    uid: int = 0
    #: node_id of the loop's AST node (joins dynamic results back to the
    #: source program for Table II and the static baseline).
    ast_node_id: int = -1
    children: dict[int, "LoopNode"] = field(default_factory=dict)

    # Dynamic state maintained during trace processing.
    iteration: int = -1  # current iterator value (paper's per-loop counter)
    entries: int = 0
    total_iterations: int = 0
    max_trip: int = 0
    min_trip: int | None = None

    # Per-(node, pc) Algorithm-3 state lives here; the extractor owns the
    # value type to avoid a circular import.
    references: dict[int, object] = field(default_factory=dict)

    @property
    def is_root(self) -> bool:
        return self.parent is None

    def path_from_root(self) -> tuple["LoopNode", ...]:
        """Loop nodes from the outermost enclosing loop down to self
        (excluding the root)."""
        path: list[LoopNode] = []
        node: LoopNode | None = self
        while node is not None and not node.is_root:
            path.append(node)
            node = node.parent
        path.reverse()
        return tuple(path)

    def begin_entry(self) -> None:
        self._close_trip()
        self.entries += 1
        self.iteration = -1

    def begin_iteration(self, count: int = 1) -> None:
        """Open the next ``count`` iterations (the same as ``count``
        single steps: the iterator only grows)."""
        self.iteration += count
        self.total_iterations += count
        if self.iteration + 1 > self.max_trip:
            self.max_trip = self.iteration + 1

    def _close_trip(self) -> None:
        """Record the trip count of the entry that just finished."""
        if self.entries > 0:
            trip = self.iteration + 1
            if self.min_trip is None or trip < self.min_trip:
                self.min_trip = trip

    def finalize(self) -> None:
        """Close the last entry's trip count in every node of the
        subtree."""
        for node in self.iter_subtree():
            node._close_trip()

    def iter_subtree(self) -> Iterator["LoopNode"]:
        """The subtree in pre-order, children in creation order. The walk
        is iterative: recursion nests loop trees as deep as the call-depth
        budget allows."""
        pending = [self]
        while pending:
            node = pending.pop()
            yield node
            pending.extend(reversed(node.children.values()))


class BlockContexts:
    """Where the accesses of one trace block ran, as columns.

    A *context* is a stretch of the block between two structural events:
    one loop node under fixed outer iterators. Context ``k`` runs in
    ``nodes[k]``, inside enclosing loops whose iterators, innermost
    first, are ``outers[k]``. Context 0 is the state carried in from the
    previous block; a context may hold no access.

    Per access, ``ctx`` is its context index (never decreasing along the
    block) and ``iteration`` the iterator of its context's node, both
    int64 arrays. The paper's IT1..ITN of access ``j`` is
    ``(iteration[j],) + outers[ctx[j]]``, or ``()`` at the root;
    :meth:`iterators` gives them for many accesses of one node at once.
    """

    __slots__ = ("ctx", "iteration", "nodes", "outers", "_uids", "_tables")

    def __init__(self, ctx: np.ndarray, iteration: np.ndarray,
                 nodes: list[LoopNode],
                 outers: list[tuple[int, ...]]) -> None:
        self.ctx = ctx
        self.iteration = iteration
        self.nodes = nodes
        self.outers = outers
        self._uids: np.ndarray | None = None
        #: node uid -> (contexts, depth - 1) outer-iterator table.
        self._tables: dict[int, np.ndarray] = {}

    def _node_uids(self) -> np.ndarray:
        """Per context, its node's uid (int64; built on first use)."""
        uids = self._uids
        if uids is None:
            import numpy as np

            uids = self._uids = np.fromiter(
                map(attrgetter("uid"), self.nodes), dtype=np.int64,
                count=len(self.nodes))
        return uids

    def keys(self, pc: np.ndarray) -> np.ndarray:
        """Per access, its (node uid, pc) packed into one int64,
        ``uid << 32 | pc`` (pcs stay below 2**32): the key the sinks
        group a block's accesses by (:func:`group_rows`)."""
        return (self._node_uids()[self.ctx] << 32) | pc

    def iterators(self, rows: np.ndarray, node: LoopNode) -> np.ndarray:
        """IT1..ITN of the accesses ``rows``, all run in ``node``, as a
        ``(len(rows), node.depth)`` int64 array, innermost first. The
        outer columns come from one table per node, indexed by context
        and built on first use."""
        import numpy as np

        depth = node.depth
        matrix = np.empty((len(rows), depth), dtype=np.int64)
        if depth:
            matrix[:, 0] = self.iteration[rows]
        if depth > 1:
            table = self._tables.get(node.uid)
            if table is None:
                owned = np.flatnonzero(
                    self._node_uids() == node.uid).tolist()
                table = np.zeros((len(self.nodes), depth - 1),
                                 dtype=np.int64)
                table[owned] = [self.outers[k] for k in owned]
                self._tables[node.uid] = table
            matrix[:, 1:] = table[self.ctx[rows]]
        return matrix


def group_rows(keys: np.ndarray,
               rows: np.ndarray | None = None) -> tuple[np.ndarray, list[int]]:
    """Group the accesses ``rows`` (all of them by default) of a block by
    ``keys``, one stable argsort: returns ``(grouped, bounds)``, where
    group ``g`` is ``grouped[bounds[g]:bounds[g + 1]]``, its accesses in
    stream order, and the groups come in key order. The sinks key an
    access by its (node uid, pc), :meth:`BlockContexts.keys`."""
    if rows is None:
        grouped = keys.argsort(kind="stable")
    else:
        grouped = rows[keys[rows].argsort(kind="stable")]
    sorted_keys = keys[grouped]
    cuts = (sorted_keys[1:] != sorted_keys[:-1]).nonzero()[0] + 1
    return grouped, [0, *cuts.tolist(), len(grouped)]


class LoopTreeBuilder:
    """Streaming implementation of Algorithm 2.

    Feed checkpoints one at a time through :meth:`on_checkpoint_code`, or
    a whole block's at once through :meth:`walk`; between checkpoints,
    :attr:`current` is the loop node that subsequent memory accesses
    belong to and :meth:`current_iterators` gives the paper's IT1..ITN
    vector (innermost first).
    """

    def __init__(self, checkpoint_map: CheckpointMap):
        self._map = checkpoint_map
        self.root = LoopNode(0, "root")
        self._next_uid = 1
        #: Stack of (node, body_open); the root is always at the bottom.
        self._stack: list[list] = [[self.root, True]]
        #: The walk's owner lookup table (see :meth:`_owner_table`) and
        #: the ``begin_ids()`` dict it mirrors. Built on the first walk
        #: and kept off the map, which is pickled with the compiled
        #: program: a warm run loads no NumPy.
        self._owners: np.ndarray | None = None
        self._owners_of: dict[int, int | None] | None = None

    @property
    def current(self) -> LoopNode:
        return self._stack[-1][0]

    @property
    def depth(self) -> int:
        """Loop nest depth at the current position (root not counted)."""
        return len(self._stack) - 1

    def current_iterators(self) -> tuple[int, ...]:
        """IT1..ITN — current iterator values, innermost loop first."""
        return tuple(
            self._stack[i][0].iteration for i in range(len(self._stack) - 1, 0, -1)
        )

    def on_checkpoint_code(self, checkpoint_id: int, kind_code: int) -> None:
        """Apply one checkpoint, its kind given as the compact integer
        code of :data:`repro.sim.trace.KIND_TO_CODE`."""
        if kind_code == 0:  # LOOP_BEGIN
            self._on_loop_begin(checkpoint_id)
        else:  # BODY_BEGIN or BODY_END
            self._on_body(self._owning_loop(checkpoint_id), kind_code)

    def walk(self, keys: np.ndarray, positions: np.ndarray,
             n: int) -> BlockContexts:
        """Apply one block's checkpoints and return the contexts of its
        ``n`` accesses. ``keys`` holds each checkpoint's packed record,
        ``checkpoint_id << 2 | kind_code`` (:func:`repro.sim.trace.
        pack_checkpoint`), and ``positions`` the number of the block's
        accesses before it, as the int64 arrays of
        :class:`~repro.sim.trace.ColumnBlock`.

        Structural events — loop-begins, and events whose loop is not on
        top of the stack — go through the handlers of
        :meth:`on_checkpoint_code`, so stack pops, node creation, uid
        order, trip counts and the ``ValueError`` of an unmatched or
        unknown checkpoint are exactly those of one-at-a-time processing.
        Each run of same-loop events before a structural event (or the
        end of the block) is applied at once: the top node opens the
        run's body-begin count of iterations, and its body flag is the
        run's last event's.
        """
        import numpy as np  # loaded on first use (see ColumnBlock)

        stack = self._stack
        top = stack[-1]
        node = top[0]
        outer = tuple([entry[0].iteration for entry in stack[-2:0:-1]])
        nodes = [node]
        outers = [outer]
        m = len(keys)
        if not m:
            iterations = np.empty(n, dtype=np.int64)
            iterations.fill(node.iteration)
            return BlockContexts(np.zeros(n, dtype=np.int64), iterations,
                                 nodes, outers)
        code = keys & 3
        # Per event: the begin id it needs on top to be same-loop (its
        # loop's, for a body checkpoint of a known loop), and the begin id
        # on top after it (see _owner_table). The first event compares
        # with the top carried in.
        owners = self._owner_table().take(keys, axis=0, mode="clip")
        structural = np.empty(m, dtype=bool)
        structural[0] = owners[0, 0] != node.begin_id
        np.not_equal(owners[1:, 0], owners[:-1, 1], out=structural[1:])
        # counted[i]: same-loop body-begins among events 0..i.
        counted = code == 1
        np.greater(counted, structural, out=counted)
        counted = counted.cumsum()
        events = structural.nonzero()[0]
        # The iterator of context k after event i is offsets[k] + counted[i].
        offsets = [node.iteration]
        on_code = self.on_checkpoint_code
        on_body = self._on_body
        codes = code.tolist()
        last = -1  # the previous structural event
        done = 0  # body-begins applied so far
        for index, before, owner, key in zip(
                events.tolist(), counted[events].tolist(),
                owners[events, 0].tolist(), keys[events].tolist()):
            if index > last + 1:  # the same-loop run before this event
                if before != done:
                    node.begin_iteration(before - done)
                top[1] = codes[index - 1] == 1
            kind_code = key & 3
            depth = len(stack)
            if owner >= 0:  # a body checkpoint of a known loop
                on_body(owner, kind_code)
            else:  # a loop-begin, or an unknown id (which raises)
                on_code(key >> 2, kind_code)
            top = stack[-1]
            node = top[0]
            # Outer iterators: a pop drops the innermost ones; a push adds
            # the new parent's iterator (none under the root).
            if kind_code:
                outer = outer[depth - len(stack):]
            elif len(stack) == 2:
                outer = ()
            else:
                outer = ((stack[-2][0].iteration,)
                         + outer[depth + 1 - len(stack):])
            nodes.append(node)
            outers.append(outer)
            offsets.append(node.iteration - before)
            last = index
            done = before
        if m - 1 > last:  # the trailing same-loop run
            if counted[-1] != done:
                node.begin_iteration(int(counted[-1]) - done)
            top[1] = codes[-1] == 1
        if not n:
            return BlockContexts(counted[:0], counted[:0], nodes, outers)
        # Per event, the context and iterator after it; per access, those
        # of the last event before it. Slot 0 is the state carried in,
        # which the accesses before the first event run under.
        context = np.zeros(m + 1, dtype=np.int64)
        structural.cumsum(out=context[1:])
        iterations = np.array(offsets, dtype=np.int64)[context]
        iterations[1:] += counted
        runs = np.empty(m + 1, dtype=np.int64)
        runs[0] = positions[0]
        np.subtract(positions[1:], positions[:-1], out=runs[1:m])
        runs[m] = n - positions[-1]
        return BlockContexts(context.repeat(runs), iterations.repeat(runs),
                             nodes, outers)

    def _owner_table(self) -> np.ndarray:
        """The lookup table of :meth:`walk`, indexed by an event's key
        ``id << 2 | code``: column 0 is the begin id that must be on top
        for the event to be same-loop (-1: never — a loop-begin, or an
        unknown id), column 1 the begin id on top after it (-2: none an
        event can need, for unknown ids). Ids past the table clip to its
        last row, whose code 3 never occurs. Rebuilt when the map's
        begin-id cache changes (:meth:`CheckpointMap.add` drops it)."""
        begin_ids = self._map.begin_ids()
        table = self._owners
        if table is None or self._owners_of is not begin_ids:
            import numpy as np

            size = max(begin_ids, default=-1) + 2
            table = np.full((4 * size, 2), -1, dtype=np.int64)
            table[:, 1] = -2
            table[0::4, 1] = np.arange(size)  # a loop-begin pushes its id
            for checkpoint_id, begin_id in begin_ids.items():
                if begin_id is not None:
                    table[4 * checkpoint_id + 1:4 * checkpoint_id + 3] = (
                        begin_id)
            self._owners = table
            self._owners_of = begin_ids
        return table

    def _on_loop_begin(self, begin_id: int) -> None:
        # A new loop starting while the top's body is closed means the top
        # loop has exited: pop it.
        stack = self._stack
        while len(stack) > 1 and not stack[-1][1]:
            stack.pop()
        parent = stack[-1][0]
        child = parent.children.get(begin_id)
        if child is None:
            info = self._map.infos.get(begin_id)
            kind = info.loop_kind if info is not None else "loop"
            ast_node_id = info.loop_node_id if info is not None else -1
            child = LoopNode(begin_id, kind, parent, parent.depth + 1,
                             uid=self._next_uid, ast_node_id=ast_node_id)
            self._next_uid += 1
            parent.children[begin_id] = child
        child.begin_entry()
        stack.append([child, False])

    def _on_body(self, begin_id: int, kind_code: int) -> None:
        """A body-begin (code 1) or body-end (code 2) of loop ``begin_id``:
        pop until that loop is on top, then open its body and count an
        iteration, or close it."""
        stack = self._stack
        while len(stack) > 1 and stack[-1][0].begin_id != begin_id:
            stack.pop()
        top = stack[-1]
        if top[0].begin_id != begin_id:
            kind = (CheckpointKind.BODY_BEGIN if kind_code == 1
                    else CheckpointKind.BODY_END)
            raise ValueError(
                f"{kind.value} checkpoint for loop {begin_id} "
                "without a matching loop-begin"
            )
        if kind_code == 1:
            top[1] = True
            top[0].begin_iteration()
        else:
            top[1] = False

    def _owning_loop(self, checkpoint_id: int) -> int:
        """Map a body-begin/body-end id back to its loop's begin id."""
        begin_id = self._map.begin_id_for(checkpoint_id)
        if begin_id is None:
            raise ValueError(f"unknown checkpoint id {checkpoint_id}")
        return begin_id

    def finish(self) -> LoopNode:
        """Finalize trip counts and return the tree root."""
        self.root.finalize()
        return self.root
