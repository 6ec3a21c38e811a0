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

Checkpoints arrive one at a time (:meth:`LoopTreeBuilder.on_checkpoint_code`)
or a trace block at a time (:meth:`LoopTreeBuilder.walk`). The walk
applies a block's checkpoints in one loop, handling the common
no-pop events inline, and returns the block's access :class:`Segments`:
the runs of accesses between checkpoint positions, each with its loop
node and iterator vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from repro.sim.trace import CheckpointKind, CheckpointMap, CheckpointTuple


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

    def begin_iteration(self) -> None:
        self.iteration += 1
        self.total_iterations += 1
        if self.iteration + 1 > self.max_trip:
            self.max_trip = self.iteration + 1

    def _close_trip(self) -> None:
        """Record the trip count of the entry that just finished."""
        if self.entries > 0:
            trip = self.iteration + 1
            if self.min_trip is None or trip < self.min_trip:
                self.min_trip = trip

    def finalize(self) -> None:
        """Close the last entry's trip count, recursively."""
        self._close_trip()
        for child in self.children.values():
            child.finalize()

    def iter_subtree(self):
        yield self
        for child in self.children.values():
            yield from child.iter_subtree()


class Segments:
    """The access segments of one trace block, as parallel lists.

    Segment ``s`` covers the accesses from index ``starts[s]`` up to the
    next segment's start (or the end of the block). They all execute in
    ``nodes[s]``, whose iterator was ``iterations[s]``, inside enclosing
    loops whose iterators, innermost first, are ``outers[s]``. Splitting
    the IT1..ITN vector this way lets a walk record a segment without
    building a tuple: the outer part only changes when a loop is entered
    or left, and consecutive segments share it.
    """

    __slots__ = ("starts", "nodes", "iterations", "outers")

    def __init__(self) -> None:
        self.starts: list[int] = []
        self.nodes: list[LoopNode] = []
        self.iterations: list[int] = []
        self.outers: list[tuple[int, ...]] = []

    def __len__(self) -> int:
        return len(self.starts)

    def iterators(self, index: int) -> tuple[int, ...]:
        """IT1..ITN of segment ``index`` (empty at the root)."""
        if self.nodes[index].parent is None:
            return ()
        return (self.iterations[index],) + self.outers[index]

    def iterator_matrix(self, indices: list[int], depth: int) -> np.ndarray:
        """IT1..ITN of the given segments of one node (of nest ``depth``)
        as a ``(len(indices), depth)`` int64 array."""
        count = len(indices)
        matrix = np.empty((count, depth), dtype=np.int64)
        if depth:
            matrix[:, 0] = np.fromiter(
                map(self.iterations.__getitem__, indices),
                dtype=np.int64, count=count)
        if depth > 1:
            matrix[:, 1:] = np.fromiter(
                chain.from_iterable(map(self.outers.__getitem__, indices)),
                dtype=np.int64, count=count * (depth - 1),
            ).reshape(count, depth - 1)
        return matrix


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
        elif kind_code == 1:  # BODY_BEGIN
            self._on_body_begin(checkpoint_id)
        else:  # BODY_END
            self._on_body_end(checkpoint_id)

    def walk(self, checkpoints: list[CheckpointTuple], n: int) -> Segments:
        """Apply one block's ``(pos, checkpoint_id, kind_code)`` checkpoints
        and return the segments of its ``n`` accesses, in order.

        The common events are handled inline: a body-begin or body-end
        whose loop is already on top of the stack (nothing to pop) and a
        loop-begin under an open body. Every other checkpoint goes through
        :meth:`on_checkpoint_code`, so stack pops, node creation, uid
        order, trip counts and the unmatched-checkpoint ``ValueError``
        are exactly those of one-at-a-time processing.
        """
        stack = self._stack
        root = self.root
        owner_of = self._map.begin_ids().get
        segments = Segments()
        add_start = segments.starts.append
        add_node = segments.nodes.append
        add_iteration = segments.iterations.append
        add_outer = segments.outers.append
        top = stack[-1]
        node = top[0]
        outer = self.current_iterators()[1:]
        start = 0
        for pos, checkpoint_id, code in checkpoints:
            if pos > start:
                add_start(start)
                add_node(node)
                add_iteration(node.iteration)
                add_outer(outer)
                start = pos
            if code:
                if owner_of(checkpoint_id) == node.begin_id:
                    if code == 1:  # body-begin: LoopNode.begin_iteration
                        top[1] = True
                        iteration = node.iteration + 1
                        node.iteration = iteration
                        node.total_iterations += 1
                        if iteration >= node.max_trip:
                            node.max_trip = iteration + 1
                    else:
                        top[1] = False
                    continue
            elif top[1]:
                # A loop-begin under an open body pops nothing: the top
                # becomes the new loop's innermost enclosing loop.
                if node is not root:
                    outer = (node.iteration,) + outer
                self._on_loop_begin(checkpoint_id)
                top = stack[-1]
                node = top[0]
                continue
            self.on_checkpoint_code(checkpoint_id, code)
            top = stack[-1]
            node = top[0]
            outer = self.current_iterators()[1:]
        if start < n:
            add_start(start)
            add_node(node)
            add_iteration(node.iteration)
            add_outer(outer)
        return segments

    def _on_loop_begin(self, begin_id: int) -> None:
        # A new loop starting while the top's body is closed means the top
        # loop has exited: pop it.
        while len(self._stack) > 1 and not self._stack[-1][1]:
            self._stack.pop()
        parent = self.current
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
        self._stack.append([child, False])

    def _find_on_stack(self, begin_id: int, body_kind: CheckpointKind) -> None:
        """Pop until the node owning ``begin_id`` is on top."""
        while len(self._stack) > 1 and self._stack[-1][0].begin_id != begin_id:
            self._stack.pop()
        if self._stack[-1][0].begin_id != begin_id:
            raise ValueError(
                f"{body_kind.value} checkpoint for loop {begin_id} "
                "without a matching loop-begin"
            )

    def _on_body_begin(self, body_begin_id: int) -> None:
        begin_id = self._owning_loop(body_begin_id)
        self._find_on_stack(begin_id, CheckpointKind.BODY_BEGIN)
        top = self._stack[-1]
        top[1] = True
        top[0].begin_iteration()

    def _on_body_end(self, body_end_id: int) -> None:
        begin_id = self._owning_loop(body_end_id)
        self._find_on_stack(begin_id, CheckpointKind.BODY_END)
        self._stack[-1][1] = False

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
