"""Unit tests for Algorithm 2 (loop tree reconstruction).

These tests drive the builder with synthetic checkpoint streams so the
tricky disambiguation cases (nested vs sequential, zero-iteration loops,
re-entry, missing body-ends after break) are pinned independently of the
simulator. Every stream goes through both entry points: one checkpoint at
a time (:meth:`LoopTreeBuilder.on_checkpoint_code`, the record path) and
whole blocks (:meth:`LoopTreeBuilder.walk`), with the stream split into
two blocks at every position; both must build the same tree and place
every access in the same node under the same iterators. A property test
does the same for random well-nested streams split into random blocks.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.foray.looptree import LoopTreeBuilder
from repro.sim.trace import (
    KIND_TO_CODE,
    CheckpointInfo,
    CheckpointKind,
    CheckpointMap,
    pack_checkpoint,
)

B, S, E = (CheckpointKind.LOOP_BEGIN, CheckpointKind.BODY_BEGIN,
           CheckpointKind.BODY_END)


def make_map(num_loops: int, kind: str = "for") -> CheckpointMap:
    cmap = CheckpointMap()
    for loop in range(num_loops):
        base = 10 + 3 * loop
        cmap.add(CheckpointInfo(base, B, 100 + loop, kind))
        cmap.add(CheckpointInfo(base + 1, S, 100 + loop, kind))
        cmap.add(CheckpointInfo(base + 2, E, 100 + loop, kind))
    return cmap


def feed(builder, events):
    """The record path: one checkpoint at a time."""
    for checkpoint_id, kind in events:
        builder.on_checkpoint_code(checkpoint_id, KIND_TO_CODE[kind])


def snapshot(builder):
    """Every node's state plus the stack, comparable across builders."""
    nodes = [
        (node.uid, node.begin_id, node.kind, node.depth, node.ast_node_id,
         list(node.children), node.iteration, node.entries,
         node.total_iterations, node.max_trip, node.min_trip)
        for node in builder.root.iter_subtree()
    ]
    stack = [(node.uid, body_open) for node, body_open in builder._stack]
    return nodes, stack


def walk(builder, events, n):
    """Walk one block of ``(pos, checkpoint_id, kind_code)`` events with
    ``n`` accesses, as :class:`~repro.sim.trace.ColumnBlock` hands them
    over: packed keys and positions as int64 arrays."""
    keys = np.array([pack_checkpoint(checkpoint_id, code)
                     for _, checkpoint_id, code in events], dtype=np.int64)
    positions = np.array([pos for pos, _, _ in events], dtype=np.int64)
    return builder.walk(keys, positions, n)


def block_of(events, with_accesses):
    """One block of ``events``. With accesses, one follows every event
    but the last, so the last checkpoint trails the block (pos == n);
    without, every checkpoint sits at pos 0 of an access-free block."""
    checkpoints = []
    n = 0
    for index, (checkpoint_id, kind) in enumerate(events):
        checkpoints.append((n, checkpoint_id, KIND_TO_CODE[kind]))
        if with_accesses and index < len(events) - 1:
            n += 1
    return checkpoints, n


def access_states(contexts):
    """(node uid, iterators) of each access of a walk."""
    states = []
    for context, iteration in zip(contexts.ctx.tolist(),
                                  contexts.iteration.tolist()):
        node = contexts.nodes[context]
        iterators = (() if node.parent is None
                     else (iteration,) + contexts.outers[context])
        states.append((node.uid, iterators))
    return states


def build(cmap, events):
    """Feed ``events`` on the record path and check the block walk
    against it at every split; returns the record-path builder."""
    builder = LoopTreeBuilder(cmap)
    expected_states = []
    for index, event in enumerate(events):
        feed(builder, [event])
        if index < len(events) - 1:
            expected_states.append(
                (builder.current.uid, builder.current_iterators()))
    for with_accesses in (True, False):
        for split in range(len(events) + 1):
            walked = LoopTreeBuilder(cmap)
            states = []
            for part in (events[:split], events[split:]):
                checkpoints, n = block_of(part, with_accesses)
                states += access_states(walk(walked, checkpoints, n))
            assert snapshot(walked) == snapshot(builder), (split,
                                                           with_accesses)
            if with_accesses:
                # Each block's last event trails it, so the access after
                # event ``split - 1`` is missing from the walk.
                expected = [state for index, state
                            in enumerate(expected_states)
                            if index != split - 1]
                assert states == expected, split
    return builder


class TestStructure:
    def test_single_loop_two_iterations(self):
        builder = build(make_map(1), [
            (10, B), (11, S), (12, E), (11, S), (12, E),
        ])
        root = builder.finish()
        (node,) = root.children.values()
        assert node.begin_id == 10
        assert node.max_trip == 2
        assert node.min_trip == 2
        assert node.entries == 1
        assert node.total_iterations == 2

    def test_nested_loops(self):
        builder = build(make_map(2), [
            (10, B), (11, S),
            (13, B), (14, S), (15, E),
            (12, E),
        ])
        root = builder.finish()
        outer = root.children[10]
        assert list(outer.children) == [13]
        assert outer.children[13].depth == 2

    def test_sequential_loops_are_siblings(self):
        builder = build(make_map(2), [
            (10, B), (11, S), (12, E),
            (13, B), (14, S), (15, E),
        ])
        root = builder.finish()
        assert set(root.children) == {10, 13}
        assert root.children[13].depth == 1

    def test_sequential_inside_outer(self):
        cmap = make_map(3)
        builder = build(cmap, [
            (10, B), (11, S),
            (13, B), (14, S), (15, E),
            (16, B), (17, S), (18, E),
            (12, E),
        ])
        root = builder.finish()
        outer = root.children[10]
        assert set(outer.children) == {13, 16}

    def test_zero_iteration_loop(self):
        builder = build(make_map(2), [
            (10, B),                # never iterates
            (13, B), (14, S), (15, E),
        ])
        root = builder.finish()
        assert set(root.children) == {10, 13}
        assert root.children[10].max_trip == 0

    def test_reentry_same_node(self):
        # The same loop entered twice (e.g. a function called twice from
        # the same context) maps to ONE node with two entries.
        builder = build(make_map(1), [
            (10, B), (11, S), (12, E),
            (10, B), (11, S), (12, E), (11, S), (12, E),
        ])
        root = builder.finish()
        (node,) = root.children.values()
        assert node.entries == 2
        assert node.min_trip == 1
        assert node.max_trip == 2

    def test_inner_loop_reentered_per_outer_iteration(self):
        builder = build(make_map(2), [
            (10, B),
            (11, S), (13, B), (14, S), (15, E), (12, E),
            (11, S), (13, B), (14, S), (15, E), (12, E),
        ])
        root = builder.finish()
        inner = root.children[10].children[13]
        assert inner.entries == 2
        assert inner.total_iterations == 2

    def test_break_with_cleanup_body_end(self):
        # Our annotator closes the body on break, so the stream stays
        # well-nested and the next loop is correctly a sibling.
        builder = build(make_map(2), [
            (10, B), (11, S), (12, E), (11, S), (12, E),  # second iter broke
            (13, B), (14, S), (15, E),
        ])
        root = builder.finish()
        assert set(root.children) == {10, 13}

    def test_missing_body_end_misnests(self):
        # Documented limitation of three-kind checkpoint streams: if a
        # body-end is genuinely missing, a following loop-begin cannot be
        # distinguished from a nested loop.
        builder = build(make_map(2), [
            (10, B), (11, S),  # body left open
            (13, B), (14, S), (15, E),
        ])
        root = builder.finish()
        assert set(root.children) == {10}
        assert set(root.children[10].children) == {13}

    def test_subtree_in_pre_order_children_in_creation_order(self):
        builder = build(make_map(3), [
            (16, B), (17, S), (18, E),
            (10, B), (11, S),
            (16, B), (17, S), (18, E),
            (13, B), (14, S), (15, E),
            (12, E),
            (13, B), (14, S), (15, E),
        ])
        assert [(node.depth, node.begin_id)
                for node in builder.root.iter_subtree()] == [
            (0, 0), (1, 16), (1, 10), (2, 16), (2, 13), (1, 13)]

    def test_same_loop_different_contexts_distinct_nodes(self):
        # Loop 13 under loop 10 vs at top level: two nodes (inlining).
        builder = build(make_map(2), [
            (10, B), (11, S), (13, B), (14, S), (15, E), (12, E),
            (13, B), (14, S), (15, E),
        ])
        root = builder.finish()
        nested = root.children[10].children[13]
        top = root.children[13]
        assert nested.uid != top.uid
        assert nested.ast_node_id == top.ast_node_id


class TestBlockWalk:
    """Cases aimed at the block walk's inline fast paths."""

    def test_same_static_loop_twice_on_stack(self):
        # A recursive function whose loop body calls it again: loop 10
        # nests inside itself as a distinct node. Once the inner instance
        # is on top, every body checkpoint of loop 10 matches it (nothing
        # is popped), so the outer body's end and next begin land on the
        # inner node too — on both paths.
        builder = build(make_map(1), [
            (10, B), (11, S),
            (10, B), (11, S), (12, E), (11, S), (12, E),
            (12, E), (11, S), (12, E),
        ])
        outer = builder.root.children[10]
        inner = outer.children[10]
        assert outer.uid != inner.uid
        assert inner.depth == 2
        assert inner.total_iterations == 3
        assert outer.total_iterations == 1
        assert builder.current_iterators() == (2, 0)

    def test_unmatched_body_checkpoint_same_error(self):
        events = [(10, B), (11, S), (12, E), (14, S)]
        with pytest.raises(ValueError) as record_error:
            feed(LoopTreeBuilder(make_map(2)), events)
        checkpoints, n = block_of(events, with_accesses=True)
        with pytest.raises(ValueError) as walk_error:
            walk(LoopTreeBuilder(make_map(2)), checkpoints, n)
        assert str(walk_error.value) == str(record_error.value)
        assert "body-begin checkpoint for loop 13" in str(walk_error.value)

    def test_checkpoint_only_block(self):
        builder = LoopTreeBuilder(make_map(2))
        contexts = walk(builder, [(0, 10, 0), (0, 11, 1),
                                  (0, 13, 0), (0, 14, 1)], 0)
        assert access_states(contexts) == []
        assert builder.current_iterators() == (0, 0)

    def test_trailing_checkpoints(self):
        # Checkpoints at pos == n fire after the block's last access.
        builder = LoopTreeBuilder(make_map(1))
        contexts = walk(builder, [(0, 10, 0), (0, 11, 1),
                                  (2, 12, 2), (2, 11, 1)], 2)
        uid = builder.root.children[10].uid
        assert access_states(contexts) == [(uid, (0,)), (uid, (0,))]
        assert builder.current_iterators() == (1,)

    def test_zero_trip_loop_accesses(self):
        # Accesses in a loop condition that never admits the body run
        # under iteration -1; the loop still counts one entry, and the
        # next loop-begin pops it (its body never opened).
        builder = LoopTreeBuilder(make_map(2))
        contexts = walk(builder, [(0, 10, 0), (1, 13, 0), (2, 14, 1)], 3)
        states = access_states(contexts)
        assert [iterators for _, iterators in states] == [(-1,), (-1,), (0,)]
        root = builder.root
        assert [uid for uid, _ in states] == [
            root.children[10].uid, root.children[13].uid,
            root.children[13].uid]
        builder.finish()
        assert root.children[10].max_trip == 0
        assert root.children[10].entries == 1
        build(make_map(2), [(10, B), (13, B), (14, S), (15, E),
                            (10, B), (11, S), (12, E)])

    def test_access_at_root_has_no_iterators(self):
        builder = LoopTreeBuilder(make_map(1))
        contexts = walk(builder, [(1, 10, 0), (2, 11, 1)], 3)
        assert [iterators for _, iterators in access_states(contexts)] == [
            (), (-1,), (0,)]


class TestIterators:
    def test_iterator_values_track_body_begins(self):
        cmap = make_map(2)
        builder = LoopTreeBuilder(cmap)
        seen = []
        events = [
            (10, B), (11, S),
            (13, B), (14, S), (15, E), (14, S), (15, E),
            (12, E),
            (11, S),
            (13, B), (14, S),
        ]
        for event in events:
            feed(builder, [event])
            seen.append(builder.current_iterators())
        build(cmap, events)
        # After the last body-begin of loop 13 under outer iteration 1:
        assert seen[-1] == (0, 1)  # innermost first

    def test_depth_tracks_stack(self):
        builder = build(make_map(2), [(10, B), (11, S), (13, B), (14, S)])
        assert builder.depth == 2

    def test_unknown_checkpoint_rejected(self):
        builder = LoopTreeBuilder(make_map(1))
        with pytest.raises(ValueError, match="unknown checkpoint id 99"):
            feed(builder, [(99, S)])
        with pytest.raises(ValueError, match="unknown checkpoint id 99"):
            walk(LoopTreeBuilder(make_map(1)),
                 [(0, 10, KIND_TO_CODE[B]), (1, 99, KIND_TO_CODE[S])], 2)

    def test_kind_recorded_from_map(self):
        builder = build(make_map(1, kind="do"), [(10, B), (11, S), (12, E)])
        (node,) = builder.finish().children.values()
        assert node.kind == "do"

    def test_path_from_root(self):
        builder = build(make_map(2), [(10, B), (11, S), (13, B), (14, S)])
        path = builder.current.path_from_root()
        assert [n.begin_id for n in path] == [10, 13]


#: Loops 0-2 of ``make_map(4)`` occur in generated streams; loop 3 never
#: begins, so its body checkpoints are unmatched.
STREAM_LOOPS = 3


@st.composite
def loop_streams(draw):
    """A well-nested checkpoint stream: loops with zero or more trips,
    nested up to three deep (the same static loop may nest inside
    itself, as under recursion), some iterations left by a ``break``
    without their body-end, and optionally a trailing unmatched or
    unknown checkpoint."""
    events = []

    def loop(depth):
        base = 10 + 3 * draw(st.integers(0, STREAM_LOOPS - 1))
        events.append((base, B))
        for _ in range(draw(st.integers(0, 3))):
            events.append((base + 1, S))
            if depth < 3:
                for _ in range(draw(st.integers(0, 2))):
                    loop(depth + 1)
            if draw(st.integers(0, 5)) == 0:
                return  # break: the body-end never fires
            events.append((base + 2, E))

    for _ in range(draw(st.integers(1, 3))):
        loop(0)
    trailing = draw(st.sampled_from(
        (None, (10 + 3 * STREAM_LOOPS + 1, S), (10 + 3 * STREAM_LOOPS + 2, E),
         (99, S))))
    if trailing is not None:
        events.append(trailing)
    return events


#: Any id of ``make_map(STREAM_LOOPS + 1)`` or an unknown one, with any
#: kind: loop-begins of body ids, body checkpoints of loop-begin ids and
#: loop-begins of unknown ids are all legal input to the record path.
ANY_EVENT = st.tuples(
    st.sampled_from([*range(10, 10 + 3 * (STREAM_LOOPS + 1)), 99]),
    st.sampled_from((B, S, E)))


@st.composite
def split_streams(draw, events=loop_streams()):
    """A stream interleaved with accesses (None), cut into blocks."""
    events = draw(events)
    items = []
    for event in events:
        items += [None] * draw(st.integers(0, 2))
        items.append(event)
    items += [None] * draw(st.integers(0, 2))
    cuts = sorted(draw(st.sets(st.integers(1, max(1, len(items) - 1)),
                               max_size=6)))
    bounds = [0, *cuts, len(items)]
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


class TestRandomStreams:
    @settings(max_examples=150, deadline=None)
    @given(split_streams())
    def test_walk_matches_record_path(self, blocks):
        self.check(blocks)

    @settings(max_examples=100, deadline=None)
    @given(split_streams(st.lists(ANY_EVENT, max_size=30)))
    def test_arbitrary_events_match_record_path(self, blocks):
        self.check(blocks)

    @staticmethod
    def check(blocks):
        cmap = make_map(STREAM_LOOPS + 1)
        reference = LoopTreeBuilder(cmap)
        expected = []
        expected_error = None
        try:
            for item in (item for block in blocks for item in block):
                if item is None:
                    expected.append((reference.current.uid,
                                     reference.current_iterators()))
                else:
                    feed(reference, [item])
        except ValueError as error:
            expected_error = str(error)
        walked = LoopTreeBuilder(cmap)
        states = []
        error = None
        try:
            for block in blocks:
                checkpoints = []
                n = 0
                for item in block:
                    if item is None:
                        n += 1
                    else:
                        checkpoints.append(
                            (n, item[0], KIND_TO_CODE[item[1]]))
                contexts = walk(walked, checkpoints, n)
                states += access_states(contexts)
        except ValueError as walk_error:
            error = str(walk_error)
        assert error == expected_error
        assert snapshot(walked) == snapshot(reference)
        if error is None:
            assert states == expected
        else:
            # The block that raised returns nothing; the ones before it
            # placed their accesses like the record path.
            assert states == expected[:len(states)]
