"""Checkpoint instrumentation — step 1 of the paper's Algorithm 1.

Every loop statement (``for``, ``while``, ``do``) is annotated with three
checkpoints:

* *loop-begin*, executed once just before the loop statement;
* *body-begin*, executed at the top of every iteration;
* *body-end*, executed whenever the body is exited — normally, via
  ``break``/``continue``, or by a ``return`` or ``exit()`` unwinding
  through the loop. A fault (a runtime error, an exhausted step or
  call-depth budget) ends the run without it, on both engine tiers.
  A naive source-level ``CHECKPOINT();`` as the last body statement would
  be skipped by abnormal exits and leave the checkpoint stream
  ill-nested, confusing Algorithm 2's stack discipline; placing it in a
  cleanup position (as a production annotator would, e.g. on every edge
  leaving the body) keeps reconstruction exact. The paper's examples
  never exercise abnormal exits, so both placements agree on them.

Rather than splicing new statement nodes into the AST, the pass stores the
three ids directly on each loop node (``begin_id`` / ``body_begin_id`` /
``body_end_id``); the interpreter emits the checkpoint records at the
corresponding points and the pretty-printer renders paper-style
``CHECKPOINT(n);`` markers — semantically identical to the paper's
source-to-source annotation, and robust against re-parsing.

The pass also produces the :class:`~repro.sim.trace.CheckpointMap` that the
trace reader and Algorithm 2 use to recover checkpoint kinds and loop
metadata from the id-only text trace. Each :class:`CheckpointInfo` carries
the precomputed compact ``kind_code`` used by the batched trace protocol,
so the engines and the extractor never translate enum kinds on the hot
path.
"""

from __future__ import annotations

from repro.lang import ast_nodes as ast
from repro.sim.trace import CheckpointInfo, CheckpointKind, CheckpointMap

#: First checkpoint id handed out (mirrors the small ids of paper Figure 4).
FIRST_CHECKPOINT_ID = 10


class CheckpointAnnotator:
    """Assigns checkpoint ids to every loop of a program, in pre-order."""

    def __init__(self, first_id: int = FIRST_CHECKPOINT_ID):
        self._next_id = first_id
        self.checkpoint_map = CheckpointMap()

    def annotate(self, program: ast.Program) -> CheckpointMap:
        for node in ast.walk(program):
            if isinstance(node, ast.Loop):
                self._annotate_loop(node)
        return self.checkpoint_map

    def _annotate_loop(self, loop: ast.Loop) -> None:
        if loop.is_instrumented:
            raise ValueError("loop is already instrumented")
        loop.begin_id = self._take_id()
        loop.body_begin_id = self._take_id()
        loop.body_end_id = self._take_id()
        for checkpoint_id, kind in (
            (loop.begin_id, CheckpointKind.LOOP_BEGIN),
            (loop.body_begin_id, CheckpointKind.BODY_BEGIN),
            (loop.body_end_id, CheckpointKind.BODY_END),
        ):
            self.checkpoint_map.add(
                CheckpointInfo(checkpoint_id, kind, loop.node_id, loop.kind)
            )

    def _take_id(self) -> int:
        checkpoint_id = self._next_id
        self._next_id += 1
        return checkpoint_id


def instrument(program: ast.Program) -> CheckpointMap:
    """Annotate all loops of an analyzed program, in place.

    Returns the checkpoint map describing every inserted checkpoint.
    The program must already have ``node_id`` assigned (run
    :func:`repro.lang.semantics.analyze` first).
    """
    return CheckpointAnnotator().annotate(program)
