"""Phase II step 4 — rewriting the FORAY model to use the scratch pad.

Produces the "Transformed FORAY model code" box of the paper's Figure 3:
for every selected buffer, a buffer declaration, a fill loop at the right
nesting level (annotated as a DMA transfer), the rewritten access of each
reference it serves, and an optional write-back loop. The designer then
back-annotates this into the legacy code (Phase III, manual by design in
the paper).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.spm.allocator import Allocation
from repro.spm.candidates import BufferCandidate

_INDENT = "    "


def transform_model(allocation: Allocation) -> str:
    """Render the SPM-transformed FORAY model as C-like text.

    Each selected node gets one buffer declaration and one fill (and,
    when a member writes, write-back) schedule, taken from its
    representative candidate; every member's access is rewritten inside
    it, members of one loop nest in one loop body.
    """
    lines: list[str] = [
        f"/* SPM capacity: {allocation.capacity_bytes} bytes; "
        f"{allocation.buffer_count} buffers selected; "
        f"estimated saving {allocation.total_benefit_nj:.0f} nJ */",
        "",
    ]
    for node in allocation.nodes:
        lines.append(
            f"char {node.candidate.name}[{node.size_bytes}];  "
            f"/* SPM buffer for {node.candidate.reference.array_name} */"
        )
    if allocation.nodes:
        lines.append("")

    for node in allocation.nodes:
        candidate = node.candidate
        reference = candidate.reference
        split = len(reference.effective_loops) - node.level.level
        outer_loops = reference.effective_loops[:split]
        # Members share one window, so they nest equally deep; those
        # with the same inner loops share one loop body.
        bodies: dict[tuple, list] = {}
        for member in node.members:
            inner_loops = member.reference.effective_loops[split:]
            bodies.setdefault(inner_loops, []).append(member.reference)

        depth = 0
        for loop in outer_loops:
            lines.append(_INDENT * depth + _loop_header(loop))
            depth += 1
        lines.append(
            _INDENT * depth
            + f"dma_copy({candidate.name}, &{reference.array_name}"
              f"[{_base_index(reference, outer_loops)}], "
              f"{candidate.size_bytes});  /* fill */"
        )
        for inner_loops, members in bodies.items():
            for loop in inner_loops:
                lines.append(_INDENT * depth + _loop_header(loop))
                depth += 1
            for member in members:
                lines.append(
                    _INDENT * depth
                    + f"{candidate.name}"
                      f"[{_buffer_index(member, inner_loops)}];  "
                      f"/* was {member.array_name}[{member.index_text()}] */"
                )
            for _ in inner_loops:
                depth -= 1
                lines.append(_INDENT * depth + "}")
        if node.writeback_words:
            lines.append(
                _INDENT * depth
                + f"dma_copy(&{reference.array_name}"
                  f"[{_base_index(reference, outer_loops)}], {candidate.name}, "
                  f"{candidate.size_bytes});  /* write back */"
            )
        for _ in outer_loops:
            depth -= 1
            lines.append(_INDENT * depth + "}")
        lines.append("")

    while lines and not lines[-1]:
        lines.pop()
    return "\n".join(lines) + ("\n" if lines else "")


def _loop_header(loop) -> str:
    return (f"for (int {loop.name} = 0; {loop.name} < {loop.max_trip}; "
            f"{loop.name}++) {{")


def _base_index(reference, outer_loops) -> str:
    """Index of the first element covered by the buffer at this fill."""
    expr = reference.expression
    coefficients = expr.used_coefficients()
    names_inner_first = [loop.name for loop in reversed(reference.effective_loops)]
    outer_names = {loop.name for loop in outer_loops}
    parts = [str(expr.const)]
    for coefficient, name in zip(coefficients, names_inner_first):
        if name in outer_names and coefficient:
            parts.append(f"{coefficient}*{name}")
    return "+".join(parts)


def _buffer_index(reference, inner_loops) -> str:
    """Index into the SPM buffer (inner iterators only, rebased to 0)."""
    expr = reference.expression
    coefficients = expr.used_coefficients()
    names_inner_first = [loop.name for loop in reversed(reference.effective_loops)]
    inner_names = {loop.name for loop in inner_loops}
    parts = []
    for coefficient, name in zip(coefficients, names_inner_first):
        if name in inner_names and coefficient:
            parts.append(f"{coefficient}*{name}")
    return "+".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# Runnable MiniC replay + transform (end-to-end round trip)
# ---------------------------------------------------------------------------
#
# `transform_model` above is designer-facing *text*. The functions below
# instead emit compilable MiniC programs so the predicted traffic reduction
# can be verified end to end: `emit_replay_source` replays the model's
# access pattern (one global array per *array group*, so aliasing between
# references is preserved), `emit_transformed_source` is the same program
# with the selected buffers applied. Buffers live on the stack — the
# stand-in for the scratch pad — so the count of traced accesses in the
# global address range is exactly the main-memory traffic.


@dataclass(frozen=True)
class BufferPlan:
    """One emitted SPM buffer and the replay references it serves."""

    buffer: str
    #: ``(reference index, candidate)`` per member routed through it.
    members: tuple[tuple[int, BufferCandidate], ...]
    fill_words: int
    writeback_words: int

    @property
    def served_accesses(self) -> int:
        return sum(
            candidate.reference.reads + candidate.reference.writes
            for _index, candidate in self.members
        )

    @property
    def predicted_drop(self) -> int:
        """Main-memory accesses the rewrite removes for this buffer."""
        return self.served_accesses - self.fill_words - self.writeback_words


@dataclass(frozen=True)
class ReplayProgram:
    """A compilable replay of a FORAY model (possibly SPM-transformed)."""

    source: str
    buffered: tuple[BufferPlan, ...]

    @property
    def predicted_drop(self) -> int:
        return sum(plan.predicted_drop for plan in self.buffered)


@dataclass(frozen=True)
class _ReplayLayout:
    """Shared addressing of the replay: one array per array group."""

    group_of: dict[int, int]          # id(reference) -> group id
    group_lo: dict[int, int]          # group id -> lowest byte address
    group_hi: dict[int, int]          # group id -> highest byte address
    element_size: dict[int, int]      # group id -> 1 (char) or 4 (int)

    def array(self, reference) -> str:
        return f"G{self.group_of[id(reference)]}"

    def es(self, reference) -> int:
        return self.element_size[self.group_of[id(reference)]]

    def offset(self, reference) -> int:
        group = self.group_of[id(reference)]
        base = reference.expression.const - self.group_lo[group]
        return base // self.element_size[group]


def _replay_layout(references) -> _ReplayLayout:
    from repro.spm.graph import _group_by_array, reference_interval

    group_of = _group_by_array(list(references))
    group_lo: dict[int, int] = {}
    group_hi: dict[int, int] = {}
    word_ok: dict[int, bool] = {}
    for reference in references:
        group = group_of[id(reference)]
        lo, hi = reference_interval(reference)
        group_lo[group] = min(group_lo.get(group, lo), lo)
        group_hi[group] = max(group_hi.get(group, hi), hi)
        aligned = (reference.access_size == 4 and all(
            c % 4 == 0 for c in reference.expression.used_coefficients()
        ))
        word_ok[group] = word_ok.get(group, True) and aligned
    element_size = {}
    for group, ok in word_ok.items():
        ok = ok and group_lo[group] % 4 == 0
        ok = ok and all(
            (ref.expression.const - group_lo[group]) % 4 == 0
            for ref in references if group_of[id(ref)] == group
        )
        element_size[group] = 4 if ok else 1
    return _ReplayLayout(group_of, group_lo, group_hi, element_size)


def _index_terms(reference, element_size: int, loops) -> list[str]:
    """``coefficient*iterator`` terms for the given subset of loops."""
    coefficients = reference.expression.used_coefficients()
    names_inner_first = [
        loop.name for loop in reversed(reference.effective_loops)
    ]
    wanted = {loop.name for loop in loops}
    terms = []
    for coefficient, name in zip(coefficients, names_inner_first):
        if name in wanted and coefficient:
            terms.append(f"{coefficient // element_size}*{name}")
    return terms


def _index_expr(reference, element_size: int, loops, extra: int = 0) -> str:
    terms = _index_terms(reference, element_size, loops)
    if extra:
        terms.append(str(extra))
    return " + ".join(terms) if terms else "0"


def _buffer_eligible(reference, candidate: BufferCandidate,
                     element_size: int) -> bool:
    """Whether the candidate's window can be emitted as a dense fill loop.

    Requires non-negative element-aligned coefficients, an inner window
    that is dense in elements (its span equals the footprint — so
    ``buf[k] = A[base + k]`` covers exactly the touched addresses), and a
    profile that matches the rectangular replay nest: constant trips,
    every iteration executing exactly one access, and one fill per outer
    iteration. Guarded or variable-trip references are rejected — the
    replay would execute more accesses than were profiled and
    ``predicted_drop`` would be wrong for them.
    """
    loops = reference.effective_loops
    if not all(loop.has_constant_trip for loop in loops):
        return False
    iterations = 1
    for loop in loops:
        iterations *= max(1, loop.max_trip)
    if reference.exec_count != iterations:
        return False
    if reference.reads + reference.writes != reference.exec_count:
        return False
    level = candidate.level.level
    fills = 1
    for loop in loops[: len(loops) - level]:
        fills *= max(1, loop.max_trip)
    if candidate.level.fills != fills:
        return False
    coefficients = reference.expression.used_coefficients()
    if any(c < 0 or c % element_size for c in coefficients):
        return False
    inner = coefficients[:level]
    trips = [max(1, loop.max_trip) for loop in reversed(loops)][:level]
    span = sum((c // element_size) * (t - 1) for c, t in zip(inner, trips))
    return span + 1 == candidate.level.footprint_words


def replay_buffer_eligible(reference, candidate: BufferCandidate) -> bool:
    """Eligibility of one reference in isolation (its own array group)."""
    layout = _replay_layout([reference])
    return _buffer_eligible(reference, candidate, layout.es(reference))


def _emit_access(reference, array: str, index: str) -> str:
    if reference.writes and reference.reads:
        return f"{array}[{index}] = {array}[{index}] + 1;"
    if reference.writes:
        return f"{array}[{index}] = s;"
    return f"s = s + {array}[{index}];"


def _emit_copy_loop(lines, depth, dst, dst_index, src, src_index,
                    words) -> None:
    lines.append(
        _INDENT * depth
        + f"for (k = 0; k < {words}; k = k + 1) {{ "
          f"{dst}[{dst_index}] = {src}[{src_index}]; }}"
    )


def _emit_reference(
    lines: list[str],
    reference,
    layout: _ReplayLayout,
    candidate: BufferCandidate | None,
    buffer: str | None,
    inline_fill: bool = True,
) -> None:
    """Emit one reference's loop nest (optionally through an SPM buffer).

    ``inline_fill`` places the fill/write-back loops at the candidate's
    split point inside this nest; shared buffers instead fill once before
    the first member nest (see :func:`emit_transformed_source`).
    """
    array = layout.array(reference)
    element_size = layout.es(reference)
    offset = layout.offset(reference)
    loops = reference.effective_loops
    split = candidate.level.level if candidate else 0
    outer = loops[: len(loops) - split]
    inner = loops[len(loops) - split:]

    depth = 1
    for loop in outer:
        lines.append(
            _INDENT * depth
            + f"for ({loop.name} = 0; {loop.name} < {loop.max_trip}; "
              f"{loop.name} = {loop.name} + 1) {{"
        )
        depth += 1
    if candidate is not None and inline_fill:
        base = _index_expr(reference, element_size, outer, offset)
        _emit_copy_loop(lines, depth, buffer, "k", array, f"{base} + k",
                        candidate.level.footprint_words)
    for loop in inner:
        lines.append(
            _INDENT * depth
            + f"for ({loop.name} = 0; {loop.name} < {loop.max_trip}; "
              f"{loop.name} = {loop.name} + 1) {{"
        )
        depth += 1
    if candidate is not None:
        lines.append(
            _INDENT * depth
            + _emit_access(reference, buffer,
                           _index_expr(reference, element_size, inner))
        )
    else:
        lines.append(
            _INDENT * depth
            + _emit_access(reference, array,
                           _index_expr(reference, element_size, loops,
                                       offset))
        )
    for _ in inner:
        depth -= 1
        lines.append(_INDENT * depth + "}")
    if candidate is not None and inline_fill and reference.writes:
        base = _index_expr(reference, element_size, outer, offset)
        _emit_copy_loop(lines, depth, array, f"{base} + k", buffer, "k",
                        candidate.level.footprint_words)
    for _ in outer:
        depth -= 1
        lines.append(_INDENT * depth + "}")


def _emit_program(model, plans: list[BufferPlan]) -> ReplayProgram:
    references = [ref for ref in model.references if ref.effective_loops]
    layout = _replay_layout(references)

    decls: list[str] = []
    seen_groups: set[int] = set()
    iterator_names: list[str] = []
    for reference in references:
        group = layout.group_of[id(reference)]
        if group not in seen_groups:
            seen_groups.add(group)
            element_size = layout.element_size[group]
            ctype = "int" if element_size == 4 else "char"
            length = -(-(layout.group_hi[group] - layout.group_lo[group])
                       // element_size)
            decls.append(
                f"{ctype} G{group}[{max(1, length)}];  "
                f"/* array group {group} */"
            )
        for loop in reference.effective_loops:
            if loop.name not in iterator_names:
                iterator_names.append(loop.name)

    body: list[str] = [_INDENT + "int s = 0;", _INDENT + "int k = 0;"]
    for name in iterator_names:
        body.append(_INDENT + f"int {name} = 0;")

    member_plan: dict[int, tuple[BufferPlan, BufferCandidate]] = {}
    fill_before: dict[int, list[BufferPlan]] = {}
    writeback_after: dict[int, list[BufferPlan]] = {}
    for plan in plans:
        element_size = layout.es(plan.members[0][1].reference)
        ctype = "int" if element_size == 4 else "char"
        words = plan.members[0][1].level.footprint_words
        body.append(
            _INDENT + f"{ctype} {plan.buffer}[{words}];  /* SPM (stack) */"
        )
        for index, candidate in plan.members:
            member_plan[index] = (plan, candidate)
        if len(plan.members) > 1:
            # Shared buffer: fill before the first member nest, write
            # back (if any member writes) after the last one.
            first = min(index for index, _candidate in plan.members)
            last = max(index for index, _candidate in plan.members)
            fill_before.setdefault(first, []).append(plan)
            if plan.writeback_words:
                writeback_after.setdefault(last, []).append(plan)

    for index, reference in enumerate(references):
        plan_entry = member_plan.get(index)
        if plan_entry is None:
            _emit_reference(body, reference, layout, None, None)
            continue
        plan, candidate = plan_entry
        shared = len(plan.members) > 1
        for fill_plan in fill_before.get(index, ()):
            fill_candidate = fill_plan.members[0][1]
            fill_reference = fill_candidate.reference
            base = layout.offset(fill_reference)
            _emit_copy_loop(body, 1, fill_plan.buffer, "k",
                            layout.array(fill_reference), f"{base} + k",
                            fill_candidate.level.footprint_words)
        _emit_reference(body, reference, layout, candidate, plan.buffer,
                        inline_fill=not shared)
        for wb_plan in writeback_after.get(index, ()):
            wb_candidate = wb_plan.members[0][1]
            wb_reference = wb_candidate.reference
            base = layout.offset(wb_reference)
            _emit_copy_loop(body, 1, layout.array(wb_reference),
                            f"{base} + k", wb_plan.buffer, "k",
                            wb_candidate.level.footprint_words)

    lines = [
        "/* machine-generated replay of a FORAY model: one global array",
        "   per array group; SPM buffers live on the stack, so accesses",
        "   in the global address range == main-memory traffic. */",
        *decls,
        "int main() {",
        *body,
        _INDENT + "return s % 128;",
        "}",
    ]
    return ReplayProgram("\n".join(lines) + "\n", tuple(plans))


def emit_replay_source(model) -> str:
    """Compilable MiniC replay of the model's access pattern (no SPM)."""
    return _emit_program(model, []).source


def emit_transformed_source(allocation: Allocation, model) -> ReplayProgram:
    """The replay program with the allocation's buffers applied.

    Only candidates with dense, non-negative windows are rewritten; a
    shared node is rewritten only when it spans its members' whole nests
    (single fill) and its members cover the entire array group, so the
    fill-once/write-back-once schedule is sound. Everything else replays
    untouched; ``buffered`` lists exactly what was rewritten so callers
    can compute the predicted traffic delta for it.
    """
    references = [ref for ref in model.references if ref.effective_loops]
    layout = _replay_layout(references)
    index_of = {id(ref): i for i, ref in enumerate(references)}
    group_members: dict[int, set[int]] = {}
    for reference in references:
        group_members.setdefault(
            layout.group_of[id(reference)], set()
        ).add(id(reference))

    plans: list[BufferPlan] = []
    for node in allocation.nodes:
        entries = []
        ok = True
        for candidate in node.members:
            reference = candidate.reference
            index = index_of.get(id(reference))
            if index is None or not _buffer_eligible(
                reference, candidate, layout.es(reference)
            ):
                ok = False
                break
            entries.append((index, candidate))
        if not ok:
            continue
        if len(entries) > 1:
            # Shared schedule: one fill for the whole run, members must
            # own their entire array group (no outside reader/writer).
            full_depth = all(
                candidate.level.level == len(
                    candidate.reference.effective_loops)
                and candidate.level.fills == 1
                for _index, candidate in entries
            )
            group = layout.group_of[id(entries[0][1].reference)]
            covered = {id(c.reference) for _i, c in entries}
            if not full_depth or group_members[group] != covered:
                continue
        plans.append(
            BufferPlan(f"B{len(plans)}", tuple(entries), node.fill_words,
                       node.writeback_words)
        )
    return _emit_program(model, plans)
