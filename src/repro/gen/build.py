"""Grammar-directed builder: seeded construction of the program IR.

The builder draws every choice from one explicit ``random.Random`` seeded
with ``(generator version, profile, seed)`` — never from set/dict
iteration order or ``hash()`` — so a (seed, profile) pair renders to
byte-identical source on every interpreter and platform. It produces a
small statement IR (:class:`GenProgram`), not text: the renderer sizes
arrays from the exact iteration-domain intervals of every index
expression (:mod:`repro.gen.render`), and the shrinker minimizes failing
programs by deleting IR subtrees (:mod:`repro.gen.shrink`).

Grammar shape (one program)::

    helpers*            void helperK(int base) { <nest over A[base + e]> }
    int main() {
        read_samples(input, N);
        for (frame = 0; frame < ${reps}; frame++) {   # template knob
            <typed loop nests: stores, loads, scalar reductions,
             data-dependent branches, helper calls with affine args>
        }
        printf("gen checksum %d\\n", acc);
    }

Index expressions are affine in the enclosing iterators (configurable
coefficient/stride ranges, optional negative coefficients normalized to
a non-negative range, optional frame-coefficient "streaming" windows).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.gen.profiles import GENERATOR_VERSION, GenProfile

#: Array id 0 is always the ``input[]`` buffer staged by ``read_samples``
#: (load-only; the builder never stores through it).
INPUT_ARRAY = 0

#: Element types the grammar draws from, with their MiniC spellings.
ELEM_TYPES = ("int", "short", "double")


# ---------------------------------------------------------------------------
# IR nodes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Affine:
    """An affine index over the enclosing loop stack (outermost first).

    ``coeffs[k]`` multiplies the iterator at stack position ``k`` (in
    ``main``, position 0 is the frame iterator). ``with_base`` adds the
    helper's ``base`` parameter (helper bodies only).
    """

    coeffs: tuple[int, ...]
    const: int
    with_base: bool = False


@dataclass(frozen=True)
class Load:
    """``array[index]`` read."""

    array: int
    index: Affine


@dataclass(frozen=True)
class IterVal:
    """``scale * i<depth> + offset`` — an iterator-valued operand."""

    pos: int  # loop-stack position
    scale: int
    offset: int


@dataclass(frozen=True)
class ConstVal:
    value: int


@dataclass(frozen=True)
class BinVal:
    """``left op right`` over :class:`Load`/:class:`IterVal`/:class:`ConstVal`.

    ``%`` and ``/`` only ever appear with a positive constant right
    operand (the builder never divides by data).
    """

    op: str
    left: "Value"
    right: "Value"


Value = Load | IterVal | ConstVal | BinVal


@dataclass
class Store:
    """``array[index] = value;`` (``self_read`` spells the value as
    ``array[index] + value`` — the fill-once/write-back reuse idiom)."""

    array: int
    index: Affine
    value: Value
    self_read: bool = False


@dataclass
class Reduce:
    """``acc += value;`` — the scalar reduction feeding the checksum."""

    value: Value


@dataclass
class Nest:
    """``for (i<pos> = 0; i<pos> < bound; i<pos> += step) { body }``"""

    bound: int
    step: int
    body: list["Stmt"] = field(default_factory=list)

    @property
    def max_value(self) -> int:
        return ((self.bound - 1) // self.step) * self.step

    @property
    def iterations(self) -> int:
        return (self.bound + self.step - 1) // self.step


@dataclass
class Branch:
    """``if (input[index] % mod == rhs) { then } else { els }`` — the
    condition reads the seeded input ensemble, so it is data-dependent
    (never statically constant) by construction."""

    index: Affine
    mod: int
    op: str  # "==" or "!="
    rhs: int
    then: list["Stmt"] = field(default_factory=list)
    els: list["Stmt"] = field(default_factory=list)


@dataclass
class CallStmt:
    """``helper<helper>(arg);`` with an affine argument."""

    helper: int
    arg: Affine


Stmt = Store | Reduce | Nest | Branch | CallStmt


@dataclass
class GenProgram:
    """The generated program, pre-render: everything the source is a
    pure function of (plus the profile)."""

    seed: int
    profile: str
    #: Element type per array id (id 0 = ``input``, always ``int``).
    elem_types: list[str]
    #: Helper bodies, by helper id; their loop stacks have no frame slot.
    helpers: list[list[Stmt]]
    #: Statements inside the frame loop of ``main``.
    main: list[Stmt]


class GenError(Exception):
    """A validity invariant of the generated IR failed."""


def gen_name(profile: str, seed: int) -> str:
    """Registry spec of one generated program (``gen:<profile>:<seed>``)."""
    return f"gen:{profile}:{seed}"


# ---------------------------------------------------------------------------
# Builder
# ---------------------------------------------------------------------------


@dataclass
class _LoopFrame:
    """One open loop while building: the iterator's maximum value."""

    max_value: int
    is_frame: bool = False


class _Builder:
    """One seeded construction pass; all state is deterministic."""

    def __init__(self, seed: int, profile: GenProfile):
        self.profile = profile
        self.seed = seed
        # String seeding hashes the text (stable across versions), so the
        # stream depends on the version/profile/seed triple and nothing
        # else.
        self.rng = random.Random(
            f"repro-gen-v{GENERATOR_VERSION}:{profile.name}:{seed}"
        )
        self.elem_types: list[str] = ["int"]  # id 0 = input
        #: Estimated traced accesses accumulated so far (budget pass).
        self.cost = 0
        #: Per-helper estimated accesses for one invocation.
        self.helper_cost: list[int] = []
        self.helpers: list[list[Stmt]] = []
        self._reduce_seen = False
        self._input_seen = False

    # -- primitive draws ------------------------------------------------

    def _randint(self, bounds: tuple[int, int]) -> int:
        return self.rng.randint(bounds[0], bounds[1])

    def _pick_elem_type(self) -> str:
        if self.rng.random() < self.profile.p_wide_types:
            return "short" if self.rng.random() < 0.6 else "double"
        return "int"

    def _data_array(self) -> int:
        """A non-input array id (store targets; most load sources)."""
        return self.rng.randrange(1, len(self.elem_types))

    def _load_array(self, max_array: int) -> int:
        """A load source below ``max_array``; ~1 in 4 loads (and every
        load when no data array qualifies) reads the input ensemble.

        The bound is the value-growth invariant: a store to array ``k``
        only loads arrays ``< k``, so data dependences form a DAG and no
        multiplicative recurrence can blow values up across frames.
        """
        if max_array <= 1 or self.rng.random() < 0.25:
            return INPUT_ARRAY
        return self.rng.randrange(1, max_array)

    # -- affine indices -------------------------------------------------

    def _interval(self, coeffs: tuple[int, ...], const: int,
                  stack: list[_LoopFrame]) -> tuple[int, int]:
        lo = hi = const
        for coeff, frame in zip(coeffs, stack):
            term = coeff * frame.max_value
            lo += min(0, term)
            hi += max(0, term)
        return lo, hi

    def _affine(self, stack: list[_LoopFrame],
                with_base: bool = False,
                elems_cap: int | None = None) -> Affine:
        """A normalized affine index: lo >= 0, hi under the size cap."""
        profile = self.profile
        cap = (profile.max_array_elems if elems_cap is None else elems_cap)
        coeffs = []
        for frame in stack:
            if frame.is_frame:
                coeffs.append(0)  # streaming term decided below
                continue
            coeff = self._randint(profile.coef)
            if coeff and self.rng.random() < profile.p_negative_coef:
                coeff = -coeff
            coeffs.append(coeff)
        const = self._randint(profile.const)
        # Mostly-zero coefficient draws degenerate to scalar-like refs;
        # keep most references iterator-carried via the innermost loop.
        if stack and not any(coeffs) and self.rng.random() < 0.8:
            coeffs[-1] = self.rng.randint(1, max(1, profile.coef[1]))
        # Normalize: the minimum over the iteration box must be >= 0.
        lo, hi = self._interval(tuple(coeffs), const, stack)
        if lo < 0:
            const -= lo
            hi -= lo
        # Optional streaming window: the frame iterator advances the
        # whole inner footprint once per frame.
        frame_pos = next(
            (k for k, frame in enumerate(stack) if frame.is_frame), None)
        if (frame_pos is not None
                and self.rng.random() < profile.p_frame_coef):
            span = hi + 1 + self.rng.randint(0, 2)
            frame_max = stack[frame_pos].max_value
            if hi + span * frame_max < cap:
                coeffs[frame_pos] = span
                hi += span * frame_max
        # Size-cap clamp: zero the largest surviving term until we fit.
        while hi >= cap:
            terms = [abs(coeff) * frame.max_value
                     for coeff, frame in zip(coeffs, stack)]
            if not any(terms):
                const = self.rng.randrange(cap)
                break
            worst = max(range(len(terms)), key=lambda k: terms[k])
            coeffs[worst] = 0
            lo, hi = self._interval(tuple(coeffs), const, stack)
            if lo < 0:
                const -= lo
                hi -= lo
        return Affine(tuple(coeffs), const, with_base)

    # -- values ----------------------------------------------------------

    def _leaf(self, stack: list[_LoopFrame], in_helper: bool,
              max_array: int) -> Value:
        roll = self.rng.random()
        if roll < 0.5:
            array = self._load_array(max_array)
            if array == INPUT_ARRAY:
                self._input_seen = True
                return Load(array, self._affine(
                    stack, False, self.profile.input_len))
            with_base = in_helper and self.rng.random() < 0.5
            cap = (self.profile.max_array_elems // 4
                   if with_base else None)
            return Load(array, self._affine(stack, with_base, cap))
        if roll < 0.75 and stack:
            pos = len(stack) - 1
            return IterVal(pos, self.rng.randint(1, 3),
                           self.rng.randint(0, 5))
        return ConstVal(self.rng.randint(1, 9))

    def _value(self, stack: list[_LoopFrame], in_helper: bool,
               max_array: int) -> Value:
        left = self._leaf(stack, in_helper, max_array)
        roll = self.rng.random()
        if roll < 0.45:
            return left
        if roll < 0.6 and isinstance(left, (Load, IterVal)):
            # Scale down through a positive constant (never by data;
            # no % on double-typed loads — it is not defined for them).
            is_double = (isinstance(left, Load)
                         and self.elem_types[left.array] == "double")
            op = ("/" if is_double or self.rng.random() < 0.5 else "%")
            return BinVal(op, left, ConstVal(self.rng.randint(2, 8)))
        op = ("+", "-", "*")[self.rng.randrange(3)]
        if op == "*":
            # Multiplication never takes a load on the right: together
            # with the array-DAG load bound this keeps every stored
            # value polynomially bounded (no doubling recurrences, no
            # double overflow to inf, no runaway bigints).
            if stack and self.rng.random() < 0.6:
                right: Value = IterVal(len(stack) - 1,
                                       self.rng.randint(1, 2),
                                       self.rng.randint(0, 3))
            else:
                right = ConstVal(self.rng.randint(2, 9))
            return BinVal(op, left, right)
        return BinVal(op, left, self._leaf(stack, in_helper, max_array))

    def _value_cost(self, value: Value) -> int:
        if isinstance(value, Load):
            return 1
        if isinstance(value, BinVal):
            return self._value_cost(value.left) + self._value_cost(value.right)
        return 0

    # -- statements ------------------------------------------------------

    def _store(self, stack: list[_LoopFrame], in_helper: bool) -> Store:
        array = self._data_array()
        with_base = in_helper and self.rng.random() < 0.6
        # Helper stores stay under half the size cap even without a
        # base term: _force_base_use may add one after the fact, and
        # call arguments are capped at a quarter of the size cap, so
        # base + index always fits.
        cap = (self.profile.max_array_elems // 4 if with_base
               else self.profile.max_array_elems // 2 if in_helper
               else None)
        index = self._affine(stack, with_base, cap)
        # Loads in the stored value come from strictly lower-numbered
        # arrays (self_read adds the additive read-modify-write idiom).
        value = self._value(stack, in_helper, array)
        self_read = self.rng.random() < 0.3
        return Store(array, index, value, self_read)

    def _reduce(self, stack: list[_LoopFrame], in_helper: bool) -> Reduce:
        self._reduce_seen = True
        return Reduce(self._value(stack, in_helper, len(self.elem_types)))

    def _branch(self, stack: list[_LoopFrame], depth: int,
                iters: int, in_helper: bool,
                branch_depth: int) -> Branch:
        self._input_seen = True
        index = self._affine(stack, False, self.profile.input_len)
        mod = self.rng.randint(2, 4)
        node = Branch(index, mod,
                      "==" if self.rng.random() < 0.7 else "!=",
                      self.rng.randrange(mod))
        node.then = self._block(stack, depth, iters, in_helper,
                                min_stmts=1, branch_depth=branch_depth + 1)
        if self.rng.random() < 0.5:
            node.els = self._block(stack, depth, iters, in_helper,
                                   min_stmts=1,
                                   branch_depth=branch_depth + 1)
        return node

    def _call(self, stack: list[_LoopFrame]) -> CallStmt:
        helper = self.rng.randrange(len(self.helpers))
        arg = self._affine(stack, False, self.profile.max_array_elems // 4)
        return CallStmt(helper, arg)

    def _nest(self, stack: list[_LoopFrame], depth: int,
              iters: int, in_helper: bool) -> Nest:
        profile = self.profile
        step = self._randint(profile.step)
        trips = self._randint(profile.trip)
        node = Nest(bound=trips * step, step=step)
        stack.append(_LoopFrame(node.max_value))
        node.body = self._block(stack, depth + 1,
                                iters * node.iterations, in_helper,
                                min_stmts=1)
        stack.pop()
        return node

    def _block(self, stack: list[_LoopFrame], depth: int, iters: int,
               in_helper: bool, min_stmts: int = 0,
               branch_depth: int = 0) -> list[Stmt]:
        profile = self.profile
        count = max(min_stmts, self._randint(profile.block_stmts))
        stmts: list[Stmt] = []
        for _ in range(count):
            if self.cost >= profile.access_budget and len(stmts) >= min_stmts:
                break
            # Weighted category pick over *enabled* categories only: a
            # disabled category's mass falls to the plain-store default,
            # never to its neighbour (a cascading gate once made nested
            # branches supercritical and recursion ran away).
            choices: list[tuple[str, float]] = []
            if depth < profile.max_depth:
                choices.append(("nest", profile.p_nest))
            if depth > 0 and branch_depth < 2:
                choices.append(("branch", profile.p_branch))
            if not in_helper and self.helpers:
                choices.append(("call", profile.p_call))
            choices.append(("reduce", profile.p_reduce))
            roll = self.rng.random()
            kind = "store"
            cum = 0.0
            for name, weight in choices:
                cum += weight
                if roll < cum:
                    kind = name
                    break
            if kind == "nest":
                stmts.append(self._nest(stack, depth, iters, in_helper))
            elif kind == "branch":
                stmts.append(self._branch(stack, depth, iters, in_helper,
                                          branch_depth))
                self.cost += iters  # the condition load
            elif kind == "call":
                call = self._call(stack)
                stmts.append(call)
                self.cost += iters * max(1, self.helper_cost[call.helper])
            elif kind == "reduce":
                node = self._reduce(stack, in_helper)
                stmts.append(node)
                self.cost += iters * self._value_cost(node.value)
            else:
                store = self._store(stack, in_helper)
                stmts.append(store)
                self.cost += iters * (
                    1 + self._value_cost(store.value)
                    + (1 if store.self_read else 0))
        return stmts

    # -- top level -------------------------------------------------------

    def _force_base_use(self, body: list[Stmt]) -> bool:
        """Helpers must actually consume ``base`` (the linter flags
        unused parameters); rewrite the first access if none does."""
        for stmt in body:
            if isinstance(stmt, Store):
                if stmt.index.with_base:
                    return True
                stmt.index = Affine(stmt.index.coeffs, stmt.index.const,
                                    True)
                return True
            if isinstance(stmt, Nest):
                if self._force_base_use(stmt.body):
                    return True
            if isinstance(stmt, Branch):
                if self._force_base_use(stmt.then):
                    return True
                if self._force_base_use(stmt.els):
                    return True
        return False

    def build(self) -> GenProgram:
        profile = self.profile
        for _ in range(self._randint(profile.arrays)):
            self.elem_types.append(self._pick_elem_type())

        for _ in range(self._randint(profile.helpers)):
            before = self.cost
            self.cost = 0
            stack: list[_LoopFrame] = []
            body = self._nest(stack, 1, 1, in_helper=True)
            per_call = max(1, self.cost)
            self.cost = before
            helper_body: list[Stmt] = [body]
            if not self._force_base_use(helper_body):
                continue  # degenerate (reductions only): drop it
            self.helpers.append(helper_body)
            self.helper_cost.append(per_call)

        frame = _LoopFrame(profile.reps - 1, is_frame=True)
        stack = [frame]
        main = self._block(stack, 0, profile.reps, in_helper=False,
                           min_stmts=2)
        if not self._reduce_seen:
            main.append(self._reduce(stack, in_helper=False))
        if not self._input_seen:
            # Tie every program to the input ensemble so the scenario
            # matrix (alt distributions) is never vacuous.
            index = self._affine(stack, False, profile.input_len)
            main.append(Reduce(BinVal("%", Load(INPUT_ARRAY, index),
                                      ConstVal(7))))
        return GenProgram(self.seed, profile.name, self.elem_types,
                          self.helpers, main)


def build_ir(seed: int, profile: GenProfile) -> GenProgram:
    """Deterministically construct the IR of ``gen:<profile>:<seed>``."""
    return _Builder(seed, profile).build()
