"""Algorithm 3 — online identification of (partial) affine index expressions.

One :class:`ReferenceSolver` exists per (loop-tree node, instruction pc)
pair. Every executed access of the reference is fed, in order, to
:meth:`~ReferenceSolver.observe` (or many at once to
:meth:`~ReferenceSolver.observe_rows`) with the access address and the
current iterator vector (innermost loop first), and the solver
incrementally maintains:

* ``CONST`` — the constant term (initially the first address seen);
* ``C1..CN`` — iterator coefficients, each ``None`` (the paper's UNKNOWN)
  until the iterator is observed changing *alone* among the unknowns;
* ``M`` — how many innermost iterators form the (partial) expression;
* ``S1..SN`` — the misprediction bookkeeping vector of the paper's step 6.

The constant-term update on misprediction (``CONST += IND − INDC``) is what
turns data-dependent base addresses (reallocated local arrays, offsets
passed into functions — paper Figure 7) into *partial* affine expressions
over the innermost M iterators.

Note on the coefficient formula: the paper's step 3 prints
``ADJ = Σ ITi·Ci`` over changed known-coefficient iterators, but its own
worked example (Figure 4: coefficient 103 for the outer ``while``) requires
the delta form ``ADJ = Σ (ITi − ITPi)·Ci``; we implement the delta form
(see DESIGN.md) and reproduce the paper's numbers in the test suite.

Bulk entry: :meth:`ReferenceSolver.observe_rows` takes many executions of
one reference at once, as int64 columns. Between solving steps the
coefficients are fixed, and step 6 reduces to a comparison: with
``R = addr − Σ Ci·ITi`` over the known coefficients, a row mispredicts
exactly when its ``R`` differs from the previous row's (the constant after
any row is that row's ``R``). Such *settled runs* are checked with one
int64 dot product; first encounters, solving steps (an UNKNOWN-coefficient
iterator changes) and runs whose products could overflow int64 go through
the scalar :meth:`~ReferenceSolver.observe`. The final state is the one
row-by-row observation reaches.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.foray.model import AffineExpression

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

#: Rows below which a group is cheaper to feed through
#: :meth:`ReferenceSolver.observe` one by one than to convert to columns
#: for :meth:`ReferenceSolver.observe_rows`.
BULK_MIN_ROWS = 32

#: Settled runs whose ``|addr| + Σ |Ci|·max|ITi|`` (or ``|CONST|``) reach
#: this bound could overflow int64 and take the scalar path instead.
_INT64_BOUND = 2**63


class ReferenceSolver:
    """Online affine-expression solver for one memory reference."""

    __slots__ = (
        "pc",
        "nest_depth",
        "const",
        "const_first",
        "coefficients",
        "num_iterators",
        "s_vector",
        "prev_iterators",
        "prev_addr",
        "exec_count",
        "reads",
        "writes",
        "addresses",
        "non_analyzable",
        "mispredictions",
        "access_size",
    )

    def __init__(self, pc: int, nest_depth: int):
        self.pc = pc
        self.nest_depth = nest_depth  # N
        self.const = 0  # CONST
        self.const_first = 0  # first address (used for emission)
        self.coefficients: list[int | None] = []  # C1..CN; None = UNKNOWN
        self.num_iterators = nest_depth  # M
        self.s_vector: list[int] = []  # S1..SN
        self.prev_iterators: tuple[int, ...] = ()  # ITP1..ITPN
        self.prev_addr = 0  # INDP
        self.exec_count = 0
        self.reads = 0
        self.writes = 0
        self.addresses: set[int] = set()
        self.non_analyzable = False
        self.mispredictions = 0
        #: Largest access width observed (bytes) — element size estimate
        #: used by the SPM phase to turn footprints into buffer bytes.
        self.access_size = 1

    # ------------------------------------------------------------------

    def observe(self, addr: int, iterators: tuple[int, ...], is_write: bool,
                size: int = 1) -> None:
        """Process one executed access (the body of the paper's Algorithm 3).

        ``iterators`` are the current loop counters, innermost first; their
        length must equal the solver's nest depth.
        """
        self.exec_count += 1
        if size > self.access_size:
            self.access_size = size
        if is_write:
            self.writes += 1
        else:
            self.reads += 1
        self.addresses.add(addr)

        if self.exec_count == 1:
            # Step 1: first encounter.
            self.const = addr
            self.const_first = addr
            self.coefficients = [None] * self.nest_depth
            self.s_vector = [0] * self.nest_depth
            self.num_iterators = self.nest_depth
            self.prev_iterators = iterators
            self.prev_addr = addr
            return

        if self.non_analyzable:
            # Step 4 already gave up on the expression; keep only counters.
            self.prev_iterators = iterators
            self.prev_addr = addr
            return

        previous = self.prev_iterators
        coefficients = self.coefficients

        # Step 2: iterators that changed while their coefficient is UNKNOWN.
        unknown_changed = [
            i
            for i in range(self.nest_depth)
            if iterators[i] != previous[i] and coefficients[i] is None
        ]

        if len(unknown_changed) == 1:
            # Step 3: solve for the single unknown coefficient.
            k = unknown_changed[0]
            adjust = 0
            for i in range(self.nest_depth):
                coefficient = coefficients[i]
                if i != k and coefficient is not None and iterators[i] != previous[i]:
                    adjust += coefficient * (iterators[i] - previous[i])
            delta_iter = iterators[k] - previous[k]
            numerator = addr - adjust - self.prev_addr
            coefficient, remainder = divmod(numerator, delta_iter)
            if remainder != 0:
                # A truly affine reference always divides exactly; a
                # fractional result means the pattern is not affine in this
                # iterator. Recording 0 makes step 6 absorb the difference
                # into the constant term (demoting the expression to
                # partial) instead of silently using a wrong coefficient.
                coefficient = 0
            coefficients[k] = coefficient
        elif len(unknown_changed) > 1:
            # Step 4: several unknowns changed together — give up.
            self.non_analyzable = True
            self.prev_iterators = iterators
            self.prev_addr = addr
            return

        # Step 5: predict the address with the known coefficients.
        predicted = self.const
        for i in range(self.nest_depth):
            coefficient = coefficients[i]
            if coefficient is not None:
                predicted += coefficient * iterators[i]

        # Step 6: on misprediction, adjust CONST and shrink M.
        if predicted != addr:
            self.mispredictions += 1
            for i in range(self.nest_depth):
                if iterators[i] == previous[i]:
                    self.s_vector[i] = 1
            self.const += addr - predicted
            # Paper: M = (last 1-based i with S_i = 0) - 1, or 0 when the
            # whole vector is marked; with 0-based indices that is simply
            # the last index whose S is 0.
            m = 0
            for i in range(self.nest_depth):
                if self.s_vector[i] == 0:
                    m = i
            self.num_iterators = m

        # Step 7: remember state for the next execution.
        self.prev_iterators = iterators
        self.prev_addr = addr

    def observe_rows(self, addrs: np.ndarray, iterators: np.ndarray,
                     writes: np.ndarray, sizes: np.ndarray) -> None:
        """:meth:`observe` every row in order, vectorizing settled runs.

        ``addrs``, ``writes`` (0/1) and ``sizes`` are int64 arrays of
        length ``k``; ``iterators`` is a ``(k, N)`` int64 array, innermost
        loop first. The resulting state equals ``k`` scalar calls.
        """
        import numpy as np  # loaded on first use (see ColumnBlock)

        k = addrs.shape[0]
        start = 0
        if self.exec_count == 0:
            self._observe_row(addrs, iterators, writes, sizes, 0)
            start = 1
        magnitudes = None  # (max |addr|, max |iterator|), for the guard
        while start < k:
            if self.non_analyzable:
                self._count_rows(addrs, iterators, writes, sizes, start, k)
                return
            unknown = [i for i, c in enumerate(self.coefficients) if c is None]
            stop = k
            if unknown:
                solving = self._moved(iterators, start, k)[:, unknown].any(
                    axis=1)
                if solving.any():
                    stop = start + int(solving.argmax())
            if stop > start:
                known = [c or 0 for c in self.coefficients]
                if magnitudes is None:
                    # An iterator magnitude of at least 1 makes the bound
                    # cover each coefficient on its own as well.
                    magnitudes = (int(np.abs(addrs).max()),
                                  int(np.abs(iterators).max(initial=1)))
                bound = magnitudes[0] + magnitudes[1] * sum(map(abs, known))
                if bound < _INT64_BOUND and abs(self.const) < _INT64_BOUND:
                    self._settled_run(addrs, iterators, writes, sizes,
                                      known, start, stop)
                else:
                    for row in range(start, stop):
                        self._observe_row(addrs, iterators, writes, sizes,
                                          row)
            if stop < k:
                # A solving step (or step 4) — always scalar.
                self._observe_row(addrs, iterators, writes, sizes, stop)
            start = stop + 1

    def _observe_row(self, addrs, iterators, writes, sizes, row: int) -> None:
        self.observe(int(addrs[row]), tuple(iterators[row].tolist()),
                     bool(writes[row]), int(sizes[row]))

    def _moved(self, iterators: np.ndarray, start: int,
               stop: int) -> np.ndarray:
        """``moved[j, i]``: iterator ``i`` of row ``start + j`` differs
        from the previous execution's (the row before, or the state's
        ``prev_iterators`` for row 0)."""
        if start:
            previous = iterators[start - 1:stop - 1]
        else:
            import numpy as np

            previous = np.concatenate((
                np.array(self.prev_iterators, dtype=np.int64).reshape(
                    1, self.nest_depth),
                iterators[:stop - 1]))
        return iterators[start:stop] != previous

    def _count_rows(self, addrs, iterators, writes, sizes, start: int,
                    stop: int) -> None:
        """The counter updates and step 7 of rows ``start:stop``."""
        import numpy as np

        count = stop - start
        written = int(np.count_nonzero(writes[start:stop]))
        self.exec_count += count
        self.writes += written
        self.reads += count - written
        size = int(sizes[start:stop].max())
        if size > self.access_size:
            self.access_size = size
        self.addresses.update(addrs[start:stop].tolist())
        self.prev_iterators = tuple(iterators[stop - 1].tolist())
        self.prev_addr = int(addrs[stop - 1])

    def _settled_run(self, addrs, iterators, writes, sizes, known,
                     start: int, stop: int) -> None:
        """Steps 5–6 over rows ``start:stop``, during which no iterator
        with an UNKNOWN coefficient changes (so steps 2–4 do nothing)."""
        import numpy as np

        residual = addrs[start:stop] - iterators[start:stop] @ np.array(
            known, dtype=np.int64)
        if (residual != self.const).any():
            missed = np.empty(stop - start, dtype=bool)
            missed[0] = residual[0] != self.const
            np.not_equal(residual[1:], residual[:-1], out=missed[1:])
            self.mispredictions += int(np.count_nonzero(missed))
            stayed = ~self._moved(iterators, start, stop)[missed]
            s_vector = self.s_vector
            for i in np.flatnonzero(stayed.any(axis=0)).tolist():
                s_vector[i] = 1
            m = 0
            for i in range(self.nest_depth):
                if s_vector[i] == 0:
                    m = i
            self.num_iterators = m
        self.const = int(residual[-1])
        self._count_rows(addrs, iterators, writes, sizes, start, stop)

    # ------------------------------------------------------------------

    @property
    def footprint(self) -> int:
        return len(self.addresses)

    @property
    def is_full(self) -> bool:
        return self.mispredictions == 0 and self.num_iterators == self.nest_depth

    def expression(self) -> AffineExpression:
        """The (partial) affine expression in its final state.

        The constant term is the *first* base address (matching the paper's
        emitted models, whose constants are the initial array bases); for
        partial expressions the constant is only valid within one
        invocation of the outer context.
        """
        return AffineExpression(
            const=self.const_first,
            coefficients=tuple(self.coefficients)
            or tuple([None] * self.nest_depth),
            num_iterators=self.num_iterators,
        )
