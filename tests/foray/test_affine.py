"""Unit tests for Algorithm 3 (the online affine solver), including the
paper's worked Figure 4 example and hypothesis property tests.

Every access sequence is fed twice: row by row through
:meth:`ReferenceSolver.observe`, and through the bulk
:meth:`ReferenceSolver.observe_rows` on copies of the solver — once whole
and once split into two calls at every position. Both must reach the same
full solver state.
"""

import copy

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.foray.affine import ReferenceSolver


def solver_state(solver):
    """Every slot of ``solver``, scalars tagged with their type (the bulk
    path must leave native ints, not numpy scalars, behind)."""
    state = {}
    for slot in ReferenceSolver.__slots__:
        value = getattr(solver, slot)
        if isinstance(value, set):
            assert all(type(item) is int for item in value)
            state[slot] = sorted(value)
        elif isinstance(value, (list, tuple)):
            state[slot] = (type(value), [(type(item), item) for item in value])
        else:
            state[slot] = (type(value), value)
    return state


def observe_bulk(solver, rows):
    """Feed ``(addr, iterators, is_write, size)`` rows to observe_rows."""
    addrs, iterators, writes, sizes = zip(*rows)
    solver.observe_rows(
        np.array(addrs, dtype=np.int64),
        np.array(iterators, dtype=np.int64).reshape(len(rows),
                                                    solver.nest_depth),
        np.array(writes, dtype=np.int64), np.array(sizes, dtype=np.int64))


def observe_all(solver, rows):
    """Feed ``rows`` through observe, and check observe_rows against it."""
    before = copy.deepcopy(solver)
    for addr, iterators, is_write, size in rows:
        solver.observe(addr, iterators, is_write, size)
    expected = solver_state(solver)
    for split in range(len(rows) + 1):
        twin = copy.deepcopy(before)
        for part in (rows[:split], rows[split:]):
            if part:
                observe_bulk(twin, part)
        assert solver_state(twin) == expected, split


def feed_nest(solver, trips, address_fn, writes=False):
    """Execute a perfect nest (trips outer->inner) calling address_fn with
    iterator values (innermost first)."""
    depth = len(trips)
    rows = []

    def rec(level, outer):
        if level == depth:
            iterators = tuple(reversed(outer))
            rows.append((address_fn(iterators), iterators, writes, 1))
            return
        for value in range(trips[level]):
            rec(level + 1, outer + [value])

    rec(0, [])
    observe_all(solver, rows)


class TestPaperFigure4:
    """The exact access sequence of the paper's Figure 4(c)."""

    ADDRESSES = [0x7FFF5934, 0x7FFF5935, 0x7FFF5936,
                 0x7FFF599B, 0x7FFF599C, 0x7FFF599D]

    def solve(self):
        solver = ReferenceSolver(pc=0x4002A0, nest_depth=2)
        rows = []
        index = 0
        for outer in range(2):
            for inner in range(3):
                rows.append((self.ADDRESSES[index], (inner, outer), True, 4))
                index += 1
        observe_all(solver, rows)
        return solver

    def test_coefficients_match_paper(self):
        solver = self.solve()
        # Paper Figure 4(d): A4002a0[2147440948 + 1*i15 + 103*i12]
        assert solver.coefficients == [1, 103]

    def test_const_is_first_address(self):
        assert self.solve().const_first == 0x7FFF5934  # 2147440948

    def test_expression_is_full(self):
        solver = self.solve()
        assert solver.is_full
        assert solver.num_iterators == 2
        assert solver.mispredictions == 0

    def test_predicts_every_address(self):
        solver = self.solve()
        expr = solver.expression()
        index = 0
        for outer in range(2):
            for inner in range(3):
                assert expr.evaluate((inner, outer)) == self.ADDRESSES[index]
                index += 1

    def test_counters(self):
        solver = self.solve()
        assert solver.exec_count == 6
        assert solver.footprint == 6
        assert solver.writes == 6 and solver.reads == 0


class TestFullAffine:
    def test_single_loop_stride(self):
        solver = ReferenceSolver(0x400000, 1)
        feed_nest(solver, [10], lambda it: 1000 + 4 * it[0])
        assert solver.coefficients == [4]
        assert solver.is_full

    def test_negative_coefficient(self):
        solver = ReferenceSolver(0x400000, 1)
        feed_nest(solver, [8], lambda it: 5000 - 2 * it[0])
        assert solver.coefficients == [-2]
        assert solver.is_full

    def test_three_level_nest(self):
        solver = ReferenceSolver(0x400000, 3)
        feed_nest(
            solver, [2, 3, 4],
            lambda it: 7000 + 1 * it[0] + 16 * it[1] + 64 * it[2],
        )
        assert solver.coefficients == [1, 16, 64]
        assert solver.is_full

    def test_zero_coefficient_iterator(self):
        # Same address for every outer iteration: C_outer = 0.
        solver = ReferenceSolver(0x400000, 2)
        feed_nest(solver, [3, 5], lambda it: 800 + 4 * it[0])
        assert solver.coefficients == [4, 0]
        assert solver.is_full

    def test_constant_reference_stays_unknown(self):
        # A single-iteration loop never lets the solver see the iterator
        # change, so the coefficient stays UNKNOWN (reported as 0).
        solver = ReferenceSolver(0x400000, 1)
        feed_nest(solver, [1], lambda it: 1234)
        assert solver.coefficients == [None]
        assert not solver.expression().includes_iterator()

    def test_scalar_location(self):
        solver = ReferenceSolver(0x400000, 1)
        feed_nest(solver, [50], lambda it: 42)
        assert solver.coefficients == [0]
        assert solver.footprint == 1


class TestPartialAffine:
    def test_constant_jump_demotes_outer(self):
        # Inner stride 4; the base jumps unpredictably per outer iteration
        # (paper Figure 7): M must drop below the nest depth.
        bases = [0, 7000, 1300, 20000]
        solver = ReferenceSolver(0x400000, 2)
        feed_nest(solver, [4, 6],
                  lambda it: bases[it[1]] + 4 * it[0])
        assert not solver.is_full
        assert solver.num_iterators == 1
        assert solver.coefficients[0] == 4

    def test_all_changed_misprediction_keeps_inner(self):
        # Mispredictions where every iterator changed leave S all-zero, so
        # M = N - 1 (paper step 6 formula).
        bases = [100, 900, 300]
        solver = ReferenceSolver(0x400000, 2)
        feed_nest(solver, [3, 5], lambda it: bases[it[1]] + 8 * it[0])
        assert solver.num_iterators == 1
        assert solver.mispredictions >= 1

    def test_three_level_partial_keeps_two(self):
        # addr affine in the two innermost loops; outermost jumps wildly.
        bases = [0, 5000, 1100, 40000]
        solver = ReferenceSolver(0x400000, 3)
        feed_nest(
            solver, [4, 3, 5],
            lambda it: bases[it[2]] + 1 * it[0] + 10 * it[1],
        )
        assert solver.num_iterators == 2
        assert solver.coefficients[0] == 1
        assert solver.coefficients[1] == 10

    def test_non_analyzable_when_two_unknowns_change(self):
        # First and second observation differ in BOTH iterators while both
        # coefficients are unknown (H > 1): step 4 gives up.
        solver = ReferenceSolver(0x400000, 2)
        observe_all(solver, [(100, (0, 0), False, 1),
                             (200, (1, 1), False, 1)])
        assert solver.non_analyzable

    def test_non_analyzable_still_counts(self):
        solver = ReferenceSolver(0x400000, 2)
        observe_all(solver, [(100, (0, 0), False, 1),
                             (200, (1, 1), False, 2),
                             (300, (2, 2), True, 4)])
        assert solver.exec_count == 3
        assert solver.footprint == 3
        assert solver.access_size == 4
        assert (solver.reads, solver.writes) == (2, 1)

    def test_irregular_single_loop_drops_to_zero_iterators(self):
        # A permutation-gather: every prediction misses while the iterator
        # changed, S stays 0, and M collapses to 0 (paper formula).
        table = [5, 2, 7, 1, 9, 0, 4, 3]
        solver = ReferenceSolver(0x400000, 1)
        feed_nest(solver, [8], lambda it: 1000 + 4 * table[it[0]])
        assert solver.num_iterators == 0

    def test_non_integer_stride_demoted(self):
        # Address advances by 1 every two iterations: the coefficient is
        # fractional, which the solver must not silently accept.
        solver = ReferenceSolver(0x400000, 1)
        feed_nest(solver, [12], lambda it: 600 + it[0] // 2)
        assert solver.num_iterators == 0


class TestProperties:
    @given(
        const=st.integers(min_value=0, max_value=2**31),
        coeffs=st.lists(st.integers(min_value=-64, max_value=64),
                        min_size=1, max_size=3),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_recovers_any_planted_affine_function(self, const, coeffs, data):
        """Algorithm 3 must exactly recover every truly affine reference
        whose iterators each change alone at least once (trips >= 2)."""
        trips = [
            data.draw(st.integers(min_value=2, max_value=4))
            for _ in coeffs
        ]
        solver = ReferenceSolver(0x400000, len(coeffs))
        feed_nest(
            solver, trips[::-1],
            lambda it: const + sum(c * v for c, v in zip(coeffs, it)),
        )
        assert solver.is_full
        assert solver.coefficients == coeffs
        assert solver.const_first == const

    @given(
        coeff=st.integers(min_value=1, max_value=32),
        trips=st.tuples(st.integers(min_value=2, max_value=4),
                        st.integers(min_value=2, max_value=4)),
        jumps=st.lists(st.integers(min_value=0, max_value=10_000),
                       min_size=4, max_size=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_partial_never_reports_full_when_bases_jump(self, coeff, trips, jumps):
        """If the constant term genuinely jumps between outer iterations,
        the solver must not claim a full affine expression."""
        inner_trip, outer_trip = trips
        bases = [jumps[i % len(jumps)] * 13 + i for i in range(outer_trip)]
        distinct = len(set(
            bases[o + 1] - bases[o] for o in range(outer_trip - 1)
        ))
        solver = ReferenceSolver(0x400000, 2)
        feed_nest(solver, [outer_trip, inner_trip],
                  lambda it: bases[it[1]] + coeff * it[0])
        if distinct > 1:  # truly unpredictable outer stride
            assert not solver.is_full
            # The inner behaviour must still be captured.
            assert solver.coefficients[0] == coeff

    @given(st.lists(st.integers(min_value=0, max_value=255),
                    min_size=2, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_footprint_and_exec_count_invariants(self, addresses):
        solver = ReferenceSolver(0x400000, 1)
        observe_all(solver, [(addr, (index,), index % 3 == 0, 1 + index % 4)
                             for index, addr in enumerate(addresses)])
        assert solver.exec_count == len(addresses)
        assert solver.footprint == len(set(addresses))


class TestBulkEntry:
    """Cases aimed at observe_rows' own branches."""

    def test_depth_zero_reference(self):
        solver = ReferenceSolver(0x400000, 0)
        observe_all(solver, [(addr, (), False, 1)
                             for addr in (40, 40, 44, 44, 40)])
        assert solver.mispredictions == 2
        assert solver.num_iterators == 0

    def test_mispredictions_mark_unchanged_iterators(self):
        # The base jumps whenever the middle iterator wraps, while the
        # outer one stays put: S marks both outer iterators.
        bases = {(0, 0): 0, (1, 0): 500, (2, 0): 90, (0, 1): 7000,
                 (1, 1): 12, (2, 1): 3300}
        solver = ReferenceSolver(0x400000, 3)
        feed_nest(solver, [2, 3, 4],
                  lambda it: bases[(it[1], it[2])] + 4 * it[0])
        assert solver.s_vector[0] == 0
        assert solver.num_iterators == 1

    def test_int64_overflow_takes_scalar_path(self):
        # C1 = 2**40 makes C1 * IT1 leave int64 once IT1 reaches 2**23:
        # a wrapped residual would corrupt CONST, so these rows must go
        # through the exact scalar observe.
        rows = [(0, (0,), False, 1), (2**40, (1,), False, 1)]
        rows += [(5 + index, (2**22 * index,), index % 2 == 1, 1)
                 for index in range(1, 6)]
        solver = ReferenceSolver(0x400000, 1)
        observe_all(solver, rows)
        assert solver.coefficients == [2**40]
        assert solver.const == 10 - 2**40 * 5 * 2**22

    def test_coefficient_beyond_int64_takes_scalar_path(self):
        # The solved coefficient (2**64 - 2) does not fit in int64. The
        # split that bulk-feeds only the two rows whose iterator is 0
        # must still take the scalar path.
        rows = [(-2**63 + 1, (0,), False, 1), (2**63 - 1, (1,), False, 1),
                (7, (0,), False, 1), (9, (0,), True, 1)]
        solver = ReferenceSolver(0x400000, 1)
        observe_all(solver, rows)
        assert solver.coefficients == [2**64 - 2]
        assert (solver.const, solver.mispredictions) == (9, 2)
