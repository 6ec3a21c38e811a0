"""Unit tests for the SPM buffer allocator (multiple-choice knapsack)."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.foray.model import AffineExpression, ForayReference
from repro.spm.allocator import (
    AllocatorPolicy,
    _dp_select,
    _granules,
    allocate_graph,
)
from repro.spm.candidates import BufferCandidate
from repro.spm.energy import EnergyModel
from repro.spm.graph import ReuseGraph, ReuseNode
from repro.spm.reuse import ReuseLevel


def make_candidate(ref_key, size_bytes, benefit, level=1):
    reference = ForayReference(
        pc=0x400000 + 8 * ref_key,
        loop_path=(),
        expression=AffineExpression(0, (4,), 1),
        exec_count=100,
        footprint=size_bytes // 4,
        reads=100,
        writes=0,
    )
    reuse = ReuseLevel(level, size_bytes // 4, 1, 100.0, 1.0, False)
    return BufferCandidate(reference, reuse, size_bytes, benefit)


def graph_of(candidates):
    """A hand-built reuse graph: one single-member node per candidate
    and one exclusion group per reference, in first-seen order."""
    groups: dict[int, int] = {}
    nodes = []
    for candidate in candidates:
        group = groups.setdefault(id(candidate.reference), len(groups))
        words = candidate.level.fills * candidate.level.footprint_words
        nodes.append(ReuseNode(len(nodes), group, candidate, (candidate,),
                               fill_words=words, writeback_words=0))
    return ReuseGraph(tuple(nodes), (), EnergyModel())


def allocate_candidates(candidates, capacity, policy=AllocatorPolicy.DP):
    """``allocate_graph`` over :func:`graph_of` the candidates."""
    return allocate_graph(graph_of(candidates), capacity, policy)


def brute_force(candidates, capacity):
    """Optimal benefit by exhaustive search (<= 1 candidate per ref)."""
    groups = {}
    for candidate in candidates:
        groups.setdefault(id(candidate.reference), []).append(candidate)
    best = 0.0
    group_lists = [[None, *options] for options in groups.values()]
    for combo in itertools.product(*group_lists):
        chosen = [c for c in combo if c is not None]
        if sum(c.size_bytes for c in chosen) <= capacity:
            best = max(best, sum(c.benefit_nj for c in chosen))
    return best


def dict_dp_reference(groups, slots):
    """The allocator's original DP, kept as the reference: a choice dict
    per capacity, copied once per group and merged on every strict
    improvement; the first capacity with the most benefit wins."""
    best = [0.0] * (slots + 1)
    choice = [{} for _ in range(slots + 1)]
    for group_index, group in enumerate(groups):
        new_best = best[:]
        new_choice = [dict(entry) for entry in choice]
        for item in group:
            need = _granules(item)
            if need > slots:
                continue
            for capacity in range(slots, need - 1, -1):
                gain = best[capacity - need] + item.benefit_nj
                if gain > new_best[capacity]:
                    new_best[capacity] = gain
                    merged = dict(choice[capacity - need])
                    merged[group_index] = item
                    new_choice[capacity] = merged
        best = new_best
        choice = new_choice
    winner = max(range(slots + 1), key=lambda c: best[c])
    return best[winner], list(choice[winner].values())


def random_groups(rng, n_groups, max_items, sizes, benefits):
    """Exclusion groups drawn from small size and benefit pools, so ties
    in both are frequent."""
    return [
        [make_candidate(g, rng.choice(sizes), rng.choice(benefits))
         for _ in range(rng.randint(1, max_items))]
        for g in range(n_groups)
    ]


class TestBackPointerDp:
    """The back-pointer DP must return the dict DP's value, selection and
    selection order exactly, ties included."""

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_dict_dp_with_ties(self, seed):
        rng = random.Random(seed)
        groups = random_groups(rng, rng.randint(0, 9), 4,
                               sizes=[0, 2, 4, 6, 8, 12, 16, 40],
                               benefits=[0.0, 1.0, 2.5, 2.5, 5.0, 7.5])
        slots = rng.randint(0, 24)
        value, chosen = _dp_select(groups, slots)
        ref_value, ref_chosen = dict_dp_reference(groups, slots)
        assert value == ref_value
        assert [id(item) for item in chosen] == [id(item) for item in ref_chosen]

    def test_matches_dict_dp_at_suite_scale(self):
        rng = random.Random(7)
        groups = random_groups(rng, 12, 5,
                               sizes=[4 * k for k in (1, 16, 64, 256, 1024, 2048)],
                               benefits=[float(b) for b in range(0, 4000, 250)])
        for slots in (0, 1, 255, 1024, 4096):
            value, chosen = _dp_select(groups, slots)
            ref_value, ref_chosen = dict_dp_reference(groups, slots)
            assert value == ref_value
            assert [id(i) for i in chosen] == [id(i) for i in ref_chosen]

    def test_identical_items_keep_the_first(self):
        twins = [make_candidate(0, 8, 3.0), make_candidate(0, 8, 3.0)]
        value, chosen = _dp_select([twins], 4)
        assert value == 3.0
        assert len(chosen) == 1 and chosen[0] is twins[0]


class TestAllocator:
    def test_fits_all_when_capacity_ample(self):
        candidates = [make_candidate(i, 100, 50.0) for i in range(4)]
        allocation = allocate_candidates(candidates, 4096)
        assert allocation.buffer_count == 4
        assert allocation.total_benefit_nj == 200.0

    def test_respects_capacity(self):
        candidates = [make_candidate(i, 1000, 10.0) for i in range(4)]
        allocation = allocate_candidates(candidates, 2048)
        assert allocation.used_bytes <= 2048
        assert allocation.buffer_count == 2

    def test_prefers_higher_benefit(self):
        candidates = [
            make_candidate(0, 1000, 10.0),
            make_candidate(1, 1000, 99.0),
        ]
        allocation = allocate_candidates(candidates, 1024)
        assert allocation.buffer_count == 1
        assert allocation.nodes[0].benefit_nj == 99.0

    def test_one_level_per_reference(self):
        base = make_candidate(0, 400, 10.0)
        alt = BufferCandidate(base.reference,
                              ReuseLevel(2, 200, 1, 100.0, 2.0, False),
                              800, 25.0)
        allocation = allocate_candidates([base, alt], 4096)
        assert allocation.buffer_count == 1
        assert allocation.nodes[0].benefit_nj == 25.0

    def test_knapsack_tradeoff(self):
        # One big buffer (60) vs two small (40 + 35 = 75): DP must pick
        # the pair.
        candidates = [
            make_candidate(0, 1000, 60.0),
            make_candidate(1, 500, 40.0),
            make_candidate(2, 500, 35.0),
        ]
        allocation = allocate_candidates(candidates, 1000)
        assert allocation.total_benefit_nj == 75.0

    def test_zero_capacity(self):
        allocation = allocate_candidates([make_candidate(0, 100, 10.0)], 0)
        assert allocation.buffer_count == 0
        assert allocation.total_benefit_nj == 0.0

    def test_oversized_candidate_skipped(self):
        allocation = allocate_candidates([make_candidate(0, 10_000, 99.0)],
                                         1024)
        assert allocation.buffer_count == 0

    @given(
        sizes=st.lists(
            st.integers(min_value=1, max_value=100).map(lambda g: 4 * g),
            min_size=1, max_size=5,
        ),
        benefits=st.lists(st.floats(min_value=1, max_value=100),
                          min_size=5, max_size=5),
        capacity=st.integers(min_value=0, max_value=200).map(lambda g: 4 * g),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force(self, sizes, benefits, capacity):
        # Sizes and capacity are granule-aligned, so the DP is exact.
        candidates = [
            make_candidate(i, size, round(benefit, 2))
            for i, (size, benefit) in enumerate(zip(sizes, benefits))
        ]
        allocation = allocate_candidates(candidates, capacity)
        expected = brute_force(candidates, capacity)
        assert abs(allocation.total_benefit_nj - expected) < 1e-6
        assert allocation.used_bytes <= capacity


class TestPolicies:
    def crowding_candidates(self):
        """One big medium-value buffer vs. two small high-density ones."""
        return [
            make_candidate(0, 1000, 90.0),  # density 0.09
            make_candidate(1, 500, 60.0),   # density 0.12
            make_candidate(2, 500, 55.0),   # density 0.11
        ]

    def test_greedy_ranks_by_density(self):
        allocation = allocate_candidates(self.crowding_candidates(), 1000,
                                         AllocatorPolicy.GREEDY)
        assert allocation.total_benefit_nj == 115.0
        assert allocation.policy == "greedy"

    def test_legacy_greedy_ranks_by_raw_benefit(self):
        # The historical ordering lets the big buffer crowd out the pair.
        allocation = allocate_candidates(self.crowding_candidates(), 1000,
                                         AllocatorPolicy.GREEDY_BENEFIT)
        assert allocation.total_benefit_nj == 90.0
        assert allocation.policy == "greedy-benefit"

    def test_dp_dominates_both_greedies(self):
        candidates = self.crowding_candidates()
        dp = allocate_candidates(candidates, 1000)  # default policy
        assert dp.policy == "dp"
        for policy in (AllocatorPolicy.GREEDY,
                       AllocatorPolicy.GREEDY_BENEFIT):
            other = allocate_candidates(candidates, 1000, policy)
            assert dp.total_benefit_nj >= other.total_benefit_nj

    def test_greedy_respects_group_exclusivity(self):
        base = make_candidate(0, 400, 10.0)
        alt = BufferCandidate(base.reference,
                              ReuseLevel(2, 200, 1, 100.0, 2.0, False),
                              800, 25.0)
        for policy in AllocatorPolicy:
            allocation = allocate_candidates([base, alt], 4096, policy)
            assert allocation.buffer_count == 1

    def test_policy_accepts_plain_strings(self):
        allocation = allocate_candidates(self.crowding_candidates(), 1000,
                                         "greedy")
        assert allocation.policy == "greedy"

    def test_greedy_charges_granule_aligned_capacity(self):
        # Two 6-byte buffers round up to 8 bytes each: only one fits in
        # 12 bytes, exactly as the DP would account it.
        candidates = [make_candidate(0, 6, 10.0), make_candidate(1, 6, 9.0)]
        allocation = allocate_candidates(candidates, 12,
                                         AllocatorPolicy.GREEDY)
        assert allocation.buffer_count == 1

    @given(
        sizes=st.lists(
            st.integers(min_value=1, max_value=100).map(lambda g: 4 * g),
            min_size=1, max_size=5,
        ),
        benefits=st.lists(st.floats(min_value=1, max_value=100),
                          min_size=5, max_size=5),
        capacity=st.integers(min_value=0, max_value=200).map(lambda g: 4 * g),
    )
    @settings(max_examples=40, deadline=None)
    def test_dp_never_loses_to_greedy(self, sizes, benefits, capacity):
        candidates = [
            make_candidate(i, size, round(benefit, 2))
            for i, (size, benefit) in enumerate(zip(sizes, benefits))
        ]
        dp = allocate_candidates(candidates, capacity)
        for policy in (AllocatorPolicy.GREEDY,
                       AllocatorPolicy.GREEDY_BENEFIT):
            other = allocate_candidates(candidates, capacity, policy)
            assert dp.total_benefit_nj >= other.total_benefit_nj - 1e-9
