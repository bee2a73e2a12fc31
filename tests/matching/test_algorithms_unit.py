"""Focused unit tests for each matching algorithm's specific behaviour."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import SimilarityGraph
from repro.matching import (
    BestAssignmentHeuristic,
    BestMatchClustering,
    ConnectedComponentsClustering,
    ExactClustering,
    GaleShapleyMatching,
    HungarianMatching,
    KiralyClustering,
    RicochetSRClustering,
    RowColumnClustering,
    UniqueMappingClustering,
)
from repro.matching.connected_components import UnionFind


class TestUnionFind:
    def test_initially_disjoint(self):
        uf = UnionFind(3)
        assert uf.find(0) != uf.find(1)

    def test_union_merges(self):
        uf = UnionFind(4)
        uf.union(0, 1)
        assert uf.find(0) == uf.find(1)
        assert uf.component_size(0) == 2
        assert uf.component_size(2) == 1

    def test_union_idempotent(self):
        uf = UnionFind(3)
        uf.union(0, 1)
        uf.union(1, 0)
        assert uf.component_size(0) == 2

    def test_transitive(self):
        uf = UnionFind(5)
        uf.union(0, 1)
        uf.union(1, 2)
        uf.union(3, 4)
        assert uf.find(0) == uf.find(2)
        assert uf.find(3) != uf.find(0)
        assert uf.component_size(2) == 3


class TestCNC:
    def test_discards_large_components(self):
        # A chain a0-b0-a1 forms a 3-node component: all discarded.
        g = SimilarityGraph.from_edges(
            2, 2, [(0, 0, 0.9), (1, 0, 0.8), (1, 1, 0.2)]
        )
        result = ConnectedComponentsClustering().match(g, 0.5)
        assert result.pairs == []

    def test_keeps_isolated_pairs(self):
        g = SimilarityGraph.from_edges(
            2, 2, [(0, 0, 0.9), (1, 1, 0.8)]
        )
        result = ConnectedComponentsClustering().match(g, 0.5)
        assert sorted(result.pairs) == [(0, 0), (1, 1)]

    def test_threshold_is_inclusive(self):
        g = SimilarityGraph.from_edges(1, 1, [(0, 0, 0.5)])
        result = ConnectedComponentsClustering().match(g, 0.5)
        assert result.pairs == [(0, 0)]

    def test_pruning_splits_components(self):
        # Below threshold the chain edge disappears, leaving one pair.
        g = SimilarityGraph.from_edges(
            2, 2, [(0, 0, 0.9), (1, 0, 0.3), (1, 1, 0.2)]
        )
        result = ConnectedComponentsClustering().match(g, 0.5)
        assert result.pairs == [(0, 0)]

    def test_duplicate_edges_still_one_pair(self):
        g = SimilarityGraph(2, 2, [0, 0], [0, 0], [0.9, 0.8])
        result = ConnectedComponentsClustering().match(g, 0.5)
        assert result.pairs == [(0, 0)]


class TestUMC:
    def test_greedy_order(self):
        # The 0.9 edge locks a0 and b0; the 0.8 edge is then blocked,
        # so b1 and a1 remain single despite their 0.6 edge being free.
        g = SimilarityGraph.from_edges(
            2, 2, [(0, 0, 0.9), (0, 1, 0.8), (1, 0, 0.7), (1, 1, 0.6)]
        )
        result = UniqueMappingClustering().match(g, 0.5)
        assert sorted(result.pairs) == [(0, 0), (1, 1)]

    def test_strict_threshold(self):
        g = SimilarityGraph.from_edges(1, 1, [(0, 0, 0.5)])
        result = UniqueMappingClustering().match(g, 0.5)
        assert result.pairs == []

    def test_tie_break_deterministic(self):
        g = SimilarityGraph.from_edges(
            2, 2, [(1, 0, 0.8), (0, 0, 0.8), (0, 1, 0.8), (1, 1, 0.8)]
        )
        result = UniqueMappingClustering().match(g, 0.5)
        assert sorted(result.pairs) == [(0, 0), (1, 1)]


class TestBMC:
    def test_basis_left(self):
        # a0's best is b0; a1's best is also b0 but it is taken: a1
        # falls back to nothing because its only other edge is below t.
        g = SimilarityGraph.from_edges(
            2, 2, [(0, 0, 0.9), (1, 0, 0.8), (1, 1, 0.3)]
        )
        result = BestMatchClustering(basis="left").match(g, 0.5)
        assert result.pairs == [(0, 0)]

    def test_basis_right(self):
        g = SimilarityGraph.from_edges(
            2, 2, [(0, 0, 0.9), (1, 0, 0.8), (1, 1, 0.3)]
        )
        result = BestMatchClustering(basis="right").match(g, 0.5)
        assert result.pairs == [(0, 0)]

    def test_basis_changes_result(self):
        # Scanning V1 first gives a0 its best b0; scanning V2 first
        # gives b0 its best a1, producing different pairs.
        g = SimilarityGraph.from_edges(
            2, 1, [(0, 0, 0.8), (1, 0, 0.9)]
        )
        left = BestMatchClustering(basis="left").match(g, 0.5)
        right = BestMatchClustering(basis="right").match(g, 0.5)
        assert left.pairs == [(0, 0)]
        assert right.pairs == [(1, 0)]

    def test_smaller_basis_resolution(self):
        g = SimilarityGraph.from_edges(2, 1, [(0, 0, 0.8), (1, 0, 0.9)])
        # V2 is smaller: basis="smaller" must behave like basis="right".
        auto = BestMatchClustering(basis="smaller").match(g, 0.5)
        right = BestMatchClustering(basis="right").match(g, 0.5)
        assert auto.pairs == right.pairs

    def test_invalid_basis_rejected(self):
        with pytest.raises(ValueError):
            BestMatchClustering(basis="bogus")


class TestEXC:
    def test_requires_reciprocity(self):
        # a0's best is b0, but b0's best is a1: no pair for a0.
        g = SimilarityGraph.from_edges(
            2, 2, [(0, 0, 0.7), (1, 0, 0.9), (1, 1, 0.8)]
        )
        result = ExactClustering().match(g, 0.5)
        # a1's best is b0 (0.9) and b0's best is a1: mutual.
        assert result.pairs == [(1, 0)]

    def test_exc_subset_of_bmc_union(self):
        g = SimilarityGraph.from_edges(
            3, 3, [(0, 0, 0.9), (0, 1, 0.8), (1, 1, 0.85), (2, 2, 0.6)]
        )
        exc = set(ExactClustering().match(g, 0.5).pairs)
        bmc_left = set(BestMatchClustering(basis="left").match(g, 0.5).pairs)
        bmc_right = set(BestMatchClustering(basis="right").match(g, 0.5).pairs)
        assert exc <= (bmc_left | bmc_right)


class TestRCA:
    def test_second_pass_can_win(self):
        # Pass over V1: a0 grabs b0 (0.8), a1 gets b1 (0.1): value 0.9.
        # Pass over V2: b0 grabs a1 (0.9), b1 gets a0 (0.7): value 1.6.
        g = SimilarityGraph.from_edges(
            2,
            2,
            [(0, 0, 0.8), (1, 0, 0.9), (0, 1, 0.7), (1, 1, 0.1)],
        )
        result = RowColumnClustering().match(g, 0.5)
        assert sorted(result.pairs) == [(0, 1), (1, 0)]

    def test_assignment_ignores_threshold_until_filter(self):
        # a0 takes b0 (0.9); a1's only free option is b1 at 0.2, which
        # the final filter drops.
        g = SimilarityGraph.from_edges(
            2, 2, [(0, 0, 0.9), (1, 0, 0.8), (1, 1, 0.2)]
        )
        result = RowColumnClustering().match(g, 0.5)
        assert result.pairs == [(0, 0)]

    def test_filter_keeps_weight_equal_to_threshold(self):
        g = SimilarityGraph.from_edges(1, 1, [(0, 0, 0.5)])
        result = RowColumnClustering().match(g, 0.5)
        assert result.pairs == [(0, 0)]


class TestBAH:
    def test_improves_over_initial_assignment(self):
        # Initial pairing is (a0,b0), (a1,b1) with tiny weights; the
        # optimum is the anti-diagonal.
        g = SimilarityGraph.from_edges(
            2,
            2,
            [(0, 0, 0.51), (1, 1, 0.52), (0, 1, 0.95), (1, 0, 0.96)],
        )
        result = BestAssignmentHeuristic(
            max_moves=1000, time_limit=5.0, seed=1
        ).match(g, 0.5)
        assert sorted(result.pairs) == [(0, 1), (1, 0)]

    def test_zero_moves_keeps_initial_assignment(self):
        g = SimilarityGraph.from_edges(2, 2, [(0, 0, 0.9), (1, 1, 0.8)])
        result = BestAssignmentHeuristic(
            max_moves=0, time_limit=5.0
        ).match(g, 0.5)
        assert sorted(result.pairs) == [(0, 0), (1, 1)]

    def test_handles_larger_right_side(self):
        g = SimilarityGraph.from_edges(
            1, 3, [(0, 0, 0.2), (0, 2, 0.9)]
        )
        result = BestAssignmentHeuristic(
            max_moves=500, time_limit=5.0, seed=2
        ).match(g, 0.5)
        assert result.pairs == [(0, 2)]

    def test_rejects_bad_configuration(self):
        for moves in (-1, 2.5, 2000.0, True, "10"):
            with pytest.raises(ValueError, match="max_moves"):
                BestAssignmentHeuristic(max_moves=moves)
        # NaN would pass a ``<= 0`` check and switch the deadline off.
        for limit in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="time_limit"):
                BestAssignmentHeuristic(time_limit=limit)
        # inf means no limit; numpy integers are integers.
        bah = BestAssignmentHeuristic(
            max_moves=np.int64(50), time_limit=float("inf")
        )
        assert bah.max_moves == 50 and type(bah.max_moves) is int
        assert bah.time_limit == float("inf")

    def test_seed_controls_randomness(self):
        g = SimilarityGraph.from_edges(
            3, 3, [(i, j, 0.5 + 0.04 * (i + j)) for i in range(3) for j in range(3)]
        )
        a = BestAssignmentHeuristic(max_moves=50, time_limit=5.0, seed=1)
        b = BestAssignmentHeuristic(max_moves=50, time_limit=5.0, seed=1)
        assert a.match(g, 0.4).pairs == b.match(g, 0.4).pairs


class TestKRCAndGSM:
    def test_second_chance_extends_matching(self):
        # a0 and a1 both prefer b0; a1 wins it (0.9 > 0.8).  a0's list
        # is then exhausted... unless it retries and wins b1.
        g = SimilarityGraph.from_edges(
            2, 2, [(0, 0, 0.8), (1, 0, 0.9), (0, 1, 0.7)]
        )
        result = KiralyClustering().match(g, 0.5)
        assert sorted(result.pairs) == [(0, 1), (1, 0)]

    def test_krc_matches_gsm_without_ties(self):
        g = SimilarityGraph.from_edges(
            3,
            3,
            [(0, 0, 0.9), (0, 1, 0.6), (1, 0, 0.7), (1, 1, 0.8), (2, 2, 0.55)],
        )
        krc = KiralyClustering().match(g, 0.5)
        gsm = GaleShapleyMatching().match(g, 0.5)
        assert sorted(krc.pairs) == sorted(gsm.pairs)

    def test_gsm_trade_up(self):
        # b0 accepts a0 first (order), then trades up to a1.
        g = SimilarityGraph.from_edges(
            2, 1, [(0, 0, 0.6), (1, 0, 0.9)]
        )
        result = GaleShapleyMatching().match(g, 0.5)
        assert result.pairs == [(1, 0)]


class TestRSR:
    def test_prefers_heavier_seeds(self):
        g = SimilarityGraph.from_edges(
            2, 2, [(0, 0, 0.9), (1, 1, 0.7)]
        )
        result = RicochetSRClustering().match(g, 0.5)
        assert sorted(result.pairs) == [(0, 0), (1, 1)]

    def test_seed_promotion_cascade(self):
        # Replaying Algorithm 1: seed b0 captures a1 (0.9); later a1
        # becomes a seed itself, captures the unassigned b1 and leaves
        # b0's partition (lines 21-24 of the pseudocode).  The lonely
        # b0 is then re-assigned to its best available neighbour a0,
        # but only as a member of a singleton partition, so the output
        # pair is (a1, b1) — the rippling sacrifices the 0.9 edge, one
        # reason the paper finds RSR "rarely achieves high
        # effectiveness".
        g = SimilarityGraph.from_edges(
            2, 2, [(0, 0, 0.8), (1, 0, 0.9), (1, 1, 0.6)]
        )
        result = RicochetSRClustering().match(g, 0.5)
        result.validate(g)
        assert result.pairs == [(1, 1)]

    def test_isolated_below_threshold(self):
        g = SimilarityGraph.from_edges(2, 2, [(0, 0, 0.2)])
        result = RicochetSRClustering().match(g, 0.5)
        assert result.pairs == []


class TestHungarian:
    def test_exact_on_rectangular(self):
        g = SimilarityGraph.from_edges(
            2, 3, [(0, 0, 0.9), (0, 2, 0.8), (1, 0, 0.85), (1, 1, 0.1)]
        )
        result = HungarianMatching().match(g, 0.5)
        # Optimal: a0-b2 (0.8) + a1-b0 (0.85) = 1.65 > 0.9.
        assert sorted(result.pairs) == [(0, 2), (1, 0)]

    def test_size_guard(self):
        g = SimilarityGraph.from_edges(2, 2, [(0, 0, 0.9)])
        with pytest.raises(ValueError):
            HungarianMatching(max_dense_cells=1).match(g, 0.5)
