"""CNC's and UMC's prefix kernels against their frozen oracles.

CNC counts distinct neighbours over the first copies of the selected
pairs, and UMC scans cached endpoint lists and stops once the smaller
side is full.  Both read one compiled graph across the whole grid, as
a sweep does, and must equal the union-find CNC and the per-call UMC
of ``tests/oracles/matching.py`` at every grid point, on multigraphs
whose parallel copies carry different weights and sit on the grid.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.evaluation.sweep import DEFAULT_THRESHOLD_GRID
from repro.graph import SimilarityGraph
from repro.matching import create_matcher
from tests.oracles.matching import match_legacy

#: Grid thresholds (a weight there sits on CNC's inclusive boundary and
#: just outside UMC's strict one) and weights between them.
WEIGHTS = sorted(
    {*DEFAULT_THRESHOLD_GRID}
    | {round(t - 0.02, 2) for t in DEFAULT_THRESHOLD_GRID}
)


@st.composite
def multigraphs(draw, max_side: int = 7, max_edges: int = 30):
    """Bipartite graphs whose cells are drawn with replacement, so one
    pair may carry several copies of different weights; nodes without
    edges stay isolated."""
    n_left = draw(st.integers(1, max_side))
    n_right = draw(st.integers(1, max_side))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, n_left - 1),
                st.integers(0, n_right - 1),
                st.sampled_from(WEIGHTS),
            ),
            max_size=max_edges,
        )
    )
    return SimilarityGraph.from_edges(n_left, n_right, edges)


def assert_grid_equals_oracle(code: str, graph: SimilarityGraph) -> None:
    matcher = create_matcher(code)
    view = graph.compiled()
    for threshold in DEFAULT_THRESHOLD_GRID:
        expected = match_legacy(matcher, graph, threshold).pairs
        pairs = matcher.match_compiled(view, threshold).pairs
        assert pairs == expected, f"{code} at t={threshold}"


@pytest.mark.parametrize("code", ["CNC", "UMC"])
@given(graph=multigraphs())
@example(  # parallel copies of one pair with different weights
    graph=SimilarityGraph.from_edges(
        2, 2, [(0, 0, 0.3), (0, 0, 0.8), (1, 1, 0.5), (0, 0, 0.1)]
    )
)
@example(  # a copy on a grid threshold, another copy below it
    graph=SimilarityGraph.from_edges(
        2, 3, [(0, 1, 0.35), (0, 1, 0.5), (1, 2, 0.5), (1, 1, 0.45)]
    )
)
@example(  # isolated nodes on both sides
    graph=SimilarityGraph.from_edges(5, 6, [(3, 4, 0.7), (3, 4, 0.2)])
)
@example(  # an empty selection at every grid point
    graph=SimilarityGraph.from_edges(3, 3, [])
)
@settings(max_examples=150, deadline=None)
def test_grid_equals_oracle_on_multigraphs(code, graph):
    assert_grid_equals_oracle(code, graph)


def test_cnc_first_copies_of_a_simple_graph_are_the_sorted_endpoints():
    graph = SimilarityGraph.from_edges(
        2, 2, [(0, 0, 0.9), (1, 1, 0.4), (0, 1, 0.2)]
    )
    view = graph.compiled()
    create_matcher("CNC").match_compiled(view, 0.5)
    lefts, rights, _ = view.kernel_cache["cnc_distinct"]
    assert lefts is view.left_sorted and rights is view.right_sorted


class TestUmcStopsWhenFull:
    def test_smaller_side_fills_before_the_prefix_ends(self):
        # Both left nodes match within the first five of nine selected
        # edges; the four lighter edges are never scanned.
        edges = [
            (i, j, round(0.9 - 0.1 * (3 * i + j), 2))
            for i in range(2)
            for j in range(3)
        ]
        edges += [(0, 2, 0.05), (1, 0, 0.05), (1, 1, 0.05)]
        graph = SimilarityGraph.from_edges(2, 3, edges)
        result = create_matcher("UMC").match(graph, 0.01)
        assert result.pairs == [(0, 0), (1, 1)]
        assert_grid_equals_oracle("UMC", graph)

    def test_smaller_side_never_fills(self):
        # Every edge touches left node 0: one pair at any threshold.
        graph = SimilarityGraph.from_edges(
            3, 4, [(0, j, 0.2 * (j + 1)) for j in range(4)]
        )
        result = create_matcher("UMC").match(graph, 0.1)
        assert result.pairs == [(0, 3)]
        assert_grid_equals_oracle("UMC", graph)
