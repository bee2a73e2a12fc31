"""Unipartite (Dirty-ER) graph substrate tests.

Covers the :class:`UnipartiteGraph` data structure, its compiled form
(one descending edge sort, symmetric CSR, O(log m) inclusive threshold
selections routed through :mod:`repro.graph.selection`), the self-join
pairs builder and the npz (de)serialization.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.graph.io import load_unipartite_graph, save_unipartite_graph
from repro.graph.unipartite import (
    UnipartiteGraph,
    pairs_to_unipartite_graph,
)
from tests.oracles.dirty_er import from_networkx, to_networkx


@pytest.fixture
def small():
    return UnipartiteGraph.from_edges(
        6,
        [
            (0, 1, 0.9),
            (2, 1, 0.85),  # canonicalized to (1, 2)
            (0, 2, 0.9),
            (3, 4, 0.8),
            (2, 3, 0.1),
        ],
        name="small",
    )


class TestConstruction:
    def test_canonical_orientation(self, small):
        assert (small.u < small.v).all()
        assert small.n_edges == 5

    def test_last_write_wins_like_networkx(self):
        graph = UnipartiteGraph.from_edges(
            3, [(0, 1, 0.2), (1, 0, 0.7)]
        )
        assert graph.n_edges == 1
        assert graph.weight[0] == 0.7

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self loop"):
            UnipartiteGraph.from_edges(2, [(1, 1, 0.5)])

    def test_rejects_non_canonical_arrays(self):
        with pytest.raises(ValueError, match="canonical"):
            UnipartiteGraph(3, [2], [1], [0.5])

    def test_rejects_duplicate_edges(self):
        with pytest.raises(ValueError, match="duplicate"):
            UnipartiteGraph(3, [0, 0], [1, 1], [0.5, 0.6])

    def test_rejects_out_of_range_weight(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            UnipartiteGraph(3, [0], [1], [1.5])

    def test_density(self, small):
        assert small.density == pytest.approx(5 / 15)

    def test_networkx_roundtrip(self, small):
        back = from_networkx(to_networkx(small))
        assert back.n_nodes == small.n_nodes
        assert sorted(back.edges()) == sorted(small.edges())

    def test_from_networkx_requires_dense_int_nodes(self):
        import networkx as nx

        graph = nx.Graph()
        graph.add_edge(3, 7, weight=0.5)
        with pytest.raises(ValueError, match="0 .. n-1"):
            from_networkx(graph)

    def test_pickle_drops_compiled(self, small):
        small.compiled()
        clone = pickle.loads(pickle.dumps(small))
        assert clone._compiled is None
        assert sorted(clone.edges()) == sorted(small.edges())


class TestCompiled:
    def test_descending_weight_with_ascending_ties(self, small):
        compiled = small.compiled()
        weights = compiled.weight_sorted
        assert (np.diff(weights) <= 0).all()
        # (0, 1) and (0, 2) tie at 0.9; ascending (u, v) breaks it.
        assert (int(compiled.u_sorted[0]), int(compiled.v_sorted[0])) == (0, 1)
        assert (int(compiled.u_sorted[1]), int(compiled.v_sorted[1])) == (0, 2)

    def test_compiled_is_cached(self, small):
        assert small.compiled() is small.compiled()
        small.release_compiled()
        assert small._compiled is None

    def test_symmetric_csr(self, small):
        compiled = small.compiled()
        assert compiled.indptr[-1] == 2 * small.n_edges
        # Node 2's run: neighbours 0 (0.9), 1 (0.85), 3 (0.1).
        start, stop = compiled.indptr[2], compiled.indptr[3]
        assert compiled.neighbors[start:stop].tolist() == [0, 1, 3]
        assert compiled.neighbor_weights[start:stop].tolist() == [
            0.9, 0.85, 0.1,
        ]

    @pytest.mark.parametrize("threshold", [0.0, 0.1, 0.5, 0.85, 0.9, 1.0])
    def test_selection_matches_prune(self, small, threshold):
        selection = small.compiled().select(threshold, inclusive=True)
        pruned = small.prune(threshold, inclusive=True)
        assert selection.count == pruned.n_edges
        assert sorted(zip(selection.u, selection.v)) == sorted(
            zip(pruned.u, pruned.v)
        )

    def test_selection_cached_per_threshold(self, small):
        compiled = small.compiled()
        assert compiled.select(0.5) is compiled.select(0.5)
        assert compiled.select(0.5) is not compiled.select(0.5, False)

    def test_adjacency_bitsets(self, small):
        selection = small.compiled().select(0.5, inclusive=True)
        bits = selection.adjacency_bitsets()
        assert bits[0] == (1 << 1) | (1 << 2)
        assert bits[3] == (1 << 4)  # the 0.1 edge (2, 3) is below 0.5
        assert bits[5] == 0

    def test_component_labels(self, small):
        selection = small.compiled().select(0.5, inclusive=True)
        labels = selection.component_labels()
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] == labels[4]
        assert len({labels[0], labels[3], labels[5]}) == 3

    def test_empty_graph(self):
        graph = UnipartiteGraph.from_edges(4, [])
        selection = graph.compiled().select(0.5)
        assert selection.count == 0
        assert selection.component_labels().tolist() == [0, 1, 2, 3]


def _self_join_pairs(matrix, **kwargs):
    """Every cell of a square self-join matrix as row-major pairs —
    what the dense self-join corpus hands the builder."""
    n = matrix.shape[0]
    u, v = np.divmod(np.arange(n * n), n)
    return pairs_to_unipartite_graph(n, u, v, matrix.ravel(), **kwargs)


class TestMatrixBuilder:
    def test_strict_upper_triangle(self):
        matrix = np.array(
            [
                [1.0, 0.8, 0.0],
                [0.7, 1.0, 0.4],
                [0.2, 0.0, 1.0],
            ]
        )
        graph = _self_join_pairs(matrix, normalize=False)
        # Only (0,1)=0.8 and (1,2)=0.4 — diagonal and lower dropped.
        assert sorted(zip(graph.u, graph.v)) == [(0, 1), (1, 2)]
        assert sorted(graph.weight.tolist()) == [0.4, 0.8]

    def test_min_max_normalization(self):
        matrix = np.zeros((3, 3))
        matrix[0, 1], matrix[0, 2], matrix[1, 2] = 0.2, 0.6, 0.4
        graph = _self_join_pairs(matrix)
        assert sorted(graph.weight.tolist()) == pytest.approx(
            [0.0, 0.5, 1.0]
        )

    def test_metadata_attached(self):
        graph = _self_join_pairs(
            np.zeros((2, 2)), metadata={"dataset": "d1"}
        )
        assert graph.metadata == {"dataset": "d1"}


class TestIo:
    def test_roundtrip(self, small, tmp_path):
        small.metadata = {"dataset": "d1", "function": "f"}
        path = tmp_path / "graph.npz"
        save_unipartite_graph(small, path)
        loaded = load_unipartite_graph(path)
        assert loaded.n_nodes == small.n_nodes
        assert loaded.name == small.name
        assert loaded.metadata == small.metadata
        assert np.array_equal(loaded.u, small.u)
        assert np.array_equal(loaded.v, small.v)
        assert np.array_equal(loaded.weight, small.weight)

    def test_rejects_bipartite_file(self, tmp_path):
        from repro.graph.bipartite import SimilarityGraph
        from repro.graph.io import save_graph

        path = tmp_path / "bipartite.npz"
        save_graph(
            SimilarityGraph.from_edges(2, 2, [(0, 1, 0.5)]), path
        )
        with pytest.raises(ValueError, match="unipartite"):
            load_unipartite_graph(path)
