"""Tests for the Dirty ER clustering extensions."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.extensions.dirty_er import (
    DirtyClusterer,
    connected_components_clusters,
    extended_maximum_clique_clustering,
    global_edge_consistency_gain,
    maximum_clique_clustering,
)
from repro.graph.unipartite import UnipartiteGraph

ALL_CLUSTERERS = [
    connected_components_clusters,
    maximum_clique_clustering,
    extended_maximum_clique_clustering,
    global_edge_consistency_gain,
]


def _two_groups():
    """Two well-separated duplicate groups plus an isolated node."""
    edges = [
        (0, 1, 0.9), (1, 2, 0.85), (0, 2, 0.9),      # triangle group
        (3, 4, 0.8),                                  # pair group
        (2, 3, 0.1),                                  # cross noise
    ]
    return UnipartiteGraph.from_edges(6, edges)


@st.composite
def dirty_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    edges = []
    seen = set()
    for _ in range(draw(st.integers(0, 14))):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        if u == v or (min(u, v), max(u, v)) in seen:
            continue
        seen.add((min(u, v), max(u, v)))
        edges.append((u, v, round(draw(st.floats(0.01, 1.0)), 3)))
    return UnipartiteGraph.from_edges(n, edges)


class TestConnectedComponents:
    def test_groups_separated(self):
        clusters = connected_components_clusters(_two_groups(), 0.5)
        assert {0, 1, 2} in clusters
        assert {3, 4} in clusters
        assert {5} in clusters

    def test_threshold_merges(self):
        clusters = connected_components_clusters(_two_groups(), 0.05)
        assert {0, 1, 2, 3, 4} in clusters


class TestMaximumClique:
    def test_extracts_triangle_first(self):
        clusters = maximum_clique_clustering(_two_groups(), 0.5)
        assert {0, 1, 2} in clusters
        assert {3, 4} in clusters

    def test_chain_splits(self):
        # A path a-b-c is not a clique: MCC yields an edge + singleton.
        graph = UnipartiteGraph.from_edges(3, [(0, 1, 0.9), (1, 2, 0.9)])
        clusters = maximum_clique_clustering(graph, 0.5)
        sizes = sorted(len(c) for c in clusters)
        assert sizes == [1, 2]


class TestExtendedMaximumClique:
    def test_attaches_adjacent_node(self):
        # Node 3 touches 2 of 3 triangle members: attached at 0.5.
        graph = UnipartiteGraph.from_edges(
            4,
            [
                (0, 1, 0.9), (1, 2, 0.9), (0, 2, 0.9),
                (3, 0, 0.8), (3, 1, 0.8),
            ],
        )
        clusters = extended_maximum_clique_clustering(graph, 0.5, 0.5)
        assert {0, 1, 2, 3} in clusters

    def test_strict_fraction_blocks_attachment(self):
        graph = UnipartiteGraph.from_edges(
            4,
            [
                (0, 1, 0.9), (1, 2, 0.9), (0, 2, 0.9),
                (3, 0, 0.8),
            ],
        )
        clusters = extended_maximum_clique_clustering(graph, 0.5, 1.0)
        assert {0, 1, 2} in clusters

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            extended_maximum_clique_clustering(_two_groups(), 0.5, 0.0)


class TestGlobalEdgeConsistency:
    def test_consistent_triangle_untouched(self):
        clusters = global_edge_consistency_gain(_two_groups(), 0.5)
        assert {0, 1, 2} in clusters

    def test_flip_completes_triangle(self):
        # Two match edges + one just-below-threshold edge in a
        # triangle: flipping the odd edge increases consistency.
        graph = UnipartiteGraph.from_edges(
            3, [(0, 1, 0.9), (1, 2, 0.9), (0, 2, 0.45)]
        )
        clusters = global_edge_consistency_gain(graph, 0.5)
        assert {0, 1, 2} in clusters


@pytest.mark.parametrize("clusterer", ALL_CLUSTERERS)
@given(graph=dirty_graphs(), threshold=st.sampled_from([0.25, 0.5, 0.75]))
@settings(max_examples=25, deadline=None)
def test_clusters_partition_nodes(clusterer, graph, threshold):
    """Every node appears in exactly one cluster."""
    clusters = clusterer(graph, threshold)
    seen: set[int] = set()
    for cluster in clusters:
        assert cluster, "clusters must be non-empty"
        assert not (cluster & seen), "clusters must be disjoint"
        seen.update(cluster)
    assert seen == set(range(graph.n_nodes))


@pytest.mark.parametrize("clusterer", ALL_CLUSTERERS)
def test_empty_graph(clusterer):
    graph = UnipartiteGraph.from_edges(0, [])
    assert clusterer(graph, 0.5) == []


class TestClustererParameters:
    """``DirtyClusterer`` checks its parameters at construction and the
    kernels check them again, so the batch, incremental and kernel
    entry points reject the same values."""

    @pytest.mark.parametrize("fraction", [0.0, -0.5, 5.0, float("nan")])
    def test_rejects_attachment_fraction(self, fraction):
        with pytest.raises(ValueError, match="attachment_fraction"):
            DirtyClusterer("EMCC", attachment_fraction=fraction)

    @pytest.mark.parametrize("budget", [-3, True, 2.5, "7"])
    def test_rejects_max_iterations(self, budget):
        with pytest.raises(ValueError, match="max_iterations"):
            DirtyClusterer("GECG", max_iterations=budget)

    @pytest.mark.parametrize("budget", [-1, True, 2.5])
    def test_kernel_rejects_max_iterations(self, budget):
        # Unchecked, -1 returned the unflipped partition, True ran one
        # flip and 2.5 raised TypeError from range().
        graph = UnipartiteGraph.from_edges(
            3, [(0, 1, 0.9), (1, 2, 0.9), (0, 2, 0.45)]
        )
        with pytest.raises(ValueError, match="max_iterations"):
            global_edge_consistency_gain(graph, 0.5, max_iterations=budget)

    def test_accepts_numpy_integer_budget(self):
        clusterer = DirtyClusterer("GECG", max_iterations=np.int64(3))
        assert clusterer.max_iterations == 3
        assert type(clusterer.max_iterations) is int

    def test_accepts_boundary_values(self):
        emcc = DirtyClusterer("EMCC", attachment_fraction=1.0)
        gecg = DirtyClusterer("GECG", max_iterations=0)
        assert (emcc.attachment_fraction, gecg.max_iterations) == (1.0, 0)
