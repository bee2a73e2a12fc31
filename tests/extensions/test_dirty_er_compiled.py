"""Differential and property tests of the compiled dirty-ER engine.

The compiled kernels (csgraph components, bitset clique growth,
vectorized triangle-consistency gain) must produce **identical
partitions** to the frozen networkx bodies of
``tests/oracles/dirty_er.py`` on random
unipartite graphs — the engine-level counterpart of the bipartite
``match_compiled`` differential suite — plus the clustering-specific
invariants: every output is a partition of the node set, and connected
components refine monotonically as the threshold rises.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.extensions.dirty_er import (
    DIRTY_ALGORITHM_CODES,
    create_clusterer,
)
from repro.graph.unipartite import UnipartiteGraph
from tests.oracles.dirty_er import cluster_legacy

THRESHOLDS = (0.0, 0.25, 0.5, 0.75, 1.0)


@st.composite
def unipartite_graphs(draw, max_nodes: int = 12, max_edges: int = 30):
    """Random unipartite similarity graphs with tie-heavy weights."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    seen: set[tuple[int, int]] = set()
    edges = []
    for _ in range(draw(st.integers(0, max_edges))):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in seen:
            continue
        seen.add(key)
        # 2-decimal weights collide with each other and the grid.
        edges.append((*key, round(draw(st.floats(0.01, 1.0)), 2)))
    return UnipartiteGraph.from_edges(n, edges)


def canonical(clusters) -> list[tuple[int, ...]]:
    return sorted(tuple(sorted(cluster)) for cluster in clusters)


@pytest.mark.parametrize("code", DIRTY_ALGORITHM_CODES)
@given(graph=unipartite_graphs(), threshold=st.sampled_from(THRESHOLDS))
@settings(max_examples=40, deadline=None)
def test_compiled_equals_legacy(code, graph, threshold):
    """Partition-for-partition equality against the networkx oracle."""
    clusterer = create_clusterer(code)
    compiled = canonical(clusterer.cluster(graph, threshold))
    legacy = canonical(cluster_legacy(clusterer, graph, threshold))
    assert compiled == legacy


@pytest.mark.parametrize("code", DIRTY_ALGORITHM_CODES)
@given(graph=unipartite_graphs(), threshold=st.sampled_from(THRESHOLDS))
@settings(max_examples=40, deadline=None)
def test_clusters_form_a_partition(code, graph, threshold):
    """Every node appears in exactly one non-empty cluster."""
    clusters = create_clusterer(code).cluster(graph, threshold)
    seen: set[int] = set()
    for cluster in clusters:
        assert cluster, "clusters must be non-empty"
        assert not (cluster & seen), "clusters must be disjoint"
        seen.update(cluster)
    assert seen == set(range(graph.n_nodes))


@given(graph=unipartite_graphs())
@settings(max_examples=40, deadline=None)
def test_connected_components_threshold_monotonicity(graph):
    """Raising the threshold refines the CC partition.

    Edges only leave the selection as ``t`` grows, so every component
    at the higher threshold must be a subset of one component at the
    lower threshold.
    """
    clusterer = create_clusterer("CC")
    partitions = [
        clusterer.cluster(graph, threshold) for threshold in THRESHOLDS
    ]
    for coarse, fine in zip(partitions, partitions[1:]):
        containers = {}
        for index, cluster in enumerate(coarse):
            for node in cluster:
                containers[node] = index
        for cluster in fine:
            owners = {containers[node] for node in cluster}
            assert len(owners) == 1, (
                "higher-threshold component spans several "
                "lower-threshold components"
            )


@given(graph=unipartite_graphs(), threshold=st.sampled_from(THRESHOLDS))
@settings(max_examples=25, deadline=None)
def test_sweep_reuses_one_compiled_graph(graph, threshold):
    """Public entry points and compiled kernels agree through the
    per-graph caches (selections, bitsets, GECG triangles)."""
    compiled = graph.compiled()
    for code in DIRTY_ALGORITHM_CODES:
        clusterer = create_clusterer(code)
        first = canonical(clusterer.cluster_compiled(compiled, threshold))
        again = canonical(clusterer.cluster_compiled(compiled, threshold))
        assert first == again


class TestDeterminismCanon:
    def test_mcc_tie_break_is_lexicographic(self):
        # Two disjoint maximum cliques: {0,1,2} and {3,4,5}.  The
        # canonical rule extracts the lexicographically smaller first,
        # and both always land as clusters.
        edges = [
            (0, 1, 0.9), (0, 2, 0.9), (1, 2, 0.9),
            (3, 4, 0.9), (3, 5, 0.9), (4, 5, 0.9),
        ]
        graph = UnipartiteGraph.from_edges(6, edges)
        clusterer = create_clusterer("MCC")
        assert canonical(clusterer.cluster(graph, 0.5)) == [
            (0, 1, 2), (3, 4, 5),
        ]
        assert canonical(cluster_legacy(clusterer, graph, 0.5)) == [
            (0, 1, 2), (3, 4, 5),
        ]

    def test_gecg_iteration_budget_respected(self):
        graph = UnipartiteGraph.from_edges(
            3, [(0, 1, 0.9), (1, 2, 0.9), (0, 2, 0.45)]
        )
        clusterer = create_clusterer("GECG", max_iterations=0)
        # Budget 0: the initial labelling stands; (0, 2) stays split.
        clusters = canonical(clusterer.cluster(graph, 0.5))
        assert clusters == [(0, 1, 2)]  # CC of the two matched edges
        legacy = canonical(cluster_legacy(clusterer, graph, 0.5))
        assert clusters == legacy

    def test_emcc_attachment_matches_legacy_on_growing_cluster(self):
        # Node 4 only reaches the required fraction after node 3 has
        # been attached — the sequential growing-cluster semantics.
        edges = [
            (0, 1, 0.9), (0, 2, 0.9), (1, 2, 0.9),
            (3, 0, 0.8), (3, 1, 0.8),
            (4, 3, 0.8), (4, 2, 0.8),
        ]
        graph = UnipartiteGraph.from_edges(5, edges)
        clusterer = create_clusterer("EMCC", attachment_fraction=0.5)
        compiled = canonical(clusterer.cluster(graph, 0.5))
        legacy = canonical(cluster_legacy(clusterer, graph, 0.5))
        assert compiled == legacy

    def test_cluster_level_scores_match_scalar_path(self):
        from repro.evaluation.metrics import (
            GroundTruthIndex,
            evaluate_clusters,
        )

        rng = np.random.default_rng(5)
        clusters = []
        node = 0
        for _ in range(6):
            size = int(rng.integers(1, 5))
            clusters.append(set(range(node, node + size)))
            node += size
        truth = {(0, 1), (0, 2), (5, 6), (90, 91)}
        index = GroundTruthIndex(truth)
        assert index.score_clusters(clusters) == evaluate_clusters(
            clusters, truth
        )
