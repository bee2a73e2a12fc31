"""Frozen networkx dirty-ER clusterers: the oracle of the compiled kernels.

The dirty-ER prototype clustered an ``nx.Graph`` per call.  Its four
bodies are kept here verbatim, with the networkx bridge of
:class:`~repro.graph.unipartite.UnipartiteGraph` they run on
(:func:`from_networkx`, :func:`to_networkx`).  :func:`cluster_legacy`
dispatches a :class:`~repro.extensions.dirty_er.DirtyClusterer` to its
body, the way ``DirtyClusterer.cluster_legacy`` used to.  Both paths
select cliques by one canonical rule — maximum cardinality, ties
broken by the lexicographically smallest sorted vertex list — and
GECG breaks gain ties by ascending ``(u, v)`` edge order, so
``tests/extensions`` and ``benchmarks/bench_dirty_er_engine.py`` hold
the compiled kernels to these bodies partition for partition.

networkx is needed by the tests and benchmarks only; ``repro`` never
imports it.
"""

from __future__ import annotations

from typing import Iterable

import networkx as nx

from repro.extensions.dirty_er import DirtyClusterer
from repro.graph.unipartite import UnipartiteGraph

__all__ = [
    "DirtyERGraph",
    "build_graph",
    "cluster_legacy",
    "connected_components_clusters_legacy",
    "extended_maximum_clique_clustering_legacy",
    "from_networkx",
    "global_edge_consistency_gain_legacy",
    "maximum_clique_clustering_legacy",
    "to_networkx",
]

#: A legacy Dirty-ER similarity graph: any undirected weighted
#: nx.Graph whose edge attribute ``weight`` carries the similarity in
#: [0, 1].  The engine-native representation is
#: :class:`~repro.graph.unipartite.UnipartiteGraph`.
DirtyERGraph = nx.Graph


def build_graph(
    n_nodes: int, edges: Iterable[tuple[int, int, float]]
) -> DirtyERGraph:
    """Convenience constructor for a legacy (networkx) Dirty-ER graph."""
    graph = nx.Graph()
    graph.add_nodes_from(range(n_nodes))
    for u, v, weight in edges:
        graph.add_edge(u, v, weight=float(weight))
    return graph


def from_networkx(graph, name: str = "") -> UnipartiteGraph:
    """Convert an ``nx.Graph`` whose nodes are ``0 .. n-1``.

    This is the bridge from the legacy networkx prototype; missing
    ``weight`` attributes default to ``0.0`` as the prototype's
    pruning did.
    """
    nodes = sorted(graph.nodes)
    n = len(nodes)
    if nodes and (nodes[0] != 0 or nodes[-1] != n - 1):
        raise ValueError("networkx nodes must be exactly 0 .. n-1")
    return UnipartiteGraph.from_edges(
        n,
        (
            (a, b, data.get("weight", 0.0))
            for a, b, data in graph.edges(data=True)
        ),
        name=name,
    )


def to_networkx(unipartite: UnipartiteGraph) -> DirtyERGraph:
    """The graph as an ``nx.Graph`` (for the legacy reference path)."""
    graph = nx.Graph()
    graph.add_nodes_from(range(unipartite.n_nodes))
    for a, b, weight in zip(
        unipartite.u.tolist(),
        unipartite.v.tolist(),
        unipartite.weight.tolist(),
    ):
        graph.add_edge(a, b, weight=weight)
    return graph


def _as_networkx(graph) -> DirtyERGraph:
    """Accept either graph representation at the legacy entry points."""
    if isinstance(graph, UnipartiteGraph):
        return to_networkx(graph)
    return graph


def cluster_legacy(
    clusterer: DirtyClusterer, graph, threshold: float
) -> list[set[int]]:
    if clusterer.code == "CC":
        return connected_components_clusters_legacy(graph, threshold)
    if clusterer.code == "MCC":
        return maximum_clique_clustering_legacy(graph, threshold)
    if clusterer.code == "EMCC":
        return extended_maximum_clique_clustering_legacy(
            graph, threshold, clusterer.attachment_fraction
        )
    return global_edge_consistency_gain_legacy(
        graph, threshold, clusterer.max_iterations
    )


def _pruned(graph: DirtyERGraph, threshold: float) -> DirtyERGraph:
    pruned = nx.Graph()
    pruned.add_nodes_from(graph.nodes)
    pruned.add_edges_from(
        (u, v, data)
        for u, v, data in graph.edges(data=True)
        if data.get("weight", 0.0) >= threshold
    )
    return pruned


def _canonical_max_clique_nx(graph: DirtyERGraph) -> list[int]:
    """The canonical maximum clique: max size, then lex-smallest.

    Enumerates the maximal cliques (every maximum clique is maximal)
    and keeps the largest, breaking size ties by the lexicographically
    smallest sorted vertex list — the rule the compiled bitset kernel
    implements identically.
    """
    best_size = 0
    best: list[int] | None = None
    for clique in nx.find_cliques(graph):
        candidate = sorted(clique)
        if len(candidate) > best_size or (
            len(candidate) == best_size
            and best is not None
            and candidate < best
        ):
            best_size, best = len(candidate), candidate
    return best or []


def connected_components_clusters_legacy(
    graph: DirtyERGraph, threshold: float
) -> list[set[int]]:
    """Transitive closure of the pruned graph (clusters of any size)."""
    graph = _as_networkx(graph)
    pruned = _pruned(graph, threshold)
    return [set(component) for component in nx.connected_components(pruned)]


def maximum_clique_clustering_legacy(
    graph: DirtyERGraph, threshold: float
) -> list[set[int]]:
    """MCC: iteratively remove the canonical maximum clique.

    Edge weights are ignored after pruning, per the paper's
    description.  Singleton leftovers become singleton clusters.
    """
    graph = _as_networkx(graph)
    working = _pruned(graph, threshold)
    clusters: list[set[int]] = []
    while working.number_of_edges() > 0:
        clique = _canonical_max_clique_nx(working)
        clusters.append(set(clique))
        working.remove_nodes_from(clique)
    clusters.extend({node} for node in working.nodes)
    return clusters


def extended_maximum_clique_clustering_legacy(
    graph: DirtyERGraph,
    threshold: float,
    attachment_fraction: float = 0.5,
) -> list[set[int]]:
    """EMCC: remove canonical maximal cliques, then enlarge them.

    After removing a clique, outside vertices adjacent (in the pruned
    graph) to at least ``attachment_fraction`` of the clique's members
    join the cluster; candidates are examined in ascending node order
    against the *growing* cluster.
    """
    if not 0.0 < attachment_fraction <= 1.0:
        raise ValueError("attachment_fraction must be in (0, 1]")
    graph = _as_networkx(graph)
    pruned = _pruned(graph, threshold)
    working = pruned.copy()
    clusters: list[set[int]] = []
    while working.number_of_edges() > 0:
        clique = _canonical_max_clique_nx(working)
        cluster = set(clique)
        required = max(1, int(round(attachment_fraction * len(cluster))))
        candidates = set(working.nodes) - cluster
        for node in sorted(candidates):
            incident = sum(
                1 for member in cluster if working.has_edge(node, member)
            )
            if incident >= required:
                cluster.add(node)
        clusters.append(cluster)
        working.remove_nodes_from(cluster)
    clusters.extend({node} for node in working.nodes)
    return clusters


def global_edge_consistency_gain_legacy(
    graph: DirtyERGraph,
    threshold: float,
    max_iterations: int = 100,
) -> list[set[int]]:
    """GECG: flip edge labels to maximize triangle consistency.

    A triangle is *consistent* when its three edges carry the same
    label.  Starting from the thresholded labelling, the single flip
    with the largest positive consistency gain — ties broken by
    ascending ``(u, v)`` edge order — is applied per iteration until
    no flip helps (or the iteration budget runs out); clusters are the
    connected components of match-labelled edges.
    """
    graph = _as_networkx(graph)
    labels: dict[tuple[int, int], bool] = {}
    for u, v, data in graph.edges(data=True):
        edge = (min(u, v), max(u, v))
        labels[edge] = data.get("weight", 0.0) >= threshold

    adjacency: dict[int, set[int]] = {node: set() for node in graph.nodes}
    for u, v in labels:
        adjacency[u].add(v)
        adjacency[v].add(u)

    def edge_label(a: int, b: int) -> bool:
        return labels[(min(a, b), max(a, b))]

    def flip_gain(edge: tuple[int, int]) -> int:
        u, v = edge
        current = labels[edge]
        gain = 0
        for w in adjacency[u] & adjacency[v]:
            other = (edge_label(u, w), edge_label(v, w))
            consistent_now = other[0] == other[1] == current
            consistent_flip = other[0] == other[1] == (not current)
            gain += int(consistent_flip) - int(consistent_now)
        return gain

    for _ in range(max_iterations):
        best_edge, best_gain = None, 0
        for edge in sorted(labels):
            gain = flip_gain(edge)
            if gain > best_gain:
                best_edge, best_gain = edge, gain
        if best_edge is None:
            break
        labels[best_edge] = not labels[best_edge]

    matched = nx.Graph()
    matched.add_nodes_from(graph.nodes)
    matched.add_edges_from(edge for edge, label in labels.items() if label)
    return [set(component) for component in nx.connected_components(matched)]
