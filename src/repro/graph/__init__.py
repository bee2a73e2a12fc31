"""Similarity graph substrate (bipartite and unipartite).

Every experiment in the paper consumes a *bipartite similarity graph*
``G = (V1, V2, E)`` whose edges carry weights in ``[0, 1]``.  This package
provides the graph data structure itself (:class:`SimilarityGraph`),
min-max weight normalization, descriptive statistics, (de)serialization
and the worked example graph of Figure 1.

Because the paper's protocol re-uses each graph across ten algorithms
and twenty thresholds, the package also provides the graph's *compiled*
form (:class:`CompiledGraph`, built once per graph via
:meth:`SimilarityGraph.compiled`): the descending-weight edge
permutation, CSR adjacency for both sides and binary-searchable
threshold prefixes that every matcher kernel shares.  The strict-vs-
inclusive threshold convention lives in one place,
:mod:`repro.graph.selection`.

The Dirty-ER extension consumes the *unipartite* counterpart
(:class:`UnipartiteGraph` / :class:`CompiledUnipartiteGraph`,
:mod:`repro.graph.unipartite`): one collection, canonical ``u < v``
edges, symmetric CSR, and cached inclusive threshold selections for
the clustering algorithms of :mod:`repro.extensions.dirty_er`.

Both kinds are one edge-graph core (:mod:`repro.graph.core`) with
kind-specific names on top: storage, pickling, pruning, compiling,
the descending-weight permutation, the CSR build and the cached
selections are written once, and one file codec
(:mod:`repro.graph.io`) saves and loads either kind.
"""

from repro.graph.bipartite import SimilarityGraph
from repro.graph.compiled import CompiledGraph, EdgeSelection
from repro.graph.examples import figure1_graph
from repro.graph.normalize import min_max_normalize
from repro.graph.selection import prefix_length, selection_mask
from repro.graph.stats import GraphStats, graph_stats
from repro.graph.unipartite import (
    CompiledUnipartiteGraph,
    UniEdgeSelection,
    UnipartiteGraph,
)

__all__ = [
    "SimilarityGraph",
    "UnipartiteGraph",
    "CompiledUnipartiteGraph",
    "UniEdgeSelection",
    "CompiledGraph",
    "EdgeSelection",
    "selection_mask",
    "prefix_length",
    "GraphStats",
    "graph_stats",
    "min_max_normalize",
    "figure1_graph",
]
