"""Construction and merging of n-gram graphs.

The model of Giannakopoulos et al.: the grams of a value, in order of
appearance, are graph nodes; two grams co-occurring within a window of
``n`` positions are connected by an undirected edge whose weight counts
the co-occurrences.  Per-value graphs are merged into one entity graph
with the *update operator*, implemented here as the running average of
edge weights over the merged graphs (absent edges count as zero), which
is the limit behaviour of JInsect's incremental update.
"""

from __future__ import annotations

from collections import Counter

from scipy import sparse

from repro.textsim.tokenize import character_ngrams, token_ngrams
from repro.vectorspace.profiles import count_matrices

__all__ = [
    "NGramGraph",
    "build_value_graph",
    "merge_graphs",
    "build_entity_graphs",
    "graphs_to_sparse",
    "entity_graph_matrices",
]

# An n-gram graph as a mapping from (sorted) gram pairs to edge weight.
NGramGraph = dict[tuple[str, str], float]


def _grams(text: str, n: int, unit: str) -> list[str]:
    if unit == "char":
        return character_ngrams(text, n)
    if unit == "token":
        return token_ngrams(text, n)
    raise ValueError("unit must be 'char' or 'token'")


def build_value_graph(text: str, n: int, unit: str = "char") -> NGramGraph:
    """The n-gram graph of one attribute value.

    Grams at positions ``i < j`` with ``j - i <= n`` are connected;
    parallel co-occurrences accumulate weight.
    """
    grams = _grams(text, n, unit)
    counts: Counter[tuple[str, str]] = Counter()
    for i, gram_i in enumerate(grams):
        for j in range(i + 1, min(i + n + 1, len(grams))):
            a, b = gram_i, grams[j]
            if b < a:
                a, b = b, a
            counts[(a, b)] += 1
    return {edge: float(count) for edge, count in counts.items()}


def merge_graphs(graphs: list[NGramGraph]) -> NGramGraph:
    """Merge value graphs with the update (running average) operator.

    Every edge weight in the result is the mean of its weights across
    all merged graphs, counting absence as zero.
    """
    if not graphs:
        return {}
    if len(graphs) == 1:
        return dict(graphs[0])
    totals: dict[tuple[str, str], float] = {}
    for graph in graphs:
        for edge, weight in graph.items():
            totals[edge] = totals.get(edge, 0.0) + weight
    count = len(graphs)
    return {edge: weight / count for edge, weight in totals.items()}


def build_entity_graphs(
    value_lists: list[list[str]], n: int, unit: str = "char"
) -> list[NGramGraph]:
    """One merged n-gram graph per entity from its attribute values."""
    return [
        merge_graphs([build_value_graph(value, n, unit) for value in values])
        for values in value_lists
    ]


def graphs_to_sparse(
    graphs_left: list[NGramGraph],
    graphs_right: list[NGramGraph],
) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
    """Flatten two graph collections into aligned sparse edge vectors.

    Every distinct edge of either collection becomes one column, in
    first-occurrence order over the left graphs, then the right ones
    (:func:`repro.vectorspace.profiles.count_matrices`); cell values
    are the edge weights.  This representation makes the four graph
    similarities computable with sparse matrix products.
    """
    return count_matrices(graphs_left, graphs_right, vocabulary={})


def entity_graph_matrices(
    value_lists_left: list[list[str]],
    value_lists_right: list[list[str]],
    n: int,
    unit: str = "char",
) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
    """Sparse entity-graph matrices for two collections in one step.

    Building the per-entity graphs dominates the cost of every graph
    measure; all four measures of one ``(unit, n)`` model consume the
    same pair of matrices, so callers should build them once (see
    :class:`repro.pipeline.engine.ArtifactCache`).
    """
    graphs_left = build_entity_graphs(value_lists_left, n, unit)
    graphs_right = build_entity_graphs(value_lists_right, n, unit)
    return graphs_to_sparse(graphs_left, graphs_right)
