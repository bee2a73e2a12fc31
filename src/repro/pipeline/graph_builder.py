"""From scored pairs to a similarity graph.

Follows the paper's protocol: every pair with similarity strictly
above zero becomes an edge (no blocking), and edge weights are min-max
normalized into ``[0, 1]`` regardless of the similarity function that
produced them (Section 5).  :func:`pairs_to_graph` applies that rule
to scored pairs — the corpus engine's positive edges, dense or blocked
candidates alike — through the edge-graph core's builder
(:meth:`~repro.graph.core.EdgeGraph.from_scores`), which the Dirty-ER
:func:`~repro.graph.unipartite.pairs_to_unipartite_graph` shares.
"""

from __future__ import annotations

import numpy as np

from repro.graph.bipartite import SimilarityGraph

__all__ = ["pairs_to_graph"]


def pairs_to_graph(
    n_left: int,
    n_right: int,
    left: np.ndarray,
    right: np.ndarray,
    values: np.ndarray,
    name: str = "",
    normalize: bool = True,
    metadata: dict | None = None,
) -> SimilarityGraph:
    """Build a :class:`SimilarityGraph` from candidate-pair scores.

    Scores at or below zero are dropped, retained weights are clipped
    and (optionally) min-max normalized.  Raw scores equal the dense
    matrix on every candidate cell, but min-max normalization runs
    over the *retained* edges only — pairs pruned by blocking cannot
    contribute a minimum, so normalized weights may legitimately
    differ from the unblocked graph.
    """
    return SimilarityGraph.from_scores(
        (n_left, n_right),
        left,
        right,
        values,
        name=name,
        normalize=normalize,
        metadata=metadata,
    )
