"""Edge-weight normalization.

The paper applies min-max normalization to the edge weights of *all*
similarity graphs "regardless of the similarity function that produced
them, to ensure that they are restricted to [0, 1]" (Section 5).
:func:`min_max_normalize_array` is the one formula: the edge-graph
core's scored-pairs builder
(:meth:`~repro.graph.core.EdgeGraph.from_scores`) applies it while it
builds a graph, and :func:`min_max_normalize` re-weights a graph of
either kind that already exists.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.graph.core import EdgeGraph

__all__ = ["min_max_normalize", "min_max_normalize_array"]


def min_max_normalize_array(values: np.ndarray) -> np.ndarray:
    """Min-max normalize an array into ``[0, 1]``.

    A constant array maps to all ones (any constant non-zero similarity
    carries no ordering information, and mapping to 1 preserves the
    paper's convention that retained edges have similarity above 0).
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return values.copy()
    low = float(values.min())
    high = float(values.max())
    if high == low:
        return np.ones_like(values)
    return (values - low) / (high - low)


def min_max_normalize(graph: EdgeGraph) -> EdgeGraph:
    """Return a copy of ``graph`` (either kind) with min-max normalized
    weights."""
    return graph.with_edges(
        *graph.ends(), min_max_normalize_array(graph.weight)
    )
