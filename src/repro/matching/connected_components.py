"""Connected Components clustering (CNC) — Algorithm 2 in the paper.

The simplest algorithm: discard all edges below the similarity
threshold, compute the transitive closure (connected components) of the
pruned graph, and keep only the components that contain exactly two
entities, one from each collection.  Time complexity ``O(n + m)``.

The compiled kernel needs no component labelling.  A 2-node component
of a bipartite graph is one selected edge whose two endpoints each
have exactly one distinct neighbour in the selection: any further
neighbour of either endpoint would join the component.  Two
``np.bincount`` calls over the selection's *distinct* edges count
those neighbours.  The distinct edges of a threshold prefix are
themselves a prefix: the first copy of each ``(left, right)`` pair in
the descending-weight permutation is its heaviest, so a prefix holds
some copy of a pair exactly when it holds that one.  The first copies
are marked once per compiled graph (in ``kernel_cache``); on a graph
without parallel edges they are the sorted endpoint arrays themselves.

The paper observes that CNC trades very high precision for low recall:
any node involved in a larger component is discarded entirely.
"""

from __future__ import annotations

import numpy as np

from repro.graph.compiled import CompiledGraph
from repro.matching.base import Matcher, MatchingResult

__all__ = ["ConnectedComponentsClustering"]

_DISTINCT_CACHE_KEY = "cnc_distinct"


class ConnectedComponentsClustering(Matcher):
    """CNC: transitive closure, then keep only valid 2-node partitions.

    Algorithm 2 prunes edges with ``sim < t`` — i.e. it keeps edges with
    weight *greater than or equal to* the threshold, unlike the strict
    comparison used by the other algorithms' pseudocode.  We follow the
    pseudocode literally.

    A kept pair is a selected edge whose endpoints have one distinct
    neighbour each, counted over the first copies of the selected
    pairs: one path for simple graphs and multigraphs, with no
    component labelling.
    """

    code = "CNC"
    full_name = "Connected Components"

    def match_compiled(
        self, view: CompiledGraph, threshold: float
    ) -> MatchingResult:
        selection = view.select(threshold, inclusive=True)
        if not selection.count:
            return self._result([], threshold)

        distinct = view.kernel_cache.get(_DISTINCT_CACHE_KEY)
        if distinct is None:
            distinct = _first_copies(view)
            view.kernel_cache[_DISTINCT_CACHE_KEY] = distinct
        lefts, rights, positions = distinct
        # The selected prefix holds the first copies at positions < count.
        k = int(np.searchsorted(positions, selection.count))
        left, right = lefts[:k], rights[:k]
        left_degree = np.bincount(left)
        # A left node of degree one has its one neighbour here.
        partner = np.empty(len(left_degree), dtype=np.int64)
        partner[left] = right
        alone = np.flatnonzero(left_degree == 1)
        partners = partner[alone]
        kept = np.bincount(right)[partners] == 1
        # Ascending left nodes, one pair each: ascending (left, right).
        pairs = list(zip(alone[kept].tolist(), partners[kept].tolist()))
        return self._result(pairs, threshold)


def _first_copies(
    view: CompiledGraph,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The endpoints and permutation positions of the first copy of
    each ``(left, right)`` pair in the descending-weight permutation."""
    keys = view.left_sorted * np.int64(view.n_right) + view.right_sorted
    _, first = np.unique(keys, return_index=True)
    if len(first) == view.n_edges:  # no parallel edges
        return view.left_sorted, view.right_sorted, np.arange(view.n_edges)
    first.sort()
    return view.left_sorted[first], view.right_sorted[first], first
