"""Connected Components clustering (CNC) — Algorithm 2 in the paper.

The simplest algorithm: discard all edges below the similarity
threshold, compute the transitive closure (connected components) of the
pruned graph, and keep only the components that contain exactly two
entities, one from each collection.  Time complexity ``O(n + m)``.

The compiled kernel takes the inclusive threshold prefix of the
compiled edge permutation and labels components with
:func:`scipy.sparse.csgraph.connected_components` (C speed).  A 2-node
component in a bipartite graph is necessarily one left node joined to
one right node, so each surviving component is one pair.

The paper observes that CNC trades very high precision for low recall:
any node involved in a larger component is discarded entirely.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from repro.graph.compiled import CompiledGraph
from repro.matching.base import Matcher, MatchingResult

__all__ = ["ConnectedComponentsClustering"]


class ConnectedComponentsClustering(Matcher):
    """CNC: transitive closure, then keep only valid 2-node partitions.

    Algorithm 2 prunes edges with ``sim < t`` — i.e. it keeps edges with
    weight *greater than or equal to* the threshold, unlike the strict
    comparison used by the other algorithms' pseudocode.  We follow the
    pseudocode literally.
    """

    code = "CNC"
    full_name = "Connected Components"

    def match_compiled(
        self, view: CompiledGraph, threshold: float
    ) -> MatchingResult:
        selection = view.select(threshold, inclusive=True)
        k = selection.count
        if k == 0:
            return self._result([], threshold)

        n_left = view.n_left
        n_total = n_left + view.n_right
        left = selection.left
        right = selection.right
        adjacency = sp.coo_matrix(
            (np.ones(k, dtype=np.int8), (left, n_left + right)),
            shape=(n_total, n_total),
        )
        _, labels = connected_components(adjacency, directed=False)
        sizes = np.bincount(labels)
        keep = sizes[labels[left]] == 2

        # Each surviving component is one (left, right) pair; duplicate
        # parallel edges collapse through the unique sorted keys, which
        # also yields the pairs in ascending (left, right) order.
        keys = np.unique(left[keep] * np.int64(view.n_right) + right[keep])
        stride = np.int64(view.n_right)
        pairs = list(
            zip((keys // stride).tolist(), (keys % stride).tolist())
        )
        return self._result(pairs, threshold)
