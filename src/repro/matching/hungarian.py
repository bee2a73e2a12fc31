"""Exact maximum-weight bipartite matching (Hungarian / Kuhn-Munkres).

The paper *excludes* the Hungarian algorithm from the evaluation
because of its cubic time complexity, while noting that Gemmell et
al.'s MaxWeight method uses the exact solution that BAH approximates.
We keep an exact solver as a reference oracle: the ablation benchmark
``bench_ablation_exact_vs_greedy`` measures how much matching weight
and F-measure the efficient heuristics sacrifice.

Implementation: ``scipy.optimize.linear_sum_assignment`` on the dense
weight matrix (only edges above the threshold contribute weight, so
maximizing the assignment and dropping zero-weight pairs yields the
maximum-weight matching of the pruned graph).
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

from repro.graph.bipartite import SimilarityGraph
from repro.graph.compiled import CompiledGraph
from repro.matching.base import Matcher, MatchingResult

__all__ = ["HungarianMatching"]

# Guard against accidentally materialising a huge dense matrix.
DEFAULT_MAX_DENSE_CELLS = 30_000_000


class HungarianMatching(Matcher):
    """Exact maximum-weight bipartite matching via scipy.

    Parameters
    ----------
    max_dense_cells:
        Upper bound on ``|V1| * |V2|``; larger inputs raise
        :class:`ValueError` instead of exhausting memory.  The oracle is
        meant for the small ablation datasets, not the full corpus.
    """

    code = "HUN"
    full_name = "Hungarian (exact maximum-weight matching)"

    def __init__(self, max_dense_cells: int = DEFAULT_MAX_DENSE_CELLS) -> None:
        self.max_dense_cells = max_dense_cells

    def match_compiled(
        self, view: CompiledGraph, threshold: float
    ) -> MatchingResult:
        selection = view.select(threshold, inclusive=False)
        # Scatter in ascending *original* edge order so that parallel
        # duplicate edges resolve last-write-wins in source order.
        indices = selection.original_indices()
        graph = view.source
        return self._solve_dense(
            graph, graph.left[indices], graph.right[indices],
            graph.weight[indices], threshold,
        )

    def _solve_dense(
        self,
        graph: SimilarityGraph,
        left: np.ndarray,
        right: np.ndarray,
        weight: np.ndarray,
        threshold: float,
    ) -> MatchingResult:
        if graph.cartesian_size > self.max_dense_cells:
            raise ValueError(
                "graph too large for the dense Hungarian oracle: "
                f"{graph.n_left}x{graph.n_right} cells exceed "
                f"{self.max_dense_cells}"
            )
        if graph.n_left == 0 or graph.n_right == 0 or graph.n_edges == 0:
            return self._result([], threshold)

        matrix = np.zeros((graph.n_left, graph.n_right))
        matrix[left, right] = weight

        rows, cols = linear_sum_assignment(matrix, maximize=True)
        pairs = [
            (int(i), int(j))
            for i, j in zip(rows, cols)
            if matrix[i, j] > 0.0
        ]
        pairs.sort()
        return self._result(pairs, threshold)
