"""Row-Column Assignment clustering (RCA) — Algorithm 3.

Based on Kurtzberg's Row-Column Scan approximation for the assignment
problem.  Two greedy passes over the similarity graph: the first scans
``V1`` in order, assigning to each node its most similar not-yet-matched
node of ``V2``; the second pass does the symmetric scan over ``V2``.
Each pass accumulates the total weight of its assignment; the heavier
solution wins, and pairs below the similarity threshold are discarded
at the very end (the assignment itself ignores the threshold, as the
assignment problem assumes a complete cost matrix).

Time complexity ``O(|V1| * |V2|)``.
"""

from __future__ import annotations

from repro.graph.compiled import CompiledGraph
from repro.graph.selection import check_threshold
from repro.matching.base import Matcher, MatchingResult

__all__ = ["RowColumnClustering"]

_PASS_CACHE_KEY = "rca_passes"


class RowColumnClustering(Matcher):
    """RCA per Algorithm 3 of the paper.

    The two greedy scans ignore the threshold entirely (the assignment
    problem assumes a complete cost matrix), so the compiled kernel
    computes them once per graph, caches the winning assignment on the
    :class:`CompiledGraph` and reduces every subsequent threshold to
    the final ``w >= t`` filter — a sweep costs one assignment instead
    of twenty.
    """

    code = "RCA"
    full_name = "Row-Column Assignment"

    def match_compiled(
        self, view: CompiledGraph, threshold: float
    ) -> MatchingResult:
        check_threshold(threshold)
        chosen = view.kernel_cache.get(_PASS_CACHE_KEY)
        if chosen is None:
            first_pairs, first_value = self._greedy_pass(
                view.n_left, view.left_adjacency()
            )
            second_pairs_swapped, second_value = self._greedy_pass(
                view.n_right, view.right_adjacency()
            )
            if first_value > second_value:
                chosen = first_pairs
            else:
                chosen = [(i, j, w) for j, i, w in second_pairs_swapped]
            view.kernel_cache[_PASS_CACHE_KEY] = chosen

        pairs = sorted((i, j) for i, j, w in chosen if w >= threshold)
        return self._result(pairs, threshold)

    @staticmethod
    def _greedy_pass(
        n_source: int,
        adjacency: list[list[tuple[int, float]]],
    ) -> tuple[list[tuple[int, int, float]], float]:
        """One Row-Column scan.

        For every source node (in index order) pick its most similar
        currently unassigned target node.  Returns the chosen
        ``(source, target, weight)`` triples and the assignment value
        (sum of chosen weights).
        """
        matched_targets: set[int] = set()
        chosen: list[tuple[int, int, float]] = []
        value = 0.0
        for source in range(n_source):
            for target, weight in adjacency[source]:
                if target not in matched_targets:
                    matched_targets.add(target)
                    chosen.append((source, target, weight))
                    value += weight
                    break
        return chosen, value
