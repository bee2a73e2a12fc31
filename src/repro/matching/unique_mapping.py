"""Unique Mapping clustering (UMC) — Algorithm 8.

Sort all edges above the threshold by decreasing weight and greedily
match the top-weighted pair whose entities are both still free.  This
is the direct expression of CCER's unique-mapping constraint, and is
equivalent to FAMER's CLIP clustering restricted to two sources.  Time
complexity ``O(m log m)`` for the sort.

UMC is the paper's most balanced algorithm (smallest precision/recall
gap) and, together with KRC, the top F-measure performer.
"""

from __future__ import annotations

from itertools import islice

from repro.graph.compiled import CompiledGraph
from repro.matching.base import Matcher, MatchingResult

__all__ = ["UniqueMappingClustering"]

_LISTS_CACHE_KEY = "umc_lists"


class UniqueMappingClustering(Matcher):
    """UMC per Algorithm 8 of the paper.

    Edges are ordered by decreasing weight with ties broken by
    ascending ``(left, right)`` index, which makes the greedy scan
    deterministic.  That is exactly the compiled graph's global edge
    permutation, so the compiled kernel replaces the per-call mask +
    lexsort with a prefix slice and runs only the greedy scan.  The
    sorted endpoints are kept as Python lists in ``kernel_cache``
    (threshold-independent, built once per graph), and the scan reads
    the first ``selection.count`` of them.  It stops once the smaller
    side is full: after ``min(n_left, n_right)`` pairs no edge has
    both endpoints free.
    """

    code = "UMC"
    full_name = "Unique Mapping Clustering"

    def match_compiled(
        self, view: CompiledGraph, threshold: float
    ) -> MatchingResult:
        selection = view.select(threshold, inclusive=False)
        lists = view.kernel_cache.get(_LISTS_CACHE_KEY)
        if lists is None:
            lists = view.kernel_cache[_LISTS_CACHE_KEY] = (
                view.left_sorted.tolist(),
                view.right_sorted.tolist(),
            )
        lefts, rights = lists
        capacity = min(view.n_left, view.n_right)
        free_left = [True] * view.n_left
        free_right = [True] * view.n_right
        pairs: list[tuple[int, int]] = []
        count = selection.count
        for i, j in zip(islice(lefts, count), islice(rights, count)):
            if free_left[i] and free_right[j]:
                free_left[i] = free_right[j] = False
                pairs.append((i, j))
                if len(pairs) == capacity:
                    break
        pairs.sort()
        return self._result(pairs, threshold)
