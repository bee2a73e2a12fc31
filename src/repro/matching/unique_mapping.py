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

from repro.graph.compiled import CompiledGraph
from repro.matching.base import Matcher, MatchingResult

__all__ = ["UniqueMappingClustering"]


class UniqueMappingClustering(Matcher):
    """UMC per Algorithm 8 of the paper.

    Edges are ordered by decreasing weight with ties broken by
    ascending ``(left, right)`` index, which makes the greedy scan
    deterministic.  That is exactly the compiled graph's global edge
    permutation, so the compiled kernel replaces the per-call mask +
    lexsort with a prefix slice and runs only the greedy scan.
    """

    code = "UMC"
    full_name = "Unique Mapping Clustering"

    def match_compiled(
        self, view: CompiledGraph, threshold: float
    ) -> MatchingResult:
        selection = view.select(threshold, inclusive=False)
        matched_left: set[int] = set()
        matched_right: set[int] = set()
        pairs: list[tuple[int, int]] = []
        for i, j in zip(selection.left.tolist(), selection.right.tolist()):
            if i in matched_left or j in matched_right:
                continue
            matched_left.add(i)
            matched_right.add(j)
            pairs.append((i, j))
        pairs.sort()
        return self._result(pairs, threshold)
