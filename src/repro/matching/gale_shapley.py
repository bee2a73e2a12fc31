"""Classic Gale-Shapley stable marriage matching (reference baseline).

KRC (Kiraly's clustering) is a 3/2-approximation to the *maximum*
stable marriage; the classic deferred-acceptance algorithm of Gale and
Shapley computes a stable (man-optimal) matching without the
second-chance mechanism.  Comparing the two isolates the contribution
of Kiraly's extension — one of the design choices DESIGN.md flags for
ablation.
"""

from __future__ import annotations

from collections import deque

from repro.graph.compiled import CompiledGraph
from repro.matching.base import Matcher, MatchingResult

__all__ = ["GaleShapleyMatching"]


class GaleShapleyMatching(Matcher):
    """Deferred acceptance on weighted preference lists.

    Men (``V1``) propose in descending edge-weight order, restricted to
    edges above the threshold; women (``V2``) accept when free and
    trade up only for strictly heavier edges.  The compiled kernel
    reads preferences from the cached full adjacency lists, bounded by
    the per-threshold prefix lengths of the edge selection; the
    deferred-acceptance loop is unchanged.
    """

    code = "GSM"
    full_name = "Gale-Shapley Stable Marriage"

    def match_compiled(
        self, view: CompiledGraph, threshold: float
    ) -> MatchingResult:
        selection = view.select(threshold, inclusive=False)
        return self._propose(
            view.n_left,
            view.left_adjacency(),
            selection.left_counts(),
            threshold,
        )

    def _propose(
        self,
        n_left: int,
        preferences: list[list[tuple[int, float]]],
        limits: list[int],
        threshold: float,
    ) -> MatchingResult:
        next_choice = [0] * n_left
        fiance: dict[int, int] = {}
        engagement_weight: dict[int, float] = {}

        free_men: deque[int] = deque(range(n_left))
        while free_men:
            man = free_men.popleft()
            prefs = preferences[man]
            if next_choice[man] >= limits[man]:
                continue  # exhausted: stays single
            woman, weight = prefs[next_choice[man]]
            next_choice[man] += 1
            current = fiance.get(woman)
            if current is None:
                fiance[woman] = man
                engagement_weight[woman] = weight
            elif weight > engagement_weight[woman]:
                fiance[woman] = man
                engagement_weight[woman] = weight
                free_men.append(current)
            else:
                free_men.append(man)

        pairs = sorted((man, woman) for woman, man in fiance.items())
        return self._result(pairs, threshold)
