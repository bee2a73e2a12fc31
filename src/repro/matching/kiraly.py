"""Kiraly's clustering (KRC) — Algorithm 7.

An adaptation of Kiraly's linear-time 3/2-approximation to the maximum
stable marriage problem ("New Algorithm", Kiraly 2013).  Entities of
``V1`` ("men") propose in descending preference (edge weight) order to
entities of ``V2`` ("women"); a woman accepts when she is free or when
she prefers the new proposer.  A man whose preference list runs out
gets exactly one *second chance*: his list is restored and — this is
the approximation trick — women now favour him over an equally
attractive rival who still has his first chance left.  Terminates when
no free man with proposals remains.  Time complexity
``O(n + m log m)``.

The paper reports KRC as the overall top F-measure performer, at the
cost of higher (but stable) runtimes.
"""

from __future__ import annotations

from collections import deque

from repro.graph.compiled import CompiledGraph
from repro.matching.base import Matcher, MatchingResult

__all__ = ["KiralyClustering"]


class KiralyClustering(Matcher):
    """KRC per Algorithm 7 of the paper.

    The compiled kernel reads preferences from the cached full
    adjacency lists, bounded by the per-threshold prefix lengths of
    the edge selection (each node's above-threshold neighbours are a
    prefix of its descending-weight list) — no per-call list
    filtering; the proposal loop is unchanged.
    """

    code = "KRC"
    full_name = "Kiraly's Clustering"

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
        next_choice = [0] * n_left  # cursor into each preference list
        last_chance = [False] * n_left
        fiance: dict[int, int] = {}  # woman -> engaged man
        engagement_weight: dict[int, float] = {}  # woman -> edge weight

        free_men: deque[int] = deque(range(n_left))
        while free_men:
            man = free_men.popleft()
            prefs = preferences[man]
            if next_choice[man] < limits[man]:
                woman, weight = prefs[next_choice[man]]
                next_choice[man] += 1
                current = fiance.get(woman)
                if current is None:
                    fiance[woman] = man
                    engagement_weight[woman] = weight
                elif self._accepts_proposal(
                    weight,
                    engagement_weight[woman],
                    last_chance[man],
                    last_chance[current],
                ):
                    fiance[woman] = man
                    engagement_weight[woman] = weight
                    free_men.append(current)  # the old fiance is free
                else:
                    free_men.append(man)  # rejected: try next preference
            elif not last_chance[man]:
                # Second chance: restore the preference list once.
                last_chance[man] = True
                next_choice[man] = 0
                if limits[man]:
                    free_men.append(man)
            # else: the man stays unmatched for good.

        pairs = sorted((man, woman) for woman, man in fiance.items())
        return self._result(pairs, threshold)

    @staticmethod
    def _accepts_proposal(
        new_weight: float,
        current_weight: float,
        new_last_chance: bool,
        current_last_chance: bool,
    ) -> bool:
        """Kiraly's acceptance rule adapted to weighted preferences.

        A woman trades up for a strictly better edge weight; on equal
        weight she favours a proposer on his second chance over a
        fiance who still has his first chance left (this is what lifts
        the approximation guarantee from 2 to 3/2 in Kiraly's
        analysis).
        """
        if new_weight > current_weight:
            return True
        if new_weight == current_weight:
            return new_last_chance and not current_last_chance
        return False
