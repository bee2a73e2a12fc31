"""Ricochet Sequential Rippling clustering (RSR) — Algorithm 1.

An adaptation of the Ricochet family of graph clustering algorithms
(Wijaya & Bressan) to CCER: partitions hold at most one entity from
each collection.  Nodes are visited in descending order of the average
weight of their adjacent edges; each visited node becomes a candidate
*seed* and tries to capture its best adjacent node, possibly stealing
it from a previous seed.  Seeds that lose their only member are
re-assigned to their nearest available singleton.  Time complexity
``O(n * m)`` in the worst case.
"""

from __future__ import annotations

from repro.graph.compiled import CompiledGraph
from repro.graph.selection import check_threshold
from repro.matching.base import Matcher, MatchingResult

__all__ = ["RicochetSRClustering"]

# Node identifiers inside the algorithm: left node i -> i,
# right node j -> n_left + j, so both sides live in one index space.


class RicochetSRClustering(Matcher):
    """RSR per Algorithm 1 of the paper.

    Implementation notes (kept faithful to the pseudocode):

    * the seed queue orders nodes by descending average adjacent weight
      (ties broken by ascending node id for determinism);
    * a node that is already a *center* is never captured by another
      seed;
    * a capture always leaves the previous center alone, because CCER
      partitions have at most two members; the lonely center is then
      re-assigned to its most similar adjacent node whose partition is
      still below two members;
    * the final output keeps the 2-node partitions as matched pairs.

    The compiled kernel reuses the seed queue, node averages and merged
    adjacency cached on the :class:`CompiledGraph`: all are
    threshold-independent, so a sweep's 20 calls build them once.
    """

    code = "RSR"
    full_name = "Ricochet Sequential Rippling"

    def match_compiled(
        self, view: CompiledGraph, threshold: float
    ) -> MatchingResult:
        check_threshold(threshold)
        n_left = view.n_left
        n_total = n_left + view.n_right
        adjacency = view.merged_adjacency()
        queue = view.ripple_queue()

        sim_with_center = [0.0] * n_total
        center_of = list(range(n_total))
        partition: list[set[int]] = [set() for _ in range(n_total)]
        is_center = [False] * n_total

        for seed in queue:
            to_reassign: list[int] = []
            for neighbour, sim in adjacency[seed]:
                if sim <= threshold:
                    break  # adjacency is sorted by descending weight
                if is_center[neighbour]:
                    continue
                if sim > sim_with_center[neighbour]:
                    old_center = center_of[neighbour]
                    partition[old_center].discard(neighbour)
                    partition[seed].add(neighbour)
                    if old_center != neighbour:
                        to_reassign.append(old_center)
                    sim_with_center[neighbour] = sim
                    center_of[neighbour] = seed
                    break

            if partition[seed]:
                if center_of[seed] != seed:
                    partition[center_of[seed]].discard(seed)
                    to_reassign.append(center_of[seed])
                is_center[seed] = True
                partition[seed].add(seed)
                center_of[seed] = seed
                sim_with_center[seed] = 1.0

            for lonely in to_reassign:
                if len(partition[lonely]) > 1:
                    continue  # regained a member in the meantime
                best_target = lonely
                best_sim = 0.0
                for neighbour, sim in adjacency[lonely]:
                    if sim <= threshold:
                        break
                    if sim > best_sim and len(partition[neighbour]) < 2:
                        best_target = neighbour
                        best_sim = sim
                if best_sim > 0.0 and len(partition[best_target]) < 2:
                    partition[lonely].discard(lonely)
                    partition[best_target].add(lonely)
                    center_of[lonely] = best_target
                    sim_with_center[lonely] = best_sim

        pairs: list[tuple[int, int]] = []
        for cluster in partition:
            if len(cluster) != 2:
                continue
            a, b = sorted(cluster)
            if a < n_left <= b:
                pairs.append((a, b - n_left))
        pairs.sort()
        return self._result(pairs, threshold)
