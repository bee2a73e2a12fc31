"""Frozen pre-compiled matcher bodies: the oracle of the compiled kernels.

Before the compiled-graph engine every matcher masked, copied and
re-sorted the edge arrays of its :class:`SimilarityGraph` on each
call.  Those bodies are kept here verbatim, each a function of the
matcher instance (the former ``self``) and the graph.
:func:`match_legacy` dispatches to the body of the matcher's class,
the way ``Matcher.match_legacy`` used to be overridden, and falls back
to ``match`` for matchers without one.  The differential tests in
``tests/matching`` and ``benchmarks/bench_matching_sweep.py`` hold the
compiled kernels to these bodies bit for bit.
"""

from __future__ import annotations

import time

import numpy as np

from repro.graph.bipartite import SimilarityGraph
from repro.matching import (
    BestAssignmentHeuristic,
    BestMatchClustering,
    ConnectedComponentsClustering,
    ExactClustering,
    GaleShapleyMatching,
    HungarianMatching,
    KiralyClustering,
    RicochetSRClustering,
    RowColumnClustering,
    UniqueMappingClustering,
)
from repro.matching.base import Matcher, MatchingResult

__all__ = ["UnionFind", "match_legacy"]


def match_legacy(
    matcher: Matcher, graph: SimilarityGraph, threshold: float
) -> MatchingResult:
    """The pre-compiled reference implementation, kept verbatim.

    Used by the differential test-suite and by
    ``benchmarks/bench_matching_sweep.py`` as the baseline whose
    output the compiled kernels must reproduce bit for bit.
    Matchers without a dedicated legacy body fall back to
    :meth:`~repro.matching.base.Matcher.match`.
    """
    for cls in type(matcher).__mro__:
        body = _BODIES.get(cls)
        if body is not None:
            return body(matcher, graph, threshold)
    return matcher.match(graph, threshold)


class UnionFind:
    """Array-based disjoint-set forest with union by size.

    Nodes are dense integers ``0 .. n-1``.  Besides the parent pointers
    it tracks per-root component size, which CNC needs to reject
    components larger than two nodes without a second pass.
    """

    __slots__ = ("parent", "size")

    def __init__(self, n: int) -> None:
        self.parent = np.arange(n, dtype=np.int64)
        self.size = np.ones(n, dtype=np.int64)

    def find(self, x: int) -> int:
        """Return the root of ``x`` with path halving."""
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return int(x)

    def union(self, a: int, b: int) -> int:
        """Merge the components of ``a`` and ``b``; return the new root."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return ra

    def component_size(self, x: int) -> int:
        """Size of the component containing ``x``."""
        return int(self.size[self.find(x)])


def _cnc(
    matcher: ConnectedComponentsClustering,
    graph: SimilarityGraph,
    threshold: float,
) -> MatchingResult:
    mask = graph.weight >= threshold
    left = graph.left[mask]
    right = graph.right[mask]

    n_total = graph.n_left + graph.n_right
    forest = UnionFind(n_total)
    for i, j in zip(left, right):
        forest.union(int(i), int(graph.n_left + j))

    pairs: list[tuple[int, int]] = []
    # A valid partition has exactly one left and one right node;
    # in a bipartite graph a 2-node component is necessarily one
    # edge, hence cross-collection.  Iterate edges and emit each
    # 2-node component exactly once (via its left member).
    emitted: set[int] = set()
    for i, j in zip(left, right):
        i = int(i)
        if i in emitted:
            continue
        if forest.component_size(i) == 2:
            pairs.append((i, int(j)))
            emitted.add(i)
    pairs.sort()
    return matcher._result(pairs, threshold)


def _rsr(
    matcher: RicochetSRClustering,
    graph: SimilarityGraph,
    threshold: float,
) -> MatchingResult:
    n_left = graph.n_left
    n_total = n_left + graph.n_right

    adjacency = _merged_adjacency(graph)

    left_avg, right_avg = graph.average_node_weights()
    averages = list(left_avg) + list(right_avg)
    # Seeds in descending average weight; ascending id on ties.
    queue = sorted(range(n_total), key=lambda v: (-averages[v], v))

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
    return matcher._result(pairs, threshold)


def _merged_adjacency(
    graph: SimilarityGraph,
) -> list[list[tuple[int, float]]]:
    """Adjacency over the merged id space, sorted by desc. weight."""
    n_left = graph.n_left
    left_adj = graph.left_adjacency()
    right_adj = graph.right_adjacency()
    merged: list[list[tuple[int, float]]] = []
    for neighbours in left_adj:
        merged.append([(n_left + j, w) for j, w in neighbours])
    for neighbours in right_adj:
        merged.append(list(neighbours))
    return merged


def _rca(
    matcher: RowColumnClustering,
    graph: SimilarityGraph,
    threshold: float,
) -> MatchingResult:
    first_pairs, first_value = matcher._greedy_pass(
        graph.n_left, graph.left_adjacency()
    )
    second_pairs_swapped, second_value = matcher._greedy_pass(
        graph.n_right, graph.right_adjacency()
    )

    if first_value > second_value:
        chosen = first_pairs
    else:
        chosen = [(i, j, w) for j, i, w in second_pairs_swapped]

    pairs = sorted((i, j) for i, j, w in chosen if w >= threshold)
    return matcher._result(pairs, threshold)


def _bah(
    matcher: BestAssignmentHeuristic,
    graph: SimilarityGraph,
    threshold: float,
) -> MatchingResult:
    # The pseudocode assumes |V1| >= |V2|: swaps happen on the
    # larger side.  Work on the swapped graph when needed and flip
    # the pairs back at the end.
    flipped = graph.n_left < graph.n_right
    working = graph.swap_sides() if flipped else graph

    pairs = _search(matcher, working, threshold)
    if flipped:
        pairs = [(j, i) for i, j in pairs]
    pairs.sort()
    return matcher._result(pairs, threshold)


def _search(
    matcher: BestAssignmentHeuristic,
    graph: SimilarityGraph,
    threshold: float,
) -> list[tuple[int, int]]:
    n_large = graph.n_left
    n_small = graph.n_right
    if n_large == 0 or n_small == 0:
        return []

    # d(v1, v2): edge weight if above the threshold, else 0.
    contribution: dict[tuple[int, int], float] = {}
    for i, j, w in zip(graph.left, graph.right, graph.weight):
        if w > threshold:
            key = (int(i), int(j))
            if w > contribution.get(key, 0.0):
                contribution[key] = float(w)

    # partner[i] = the small-side entity currently paired with the
    # large-side entity i, or -1.  Initial assignment pairs the
    # first |V2| large entities with the small entities in order.
    partner = np.full(n_large, -1, dtype=np.int64)
    partner[:n_small] = np.arange(n_small)

    def gain(i: int, j: int) -> float:
        return contribution.get((i, j), 0.0)

    rng = np.random.default_rng(matcher.seed)
    deadline = time.perf_counter() + matcher.time_limit
    moves = 0
    check_every = 256  # amortise the clock syscall
    while moves < matcher.max_moves:
        moves += 1
        if moves % check_every == 0 and time.perf_counter() >= deadline:
            break
        i = int(rng.integers(n_large))
        j = int(rng.integers(n_large))
        if i == j:
            continue
        pi, pj = int(partner[i]), int(partner[j])
        delta = 0.0
        if pi >= 0:
            delta += gain(j, pi) - gain(i, pi)
        if pj >= 0:
            delta += gain(i, pj) - gain(j, pj)
        if delta >= 0.0:
            partner[i], partner[j] = pj, pi

    pairs: list[tuple[int, int]] = []
    for i in range(n_large):
        j = int(partner[i])
        if j >= 0 and gain(i, j) > 0.0:
            pairs.append((i, j))
    return pairs


def _bmc(
    matcher: BestMatchClustering,
    graph: SimilarityGraph,
    threshold: float,
) -> MatchingResult:
    basis = matcher._resolved_basis(graph)
    if basis == "left":
        n_basis = graph.n_left
        adjacency = graph.left_adjacency()
    else:
        n_basis = graph.n_right
        adjacency = graph.right_adjacency()

    matched_other: set[int] = set()
    pairs: list[tuple[int, int]] = []
    for node in range(n_basis):
        for other, weight in adjacency[node]:
            if weight <= threshold:
                break  # adjacency sorted by descending weight
            if other not in matched_other:
                matched_other.add(other)
                if basis == "left":
                    pairs.append((node, other))
                else:
                    pairs.append((other, node))
                break
    pairs.sort()
    return matcher._result(pairs, threshold)


def _exc(
    matcher: ExactClustering,
    graph: SimilarityGraph,
    threshold: float,
) -> MatchingResult:
    left_adjacency = graph.left_adjacency()
    right_adjacency = graph.right_adjacency()

    best_for_left = _best_neighbours(left_adjacency, threshold)
    best_for_right = _best_neighbours(right_adjacency, threshold)

    pairs: list[tuple[int, int]] = []
    for i, j in enumerate(best_for_left):
        if j >= 0 and best_for_right[j] == i:
            pairs.append((i, j))
    return matcher._result(pairs, threshold)


def _best_neighbours(
    adjacency: list[list[tuple[int, float]]], threshold: float
) -> list[int]:
    """Index of each node's top neighbour above the threshold, or -1."""
    best: list[int] = []
    for neighbours in adjacency:
        if neighbours and neighbours[0][1] > threshold:
            best.append(neighbours[0][0])
        else:
            best.append(-1)
    return best


def _krc(
    matcher: KiralyClustering,
    graph: SimilarityGraph,
    threshold: float,
) -> MatchingResult:
    n_left = graph.n_left
    left_adjacency = graph.left_adjacency()

    # Preference lists: neighbours above the threshold, already in
    # descending-weight order.
    preferences: list[list[tuple[int, float]]] = [
        [(j, w) for j, w in neighbours if w > threshold]
        for neighbours in left_adjacency
    ]
    limits = [len(prefs) for prefs in preferences]
    return matcher._propose(n_left, preferences, limits, threshold)


def _umc(
    matcher: UniqueMappingClustering,
    graph: SimilarityGraph,
    threshold: float,
) -> MatchingResult:
    mask = graph.weight > threshold
    left = graph.left[mask]
    right = graph.right[mask]
    weight = graph.weight[mask]

    order = np.lexsort((right, left, -weight))

    matched_left: set[int] = set()
    matched_right: set[int] = set()
    pairs: list[tuple[int, int]] = []
    for idx in order:
        i = int(left[idx])
        j = int(right[idx])
        if i in matched_left or j in matched_right:
            continue
        matched_left.add(i)
        matched_right.add(j)
        pairs.append((i, j))
    pairs.sort()
    return matcher._result(pairs, threshold)


def _hun(
    matcher: HungarianMatching,
    graph: SimilarityGraph,
    threshold: float,
) -> MatchingResult:
    mask = graph.weight > threshold
    return matcher._solve_dense(
        graph, graph.left[mask], graph.right[mask], graph.weight[mask],
        threshold,
    )


def _gsm(
    matcher: GaleShapleyMatching,
    graph: SimilarityGraph,
    threshold: float,
) -> MatchingResult:
    preferences: list[list[tuple[int, float]]] = [
        [(j, w) for j, w in neighbours if w > threshold]
        for neighbours in graph.left_adjacency()
    ]
    limits = [len(prefs) for prefs in preferences]
    return matcher._propose(graph.n_left, preferences, limits, threshold)


_BODIES = {
    ConnectedComponentsClustering: _cnc,
    RicochetSRClustering: _rsr,
    RowColumnClustering: _rca,
    BestAssignmentHeuristic: _bah,
    BestMatchClustering: _bmc,
    ExactClustering: _exc,
    KiralyClustering: _krc,
    UniqueMappingClustering: _umc,
    HungarianMatching: _hun,
    GaleShapleyMatching: _gsm,
}
