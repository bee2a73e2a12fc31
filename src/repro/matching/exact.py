"""Exact clustering (EXC) — Algorithm 6.

Inspired by the Exact strategy of Similarity Flooding: two entities are
paired only when they are *mutually* each other's best match and the
edge weight exceeds the threshold.  EXC is a stricter, symmetric
version of BMC — a reciprocity check that raises precision at the cost
of recall.
"""

from __future__ import annotations

import numpy as np

from repro.graph.compiled import CompiledGraph
from repro.graph.selection import check_threshold
from repro.matching.base import Matcher, MatchingResult

__all__ = ["ExactClustering"]


class ExactClustering(Matcher):
    """EXC per Algorithm 6 of the paper.

    The mutual-best-match pairs are found with one argmax per node over
    the adjacency lists; ties are broken by ascending neighbour index
    (the adjacency order), matching the priority-queue pop of the
    pseudocode.

    The compiled kernel is fully vectorized: each node's best match is
    the first entry of its CSR run (runs are sorted by descending
    weight, ties ascending neighbour), so the whole algorithm is three
    array gathers and one boolean reduction.
    """

    code = "EXC"
    full_name = "Exact Clustering"

    def match_compiled(
        self, view: CompiledGraph, threshold: float
    ) -> MatchingResult:
        check_threshold(threshold)
        best_left = self._best_csr(
            view.left_indptr, view.left_neighbors, view.left_weights, threshold
        )
        best_right = self._best_csr(
            view.right_indptr,
            view.right_neighbors,
            view.right_weights,
            threshold,
        )

        candidates = np.nonzero(best_left >= 0)[0]
        partners = best_left[candidates]
        mutual = best_right[partners] == candidates
        pairs = list(
            zip(candidates[mutual].tolist(), partners[mutual].tolist())
        )
        return self._result(pairs, threshold)

    @staticmethod
    def _best_csr(
        indptr: np.ndarray,
        neighbors: np.ndarray,
        weights: np.ndarray,
        threshold: float,
    ) -> np.ndarray:
        """Each node's top neighbour above the threshold, or -1."""
        starts = indptr[:-1]
        has_edges = starts < indptr[1:]
        if not len(neighbors):
            return np.full(len(starts), -1, dtype=np.int64)
        first = np.minimum(starts, len(neighbors) - 1)
        above = weights[first] > threshold
        return np.where(has_edges & above, neighbors[first], -1)
