"""Best Match clustering (BMC) — Algorithm 5.

Inspired by the Best Match strategy of Similarity Flooding as
simplified in BigMat: scan the *basis* collection in order and pair
each entity with its most similar not-yet-matched entity of the other
collection, provided the edge weight exceeds the threshold.  Time
complexity ``O(m)``.

BMC is the paper's only algorithm with a second configuration
parameter: which collection serves as the basis.  The experiments run
both options and keep the better one; the paper notes the smaller
collection usually wins.
"""

from __future__ import annotations

from repro.graph.compiled import CompiledGraph
from repro.graph.selection import check_threshold
from repro.matching.base import Matcher, MatchingResult

__all__ = ["BestMatchClustering", "BASIS_CHOICES"]

BASIS_CHOICES = ("left", "right", "smaller")


class BestMatchClustering(Matcher):
    """BMC per Algorithm 5 of the paper.

    Parameters
    ----------
    basis:
        ``"left"`` scans ``V1``, ``"right"`` scans ``V2`` and
        ``"smaller"`` (the default, following the paper's observation)
        scans whichever collection has fewer entities.
    """

    code = "BMC"
    full_name = "Best Match Clustering"

    def __init__(self, basis: str = "smaller") -> None:
        if basis not in BASIS_CHOICES:
            raise ValueError(f"basis must be one of {BASIS_CHOICES}")
        self.basis = basis

    def _resolved_basis(self, graph) -> str:
        if self.basis != "smaller":
            return self.basis
        return "left" if graph.n_left <= graph.n_right else "right"

    def match_compiled(
        self, view: CompiledGraph, threshold: float
    ) -> MatchingResult:
        check_threshold(threshold)
        basis = self._resolved_basis(view)
        if basis == "left":
            n_basis = view.n_left
            adjacency = view.left_adjacency()
        else:
            n_basis = view.n_right
            adjacency = view.right_adjacency()

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
        return self._result(pairs, threshold)
