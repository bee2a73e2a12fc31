"""Compiled similarity graphs: one sort per graph, O(log m) thresholds.

The paper's central experiment applies every matching algorithm to
every similarity graph at 20 thresholds.  Each legacy ``match`` call
independently masked, copied and re-sorted the same edge arrays; a
:class:`CompiledGraph` performs that work exactly once per
:class:`~repro.graph.bipartite.SimilarityGraph` and shares it across
all algorithms and all thresholds of a sweep:

* the **descending-weight edge permutation** (ties broken by ascending
  ``(left, right)``, the order Unique Mapping clustering consumes), so
  that "all edges above threshold ``t``" is a prefix slice located by
  one binary search instead of a mask + copy;
* **CSR adjacency for both sides**, each node's run sorted by
  descending weight with ties by ascending neighbour — bit-compatible
  with the legacy per-node adjacency lists;
* **per-threshold views** (:class:`EdgeSelection`), cached per
  ``(threshold, inclusive)`` pair so the ten algorithms of a sweep
  share one selection per grid point.

The permutation, the CSR build, the selection cache and the
selection's ``weight``, ``len`` and ``repr`` are the edge-graph core's
(:mod:`repro.graph.core`), shared with the Dirty-ER graph; this module
adds the bipartite views: the per-side sorted endpoints and CSRs, the
adjacency lists and node statistics the matchers read, and the
per-side selection counts.

Because every per-node CSR run is weight-descending, the edges above a
threshold also form a *prefix of every node's run*; per-node cutoffs
are one ``bincount`` over the selected prefix.  All derived artifacts
are lazy and cached — compiling is cheap until a consumer asks for
more.

The boundary convention (strict ``>`` vs inclusive ``>=``) is resolved
by :mod:`repro.graph.selection`, never here.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.graph.core import CompiledEdgeGraph, PrefixSelection, csr

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.graph.bipartite import SimilarityGraph

__all__ = ["CompiledGraph", "EdgeSelection"]

AdjacencyLists = list[list[tuple[int, float]]]


class EdgeSelection(PrefixSelection):
    """The edges of one compiled graph above one threshold.

    The selected edges are the prefix ``[0:count)`` of the compiled
    descending-weight permutation.  Because every per-node CSR run is
    also weight-descending, the selection restricted to one node is the
    prefix of that node's run: :meth:`left_counts` /
    :meth:`right_counts` give the per-node prefix lengths, so matchers
    iterate the cached full adjacency lists and stop at the count —
    no per-threshold list copies.  Everything is lazy: a matcher that
    only needs the edge count never computes the cutoffs.
    """

    __slots__ = VIEWS = ("_left_counts", "_right_counts")

    # -- selected edge arrays (descending weight) ----------------------
    @property
    def left(self) -> np.ndarray:
        return self.compiled.left_sorted[: self.count]

    @property
    def right(self) -> np.ndarray:
        return self.compiled.right_sorted[: self.count]

    def original_indices(self) -> np.ndarray:
        """Indices of the selected edges into the *source* edge arrays,
        ascending — for consumers that must replicate original-order
        semantics (e.g. duplicate-edge last-write-wins)."""
        return np.sort(self.compiled.order[: self.count])

    # -- per-node prefixes ---------------------------------------------
    def left_counts(self) -> list[int]:
        """For each left node, how many of its adjacency entries fall in
        the selection — i.e. the effective length of its preference
        list at this threshold (the entries ``0 .. count-1`` of the
        node's list in :meth:`CompiledGraph.left_adjacency`)."""
        if self._left_counts is None:
            self._left_counts = self._node_counts(
                self.left, self.compiled.n_left
            )
        return self._left_counts

    def right_counts(self) -> list[int]:
        if self._right_counts is None:
            self._right_counts = self._node_counts(
                self.right, self.compiled.n_right
            )
        return self._right_counts

    def _node_counts(self, endpoints: np.ndarray, n: int) -> list[int]:
        if not self.count:
            return [0] * n
        return np.bincount(endpoints, minlength=n).tolist()

    # -- conversions ---------------------------------------------------
    def to_graph(self) -> "SimilarityGraph":
        """The selection as a standalone graph, preserving ``name`` and
        ``metadata`` and the source's original edge order (bit-identical
        to :meth:`SimilarityGraph.prune` at the same settings)."""
        indices = self.original_indices()
        return self.compiled.source.subgraph_by_edge_indices(indices)


class CompiledGraph(CompiledEdgeGraph):
    """Shared, immutable precomputation over one similarity graph.

    Construction performs the three edge sorts (global descending and
    one CSR sort per side); everything else — materialised adjacency
    lists, node-average weights, per-threshold selections, per-matcher
    kernel state — is computed on first use and cached.

    The compiled form assumes the source graph's edge arrays are never
    mutated afterwards (the documented contract of
    :class:`~repro.graph.bipartite.SimilarityGraph`).
    """

    __slots__ = (
        "n_left",
        "n_right",
        "left_sorted",
        "right_sorted",
        "left_indptr",
        "left_neighbors",
        "left_weights",
        "right_indptr",
        "right_neighbors",
        "right_weights",
        "_left_pairs",
        "_right_pairs",
        "_left_lists",
        "_right_lists",
        "_merged_lists",
        "_averages",
        "_ripple_queue",
    )

    SELECTION = EdgeSelection

    def __init__(self, graph: "SimilarityGraph") -> None:
        super().__init__(graph)
        self.n_left = graph.n_left
        self.n_right = graph.n_right
        left, right, weight = graph.left, graph.right, graph.weight
        self.left_sorted = left[self.order]
        self.right_sorted = right[self.order]
        self.left_indptr, self.left_neighbors, self.left_weights = csr(
            left, right, weight, self.n_left
        )
        self.right_indptr, self.right_neighbors, self.right_weights = csr(
            right, left, weight, self.n_right
        )
        self._left_pairs: list[tuple[int, float]] | None = None
        self._right_pairs: list[tuple[int, float]] | None = None
        self._left_lists: AdjacencyLists | None = None
        self._right_lists: AdjacencyLists | None = None
        self._merged_lists: AdjacencyLists | None = None
        self._averages: tuple[np.ndarray, np.ndarray] | None = None
        self._ripple_queue: list[int] | None = None

    # ------------------------------------------------------------------
    # Full (threshold-free) adjacency
    # ------------------------------------------------------------------
    def left_pairs(self) -> list[tuple[int, float]]:
        """All ``(neighbour, weight)`` tuples in left-CSR order."""
        if self._left_pairs is None:
            self._left_pairs = list(
                zip(self.left_neighbors.tolist(), self.left_weights.tolist())
            )
        return self._left_pairs

    def right_pairs(self) -> list[tuple[int, float]]:
        if self._right_pairs is None:
            self._right_pairs = list(
                zip(self.right_neighbors.tolist(), self.right_weights.tolist())
            )
        return self._right_pairs

    def left_adjacency(self) -> AdjacencyLists:
        """Per-node adjacency lists for ``V1``, descending weight.

        Bit-compatible with the legacy
        :meth:`SimilarityGraph.left_adjacency` lists, but sliced out of
        the CSR arrays instead of rebuilt with a dedicated lexsort.
        """
        if self._left_lists is None:
            self._left_lists = self._slice_lists(
                self.left_pairs(), self.left_indptr
            )
        return self._left_lists

    def right_adjacency(self) -> AdjacencyLists:
        if self._right_lists is None:
            self._right_lists = self._slice_lists(
                self.right_pairs(), self.right_indptr
            )
        return self._right_lists

    def merged_adjacency(self) -> AdjacencyLists:
        """Adjacency over the merged id space (left node ``i`` -> ``i``,
        right node ``j`` -> ``n_left + j``), descending weight per node
        — Ricochet's node numbering, built once and cached."""
        if self._merged_lists is None:
            shifted = self.left_neighbors + self.n_left
            shifted_pairs = list(
                zip(shifted.tolist(), self.left_weights.tolist())
            )
            merged = self._slice_lists(shifted_pairs, self.left_indptr)
            merged.extend(self.right_adjacency())
            self._merged_lists = merged
        return self._merged_lists

    @staticmethod
    def _slice_lists(
        pairs: list[tuple[int, float]], indptr: np.ndarray
    ) -> AdjacencyLists:
        bounds = indptr.tolist()
        return [
            pairs[bounds[u] : bounds[u + 1]] for u in range(len(bounds) - 1)
        ]

    # ------------------------------------------------------------------
    # Node statistics (Ricochet's seed ordering)
    # ------------------------------------------------------------------
    def average_node_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """Average adjacent-edge weight per node, both sides, cached."""
        if self._averages is None:
            self._averages = self.source.average_node_weights()
        return self._averages

    def ripple_queue(self) -> list[int]:
        """Merged-id node order by descending average adjacent weight
        (ties by ascending id) — Ricochet's seed queue, cached."""
        if self._ripple_queue is None:
            left_avg, right_avg = self.average_node_weights()
            averages = list(left_avg) + list(right_avg)
            self._ripple_queue = sorted(
                range(self.n_left + self.n_right),
                key=lambda v: (-averages[v], v),
            )
        return self._ripple_queue
